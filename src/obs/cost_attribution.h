/// \file cost_attribution.h
/// \brief Per-query attribution of billed simulated cost to typed buckets.
///
/// Every CostModel billing site also books the same seconds into exactly
/// one bucket of a CostLedger. The ledger is pure bookkeeping on the
/// side: the simulated doubles that drive the clock (TaskCost
/// disk/cpu/net seconds) are never touched, so enabling attribution
/// cannot perturb a single billed cost (the zero-simulated-overhead
/// guarantee gated in CI).
///
/// Buckets are integer nanoseconds. `Bill` converts seconds to nanos
/// once and adds the same quantum to both the bucket and the running
/// total, so
///
///     sum(buckets) == total_nanos        (exactly, by construction)
///
/// which is what the invariant test enforces — a billing site that
/// forgets to attribute (or attributes twice) breaks the companion
/// check that total_nanos tracks the double-side billed total.
///
/// Integer nanos also make the ledger bit-identical between serial and
/// parallel execution: uint64 addition commutes, so the merge order of
/// per-task ledgers at completion events cannot change any value.

#pragma once

#include <cstdint>
#include <cmath>

namespace hail {
namespace obs {

/// Where one billed cost term goes. Readers bill the first four;
/// kFailoverReread is billed by the replica-failover path for work on
/// replicas that turned out corrupt or dead; the two waste buckets are
/// billed by the session engine (slot time lost to preemption, the full
/// cost of a speculative attempt that lost the race).
enum class CostBucket : uint8_t {
  kSeek = 0,
  kTransfer,
  kNetwork,
  kCpu,
  kFailoverReread,
  kWastedPreemption,
  kWastedSpeculation,
};
inline constexpr int kNumCostBuckets = 7;

inline const char* CostBucketName(CostBucket b) {
  switch (b) {
    case CostBucket::kSeek:
      return "seek";
    case CostBucket::kTransfer:
      return "transfer";
    case CostBucket::kNetwork:
      return "network";
    case CostBucket::kCpu:
      return "cpu";
    case CostBucket::kFailoverReread:
      return "failover_reread";
    case CostBucket::kWastedPreemption:
      return "wasted_preemption";
    case CostBucket::kWastedSpeculation:
      return "wasted_speculation";
  }
  return "?";
}

/// \brief Integer-nanosecond cost breakdown; buckets sum exactly to
/// total_nanos.
struct CostLedger {
  uint64_t nanos[kNumCostBuckets] = {};
  uint64_t total_nanos = 0;

  /// Books \p seconds into \p bucket (and the total). Negative or NaN
  /// amounts are clamped to zero — billing sites only produce
  /// non-negative simulated seconds.
  void Bill(CostBucket bucket, double seconds) {
    if (!(seconds > 0.0)) return;
    const uint64_t n = static_cast<uint64_t>(std::llround(seconds * 1e9));
    nanos[static_cast<int>(bucket)] += n;
    total_nanos += n;
  }

  void Add(const CostLedger& other) {
    for (int i = 0; i < kNumCostBuckets; ++i) nanos[i] += other.nanos[i];
    total_nanos += other.total_nanos;
  }

  uint64_t BucketSum() const {
    uint64_t sum = 0;
    for (uint64_t n : nanos) sum += n;
    return sum;
  }

  uint64_t bucket(CostBucket b) const { return nanos[static_cast<int>(b)]; }
  double total_seconds() const {
    return static_cast<double>(total_nanos) * 1e-9;
  }
  bool operator==(const CostLedger&) const = default;
};

}  // namespace obs
}  // namespace hail
