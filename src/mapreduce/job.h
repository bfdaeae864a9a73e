/// \file job.h
/// \brief MapReduce job definitions: HailRecord, map functions, job specs.
///
/// §4.1: Bob writes his job almost as before, with three small changes —
/// the HailInputFormat, a @HailQuery annotation (filter + projection), and
/// a HailRecord input value whose accessors address attributes by their
/// original position. This header is the C++ rendering of that API; stock
/// Hadoop and Hadoop++ jobs use the same JobSpec with a different
/// `system`.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/cost_attribution.h"
#include "obs/explain.h"
#include "query/predicate.h"
#include "schema/schema.h"
#include "schema/value.h"

namespace hail {
namespace mapreduce {

/// \brief The record handed to a map function.
///
/// Carries either projected attributes (HAIL with a projection), the full
/// row, or — for bad records — the raw text plus a flag ("the HailRecord
/// provides a flag to indicate bad records", §4.3).
class HailRecord {
 public:
  HailRecord() = default;

  static HailRecord FullRow(std::vector<Value> values) {
    HailRecord r;
    r.values_ = std::move(values);
    return r;
  }
  static HailRecord Projected(std::vector<int> attrs,
                              std::vector<Value> values) {
    HailRecord r;
    r.attrs_ = std::move(attrs);
    r.values_ = std::move(values);
    return r;
  }
  static HailRecord BadRecord(std::string raw) {
    HailRecord r;
    r.bad_ = true;
    r.raw_ = std::move(raw);
    return r;
  }

  bool bad() const { return bad_; }
  const std::string& raw() const { return raw_; }

  /// Attribute access by 1-based original position, mirroring the paper's
  /// `v.getInt(1)`. Works for both full and projected records.
  const Value& Get(int attr_position) const;
  int64_t GetInt(int attr_position) const;
  double GetDouble(int attr_position) const;
  const std::string& GetString(int attr_position) const;

  /// Values in projection (or schema) order.
  const std::vector<Value>& values() const { return values_; }
  /// 0-based attribute indexes of values(); empty = full row.
  const std::vector<int>& attrs() const { return attrs_; }

 private:
  std::vector<Value> values_;
  std::vector<int> attrs_;
  bool bad_ = false;
  std::string raw_;
};

/// \brief Collects map-function output.
class MapOutput {
 public:
  explicit MapOutput(bool collect) : collect_(collect) {}

  void Emit(std::string row) {
    ++count_;
    if (collect_) rows_.push_back(std::move(row));
  }

  uint64_t count() const { return count_; }
  std::vector<std::string>& rows() { return rows_; }
  const std::vector<std::string>& rows() const { return rows_; }

 private:
  bool collect_;
  uint64_t count_ = 0;
  std::vector<std::string> rows_;
};

using MapFn = std::function<void(const HailRecord&, MapOutput*)>;

/// \brief Which stack executes the job.
enum class System {
  kHadoop,    // text blocks, full scan
  kHadoopPP,  // Hadoop++: binary rows + trojan index (per logical block)
  kHail,      // HAIL: PAX + per-replica clustered indexes
};

std::string_view SystemName(System system);

/// \brief A MapReduce job (map-only, like all of the paper's queries).
struct JobSpec {
  std::string name;
  std::string input_file;
  Schema schema;
  System system = System::kHadoop;

  /// The @HailQuery annotation. For kHadoop the text reader evaluates the
  /// filter on every row before the map (Bob's hand-written
  /// string-splitting filter); for kHail/kHadoopPP it drives index
  /// selection and post-filtering.
  std::optional<QueryAnnotation> annotation;

  /// User map function; when empty, a default function emits the projected
  /// attributes as a delimited row (used by the equivalence tests).
  MapFn map;

  /// HailSplitting (§4.3): pack many blocks into one split for index-scan
  /// jobs. Disabled in §6.4's experiments, enabled in §6.5's.
  bool hail_splitting = false;

  /// Cost-based access-path planning (planner/access_planner.h): choose a
  /// path per block from upload-time statistics and skip blocks whose
  /// zone map is disjoint from the filter. Off by default: unplanned jobs
  /// execute bit-identically to before the planner existed.
  bool use_planner = false;

  /// Store emitted rows in the JobResult (tests) or only count (benches).
  bool collect_output = false;
};

/// \brief Per-job outcome + the measurements the paper reports.
struct JobResult {
  std::string job_name;
  /// Fig 6(a)/7(a)/9: end-to-end job runtime, seconds.
  double end_to_end_seconds = 0.0;
  /// Fig 6(b)/7(b): average RecordReader time per map task, seconds.
  double avg_record_reader_seconds = 0.0;
  /// Fig 6(c)/7(c): T_ideal = #MapTasks/#ParallelMapTasks * Avg(T_RR).
  double ideal_seconds = 0.0;
  /// T_overhead = T_end-to-end - T_ideal.
  double overhead_seconds = 0.0;

  uint32_t map_tasks = 0;
  uint32_t rescheduled_tasks = 0;
  /// HAIL tasks that could not find a matching index and fell back to a
  /// full scan (failover path, §2.2).
  uint32_t fallback_scans = 0;
  /// Tasks that read at least one block through a clustered/trojan index
  /// scan (the adaptive loop's per-task access-path signal).
  uint32_t index_scan_tasks = 0;
  /// Tasks served by an adaptive per-block unclustered index.
  uint32_t unclustered_scan_tasks = 0;

  // -- background maintenance (adaptive reorganization) piggybacked on
  // this job's idle slots --
  uint32_t maintenance_scheduled = 0;
  uint32_t maintenance_completed = 0;
  uint32_t maintenance_failed = 0;

  uint64_t records_seen = 0;
  uint64_t records_qualifying = 0;
  uint64_t output_count = 0;
  uint64_t bad_records_seen = 0;
  std::vector<std::string> output_rows;  // populated when collect_output

  // -- observability (obs/): cost attribution + EXPLAIN inputs --
  /// Per-bucket breakdown of every cost this job was billed: the winning
  /// attempts' reader costs plus engine-level waste (preempted slot time,
  /// speculative losers). Buckets sum exactly to `cost.total_nanos`; the
  /// companion double `billed_cost_seconds` tracks it within rounding.
  obs::CostLedger cost;
  double billed_cost_seconds = 0.0;
  /// Index/sort column the job plan keyed on (-1 = full scan plan).
  int index_column = -1;
  uint64_t blocks_scanned = 0;
  uint64_t blocks_skipped = 0;
  uint64_t rows_skipped = 0;

  // -- cost-based planning (JobSpec::use_planner) --
  /// True when the access-path planner produced this job's plan.
  bool planned = false;
  /// Planner-predicted billed cost (sum of per-block estimates), seconds.
  double predicted_cost_seconds = 0.0;
  /// Blocks never read because their zone map was disjoint from the
  /// filter (subset of blocks_skipped).
  uint64_t zone_skipped_blocks = 0;
  /// Filled when RunOptions::profile is set (single-job runner path).
  std::optional<obs::QueryProfile> profile;
};

}  // namespace mapreduce
}  // namespace hail
