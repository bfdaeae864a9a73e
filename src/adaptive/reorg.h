/// \file reorg.h
/// \brief Per-block replica rewrites: the adaptive loop's hands.
///
/// A MaintenanceTask names one replica and what to make of it:
///  - kInstallUnclustered: splice a dense per-block UnclusteredIndex on
///    the hot column into the existing replica (LIAH-style lazy
///    adaptivity) — sort order, clustered index and PAX payload are copied
///    verbatim, so the rewrite costs one read + key sort + write;
///  - kResortReplica: fully re-sort the replica to the hot column and
///    rebuild its clustered index via BuildSortedReplica, the re-sort the
///    upload-time HailReplicaTransformer and replica repairs use;
///  - kAddReplica / kEvictReplica / kBuildStats: aggressive replication,
///    its storage-budget eviction, and planner stats backfill.
///
/// Execution is split exactly like a replica repair (hail/re_replication.h)
/// so the scheduler's one background lane bills both alike:
/// PrepareReorg (at task assignment, read-only) computes a PreparedWrite —
/// the new replica bytes and the simulated duration, which the scheduler
/// stretches by the node's slow-node factor; CommitReorg (at the
/// completion event) atomically stores the bytes — bumping the datanode's
/// block generation, which invalidates every BlockCache entry for the old
/// bytes — and re-registers the replica in the namenode's Dir_rep so
/// getHostsWithIndex immediately routes queries to the new index.

#pragma once

#include <cstdint>

#include "hail/re_replication.h"
#include "hdfs/dfs_client.h"

namespace hail {
namespace adaptive {

/// \brief One background replica rewrite.
struct MaintenanceTask {
  enum class Kind : uint8_t {
    /// Add a dense unclustered index on `column`, keep everything else.
    kInstallUnclustered,
    /// Re-sort the replica by `column` + rebuild the clustered index.
    kResortReplica,
    /// Aggressive replication: copy the block's best replica for `column`
    /// onto `datanode` (which must not hold one), registering an extra
    /// replica *beyond* the replication factor. Byte copy, no transform.
    kAddReplica,
    /// Drop the extra replica on `datanode` (storage-budget eviction).
    /// Refused when it would leave fewer than `replication` alive copies.
    kEvictReplica,
    /// Build the planner's per-column block-statistics sidecar from the
    /// replica on `datanode` and register it with the namenode (backfill
    /// for blocks loaded before stats existed, or whose stats went stale
    /// after a repair/reorg). Metadata-only commit: the replica bytes and
    /// its generation are untouched. `column` is -1.
    kBuildStats,
  };

  uint64_t block_id = 0;
  /// Datanode whose replica is rewritten (the rewrite runs there). For
  /// kAddReplica the *target* of the copy; for kEvictReplica the evictee.
  int datanode = -1;
  /// The hot column the rewrite serves.
  int column = -1;
  Kind kind = Kind::kInstallUnclustered;

  bool operator==(const MaintenanceTask& o) const {
    return block_id == o.block_id && datanode == o.datanode &&
           column == o.column && kind == o.kind;
  }
};

/// Computes the rewrite without mutating anything. Fails when the replica
/// is missing, not PAX, or the column is out of range. Deterministic for a
/// given DFS state.
Result<PreparedWrite> PrepareReorg(const hdfs::MiniDfs& dfs,
                                   const MaintenanceTask& task);

/// Applies a prepared rewrite: StoreBlock (generation bump + cache
/// invalidation) and Dir_rep re-registration. Refuses when the node died
/// since preparation (the task is requeued by the caller and survives the
/// kill/revive cycle).
Status CommitReorg(hdfs::MiniDfs* dfs, const MaintenanceTask& task,
                   PreparedWrite prepared);

}  // namespace adaptive
}  // namespace hail
