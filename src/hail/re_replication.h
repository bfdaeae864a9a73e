/// \file re_replication.h
/// \brief Background repair of lost replicas (HDFS self-healing, HAIL-aware),
/// and the prepared-write record every background replica write shares.
///
/// When a node dies or a replica is reported corrupt, the namenode queues
/// an UnderReplicatedEntry remembering the *replica-specific* layout that
/// was lost (sort column, index kind — §3.3's Dir_rep record). Repairs
/// ride the scheduler's background lane (strictly below foreground work)
/// and re-create that exact layout on a new node:
///
///  - when a surviving replica already has the wanted layout, the repair
///    is a plain byte copy (source read + network + checksum + write);
///  - otherwise a surviving PAX replica is re-sorted to the wanted column
///    through BuildSortedReplica, the upload pipeline's re-sort, so the
///    repaired cluster answers clustered index scans exactly like the
///    pre-fault one.
///
/// Repairs and adaptive rewrites (adaptive/reorg.h) split execution the
/// same way: Prepare at assignment (read-only) yields a PreparedWrite —
/// bytes plus simulated price — and Commit at the completion event stores
/// it (here: StoreBlock on the target + namenode bookkeeping, including
/// revoking the dead node's stale copy).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hail/hail_block.h"
#include "hdfs/dfs_client.h"

namespace hail {

/// \brief A background replica write ready to commit, plus its simulated
/// price: a repair here or an adaptive rewrite (adaptive/reorg.h).
struct PreparedWrite {
  std::string bytes;                 // new replica bytes
  std::vector<uint32_t> chunk_crcs;  // recomputed checksums
  hdfs::HailBlockReplicaInfo info;   // Dir_rep record to register
  /// Stats backfill only: the serialized planner::BlockStats sidecar to
  /// register at commit (replica bytes stay untouched).
  std::string stats;
  /// Simulated seconds the write occupies its background slot, billed on
  /// the nodes' cost models; the scheduler stretches it by the executing
  /// node's slow-node factor.
  double seconds = 0.0;
};

/// Sets `write->bytes`, its Dir_rep size and its per-chunk checksums.
void SetReplicaBytes(const hdfs::MiniDfs& dfs, std::string bytes,
                     PreparedWrite* write);

/// The upload-time billing sizes (HailTransformParams) of a block already
/// stored as `base`, so a background re-sort bills what an upload would.
HailTransformParams StoredBlockParams(const hdfs::MiniDfs& dfs,
                                      const PaxBlock& base);

/// Simulated seconds of a replica copy onto `target`: `source` reads
/// `logical_read` bytes, the network ships them when the nodes differ,
/// then the target spends `cpu`, checksums and writes `logical_write`
/// bytes — read [+ net] + ((cpu + crc) + write).
double CopySeconds(const hdfs::MiniDfs& dfs, int source, int target,
                   uint64_t logical_read, double cpu, uint64_t logical_write);

/// True when the entry still describes missing data. A node-death loss
/// whose node revived with the replica intact, or a block that no longer
/// exists, needs no repair (the caller drops the entry via AbandonRepair).
bool RepairStillNeeded(const hdfs::MiniDfs& dfs,
                       const hdfs::UnderReplicatedEntry& entry);

/// Picks the node to re-create the replica on: the lost node itself when
/// it is alive and no longer owns the block (corruption repair restores
/// the original placement), else the lowest-id alive non-holder. Returns
/// -1 when no eligible node exists.
int PickRepairTarget(const hdfs::MiniDfs& dfs,
                     const hdfs::UnderReplicatedEntry& entry);

/// Computes the repair without mutating anything. Returns Unavailable
/// when no live source replica exists right now (retry later).
/// Deterministic for a given DFS state.
Result<PreparedWrite> PrepareRepair(const hdfs::MiniDfs& dfs,
                                    const hdfs::UnderReplicatedEntry& entry,
                                    int target);

/// Applies a prepared repair: StoreBlock on the target (generation bump +
/// cache invalidation) and namenode CompleteRepair (register + revoke the
/// superseded copy). Refuses when the target died since preparation.
Status CommitRepair(hdfs::MiniDfs* dfs,
                    const hdfs::UnderReplicatedEntry& entry, int target,
                    PreparedWrite prepared);

}  // namespace hail
