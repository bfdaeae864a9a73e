#include "hail/re_replication.h"

#include <algorithm>
#include <utility>

#include "hail/hail_block.h"
#include "hdfs/packet.h"
#include "obs/metrics.h"

namespace hail {

namespace {

bool SameLayout(const hdfs::HailBlockReplicaInfo& a,
                const hdfs::HailBlockReplicaInfo& b) {
  return a.layout == b.layout && a.sort_column == b.sort_column &&
         a.index_kind == b.index_kind &&
         a.unclustered_column == b.unclustered_column;
}

}  // namespace

void SetReplicaBytes(const hdfs::MiniDfs& dfs, std::string bytes,
                     PreparedWrite* write) {
  write->bytes = std::move(bytes);
  write->info.replica_bytes = write->bytes.size();
  write->chunk_crcs = hdfs::ComputeChunkChecksums(
      write->bytes, static_cast<uint32_t>(dfs.config().chunk_bytes));
}

HailTransformParams StoredBlockParams(const hdfs::MiniDfs& dfs,
                                      const PaxBlock& base) {
  const double scale = dfs.config().scale_factor;
  HailTransformParams params;
  params.varlen_partition_size = dfs.config().format.varlen_partition_size;
  params.index_partition_logical =
      dfs.cluster().constants().index_partition_logical;
  params.logical_fixed_bytes = static_cast<uint64_t>(
      static_cast<double>(base.FixedPayloadBytes()) * scale);
  params.logical_varlen_bytes = static_cast<uint64_t>(
      static_cast<double>(base.VarlenPayloadBytes()) * scale);
  params.logical_records = static_cast<uint64_t>(
      static_cast<double>(base.num_records()) * scale);
  return params;
}

double CopySeconds(const hdfs::MiniDfs& dfs, int source, int target,
                   uint64_t logical_read, double cpu, uint64_t logical_write) {
  const sim::CostModel& dst = dfs.cluster().node(target).cost();
  double seconds = dfs.cluster().node(source).cost().DiskAccess(logical_read);
  if (source != target) seconds += dst.NetTransfer(logical_read);
  seconds += cpu + dst.Crc(logical_write) + dst.DiskAccess(logical_write);
  return seconds;
}

bool RepairStillNeeded(const hdfs::MiniDfs& dfs,
                       const hdfs::UnderReplicatedEntry& entry) {
  if (!dfs.namenode().GetBlockDatanodes(entry.block_id).ok()) {
    return false;  // the file was deleted; nothing to restore
  }
  if (!entry.ownership_revoked &&
      dfs.namenode().IsDatanodeAlive(entry.lost_datanode) &&
      dfs.namenode().GetReplicaInfo(entry.block_id, entry.lost_datanode).ok()) {
    return false;  // the node revived with its replica intact
  }
  return true;
}

int PickRepairTarget(const hdfs::MiniDfs& dfs,
                     const hdfs::UnderReplicatedEntry& entry) {
  const hdfs::Namenode& nn = dfs.namenode();
  auto eligible = [&](int node) {
    return nn.IsDatanodeAlive(node) &&
           !nn.GetReplicaInfo(entry.block_id, node).ok();
  };
  // Restoring the original placement keeps post-repair locality identical
  // to pre-fault (the Fig. 8 recovery gate measures exactly this).
  if (eligible(entry.lost_datanode)) return entry.lost_datanode;
  for (int node = 0; node < dfs.num_datanodes(); ++node) {
    if (eligible(node)) return node;
  }
  return -1;
}

Result<PreparedWrite> PrepareRepair(const hdfs::MiniDfs& dfs,
                                    const hdfs::UnderReplicatedEntry& entry,
                                    int target) {
  if (target < 0 || target >= dfs.num_datanodes()) {
    return Status::InvalidArgument("repair has no target datanode");
  }
  const hdfs::Namenode& nn = dfs.namenode();
  HAIL_ASSIGN_OR_RETURN(std::vector<int> survivors,
                        nn.GetBlockDatanodes(entry.block_id));
  survivors.erase(std::remove(survivors.begin(), survivors.end(), target),
                  survivors.end());
  if (survivors.empty()) {
    return Status::Unavailable("no live source replica for block " +
                               std::to_string(entry.block_id));
  }

  const double scale = dfs.config().scale_factor;
  const hdfs::HailBlockReplicaInfo& want = entry.lost_info;

  PreparedWrite out;

  // Preferred path: a surviving replica already has the wanted layout —
  // the repair is a byte copy and the registered Dir_rep record is the
  // source's (the bytes are its bytes).
  int copy_source = -1;
  for (int s : survivors) {
    auto info = nn.GetReplicaInfo(entry.block_id, s);
    if (info.ok() && SameLayout(*info, want)) {
      copy_source = s;
      out.info = *info;
      break;
    }
  }
  if (copy_source >= 0) {
    HAIL_ASSIGN_OR_RETURN(
        std::string_view raw,
        dfs.datanode(copy_source).ReadBlockRaw(entry.block_id));
    SetReplicaBytes(dfs, std::string(raw), &out);
    const uint64_t logical = static_cast<uint64_t>(
        static_cast<double>(out.bytes.size()) * scale);
    out.seconds = CopySeconds(dfs, copy_source, target, logical,
                              /*cpu=*/0.0, logical);
  } else if (want.layout == hdfs::ReplicaLayout::kPax) {
    // Transform path: re-sort any surviving PAX replica to the wanted
    // column, rebuilding the clustered index the way the upload-time
    // transformer does. A consumed unclustered index is not restored
    // (rowids would be stale); the adaptive observer re-installs it if
    // the column is still hot.
    int pax_source = -1;
    for (int s : survivors) {
      auto info = nn.GetReplicaInfo(entry.block_id, s);
      if (info.ok() && info->layout == hdfs::ReplicaLayout::kPax) {
        pax_source = s;
        break;
      }
    }
    if (pax_source < 0) {
      return Status::Unavailable("no PAX source replica for block " +
                                 std::to_string(entry.block_id));
    }
    HAIL_ASSIGN_OR_RETURN(std::string_view raw,
                          dfs.datanode(pax_source).ReadBlockRaw(entry.block_id));
    HAIL_ASSIGN_OR_RETURN(HailBlockView view, HailBlockView::Open(raw));
    HAIL_ASSIGN_OR_RETURN(PaxBlock base,
                          PaxBlock::Deserialize(view.pax_section()));
    out.info = want;
    out.info.unclustered_column = -1;
    out.info.unclustered_index_bytes = 0;

    const uint64_t logical_data = static_cast<uint64_t>(
        static_cast<double>(base.PayloadBytes()) * scale);
    double cpu = 0.0;
    uint64_t logical_index = 0;
    if (want.has_index()) {
      if (want.sort_column < 0 ||
          want.sort_column >= base.schema().num_fields()) {
        return Status::InvalidArgument("lost replica sort column outside schema");
      }
      SortedReplica sorted =
          BuildSortedReplica(base, want.sort_column,
                             StoredBlockParams(dfs, base),
                             dfs.cluster().node(target).cost());
      SetReplicaBytes(dfs, std::move(sorted.bytes), &out);
      out.info.index_bytes = sorted.index_bytes;
      cpu = sorted.cpu_seconds;
      logical_index = sorted.logical_index_bytes;
    } else {
      SetReplicaBytes(dfs, BuildHailBlock(base, nullptr, -1), &out);
    }
    out.seconds = CopySeconds(dfs, pax_source, target, logical_data, cpu,
                              logical_data + logical_index);
  } else {
    // A non-PAX replica (text / binary rows) can only be cloned from a
    // same-layout survivor, and none is left.
    return Status::Unavailable("no same-layout source replica for block " +
                               std::to_string(entry.block_id));
  }

  obs::MetricsRegistry& metrics = dfs.metrics();
  metrics.counter("repair.prepares")->Inc();
  metrics.counter("repair.bytes_prepared")->Add(out.bytes.size());
  return out;
}

Status CommitRepair(hdfs::MiniDfs* dfs,
                    const hdfs::UnderReplicatedEntry& entry, int target,
                    PreparedWrite prepared) {
  if (!dfs->cluster().node(target).alive()) {
    return Status::FailedPrecondition("repair target died mid-repair");
  }
  dfs->datanode(target).StoreBlock(entry.block_id, std::move(prepared.bytes),
                                   prepared.chunk_crcs);
  HAIL_RETURN_NOT_OK(
      dfs->namenode().CompleteRepair(entry, target, prepared.info));
  dfs->metrics().counter("repair.commits")->Inc();
  return Status::OK();
}

}  // namespace hail
