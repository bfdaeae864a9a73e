#include "hail/hail_client.h"

#include <algorithm>

#include "hdfs/replica_transform.h"
#include "hdfs/upload_pipeline.h"
#include "layout/pax_block.h"
#include "schema/row_parser.h"

namespace hail {

std::vector<std::string_view> CutRowAlignedBlocks(std::string_view text,
                                                  uint64_t block_size) {
  std::vector<std::string_view> blocks;
  size_t block_start = 0;
  size_t pos = 0;
  size_t last_row_end = 0;  // one past the newline of the last complete row
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    const size_t row_end = (nl == std::string_view::npos) ? text.size() : nl + 1;
    if (row_end - block_start > block_size && last_row_end > block_start) {
      // Adding this row would overflow: close the block at the previous
      // row boundary ("we never split a row between two blocks", §3.1).
      blocks.push_back(text.substr(block_start, last_row_end - block_start));
      block_start = last_row_end;
    }
    last_row_end = row_end;
    pos = row_end;
  }
  if (block_start < text.size()) {
    blocks.push_back(text.substr(block_start));
  }
  return blocks;
}

namespace {

/// State for one client uploading one file (mirrors hdfs::ClientCursor but
/// with the HAIL conversion steps).
struct HailCursor {
  int client_node;
  std::string dfs_path;
  std::vector<std::string_view> blocks;
  size_t next_block = 0;
  sim::SimTime ready;  // client disk/CPU chain readiness
  sim::SimTime completed = 0.0;
  HailUploadReport stats;
  bool done() const { return next_block >= blocks.size(); }
};

Result<bool> UploadNextHailBlock(hdfs::MiniDfs* dfs,
                                 const HailUploadConfig& config,
                                 HailCursor* cur) {
  if (cur->done()) return false;
  const hdfs::DfsConfig& cfg = dfs->config();
  sim::SimCluster& cluster = dfs->cluster();
  std::string_view text_block = cur->blocks[cur->next_block++];

  const uint64_t logical_text_bytes = static_cast<uint64_t>(
      static_cast<double>(text_block.size()) * cfg.scale_factor);

  // ---- client side: read source, parse rows, build PAX (steps 1-2);
  // BuildPaxBlockFromText parses straight into typed columns ----
  sim::SimNode& client = cluster.node(cur->client_node);
  const sim::Interval read = client.src_disk().Schedule(
      cur->ready, client.cost().DiskTransfer(logical_text_bytes));

  PaxBlock pax = BuildPaxBlockFromText(config.schema, text_block, cfg.format);
  const std::string client_block = pax.Serialize();
  // Logical sizes come from the values-only payload: the real serialised
  // block carries offset side-cars at scaled-down density, which must not
  // be multiplied back up (DESIGN.md §2).
  const uint64_t logical_pax_bytes =
      static_cast<uint64_t>(static_cast<double>(pax.PayloadBytes()) *
                            cfg.scale_factor) +
      hdfs::kLogicalBlockOverhead;

  const sim::Interval parse = client.cpu().Schedule(
      read.end, client.cost().TextParse(logical_text_bytes) +
                    client.cost().PaxBuild(logical_pax_bytes));

  // ---- namenode: allocate block + targets (step 3) ----
  HAIL_ASSIGN_OR_RETURN(hdfs::BlockAllocation alloc,
                        dfs->namenode().AllocateBlock(
                            cur->dfs_path, cur->client_node, cfg.replication));

  // ---- steps 4-15 live in the shared transport: packets, ACKs, chain
  // timing, then one HailReplicaTransformer decode + per-replica
  // sort/index/flush on the datanodes ----
  HailTransformParams params;
  params.sort_columns = config.sort_columns;
  params.build_stats = config.build_stats;
  params.chunk_bytes = cfg.chunk_bytes;
  params.varlen_partition_size = cfg.format.varlen_partition_size;
  params.index_partition_logical = cluster.constants().index_partition_logical;
  params.logical_pax_bytes = logical_pax_bytes;
  params.logical_fixed_bytes = static_cast<uint64_t>(
      static_cast<double>(pax.FixedPayloadBytes()) * cfg.scale_factor);
  params.logical_varlen_bytes = static_cast<uint64_t>(
      static_cast<double>(pax.VarlenPayloadBytes()) * cfg.scale_factor);
  params.logical_records = static_cast<uint64_t>(
      static_cast<double>(pax.num_records()) * cfg.scale_factor);
  HailReplicaTransformer transformer(std::move(params));

  HAIL_ASSIGN_OR_RETURN(
      hdfs::BlockWriteResult result,
      dfs->pipeline().WriteBlock(cur->client_node, parse.end, alloc.block_id,
                                 client_block, logical_pax_bytes,
                                 alloc.datanodes, &transformer));

  // Client may start preparing the next block once its CPU freed up;
  // pipeline back-pressure is enforced by the resource queues.
  cur->ready = read.end;
  cur->completed = std::max(cur->completed, result.completed);
  cur->stats.blocks += 1;
  if (text_block.size() > cfg.block_size) {
    // A single row longer than the block size: CutRowAlignedBlocks
    // isolates it in its own oversized block (see hail_client.h).
    cur->stats.oversized_blocks += 1;
  }
  cur->stats.text_real_bytes += text_block.size();
  cur->stats.pax_real_bytes += client_block.size();
  cur->stats.replica_real_bytes += result.replica_bytes_total;
  cur->stats.bad_records += pax.bad_records().size();
  return true;
}

HailUploadReport MergeReports(const std::vector<HailCursor>& cursors,
                              sim::SimTime start_time) {
  HailUploadReport report;
  report.started = start_time;
  for (const HailCursor& cur : cursors) {
    report.completed = std::max(report.completed, cur.completed);
    report.blocks += cur.stats.blocks;
    report.text_real_bytes += cur.stats.text_real_bytes;
    report.pax_real_bytes += cur.stats.pax_real_bytes;
    report.replica_real_bytes += cur.stats.replica_real_bytes;
    report.bad_records += cur.stats.bad_records;
    report.oversized_blocks += cur.stats.oversized_blocks;
  }
  return report;
}

}  // namespace

Result<HailUploadReport> HailUploadTextFile(hdfs::MiniDfs* dfs,
                                            const HailUploadConfig& config,
                                            int client_node,
                                            const std::string& dfs_path,
                                            std::string_view text,
                                            sim::SimTime start_time) {
  if (static_cast<int>(config.sort_columns.size()) >
      dfs->config().replication) {
    return Status::InvalidArgument(
        "more sort columns than replicas: HAIL creates at most one index "
        "per replica");
  }
  std::vector<HailCursor> cursors(1);
  cursors[0].client_node = client_node;
  cursors[0].dfs_path = dfs_path;
  cursors[0].blocks = CutRowAlignedBlocks(text, dfs->config().block_size);
  cursors[0].ready = start_time;
  while (!cursors[0].done()) {
    HAIL_ASSIGN_OR_RETURN(bool more,
                          UploadNextHailBlock(dfs, config, &cursors[0]));
    if (!more) break;
  }
  return MergeReports(cursors, start_time);
}

Result<HailUploadReport> HailParallelUpload(
    hdfs::MiniDfs* dfs, const HailUploadConfig& config,
    const std::vector<hdfs::ParallelUploadSpec>& specs,
    sim::SimTime start_time) {
  if (static_cast<int>(config.sort_columns.size()) >
      dfs->config().replication) {
    return Status::InvalidArgument(
        "more sort columns than replicas: HAIL creates at most one index "
        "per replica");
  }
  std::vector<HailCursor> cursors;
  cursors.reserve(specs.size());
  for (const hdfs::ParallelUploadSpec& spec : specs) {
    HailCursor cur;
    cur.client_node = spec.client_node;
    cur.dfs_path = spec.dfs_path;
    cur.blocks = CutRowAlignedBlocks(spec.text, dfs->config().block_size);
    cur.ready = start_time;
    cursors.push_back(std::move(cur));
  }
  bool any = true;
  while (any) {
    any = false;
    for (HailCursor& cur : cursors) {
      if (cur.done()) continue;
      HAIL_ASSIGN_OR_RETURN(bool more, UploadNextHailBlock(dfs, config, &cur));
      any = any || more || !cur.done();
    }
  }
  return MergeReports(cursors, start_time);
}

}  // namespace hail
