/// \file node_profile.h
/// \brief Hardware profiles for the node types used in the paper's clusters.
///
/// The paper (§6.1, §6.3.3) evaluates on a physical 10-node cluster
/// (2.66 GHz quad-core Xeon, 16 GB RAM, 6x750 GB SATA, 3x GbE) and on EC2
/// m1.large / m1.xlarge / cc1.4xlarge nodes. Profile constants below are
/// calibrated so the stock-Hadoop baselines land near the paper's absolute
/// numbers (see DESIGN.md §5); every other result must follow from the model.

#pragma once

#include <string>

namespace hail {
namespace sim {

/// \brief Per-node hardware description used by the cost model.
struct NodeProfile {
  std::string name;

  /// Relative CPU speed; 1.0 is the physical cluster's Xeon core.
  double cpu_factor = 1.0;

  /// Cores available for parsing/sorting/indexing work.
  int cores = 4;

  /// Concurrent map tasks a TaskTracker runs (Hadoop 0.20 default: 2).
  int map_slots = 2;

  /// Datanode pipeline worker threads available for upload-side CPU work
  /// (sorting, index build, checksum recomputation). HAIL piggybacks on
  /// the HDFS writer threads, which are bounded, so sorts cannot fan out
  /// over every core.
  int upload_worker_threads = 3;

  /// Effective sequential disk bandwidth in MB/s. Deliberately below the
  /// device's raw rate: HDFS interleaves data and checksum files and pays
  /// filesystem/journal overhead per replica (calibrated so the stock
  /// Hadoop upload of Fig. 4a lands at ~1400 s).
  double disk_mbps = 44.5;

  /// Average seek + rotational latency in milliseconds (paper §3.5 uses 5ms).
  double disk_seek_ms = 5.0;

  /// Per-direction network bandwidth in MB/s.
  double net_mbps = 110.0;

  /// --- Presets (constants documented in DESIGN.md §5) ---

  /// The 10-node physical cluster: quad-core Xeon, 3x GbE, SATA disks.
  static NodeProfile Physical();
  /// EC2 m1.large: 2 slow cores, modest disk.
  static NodeProfile EC2Large();
  /// EC2 m1.xlarge: 4 cores, better disk.
  static NodeProfile EC2XLarge();
  /// EC2 cc1.4xlarge (cluster quadruple): 8 fast cores, 10 GbE.
  static NodeProfile EC2ClusterQuad();
};

/// \brief Calibrated workload-independent cost constants.
///
/// CPU costs are for one physical-profile core and get divided by
/// `cpu_factor`. Calibration targets are the stock-Hadoop numbers of
/// Fig. 4(a) and Fig. 6(a); see DESIGN.md §5.
struct CostConstants {
  // --- upload-side CPU work ---
  /// Parsing text rows into typed fields (client side), per logical MB.
  double text_parse_ms_per_mb = 20.0;
  /// Assembling PAX minipages from parsed fields, per logical MB of binary.
  double pax_build_ms_per_mb = 6.0;
  /// Sort comparison cost, applied as records * log2(records) * this.
  /// Integer/double keys compare in a few cycles; string keys pay pointer
  /// chasing plus byte-wise comparison. Calibrated so a 64 MB UserVisits
  /// block sorts+indexes in the "two or three seconds" of §3.5.
  double sort_cmp_fixed_ns = 40.0;
  double sort_cmp_string_ns = 350.0;
  /// Reorganising the non-key columns to the sorted order, per byte moved.
  /// Fixed-width columns are gathered with cheap indexed loads; varlen
  /// (string) columns pay per-value allocation and copying.
  double reorg_fixed_ns_per_byte = 20.0;
  double reorg_varlen_ns_per_byte = 48.0;
  /// Building the sparse clustered index + varlen offset lists, per record.
  double index_build_us_per_record = 0.15;
  /// Building a dense unclustered index (adaptive reorg): sorting one
  /// (key, rowid) pair per record dominates, so it costs more per record
  /// than the sparse clustered root but far less than a full block re-sort.
  double unclustered_build_us_per_record = 0.35;
  /// CRC32C computation/verification, per MB.
  double crc_ms_per_mb = 0.35;

  // --- query-side CPU work ---
  /// Splitting/parsing one text record in the standard Hadoop RecordReader.
  double scan_parse_us_per_record = 1.6;
  /// Deserialising one record from binary row layout (Hadoop++).
  double binary_deser_us_per_record = 1.9;
  /// Evaluating a predicate against one in-memory PAX value.
  double predicate_us_per_record = 0.012;
  /// PAX -> row tuple reconstruction per qualifying record per column.
  double reconstruct_us_per_field = 0.45;
  /// Invoking the user map function once.
  double map_call_us = 0.25;
  /// Abandon an unclustered-index probe (adaptive path) when it yields
  /// more than this fraction of the block's rows: beyond it the random
  /// per-partition accesses cost more than one sequential full scan
  /// (§3.5: unclustered indexes only pay off for very selective queries).
  double unclustered_max_selectivity = 0.05;

  // --- cost-based planner ---
  /// Building the per-column block-statistics sidecar at upload (one
  /// sorted summary pass per column), per logical value. Cheaper than a
  /// sort-based replica build: the summaries are tiny and column-local.
  double stats_build_us_per_value = 0.02;
  /// Planning one block (zone-map check + per-access-path cost estimates)
  /// during the split phase, when cost-based planning is on. This is the
  /// "billed only metadata" price of a zone-map-skipped block.
  double planner_block_plan_us = 5.0;

  // --- MapReduce framework (Hadoop 0.20.203 era) ---
  /// TaskTracker heartbeat interval; 0.20 assigns map tasks on heartbeats.
  double heartbeat_interval_s = 3.0;
  /// Map tasks the JobTracker assigns per TaskTracker heartbeat.
  int tasks_per_heartbeat = 1;
  /// Per-task setup: JVM spawn, task localisation, committer setup.
  double task_setup_s = 1.6;
  /// Per-task teardown and JobTracker bookkeeping.
  double task_cleanup_s = 0.25;
  /// Job-level startup (resource upload, split computation, job init).
  double job_startup_s = 8.0;
  /// Job-level cleanup and client notification.
  double job_cleanup_s = 4.0;
  /// Failure detector: TaskTracker expiry interval (paper §6.4.3: 30 s).
  double expiry_interval_s = 30.0;
  /// Latency of the out-of-band heartbeat a TaskTracker sends right after
  /// a task slot frees (0.20.203's mapreduce.tasktracker.outofband.heartbeat).
  double oob_heartbeat_latency_s = 2.0;

  // --- HDFS ---
  uint64_t chunk_bytes = 512;
  uint64_t packet_bytes = 64 * 1024;
  /// Per-packet handling latency in the pipeline (syscalls, buffer copies).
  double packet_overhead_us = 18.0;
  /// Reading a block header / trojan index header before the data scan.
  double header_read_ms = 1.2;
  /// Opening an input stream to one block: DFS client protocol round
  /// trips, stream setup. Paid once per block by every RecordReader.
  double block_open_ms = 10.0;
  /// RecordReader construction (buffer allocation, codec setup, split
  /// bookkeeping). Paid once per map task; dominates the per-task reader
  /// time of index-scan jobs (Fig. 6b) but amortises across the many
  /// blocks of a HailSplitting split (Fig. 9).
  double task_rr_init_ms = 45.0;

  // --- index geometry at paper scale (for logical index-size billing;
  // the real structures use scaled-down partitions, see DESIGN.md §2) ---
  /// Values per clustered-index partition at 64 MB blocks (§3.5: 1024).
  uint32_t index_partition_logical = 1024;
  /// Rows per trojan-index directory entry; makes the trojan directory
  /// ~150x denser than HAIL's (paper: 304 KB vs 2 KB).
  uint32_t trojan_rows_per_entry_logical = 8;
  /// Hadoop++ reads each block's header during the split phase (§6.4.1);
  /// remote open + seek + transfer per block, billed at the JobClient.
  double trojan_split_header_ms = 15.0;

  // --- Hadoop++ upload jobs (calibrated against Fig. 4(a); Hadoop++'s
  // co-partitioning pipeline measured ~2x raw I/O in [12] due to sampling,
  // header construction and speculative re-execution) ---
  /// Merge passes in the shuffle/sort of the conversion & index jobs.
  int hpp_merge_passes = 2;
  /// I/O inflation of the text->binary conversion MapReduce job.
  double hpp_conversion_inflation = 1.5;
  /// I/O inflation of the trojan-index-creation MapReduce job.
  double hpp_index_inflation = 0.95;
};

}  // namespace sim
}  // namespace hail
