/// \file hailbench.cc
/// \brief Wall-clock benchmark program: one workload per process, run
/// against hail_core's public API.
///
/// Workloads (single process; the query workloads are a closed loop with
/// one client that submits the next job only after the previous returned):
///   upload         HAIL upload of 10 nodes x 320 blocks of UserVisits with
///                  clustered indexes on visitDate, sourceIP and adRevenue;
///                  every upload starts from a fresh Testbed.
///   hadoop_scan    Bob-Q1..Q5 over stock-Hadoop text, 10 x 64 blocks.
///   hail_index     Bob-Q1..Q5 over HAIL index scans, 10 x 320 blocks.
///   mixed_session  one fair-scheduled ClusterSession per repetition: Bob
///                  queries arriving on the simulated clock, HAIL upload
///                  tenants, the online AdaptiveManager and the plan cache.
///
/// It checks answers (text reader vs index scan, sorted projected
/// rows), serial==parallel %.17g dumps, and replica integrity, and prints
/// one JSON line of raw samples as the last line of stdout; perfbench/run.py
/// turns the samples into the named metrics. With --trace 1 it also replays
/// each layer's public functions on the workload's own inputs inside spans
/// (name, start, end, parent, job id) kept in memory and written once, at
/// the end, as a Chrome trace-event file.
///
/// Usage: hailbench --workload W --seed N --seconds S --trace 0|1
///                  [--trace-out FILE]
/// Exit code: 0 when every check passed, 1 on a wrong answer, a failed
/// operation or a serial/parallel divergence, 2 on bad arguments.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adaptive/adaptive_manager.h"
#include "adaptive/reorg.h"
#include "hail/hail_block.h"
#include "hail/hail_client.h"
#include "hdfs/block_cache.h"
#include "index/clustered_index.h"
#include "layout/column_vector.h"
#include "layout/pax_block.h"
#include "mapreduce/input_format.h"
#include "mapreduce/job_runner.h"
#include "mapreduce/record_reader.h"
#include "mapreduce/scheduler.h"
#include "planner/access_planner.h"
#include "planner/plan_cache.h"
#include "query/vectorized.h"
#include "schema/row_parser.h"
#include "util/crc32c.h"
#include "util/thread_pool.h"
#include "workload/queries.h"
#include "workload/testbed.h"
#include "workload/uservisits.h"

namespace hail {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using mapreduce::ClusterSession;
using mapreduce::ExecutionMode;
using mapreduce::JobResult;
using mapreduce::JobSpec;
using mapreduce::RunOptions;
using mapreduce::SessionOptions;
using mapreduce::SessionResult;
using mapreduce::System;
using mapreduce::UploadJobSpec;
using workload::QueryDef;
using workload::Testbed;
using workload::TestbedConfig;

constexpr int kNodes = 10;
constexpr uint64_t kRealBlockBytes = 32 * 1024;
/// Paper scale (20 GB/node of 64 MB blocks) for upload and hail_index.
/// hadoop_scan reads a fifth of it, so that a run still completes more
/// than 100 of its slower jobs.
constexpr uint32_t kBlocksPerNode = 320;
constexpr uint32_t kHadoopBlocksPerNode = 64;
/// Set-ups per run (setup_s is their median). The scans take more: each
/// set-up's upload is also an upload_mb_per_s sample, and hadoop_scan's
/// small text upload takes only tens of milliseconds.
constexpr int kSetupReps = 3;
constexpr int kHailSetupReps = 5;
constexpr int kHadoopSetupReps = 9;
const std::vector<int> kThreeIndexes = {workload::kVisitDate,
                                        workload::kSourceIP,
                                        workload::kAdRevenue};

// ---- mixed_session shape ------------------------------------------------
constexpr uint32_t kMixedBlocksPerNode = 32;
constexpr int kMixedQueries = 100;
constexpr double kMixedQuerySpacingS = 250.0;
constexpr int kMixedTenants = 4;
constexpr int kMixedTenantFiles = 10;
constexpr double kMixedTenantSpacingS = 6000.0;
/// Text per tenant file: four blocks' worth of rows.
constexpr uint64_t kTenantFileBytes = 4 * kRealBlockBytes;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Distinct, reproducible seed for input stream `k` of run seed `seed`.
uint64_t DeriveSeed(uint64_t seed, uint64_t k) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + k * 0xbf58476d1ce4e5b9ull + 1;
  x ^= x >> 31;
  return x;
}

uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

std::string Fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written once at the end.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";  // "<layer>.<function>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t job = -1;
  uint64_t n = 0;  // items consumed (rows, bytes, blocks, calls)
  uint64_t m = 0;  // items produced (rows selected)
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; -1 when tracing is off.
  int Open(const char* name, int64_t job = -1) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.job = job;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ns = NowNs();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void Close(int id, uint64_t n = 1, uint64_t m = 0) {
    if (id < 0) return;
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_ns = NowNs();
    s.n = n;
    s.m = m;
    stack_.pop_back();
  }

  /// Chrome trace-event JSON ("X" events, microseconds with ns digits);
  /// span id, parent, job, n and m ride in args.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"job\":%lld,\"n\":%llu,\"m\":%llu}}",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, static_cast<long long>(s.job),
                   static_cast<unsigned long long>(s.n),
                   static_cast<unsigned long long>(s.m));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// Raw report: one flat JSON object, numbers with all their digits.
// ---------------------------------------------------------------------------

class Report {
 public:
  void Num(const std::string& key, double v) { Add(key, Fmt17(v)); }
  void Int(const std::string& key, uint64_t v) {
    Add(key, std::to_string(v));
  }
  void Bool(const std::string& key, bool v) { Add(key, v ? "true" : "false"); }
  void Str(const std::string& key, const std::string& v) {
    Add(key, "\"" + Escape(v) + "\"");
  }
  void Nums(const std::string& key, const std::vector<double>& vs) {
    std::string out = "[";
    for (size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) out += ",";
      out += Fmt17(vs[i]);
    }
    Add(key, out + "]");
  }
  /// Per-layer counters and simulated-clock values (traced metrics that
  /// do not come from spans), nested under "layer".
  void Layer(const std::string& name, double v) {
    layer_.emplace_back(name, Fmt17(v));
  }

  std::string ToJson() const {
    std::string out = "{";
    for (const auto& [k, v] : fields_) {
      out += "\"" + k + "\":" + v + ",";
    }
    out += "\"layer\":{";
    for (size_t i = 0; i < layer_.size(); ++i) {
      if (i > 0) out += ",";
      out += "\"" + layer_[i].first + "\":" + layer_[i].second;
    }
    return out + "}}";
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out;
  }
  void Add(const std::string& key, std::string value) {
    fields_.emplace_back(key, std::move(value));
  }

  std::vector<std::pair<std::string, std::string>> fields_;
  std::vector<std::pair<std::string, std::string>> layer_;
};

/// Outcome bookkeeping shared by every workload.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;      // operation returned an error
  uint64_t wrong = 0;       // operation succeeded with a wrong answer
  bool answers_match = true;
  bool deterministic = true;
  std::vector<std::string> errors;

  void Error(const std::string& what) {
    std::fprintf(stderr, "hailbench: %s\n", what.c_str());
    errors.push_back(what);
  }
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

struct Context {
  Args args;
  SpanLog spans{false};
  Report report;
  Outcome outcome;
};

/// Runs `op` back to back until `seconds` of wall time have passed (at
/// least `min_ops` times) and returns each call's wall milliseconds. A
/// traced run puts every odd call inside an `span` span (job = call
/// index) and reports the two alternating halves separately, so
/// obs.tracing_overhead compares neighbours rather than early and late
/// calls.
std::vector<double> MeasureOps(Context* ctx, int min_ops, const char* span,
                               const std::function<void(int)>& op) {
  std::vector<double> wall_ms;
  std::vector<double> halves[2];
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < min_ops || SecondsSince(start) < ctx->args.seconds;
       ++i) {
    const bool traced = ctx->args.trace && i % 2 == 1;
    const int id = traced ? ctx->spans.Open(span, i) : -1;
    const Clock::time_point t = Clock::now();
    op(i);
    wall_ms.push_back(SecondsSince(t) * 1e3);
    ctx->spans.Close(id);
    halves[traced ? 1 : 0].push_back(wall_ms.back());
  }
  if (ctx->args.trace) {
    ctx->report.Nums("untraced_op_ms", halves[0]);
    ctx->report.Nums("traced_op_ms", halves[1]);
  }
  return wall_ms;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Bytes the datanodes store for every block under `path`: each replica's
/// block file plus its checksum meta file.
uint64_t StoredBytes(const hdfs::MiniDfs& dfs, const std::string& path) {
  auto blocks = dfs.namenode().GetFileBlocks(path);
  if (!blocks.ok()) return 0;
  uint64_t total = 0;
  for (const hdfs::BlockLocation& loc : *blocks) {
    for (int dn : loc.datanodes) {
      const hdfs::LocalStore& store = dfs.datanode(dn).store();
      for (const std::string& file : {hdfs::BlockFileName(loc.block_id),
                                      hdfs::BlockMetaFileName(loc.block_id)}) {
        auto bytes = store.Get(file);
        if (bytes.ok()) total += bytes->size();
      }
    }
  }
  return total;
}

void ReportCacheDeltas(Context* ctx, const hdfs::BlockCacheStats& before,
                       const hdfs::BlockCacheStats& after, double ops) {
  const double hits =
      static_cast<double>(after.verify_hits - before.verify_hits);
  const double misses =
      static_cast<double>(after.verify_misses - before.verify_misses);
  ctx->report.Layer("hdfs.cache_verify_hit_rate",
                    hits + misses > 0 ? hits / (hits + misses) : 0.0);
  ctx->report.Layer(
      "hdfs.cache_index_decodes",
      static_cast<double>(after.index_decodes - before.index_decodes) / ops);
  ctx->report.Layer("hdfs.cache_invalidations",
                    static_cast<double>(after.invalidated_entries -
                                        before.invalidated_entries) /
                        ops);
  ctx->report.Layer(
      "util.crc32c_bytes",
      static_cast<double>(after.bytes_verified - before.bytes_verified) /
          ops);
}

std::string UserVisitsText(uint64_t seed, uint64_t bytes, double scale) {
  workload::UserVisitsConfig uv;
  uv.rows = static_cast<uint64_t>(static_cast<double>(bytes) /
                                  workload::UserVisitsAvgRowBytes());
  uv.seed = seed;
  uv.scale_factor = scale;
  return workload::GenerateUserVisitsText(uv);
}

TestbedConfig BedConfig(uint64_t seed, uint32_t blocks_per_node) {
  TestbedConfig config;
  config.num_nodes = kNodes;
  config.real_block_bytes = kRealBlockBytes;
  config.blocks_per_node = blocks_per_node;
  config.seed = seed;
  return config;
}

JobSpec QuerySpec(const Schema& schema, const std::string& path,
                  System system, const QueryDef& query, bool collect) {
  auto spec = workload::MakeQueryJob(schema, path, system, query,
                                     /*hail_splitting=*/false, collect);
  if (!spec.ok()) {
    std::fprintf(stderr, "hailbench: %s\n", spec.status().ToString().c_str());
    std::exit(1);
  }
  return *spec;
}

std::vector<std::string> SortedRows(const JobResult& r) {
  std::vector<std::string> rows = r.output_rows;
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Runs every Bob query on both stored layouts with output collected and
/// requires identical sorted projected rows. Returns the per-query counts.
std::vector<uint64_t> CheckAnswers(Context* ctx, Testbed* bed,
                                   const std::string& text_path,
                                   const std::string& hail_path) {
  RunOptions serial;
  serial.execution = ExecutionMode::kSerial;
  std::vector<uint64_t> counts;
  for (const QueryDef& q : workload::BobQueries()) {
    auto text = bed->RunQuery(System::kHadoop, text_path, q, false, serial,
                              /*collect_output=*/true);
    auto hail = bed->RunQuery(System::kHail, hail_path, q, false, serial,
                              /*collect_output=*/true);
    if (!text.ok() || !hail.ok()) {
      ctx->outcome.answers_match = false;
      ctx->outcome.Error(q.name + ": answer-check run failed");
      counts.push_back(0);
      continue;
    }
    const bool same = SortedRows(*text) == SortedRows(*hail);
    if (!same || text->output_count == 0) {
      ctx->outcome.answers_match = false;
      ctx->outcome.Error(q.name + ": text reader returned " +
                         std::to_string(text->output_count) +
                         " rows, index scan " +
                         std::to_string(hail->output_count) +
                         (same ? " (no rows)" : " (rows differ)"));
    }
    counts.push_back(text->output_count);
  }
  std::string joined;
  for (uint64_t c : counts) {
    joined += (joined.empty() ? "" : "/") + std::to_string(c);
  }
  ctx->report.Str("answer_counts", joined);
  return counts;
}

// ---------------------------------------------------------------------------
// Layer replays (traced runs only): hailbench calls each module's public
// functions on the workload's own inputs, one span per call.
// ---------------------------------------------------------------------------

/// The write path of one text block, as HailParallelUpload performs it:
/// parse + PAX build on the client, then per replica the typed argsort,
/// permutation, clustered-index build and the full replica build with its
/// chunk checksums.
void ReplayUploadBlock(Context* ctx, const hdfs::MiniDfs& dfs,
                       const Schema& schema, std::string_view text_block,
                       int64_t job) {
  SpanLog& log = ctx->spans;
  const hdfs::DfsConfig& cfg = dfs.config();
  const std::vector<std::string_view> rows = SplitRows(text_block);

  int s = log.Open("schema.parse", job);
  std::vector<ColumnVector> columns;
  for (int c = 0; c < schema.num_fields(); ++c) {
    columns.emplace_back(schema.field(c).type);
  }
  ColumnarAppender appender(schema, &columns);
  uint64_t parsed = 0;
  for (std::string_view row : rows) parsed += appender.AppendRow(row) ? 1 : 0;
  log.Close(s, rows.size(), parsed);

  s = log.Open("layout.pax_build", job);
  const PaxBlock pax = BuildPaxBlockFromText(schema, text_block, cfg.format);
  log.Close(s, pax.num_records());
  s = log.Open("layout.serialize", job);
  const std::string client_block = pax.Serialize();
  log.Close(s, client_block.size());

  for (int column : kThreeIndexes) {
    s = log.Open("index.argsort", job);
    const std::vector<uint32_t> perm = ArgSortColumn(pax.column(column));
    log.Close(s);
    s = log.Open("layout.permute", job);
    const PaxBlock sorted = pax.PermutedCopy(perm);
    log.Close(s);
    s = log.Open("index.build", job);
    const ClusteredIndex index = ClusteredIndex::Build(
        sorted.column(column), cfg.format.varlen_partition_size);
    log.Close(s, index.num_partitions());
  }

  HailTransformParams params;
  params.sort_columns = kThreeIndexes;
  params.chunk_bytes = cfg.chunk_bytes;
  params.varlen_partition_size = cfg.format.varlen_partition_size;
  params.logical_records = static_cast<uint64_t>(
      static_cast<double>(pax.num_records()) * cfg.scale_factor);
  HailReplicaTransformer transformer(params);
  hdfs::ReplicaWorkContext work;
  work.cost = &dfs.cluster().node(0).cost();
  s = log.Open("hail.begin_block", job);
  const Status begun = transformer.BeginBlock(client_block);
  log.Close(s);
  if (!begun.ok()) {
    ctx->outcome.Error("replay BeginBlock: " + begun.ToString());
    return;
  }
  for (size_t r = 0; r < kThreeIndexes.size(); ++r) {
    work.is_tail = r + 1 == kThreeIndexes.size();
    s = log.Open("hail.replica_build", job);
    auto replica = transformer.BuildReplica(r, work);
    log.Close(s);
    if (!replica.ok()) {
      ctx->outcome.Error("replay BuildReplica: " +
                         replica.status().ToString());
      return;
    }
    s = log.Open("util.crc32c", job);
    const uint32_t crc =
        crc32c::Value(replica->bytes.data(), replica->bytes.size());
    log.Close(s, replica->bytes.size(), crc & 1);
  }
}

/// One query's map phase, task by task, on the caller's thread: the
/// serial RunQuery (whole job), its plan, every split through the
/// system's RecordReader, then the per-block layer calls the reader
/// makes (namenode lookup, parse or PAX open + index probe + filter).
void ReplayQuery(Context* ctx, hdfs::MiniDfs* dfs, const Schema& schema,
                 System system, const std::string& path, const QueryDef& q,
                 int64_t job) {
  SpanLog& log = ctx->spans;
  const JobSpec spec = QuerySpec(schema, path, system, q, false);
  RunOptions serial;
  serial.execution = ExecutionMode::kSerial;
  mapreduce::JobRunner runner(dfs);
  Result<mapreduce::JobPlan> plan = Status::Unknown("not planned");
  // Three passes: mapreduce.job_overhead_ms is a small difference of two
  // noisy wall times, so both sides are averaged.
  for (int pass = 0; pass < 3; ++pass) {
    int s = log.Open("mapreduce.run_query", job);
    auto run = runner.Run(spec, serial);
    log.Close(s);
    if (!run.ok()) {
      ctx->outcome.Error("replay RunQuery: " + run.status().ToString());
      return;
    }
    s = log.Open("mapreduce.compute_plan", job);
    plan = mapreduce::ComputeJobPlan(dfs, spec);
    log.Close(s);
    if (!plan.ok()) {
      ctx->outcome.Error("replay plan: " + plan.status().ToString());
      return;
    }
    std::unique_ptr<mapreduce::RecordReader> reader =
        mapreduce::MakeRecordReader(system);
    for (const mapreduce::InputSplit& split : plan->splits) {
      mapreduce::MapOutput out(false);
      mapreduce::ReadContext rc;
      rc.dfs = dfs;
      rc.spec = &spec;
      rc.plan = &*plan;
      rc.task_node =
          split.preferred_nodes.empty() ? 0 : split.preferred_nodes[0];
      rc.out = &out;
      s = log.Open("mapreduce.read_split", job);
      auto cost = reader->ReadSplit(split, &rc);
      log.Close(s, 1, rc.records_qualifying);
      if (!cost.ok()) {
        ctx->outcome.Error("replay ReadSplit: " + cost.status().ToString());
        return;
      }
    }
  }

  const RowParser parser(schema);
  const int column = plan->index_column;
  const QueryAnnotation& annotation = *spec.annotation;
  auto compiled = CompiledPredicate::Compile(annotation.filter, schema);
  const std::optional<KeyRange> key_range =
      column >= 0 ? annotation.filter.KeyRangeFor(column) : std::nullopt;
  for (const hdfs::BlockLocation& loc : plan->file_blocks) {
    int holder = loc.datanodes.empty() ? 0 : loc.datanodes[0];
    int s = -1;
    if (system == System::kHadoop) {
      s = log.Open("hdfs.namenode_lookup", job);
      auto hosts = dfs->namenode().GetBlockDatanodes(loc.block_id);
      log.Close(s);
      if (hosts.ok() && !hosts->empty()) holder = hosts->front();
      auto bytes = dfs->datanode(holder).ReadBlockRaw(loc.block_id);
      if (!bytes.ok()) continue;
      const std::vector<std::string_view> rows = SplitRows(*bytes);
      s = log.Open("schema.parse", job);
      uint64_t good = 0;
      for (std::string_view row : rows) good += parser.Parse(row).ok ? 1 : 0;
      log.Close(s, rows.size(), good);
      continue;
    }
    s = log.Open("hdfs.namenode_lookup", job);
    const std::vector<int> hosts =
        column >= 0 ? dfs->namenode().GetHostsWithIndex(loc.block_id, column)
                    : std::vector<int>();
    log.Close(s);
    if (!hosts.empty()) holder = hosts.front();
    auto bytes = dfs->datanode(holder).ReadBlockRaw(loc.block_id);
    if (!bytes.ok()) continue;
    s = log.Open("layout.pax_open", job);
    auto view = HailBlockView::Open(*bytes);
    Result<PaxBlockView> pax =
        view.ok() ? view->OpenPax() : Result<PaxBlockView>(view.status());
    log.Close(s);
    if (!pax.ok() || !compiled.ok()) continue;
    RowRange range{0, pax->num_records()};
    if (key_range.has_value() && view->has_index() &&
        view->sort_column() == column) {
      auto index = view->ReadIndex();
      if (index.ok()) {
        s = log.Open("index.lookup", job);
        range = index->Lookup(*key_range);
        log.Close(s, 1, range.size());
      }
    }
    SelectionVector sel;
    s = log.Open("query.filter", job);
    const Status filtered = compiled->FilterBlock(*pax, range, &sel);
    log.Close(s, range.size(), sel.size());
    if (!filtered.ok()) ctx->outcome.Error("replay filter failed");
  }
}

// ---------------------------------------------------------------------------
// upload
// ---------------------------------------------------------------------------

/// Checks the first upload's replicas: every block has three CRC-clean
/// HAIL replicas, one per index column, with equal record counts that sum
/// to the source rows.
void CheckUpload(Context* ctx, const hdfs::MiniDfs& dfs,
                 uint64_t expected_rows) {
  auto blocks = dfs.namenode().GetFileBlocks("/uv");
  if (!blocks.ok()) {
    ctx->outcome.answers_match = false;
    ctx->outcome.Error("upload check: " + blocks.status().ToString());
    return;
  }
  uint64_t rows = 0;
  for (const hdfs::BlockLocation& loc : *blocks) {
    std::set<int> sort_columns;
    int64_t records = -1;
    for (int dn : loc.datanodes) {
      auto bytes = dfs.datanode(dn).ReadBlockVerified(loc.block_id,
                                                      dfs.config().chunk_bytes);
      auto view = bytes.ok() ? HailBlockView::Open(*bytes)
                             : Result<HailBlockView>(bytes.status());
      auto pax = view.ok() ? view->OpenPax()
                           : Result<PaxBlockView>(view.status());
      if (!pax.ok()) {
        ctx->outcome.answers_match = false;
        ctx->outcome.Error("upload check: block " +
                           std::to_string(loc.block_id) + ": " +
                           pax.status().ToString());
        return;
      }
      sort_columns.insert(view->sort_column());
      const int64_t n = pax->num_records() + pax->num_bad_records();
      if (records >= 0 && n != records) {
        ctx->outcome.answers_match = false;
        ctx->outcome.Error("upload check: replicas disagree on row count");
      }
      records = n;
    }
    if (sort_columns != std::set<int>(kThreeIndexes.begin(),
                                      kThreeIndexes.end())) {
      ctx->outcome.answers_match = false;
      ctx->outcome.Error("upload check: block " +
                         std::to_string(loc.block_id) +
                         " lacks one index per replica");
    }
    rows += static_cast<uint64_t>(std::max<int64_t>(records, 0));
  }
  if (rows != expected_rows) {
    ctx->outcome.answers_match = false;
    ctx->outcome.Error("upload check: stored " + std::to_string(rows) +
                       " rows, source has " + std::to_string(expected_rows));
  }
}

void RunUpload(Context* ctx) {
  const TestbedConfig config = BedConfig(ctx->args.seed, kBlocksPerNode);
  const double scale = static_cast<double>(config.logical_block_bytes) /
                       static_cast<double>(config.real_block_bytes);
  const Schema schema = workload::UserVisitsSchema();

  // Set-up: text generation (the one text every node uploads).
  std::string text;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t = Clock::now();
    text = UserVisitsText(ctx->args.seed,
                          kBlocksPerNode * kRealBlockBytes, scale);
    setup_s.push_back(SecondsSince(t));
  }
  ctx->report.Nums("setup_s", setup_s);
  const uint64_t source_rows =
      kNodes * static_cast<uint64_t>(std::count(text.begin(), text.end(), '\n'));

  HailUploadConfig hail;
  hail.schema = schema;
  hail.sort_columns = kThreeIndexes;
  std::vector<double> upload_wall_s;
  std::vector<std::string> sim_durations;
  HailUploadReport last;
  uint64_t stored = 0;
  const auto upload = [&](int i) {
    auto bed = std::make_unique<Testbed>(config);
    std::vector<hdfs::ParallelUploadSpec> specs;
    for (int n = 0; n < kNodes; ++n) {
      char part[32];
      std::snprintf(part, sizeof(part), "/uv/part-%05d", n);
      specs.push_back(hdfs::ParallelUploadSpec{n, part, text});
    }
    ++ctx->outcome.attempted;
    const Clock::time_point t = Clock::now();
    auto report = HailParallelUpload(&bed->dfs(), hail, specs);
    upload_wall_s.push_back(SecondsSince(t));
    if (!report.ok()) {
      ++ctx->outcome.failed;
      ctx->outcome.Error("upload: " + report.status().ToString());
      return;
    }
    last = *report;
    sim_durations.push_back(Fmt17(report->duration()));
    if (i == 0) {
      CheckUpload(ctx, bed->dfs(), source_rows);
      stored = StoredBytes(bed->dfs(), "/uv");
    }
  };
  MeasureOps(ctx, 4, "op.upload", upload);
  std::vector<double> op_ms;
  for (double s : upload_wall_s) op_ms.push_back(s * 1e3);
  ctx->report.Nums("op_ms", op_ms);
  ctx->report.Nums("upload_wall_s", upload_wall_s);
  ctx->report.Num("upload_text_bytes",
                  static_cast<double>(last.text_real_bytes));
  ctx->report.Num("stored_bytes", static_cast<double>(stored));
  ctx->report.Num("input_bytes", static_cast<double>(last.text_real_bytes));

  if (ctx->spans.enabled()) {
    // Every node uploads the same text, so replaying one node's blocks is
    // exactly a tenth of an upload's layer work.
    Testbed bed(config);
    const std::vector<std::string_view> blocks =
        CutRowAlignedBlocks(text, bed.dfs().config().block_size);
    for (size_t b = 0; b < blocks.size(); ++b) {
      const int s =
          ctx->spans.Open("replay.upload_block", static_cast<int64_t>(b));
      ReplayUploadBlock(ctx, bed.dfs(), schema, blocks[b],
                        static_cast<int64_t>(b));
      ctx->spans.Close(s);
    }
    ctx->report.Num("replay_share", 1.0 / kNodes);
  }

  for (const std::string& d : sim_durations) {
    if (d != sim_durations.front()) {
      ctx->outcome.deterministic = false;
      ctx->outcome.Error("upload: simulated duration differs between "
                         "identical uploads");
      break;
    }
  }
  ctx->report.Layer("sim.upload_s", last.duration());
  ctx->report.Layer("schema.rows_parsed", static_cast<double>(source_rows));
  ctx->report.Layer("util.crc32c_bytes",
                    static_cast<double>(last.replica_real_bytes));
}

// ---------------------------------------------------------------------------
// hadoop_scan / hail_index
// ---------------------------------------------------------------------------

struct ScanSetup {
  std::unique_ptr<Testbed> bed;
  double upload_wall_s = 0.0;
  uint64_t text_bytes = 0;
  std::vector<uint64_t> warm_counts;
};

ScanSetup SetUpScan(Context* ctx, System system) {
  ScanSetup out;
  out.bed = std::make_unique<Testbed>(BedConfig(
      ctx->args.seed,
      system == System::kHadoop ? kHadoopBlocksPerNode : kBlocksPerNode));
  out.bed->LoadUserVisits();
  const Clock::time_point t = Clock::now();
  if (system == System::kHadoop) {
    auto r = out.bed->UploadHadoop("/uv");
    if (!r.ok()) ctx->outcome.Error("setup upload: " + r.status().ToString());
    if (r.ok()) out.text_bytes = r->real_bytes;
  } else {
    auto r = out.bed->UploadHail("/uv", kThreeIndexes);
    if (!r.ok()) ctx->outcome.Error("setup upload: " + r.status().ToString());
    if (r.ok()) out.text_bytes = r->text_real_bytes;
  }
  out.upload_wall_s = SecondsSince(t);
  // Warm the block cache: every replica the queries read is verified and
  // decoded once here, not in the measured loop.
  for (const QueryDef& q : workload::BobQueries()) {
    auto r = out.bed->RunQuery(system, "/uv", q);
    out.warm_counts.push_back(r.ok() ? r->output_count : 0);
    if (!r.ok()) ctx->outcome.Error("warm-up: " + r.status().ToString());
  }
  return out;
}

void RunScan(Context* ctx, System system) {
  const bool hail = system == System::kHail;
  const std::vector<QueryDef> bob = workload::BobQueries();

  ScanSetup setup;
  std::vector<double> setup_s;
  std::vector<double> setup_upload_s;
  const int reps = hail ? kHailSetupReps : kHadoopSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    setup = ScanSetup();  // free the previous testbed before building
    const Clock::time_point t = Clock::now();
    setup = SetUpScan(ctx, system);
    setup_s.push_back(SecondsSince(t));
    setup_upload_s.push_back(setup.upload_wall_s);
  }
  ctx->report.Nums("setup_s", setup_s);
  ctx->report.Nums("upload_wall_s", setup_upload_s);
  ctx->report.Num("upload_text_bytes", static_cast<double>(setup.text_bytes));
  Testbed& bed = *setup.bed;
  ctx->report.Num("stored_bytes",
                  static_cast<double>(StoredBytes(bed.dfs(), "/uv")));
  ctx->report.Num("input_bytes", static_cast<double>(setup.text_bytes));

  // ---- measured closed loop ----
  double jobs = 0;
  double tasks = 0;
  double index_tasks = 0;
  uint64_t seen = 0;
  uint64_t qualifying = 0;
  const hdfs::BlockCacheStats before = bed.dfs().block_cache().stats();
  const std::vector<double> op_ms =
      MeasureOps(ctx, 10, "op.job", [&](int i) {
        const size_t qi = static_cast<size_t>(i) % bob.size();
        ++ctx->outcome.attempted;
        auto r = bed.RunQuery(system, "/uv", bob[qi]);
        if (!r.ok()) {
          ++ctx->outcome.failed;
          ctx->outcome.Error(bob[qi].name + ": " + r.status().ToString());
          return;
        }
        if (r->output_count != setup.warm_counts[qi]) {
          ++ctx->outcome.wrong;
          ctx->outcome.Error(bob[qi].name + ": " +
                             std::to_string(r->output_count) +
                             " rows, expected " +
                             std::to_string(setup.warm_counts[qi]));
        }
        ++jobs;
        tasks += r->map_tasks;
        index_tasks += r->index_scan_tasks;
        seen += r->records_seen;
        qualifying += r->records_qualifying;
      });
  const hdfs::BlockCacheStats after = bed.dfs().block_cache().stats();
  ctx->report.Nums("op_ms", op_ms);
  ctx->report.Int("ops_per_cycle", bob.size());
  ReportCacheDeltas(ctx, before, after, static_cast<double>(op_ms.size()));
  ctx->report.Layer("mapreduce.tasks_per_job", jobs > 0 ? tasks / jobs : 0.0);
  ctx->report.Layer("mapreduce.index_scan_share",
                    tasks > 0 ? index_tasks / tasks : 0.0);
  if (hail) {
    ctx->report.Layer("index.rows_examined_per_row_returned",
                      qualifying > 0 ? static_cast<double>(seen) /
                                           static_cast<double>(qualifying)
                                     : 0.0);
  } else {
    ctx->report.Layer("schema.rows_parsed",
                      jobs > 0 ? static_cast<double>(seen) / jobs : 0.0);
  }

  // ---- simulated clock + serial==parallel (one pass of Q1..Q5) ----
  RunOptions serial;
  serial.execution = ExecutionMode::kSerial;
  RunOptions parallel;
  parallel.execution = ExecutionMode::kParallel;
  std::vector<double> sim_job_s;
  double billed = 0.0;
  for (const QueryDef& q : bob) {
    auto a = bed.RunQuery(system, "/uv", q, false, serial);
    if (!a.ok()) {
      ctx->outcome.deterministic = false;
      ctx->outcome.Error(q.name + " (serial): " + a.status().ToString());
      continue;
    }
    sim_job_s.push_back(a->end_to_end_seconds);
    billed += a->billed_cost_seconds;
    if (!hail) continue;
    auto b = bed.RunQuery(system, "/uv", q, false, parallel);
    if (!b.ok() || workload::DumpResult(*a) != workload::DumpResult(*b)) {
      ctx->outcome.deterministic = false;
      ctx->outcome.Error(q.name + ": serial and parallel results differ");
    }
  }
  ctx->report.Layer("sim.job_s_p50", Median(sim_job_s));
  ctx->report.Layer("sim.billed_s", billed / std::max<size_t>(1, bob.size()));

  if (ctx->spans.enabled()) {
    for (size_t qi = 0; qi < bob.size(); ++qi) {
      const int s = ctx->spans.Open("replay.job", static_cast<int64_t>(qi));
      ReplayQuery(ctx, &bed.dfs(), bed.schema(), system, "/uv", bob[qi],
                  static_cast<int64_t>(qi));
      ctx->spans.Close(s);
    }
  }

  // ---- answer check: the other layout of the same text ----
  bed.LoadUserVisits();
  const Status other = hail ? bed.UploadHadoop("/check").status()
                            : bed.UploadHail("/check", kThreeIndexes).status();
  if (!other.ok()) {
    ctx->outcome.answers_match = false;
    ctx->outcome.Error("answer-check upload: " + other.ToString());
    return;
  }
  bed.FreeSourceTexts();
  const std::vector<uint64_t> counts = CheckAnswers(
      ctx, &bed, hail ? "/check" : "/uv", hail ? "/uv" : "/check");
  if (counts != setup.warm_counts) {
    ctx->outcome.answers_match = false;
    ctx->outcome.Error("answer check counts differ from the warm-up counts");
  }
}

// ---------------------------------------------------------------------------
// mixed_session
// ---------------------------------------------------------------------------

struct MixedSetup {
  std::unique_ptr<Testbed> bed;
  std::vector<UploadJobSpec> tenants;
  double upload_wall_s = 0.0;  // the base file's HAIL upload
  uint64_t base_text_bytes = 0;
  uint64_t input_bytes = 0;    // base file + every tenant file
};

MixedSetup SetUpMixed(Context* ctx) {
  MixedSetup out;
  TestbedConfig config = BedConfig(ctx->args.seed, kMixedBlocksPerNode);
  config.build_stats = true;
  out.bed = std::make_unique<Testbed>(config);
  out.bed->LoadUserVisits();
  // Two of three replicas indexed: adRevenue queries (Bob-Q4/Q5) start as
  // full scans, which is what drives the adaptive manager.
  const Clock::time_point t = Clock::now();
  auto up = out.bed->UploadHail("/uv", {workload::kVisitDate,
                                        workload::kSourceIP});
  out.upload_wall_s = SecondsSince(t);
  if (!up.ok()) ctx->outcome.Error("setup upload: " + up.status().ToString());
  if (up.ok()) out.base_text_bytes = out.input_bytes = up->text_real_bytes;
  out.bed->FreeSourceTexts();
  for (int t = 0; t < kMixedTenants; ++t) {
    UploadJobSpec tenant;
    tenant.name = "tenant-" + std::to_string(t);
    tenant.system = System::kHail;
    tenant.hail.schema = out.bed->schema();
    tenant.hail.sort_columns = kThreeIndexes;
    tenant.hail.build_stats = true;
    for (int f = 0; f < kMixedTenantFiles; ++f) {
      UploadJobSpec::File file;
      file.client_node = f % kNodes;
      char path[64];
      std::snprintf(path, sizeof(path), "/tenant%d/part-%05d", t, f);
      file.dfs_path = path;
      file.text = UserVisitsText(
          DeriveSeed(ctx->args.seed,
                     static_cast<uint64_t>(t * kMixedTenantFiles + f)),
          kTenantFileBytes, out.bed->scale_factor());
      out.input_bytes += file.text.size();
      tenant.files.push_back(std::move(file));
    }
    out.tenants.push_back(std::move(tenant));
  }
  return out;
}

struct MixedRun {
  Result<SessionResult> result = Status::Unknown("not run");
  /// Bob query index of each query job; query jobs are submitted first,
  /// so they hold job ids 0..kMixedQueries-1 and the tenants follow.
  std::vector<size_t> query_kind;
};

MixedRun RunMixedSession(MixedSetup* setup, ExecutionMode mode,
                         double* wall_s) {
  Testbed& bed = *setup->bed;
  adaptive::AdaptiveConfig acfg;
  acfg.planner.regret_threshold = 0.2;
  acfg.planner.escalate_after_rounds = 1;
  adaptive::AdaptiveManager manager(&bed.dfs(), bed.schema(), "/uv", acfg);
  planner::PlanCache plan_cache;
  SessionOptions opt;
  opt.policy = mapreduce::SchedulerPolicy::kFair;
  opt.execution = mode;
  opt.adaptive = &manager;
  opt.online_adaptation = true;
  opt.plan_cache = &plan_cache;
  ClusterSession session(&bed.dfs(), opt);
  MixedRun run;
  const std::vector<QueryDef> bob = workload::BobQueries();
  for (int i = 0; i < kMixedQueries; ++i) {
    const size_t qi = static_cast<size_t>(i) % bob.size();
    JobSpec spec = QuerySpec(bed.schema(), "/uv", System::kHail, bob[qi],
                             false);
    spec.use_planner = true;
    session.Submit(std::move(spec), "queries", kMixedQuerySpacingS * i);
    run.query_kind.push_back(qi);
  }
  for (int t = 0; t < kMixedTenants; ++t) {
    session.SubmitUpload(setup->tenants[static_cast<size_t>(t)], "ingest",
                         kMixedTenantSpacingS * (t + 0.5));
  }
  const Clock::time_point start = Clock::now();
  run.result = session.Run();
  *wall_s = SecondsSince(start);
  return run;
}

void RunMixed(Context* ctx) {
  const std::vector<QueryDef> bob = workload::BobQueries();

  // Expected answers: the Bob queries through the text reader on a stock
  // upload of the same source text.
  std::vector<uint64_t> expected;
  {
    Testbed check(BedConfig(ctx->args.seed, kMixedBlocksPerNode));
    check.LoadUserVisits();
    const Status up = check.UploadHadoop("/uv").status();
    for (const QueryDef& q : bob) {
      auto r = up.ok() ? check.RunQuery(System::kHadoop, "/uv", q)
                       : Result<JobResult>(up);
      expected.push_back(r.ok() ? r->output_count : 0);
      if (!r.ok()) ctx->outcome.Error("expected answers: " + r.status().ToString());
    }
  }

  std::vector<double> setup_s;
  std::vector<double> setup_upload_s;
  std::vector<double> session_ms;
  std::vector<double> jobs_per_session;
  std::vector<std::string> dumps;
  MixedSetup setup;
  SessionResult last;
  uint64_t stored = 0;
  // Registry cache counters around the last session (every session
  // starts from an identical set-up, so any one is representative).
  std::pair<hdfs::BlockCacheStats, hdfs::BlockCacheStats> cache;
  const auto one_session = [&](int) {
    setup = MixedSetup();
    const Clock::time_point t = Clock::now();
    setup = SetUpMixed(ctx);
    setup_s.push_back(SecondsSince(t));
    setup_upload_s.push_back(setup.upload_wall_s);
    const hdfs::BlockCacheStats before = setup.bed->dfs().block_cache().stats();
    double wall = 0;
    MixedRun run =
        RunMixedSession(&setup, ExecutionMode::kDefault, &wall);
    if (!run.result.ok()) {
      ++ctx->outcome.attempted;
      ++ctx->outcome.failed;
      ctx->outcome.Error("session: " + run.result.status().ToString());
      return;
    }
    cache = {before, setup.bed->dfs().block_cache().stats()};
    const SessionResult& sr = *run.result;
    ctx->outcome.attempted += sr.jobs.size();
    session_ms.push_back(wall * 1e3);
    jobs_per_session.push_back(static_cast<double>(sr.jobs.size()));
    dumps.push_back(workload::DumpSession(sr));
    for (size_t i = 0; i < run.query_kind.size(); ++i) {
      const auto& job = sr.jobs[i];
      if (!job.ok()) {
        ++ctx->outcome.failed;
        ctx->outcome.Error("session query: " + job.status().ToString());
      } else if (job->output_count != expected[run.query_kind[i]]) {
        ++ctx->outcome.wrong;
        ctx->outcome.Error(bob[run.query_kind[i]].name + " in session: " +
                           std::to_string(job->output_count) +
                           " rows, expected " +
                           std::to_string(expected[run.query_kind[i]]));
      }
    }
    for (size_t i = kMixedQueries; i < sr.jobs.size(); ++i) {
      if (!sr.jobs[i].ok()) {
        ++ctx->outcome.failed;
        ctx->outcome.Error("upload tenant: " + sr.jobs[i].status().ToString());
      }
    }
    stored = StoredBytes(setup.bed->dfs(), "/uv");
    for (int t = 0; t < kMixedTenants; ++t) {
      stored += StoredBytes(setup.bed->dfs(), "/tenant" + std::to_string(t));
    }
    last = sr;
  };
  MeasureOps(ctx, 4, "op.session", one_session);
  ctx->report.Nums("setup_s", setup_s);
  ctx->report.Nums("op_ms", session_ms);
  ctx->report.Nums("jobs_per_op", jobs_per_session);
  ctx->report.Num("stored_bytes", static_cast<double>(stored));
  ctx->report.Num("input_bytes", static_cast<double>(setup.input_bytes));
  ctx->report.Nums("upload_wall_s", setup_upload_s);
  ctx->report.Num("upload_text_bytes",
                  static_cast<double>(setup.base_text_bytes));

  for (const std::string& d : dumps) {
    if (d != dumps.front()) {
      ctx->outcome.deterministic = false;
      ctx->outcome.Error("sessions from identical set-ups diverged");
      break;
    }
  }
  if (!session_ms.empty()) ReportCacheDeltas(ctx, cache.first, cache.second, 1);

  uint64_t tasks = 0;
  uint64_t index_tasks = 0;
  uint64_t query_jobs = 0;
  for (size_t i = 0; i < last.jobs.size() && i < kMixedQueries; ++i) {
    const auto& job = last.jobs[i];
    if (!job.ok()) continue;
    tasks += job->map_tasks;
    index_tasks += job->index_scan_tasks;
    ++query_jobs;
  }
  double billed = 0;
  for (const auto& job : last.jobs) {
    if (job.ok()) billed += job->billed_cost_seconds;
  }
  const uint64_t lookups = last.plan_cache_hits + last.plan_cache_misses;
  ctx->report.Layer("mapreduce.tasks_per_job",
                    query_jobs > 0 ? static_cast<double>(tasks) /
                                         static_cast<double>(query_jobs)
                                   : 0.0);
  ctx->report.Layer("mapreduce.index_scan_share",
                    tasks > 0 ? static_cast<double>(index_tasks) /
                                    static_cast<double>(tasks)
                              : 0.0);
  ctx->report.Layer("planner.plan_cache_hit_rate",
                    lookups > 0 ? static_cast<double>(last.plan_cache_hits) /
                                      static_cast<double>(lookups)
                                : 0.0);
  ctx->report.Layer("adaptive.maintenance_tasks",
                    static_cast<double>(last.maintenance_completed));
  ctx->report.Layer("sim.session_s", last.session_seconds);
  ctx->report.Layer("sim.billed_s", billed);
  for (const mapreduce::QueueUsage& q : last.queues) {
    if (q.queue == "queries") {
      ctx->report.Layer("sim.query_latency_p99_s", q.latency_p99_s);
    }
  }

  // ---- serial == parallel: one more session, serial, same set-up ----
  {
    MixedSetup fresh = SetUpMixed(ctx);
    double wall = 0;
    MixedRun serial = RunMixedSession(&fresh, ExecutionMode::kSerial, &wall);
    if (!serial.result.ok() || dumps.empty() ||
        workload::DumpSession(*serial.result) != dumps.front()) {
      ctx->outcome.deterministic = false;
      ctx->outcome.Error("mixed_session: serial and parallel sessions differ");
    }
  }

  if (ctx->spans.enabled()) {
    // Planner and reorganizer calls on the last session's final state.
    hdfs::MiniDfs& dfs = setup.bed->dfs();
    auto blocks = dfs.namenode().GetFileBlocks("/uv");
    if (!blocks.ok()) return;
    for (size_t qi = 0; qi < bob.size(); ++qi) {
      const JobSpec spec =
          QuerySpec(setup.bed->schema(), "/uv", System::kHail, bob[qi], false);
      const int s = ctx->spans.Open("planner.plan", static_cast<int64_t>(qi));
      const planner::FilePlan plan = planner::PlanAccessPaths(
          dfs, setup.bed->schema(), *spec.annotation,
          spec.annotation->preferred_index_column(), *blocks);
      ctx->spans.Close(s, plan.decisions.size());
    }
    // Re-sort one replica of each of the first blocks to `duration`, a
    // column no replica is sorted on, then install an unclustered index.
    const size_t n = std::min<size_t>(blocks->size(), 64);
    for (size_t b = 0; b < n; ++b) {
      const hdfs::BlockLocation& loc = (*blocks)[b];
      if (loc.datanodes.empty()) continue;
      for (auto kind : {adaptive::MaintenanceTask::Kind::kResortReplica,
                        adaptive::MaintenanceTask::Kind::kInstallUnclustered}) {
        adaptive::MaintenanceTask task;
        task.block_id = loc.block_id;
        task.datanode = loc.datanodes.back();
        task.column = workload::kDuration;
        task.kind = kind;
        int s = ctx->spans.Open("adaptive.reorg_prepare",
                                static_cast<int64_t>(b));
        auto prepared = adaptive::PrepareReorg(dfs, task);
        ctx->spans.Close(s);
        if (!prepared.ok()) {
          ctx->outcome.Error("replay PrepareReorg: " +
                             prepared.status().ToString());
          continue;
        }
        s = ctx->spans.Open("adaptive.reorg_commit", static_cast<int64_t>(b));
        const Status committed =
            adaptive::CommitReorg(&dfs, task, std::move(*prepared));
        ctx->spans.Close(s);
        if (!committed.ok()) {
          ctx->outcome.Error("replay CommitReorg: " + committed.ToString());
        }
      }
    }
    // CRC32C over the stored replicas the session left behind.
    for (const hdfs::BlockLocation& loc : *blocks) {
      for (int dn : loc.datanodes) {
        auto bytes = dfs.datanode(dn).ReadBlockRaw(loc.block_id);
        if (!bytes.ok()) continue;
        const int s = ctx->spans.Open("util.crc32c",
                                      static_cast<int64_t>(loc.block_id));
        const uint32_t crc = crc32c::Value(bytes->data(), bytes->size());
        ctx->spans.Close(s, bytes->size(), crc & 1);
      }
    }
  }
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Context ctx;
  if (!ParseArgs(argc, argv, &ctx.args)) {
    std::fprintf(stderr,
                 "usage: hailbench --workload upload|hadoop_scan|hail_index|"
                 "mixed_session --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  ctx.spans = SpanLog(ctx.args.trace);
  const std::string& w = ctx.args.workload;
  if (w == "upload") {
    RunUpload(&ctx);
  } else if (w == "hadoop_scan") {
    RunScan(&ctx, System::kHadoop);
  } else if (w == "hail_index") {
    RunScan(&ctx, System::kHail);
  } else if (w == "mixed_session") {
    RunMixed(&ctx);
  } else {
    std::fprintf(stderr, "hailbench: unknown workload '%s'\n", w.c_str());
    return 2;
  }

  Report& r = ctx.report;
  const Outcome& o = ctx.outcome;
  r.Str("workload", w);
  r.Int("seed", ctx.args.seed);
  r.Int("hardware_threads", std::thread::hardware_concurrency());
  r.Int("pool_threads", ThreadPool::DefaultThreads());
  r.Int("attempted", o.attempted);
  r.Int("failed", o.failed);
  r.Int("wrong", o.wrong);
  r.Bool("answers_match", o.answers_match);
  r.Bool("deterministic", o.deterministic);
  r.Int("errors", o.errors.size());
  r.Num("peak_rss_kb", static_cast<double>(PeakRssKb()));
  if (ctx.args.trace && !ctx.args.trace_out.empty()) {
    r.Bool("trace_written", ctx.spans.Write(ctx.args.trace_out));
  }
  std::printf("%s\n", r.ToJson().c_str());
  std::fflush(stdout);
  // Every failed check also records an error.
  return o.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace hail

int main(int argc, char** argv) { return hail::perfbench::Main(argc, argv); }
