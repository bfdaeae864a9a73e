// Equivalence of the stock-Hadoop text record reader with an eager
// reference: every row parsed by RowParser::Parse, filtered by
// Predicate::Matches, then handed to the map. The reader filters on the
// walked fields first and boxes only qualifying rows; these hand-made
// blocks check that it still sees, accepts, rejects and emits exactly what
// the reference does — across block cuts, bad values in filter and
// non-filter columns, wrong arities and custom map functions.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "hdfs/dfs_client.h"
#include "mapreduce/job_runner.h"
#include "schema/row_parser.h"
#include "workload/queries.h"
#include "workload/testbed.h"
#include "workload/uservisits.h"

namespace hail {
namespace mapreduce {
namespace {

constexpr uint64_t kBlockBytes = 256;  // rows are ~70-110 bytes

/// Hand-made UserVisits text, cut into 256-byte blocks by the stock upload
/// so that many rows straddle a block boundary. Contains a row longer than
/// two whole blocks, empty lines, bad values in filter and non-filter
/// columns, rows with too few and too many fields, and no trailing
/// newline.
std::string HandMadeText() {
  const char* ips[] = {"172.101.11.46", "10.0.0.1", "192.168.7.250"};
  const char* dates[] = {"1992-12-22", "1999-06-01", "2003-01-01",
                         "1999-12-31"};
  const char* revenues[] = {"5.5", "50", "500.25", "1", "100.0"};
  std::string text;
  for (int r = 0; r < 60; ++r) {
    text += ips[r % 3];
    text += ",http://site" + std::to_string(r) + ".example/page,";
    text += dates[r % 4];
    text += ',';
    text += revenues[r % 5];
    text += ",Mozilla/5.0,USA,en-US,word" + std::to_string(r) + ",";
    text += std::to_string(r * 7) + "\n";
    switch (r) {
      case 5:  // bad date in the Bob-Q1/Q3 filter column
        text += "172.101.11.46,http://x/,1999-02-30,7.5,UA,DEU,de,w,1\n";
        break;
      case 11:  // bad duration, a column no filter references
        text += "172.101.11.46,http://x/,1992-12-22,7.5,UA,DEU,de,w,12x\n";
        break;
      case 17:  // bad adRevenue, the Bob-Q4 filter column
        text += "10.0.0.1,http://x/,1999-06-01,abc,UA,DEU,de,w,3\n";
        break;
      case 23:  // too few fields
        text += "172.101.11.46,http://x/,1992-12-22,7.5,UA,DEU,de,w\n";
        break;
      case 29:  // too many fields
        text += "172.101.11.46,http://x/,1992-12-22,7.5,UA,DEU,de,w,4,5\n";
        break;
      case 31:  // empty lines are not records
        text += "\n\n";
        break;
      case 37:  // a qualifying row spanning more than two whole blocks
        text += "172.101.11.46,http://long/,1992-12-22,9.5,UA,FRA,fr," +
                std::string(3 * kBlockBytes, 'q') + ",8\n";
        break;
      case 41:  // duration outside INT32
        text += "10.0.0.1,http://x/,1999-06-01,2.5,UA,DEU,de,w,4294967296\n";
        break;
      default:
        break;
    }
  }
  // The last row carries no newline.
  text += "172.101.11.46,http://last/,1992-12-22,42,UA,ITA,it,last,9";
  return text;
}

/// What the eager reference expects of one job.
struct Expected {
  std::vector<std::string> rows;
  uint64_t seen = 0;
  uint64_t qualifying = 0;
  uint64_t bad = 0;
};

/// The default map's output row: the projected attributes, delimited.
std::string ProjectRow(const JobSpec& spec, const std::vector<Value>& values) {
  std::vector<int> proj = spec.annotation->projection;
  if (proj.empty()) {
    for (int i = 0; i < spec.schema.num_fields(); ++i) proj.push_back(i);
  }
  std::string row;
  for (size_t i = 0; i < proj.size(); ++i) {
    if (i > 0) row += spec.schema.delimiter();
    row += values[static_cast<size_t>(proj[i])].ToText(
        spec.schema.field(proj[i]).type);
  }
  return row;
}

/// Eager reference: parse every row, filter, then emit through \p emit
/// (qualifying rows) or \p emit_bad (bad records).
template <typename Emit, typename EmitBad>
Expected Reference(const JobSpec& spec, const std::string& text, Emit emit,
                   EmitBad emit_bad) {
  Expected out;
  const RowParser parser(spec.schema);
  for (std::string_view row : SplitRows(text)) {
    if (row.empty()) continue;
    ++out.seen;
    ParsedRow parsed = parser.Parse(row);
    if (!parsed.ok) {
      ++out.bad;
      emit_bad(row, &out.rows);
      continue;
    }
    if (spec.annotation->has_filter() &&
        !spec.annotation->filter.Matches(parsed.values)) {
      continue;
    }
    ++out.qualifying;
    emit(parsed.values, &out.rows);
  }
  std::sort(out.rows.begin(), out.rows.end());
  return out;
}

class TextReaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::TestbedConfig cfg;
    cfg.num_nodes = 4;
    cfg.real_block_bytes = kBlockBytes;
    cfg.logical_block_bytes = 64 * kBlockBytes;
    bed_ = std::make_unique<workload::Testbed>(cfg);
    text_ = HandMadeText();
    ASSERT_GT(text_.size(), 8 * kBlockBytes);
    ASSERT_TRUE(hdfs::UploadTextFile(&bed_->dfs(), 0, "/t", text_).ok());
  }

  JobSpec Spec(const std::string& filter, const std::string& projection) {
    workload::QueryDef q{"text-reader", filter, projection, 0.0};
    auto spec = workload::MakeQueryJob(workload::UserVisitsSchema(), "/t",
                                       System::kHadoop, q,
                                       /*hail_splitting=*/false,
                                       /*collect_output=*/true);
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    return *spec;
  }

  JobResult Run(const JobSpec& spec) {
    JobRunner runner(&bed_->dfs());
    auto r = runner.Run(spec);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    JobResult out = *r;
    std::sort(out.output_rows.begin(), out.output_rows.end());
    return out;
  }

  std::unique_ptr<workload::Testbed> bed_;
  std::string text_;
};

struct FilterCase {
  const char* name;
  const char* filter;
  const char* projection;
};

class TextReaderFilterTest
    : public TextReaderTest,
      public ::testing::WithParamInterface<FilterCase> {};

TEST_P(TextReaderFilterTest, MatchesEagerParseThenFilter) {
  const JobSpec spec = Spec(GetParam().filter, GetParam().projection);
  const Expected want = Reference(
      spec, text_,
      [&](const std::vector<Value>& values, std::vector<std::string>* rows) {
        rows->push_back(ProjectRow(spec, values));
      },
      [](std::string_view, std::vector<std::string>*) {});
  const JobResult got = Run(spec);
  ASSERT_GT(want.qualifying, 0u) << "case selects nothing; weak test";
  EXPECT_EQ(want.bad, 6u);
  EXPECT_EQ(got.records_seen, want.seen);
  EXPECT_EQ(got.records_qualifying, want.qualifying);
  EXPECT_EQ(got.bad_records_seen, want.bad);
  EXPECT_EQ(got.output_rows, want.rows);
}

INSTANTIATE_TEST_SUITE_P(
    Filters, TextReaderFilterTest,
    ::testing::Values(
        FilterCase{"BobQ1", "@3 between(1999-01-01,2000-01-01)", "{@1}"},
        FilterCase{"BobQ3TwoColumns", "@1 = 172.101.11.46 and @3 = 1992-12-22",
                   "{@8,@9,@4}"},
        FilterCase{"BobQ4", "@4 between(1,100)", "{@8,@9,@4}"},
        FilterCase{"IntAndString", "@9 >= 140 and @6 != FRA", ""},
        FilterCase{"NoFilter", "", ""}),
    [](const ::testing::TestParamInfo<FilterCase>& info) {
      return std::string(info.param.name);
    });

TEST_F(TextReaderTest, CustomMapGetsFullRowsAndRawBadRecords) {
  JobSpec spec = Spec("@1 = 172.101.11.46", "{@1}");
  const Schema schema = spec.schema;
  spec.map = [schema](const HailRecord& rec, MapOutput* out) {
    if (rec.bad()) {
      out->Emit("BAD:" + rec.raw());
      return;
    }
    // A full row, never a projection: all nine attributes, in order.
    if (!rec.attrs().empty() ||
        rec.values().size() != static_cast<size_t>(schema.num_fields())) {
      out->Emit("NOT-A-FULL-ROW");
      return;
    }
    out->Emit("ROW:" + RowParser(schema).Render(rec.values()));
  };
  const RowParser parser(schema);
  const Expected want = Reference(
      spec, text_,
      [&](const std::vector<Value>& values, std::vector<std::string>* rows) {
        rows->push_back("ROW:" + parser.Render(values));
      },
      [](std::string_view raw, std::vector<std::string>* rows) {
        rows->push_back("BAD:" + std::string(raw));
      });
  const JobResult got = Run(spec);
  ASSERT_GT(want.qualifying, 0u);
  EXPECT_EQ(got.records_seen, want.seen);
  EXPECT_EQ(got.records_qualifying, want.qualifying);
  EXPECT_EQ(got.bad_records_seen, want.bad);
  EXPECT_EQ(got.output_rows, want.rows);
  // The straddling long row and the newline-less last row arrive whole.
  const std::string long_word(3 * kBlockBytes, 'q');
  EXPECT_EQ(std::count_if(got.output_rows.begin(), got.output_rows.end(),
                          [&](const std::string& r) {
                            return r.find(long_word) != std::string::npos;
                          }),
            1);
  EXPECT_TRUE(std::binary_search(
      got.output_rows.begin(), got.output_rows.end(),
      "BAD:172.101.11.46,http://x/,1992-12-22,7.5,UA,DEU,de,w,12x"));
}

}  // namespace
}  // namespace mapreduce
}  // namespace hail
