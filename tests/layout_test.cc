#include <gtest/gtest.h>

#include "layout/column_vector.h"
#include "layout/pax_block.h"
#include "layout/row_binary.h"
#include "schema/row_parser.h"
#include "util/random.h"

namespace hail {
namespace {

Schema MixedSchema() {
  return Schema({{"k", FieldType::kInt32},
                 {"url", FieldType::kString},
                 {"rev", FieldType::kDouble}});
}

std::string MakeText(int rows, uint64_t seed) {
  Random rng(seed);
  std::string out;
  for (int i = 0; i < rows; ++i) {
    out += std::to_string(rng.UniformRange(-1000, 1000));
    out += ",";
    out += rng.NextString(3 + rng.Uniform(20));
    out += ",";
    out += std::to_string(static_cast<double>(rng.Uniform(100000)) / 100.0);
    out += "\n";
  }
  return out;
}

TEST(ColumnVectorTest, AppendAndGet) {
  ColumnVector col(FieldType::kInt32);
  col.Append(Value(int32_t{5}));
  col.Append(Value(int32_t{-3}));
  EXPECT_EQ(col.size(), 2u);
  EXPECT_EQ(col.GetValue(1).as_int32(), -3);
  EXPECT_EQ(col.SerializedValueBytes(), 8u);
}

TEST(ColumnVectorTest, StringBytesCountNulTerminators) {
  ColumnVector col(FieldType::kString);
  col.Append(Value(std::string("ab")));
  col.Append(Value(std::string("")));
  EXPECT_EQ(col.SerializedValueBytes(), 4u);  // "ab\0" + "\0"
}

TEST(ColumnVectorTest, ArgSortIsStable) {
  ColumnVector col(FieldType::kInt32);
  for (int v : {3, 1, 3, 1, 2}) col.Append(Value(int32_t{v}));
  const auto perm = ArgSortColumn(col);
  EXPECT_EQ(perm, (std::vector<uint32_t>{1, 3, 4, 0, 2}));
}

TEST(ColumnVectorTest, ApplyPermutationReordersAllTypes) {
  ColumnVector col(FieldType::kString);
  col.Append(Value(std::string("c")));
  col.Append(Value(std::string("a")));
  col.Append(Value(std::string("b")));
  col.ApplyPermutation({1, 2, 0});
  EXPECT_EQ(col.str(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(PaxBlockTest, BuildFromTextAndReadBack) {
  const Schema schema = MixedSchema();
  const std::string text = MakeText(100, 1);
  PaxBlock block = BuildPaxBlockFromText(schema, text);
  EXPECT_EQ(block.num_records(), 100u);
  EXPECT_TRUE(block.bad_records().empty());

  RowParser parser(schema);
  const auto rows = SplitRows(text);
  for (uint32_t r = 0; r < 100; ++r) {
    const auto expected = parser.Parse(rows[r]);
    EXPECT_EQ(block.GetRow(r), expected.values) << "row " << r;
  }
}

TEST(PaxBlockTest, SerializeDeserializeRoundTrip) {
  const Schema schema = MixedSchema();
  PaxBlock block = BuildPaxBlockFromText(schema, MakeText(257, 2),
                                         BlockFormatOptions{16});
  const std::string bytes = block.Serialize();
  auto back = PaxBlock::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_records(), block.num_records());
  for (uint32_t r = 0; r < block.num_records(); ++r) {
    EXPECT_EQ(back->GetRow(r), block.GetRow(r)) << "row " << r;
  }
}

TEST(PaxBlockTest, BadRecordsGoToBadSection) {
  const Schema schema = MixedSchema();
  const std::string text =
      "1,aa,2.0\n"
      "not-a-number,bb,3.0\n"
      "2,cc\n"
      "3,dd,4.5\n";
  PaxBlock block = BuildPaxBlockFromText(schema, text);
  EXPECT_EQ(block.num_records(), 2u);
  ASSERT_EQ(block.bad_records().size(), 2u);
  EXPECT_EQ(block.bad_records()[0], "not-a-number,bb,3.0");
  EXPECT_EQ(block.bad_records()[1], "2,cc");

  // Bad records survive serialisation.
  const std::string bytes = block.Serialize();
  auto view = PaxBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->num_bad_records(), 2u);
  EXPECT_EQ(*view->GetBadRecord(1), "2,cc");
}

TEST(PaxBlockTest, SortByColumnSortsAllColumns) {
  const Schema schema = MixedSchema();
  PaxBlock block = BuildPaxBlockFromText(schema, MakeText(500, 3));
  // Remember original rows to verify permutation integrity.
  std::vector<std::vector<Value>> original;
  for (uint32_t r = 0; r < block.num_records(); ++r) {
    original.push_back(block.GetRow(r));
  }
  block.SortByColumn(0);
  int32_t prev = INT32_MIN;
  std::vector<std::vector<Value>> sorted;
  for (uint32_t r = 0; r < block.num_records(); ++r) {
    auto row = block.GetRow(r);
    EXPECT_GE(row[0].as_int32(), prev);
    prev = row[0].as_int32();
    sorted.push_back(std::move(row));
  }
  // Same multiset of rows.
  auto key = [](const std::vector<Value>& row) {
    return row[0].ToText(FieldType::kInt32) + "|" + row[1].as_string() + "|" +
           row[2].ToText(FieldType::kDouble);
  };
  std::vector<std::string> a, b;
  for (const auto& r : original) a.push_back(key(r));
  for (const auto& r : sorted) b.push_back(key(r));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(PaxBlockViewTest, VarlenPartitionScanPath) {
  const Schema schema = MixedSchema();
  BlockFormatOptions options;
  options.varlen_partition_size = 8;  // force multi-partition varlen
  PaxBlock block = BuildPaxBlockFromText(schema, MakeText(100, 4), options);
  const std::string bytes = block.Serialize();
  auto view = PaxBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->varlen_partition_size(), 8u);
  // §3.5's example: retrieve values by scanning partition floor(row/n).
  for (uint32_t r : {0u, 7u, 8u, 42u, 99u}) {
    auto s = view->GetString(1, r);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(*s, block.GetRow(r)[1].as_string()) << "row " << r;
  }
}

TEST(PaxBlockViewTest, FixedValueRandomAccess) {
  const Schema schema = MixedSchema();
  PaxBlock block = BuildPaxBlockFromText(schema, MakeText(64, 5));
  const std::string bytes = block.Serialize();
  auto view = PaxBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  for (uint32_t r : {0u, 31u, 63u}) {
    EXPECT_EQ(view->GetFixedValue(0, r)->as_int32(),
              block.GetRow(r)[0].as_int32());
    EXPECT_DOUBLE_EQ(view->GetFixedValue(2, r)->as_double(),
                     block.GetRow(r)[2].as_double());
  }
  EXPECT_TRUE(view->GetFixedValue(0, 64).status().IsOutOfRange());
  EXPECT_TRUE(view->GetFixedValue(1, 0).status().IsInvalidArgument());
}

TEST(PaxBlockViewTest, CorruptionDetected) {
  const Schema schema = MixedSchema();
  PaxBlock block = BuildPaxBlockFromText(schema, MakeText(10, 6));
  std::string bytes = block.Serialize();
  EXPECT_TRUE(PaxBlockView::Open(bytes.substr(0, 10)).status().IsCorruption());
  bytes[0] ^= 0xff;  // magic
  EXPECT_TRUE(PaxBlockView::Open(bytes).status().IsCorruption());
}

TEST(PaxBlockViewTest, EmptyBlock) {
  const Schema schema = MixedSchema();
  PaxBlock block(schema);
  const std::string bytes = block.Serialize();
  auto view = PaxBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->num_records(), 0u);
}

TEST(PaxBlockViewTest, ColumnReadEstimates) {
  const Schema schema = MixedSchema();
  BlockFormatOptions options;
  options.varlen_partition_size = 10;
  PaxBlock block = BuildPaxBlockFromText(schema, MakeText(100, 7), options);
  const std::string bytes = block.Serialize();
  auto view = PaxBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->EstimateColumnReadBytes(0, 0), 0u);
  EXPECT_EQ(view->EstimateColumnReadBytes(0, 100), view->column_bytes(0));
  EXPECT_EQ(view->EstimateColumnReadBytes(0, 1000), view->column_bytes(0));
  EXPECT_GT(view->EstimateColumnReadBytes(0, 1), 0u);
  EXPECT_LT(view->EstimateColumnReadBytes(0, 1), view->column_bytes(0));
}

// ---------------------------------------------------------------------------
// Binary row layout (Hadoop++)
// ---------------------------------------------------------------------------

TEST(RowBinaryTest, RoundTrip) {
  const Schema schema = MixedSchema();
  RowParser parser(schema);
  const std::string text = MakeText(50, 8);
  RowBinaryBlockBuilder builder(schema);
  std::vector<std::vector<Value>> rows;
  for (std::string_view row : SplitRows(text)) {
    if (row.empty()) continue;
    auto parsed = parser.Parse(row);
    ASSERT_TRUE(parsed.ok);
    builder.AddRow(parsed.values);
    rows.push_back(std::move(parsed.values));
  }
  EXPECT_EQ(builder.num_records(), 50u);
  EXPECT_EQ(builder.row_offsets().size(), 50u);
  EXPECT_EQ(builder.row_offsets()[0], 0u);

  const std::string bytes = builder.Finish();
  auto view = RowBinaryBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  auto decoded = view->DecodeAll();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, rows);
}

TEST(RowBinaryTest, DecodeAtOffsets) {
  const Schema schema = MixedSchema();
  RowParser parser(schema);
  RowBinaryBlockBuilder builder(schema);
  auto r1 = parser.Parse("1,aa,2.5");
  auto r2 = parser.Parse("2,bbbb,3.5");
  builder.AddRow(r1.values);
  builder.AddRow(r2.values);
  const auto offsets = builder.row_offsets();
  const std::string bytes = builder.Finish();
  auto view = RowBinaryBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  uint64_t pos = view->data_start() + offsets[1];
  auto row = view->DecodeRowAt(&pos);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].as_string(), "bbbb");
  EXPECT_EQ(pos, bytes.size());
}

TEST(RowBinaryTest, TruncationDetected) {
  const Schema schema = MixedSchema();
  RowParser parser(schema);
  RowBinaryBlockBuilder builder(schema);
  builder.AddRow(parser.Parse("1,hello,2.5").values);
  std::string bytes = builder.Finish();
  bytes.resize(bytes.size() - 3);
  auto view = RowBinaryBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  EXPECT_FALSE(view->DecodeAll().ok());
}

}  // namespace
}  // namespace hail
