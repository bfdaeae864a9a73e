/// \file vectorized_scan_test.cc
/// \brief Property tests for the vectorized scan engine: the batched
/// column filter + selection vector + typed reconstruction path must be
/// observably identical to the row-at-a-time GetRow/GetAnyValue path
/// across all field types, varlen partition sizes, and bad-record mixes.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "layout/pax_block.h"
#include "query/predicate.h"
#include "query/vectorized.h"
#include "schema/row_parser.h"
#include "util/random.h"

namespace hail {
namespace {

/// One column of every field type, two strings to exercise independent
/// varlen cursors.
Schema AllTypesSchema() {
  return Schema({{"k", FieldType::kInt32},
                 {"url", FieldType::kString},
                 {"rev", FieldType::kDouble},
                 {"d", FieldType::kDate},
                 {"cnt", FieldType::kInt64},
                 {"tag", FieldType::kString}});
}

/// Text rows for AllTypesSchema with an optional bad-record mix.
std::string MakeText(int rows, uint64_t seed, double bad_fraction) {
  Random rng(seed);
  std::string out;
  for (int i = 0; i < rows; ++i) {
    if (rng.Bernoulli(bad_fraction)) {
      // Alternate wrong-arity and non-numeric bad rows.
      out += (i % 2 == 0) ? "only,three,fields\n" : "NaNish,x,1.0,2001-01-01,oops,t\n";
      continue;
    }
    out += std::to_string(rng.UniformRange(-50, 50));
    out += ",";
    out += rng.NextString(rng.Uniform(12));  // includes empty strings
    out += ",";
    out += std::to_string(static_cast<double>(rng.UniformRange(0, 10000)) / 100.0);
    out += ",";
    out += "20" + std::to_string(rng.UniformRange(10, 19)) + "-01-0" +
           std::to_string(rng.UniformRange(1, 9));
    out += ",";
    out += std::to_string(rng.UniformRange(-1000000000000LL, 1000000000000LL));
    out += ",";
    out += rng.NextString(1 + rng.Uniform(4));
    out += "\n";
  }
  return out;
}

/// Random predicate over the schema with typed literals; exercises every
/// operator, numeric widening, and string terms.
Predicate MakePredicate(const Schema& schema, Random* rng) {
  const int nterms = 1 + static_cast<int>(rng->Uniform(3));
  std::vector<PredicateTerm> terms;
  for (int t = 0; t < nterms; ++t) {
    PredicateTerm term;
    term.column = static_cast<int>(rng->Uniform(
        static_cast<uint64_t>(schema.num_fields())));
    const FieldType type = schema.field(term.column).type;
    static constexpr CompareOp kOps[] = {
        CompareOp::kEq, CompareOp::kNe, CompareOp::kLt, CompareOp::kLe,
        CompareOp::kGt, CompareOp::kGe, CompareOp::kBetween};
    term.op = kOps[rng->Uniform(7)];
    auto make_literal = [&]() -> Value {
      switch (type) {
        case FieldType::kInt32:
          // Sometimes an int64 or double literal to exercise widening.
          if (rng->Bernoulli(0.2)) return Value(rng->UniformRange(-50, 50));
          if (rng->Bernoulli(0.2)) {
            return Value(static_cast<double>(rng->UniformRange(-50, 50)) + 0.5);
          }
          return Value(static_cast<int32_t>(rng->UniformRange(-50, 50)));
        case FieldType::kDate:
          return Value(*ParseDateToDays(
              "20" + std::to_string(rng->UniformRange(10, 19)) + "-01-05"));
        case FieldType::kInt64:
          if (rng->Bernoulli(0.3)) {
            return Value(static_cast<int32_t>(rng->UniformRange(-100, 100)));
          }
          return Value(rng->UniformRange(-1000000000000LL, 1000000000000LL));
        case FieldType::kDouble:
          if (rng->Bernoulli(0.3)) return Value(rng->UniformRange(0, 100));
          return Value(static_cast<double>(rng->UniformRange(0, 10000)) / 100.0);
        case FieldType::kString:
          return Value(Random(rng->NextU64()).NextString(rng->Uniform(6)));
      }
      return Value(int64_t{0});
    };
    term.literal = make_literal();
    if (term.op == CompareOp::kBetween) term.literal_hi = make_literal();
    terms.push_back(std::move(term));
  }
  return Predicate(std::move(terms));
}

/// The pre-refactor reader hot loop: per row, per term GetAnyValue +
/// Matches. This is the reference the engine must reproduce exactly.
std::vector<uint32_t> RowAtATimeFilter(const PaxBlockView& view,
                                       const Predicate& pred, RowRange range) {
  std::vector<uint32_t> out;
  const uint32_t end = std::min(range.end, view.num_records());
  for (uint32_t r = range.begin; r < end; ++r) {
    bool match = true;
    for (const PredicateTerm& term : pred.terms()) {
      auto v = view.GetAnyValue(term.column, r);
      EXPECT_TRUE(v.ok()) << v.status().ToString();
      if (!term.Matches(*v)) {
        match = false;
        break;
      }
    }
    if (match) out.push_back(r);
  }
  return out;
}

TEST(VectorizedScanTest, FilterMatchesRowAtATimePath) {
  const Schema schema = AllTypesSchema();
  Random rng(2024);
  for (const uint32_t partition : {1u, 3u, 16u, 64u}) {
    for (const int rows : {0, 1, 7, 250, 1000}) {
      for (const double bad_fraction : {0.0, 0.15}) {
        BlockFormatOptions options;
        options.varlen_partition_size = partition;
        PaxBlock block = BuildPaxBlockFromText(
            schema, MakeText(rows, rng.NextU64(), bad_fraction), options);
        const std::string bytes = block.Serialize();
        auto view = PaxBlockView::Open(bytes);
        ASSERT_TRUE(view.ok());

        for (int trial = 0; trial < 8; ++trial) {
          const Predicate pred = MakePredicate(schema, &rng);
          // Random sub-range, sometimes the full block (index-scan and
          // full-scan shapes).
          RowRange range{0, view->num_records()};
          if (trial % 2 == 1 && view->num_records() > 0) {
            range.begin = static_cast<uint32_t>(
                rng.Uniform(view->num_records()));
            range.end = range.begin + static_cast<uint32_t>(rng.Uniform(
                view->num_records() - range.begin + 1));
          }
          auto compiled = CompiledPredicate::Compile(pred, schema);
          ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
          SelectionVector sel;
          ASSERT_TRUE(compiled->FilterBlock(*view, range, &sel).ok());
          EXPECT_EQ(sel.rows(), RowAtATimeFilter(*view, pred, range))
              << "partition=" << partition << " rows=" << rows
              << " bad=" << bad_fraction << " filter="
              << pred.ToString(schema);
        }
      }
    }
  }
}

TEST(VectorizedScanTest, ReconstructionMatchesGetRow) {
  const Schema schema = AllTypesSchema();
  Random rng(7);
  BlockFormatOptions options;
  options.varlen_partition_size = 8;
  PaxBlock block =
      BuildPaxBlockFromText(schema, MakeText(500, 99, 0.1), options);
  const std::string bytes = block.Serialize();
  auto view = PaxBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());

  // A selection vector (every third row) reconstructed through the typed
  // batch accessors must equal the row-at-a-time GetRow values.
  auto i32 = view->Int32Span(0);
  auto f64 = view->DoubleSpan(2);
  auto date = view->Int32Span(3);
  auto i64 = view->Int64Span(4);
  auto url = view->OpenVarlenCursor(1);
  auto tag = view->OpenVarlenCursor(5);
  ASSERT_TRUE(i32.ok() && f64.ok() && date.ok() && i64.ok() && url.ok() &&
              tag.ok());
  for (uint32_t r = 0; r < view->num_records(); r += 3) {
    auto expected = view->GetRow(r);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ((*i32)[r], (*expected)[0].as_int32());
    EXPECT_EQ(std::string(*url->Get(r)), (*expected)[1].as_string());
    EXPECT_EQ((*f64)[r], (*expected)[2].as_double());
    EXPECT_EQ((*date)[r], (*expected)[3].as_int32());
    EXPECT_EQ((*i64)[r], (*expected)[4].as_int64());
    EXPECT_EQ(std::string(*tag->Get(r)), (*expected)[5].as_string());
  }

  // Type-mismatched span requests are rejected.
  EXPECT_TRUE(view->Int32Span(1).status().IsInvalidArgument());
  EXPECT_TRUE(view->Int64Span(0).status().IsInvalidArgument());
  EXPECT_TRUE(view->DoubleSpan(4).status().IsInvalidArgument());
  EXPECT_TRUE(view->OpenVarlenCursor(0).status().IsInvalidArgument());
}

TEST(VectorizedScanTest, VarlenCursorSequentialIsLinear) {
  const Schema schema = AllTypesSchema();
  BlockFormatOptions options;
  options.varlen_partition_size = 16;
  PaxBlock block = BuildPaxBlockFromText(schema, MakeText(1000, 3, 0.0),
                                         options);
  const std::string bytes = block.Serialize();
  auto view = PaxBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  const uint32_t n = view->num_records();

  auto cursor = view->OpenVarlenCursor(1);
  ASSERT_TRUE(cursor.ok());
  for (uint32_t r = 0; r < n; ++r) {
    auto s = cursor->Get(r);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(*s, *view->GetString(1, r)) << "row " << r;
  }
  // A full sequential pass decodes each value exactly once — O(n), unlike
  // GetString's O(n * partition) re-scans — and never re-seeks.
  EXPECT_EQ(cursor->decode_steps(), n);
  EXPECT_EQ(cursor->partition_seeks(), 0u);

  // Ascending sparse access stays bounded by one partition per hit.
  auto sparse = view->OpenVarlenCursor(1);
  ASSERT_TRUE(sparse.ok());
  uint32_t hits = 0;
  for (uint32_t r = 5; r < n; r += 97) {
    ASSERT_TRUE(sparse->Get(r).ok());
    ++hits;
  }
  EXPECT_LE(sparse->decode_steps(),
            static_cast<uint64_t>(hits) * options.varlen_partition_size);

  // Backward access re-seeks via the sparse offsets and still agrees.
  auto backward = view->OpenVarlenCursor(1);
  ASSERT_TRUE(backward.ok());
  for (uint32_t r = n; r-- > 0;) {
    ASSERT_EQ(std::string(*backward->Get(r)), *view->GetString(1, r));
  }
}

TEST(VectorizedScanTest, BadRecordCursorMatchesGetBadRecord) {
  const Schema schema = AllTypesSchema();
  PaxBlock block = BuildPaxBlockFromText(schema, MakeText(300, 11, 0.3));
  const std::string bytes = block.Serialize();
  auto view = PaxBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  ASSERT_GT(view->num_bad_records(), 0u);

  auto cursor = view->OpenBadRecords();
  ASSERT_TRUE(cursor.ok());
  for (uint32_t i = 0; i < view->num_bad_records(); ++i) {
    ASSERT_FALSE(cursor->Done());
    auto next = cursor->Next();
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(*next, *view->GetBadRecord(i)) << "bad record " << i;
  }
  EXPECT_TRUE(cursor->Done());
  EXPECT_TRUE(cursor->Next().status().IsOutOfRange());
}

TEST(VectorizedScanTest, MatchesRowEqualsPredicateMatches) {
  const Schema schema = AllTypesSchema();
  Random rng(5150);
  RowParser parser(schema);
  const std::string text = MakeText(400, 17, 0.0);
  std::vector<std::vector<Value>> rows;
  for (std::string_view row : SplitRows(text)) {
    if (row.empty()) continue;
    auto parsed = parser.Parse(row);
    ASSERT_TRUE(parsed.ok);
    rows.push_back(std::move(parsed.values));
  }
  for (int trial = 0; trial < 50; ++trial) {
    const Predicate pred = MakePredicate(schema, &rng);
    auto compiled = CompiledPredicate::Compile(pred, schema);
    ASSERT_TRUE(compiled.ok());
    for (const auto& row : rows) {
      EXPECT_EQ(compiled->MatchesRow(row), pred.Matches(row))
          << pred.ToString(schema);
    }
  }
}

TEST(VectorizedScanTest, NanDoublesMatchInterpretedSemantics) {
  // ParseDouble accepts "nan", so NaN reaches double minipages through the
  // normal upload path. CompareValues' three-way mapping classifies an
  // unordered pair as "greater" (cmp = 1); the typed kernels must
  // reproduce that, not IEEE's all-false comparisons.
  const Schema schema = AllTypesSchema();
  PaxBlock block = BuildPaxBlockFromText(
      schema,
      "1,a,nan,2015-01-01,10,x\n"
      "2,b,5.0,2015-01-02,20,y\n"
      "3,c,nan,2015-01-03,30,z\n");
  ASSERT_EQ(block.num_records(), 3u);
  const std::string bytes = block.Serialize();
  auto view = PaxBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());

  for (const CompareOp op :
       {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt, CompareOp::kLe,
        CompareOp::kGt, CompareOp::kGe, CompareOp::kBetween}) {
    PredicateTerm term;
    term.column = 2;  // the double column
    term.op = op;
    term.literal = Value(1.0);
    term.literal_hi = Value(100.0);
    const Predicate pred({term});
    auto compiled = CompiledPredicate::Compile(pred, schema);
    ASSERT_TRUE(compiled.ok());
    SelectionVector sel;
    ASSERT_TRUE(
        compiled->FilterBlock(*view, RowRange{0, 3}, &sel).ok());
    EXPECT_EQ(sel.rows(), RowAtATimeFilter(*view, pred, RowRange{0, 3}))
        << "op " << static_cast<int>(op);
    for (uint32_t r = 0; r < 3; ++r) {
      auto row = view->GetRow(r);
      ASSERT_TRUE(row.ok());
      EXPECT_EQ(compiled->MatchesRow(*row), pred.Matches(*row))
          << "op " << static_cast<int>(op) << " row " << r;
    }
  }
}

TEST(VectorizedScanTest, CompileRejectsMistypedTerms) {
  const Schema schema = AllTypesSchema();
  PredicateTerm bad_col;
  bad_col.column = 99;
  EXPECT_TRUE(CompiledPredicate::Compile(Predicate({bad_col}), schema)
                  .status()
                  .IsInvalidArgument());

  PredicateTerm string_vs_int;
  string_vs_int.column = 0;  // kInt32
  string_vs_int.literal = Value(std::string("nope"));
  EXPECT_TRUE(CompiledPredicate::Compile(Predicate({string_vs_int}), schema)
                  .status()
                  .IsInvalidArgument());

  PredicateTerm int_vs_string;
  int_vs_string.column = 1;  // kString
  int_vs_string.literal = Value(int64_t{3});
  EXPECT_TRUE(CompiledPredicate::Compile(Predicate({int_vs_string}), schema)
                  .status()
                  .IsInvalidArgument());
}

TEST(VectorizedScanTest, EmptyPredicateSelectsRange) {
  const Schema schema = AllTypesSchema();
  PaxBlock block = BuildPaxBlockFromText(schema, MakeText(100, 1, 0.0));
  const std::string bytes = block.Serialize();
  auto view = PaxBlockView::Open(bytes);
  ASSERT_TRUE(view.ok());
  auto compiled = CompiledPredicate::Compile(Predicate(), schema);
  ASSERT_TRUE(compiled.ok());
  EXPECT_TRUE(compiled->empty());
  SelectionVector sel;
  ASSERT_TRUE(compiled->FilterBlock(*view, RowRange{10, 20}, &sel).ok());
  ASSERT_EQ(sel.size(), 10u);
  EXPECT_EQ(sel[0], 10u);
  EXPECT_EQ(sel[9], 19u);
  // Ranges past the block clamp instead of reading out of bounds.
  ASSERT_TRUE(
      compiled->FilterBlock(*view, RowRange{90, 5000}, &sel).ok());
  EXPECT_EQ(sel.size(), view->num_records() - 90);
}

}  // namespace
}  // namespace hail
