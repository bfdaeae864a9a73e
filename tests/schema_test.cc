#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "schema/row_parser.h"
#include "schema/schema.h"
#include "schema/value.h"
#include "util/random.h"
#include "workload/uservisits.h"

namespace hail {
namespace {

Schema TestSchema() {
  return Schema({{"id", FieldType::kInt32},
                 {"name", FieldType::kString},
                 {"score", FieldType::kDouble},
                 {"joined", FieldType::kDate},
                 {"visits", FieldType::kInt64}});
}

TEST(SchemaTest, RoundTripsThroughText) {
  const Schema s = TestSchema();
  const std::string text = s.ToString();
  EXPECT_EQ(text, "id:int32,name:string,score:double,joined:date,visits:int64");
  auto parsed = Schema::Parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, s);
}

TEST(SchemaTest, RejectsBadText) {
  EXPECT_FALSE(Schema::Parse("").ok());
  EXPECT_FALSE(Schema::Parse("id").ok());
  EXPECT_FALSE(Schema::Parse("id:int128").ok());
  EXPECT_FALSE(Schema::Parse(":int32").ok());
}

TEST(SchemaTest, FieldIndexLookup) {
  const Schema s = TestSchema();
  EXPECT_EQ(s.FieldIndex("score"), 2);
  EXPECT_EQ(s.FieldIndex("missing"), -1);
}

TEST(SchemaTest, EstimatedRowWidth) {
  const Schema s = TestSchema();
  // 4 (int32) + 16 (string est) + 8 (double) + 4 (date) + 8 (int64)
  EXPECT_EQ(s.EstimatedRowWidth(16), 40u);
}

TEST(DateTest, ParsesAndFormats) {
  EXPECT_EQ(*ParseDateToDays("1970-01-01"), 0);
  EXPECT_EQ(*ParseDateToDays("1970-01-02"), 1);
  EXPECT_EQ(*ParseDateToDays("1969-12-31"), -1);
  EXPECT_EQ(DaysToDateString(*ParseDateToDays("1999-01-01")), "1999-01-01");
  EXPECT_EQ(DaysToDateString(*ParseDateToDays("2000-02-29")), "2000-02-29");
}

TEST(DateTest, OrderingMatchesCalendar) {
  EXPECT_LT(*ParseDateToDays("1999-01-01"), *ParseDateToDays("1999-01-02"));
  EXPECT_LT(*ParseDateToDays("1999-12-31"), *ParseDateToDays("2000-01-01"));
}

TEST(DateTest, RejectsGarbage) {
  EXPECT_FALSE(ParseDateToDays("1999-13-01").ok());
  EXPECT_FALSE(ParseDateToDays("1999-02-30").ok());
  EXPECT_FALSE(ParseDateToDays("99-01-01").ok());
  EXPECT_FALSE(ParseDateToDays("1999/01/01").ok());
  EXPECT_FALSE(ParseDateToDays("abcd-ef-gh").ok());
}

TEST(DateTest, LeapYearRules) {
  EXPECT_TRUE(ParseDateToDays("2000-02-29").ok());   // div by 400
  EXPECT_FALSE(ParseDateToDays("1900-02-29").ok());  // div by 100 only
  EXPECT_TRUE(ParseDateToDays("2012-02-29").ok());   // div by 4
  EXPECT_FALSE(ParseDateToDays("2011-02-29").ok());
}

TEST(ValueTest, ComparesNumerically) {
  EXPECT_TRUE(Value(int32_t{1}) < Value(int32_t{2}));
  EXPECT_TRUE(Value(1.5) < Value(int64_t{2}));
  EXPECT_FALSE(Value(int32_t{2}) < Value(int32_t{2}));
}

TEST(ValueTest, ComparesStrings) {
  EXPECT_TRUE(Value(std::string("abc")) < Value(std::string("abd")));
  EXPECT_TRUE(Value(std::string("abc")) == Value(std::string("abc")));
}

TEST(ValueTest, RendersToText) {
  EXPECT_EQ(Value(int32_t{42}).ToText(FieldType::kInt32), "42");
  EXPECT_EQ(Value(std::string("x")).ToText(FieldType::kString), "x");
  EXPECT_EQ(Value(*ParseDateToDays("1999-06-15")).ToText(FieldType::kDate),
            "1999-06-15");
}

TEST(RowParserTest, ParsesGoodRow) {
  const Schema s = TestSchema();
  RowParser parser(s);
  ParsedRow row = parser.Parse("7,alice,3.5,2001-09-09,12345678901");
  ASSERT_TRUE(row.ok);
  EXPECT_EQ(row.values[0].as_int32(), 7);
  EXPECT_EQ(row.values[1].as_string(), "alice");
  EXPECT_DOUBLE_EQ(row.values[2].as_double(), 3.5);
  EXPECT_EQ(row.values[4].as_int64(), 12345678901);
}

TEST(RowParserTest, BadRecordsDetected) {
  const Schema s = TestSchema();
  RowParser parser(s);
  EXPECT_FALSE(parser.Parse("7,alice,3.5,2001-09-09").ok);        // arity
  EXPECT_FALSE(parser.Parse("x,alice,3.5,2001-09-09,1").ok);      // int
  EXPECT_FALSE(parser.Parse("7,alice,pi,2001-09-09,1").ok);       // double
  EXPECT_FALSE(parser.Parse("7,alice,3.5,not-a-date,1").ok);      // date
  EXPECT_FALSE(parser.Parse("").ok);
}

TEST(RowParserTest, RenderInvertsParse) {
  const Schema s = TestSchema();
  RowParser parser(s);
  const std::string original = "7,alice,3.5,2001-09-09,99";
  ParsedRow row = parser.Parse(original);
  ASSERT_TRUE(row.ok);
  EXPECT_EQ(parser.Render(row.values), original);
}

TEST(RowParserTest, Int32OverflowIsBad) {
  const Schema s = TestSchema();
  RowParser parser(s);
  EXPECT_FALSE(parser.Parse("4294967296,x,1.0,2001-01-01,1").ok);
}

TEST(SplitRowsTest, HandlesTrailingNewline) {
  auto rows = SplitRows("a\nb\nc\n");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[2], "c");
  rows = SplitRows("a\nb\nc");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[2], "c");
  EXPECT_TRUE(SplitRows("").empty());
}

/// One random edit of a text row: character-level damage, a whole field
/// replaced by an edge-case token, or a field added or dropped.
std::string MutateRow(std::string row, Random* rng) {
  static const char kAlphabet[] = "0123456789,-.eE+x :";
  static const char* kTokens[] = {
      "",           "-",          "2147483647", "2147483648", "-2147483648",
      "-2147483649", "1e308",     "1e999",      "nan",        "inf",
      "0x10",       "+5",         " 5",         "5 ",         "1999-02-29",
      "2000-02-29", "1999-13-01", "99-01-01",   "1999-1-01",  "3.5.1",
      "0.0",        "-0",         "4e-320"};
  const auto pick_char = [&] {
    return kAlphabet[rng->Uniform(sizeof(kAlphabet) - 1)];
  };
  switch (rng->Uniform(6)) {
    case 0:  // overwrite one character
      if (!row.empty()) row[rng->Uniform(row.size())] = pick_char();
      break;
    case 1:  // delete one character
      if (!row.empty()) row.erase(rng->Uniform(row.size()), 1);
      break;
    case 2:  // insert one character
      row.insert(rng->Uniform(row.size() + 1), 1, pick_char());
      break;
    case 3:  // truncate
      row.resize(rng->Uniform(row.size() + 1));
      break;
    case 4: {  // replace one field with an edge-case token
      std::vector<std::string> fields;
      for (std::string_view f : SplitString(row, ',')) fields.emplace_back(f);
      fields[rng->Uniform(fields.size())] =
          kTokens[rng->Uniform(std::size(kTokens))];
      row.clear();
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) row += ',';
        row += fields[i];
      }
      break;
    }
    default:  // one field too many or too few
      if (rng->Uniform(2) == 0) {
        row += ",7";
      } else {
        const size_t comma = row.rfind(',');
        if (comma != std::string::npos) row.resize(comma);
      }
      break;
  }
  return row;
}

/// Bitwise value identity (NaN equals NaN, -0.0 differs from 0.0).
bool SameValue(const Value& a, const Value& b) {
  if (a.is_double() && b.is_double()) {
    return std::bit_cast<uint64_t>(a.as_double()) ==
           std::bit_cast<uint64_t>(b.as_double());
  }
  return a == b;
}

/// The typed value \p col holds at \p row, boxed like RowParser::Parse.
Value ColumnValue(const ColumnVector& col, size_t row) {
  switch (col.type()) {
    case FieldType::kInt32:
    case FieldType::kDate:
      return Value(col.i32()[row]);
    case FieldType::kInt64:
      return Value(col.i64()[row]);
    case FieldType::kDouble:
      return Value(col.f64()[row]);
    case FieldType::kString:
      return Value(col.str()[row]);
  }
  return Value();
}

// RowParser::Parse and ColumnarAppender::AppendRow share one field walker:
// on seeded random and mutated UserVisits rows they accept exactly the same
// rows with identical typed values, and a rejected row leaves every column
// as it was.
TEST(FieldWalkerPropertyTest, ParseAndAppendRowAgree) {
  const Schema schema = workload::UserVisitsSchema();
  const RowParser parser(schema);
  uint64_t accepted_total = 0;
  uint64_t rejected_total = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    workload::UserVisitsConfig uv;
    uv.rows = 200;
    uv.seed = seed;
    const std::string text = workload::GenerateUserVisitsText(uv);
    Random rng(seed * 7919);
    std::vector<ColumnVector> columns;
    for (const Field& f : schema.fields()) columns.emplace_back(f.type);
    ColumnarAppender appender(schema, &columns);
    std::vector<std::vector<Value>> accepted;
    for (std::string_view source : SplitRows(text)) {
      std::vector<std::string> candidates = {std::string(source)};
      for (int m = 0; m < 4; ++m) {
        std::string mutated = MutateRow(std::string(source), &rng);
        if (m % 2 == 1) mutated = MutateRow(std::move(mutated), &rng);
        candidates.push_back(std::move(mutated));
      }
      for (const std::string& row : candidates) {
        const ParsedRow parsed = parser.Parse(row);
        const bool appended = appender.AppendRow(row);
        ASSERT_EQ(parsed.ok, appended) << "row: " << row;
        if (parsed.ok) {
          ASSERT_EQ(parsed.values.size(), columns.size());
          accepted.push_back(parsed.values);
          ++accepted_total;
        } else {
          EXPECT_TRUE(parsed.values.empty());
          ++rejected_total;
        }
        for (const ColumnVector& col : columns) {
          ASSERT_EQ(col.size(), accepted.size()) << "row: " << row;
        }
      }
    }
    for (size_t r = 0; r < accepted.size(); ++r) {
      for (size_t c = 0; c < columns.size(); ++c) {
        ASSERT_TRUE(SameValue(ColumnValue(columns[c], r), accepted[r][c]))
            << "seed " << seed << " row " << r << " column " << c;
      }
    }
  }
  // Both outcomes are well represented.
  EXPECT_GT(accepted_total, 1500u);
  EXPECT_GT(rejected_total, 1000u);
}

}  // namespace
}  // namespace hail
