/// \file row_parser.h
/// \brief Parses delimited text rows against a Schema (paper §3.1).
///
/// The HAIL client runs this while uploading: rows that fail to parse
/// ("bad records") are separated into the block's bad-record section and
/// later handed to map functions with a flag, exactly as §4.3 describes.
///
/// The acceptance rules exist once, in WalkFields. Every text consumer
/// runs that walker with its own sink:
///   - RowParser::Parse — boxes each field into a Value (query-side tuple
///     reconstruction, reference/tests);
///   - ColumnarAppender — writes straight into typed ColumnVectors with no
///     per-row Value allocation (the upload ingest hot path);
///   - the stock-Hadoop text record reader — keeps each field's decoded
///     FieldScalar, evaluates the job's filter on them, and boxes only the
///     rows that qualify (BoxField).

#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "layout/column_vector.h"
#include "schema/schema.h"
#include "schema/value.h"
#include "util/result.h"
#include "util/string_util.h"

namespace hail {

/// \brief One text field decoded to its schema type, without allocation.
///
/// kInt32, kDate (as a day number) and kInt64 fields set `i`; kDouble sets
/// `d`; kString sets `s`, a view into the row text.
struct FieldScalar {
  int64_t i = 0;
  double d = 0.0;
  std::string_view s;
};

/// Walks one text row (without trailing newline) under the schema's
/// acceptance rules: exactly num_fields() delimiter-separated fields,
/// INT32 within range, INT64/DOUBLE/DATE parsed strictly, STRING as is.
/// Calls `sink(field, type, scalar)` for each field, in order, as soon as
/// it is validated, and returns false at the first violation (a "bad
/// record"); a sink that builds output as it goes must roll it back then.
template <typename Sink>
inline bool WalkFields(const Schema& schema, std::string_view row,
                       Sink&& sink) {
  const int num_fields = schema.num_fields();
  if (num_fields == 0) return false;  // a row always holds one field
  const char delimiter = schema.delimiter();
  size_t start = 0;
  for (int i = 0; i < num_fields; ++i) {
    std::string_view text;
    if (i + 1 < num_fields) {
      const size_t pos = row.find(delimiter, start);
      if (pos == std::string_view::npos) return false;  // too few fields
      text = row.substr(start, pos - start);
      start = pos + 1;
    } else {
      text = row.substr(start);
      if (text.find(delimiter) != std::string_view::npos) {
        return false;  // too many fields
      }
    }
    const FieldType type = schema.field(i).type;
    FieldScalar f;
    switch (type) {
      case FieldType::kInt32: {
        auto v = ParseInt64(text);
        if (!v.ok() || *v < INT32_MIN || *v > INT32_MAX) return false;
        f.i = *v;
        break;
      }
      case FieldType::kInt64: {
        auto v = ParseInt64(text);
        if (!v.ok()) return false;
        f.i = *v;
        break;
      }
      case FieldType::kDouble: {
        auto v = ParseDouble(text);
        if (!v.ok()) return false;
        f.d = *v;
        break;
      }
      case FieldType::kString:
        f.s = text;
        break;
      case FieldType::kDate: {
        auto v = ParseDateToDays(text);
        if (!v.ok()) return false;
        f.i = *v;
        break;
      }
    }
    sink(i, type, f);
  }
  return true;
}

/// Boxes one walked field into the Value RowParser::Parse produces for it.
inline Value BoxField(FieldType type, const FieldScalar& f) {
  switch (type) {
    case FieldType::kInt32:
    case FieldType::kDate:
      return Value(static_cast<int32_t>(f.i));
    case FieldType::kInt64:
      return Value(f.i);
    case FieldType::kDouble:
      return Value(f.d);
    case FieldType::kString:
      return Value(std::string(f.s));
  }
  return Value();
}

/// \brief Outcome of parsing one text row.
struct ParsedRow {
  /// Typed values in schema order; empty when !ok.
  std::vector<Value> values;
  /// False for bad records.
  bool ok = false;
};

/// \brief Reusable text-row parser for one schema.
///
/// Holds the schema by value so constructing from a temporary (e.g.
/// `RowParser parser(UserVisitsSchema());`) is safe.
class RowParser {
 public:
  explicit RowParser(Schema schema) : schema_(std::move(schema)) {}

  /// Parses one row (without trailing newline) through WalkFields. Never
  /// fails hard: schema mismatches yield ParsedRow{.ok = false}.
  ParsedRow Parse(std::string_view row) const;

  /// Renders values back into a text row (inverse of Parse for good rows).
  std::string Render(const std::vector<Value>& values) const;

  const Schema& schema() const { return schema_; }

 private:
  Schema schema_;
};

/// \brief Parses text rows straight into typed column storage.
///
/// Bound to one ColumnVector per schema field (e.g. a PaxBlock under
/// construction). AppendRow runs the same WalkFields as RowParser::Parse
/// but writes each field directly into its typed vector, so ingest
/// performs no per-row std::vector<Value> allocation and no string boxing
/// for fixed-size fields.
class ColumnarAppender {
 public:
  /// \p columns must have one entry per schema field, types matching; it
  /// must outlive the appender.
  ColumnarAppender(const Schema& schema, std::vector<ColumnVector>* columns);

  /// Parses one row (without trailing newline) into the columns. Returns
  /// false — leaving every column unchanged — when the row does not
  /// conform to the schema (a "bad record").
  bool AppendRow(std::string_view row);

 private:
  const Schema* schema_;
  std::vector<ColumnVector>* columns_;
};

/// \brief Splits a byte buffer into newline-terminated rows.
///
/// Used by the HAIL client's content-aware block cutting: HDFS splits after
/// a constant number of bytes, HAIL never splits a row across blocks
/// (paper §3.1, step (1) of Figure 1).
std::vector<std::string_view> SplitRows(std::string_view data);

}  // namespace hail
