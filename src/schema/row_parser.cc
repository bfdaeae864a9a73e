#include "schema/row_parser.h"

#include <cassert>

namespace hail {

ParsedRow RowParser::Parse(std::string_view row) const {
  ParsedRow out;
  out.values.reserve(static_cast<size_t>(schema_.num_fields()));
  out.ok = WalkFields(schema_, row,
                      [&](int, FieldType type, const FieldScalar& f) {
                        out.values.push_back(BoxField(type, f));
                      });
  if (!out.ok) out.values.clear();
  return out;
}

std::string RowParser::Render(const std::vector<Value>& values) const {
  std::string out;
  for (int i = 0; i < schema_.num_fields(); ++i) {
    if (i > 0) out += schema_.delimiter();
    out += values[static_cast<size_t>(i)].ToText(schema_.field(i).type);
  }
  return out;
}

ColumnarAppender::ColumnarAppender(const Schema& schema,
                                   std::vector<ColumnVector>* columns)
    : schema_(&schema), columns_(columns) {
  assert(columns_->size() == static_cast<size_t>(schema.num_fields()));
}

bool ColumnarAppender::AppendRow(std::string_view row) {
  std::vector<ColumnVector>& columns = *columns_;
  // All columns are kept at equal length; remember it so a bad row can
  // roll back every partial append. Truncate is a no-op on columns the
  // row never reached.
  const size_t base = columns.empty() ? 0 : columns[0].size();
  const bool ok = WalkFields(
      *schema_, row, [&](int i, FieldType type, const FieldScalar& f) {
        ColumnVector& col = columns[static_cast<size_t>(i)];
        switch (type) {
          case FieldType::kInt32:
          case FieldType::kDate:
            col.AppendInt32(static_cast<int32_t>(f.i));
            break;
          case FieldType::kInt64:
            col.AppendInt64(f.i);
            break;
          case FieldType::kDouble:
            col.AppendDouble(f.d);
            break;
          case FieldType::kString:
            col.AppendString(f.s);
            break;
        }
      });
  if (!ok) {
    for (ColumnVector& col : columns) col.Truncate(base);
  }
  return ok;
}

std::vector<std::string_view> SplitRows(std::string_view data) {
  std::vector<std::string_view> rows;
  size_t start = 0;
  while (start < data.size()) {
    size_t pos = data.find('\n', start);
    if (pos == std::string_view::npos) {
      rows.push_back(data.substr(start));
      break;
    }
    rows.push_back(data.substr(start, pos - start));
    start = pos + 1;
  }
  return rows;
}

}  // namespace hail
