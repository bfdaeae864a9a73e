#include "schema/schema.h"

#include <cstdio>

#include "util/string_util.h"

namespace hail {

std::string_view FieldTypeName(FieldType type) {
  switch (type) {
    case FieldType::kInt32:
      return "int32";
    case FieldType::kInt64:
      return "int64";
    case FieldType::kDouble:
      return "double";
    case FieldType::kString:
      return "string";
    case FieldType::kDate:
      return "date";
  }
  return "?";
}

Result<FieldType> FieldTypeFromByte(uint8_t byte) {
  if (byte > static_cast<uint8_t>(FieldType::kDate)) {
    return Status::Corruption("bad field type byte " + std::to_string(byte));
  }
  return static_cast<FieldType>(byte);
}

size_t FieldTypeWidth(FieldType type) {
  switch (type) {
    case FieldType::kInt32:
    case FieldType::kDate:
      return 4;
    case FieldType::kInt64:
      return 8;
    case FieldType::kDouble:
      return 8;
    case FieldType::kString:
      return 0;
  }
  return 0;
}

int Schema::FieldIndex(std::string_view name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

size_t Schema::EstimatedRowWidth(size_t avg_string_bytes) const {
  size_t width = 0;
  for (const Field& f : fields_) {
    width += IsFixedSize(f.type) ? FieldTypeWidth(f.type) : avg_string_bytes;
  }
  return width;
}

std::string Schema::ToString() const {
  std::string out;
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ',';
    out += fields_[i].name;
    out += ':';
    out += FieldTypeName(fields_[i].type);
  }
  return out;
}

Result<Schema> Schema::Parse(std::string_view text) {
  std::vector<Field> fields;
  if (TrimWhitespace(text).empty()) {
    return Status::InvalidArgument("empty schema text");
  }
  for (std::string_view part : SplitString(text, ',')) {
    const auto pieces = SplitString(part, ':');
    if (pieces.size() != 2) {
      return Status::InvalidArgument("bad schema field: '" + std::string(part) +
                                     "'");
    }
    const std::string_view name = TrimWhitespace(pieces[0]);
    const std::string_view type_name = TrimWhitespace(pieces[1]);
    FieldType type;
    if (type_name == "int32") {
      type = FieldType::kInt32;
    } else if (type_name == "int64") {
      type = FieldType::kInt64;
    } else if (type_name == "double") {
      type = FieldType::kDouble;
    } else if (type_name == "string") {
      type = FieldType::kString;
    } else if (type_name == "date") {
      type = FieldType::kDate;
    } else {
      return Status::InvalidArgument("unknown field type: '" +
                                     std::string(type_name) + "'");
    }
    if (name.empty()) {
      return Status::InvalidArgument("empty field name in schema");
    }
    fields.push_back(Field{std::string(name), type});
  }
  return Schema(std::move(fields));
}

namespace {
constexpr int kDaysPerMonthCumulative[13] = {0,   31,  59,  90,  120, 151, 181,
                                             212, 243, 273, 304, 334, 365};

bool IsLeapYear(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int DaysFromCivil(int y, int m, int d) {
  // Howard Hinnant's days_from_civil algorithm (public domain).
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      static_cast<unsigned>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int>(doe) - 719468;
}

void CivilFromDays(int z, int* y, int* m, int* d) {
  z += 719468;
  const int era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int yr = static_cast<int>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  *m = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  *y = yr + (*m <= 2);
}
}  // namespace

Result<int32_t> ParseDateToDays(std::string_view iso_date) {
  if (iso_date.size() != 10 || iso_date[4] != '-' || iso_date[7] != '-') {
    return Status::InvalidArgument("bad date: '" + std::string(iso_date) + "'");
  }
  auto digits = [&](size_t pos, size_t len) -> int {
    int v = 0;
    for (size_t i = pos; i < pos + len; ++i) {
      const char c = iso_date[i];
      if (c < '0' || c > '9') return -1;
      v = v * 10 + (c - '0');
    }
    return v;
  };
  const int y = digits(0, 4);
  const int m = digits(5, 2);
  const int d = digits(8, 2);
  if (y < 0 || m < 1 || m > 12 || d < 1) {
    return Status::InvalidArgument("bad date: '" + std::string(iso_date) + "'");
  }
  int max_day = kDaysPerMonthCumulative[m] - kDaysPerMonthCumulative[m - 1];
  if (m == 2 && IsLeapYear(y)) max_day = 29;
  if (d > max_day) {
    return Status::InvalidArgument("bad date: '" + std::string(iso_date) + "'");
  }
  return DaysFromCivil(y, m, d);
}

std::string DaysToDateString(int32_t days) {
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

}  // namespace hail
