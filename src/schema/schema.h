/// \file schema.h
/// \brief Typed schemas for datasets uploaded through HAIL.
///
/// The HAIL client parses each text row against a user-provided schema
/// (paper §3.1); rows that do not match are "bad records" and land in a
/// dedicated section of the block. Fixed-size types are indexable with
/// offset arithmetic; STRING attributes use the variable-size side car
/// described in §3.5.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace hail {

/// \brief Attribute type. DATE is stored as days-since-epoch in an int32.
enum class FieldType : uint8_t {
  kInt32 = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
  kDate = 4,
};

std::string_view FieldTypeName(FieldType type);

/// Returns the on-disk width of a fixed-size type, or 0 for STRING.
size_t FieldTypeWidth(FieldType type);

/// True for types whose values have a constant byte width.
inline bool IsFixedSize(FieldType type) { return type != FieldType::kString; }

/// Decodes a serialised FieldType byte; Corruption outside the enum.
Result<FieldType> FieldTypeFromByte(uint8_t byte);

/// Fewest bytes one serialised value takes: its fixed width, or the u32
/// length prefix of a STRING.
inline size_t MinSerializedBytes(FieldType type) {
  return IsFixedSize(type) ? FieldTypeWidth(type) : 4;
}

/// \brief One attribute: a name plus a type.
struct Field {
  std::string name;
  FieldType type;

  bool operator==(const Field& other) const {
    return name == other.name && type == other.type;
  }
};

/// \brief An ordered list of attributes plus the text-row delimiter.
class Schema {
 public:
  Schema() = default;
  Schema(std::vector<Field> fields, char delimiter = ',')
      : fields_(std::move(fields)), delimiter_(delimiter) {}

  int num_fields() const { return static_cast<int>(fields_.size()); }
  const Field& field(int i) const { return fields_[static_cast<size_t>(i)]; }
  const std::vector<Field>& fields() const { return fields_; }
  char delimiter() const { return delimiter_; }

  /// Index of the attribute with the given name, or -1.
  int FieldIndex(std::string_view name) const;

  /// Sum of fixed widths plus \p avg_string_bytes per STRING attribute;
  /// used for block capacity planning.
  size_t EstimatedRowWidth(size_t avg_string_bytes = 16) const;

  /// Serialises to a compact text form ("name:type,..."), the inverse of
  /// Parse(). Stored in every block's metadata header.
  std::string ToString() const;
  static Result<Schema> Parse(std::string_view text);

  bool operator==(const Schema& other) const {
    return fields_ == other.fields_ && delimiter_ == other.delimiter_;
  }

 private:
  std::vector<Field> fields_;
  char delimiter_ = ',';
};

/// \brief Days since 1970-01-01 from an ISO "YYYY-MM-DD" date, and back.
/// HAIL stores DATE attributes as int32 day numbers so they sort and
/// compare as integers.
Result<int32_t> ParseDateToDays(std::string_view iso_date);
std::string DaysToDateString(int32_t days);

}  // namespace hail
