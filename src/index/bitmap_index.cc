#include "index/bitmap_index.h"

#include <algorithm>
#include <cstring>

#include "util/io.h"

namespace hail {

namespace {
constexpr uint32_t kBitmapMagic = 0x504D4248;  // "HBMP"

void SetBit(std::vector<uint64_t>* words, uint32_t row) {
  const size_t word = row / 64;
  if (words->size() <= word) words->resize(word + 1, 0);
  (*words)[word] |= (1ull << (row % 64));
}

void AppendSetBits(const std::vector<uint64_t>& words, uint32_t num_records,
                   std::vector<uint32_t>* out) {
  for (size_t w = 0; w < words.size(); ++w) {
    uint64_t bits = words[w];
    while (bits != 0) {
      const int bit = __builtin_ctzll(bits);
      const uint32_t row = static_cast<uint32_t>(w * 64 + bit);
      if (row < num_records) out->push_back(row);
      bits &= bits - 1;
    }
  }
}

uint64_t DoubleKeyBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}
}  // namespace

const BitmapIndex::Bits* BitmapIndex::Find(const Value& v) const {
  if (v.is_string()) {
    auto it = string_bitmaps_.find(std::string_view(v.as_string()));
    return it == string_bitmaps_.end() ? nullptr : &it->second;
  }
  if (v.is_double()) {
    auto it = double_bitmaps_.find(v.as_double());
    return it == double_bitmaps_.end() ? nullptr : &it->second;
  }
  const int64_t key = v.is_int64() ? v.as_int64() : v.as_int32();
  auto it = int_bitmaps_.find(key);
  return it == int_bitmaps_.end() ? nullptr : &it->second;
}

BitmapIndex BitmapIndex::Build(const ColumnVector& values) {
  BitmapIndex index;
  index.num_records_ = static_cast<uint32_t>(values.size());
  index.type_ = values.type();
  // Typed build: iterate the column's native storage, no Value boxing and
  // no per-row text rendering.
  switch (values.type()) {
    case FieldType::kInt32:
    case FieldType::kDate: {
      const auto& v = values.i32();
      for (uint32_t r = 0; r < index.num_records_; ++r) {
        SetBit(&index.int_bitmaps_[v[r]], r);
      }
      break;
    }
    case FieldType::kInt64: {
      const auto& v = values.i64();
      for (uint32_t r = 0; r < index.num_records_; ++r) {
        SetBit(&index.int_bitmaps_[v[r]], r);
      }
      break;
    }
    case FieldType::kDouble: {
      const auto& v = values.f64();
      for (uint32_t r = 0; r < index.num_records_; ++r) {
        SetBit(&index.double_bitmaps_[v[r]], r);
      }
      break;
    }
    case FieldType::kString: {
      const auto& v = values.str();
      for (uint32_t r = 0; r < index.num_records_; ++r) {
        SetBit(&index.string_bitmaps_[v[r]], r);
      }
      break;
    }
  }
  return index;
}

std::vector<uint32_t> BitmapIndex::Lookup(const Value& v) const {
  std::vector<uint32_t> out;
  const Bits* bits = Find(v);
  if (bits != nullptr) AppendSetBits(*bits, num_records_, &out);
  return out;
}

std::vector<uint32_t> BitmapIndex::LookupAny(
    const std::vector<Value>& values) const {
  // OR the bitsets, then enumerate once (the classic bitmap win).
  std::vector<uint64_t> merged;
  for (const Value& v : values) {
    const Bits* bits = Find(v);
    if (bits == nullptr) continue;
    if (merged.size() < bits->size()) merged.resize(bits->size(), 0);
    for (size_t w = 0; w < bits->size(); ++w) merged[w] |= (*bits)[w];
  }
  std::vector<uint32_t> out;
  AppendSetBits(merged, num_records_, &out);
  return out;
}

uint64_t BitmapIndex::Count(const Value& v) const {
  const Bits* bits = Find(v);
  if (bits == nullptr) return 0;
  uint64_t count = 0;
  for (uint64_t word : *bits) count += __builtin_popcountll(word);
  return count;
}

std::string BitmapIndex::Serialize() const {
  // Typed wire format (v2): int64 and double keys as fixed 8-byte values,
  // string keys length-prefixed — mirroring the in-memory keying.
  ByteWriter w;
  w.PutU32(kBitmapMagic);
  w.PutU8(static_cast<uint8_t>(type_));
  w.PutU32(num_records_);
  w.PutU32(static_cast<uint32_t>(cardinality()));
  auto put_words = [&w](const Bits& words) {
    w.PutU32(static_cast<uint32_t>(words.size()));
    for (uint64_t word : words) w.PutU64(word);
  };
  for (const auto& [key, words] : int_bitmaps_) {
    w.PutU64(static_cast<uint64_t>(key));
    put_words(words);
  }
  for (const auto& [key, words] : double_bitmaps_) {
    w.PutU64(DoubleKeyBits(key));
    put_words(words);
  }
  for (const auto& [key, words] : string_bitmaps_) {
    w.PutLengthPrefixed(key);
    put_words(words);
  }
  return w.Take();
}

Result<BitmapIndex> BitmapIndex::Deserialize(std::string_view data) {
  ByteReader r(data);
  HAIL_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kBitmapMagic) return Status::Corruption("not a bitmap index");
  BitmapIndex index;
  HAIL_ASSIGN_OR_RETURN(uint8_t type_byte, r.GetU8());
  HAIL_ASSIGN_OR_RETURN(index.type_, FieldTypeFromByte(type_byte));
  HAIL_ASSIGN_OR_RETURN(index.num_records_, r.GetU32());
  // Each bitmap is a key (u64, or a length-prefixed string) plus a u32
  // word count.
  const size_t min_key_bytes = index.type_ == FieldType::kString ? 4 : 8;
  HAIL_ASSIGN_OR_RETURN(uint32_t cardinality, r.GetCount(min_key_bytes + 4));
  for (uint32_t i = 0; i < cardinality; ++i) {
    Bits* slot = nullptr;
    switch (index.type_) {
      case FieldType::kInt32:
      case FieldType::kDate:
      case FieldType::kInt64: {
        HAIL_ASSIGN_OR_RETURN(uint64_t key, r.GetU64());
        slot = &index.int_bitmaps_[static_cast<int64_t>(key)];
        break;
      }
      case FieldType::kDouble: {
        HAIL_ASSIGN_OR_RETURN(uint64_t key, r.GetU64());
        slot = &index.double_bitmaps_[DoubleFromBits(key)];
        break;
      }
      case FieldType::kString: {
        HAIL_ASSIGN_OR_RETURN(std::string_view key, r.GetLengthPrefixed());
        slot = &index.string_bitmaps_[std::string(key)];
        break;
      }
    }
    HAIL_ASSIGN_OR_RETURN(uint32_t num_words, r.GetCount(8));
    Bits words;
    words.reserve(num_words);
    for (uint32_t w = 0; w < num_words; ++w) {
      HAIL_ASSIGN_OR_RETURN(uint64_t word, r.GetU64());
      words.push_back(word);
    }
    *slot = std::move(words);
  }
  return index;
}

uint64_t BitmapIndex::SerializedBytes() const {
  uint64_t bytes = 4 + 1 + 4 + 4;
  for (const auto& [key, words] : int_bitmaps_) {
    (void)key;
    bytes += 8 + 4 + 8ull * words.size();
  }
  for (const auto& [key, words] : double_bitmaps_) {
    (void)key;
    bytes += 8 + 4 + 8ull * words.size();
  }
  for (const auto& [key, words] : string_bitmaps_) {
    bytes += 4 + key.size() + 4 + 8ull * words.size();
  }
  return bytes;
}

}  // namespace hail
