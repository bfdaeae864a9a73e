#include "layout/pax_block.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>

namespace hail {

namespace {

/// Writes a string minipage: sparse offsets, one per partition of `part`
/// values, relative to the start of the value bytes ("we only store every
/// n-th offset", §3.5), then the NUL-terminated values.
void WriteVarlenBody(ByteWriter& w, const std::vector<std::string>& strs,
                     uint32_t n, uint32_t part) {
  const uint32_t num_offsets = n == 0 ? 0 : (n + part - 1) / part;
  w.PutU32(num_offsets);
  std::vector<uint64_t> offsets(num_offsets);
  uint64_t pos = 0;
  for (uint32_t r = 0; r < n; ++r) {
    if (r % part == 0) offsets[r / part] = pos;
    pos += strs[r].size() + 1;
  }
  for (uint64_t off : offsets) w.PutU64(off);
  w.PutU64(pos);  // total value bytes
  for (uint32_t r = 0; r < n; ++r) {
    w.PutBytes(strs[r]);
    w.PutU8(0);
  }
}

}  // namespace

PaxBlock::PaxBlock(Schema schema, BlockFormatOptions options)
    : schema_(std::move(schema)), options_(options) {
  columns_.reserve(static_cast<size_t>(schema_.num_fields()));
  for (int i = 0; i < schema_.num_fields(); ++i) {
    columns_.emplace_back(schema_.field(i).type);
  }
}

void PaxBlock::AppendRow(const std::vector<Value>& values) {
  assert(values.size() == columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].Append(values[i]);
  }
}

void PaxBlock::AppendBadRecord(std::string_view raw) {
  bad_records_.emplace_back(raw);
}

std::vector<Value> PaxBlock::GetRow(uint32_t row) const {
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const ColumnVector& col : columns_) {
    out.push_back(col.GetValue(row));
  }
  return out;
}

std::vector<uint32_t> PaxBlock::SortByColumn(int key_column) {
  std::vector<uint32_t> perm =
      ArgSortColumn(columns_[static_cast<size_t>(key_column)]);
  for (ColumnVector& col : columns_) {
    col.ApplyPermutation(perm);
  }
  return perm;
}

PaxBlock PaxBlock::PermutedCopy(const std::vector<uint32_t>& perm) const {
  PaxBlock out(schema_, options_);
  for (size_t i = 0; i < columns_.size(); ++i) {
    out.columns_[i] = columns_[i].PermutedCopy(perm);
  }
  out.bad_records_ = bad_records_;
  return out;
}

uint64_t PaxBlock::PayloadBytes() const {
  uint64_t bytes = 0;
  for (const ColumnVector& col : columns_) {
    bytes += col.SerializedValueBytes();
  }
  for (const std::string& bad : bad_records_) {
    bytes += bad.size();
  }
  return bytes;
}

uint64_t PaxBlock::FixedPayloadBytes() const {
  uint64_t bytes = 0;
  for (const ColumnVector& col : columns_) {
    if (IsFixedSize(col.type())) bytes += col.SerializedValueBytes();
  }
  return bytes;
}

uint64_t PaxBlock::VarlenPayloadBytes() const {
  uint64_t bytes = 0;
  for (const ColumnVector& col : columns_) {
    if (!IsFixedSize(col.type())) bytes += col.SerializedValueBytes();
  }
  return bytes;
}

std::string PaxBlock::Serialize() const {
  ByteWriter w;
  const uint32_t n = num_records();
  const int ncols = num_columns();

  w.PutU32(kPaxMagic);
  w.PutU8(kPaxLayoutPlain);
  w.PutLengthPrefixed(schema_.ToString());
  w.PutU32(n);
  w.PutU32(options_.varlen_partition_size);
  w.PutU32(static_cast<uint32_t>(bad_records_.size()));
  w.PutU32(static_cast<uint32_t>(ncols));
  // Back-patched directory: per column (type, offset, bytes); then the
  // bad-section offset.
  const size_t dir_pos = w.size();
  for (int i = 0; i < ncols; ++i) {
    w.PutU8(static_cast<uint8_t>(schema_.field(i).type));
    w.PutU64(0);  // minipage offset
    w.PutU64(0);  // minipage bytes
  }
  const size_t bad_off_pos = w.size();
  w.PutU64(0);

  std::vector<uint64_t> col_offsets(static_cast<size_t>(ncols));
  std::vector<uint64_t> col_bytes(static_cast<size_t>(ncols));

  const uint32_t part = options_.varlen_partition_size;
  for (int i = 0; i < ncols; ++i) {
    const ColumnVector& col = columns_[static_cast<size_t>(i)];
    // Align each minipage to 8 bytes so typed batch accessors read aligned
    // values whenever the enclosing buffer is itself aligned. The pad lives
    // between the recorded extents of adjacent minipages, so per-column
    // byte accounting is unchanged.
    while (w.size() % 8 != 0) w.PutU8(0);
    col_offsets[static_cast<size_t>(i)] = w.size();
    switch (col.type()) {
      case FieldType::kInt32:
      case FieldType::kDate:
        w.PutBytes(std::string_view(
            reinterpret_cast<const char*>(col.i32().data()),
            col.i32().size() * sizeof(int32_t)));
        break;
      case FieldType::kInt64:
        w.PutBytes(std::string_view(
            reinterpret_cast<const char*>(col.i64().data()),
            col.i64().size() * sizeof(int64_t)));
        break;
      case FieldType::kDouble:
        w.PutBytes(std::string_view(
            reinterpret_cast<const char*>(col.f64().data()),
            col.f64().size() * sizeof(double)));
        break;
      case FieldType::kString:
        WriteVarlenBody(w, col.str(), n, part);
        break;
    }
    col_bytes[static_cast<size_t>(i)] =
        w.size() - col_offsets[static_cast<size_t>(i)];
  }

  const uint64_t bad_offset = w.size();
  for (const std::string& bad : bad_records_) {
    w.PutLengthPrefixed(bad);
  }

  // Patch the directory.
  size_t cursor = dir_pos;
  for (int i = 0; i < ncols; ++i) {
    cursor += 1;  // type byte
    std::memcpy(w.buffer().data() + cursor, &col_offsets[static_cast<size_t>(i)],
                sizeof(uint64_t));
    cursor += 8;
    std::memcpy(w.buffer().data() + cursor, &col_bytes[static_cast<size_t>(i)],
                sizeof(uint64_t));
    cursor += 8;
  }
  std::memcpy(w.buffer().data() + bad_off_pos, &bad_offset, sizeof(uint64_t));

  return w.Take();
}

namespace {
std::atomic<uint64_t> g_pax_deserialize_count{0};
}  // namespace

uint64_t PaxBlock::deserialize_count() {
  return g_pax_deserialize_count.load(std::memory_order_relaxed);
}

Result<PaxBlock> PaxBlock::Deserialize(std::string_view data) {
  g_pax_deserialize_count.fetch_add(1, std::memory_order_relaxed);
  HAIL_ASSIGN_OR_RETURN(PaxBlockView view, PaxBlockView::Open(data));
  BlockFormatOptions options;
  options.varlen_partition_size = view.varlen_partition_size();
  PaxBlock block(view.schema(), options);
  const uint32_t n = view.num_records();
  // Bulk per-column decode: fixed-size minipages are one memcpy each,
  // string minipages one sequential pass — no per-row Value round trip.
  for (int c = 0; c < view.num_columns(); ++c) {
    ColumnVector& col = block.columns_[static_cast<size_t>(c)];
    switch (col.type()) {
      case FieldType::kInt32:
      case FieldType::kDate: {
        HAIL_ASSIGN_OR_RETURN(ColumnSpan<int32_t> span, view.Int32Span(c));
        std::vector<int32_t>& out = col.mutable_i32();
        out.resize(n);
        if (n > 0) std::memcpy(out.data(), span.raw_bytes(), n * sizeof(int32_t));
        break;
      }
      case FieldType::kInt64: {
        HAIL_ASSIGN_OR_RETURN(ColumnSpan<int64_t> span, view.Int64Span(c));
        std::vector<int64_t>& out = col.mutable_i64();
        out.resize(n);
        if (n > 0) std::memcpy(out.data(), span.raw_bytes(), n * sizeof(int64_t));
        break;
      }
      case FieldType::kDouble: {
        HAIL_ASSIGN_OR_RETURN(ColumnSpan<double> span, view.DoubleSpan(c));
        std::vector<double>& out = col.mutable_f64();
        out.resize(n);
        if (n > 0) std::memcpy(out.data(), span.raw_bytes(), n * sizeof(double));
        break;
      }
      case FieldType::kString: {
        HAIL_ASSIGN_OR_RETURN(VarlenCursor cursor, view.OpenVarlenCursor(c));
        std::vector<std::string>& out = col.mutable_str();
        out.reserve(n);
        for (uint32_t r = 0; r < n; ++r) {
          HAIL_ASSIGN_OR_RETURN(std::string_view s, cursor.Get(r));
          out.emplace_back(s);
        }
        break;
      }
    }
  }
  HAIL_ASSIGN_OR_RETURN(BadRecordCursor bad, view.OpenBadRecords());
  while (!bad.Done()) {
    HAIL_ASSIGN_OR_RETURN(std::string_view raw, bad.Next());
    block.AppendBadRecord(raw);
  }
  return block;
}

// ---------------------------------------------------------------------------
// PaxBlockView
// ---------------------------------------------------------------------------

Result<PaxBlockView> PaxBlockView::Open(std::string_view data) {
  PaxBlockView view;
  view.data_ = data;
  ByteReader r(data);
  HAIL_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kPaxMagic) {
    return Status::Corruption("not a PAX block (bad magic)");
  }
  HAIL_ASSIGN_OR_RETURN(uint8_t kind, r.GetU8());
  if (kind != kPaxLayoutPlain) {
    return Status::Corruption("unsupported layout kind");
  }
  HAIL_ASSIGN_OR_RETURN(std::string_view schema_text, r.GetLengthPrefixed());
  HAIL_ASSIGN_OR_RETURN(view.schema_, Schema::Parse(schema_text));
  HAIL_ASSIGN_OR_RETURN(view.num_records_, r.GetU32());
  HAIL_ASSIGN_OR_RETURN(view.varlen_partition_, r.GetU32());
  if (view.varlen_partition_ == 0) {
    return Status::Corruption("zero varlen partition size");
  }
  HAIL_ASSIGN_OR_RETURN(view.num_bad_records_, r.GetU32());
  HAIL_ASSIGN_OR_RETURN(uint32_t ncols, r.GetU32());
  if (ncols != static_cast<uint32_t>(view.schema_.num_fields())) {
    return Status::Corruption("column count does not match schema");
  }
  view.cols_.resize(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    ColumnInfo& ci = view.cols_[i];
    HAIL_ASSIGN_OR_RETURN(uint8_t type_byte, r.GetU8());
    HAIL_ASSIGN_OR_RETURN(ci.type, FieldTypeFromByte(type_byte));
    if (ci.type != view.schema_.field(static_cast<int>(i)).type) {
      return Status::Corruption("minipage type does not match schema");
    }
    HAIL_ASSIGN_OR_RETURN(ci.minipage_offset, r.GetU64());
    HAIL_ASSIGN_OR_RETURN(ci.minipage_bytes, r.GetU64());
    // Overflow-safe form of offset + bytes > size: a crafted directory
    // must not wrap past the bulk-decode memcpy bounds.
    if (ci.minipage_bytes > data.size() ||
        ci.minipage_offset > data.size() - ci.minipage_bytes) {
      return Status::Corruption("minipage out of bounds");
    }
    // Fixed minipages are bare value arrays sized directly from the
    // directory.
    if (IsFixedSize(ci.type) &&
        ci.minipage_bytes < static_cast<uint64_t>(view.num_records_) *
                                FieldTypeWidth(ci.type)) {
      return Status::Corruption("fixed minipage truncated");
    }
    ci.values_pos = ci.minipage_offset;
  }
  HAIL_ASSIGN_OR_RETURN(view.bad_section_offset_, r.GetU64());
  if (view.bad_section_offset_ > data.size()) {
    return Status::Corruption("bad-record section out of bounds");
  }
  // The bad-record tail is the final section and is written with no
  // trailing padding, so its length-prefixed entries must account for
  // every remaining byte. Walking it up front keeps a truncated buffer
  // from parsing as a shorter-but-valid block: the v1 HAIL container
  // derives the PAX extent from the buffer end, so without this check a
  // block missing its tail bytes would open (and scan) silently.
  ByteReader tail(data);
  HAIL_RETURN_NOT_OK(tail.SeekTo(view.bad_section_offset_));
  for (uint32_t i = 0; i < view.num_bad_records_; ++i) {
    HAIL_RETURN_NOT_OK(tail.GetLengthPrefixed().status());
  }
  if (tail.remaining() != 0) {
    return Status::Corruption("trailing bytes after bad-record section");
  }

  // Resolve varlen internals.
  for (uint32_t i = 0; i < ncols; ++i) {
    ColumnInfo& ci = view.cols_[i];
    if (ci.type != FieldType::kString) continue;
    ByteReader vr(data);
    HAIL_RETURN_NOT_OK(vr.SeekTo(ci.minipage_offset));
    HAIL_ASSIGN_OR_RETURN(ci.num_offsets, vr.GetU32());
    ci.offsets_pos = vr.position();
    HAIL_RETURN_NOT_OK(vr.SeekTo(ci.offsets_pos + 8ull * ci.num_offsets));
    HAIL_ASSIGN_OR_RETURN(ci.values_bytes, vr.GetU64());
    ci.values_pos = vr.position();  // <= data.size() by construction
    if (ci.values_bytes > data.size() - ci.values_pos) {
      return Status::Corruption("varlen values out of bounds");
    }
  }
  return view;
}

namespace {

template <typename T>
Result<ColumnSpan<T>> MakeFixedSpan(std::string_view data, uint64_t values_pos,
                                    uint32_t num_records, bool type_matches) {
  if (!type_matches) {
    return Status::InvalidArgument("typed span does not match column type");
  }
  return ColumnSpan<T>(data.data() + values_pos, num_records);
}

}  // namespace

Result<ColumnSpan<int32_t>> PaxBlockView::Int32Span(int column) const {
  const ColumnInfo& ci = cols_[static_cast<size_t>(column)];
  return MakeFixedSpan<int32_t>(
      data_, ci.values_pos, num_records_,
      ci.type == FieldType::kInt32 || ci.type == FieldType::kDate);
}

Result<ColumnSpan<int64_t>> PaxBlockView::Int64Span(int column) const {
  const ColumnInfo& ci = cols_[static_cast<size_t>(column)];
  return MakeFixedSpan<int64_t>(data_, ci.values_pos, num_records_,
                                ci.type == FieldType::kInt64);
}

Result<ColumnSpan<double>> PaxBlockView::DoubleSpan(int column) const {
  const ColumnInfo& ci = cols_[static_cast<size_t>(column)];
  return MakeFixedSpan<double>(data_, ci.values_pos, num_records_,
                               ci.type == FieldType::kDouble);
}

Result<VarlenCursor> PaxBlockView::OpenVarlenCursor(int column) const {
  const ColumnInfo& ci = cols_[static_cast<size_t>(column)];
  if (ci.type != FieldType::kString) {
    return Status::InvalidArgument("OpenVarlenCursor on fixed-size column");
  }
  VarlenCursor cursor;
  cursor.values_ = data_.data() + ci.values_pos;
  cursor.end_ = cursor.values_ + ci.values_bytes;
  cursor.offsets_ = data_.data() + ci.offsets_pos;
  cursor.num_offsets_ = ci.num_offsets;
  cursor.partition_size_ = varlen_partition_;
  cursor.num_records_ = num_records_;
  cursor.cursor_ = cursor.values_;
  return cursor;
}

Result<std::string_view> VarlenCursor::Get(uint32_t row) {
  if (row >= num_records_) return Status::OutOfRange("row out of range");
  const uint32_t partition = row / partition_size_;
  if (row < current_row_ || partition != current_row_ / partition_size_) {
    // Backward or cross-partition jump: re-seek via the sparse offset.
    if (partition >= num_offsets_) {
      return Status::Corruption("varlen partition offset missing");
    }
    uint64_t offset;
    std::memcpy(&offset, offsets_ + 8ull * partition, sizeof(offset));
    if (offset > static_cast<uint64_t>(end_ - values_)) {
      return Status::Corruption("varlen partition offset out of bounds");
    }
    cursor_ = values_ + offset;
    current_row_ = partition * partition_size_;
    ++partition_seeks_;
  }
  while (current_row_ < row) {
    // Skip one zero-terminated value.
    while (cursor_ < end_ && *cursor_ != '\0') ++cursor_;
    if (cursor_ >= end_) return Status::Corruption("varlen scan out of bounds");
    ++cursor_;  // NUL
    ++current_row_;
    ++decode_steps_;
  }
  const char* value_start = cursor_;
  while (cursor_ < end_ && *cursor_ != '\0') ++cursor_;
  if (cursor_ >= end_) {
    // Well-formed minipages NUL-terminate every value, including the last;
    // running off the end is corruption, same as in the skip loop above.
    return Status::Corruption("varlen value not terminated");
  }
  std::string_view out(value_start,
                       static_cast<size_t>(cursor_ - value_start));
  ++cursor_;  // NUL
  ++current_row_;
  ++decode_steps_;
  return out;
}

Result<BadRecordCursor> PaxBlockView::OpenBadRecords() const {
  // bad_section_offset_ was bounds-checked in Open().
  return BadRecordCursor(data_.substr(bad_section_offset_), num_bad_records_);
}

Result<std::string_view> BadRecordCursor::Next() {
  if (remaining_ == 0) return Status::OutOfRange("no bad records left");
  --remaining_;
  return reader_.GetLengthPrefixed();
}

Result<Value> PaxBlockView::GetFixedValue(int column, uint32_t row) const {
  const ColumnInfo& ci = cols_[static_cast<size_t>(column)];
  if (row >= num_records_) return Status::OutOfRange("row out of range");
  if (ci.type == FieldType::kString) {
    return Status::InvalidArgument("GetFixedValue on string column");
  }
  const char* base = data_.data() + ci.values_pos;
  switch (ci.type) {
    case FieldType::kInt32:
    case FieldType::kDate: {
      int32_t v;
      std::memcpy(&v, base + row * sizeof(int32_t), sizeof(v));
      return Value(v);
    }
    case FieldType::kInt64: {
      int64_t v;
      std::memcpy(&v, base + row * sizeof(int64_t), sizeof(v));
      return Value(v);
    }
    case FieldType::kDouble: {
      double v;
      std::memcpy(&v, base + row * sizeof(double), sizeof(v));
      return Value(v);
    }
    case FieldType::kString:
      return Status::InvalidArgument("GetFixedValue on string column");
  }
  return Status::Corruption("unknown column type");
}

Result<std::string_view> PaxBlockView::GetString(int column,
                                                 uint32_t row) const {
  // §3.5: "we scan the partition floor(rowID / n) entirely from disk...
  // then, in main memory we post-filter the partition". A throwaway
  // cursor performs exactly that — one partition-offset seek plus a
  // forward scan — so the varlen decode exists in one place.
  HAIL_ASSIGN_OR_RETURN(VarlenCursor cursor, OpenVarlenCursor(column));
  return cursor.Get(row);
}

Result<Value> PaxBlockView::GetAnyValue(int column, uint32_t row) const {
  const ColumnInfo& ci = cols_[static_cast<size_t>(column)];
  if (ci.type == FieldType::kString) {
    HAIL_ASSIGN_OR_RETURN(std::string_view s, GetString(column, row));
    return Value(std::string(s));
  }
  return GetFixedValue(column, row);
}

Result<std::vector<Value>> PaxBlockView::GetRow(uint32_t row) const {
  std::vector<Value> out;
  out.reserve(cols_.size());
  for (int i = 0; i < num_columns(); ++i) {
    HAIL_ASSIGN_OR_RETURN(Value v, GetAnyValue(i, row));
    out.push_back(std::move(v));
  }
  return out;
}

Result<std::string_view> PaxBlockView::GetBadRecord(uint32_t i) const {
  if (i >= num_bad_records_) return Status::OutOfRange("bad record index");
  ByteReader r(data_);
  HAIL_RETURN_NOT_OK(r.SeekTo(bad_section_offset_));
  for (uint32_t k = 0; k < i; ++k) {
    HAIL_ASSIGN_OR_RETURN(std::string_view skip, r.GetLengthPrefixed());
    (void)skip;
  }
  return r.GetLengthPrefixed();
}

uint64_t PaxBlockView::EstimateColumnReadBytes(int column,
                                               uint64_t rows_touched) const {
  const ColumnInfo& ci = cols_[static_cast<size_t>(column)];
  if (num_records_ == 0 || rows_touched == 0) return 0;
  if (rows_touched >= num_records_) return ci.minipage_bytes;
  // Partition-granular: assume each touched row costs one partition read,
  // capped at the full minipage.
  const uint32_t partitions =
      (num_records_ + varlen_partition_ - 1) / varlen_partition_;
  const uint64_t partition_bytes = ci.minipage_bytes / partitions;
  const uint64_t cost = rows_touched * partition_bytes;
  return cost > ci.minipage_bytes ? ci.minipage_bytes : cost;
}

PaxBlock BuildPaxBlockFromText(const Schema& schema, std::string_view text,
                               BlockFormatOptions options) {
  PaxBlock block(schema, options);
  // Size the typed columns once from the average row width instead of
  // growing them row by row.
  const size_t estimated_rows =
      text.size() / std::max<size_t>(1, schema.EstimatedRowWidth());
  for (ColumnVector& col : block.mutable_columns()) {
    col.Reserve(estimated_rows);
  }
  ColumnarAppender appender(block.schema(), &block.mutable_columns());
  // Walk newline-terminated rows in place (same row semantics as
  // SplitRows, without materialising the row list).
  size_t start = 0;
  while (start < text.size()) {
    size_t pos = text.find('\n', start);
    if (pos == std::string_view::npos) pos = text.size();
    const std::string_view row = text.substr(start, pos - start);
    start = pos + 1;
    if (row.empty()) continue;
    if (!appender.AppendRow(row)) {
      block.AppendBadRecord(row);
    }
  }
  return block;
}

}  // namespace hail
