/// \file corruption_property_test.cc
/// \brief Corrupted bytes never crash and never silently succeed.
///
/// Serialised PaxBlock / HAIL block bytes are truncated at every length
/// (covering every section boundary +- 1) and bit-flipped at a stride:
/// the deserialisers must surface a clean error — under ASan/UBSan this
/// also proves no out-of-bounds read hides behind any malformed input.
/// A structural parse MAY survive a payload bit flip (the bytes are still
/// a well-formed block); the end-to-end guarantee that NO flip is ever
/// silently served comes from the datanode CRC path, asserted for every
/// flip offset against stored checksums.
///
/// The index and block-stats parsers get a table of hostile inputs: a
/// forged element count, a field-type byte outside the enum, and every
/// truncation of a real serialisation. Each must return an error without
/// throwing (a forged count used to size an allocation or a loop). The
/// PAX header gets its own table: a column-directory type byte outside
/// the enum, one that disagrees with the schema, and an unknown layout
/// kind.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "hail/hail_block.h"
#include "hdfs/dfs_client.h"
#include "hdfs/packet.h"
#include "index/bitmap_index.h"
#include "index/clustered_index.h"
#include "index/trojan_index.h"
#include "index/unclustered_index.h"
#include "layout/pax_block.h"
#include "planner/block_stats.h"
#include "util/random.h"

namespace hail {
namespace {

/// A small mixed-type block with bad records, so every section of the
/// serialised layout (header, fixed/varlen minipages, bad-record tail)
/// is present and non-trivial.
PaxBlock MakeBlock(uint64_t seed) {
  Schema schema({Field{"ip", FieldType::kString},
                 Field{"date", FieldType::kDate},
                 Field{"revenue", FieldType::kDouble},
                 Field{"duration", FieldType::kInt32}});
  BlockFormatOptions options;
  options.varlen_partition_size = 8;
  PaxBlock block(schema, options);
  Random rng(seed);
  static const char* kIps[] = {"10.0.0.1", "10.0.0.2", "172.16.9.8",
                               "192.168.1.77"};
  const int rows = 40 + static_cast<int>(rng.Uniform(60));
  double run_rev = 0.0;
  for (int r = 0; r < rows; ++r) {
    if (r % 9 == 0) run_rev = rng.NextDouble() * 100.0;
    block.AppendRow(
        {Value(std::string(kIps[rng.Uniform(4)])),
         Value(static_cast<int32_t>(rng.UniformRange(15000, 15400))),
         Value(run_rev),
         Value(static_cast<int32_t>(
             rng.UniformRange(-1000000000, 1000000000)))});
    if (rng.Uniform(16) == 0) block.AppendBadRecord("not|a|row");
  }
  return block;
}

std::string SerializeHail(const PaxBlock& unsorted, int sort_column) {
  PaxBlock sorted = unsorted;
  sorted.SortByColumn(sort_column);
  const ClusteredIndex index =
      ClusteredIndex::Build(sorted.column(sort_column), 8);
  return BuildHailBlock(sorted, &index, sort_column);
}

/// Opens a HAIL block and touches every section, as the readers do.
Status OpenHailDeep(std::string_view bytes) {
  HAIL_ASSIGN_OR_RETURN(HailBlockView view, HailBlockView::Open(bytes));
  if (view.has_index()) {
    HAIL_RETURN_NOT_OK(view.ReadIndex().status());
  }
  if (view.has_unclustered()) {
    HAIL_RETURN_NOT_OK(view.ReadUnclusteredIndex().status());
  }
  HAIL_ASSIGN_OR_RETURN(PaxBlockView pax, view.OpenPax());
  // Decode one row end-to-end so minipage directories are actually used.
  if (pax.num_records() > 0) {
    HAIL_RETURN_NOT_OK(pax.GetRow(pax.num_records() - 1).status());
  }
  return Status::OK();
}

class CorruptionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorruptionPropertyTest, TruncatedPaxBlockAlwaysErrors) {
  const std::string bytes = MakeBlock(GetParam()).Serialize();
  ASSERT_TRUE(PaxBlock::Deserialize(bytes).ok());
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto r = PaxBlock::Deserialize(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(r.ok()) << "silent success at truncation length " << len
                         << " of " << bytes.size();
  }
}

TEST_P(CorruptionPropertyTest, TruncatedHailBlockAlwaysErrors) {
  const std::string bytes = SerializeHail(MakeBlock(GetParam()), 1);
  ASSERT_TRUE(OpenHailDeep(bytes).ok());
  // Every length covers every section boundary (header/index/pax) +- 1.
  for (size_t len = 0; len < bytes.size(); ++len) {
    const Status st = OpenHailDeep(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(st.ok()) << "silent success at truncation length " << len
                          << " of " << bytes.size();
  }
}

TEST_P(CorruptionPropertyTest, BitFlippedBlocksNeverCrash) {
  const PaxBlock block = MakeBlock(GetParam());
  const std::string pax_bytes = block.Serialize();
  const std::string hail_bytes = SerializeHail(block, /*sort_column=*/3);
  // A flipped structural field must surface an error; a flipped payload
  // byte may still parse (the CRC layer owns that case, below). Either
  // way: no crash, no out-of-bounds access — which ASan/UBSan verify
  // across every offset here.
  for (size_t i = 0; i < pax_bytes.size(); ++i) {
    std::string mutated = pax_bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
    (void)PaxBlock::Deserialize(mutated);
  }
  for (size_t i = 0; i < hail_bytes.size(); ++i) {
    std::string mutated = hail_bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
    (void)OpenHailDeep(mutated);
  }
}

TEST_P(CorruptionPropertyTest, EveryStoredBitFlipFailsCrcVerification) {
  // End-to-end "no silent success": any at-rest flip of a stored replica
  // is caught by chunk checksum verification before a reader ever sees
  // the bytes, whatever the offset.
  sim::ClusterConfig cc;
  cc.num_nodes = 1;
  sim::SimCluster cluster(cc);
  hdfs::MiniDfs dfs(&cluster, hdfs::DfsConfig{});
  hdfs::Datanode& dn = dfs.datanode(0);
  uint64_t next_id = 1;
  const std::string bytes = SerializeHail(MakeBlock(GetParam()), 1);
  const uint32_t chunk = 512;
  const std::vector<uint32_t> crcs = hdfs::ComputeChunkChecksums(bytes, chunk);

  const uint64_t clean_id = next_id++;
  dn.StoreBlock(clean_id, bytes, crcs);
  ASSERT_TRUE(dn.ReadBlockVerified(clean_id, chunk).ok());

  for (size_t i = 0; i < bytes.size(); i += 13) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    const uint64_t id = next_id++;
    dn.StoreBlock(id, mutated, crcs);
    const Status st = dn.ReadBlockVerified(id, chunk).status();
    EXPECT_TRUE(st.IsCorruption())
        << "flip at offset " << i << " not caught: " << st.ToString();
  }

  // Truncated-at-rest replicas fail verification (chunk count drift).
  for (size_t len : {bytes.size() - 1, bytes.size() / 2, size_t{1}}) {
    const uint64_t id = next_id++;
    dn.StoreBlock(id, bytes.substr(0, len), crcs);
    EXPECT_TRUE(dn.ReadBlockVerified(id, chunk).status().IsCorruption())
        << "truncation to " << len << " not caught";
  }
}

TEST_P(CorruptionPropertyTest, HostilePaxHeaderReturnsErrorsWithoutThrowing) {
  const PaxBlock block = MakeBlock(GetParam());
  const std::string bytes = block.Serialize();
  ASSERT_TRUE(PaxBlockView::Open(bytes).ok());
  // Header: u32 magic, layout-kind byte, length-prefixed schema text, four
  // u32 counts, then the column directory (type byte, two u64 each).
  const size_t kind_offset = 4;
  const size_t dir_offset = kind_offset + 1 + 4 +
                            block.schema().ToString().size() + 4 * 4;
  ASSERT_EQ(block.schema().field(0).type, FieldType::kString);
  struct HostileHeader {
    const char* name;
    size_t offset;
    uint8_t value;
  };
  const HostileHeader cases[] = {
      {"directory type byte outside the enum", dir_offset, 9},
      {"string column marked int64", dir_offset,
       static_cast<uint8_t>(FieldType::kInt64)},
      {"layout kind 3 (retired encoded minipages)", kind_offset, 3},
  };
  for (const HostileHeader& c : cases) {
    SCOPED_TRACE(c.name);
    std::string hostile = bytes;
    hostile[c.offset] = static_cast<char>(c.value);
    Status open;
    Status decode;
    EXPECT_NO_THROW(open = PaxBlockView::Open(hostile).status());
    EXPECT_NO_THROW(decode = PaxBlock::Deserialize(hostile).status());
    EXPECT_TRUE(open.IsCorruption()) << open.ToString();
    EXPECT_TRUE(decode.IsCorruption()) << decode.ToString();
  }
}

/// One serialised index format: real bytes, the offsets of its u32
/// element counts and of its field-type byte, and its parser.
struct ParserCase {
  const char* name;
  std::string bytes;
  std::vector<size_t> count_offsets;
  size_t type_offset;
  std::function<Status(std::string_view)> parse;
};

std::vector<ParserCase> ParserCases(uint64_t seed) {
  PaxBlock block = MakeBlock(seed);
  const PaxBlock unsorted = block;
  block.SortByColumn(1);
  const ColumnVector& dates = block.column(1);
  std::vector<uint64_t> row_offsets(dates.size());
  for (size_t r = 0; r < row_offsets.size(); ++r) row_offsets[r] = 16 * r;
  // Offsets follow each Serialize(): a u32 magic, then the type byte.
  return {
      {"clustered", ClusteredIndex::Build(dates, 8).Serialize(), {13}, 4,
       [](std::string_view b) { return ClusteredIndex::Deserialize(b).status(); }},
      {"unclustered",
       UnclusteredIndex::Build(unsorted.column(0)).Serialize(), {5}, 4,
       [](std::string_view b) {
         return UnclusteredIndex::Deserialize(b).status();
       }},
      {"trojan",
       TrojanIndex::Build(dates, row_offsets, 16 * row_offsets.size())
           .Serialize(),
       {21}, 4,
       [](std::string_view b) { return TrojanIndex::Deserialize(b).status(); }},
      // Date keys serialise as u64, so the first bitmap's word count sits
      // at a fixed offset after the cardinality.
      {"bitmap", BitmapIndex::Build(unsorted.column(1)).Serialize(), {9, 21},
       4,
       [](std::string_view b) { return BitmapIndex::Deserialize(b).status(); }},
      {"block_stats", planner::BlockStats::Build(unsorted).Serialize(), {13},
       17,
       [](std::string_view b) {
         return planner::BlockStats::Deserialize(b).status();
       }},
  };
}

std::string WithU32(std::string bytes, size_t offset, uint32_t value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
  return bytes;
}

TEST_P(CorruptionPropertyTest, HostileIndexBytesReturnErrorsWithoutThrowing) {
  for (const ParserCase& c : ParserCases(GetParam())) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(c.parse(c.bytes).ok());
    std::vector<std::string> hostile;
    for (size_t offset : c.count_offsets) {
      // A forged count, alone in a short header and inside real bytes.
      hostile.push_back(WithU32(c.bytes.substr(0, offset + 4), offset,
                                0xFFFFFFFFu));
      hostile.push_back(WithU32(c.bytes, offset, 0xFFFFFFFFu));
    }
    const size_t n = hostile.size();
    for (size_t i = 0; i < n; ++i) {
      hostile.push_back(hostile[i]);
      hostile.back()[c.type_offset] = 9;  // no such FieldType
    }
    std::string bad_type = c.bytes;
    bad_type[c.type_offset] = 9;
    hostile.push_back(bad_type);
    for (size_t len = 0; len < c.bytes.size(); ++len) {
      hostile.push_back(c.bytes.substr(0, len));
    }
    for (size_t i = 0; i < hostile.size(); ++i) {
      Status st;
      EXPECT_NO_THROW(st = c.parse(hostile[i])) << "input " << i;
      EXPECT_FALSE(st.ok()) << "silent success on input " << i << " ("
                            << hostile[i].size() << " bytes)";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionPropertyTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace hail
