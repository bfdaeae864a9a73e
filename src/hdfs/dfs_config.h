/// \file dfs_config.h
/// \brief Tunables of the simulated HDFS instance.
///
/// `block_size` is the number of *real* bytes a block carries in this
/// process; `scale_factor` maps those to the logical (paper-scale) bytes
/// the cost model bills. With block_size = 64 KB and scale_factor = 1024,
/// each block represents the paper's default 64 MB HDFS block.

#pragma once

#include <cstdint>

#include "layout/pax_block.h"

namespace hail {
namespace hdfs {

struct DfsConfig {
  /// Real content bytes per HDFS block.
  uint64_t block_size = 64 * 1024;

  /// Replication factor (paper default: 3).
  int replication = 3;

  /// Real-to-logical multiplier for cost accounting (see DESIGN.md §2).
  double scale_factor = 1024.0;

  /// Checksum chunk size on the real byte stream (HDFS uses 512 B).
  uint32_t chunk_bytes = 512;

  /// Packet payload size on the real byte stream (HDFS uses 64 KB of
  /// chunks per packet; scaled down with the data).
  uint32_t packet_bytes = 16 * 1024;

  /// Physical layout options for PAX blocks built by the HAIL client.
  BlockFormatOptions format;
};

}  // namespace hdfs
}  // namespace hail
