// Read access to a preprocessed grid dataset.
//
// All reads flow through the owning Device, so traffic and modeled time are
// accounted. Two access paths mirror the paper's two I/O models:
//   * `LoadSubBlock` streams a whole sub-block (full I/O model);
//   * `OpenSubBlockReader` + the per-vertex index supports selective range
//     reads of active vertices' edge lists (on-demand I/O model). Adjacent
//     active ranges coalesce into single requests, which is what produces
//     the paper's S_seq vs S_ran split.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "compress/codec.hpp"
#include "graph/types.hpp"
#include "io/device.hpp"
#include "partition/manifest.hpp"
#include "util/buffer_pool.hpp"

namespace graphsd::partition {

/// An in-memory copy of one sub-block's payload, in buffers leased from the
/// device's pool (util/buffer_pool.hpp). Destroying the block returns them.
struct SubBlock {
  PooledArray<Edge> edges;
  PooledArray<Weight> weights;  // empty when unweighted or not requested

  /// On-disk bytes this block was loaded from (frame + weight file when
  /// compressed; equals SizeBytes() for raw datasets). Lets the
  /// SubBlockBuffer report saved I/O in both byte views.
  std::uint64_t disk_bytes = 0;

  /// Decoded in-memory footprint (what buffer capacity is charged).
  std::uint64_t SizeBytes() const noexcept {
    return edges.size() * sizeof(Edge) + weights.size() * sizeof(Weight);
  }
};

/// A sub-block mid-load: the bytes read from disk before decode. For raw
/// datasets `block` is already complete and `frame` stays empty; for
/// compressed datasets `frame` holds the undecoded GSDF frame, which decode
/// returns to the pool. Fetch and decode are separate steps so each caller
/// picks where decode runs: every streamed block decodes in BlockSource's
/// fetch unit, on a prefetch reader thread; only SCIU's compressed passes
/// and synchronous reloads decode on the consuming thread.
struct SubBlockPayload {
  SubBlock block;
  PooledArray<std::uint8_t> frame;
};

/// Cumulative decode-side counters of one dataset (monotonic across runs;
/// the engine reports per-run deltas).
struct DecodeStats {
  std::uint64_t frames_decoded = 0;
  std::uint64_t compressed_bytes = 0;  // on-disk frame bytes decoded
  std::uint64_t decoded_bytes = 0;     // raw edge bytes produced
  double decode_seconds = 0;
};

class GridDataset;

/// Ranged reader over one sub-block's source index. The on-demand I/O model
/// reads only the offset entries of active vertices (coalesced per run)
/// instead of streaming whole index files — this is what keeps the paper's
/// index term at O(|V|·N) rather than O(P·|V|).
class IndexReader {
 public:
  /// Reads `count` offset entries starting at local vertex `first_local`
  /// into `out` (overwriting).
  Status ReadOffsets(VertexId first_local, VertexId count,
                     std::vector<std::uint32_t>& out);

 private:
  friend class GridDataset;
  io::DeviceFile file_;
  std::uint64_t num_entries_ = 0;  // IntervalSize(i) + 1
};

/// Selective reader over one sub-block: issues accounted range reads against
/// the open edge/weight files. One reader per sub-block pass keeps the
/// device's sequential/random classification faithful.
class SubBlockReader {
 public:
  /// Reads `count` edges starting at edge `first` (indices within the
  /// sub-block) into `out`, appending. Weights follow when present and
  /// requested at open time.
  Status ReadRange(std::uint64_t first, std::uint64_t count,
                   std::vector<Edge>& edges_out, std::vector<Weight>* weights_out);

  /// Reads every `[first, end)` run (sub-block edge coordinates, ascending,
  /// non-overlapping) appending to `edges_out`/`weights_out` in run order,
  /// producing exactly what a ReadRange loop would. When the owning device
  /// enables read batching (`read_batch_gap_bytes > 0`), runs separated by
  /// at most that many edge-file bytes are fetched with one vectored
  /// request — the gap bytes land in scratch (and are accounted, they
  /// really crossed the bus); with batching off this IS the ReadRange loop,
  /// bit-identical in accounting.
  Status ReadRuns(std::span<const std::pair<std::uint64_t, std::uint64_t>> runs,
                  std::vector<Edge>& edges_out,
                  std::vector<Weight>* weights_out);

 private:
  friend class GridDataset;
  io::DeviceFile edges_;
  io::DeviceFile weights_;
  bool has_weights_ = false;
  std::uint64_t num_edges_ = 0;  // manifest EdgesIn(i, j), for bounds checks
  std::uint64_t batch_gap_bytes_ = 0;  // device read_batch_gap_bytes
  std::vector<std::uint8_t> gap_scratch_;  // discard target for merged gaps
};

class GridDataset {
 public:
  /// Opens the dataset in `dir`. Loads the manifest and the out-degree
  /// array (an accounted sequential read).
  static Result<GridDataset> Open(io::Device& device, const std::string& dir);

  const GridManifest& manifest() const noexcept { return manifest_; }
  const std::string& dir() const noexcept { return dir_; }
  io::Device& device() const noexcept { return *device_; }

  VertexId num_vertices() const noexcept { return manifest_.num_vertices; }
  std::uint64_t num_edges() const noexcept { return manifest_.num_edges; }
  bool weighted() const noexcept { return manifest_.weighted; }
  std::uint32_t p() const noexcept { return manifest_.p; }

  /// Out-degree of every vertex (loaded once at Open).
  std::span<const std::uint32_t> out_degrees() const noexcept {
    return degrees_;
  }

  /// True when edge payloads are stored as compressed frames.
  bool compressed() const noexcept { return codec_ != nullptr; }

  /// The dataset's negotiated edge codec name ("none" when raw).
  const std::string& codec_name() const noexcept { return manifest_.codec; }

  /// Streams the whole sub-block (i, j). `load_weights` additionally streams
  /// the weight file (the M+W vs M distinction of the cost model).
  /// Equivalent to FetchSubBlock + DecodeSubBlock.
  Result<SubBlock> LoadSubBlock(std::uint32_t i, std::uint32_t j,
                                bool load_weights) const;

  /// I/O half of LoadSubBlock: reads (and CRC-verifies) the sub-block's
  /// files straight into pooled buffers, leaving compressed frames
  /// undecoded. Safe to run on several reader threads at once; the only
  /// shared state touched is the device's thread-safe counters and pool.
  Result<SubBlockPayload> FetchSubBlock(std::uint32_t i, std::uint32_t j,
                                        bool load_weights) const;

  /// Compute half: decodes `payload.frame` (if any) into `payload.block`
  /// and returns the frame's buffer to the pool. No-op for raw datasets. A decoded edge
  /// count that disagrees with the manifest yields kCorruptData.
  Status DecodeSubBlock(std::uint32_t i, std::uint32_t j,
                        SubBlockPayload& payload) const;

  /// Snapshot of the cumulative decode counters.
  DecodeStats decode_stats() const noexcept;

  /// Loads the per-source-vertex CSR index of sub-block (i, j):
  /// IntervalSize(i)+1 offsets. Requires manifest().has_index.
  Result<PooledArray<std::uint32_t>> LoadIndex(std::uint32_t i,
                                               std::uint32_t j) const;

  /// Opens a selective reader for sub-block (i, j).
  Result<SubBlockReader> OpenSubBlockReader(std::uint32_t i, std::uint32_t j,
                                            bool with_weights) const;

  /// Opens a ranged reader over the index of sub-block (i, j).
  Result<IndexReader> OpenIndexReader(std::uint32_t i, std::uint32_t j) const;

  /// Decoded payload bytes of sub-block (i,j), counting weights when
  /// `with_weights`.
  std::uint64_t SubBlockBytes(std::uint32_t i, std::uint32_t j,
                              bool with_weights) const noexcept {
    const std::uint64_t per_edge =
        kEdgeBytes + (with_weights && weighted() ? kWeightBytes : 0);
    return manifest_.EdgesIn(i, j) * per_edge;
  }

  /// On-disk bytes a full load of sub-block (i,j) reads: the edge frame
  /// size when compressed (raw edge bytes otherwise) plus the raw weight
  /// file when `with_weights`. This is the byte count the scheduler charges
  /// for sequential sub-block streams.
  std::uint64_t SubBlockDiskBytes(std::uint32_t i, std::uint32_t j,
                                  bool with_weights) const {
    std::uint64_t bytes = manifest_.EdgeFileBytes(i, j);
    if (with_weights && weighted()) {
      bytes += manifest_.EdgesIn(i, j) * kWeightBytes;
    }
    return bytes;
  }

 private:
  // Decode counters live behind a shared_ptr: atomics are immovable and
  // GridDataset is returned by value from Open().
  struct AtomicDecodeStats {
    std::atomic<std::uint64_t> frames_decoded{0};
    std::atomic<std::uint64_t> compressed_bytes{0};
    std::atomic<std::uint64_t> decoded_bytes{0};
    std::atomic<std::uint64_t> decode_nanos{0};
  };

  io::Device* device_ = nullptr;
  std::string dir_;
  GridManifest manifest_;
  PooledArray<std::uint32_t> degrees_;
  const compress::Codec* codec_ = nullptr;  // null = raw "none" layout
  std::shared_ptr<AtomicDecodeStats> decode_stats_;
};

}  // namespace graphsd::partition
