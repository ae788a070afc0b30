#include "partition/grid_dataset.hpp"

#include <algorithm>
#include <optional>

#include "compress/frame.hpp"
#include "util/clock.hpp"
#include "util/crc32c.hpp"

namespace graphsd::partition {
namespace {

template <typename T>
std::span<std::uint8_t> AsWritableBytes(std::vector<T>& v) {
  return {reinterpret_cast<std::uint8_t*>(v.data()), v.size() * sizeof(T)};
}

// Compares a freshly loaded payload against its build-time CRC, counting the
// mismatch in the device's stats so end-of-run reports surface it.
Status VerifyCrc(io::Device& device, const std::string& path,
                 std::span<const std::uint8_t> data, std::uint32_t expected) {
  const std::uint32_t actual = Crc32c(data);
  if (actual == expected) return Status::Ok();
  device.stats().RecordChecksumFailure();
  return CorruptDataError(path + ": CRC32C mismatch (stored " +
                          std::to_string(expected) + ", computed " +
                          std::to_string(actual) + ")");
}

// Reads the whole file at `path` into `out` (sized by the caller from the
// manifest) straight from offset 0, then checks `crc` when the dataset
// records checksums.
template <typename T>
Status ReadVerified(io::Device& device, const std::string& path,
                    PooledArray<T>& out, std::optional<std::uint32_t> crc) {
  GRAPHSD_ASSIGN_OR_RETURN(io::DeviceFile file,
                           device.Open(path, io::OpenMode::kRead));
  GRAPHSD_RETURN_IF_ERROR(
      file.ReadPadded(0, out.size_bytes(), out.padded_bytes()));
  if (!crc.has_value()) return Status::Ok();
  return VerifyCrc(device, path, out.bytes(), *crc);
}

}  // namespace

Status SubBlockReader::ReadRange(std::uint64_t first, std::uint64_t count,
                                 std::vector<Edge>& edges_out,
                                 std::vector<Weight>* weights_out) {
  if (count == 0) return Status::Ok();
  if (first > num_edges_ || count > num_edges_ - first) {
    return CorruptDataError(
        edges_.path() + ": range read [" + std::to_string(first) + ", " +
        std::to_string(first + count) + ") outside sub-block of " +
        std::to_string(num_edges_) + " edges (corrupt index?)");
  }
  const std::size_t edge_base = edges_out.size();
  edges_out.resize(edge_base + count);
  GRAPHSD_RETURN_IF_ERROR(edges_.ReadAt(
      first * sizeof(Edge),
      {reinterpret_cast<std::uint8_t*>(edges_out.data() + edge_base),
       count * sizeof(Edge)}));
  if (has_weights_ && weights_out != nullptr) {
    const std::size_t weight_base = weights_out->size();
    weights_out->resize(weight_base + count);
    GRAPHSD_RETURN_IF_ERROR(weights_.ReadAt(
        first * sizeof(Weight),
        {reinterpret_cast<std::uint8_t*>(weights_out->data() + weight_base),
         count * sizeof(Weight)}));
  }
  return Status::Ok();
}

Status SubBlockReader::ReadRuns(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> runs,
    std::vector<Edge>& edges_out, std::vector<Weight>* weights_out) {
  // Validate the whole script up front so the batched path cannot discover
  // a corrupt run after earlier runs already landed in the output arrays.
  std::uint64_t prev_end = 0;
  for (const auto& [first, end] : runs) {
    if (end < first || first < prev_end || end > num_edges_) {
      return CorruptDataError(
          edges_.path() + ": run read [" + std::to_string(first) + ", " +
          std::to_string(end) + ") not ascending within sub-block of " +
          std::to_string(num_edges_) + " edges (corrupt index?)");
    }
    prev_end = end;
  }
  if (batch_gap_bytes_ == 0) {
    for (const auto& [first, end] : runs) {
      GRAPHSD_RETURN_IF_ERROR(
          ReadRange(first, end - first, edges_out, weights_out));
    }
    return Status::Ok();
  }
  const bool read_weights = has_weights_ && weights_out != nullptr;
  std::vector<std::span<std::uint8_t>> bufs;  // reused per batch
  std::size_t g = 0;
  while (g < runs.size()) {
    // Grow the batch while the file gap to the next run stays within the
    // device's merge budget.
    std::size_t h = g + 1;
    std::uint64_t max_gap_edges = 0;
    std::uint64_t batch_edges = runs[g].second - runs[g].first;
    while (h < runs.size()) {
      const std::uint64_t gap = runs[h].first - runs[h - 1].second;
      if (gap * sizeof(Edge) > batch_gap_bytes_) break;
      max_gap_edges = std::max(max_gap_edges, gap);
      batch_edges += runs[h].second - runs[h].first;
      ++h;
    }
    if (h == g + 1) {
      GRAPHSD_RETURN_IF_ERROR(ReadRange(runs[g].first,
                                        runs[g].second - runs[g].first,
                                        edges_out, weights_out));
      g = h;
      continue;
    }
    // One vectored request per file: run destinations interleaved with a
    // shared gap-scratch span (each gap is filled then overwritten — the
    // bytes are discarded either way). Edge is the wider record, so one
    // scratch sizing covers the weight file too.
    gap_scratch_.resize(
        static_cast<std::size_t>(max_gap_edges * sizeof(Edge)));
    const std::size_t edge_base = edges_out.size();
    edges_out.resize(edge_base + batch_edges);
    bufs.clear();
    std::size_t out_pos = edge_base;
    for (std::size_t k = g; k < h; ++k) {
      if (k > g) {
        const std::uint64_t gap = runs[k].first - runs[k - 1].second;
        if (gap > 0) {
          bufs.emplace_back(gap_scratch_.data(), gap * sizeof(Edge));
        }
      }
      const std::uint64_t count = runs[k].second - runs[k].first;
      bufs.emplace_back(reinterpret_cast<std::uint8_t*>(edges_out.data() +
                                                        out_pos),
                        count * sizeof(Edge));
      out_pos += count;
    }
    GRAPHSD_RETURN_IF_ERROR(
        edges_.ReadVAt(runs[g].first * sizeof(Edge), bufs));
    if (read_weights) {
      const std::size_t weight_base = weights_out->size();
      weights_out->resize(weight_base + batch_edges);
      bufs.clear();
      std::size_t w_pos = weight_base;
      for (std::size_t k = g; k < h; ++k) {
        if (k > g) {
          const std::uint64_t gap = runs[k].first - runs[k - 1].second;
          if (gap > 0) {
            bufs.emplace_back(gap_scratch_.data(), gap * sizeof(Weight));
          }
        }
        const std::uint64_t count = runs[k].second - runs[k].first;
        bufs.emplace_back(
            reinterpret_cast<std::uint8_t*>(weights_out->data() + w_pos),
            count * sizeof(Weight));
        w_pos += count;
      }
      GRAPHSD_RETURN_IF_ERROR(
          weights_.ReadVAt(runs[g].first * sizeof(Weight), bufs));
    }
    g = h;
  }
  return Status::Ok();
}

Status IndexReader::ReadOffsets(VertexId first_local, VertexId count,
                                std::vector<std::uint32_t>& out) {
  out.resize(count);
  if (count == 0) return Status::Ok();
  const std::uint64_t first = first_local;
  if (first > num_entries_ || count > num_entries_ - first) {
    return CorruptDataError(file_.path() + ": offset read [" +
                            std::to_string(first) + ", " +
                            std::to_string(first + count) +
                            ") outside index of " +
                            std::to_string(num_entries_) + " entries");
  }
  return file_.ReadAt(static_cast<std::uint64_t>(first_local) *
                          sizeof(std::uint32_t),
                      AsWritableBytes(out));
}

Result<GridDataset> GridDataset::Open(io::Device& device,
                                      const std::string& dir) {
  GRAPHSD_ASSIGN_OR_RETURN(const std::string text,
                           io::ReadFileToString(ManifestPath(dir)));
  GRAPHSD_ASSIGN_OR_RETURN(GridManifest manifest, GridManifest::Parse(text));

  GridDataset dataset;
  dataset.device_ = &device;
  dataset.dir_ = dir;
  dataset.manifest_ = std::move(manifest);
  dataset.decode_stats_ = std::make_shared<AtomicDecodeStats>();
  if (dataset.manifest_.compressed()) {
    dataset.codec_ = compress::FindCodec(dataset.manifest_.codec);
    if (dataset.codec_ == nullptr) {
      return UnimplementedError("dataset '" + dataset.manifest_.name +
                                "' uses unknown edge codec '" +
                                dataset.manifest_.codec +
                                "'; upgrade graphsd or rebuild the dataset");
    }
  }

  dataset.degrees_ = PooledArray<std::uint32_t>(
      device.pool(), dataset.manifest_.num_vertices);
  GRAPHSD_RETURN_IF_ERROR(ReadVerified(
      device, DegreesPath(dir), dataset.degrees_,
      dataset.manifest_.has_checksums
          ? std::optional(dataset.manifest_.degrees_crc)
          : std::nullopt));
  return dataset;
}

Result<SubBlock> GridDataset::LoadSubBlock(std::uint32_t i, std::uint32_t j,
                                           bool load_weights) const {
  GRAPHSD_ASSIGN_OR_RETURN(SubBlockPayload payload,
                           FetchSubBlock(i, j, load_weights));
  GRAPHSD_RETURN_IF_ERROR(DecodeSubBlock(i, j, payload));
  return std::move(payload.block);
}

Result<SubBlockPayload> GridDataset::FetchSubBlock(std::uint32_t i,
                                                   std::uint32_t j,
                                                   bool load_weights) const {
  GRAPHSD_CHECK(i < p() && j < p());
  SubBlockPayload payload;
  SubBlock& block = payload.block;
  const std::uint64_t count = manifest_.EdgesIn(i, j);
  if (count == 0 && !compressed()) return payload;

  const std::size_t slot = manifest_.SubBlockSlot(i, j);
  const auto crc = [&](const std::vector<std::uint32_t>& crcs) {
    return manifest_.has_checksums ? std::optional(crcs[slot]) : std::nullopt;
  };
  // The whole frame (compressed) or edge array (raw) streams sequentially
  // from offset 0. The file-level CRC is checked here so torn reads surface
  // on the I/O side; a frame's own payload CRC is checked again at decode.
  if (compressed()) {
    payload.frame = PooledArray<std::uint8_t>(
        device_->pool(), manifest_.EdgeFileBytes(i, j));
    GRAPHSD_RETURN_IF_ERROR(ReadVerified(*device_,
                                         SubBlockEdgesPath(dir_, i, j),
                                         payload.frame,
                                         crc(manifest_.edge_crcs)));
    block.disk_bytes += payload.frame.size();
  } else {
    block.edges = PooledArray<Edge>(device_->pool(), count);
    GRAPHSD_RETURN_IF_ERROR(ReadVerified(*device_,
                                         SubBlockEdgesPath(dir_, i, j),
                                         block.edges,
                                         crc(manifest_.edge_crcs)));
    block.disk_bytes += count * kEdgeBytes;
  }
  if (load_weights && weighted() && count > 0) {
    block.weights = PooledArray<Weight>(device_->pool(), count);
    GRAPHSD_RETURN_IF_ERROR(ReadVerified(*device_,
                                         SubBlockWeightsPath(dir_, i, j),
                                         block.weights,
                                         crc(manifest_.weight_crcs)));
    block.disk_bytes += count * kWeightBytes;
  }
  return payload;
}

Status GridDataset::DecodeSubBlock(std::uint32_t i, std::uint32_t j,
                                   SubBlockPayload& payload) const {
  if (payload.frame.empty()) return Status::Ok();
  GRAPHSD_CHECK(i < p() && j < p());
  const std::uint64_t count = manifest_.EdgesIn(i, j);
  WallTimer timer;
  payload.block.edges = PooledArray<Edge>(device_->pool(), count);
  const Status status = compress::DecodeFrameInto(
      payload.frame.bytes(),
      {reinterpret_cast<std::uint8_t*>(payload.block.edges.data()),
       payload.block.edges.size_bytes()});
  if (!status.ok()) {
    device_->stats().RecordChecksumFailure();
    return CorruptDataError(SubBlockEdgesPath(dir_, i, j) + ": " +
                            std::string(status.message()));
  }
  decode_stats_->frames_decoded.fetch_add(1, std::memory_order_relaxed);
  decode_stats_->compressed_bytes.fetch_add(payload.frame.size(),
                                            std::memory_order_relaxed);
  decode_stats_->decoded_bytes.fetch_add(count * kEdgeBytes,
                                         std::memory_order_relaxed);
  decode_stats_->decode_nanos.fetch_add(
      static_cast<std::uint64_t>(timer.Seconds() * 1e9),
      std::memory_order_relaxed);
  payload.frame.clear();
  return Status::Ok();
}

DecodeStats GridDataset::decode_stats() const noexcept {
  DecodeStats s;
  s.frames_decoded =
      decode_stats_->frames_decoded.load(std::memory_order_relaxed);
  s.compressed_bytes =
      decode_stats_->compressed_bytes.load(std::memory_order_relaxed);
  s.decoded_bytes = decode_stats_->decoded_bytes.load(std::memory_order_relaxed);
  s.decode_seconds =
      static_cast<double>(
          decode_stats_->decode_nanos.load(std::memory_order_relaxed)) *
      1e-9;
  return s;
}

Result<PooledArray<std::uint32_t>> GridDataset::LoadIndex(
    std::uint32_t i, std::uint32_t j) const {
  GRAPHSD_CHECK(i < p() && j < p());
  if (!manifest_.has_index) {
    return NotFoundError("dataset '" + manifest_.name + "' has no index");
  }
  PooledArray<std::uint32_t> index(device_->pool(),
                                   manifest_.IntervalSize(i) + 1);
  GRAPHSD_RETURN_IF_ERROR(ReadVerified(
      *device_, SubBlockIndexPath(dir_, i, j), index,
      manifest_.has_checksums
          ? std::optional(manifest_.index_crcs[manifest_.SubBlockSlot(i, j)])
          : std::nullopt));
  return index;
}

Result<IndexReader> GridDataset::OpenIndexReader(std::uint32_t i,
                                                 std::uint32_t j) const {
  GRAPHSD_CHECK(i < p() && j < p());
  if (!manifest_.has_index) {
    return NotFoundError("dataset '" + manifest_.name + "' has no index");
  }
  IndexReader reader;
  reader.num_entries_ =
      static_cast<std::uint64_t>(manifest_.IntervalSize(i)) + 1;
  GRAPHSD_ASSIGN_OR_RETURN(
      reader.file_,
      device_->Open(SubBlockIndexPath(dir_, i, j), io::OpenMode::kRead));
  return reader;
}

Result<SubBlockReader> GridDataset::OpenSubBlockReader(
    std::uint32_t i, std::uint32_t j, bool with_weights) const {
  GRAPHSD_CHECK(i < p() && j < p());
  SubBlockReader reader;
  reader.num_edges_ = manifest_.EdgesIn(i, j);
  reader.batch_gap_bytes_ = device_->options().read_batch_gap_bytes;
  GRAPHSD_ASSIGN_OR_RETURN(
      reader.edges_,
      device_->Open(SubBlockEdgesPath(dir_, i, j), io::OpenMode::kRead));
  if (with_weights && weighted()) {
    GRAPHSD_ASSIGN_OR_RETURN(
        reader.weights_,
        device_->Open(SubBlockWeightsPath(dir_, i, j), io::OpenMode::kRead));
    reader.has_weights_ = true;
  }
  return reader;
}

}  // namespace graphsd::partition
