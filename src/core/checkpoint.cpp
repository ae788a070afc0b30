#include "core/checkpoint.hpp"

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <type_traits>

#include "io/file.hpp"
#include "util/crc32c.hpp"
#include "util/str_format.hpp"

namespace graphsd::core {
namespace {

// ---------------------------------------------------------------------------
// Little-endian payload encoding.

/// Appends `v` little-endian in its own width; a double as its IEEE bits.
template <typename T>
void Append(std::vector<std::uint8_t>& out, T v) {
  static_assert(std::is_unsigned_v<T> || std::is_same_v<T, double>);
  if constexpr (std::is_same_v<T, double>) {
    Append(out, std::bit_cast<std::uint64_t>(v));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
}

void AppendBytes(std::vector<std::uint8_t>& out, const void* data,
                 std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), bytes, bytes + size);
}

/// Bounds-checked forward reader over the payload; every primitive read
/// fails with kCorruptData instead of running past the declared size.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Reads a value written by Append.
  template <typename T>
  Status Read(T& out) {
    if constexpr (std::is_same_v<T, double>) {
      std::uint64_t bits = 0;
      GRAPHSD_RETURN_IF_ERROR(Read(bits));
      out = std::bit_cast<double>(bits);
    } else {
      GRAPHSD_RETURN_IF_ERROR(Need(sizeof(T)));
      out = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        out |= static_cast<T>(data_[pos_ + i]) << (8 * i);
      }
      pos_ += sizeof(T);
    }
    return Status::Ok();
  }

  Status ReadBytes(void* out, std::size_t size) {
    GRAPHSD_RETURN_IF_ERROR(Need(size));
    if (size == 0) return Status::Ok();  // `out` may be null for 0 bytes
    std::memcpy(out, data_.data() + pos_, size);
    pos_ += size;
    return Status::Ok();
  }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  Status Need(std::size_t size) const {
    if (data_.size() - pos_ < size) {
      return CorruptDataError("checkpoint payload truncated");
    }
    return Status::Ok();
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

void AppendIdList(std::vector<std::uint8_t>& out,
                  const std::vector<VertexId>& ids) {
  Append(out, static_cast<std::uint64_t>(ids.size()));
  static_assert(sizeof(VertexId) == 4);
  AppendBytes(out, ids.data(), ids.size() * sizeof(VertexId));
}

Status ReadIdList(Reader& reader, VertexId num_vertices,
                  std::vector<VertexId>& out) {
  std::uint64_t count = 0;
  GRAPHSD_RETURN_IF_ERROR(reader.Read(count));
  if (count > num_vertices) {
    return CorruptDataError("checkpoint frontier larger than vertex count");
  }
  out.resize(count);
  GRAPHSD_RETURN_IF_ERROR(
      reader.ReadBytes(out.data(), count * sizeof(VertexId)));
  VertexId prev = 0;
  for (std::size_t k = 0; k < out.size(); ++k) {
    if (out[k] >= num_vertices || (k > 0 && out[k] <= prev)) {
      return CorruptDataError("checkpoint frontier ids not ascending");
    }
    prev = out[k];
  }
  return Status::Ok();
}

}  // namespace

std::uint32_t DatasetFingerprint(const partition::GridManifest& manifest) {
  const std::string text = manifest.Serialize();
  return Crc32c(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::vector<std::uint8_t> EncodeCheckpoint(const Checkpoint& checkpoint) {
  std::vector<std::uint8_t> payload;
  // Rough reservation: arrays dominate.
  std::size_t reserve = 256;
  for (const auto& array : checkpoint.arrays) {
    reserve += array.size() * sizeof(Slot);
  }
  reserve += (checkpoint.active.size() + checkpoint.preact.size()) *
             sizeof(VertexId);
  payload.reserve(reserve);

  Append(payload, checkpoint.fingerprint);
  Append(payload, static_cast<std::uint32_t>(checkpoint.algorithm.size()));
  AppendBytes(payload, checkpoint.algorithm.data(),
              checkpoint.algorithm.size());
  payload.push_back(checkpoint.gather ? 1 : 0);
  Append(payload, checkpoint.iteration);
  Append(payload, checkpoint.num_vertices);

  Append(payload, static_cast<std::uint32_t>(checkpoint.arrays.size()));
  for (const auto& array : checkpoint.arrays) {
    AppendBytes(payload, array.data(), array.size() * sizeof(Slot));
  }

  AppendIdList(payload, checkpoint.active);
  AppendIdList(payload, checkpoint.preact);

  RunTotals::ForEachField(
      [&payload](const auto& field) { Append(payload, field); },
      checkpoint.totals);

  std::vector<std::uint8_t> frame(std::begin(kCheckpointMagic),
                                  std::end(kCheckpointMagic));
  frame.reserve(kCheckpointHeaderBytes + payload.size());
  Append(frame, kCheckpointFormatVersion);
  Append(frame, static_cast<std::uint64_t>(payload.size()));
  Append(frame, Crc32c(std::span<const std::uint8_t>(payload)));
  while (frame.size() < kCheckpointHeaderBytes) frame.push_back(0);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

Result<Checkpoint> DecodeCheckpoint(std::span<const std::uint8_t> frame) {
  if (frame.size() < kCheckpointHeaderBytes) {
    return CorruptDataError("checkpoint shorter than its header");
  }
  if (std::memcmp(frame.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
      0) {
    return CorruptDataError("checkpoint magic mismatch");
  }
  Reader header(frame.subspan(sizeof(kCheckpointMagic)));
  std::uint32_t version = 0;
  std::uint64_t payload_bytes = 0;
  std::uint32_t payload_crc = 0;
  GRAPHSD_RETURN_IF_ERROR(header.Read(version));
  GRAPHSD_RETURN_IF_ERROR(header.Read(payload_bytes));
  GRAPHSD_RETURN_IF_ERROR(header.Read(payload_crc));
  if (version != 1 && version != kCheckpointFormatVersion) {
    return UnimplementedError(
        StrPrintf("checkpoint format version %u (this build reads 1-%u)",
                  version, kCheckpointFormatVersion));
  }
  if (frame.size() - kCheckpointHeaderBytes != payload_bytes) {
    return CorruptDataError(StrPrintf(
        "checkpoint payload size mismatch: header declares %llu, file has "
        "%llu",
        static_cast<unsigned long long>(payload_bytes),
        static_cast<unsigned long long>(frame.size() -
                                        kCheckpointHeaderBytes)));
  }
  const auto payload = frame.subspan(kCheckpointHeaderBytes);
  if (Crc32c(payload) != payload_crc) {
    return CorruptDataError("checkpoint payload CRC mismatch");
  }

  Checkpoint checkpoint;
  Reader reader(payload);
  GRAPHSD_RETURN_IF_ERROR(reader.Read(checkpoint.fingerprint));
  std::uint32_t name_len = 0;
  GRAPHSD_RETURN_IF_ERROR(reader.Read(name_len));
  if (name_len > reader.remaining()) {
    return CorruptDataError("checkpoint algorithm name truncated");
  }
  checkpoint.algorithm.resize(name_len);
  GRAPHSD_RETURN_IF_ERROR(
      reader.ReadBytes(checkpoint.algorithm.data(), name_len));
  std::uint8_t gather = 0;
  GRAPHSD_RETURN_IF_ERROR(reader.Read(gather));
  checkpoint.gather = gather != 0;
  GRAPHSD_RETURN_IF_ERROR(reader.Read(checkpoint.iteration));
  GRAPHSD_RETURN_IF_ERROR(reader.Read(checkpoint.num_vertices));

  std::uint32_t num_arrays = 0;
  GRAPHSD_RETURN_IF_ERROR(reader.Read(num_arrays));
  const std::uint64_t array_bytes =
      static_cast<std::uint64_t>(checkpoint.num_vertices) * sizeof(Slot);
  if (num_arrays > 64 ||
      static_cast<std::uint64_t>(num_arrays) * array_bytes >
          reader.remaining()) {
    return CorruptDataError("checkpoint array section truncated");
  }
  checkpoint.arrays.resize(num_arrays);
  for (auto& array : checkpoint.arrays) {
    array.resize(checkpoint.num_vertices);
    GRAPHSD_RETURN_IF_ERROR(reader.ReadBytes(array.data(), array_bytes));
  }

  GRAPHSD_RETURN_IF_ERROR(
      ReadIdList(reader, checkpoint.num_vertices, checkpoint.active));
  GRAPHSD_RETURN_IF_ERROR(
      ReadIdList(reader, checkpoint.num_vertices, checkpoint.preact));

  // A v1 payload ends after its kCheckpointV1Fields totals; the fields v2
  // appended keep their zero defaults.
  const std::size_t num_fields =
      version == 1 ? kCheckpointV1Fields : SIZE_MAX;
  std::size_t fields_read = 0;
  Status status;
  RunTotals::ForEachField(
      [&](auto& field) {
        if (status.ok() && fields_read++ < num_fields) {
          status = reader.Read(field);
        }
      },
      checkpoint.totals);
  GRAPHSD_RETURN_IF_ERROR(status);

  if (reader.remaining() != 0) {
    return CorruptDataError("checkpoint payload has trailing bytes");
  }
  return checkpoint;
}

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {}

std::string CheckpointStore::SlotPath(int slot) const {
  return dir_ + "/checkpoint." + std::to_string(slot) + ".gsck";
}

bool CheckpointStore::AnySlotExists() const {
  return io::PathExists(SlotPath(0)) || io::PathExists(SlotPath(1));
}

Result<Checkpoint> CheckpointStore::TryLoadSlot(int slot) const {
  GRAPHSD_ASSIGN_OR_RETURN(std::string contents,
                           io::ReadFileToString(SlotPath(slot)));
  return DecodeCheckpoint(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(contents.data()),
      contents.size()));
}

int CheckpointStore::PickWriteSlot() const {
  // Overwrite the slot NOT holding the latest valid checkpoint: a corrupt
  // or missing slot is always fair game; between two valid slots the older
  // one goes.
  std::uint64_t iteration[2];
  bool valid[2];
  for (int slot = 0; slot < 2; ++slot) {
    auto loaded = TryLoadSlot(slot);
    valid[slot] = loaded.ok();
    iteration[slot] = loaded.ok() ? loaded.value().iteration : 0;
  }
  if (!valid[0]) return 0;
  if (!valid[1]) return 1;
  return iteration[0] <= iteration[1] ? 0 : 1;
}

Status CheckpointStore::Write(const Checkpoint& checkpoint,
                              std::uint64_t* frame_bytes) {
  const std::vector<std::uint8_t> frame = EncodeCheckpoint(checkpoint);
  GRAPHSD_RETURN_IF_ERROR(WriteFrame(std::span<const std::uint8_t>(frame)));
  if (frame_bytes != nullptr) *frame_bytes = frame.size();
  return Status::Ok();
}

Status CheckpointStore::WriteFrame(std::span<const std::uint8_t> frame) {
  GRAPHSD_RETURN_IF_ERROR(io::MakeDirectories(dir_));
  if (write_slot_ < 0) write_slot_ = PickWriteSlot();
  // sync_dir = false: losing the rename in a crash just resurfaces the
  // previous slot contents, which LoadLatest handles by design (the same
  // fallback that covers a torn frame). The file-content fdatasync before
  // the rename is the one barrier checkpoints genuinely need — without it
  // a crash could tear BOTH slots over time.
  GRAPHSD_RETURN_IF_ERROR(io::WriteFileAtomic(SlotPath(write_slot_), frame,
                                              /*sync_dir=*/false));
  write_slot_ = 1 - write_slot_;
  return Status::Ok();
}

Result<Checkpoint> CheckpointStore::LoadLatest() {
  if (!AnySlotExists()) {
    return NotFoundError(
        StrPrintf("no checkpoint in %s", dir_.c_str()));
  }
  Result<Checkpoint> best =
      CorruptDataError(StrPrintf("no valid checkpoint slot in %s (both "
                                 "slots missing, torn or corrupt)",
                                 dir_.c_str()));
  for (int slot = 0; slot < 2; ++slot) {
    auto loaded = TryLoadSlot(slot);
    if (!loaded.ok()) continue;
    if (!best.ok() || loaded.value().iteration > best.value().iteration) {
      best = std::move(loaded);
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// AsyncCheckpointWriter

AsyncCheckpointWriter::AsyncCheckpointWriter(CheckpointStore* store)
    : store_(store) {}

AsyncCheckpointWriter::~AsyncCheckpointWriter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

Result<std::uint64_t> AsyncCheckpointWriter::Submit(
    const Checkpoint& checkpoint) {
  std::vector<std::uint8_t> frame = EncodeCheckpoint(checkpoint);
  const std::uint64_t size = frame.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_.ok()) return error_;
    if (has_pending_) ++dropped_;  // superseded before it hit disk
    pending_ = std::move(frame);
    has_pending_ = true;
    if (!thread_.joinable()) {
      thread_ = std::thread(&AsyncCheckpointWriter::Loop, this);
    }
  }
  wake_.notify_one();
  return size;
}

Status AsyncCheckpointWriter::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return !has_pending_ && !writing_; });
  return error_;
}

std::uint64_t AsyncCheckpointWriter::frames_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::uint64_t AsyncCheckpointWriter::bytes_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_written_;
}

void AsyncCheckpointWriter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock, [this] { return has_pending_ || stop_; });
    if (!has_pending_) break;  // stop requested, queue drained
    std::vector<std::uint8_t> frame = std::move(pending_);
    pending_.clear();
    has_pending_ = false;
    writing_ = true;
    lock.unlock();
    const Status status =
        store_->WriteFrame(std::span<const std::uint8_t>(frame));
    lock.lock();
    writing_ = false;
    if (status.ok()) {
      bytes_written_ += frame.size();
    } else if (error_.ok()) {
      error_ = status;
    }
    if (!has_pending_) idle_.notify_all();
  }
}

}  // namespace graphsd::core
