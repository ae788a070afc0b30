// Crash-safe run checkpoints: self-describing GSCK frames plus a two-slot
// on-disk store with atomic replacement.
//
// A checkpoint captures everything needed to resume an engine run at a
// committed iteration boundary: the program-defined vertex arrays, the push
// frontiers (active + pre-activated), the iteration counter, and the
// cumulative measurement baseline (RunTotals, core/report.hpp) so a resumed
// run's report continues where the interrupted one stopped.
//
// On-disk format (all integers little-endian):
//
//   offset  size  field
//        0     4  magic "GSCK"
//        4     4  format version (u32, currently 4)
//        8     8  payload bytes (u64)
//       16     4  CRC32C over the payload (u32)
//       20    12  reserved (zero)
//       32     -  payload (see EncodeCheckpoint)
//
// The payload ends with the RunTotals fields in RunTotals::ForEachField
// order. Version 2 appended eight fields to version 1 after
// `checkpoint_seconds`; version 3 drops three of them, 8 bytes each:
// buffer_frame_hits and buffer_frame_puts (the deleted compressed-frame
// cache) and apply_serialization_seconds (always 0). Version 4 drops
// overlapped_seconds (8 bytes, between scheduler_seconds and
// decode_seconds), the deleted pipelined time charge. Every dropped field
// of an older frame is read and discarded in place. A v1 payload is the
// prefix of kCheckpointV1Fields fields (plus overlapped_seconds) and
// decodes with the rest zero. Other versions fail with kUnimplemented.
//
// The header mirrors the GSDF compressed-frame format (compress/frame.hpp):
// magic + CRC + declared size make every checkpoint independently
// verifiable, so torn, truncated or bit-flipped files are detected on load
// rather than silently resumed from.
//
// Durability: CheckpointStore keeps two slots (checkpoint.0.gsck /
// checkpoint.1.gsck) and always overwrites the *older* one via the shared
// atomic-write helper (write-temp -> fsync -> rename). The parent-directory
// fsync is deliberately skipped: losing a rename in a crash resurfaces the
// slot's previous contents, which the two-slot fallback already handles. A
// crash at any point leaves at least one complete, verifiable checkpoint on
// disk.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/report.hpp"
#include "core/slot.hpp"
#include "graph/types.hpp"
#include "partition/manifest.hpp"
#include "util/status.hpp"

namespace graphsd::core {

/// Checkpoint format version this build writes; it also reads versions 1
/// to 3.
inline constexpr std::uint32_t kCheckpointFormatVersion = 4;

/// RunTotals fields a version 1 payload carries (a ForEachField prefix).
inline constexpr std::size_t kCheckpointV1Fields = 28;

/// Checkpoint header size in bytes.
inline constexpr std::size_t kCheckpointHeaderBytes = 32;

/// Checkpoint magic, "GSCK".
inline constexpr std::uint8_t kCheckpointMagic[4] = {'G', 'S', 'C', 'K'};

/// One resumable snapshot of an engine run at an iteration boundary.
struct Checkpoint {
  /// CRC32C of the dataset manifest text; resume refuses a checkpoint whose
  /// fingerprint disagrees with the opened dataset (kFailedPrecondition).
  std::uint32_t fingerprint = 0;
  /// Program name the run executed (second resume precondition).
  std::string algorithm;
  /// Gather (pull) program: no frontiers are stored.
  bool gather = false;
  /// The iteration the resumed run continues *from* (all iterations below
  /// this are committed in the arrays/frontiers here).
  std::uint32_t iteration = 0;
  VertexId num_vertices = 0;

  /// Program-defined vertex arrays (VertexState::array(i)), each
  /// `num_vertices` slots.
  std::vector<std::vector<Slot>> arrays;

  /// Push frontiers as ascending vertex-id lists: the active set entering
  /// `iteration` and the pre-activated set (cross-iteration Out_NI).
  std::vector<VertexId> active;
  std::vector<VertexId> preact;

  /// Cumulative measurement baseline: the report totals at the checkpoint
  /// boundary. A resumed run seeds its report with these so the final
  /// report covers the whole logical run. The per-round series is
  /// intentionally not persisted; resumed runs restart it.
  RunTotals totals;
};

/// Fingerprint of a dataset: CRC32C over the serialized manifest text.
/// Covers shape (vertices, edges, p, boundaries), codec, and — for
/// checksummed datasets — every payload CRC, so any rebuild that changes
/// bytes changes the fingerprint.
std::uint32_t DatasetFingerprint(const partition::GridManifest& manifest);

/// Serializes a checkpoint into a complete GSCK frame (header + payload).
std::vector<std::uint8_t> EncodeCheckpoint(const Checkpoint& checkpoint);

/// Parses and validates a GSCK frame (magic, version, declared size,
/// payload CRC, internal consistency). Returns kCorruptData on any
/// mismatch — a torn or bit-flipped file never yields a checkpoint.
Result<Checkpoint> DecodeCheckpoint(std::span<const std::uint8_t> frame);

/// Two-slot checkpoint store in a directory.
///
/// Write alternates slots so the previous checkpoint survives until the new
/// one is durably in place; LoadLatest validates both slots and returns the
/// highest-iteration valid one, silently falling back to the older slot
/// when the newer is corrupt.
class CheckpointStore {
 public:
  /// `dir` is created on the first Write if missing.
  explicit CheckpointStore(std::string dir);

  const std::string& dir() const noexcept { return dir_; }

  /// Path of slot 0 or 1.
  std::string SlotPath(int slot) const;

  /// True when either slot file exists (regardless of validity).
  bool AnySlotExists() const;

  /// Durably writes `checkpoint` into the slot not holding the latest valid
  /// checkpoint. On success `*frame_bytes` (if non-null) receives the
  /// on-disk frame size.
  Status Write(const Checkpoint& checkpoint,
               std::uint64_t* frame_bytes = nullptr);

  /// Same, for an already-encoded GSCK frame (the async writer's path).
  Status WriteFrame(std::span<const std::uint8_t> frame);

  /// Loads the highest-iteration valid checkpoint.
  ///   - kNotFound: no slot file exists (fresh start).
  ///   - kCorruptData: slot files exist but none decodes cleanly.
  Result<Checkpoint> LoadLatest();

 private:
  /// Decodes one slot; any failure (missing, torn, corrupt) -> error.
  Result<Checkpoint> TryLoadSlot(int slot) const;

  /// Picks the slot to overwrite: the one NOT holding the latest valid
  /// checkpoint (ties and empty stores overwrite slot 0).
  int PickWriteSlot() const;

  std::string dir_;
  int write_slot_ = -1;  // -1 until first Write scans the slots
};

/// Takes checkpoint writes off the engine's critical path: Submit encodes
/// the frame synchronously (cheap, memory-only) and hands it to a single
/// background thread that performs the fdatasync-bound atomic slot write.
/// Submitting while an older frame is still queued replaces it ("latest
/// wins") — a newer boundary strictly supersedes an older one, and the
/// two-slot store keeps its previous on-disk checkpoint either way.
///
/// Crash semantics: a frame accepted by Submit is durable only after
/// Flush() returns; losing queued frames in a crash means resume restarts
/// from the previous durable boundary — exactly the guarantee the two-slot
/// design already provides. Engines therefore Flush before returning, so a
/// run that observed cancellation (or finished) always leaves its final
/// boundary on disk.
///
/// The store must outlive the writer, and must not be used concurrently by
/// other threads between the first Submit and Flush/destruction.
class AsyncCheckpointWriter {
 public:
  explicit AsyncCheckpointWriter(CheckpointStore* store);
  /// Drains queued work (without status propagation) and joins.
  ~AsyncCheckpointWriter();

  AsyncCheckpointWriter(const AsyncCheckpointWriter&) = delete;
  AsyncCheckpointWriter& operator=(const AsyncCheckpointWriter&) = delete;

  /// Encodes `checkpoint` and queues the frame; returns its size. A failure
  /// from an earlier background write is surfaced here (or at Flush,
  /// whichever observes it first).
  Result<std::uint64_t> Submit(const Checkpoint& checkpoint);

  /// Blocks until every accepted frame is on disk (or dropped as
  /// superseded) and returns the first background write error, if any.
  Status Flush();

  /// Frames superseded by a newer Submit before reaching disk.
  std::uint64_t frames_dropped() const;
  /// Bytes actually written through the store (excludes dropped frames).
  std::uint64_t bytes_written() const;

 private:
  void Loop();

  CheckpointStore* store_;
  mutable std::mutex mu_;
  std::condition_variable wake_;  // writer thread: pending work or stop
  std::condition_variable idle_;  // Flush: queue empty and write finished
  std::vector<std::uint8_t> pending_;
  bool has_pending_ = false;
  bool writing_ = false;
  bool stop_ = false;
  Status error_;  // sticky first background failure
  std::uint64_t dropped_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::thread thread_;  // lazily started by the first Submit
};

}  // namespace graphsd::core
