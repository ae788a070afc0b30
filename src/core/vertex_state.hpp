// Per-vertex state owned by an engine run.
//
// Layout: `num_program_arrays` program-defined arrays (e.g. PR-Delta keeps
// rank + residual), plus engine-managed contribution arrays (the BSP
// snapshots edges read from) and, for gather programs, two accumulator
// arrays used by FCIU's two-iterations-per-load round (see
// fciu_executor.hpp for the protocol).
//
// Persist/Load write the program arrays through the accounted Device; this
// is the |V|·N vertex-value I/O term of the paper's cost formulas.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/slot.hpp"
#include "graph/types.hpp"
#include "io/device.hpp"

namespace graphsd::core {

/// Which contribution snapshot an edge application reads.
/// kPrimary carries iteration t's sources; kSecondary carries the sealed
/// post-t values used for cross-iteration (t+1) computation.
enum class ContribSlot : std::uint8_t { kPrimary = 0, kSecondary = 1 };

/// Gather accumulators: kA collects iteration t, kB collects iteration t+1.
enum class AccumSlot : std::uint8_t { kA = 0, kB = 1 };

class VertexState {
 public:
  /// `gather` additionally allocates the two accumulator arrays.
  /// `contrib_width` sizes the contribution arrays at num_vertices * width
  /// slots (multi-source batched programs keep one lane per source; see
  /// Program::contrib_width()).
  VertexState(VertexId num_vertices, std::uint32_t num_program_arrays,
              bool gather, std::uint32_t contrib_width = 1);

  std::uint32_t contrib_width() const noexcept { return contrib_width_; }

  VertexId num_vertices() const noexcept { return num_vertices_; }
  std::uint32_t num_program_arrays() const noexcept {
    return static_cast<std::uint32_t>(program_arrays_.size());
  }

  /// Program-defined array `idx`.
  std::span<Slot> array(std::uint32_t idx) noexcept {
    return {reinterpret_cast<Slot*>(program_arrays_[idx].data()),
            num_vertices_};
  }
  std::span<const Slot> array(std::uint32_t idx) const noexcept {
    return {reinterpret_cast<const Slot*>(program_arrays_[idx].data()),
            num_vertices_};
  }

  std::span<Slot> contrib(ContribSlot slot) noexcept {
    return contrib_[static_cast<std::uint8_t>(slot)];
  }
  std::span<const Slot> contrib(ContribSlot slot) const noexcept {
    return contrib_[static_cast<std::uint8_t>(slot)];
  }

  std::span<Slot> accum(AccumSlot slot) noexcept {
    return accum_[static_cast<std::uint8_t>(slot)];
  }
  std::span<const Slot> accum(AccumSlot slot) const noexcept {
    return accum_[static_cast<std::uint8_t>(slot)];
  }

  /// Bytes of one on-disk vertex record (N in the paper's Table 2).
  std::uint64_t BytesPerVertex() const noexcept {
    return num_program_arrays() * sizeof(Slot);
  }

  /// Writes the program arrays to `path` (accounted sequential write).
  Status Persist(io::Device& device, const std::string& path) const;

  /// Reads the program arrays back from `path` (accounted sequential read).
  Status Load(io::Device& device, const std::string& path);

 private:
  VertexId num_vertices_;
  std::uint32_t contrib_width_ = 1;
  // Page-aligned and padded to 4 KiB, so Load reads a direct-I/O state
  // file straight in whenever an array starts on a 4 KiB file offset.
  std::vector<AlignedBuffer> program_arrays_;
  std::vector<Slot> contrib_storage_[2];
  std::span<Slot> contrib_[2];
  std::vector<Slot> accum_storage_[2];
  std::span<Slot> accum_[2];
};

}  // namespace graphsd::core
