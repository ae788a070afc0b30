// Active-source skip summaries for the semi-external model (DESIGN.md §14).
//
// One exact bitset per sub-block (i, j) over interval i's local source
// vertices: bit v is set iff local vertex v has at least one edge in the
// sub-block. A semi round consults the summary *before any
// edge I/O*: a sub-block none of whose edge-bearing sources are active can
// be skipped outright — its edges cannot change a single destination this
// iteration. Summaries are exact (built from decoded edges or the CSR
// index), so a skip can never drop an update; an unknown summary simply
// means no skip, never a wrong one.
//
// Summaries are a property of the dataset, not of any one run: once built
// they stay valid for the dataset's lifetime, so the store is shareable
// across runs (the `graphsd serve` registry keeps one per dataset next to
// the shared sub-block buffer). Record is publish-once: the first writer
// fills the bit words and releases them with an acquire/release flag;
// later writers return immediately and readers only dereference the words
// after observing the flag, so concurrent executor threads need no lock on
// the hot lookup path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "partition/manifest.hpp"

namespace graphsd::core {

class SkipSummaryStore {
 public:
  explicit SkipSummaryStore(const partition::GridManifest& manifest);

  std::uint32_t p() const noexcept { return p_; }

  /// True once sub-block (i, j)'s summary has been recorded.
  bool Known(std::uint32_t i, std::uint32_t j) const;

  /// Builds (i, j)'s summary from its decoded edges. Sources are global
  /// vertex ids; `interval_first` is boundaries[i]. No-op when already
  /// recorded (summaries are dataset-static).
  void RecordFromEdges(std::uint32_t i, std::uint32_t j,
                       std::span<const Edge> edges, VertexId interval_first);

  /// Builds (i, j)'s summary from its CSR index offsets (IntervalSize(i)+1
  /// entries): local vertex v has edges iff offsets[v+1] > offsets[v]. This
  /// is the cheap pre-I/O path — the index read is a few KiB against the
  /// sub-block's edge payload. No-op when already recorded.
  void RecordFromOffsets(std::uint32_t i, std::uint32_t j,
                         std::span<const std::uint32_t> offsets);

  /// True iff (i, j)'s summary is known and none of `active_locals`
  /// (interval-local indices of the active sources in interval i, any
  /// order) has its bit set — i.e. the sub-block provably moves no updates
  /// this iteration and its I/O can be skipped.
  bool CanSkip(std::uint32_t i, std::uint32_t j,
               std::span<const VertexId> active_locals) const;

  /// Number of recorded summaries (diagnostics).
  std::size_t known_count() const;

 private:
  struct Summary {
    std::atomic<bool> known{false};
    std::mutex write_mutex;
    std::vector<std::uint64_t> words;
  };

  Summary& At(std::uint32_t i, std::uint32_t j) const {
    return *summaries_[static_cast<std::size_t>(i) * p_ + j];
  }

  std::uint32_t p_ = 0;
  std::vector<VertexId> interval_sizes_;
  // unique_ptr per cell: Summary holds an atomic and a mutex (immovable),
  // and the store must be constructible for any P without relocation.
  std::vector<std::unique_ptr<Summary>> summaries_;
};

}  // namespace graphsd::core
