// Vertex frontier: the active-vertex sets of Algorithm 1 (V_active, Out,
// OutNI). A thin, intention-revealing wrapper over ConcurrentBitset.
#pragma once

#include <cstdint>

#include "graph/types.hpp"
#include "util/bitset.hpp"
#include "util/checked_cast.hpp"

namespace graphsd::core {

class Frontier {
 public:
  Frontier() = default;
  explicit Frontier(VertexId num_vertices) : bits_(num_vertices) {}

  void Resize(VertexId num_vertices) { bits_.Resize(num_vertices); }

  /// Marks `v` active; returns true iff it was not already active.
  /// Thread safe.
  bool Activate(VertexId v) noexcept { return bits_.TestAndSet(v); }

  /// Removes `v` from the set (SCIU Line 17). Thread safe.
  void Deactivate(VertexId v) noexcept { bits_.Clear(v); }

  bool IsActive(VertexId v) const noexcept { return bits_.Test(v); }

  /// The first active vertex in [begin, end), or `end` when there is none.
  VertexId NextActive(VertexId begin, VertexId end) const noexcept {
    return static_cast<VertexId>(bits_.FindNextSet(begin, end));
  }

  /// Number of active vertices. Sequence with writers at BSP boundaries.
  std::uint64_t Count() const noexcept { return bits_.Count(); }
  std::uint64_t CountInRange(VertexId begin, VertexId end) const noexcept {
    return bits_.CountInRange(begin, end);
  }

  bool Empty() const noexcept { return bits_.None(); }

  void Clear() noexcept { bits_.ClearAll(); }
  void ActivateAll() noexcept { bits_.SetAll(); }

  /// Visits active vertices in ascending ID order.
  template <typename Fn>
  void ForEachActive(Fn&& fn) const {
    bits_.ForEachSet(std::forward<Fn>(fn));
  }

  /// Visits active vertices in [begin, end) in ascending order.
  template <typename Fn>
  void ForEachActiveInRange(VertexId begin, VertexId end, Fn&& fn) const {
    bits_.ForEachSetInRange(begin, end, std::forward<Fn>(fn));
  }

  void CopyFrom(const Frontier& other) noexcept { bits_.CopyFrom(other.bits_); }
  void Swap(Frontier& other) noexcept { bits_.Swap(other.bits_); }

  VertexId size() const noexcept { return CheckedCast<VertexId>(bits_.size()); }

 private:
  ConcurrentBitset bits_;
};

}  // namespace graphsd::core
