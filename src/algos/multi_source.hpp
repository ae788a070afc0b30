// Multi-source batched programs: K single-source queries in one edge pass.
//
// The `graphsd serve` coalescer turns K concurrent single-source requests on
// one dataset into one batched program with K value *lanes*: lane k carries
// query k's per-vertex state, contributions are laid out lane-major
// (contrib[v * K + k], see Program::contrib_width()), and one streaming pass
// over an edge applies it to every lane. The frontier is the union (OR) of
// the per-lane frontiers — a vertex active for any lane re-pushes all lanes.
//
// Correctness: BFS / SSSP / widest-path use monotone idempotent combines
// (min / min-plus / max-min) with non-consuming contributions, so the extra
// OR-activation re-pushes already-settled lane values harmlessly and each
// lane converges to the same unique fixed point as a solo run —
// bit-identical values. PPR's residual push is consuming: OR-activation
// drains residual mass that a solo run would have left below epsilon, so
// lane values agree with solo runs only to the sum-threshold tolerance
// (DESIGN.md §13; the service differential test pins it down).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/program.hpp"
#include "core/slot.hpp"

namespace graphsd::algos {

/// Base for batched push programs. `lanes()` is the batch width K and
/// `LaneValueOf` reads lane k's result for one vertex — it must match the
/// solo program's ValueOf for the same root bit-for-bit (monotone lanes) or
/// within the sum-threshold tolerance (PPR lanes).
class MultiSourceProgram : public core::PushProgram {
 public:
  explicit MultiSourceProgram(std::vector<VertexId> roots)
      : roots_(std::move(roots)) {}

  std::uint32_t lanes() const noexcept {
    return static_cast<std::uint32_t>(roots_.size());
  }
  const std::vector<VertexId>& roots() const noexcept { return roots_; }

  std::uint32_t contrib_width() const final { return lanes(); }

  virtual double LaneValueOf(const core::VertexState& state,
                             std::uint32_t lane, VertexId v) const = 0;

  /// Lane 0's value, so a batch-of-one reports exactly like the solo run.
  double ValueOf(const core::VertexState& state, VertexId v) const override {
    return LaneValueOf(state, 0, v);
  }

 protected:
  std::vector<VertexId> roots_;
};

/// K-lane BFS: array k holds lane k's levels (u64, UINT64_MAX unreached).
class MultiBfs final : public core::PushKernel<MultiBfs, MultiSourceProgram> {
 public:
  explicit MultiBfs(std::vector<VertexId> roots)
      : PushKernel(std::move(roots)) {}

  std::string name() const override { return "multi_bfs"; }
  std::uint32_t num_value_arrays() const override { return lanes(); }

  void Init(core::VertexState& state, core::Frontier& initial) override;
  void MakeContribution(core::VertexState& state, VertexId v,
                        core::ContribSlot slot) const override;
  /// Per lane: level[dst] = min(level[dst], level[src] + 1).
  auto Combiner(core::VertexState& state, core::ContribSlot slot) const {
    return [&state, contrib = state.contrib(slot).data(),
            k_lanes = lanes()](VertexId src, VertexId dst, Weight /*w*/) {
      const core::Slot* src_lanes =
          contrib + static_cast<std::size_t>(src) * k_lanes;
      bool activate = false;
      for (std::uint32_t k = 0; k < k_lanes; ++k) {
        const std::uint64_t src_level = src_lanes[k];
        if (src_level == UINT64_MAX) continue;
        if (core::MinU64(state.array(k)[dst], src_level + 1)) activate = true;
      }
      return activate;
    };
  }
  double LaneValueOf(const core::VertexState& state, std::uint32_t lane,
                     VertexId v) const override;
};

/// K-lane SSSP: array k holds lane k's distances (double, +inf unreached).
class MultiSssp final
    : public core::PushKernel<MultiSssp, MultiSourceProgram> {
 public:
  explicit MultiSssp(std::vector<VertexId> roots)
      : PushKernel(std::move(roots)) {}

  std::string name() const override { return "multi_sssp"; }
  bool needs_weights() const override { return true; }
  std::uint32_t num_value_arrays() const override { return lanes(); }

  void Init(core::VertexState& state, core::Frontier& initial) override;
  void MakeContribution(core::VertexState& state, VertexId v,
                        core::ContribSlot slot) const override;
  /// Per lane: dist[dst] = min(dist[dst], dist[src] + w).
  auto Combiner(core::VertexState& state, core::ContribSlot slot) const {
    return [&state, contrib = state.contrib(slot).data(),
            k_lanes = lanes()](VertexId src, VertexId dst, Weight w) {
      const core::Slot* src_lanes =
          contrib + static_cast<std::size_t>(src) * k_lanes;
      bool activate = false;
      for (std::uint32_t k = 0; k < k_lanes; ++k) {
        const double src_dist = core::SlotToDouble(src_lanes[k]);
        if (src_dist == std::numeric_limits<double>::infinity()) continue;
        // Same saturation guard as the solo program: an overflow-to-inf or
        // NaN sum must never win a relaxation or activate the destination.
        const double candidate = src_dist + static_cast<double>(w);
        if (!std::isfinite(candidate)) continue;
        if (core::MinDouble(state.array(k)[dst], candidate)) activate = true;
      }
      return activate;
    };
  }
  double LaneValueOf(const core::VertexState& state, std::uint32_t lane,
                     VertexId v) const override;
};

/// K-lane widest path: array k holds lane k's widths (double, 0 unreached).
class MultiWidestPath final
    : public core::PushKernel<MultiWidestPath, MultiSourceProgram> {
 public:
  explicit MultiWidestPath(std::vector<VertexId> roots)
      : PushKernel(std::move(roots)) {}

  std::string name() const override { return "multi_widest_path"; }
  bool needs_weights() const override { return true; }
  std::uint32_t num_value_arrays() const override { return lanes(); }

  void Init(core::VertexState& state, core::Frontier& initial) override;
  void MakeContribution(core::VertexState& state, VertexId v,
                        core::ContribSlot slot) const override;
  /// Per lane: width[dst] = max(width[dst], min(width[src], w)).
  auto Combiner(core::VertexState& state, core::ContribSlot slot) const {
    return [&state, contrib = state.contrib(slot).data(),
            k_lanes = lanes()](VertexId src, VertexId dst, Weight w) {
      const core::Slot* src_lanes =
          contrib + static_cast<std::size_t>(src) * k_lanes;
      bool activate = false;
      for (std::uint32_t k = 0; k < k_lanes; ++k) {
        const double src_width = core::SlotToDouble(src_lanes[k]);
        if (src_width <= 0.0) continue;
        const double bottleneck = std::min(src_width, static_cast<double>(w));
        if (!std::isfinite(bottleneck) || bottleneck <= 0.0) continue;
        if (core::MaxDouble(state.array(k)[dst], bottleneck)) activate = true;
      }
      return activate;
    };
  }
  double LaneValueOf(const core::VertexState& state, std::uint32_t lane,
                     VertexId v) const override;
};

/// K-lane personalized PageRank: array k is lane k's rank, array K + k its
/// residual. Same residual-push recurrence as the solo program per lane.
class MultiPpr final : public core::PushKernel<MultiPpr, MultiSourceProgram> {
 public:
  explicit MultiPpr(std::vector<VertexId> roots, double epsilon = 1e-10,
                    double damping = 0.85)
      : PushKernel(std::move(roots)),
        epsilon_(epsilon),
        damping_(damping) {}

  std::string name() const override { return "multi_ppr"; }
  std::uint32_t num_value_arrays() const override { return 2 * lanes(); }

  void Init(core::VertexState& state, core::Frontier& initial) override;
  void MakeContribution(core::VertexState& state, VertexId v,
                        core::ContribSlot slot) const override;
  /// Per lane: residual[dst] += contrib[src]; activates past epsilon.
  auto Combiner(core::VertexState& state, core::ContribSlot slot) const {
    return [&state, contrib = state.contrib(slot).data(), k_lanes = lanes(),
            epsilon = epsilon_](VertexId src, VertexId dst, Weight /*w*/) {
      const core::Slot* src_lanes =
          contrib + static_cast<std::size_t>(src) * k_lanes;
      bool activate = false;
      for (std::uint32_t k = 0; k < k_lanes; ++k) {
        const double share = core::SlotToDouble(src_lanes[k]);
        if (share == 0.0) continue;
        if (core::AddDouble(state.array(k_lanes + k)[dst], share) > epsilon) {
          activate = true;
        }
      }
      return activate;
    };
  }
  double LaneValueOf(const core::VertexState& state, std::uint32_t lane,
                     VertexId v) const override;

  double epsilon() const noexcept { return epsilon_; }
  double damping() const noexcept { return damping_; }

 private:
  double epsilon_;
  double damping_;
};

/// Builds the batched counterpart of a single-source algorithm ("bfs",
/// "sssp", "widest_path", "ppr"). Returns null for algorithms that are not
/// single-source batchable (pagerank, pagerank_delta, cc) or an empty root
/// list. `epsilon` / `damping` only apply to "ppr".
std::unique_ptr<MultiSourceProgram> MakeMultiSourceProgram(
    const std::string& algo, std::vector<VertexId> roots,
    double epsilon = 1e-10, double damping = 0.85);

/// True iff `algo` names a single-source algorithm the service may batch.
bool IsBatchableAlgo(const std::string& algo);

}  // namespace graphsd::algos
