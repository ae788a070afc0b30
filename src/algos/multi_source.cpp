#include "algos/multi_source.hpp"

#include <limits>

namespace graphsd::algos {

using core::SlotFromDouble;
using core::SlotToDouble;

// ---- MultiBfs --------------------------------------------------------------

void MultiBfs::Init(core::VertexState& state, core::Frontier& initial) {
  GRAPHSD_CHECK(!roots_.empty());
  for (std::uint32_t k = 0; k < lanes(); ++k) {
    GRAPHSD_CHECK(roots_[k] < state.num_vertices());
    auto level = state.array(k);
    for (auto& slot : level) slot = UINT64_MAX;
    level[roots_[k]] = 0;
    initial.Activate(roots_[k]);
  }
}

void MultiBfs::MakeContribution(core::VertexState& state, VertexId v,
                                core::ContribSlot slot) const {
  const std::uint32_t k_lanes = lanes();
  auto contrib = state.contrib(slot);
  for (std::uint32_t k = 0; k < k_lanes; ++k) {
    contrib[static_cast<std::size_t>(v) * k_lanes + k] = state.array(k)[v];
  }
}

double MultiBfs::LaneValueOf(const core::VertexState& state,
                             std::uint32_t lane, VertexId v) const {
  return static_cast<double>(state.array(lane)[v]);
}

// ---- MultiSssp -------------------------------------------------------------

void MultiSssp::Init(core::VertexState& state, core::Frontier& initial) {
  GRAPHSD_CHECK(!roots_.empty());
  const double inf = std::numeric_limits<double>::infinity();
  for (std::uint32_t k = 0; k < lanes(); ++k) {
    GRAPHSD_CHECK(roots_[k] < state.num_vertices());
    auto dist = state.array(k);
    for (auto& slot : dist) slot = SlotFromDouble(inf);
    dist[roots_[k]] = SlotFromDouble(0.0);
    initial.Activate(roots_[k]);
  }
}

void MultiSssp::MakeContribution(core::VertexState& state, VertexId v,
                                 core::ContribSlot slot) const {
  const std::uint32_t k_lanes = lanes();
  auto contrib = state.contrib(slot);
  for (std::uint32_t k = 0; k < k_lanes; ++k) {
    contrib[static_cast<std::size_t>(v) * k_lanes + k] = state.array(k)[v];
  }
}

double MultiSssp::LaneValueOf(const core::VertexState& state,
                              std::uint32_t lane, VertexId v) const {
  return SlotToDouble(state.array(lane)[v]);
}

// ---- MultiWidestPath -------------------------------------------------------

void MultiWidestPath::Init(core::VertexState& state, core::Frontier& initial) {
  GRAPHSD_CHECK(!roots_.empty());
  for (std::uint32_t k = 0; k < lanes(); ++k) {
    GRAPHSD_CHECK(roots_[k] < state.num_vertices());
    auto width = state.array(k);
    for (auto& slot : width) slot = SlotFromDouble(0.0);
    width[roots_[k]] = SlotFromDouble(std::numeric_limits<double>::infinity());
    initial.Activate(roots_[k]);
  }
}

void MultiWidestPath::MakeContribution(core::VertexState& state, VertexId v,
                                       core::ContribSlot slot) const {
  const std::uint32_t k_lanes = lanes();
  auto contrib = state.contrib(slot);
  for (std::uint32_t k = 0; k < k_lanes; ++k) {
    contrib[static_cast<std::size_t>(v) * k_lanes + k] = state.array(k)[v];
  }
}

double MultiWidestPath::LaneValueOf(const core::VertexState& state,
                                    std::uint32_t lane, VertexId v) const {
  return SlotToDouble(state.array(lane)[v]);
}

// ---- MultiPpr --------------------------------------------------------------

void MultiPpr::Init(core::VertexState& state, core::Frontier& initial) {
  GRAPHSD_CHECK(!roots_.empty());
  const std::uint32_t k_lanes = lanes();
  for (std::uint32_t k = 0; k < k_lanes; ++k) {
    GRAPHSD_CHECK(roots_[k] < state.num_vertices());
    auto rank = state.array(k);
    auto residual = state.array(k_lanes + k);
    for (VertexId v = 0; v < state.num_vertices(); ++v) {
      rank[v] = SlotFromDouble(0.0);
      residual[v] = SlotFromDouble(0.0);
    }
    residual[roots_[k]] = SlotFromDouble(1.0);
    initial.Activate(roots_[k]);
  }
}

void MultiPpr::MakeContribution(core::VertexState& state, VertexId v,
                                core::ContribSlot slot) const {
  const std::uint32_t k_lanes = lanes();
  auto contrib = state.contrib(slot);
  const std::uint32_t degree = out_degrees_[v];
  for (std::uint32_t k = 0; k < k_lanes; ++k) {
    auto rank = state.array(k);
    auto residual = state.array(k_lanes + k);
    const double res = SlotToDouble(residual[v]);
    residual[v] = SlotFromDouble(0.0);
    rank[v] = SlotFromDouble(SlotToDouble(rank[v]) + (1.0 - damping_) * res);
    contrib[static_cast<std::size_t>(v) * k_lanes + k] =
        SlotFromDouble(degree == 0 ? 0.0 : damping_ * res / degree);
  }
}

double MultiPpr::LaneValueOf(const core::VertexState& state,
                             std::uint32_t lane, VertexId v) const {
  return SlotToDouble(state.array(lane)[v]) +
         (1.0 - damping_) * SlotToDouble(state.array(lanes() + lane)[v]);
}

// ---- Factory ---------------------------------------------------------------

bool IsBatchableAlgo(const std::string& algo) {
  return algo == "bfs" || algo == "sssp" || algo == "widest_path" ||
         algo == "ppr";
}

std::unique_ptr<MultiSourceProgram> MakeMultiSourceProgram(
    const std::string& algo, std::vector<VertexId> roots, double epsilon,
    double damping) {
  if (roots.empty()) return nullptr;
  if (algo == "bfs") return std::make_unique<MultiBfs>(std::move(roots));
  if (algo == "sssp") return std::make_unique<MultiSssp>(std::move(roots));
  if (algo == "widest_path") {
    return std::make_unique<MultiWidestPath>(std::move(roots));
  }
  if (algo == "ppr") {
    return std::make_unique<MultiPpr>(std::move(roots), epsilon, damping);
  }
  return nullptr;
}

}  // namespace graphsd::algos
