// Figure 10: the state-aware I/O scheduling strategy — per-iteration
// execution time of adaptive GraphSD vs GraphSD-b3 (always full I/O) vs
// GraphSD-b4 (always on-demand), running CC on the UKUnion proxy.
//
// Expected shape: early iterations (dense frontier) favour full I/O, late
// iterations (sparse frontier) favour on-demand; the adaptive scheduler
// tracks the minimum of the two at every iteration.
#include <cstdio>
#include <map>

#include "common/bench_datasets.hpp"
#include "common/table.hpp"

using namespace graphsd::bench;
using graphsd::core::ExecutionReport;
using graphsd::core::RoundModel;

namespace {

// Spreads each round's time across the iterations it covers so the three
// engines (whose rounds cover different iteration spans) align per
// iteration.
std::map<std::uint32_t, double> PerIteration(const ExecutionReport& report) {
  std::map<std::uint32_t, double> out;
  for (const auto& round : report.per_round) {
    // Modeled I/O time only: at proxy scale the measured compute wall is
    // warm-up-dependent noise, while the paper's execution time is I/O
    // dominated (56-91%).
    const double per = round.io_seconds / round.iterations_covered;
    for (std::uint32_t k = 0; k < round.iterations_covered; ++k) {
      out[round.first_iteration + k] += per;
    }
  }
  return out;
}

std::map<std::uint32_t, char> PerIterationModel(const ExecutionReport& report) {
  std::map<std::uint32_t, char> out;
  for (const auto& round : report.per_round) {
    for (std::uint32_t k = 0; k < round.iterations_covered; ++k) {
      out[round.first_iteration + k] = static_cast<char>(round.model);
    }
  }
  return out;
}

}  // namespace

int main() {
  PrintFigureHeader(
      "Figure 10", "State-aware I/O scheduling — per-iteration time, CC on "
      "UKUnion",
      "adaptive GraphSD selects the better model in every iteration; full "
      "wins early (dense), on-demand wins late (sparse)");

  auto device = MakeBenchDevice();
  const PreparedDataset dataset = Prepare(*device, Specs()[3]);  // ukunion

  graphsd::core::EngineOptions adaptive;
  graphsd::core::EngineOptions b3;
  b3.enable_selective = false;  // always the full I/O model
  graphsd::core::EngineOptions b4;
  b4.force_on_demand = true;  // always the on-demand model

  const auto r_adaptive = RunGraphSD(*device, dataset, Algo::kCc, adaptive);
  const auto r_b3 = RunGraphSD(*device, dataset, Algo::kCc, b3);
  const auto r_b4 = RunGraphSD(*device, dataset, Algo::kCc, b4);

  const auto t_adaptive = PerIteration(r_adaptive);
  const auto t_b3 = PerIteration(r_b3);
  const auto t_b4 = PerIteration(r_b4);
  const auto models = PerIterationModel(r_adaptive);

  TablePrinter table({"Iter", "AdaptiveIO(s)", "Full b3 IO(s)", "OnDemand b4 IO(s)",
                      "AdaptiveModel", "PickedBetter"});
  std::uint32_t max_iter = 0;
  for (const auto& [iter, _] : t_b3) max_iter = std::max(max_iter, iter);
  for (const auto& [iter, _] : t_b4) max_iter = std::max(max_iter, iter);

  int correct = 0;
  int scored = 0;
  for (std::uint32_t iter = 0; iter <= max_iter; ++iter) {
    const auto a = t_adaptive.count(iter) ? t_adaptive.at(iter) : 0.0;
    const auto f = t_b3.count(iter) ? t_b3.at(iter) : 0.0;
    const auto d = t_b4.count(iter) ? t_b4.at(iter) : 0.0;
    const char model = models.count(iter) ? models.at(iter) : '-';
    // Did the adaptive engine pick the model the forced engines prove
    // cheaper at this iteration? (Cost comparison is secondary: the forced
    // engines' frontier trajectories diverge from the adaptive one's once
    // cross-iteration removals kick in.)
    const double best = (f > 0 && d > 0) ? std::min(f, d) : std::max(f, d);
    bool better = a <= best * 1.15 || a == 0.0;
    if (f > 0 && d > 0) {
      const char cheaper = d <= f ? 'S' : 'F';
      better = better || model == cheaper || model == '-';
    }
    if (f > 0 || d > 0) {
      ++scored;
      if (better) ++correct;
    }
    table.AddRow({std::to_string(iter), Fmt(a, 3), Fmt(f, 3), Fmt(d, 3),
                  std::string(1, model), better ? "yes" : "NO"});
  }
  table.Print();
  std::printf("\nadaptive matched the better model in %d/%d iterations; "
              "totals: adaptive %.2fs, always-full %.2fs, always-on-demand "
              "%.2fs\n",
              correct, scored, r_adaptive.TotalSeconds(), r_b3.TotalSeconds(),
              r_b4.TotalSeconds());
  return 0;
}
