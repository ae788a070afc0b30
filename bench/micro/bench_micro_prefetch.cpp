// Prefetch-pipeline micro-benchmarks: the PrefetchStream window machinery
// (the loader's per-unit cost) and end-to-end engine runs across prefetch
// depths. Depth 0 is the synchronous baseline; the depth>0 series shows
// what the background loader costs on tiny, page-cache-resident graphs.
// Modeled device time is identical at every depth.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "algos/sssp.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "io/prefetch.hpp"
#include "partition/grid_builder.hpp"
#include "partition/grid_dataset.hpp"

namespace {

using namespace graphsd;

void BM_PrefetchStreamTake(benchmark::State& state) {
  // The full stream machinery over trivial fetches; depth 0 runs the same
  // closures inline (the synchronous fallback path).
  io::PrefetchPipeline pipeline(static_cast<std::size_t>(state.range(0)));
  constexpr int kUnits = 256;
  for (auto _ : state) {
    std::vector<io::PrefetchStream<int>::Unit> plan;
    plan.reserve(kUnits);
    for (int i = 0; i < kUnits; ++i) {
      io::PrefetchStream<int>::Unit unit;
      unit.skip = [] { return false; };
      unit.fetch = [i](int& out) {
        out = i;
        return Status::Ok();
      };
      plan.push_back(std::move(unit));
    }
    io::PrefetchStream<int> stream(&pipeline, std::move(plan));
    int sum = 0;
    for (int i = 0; i < kUnits; ++i) sum += stream.Take().payload;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kUnits);
}
BENCHMARK(BM_PrefetchStreamTake)->Arg(0)->Arg(1)->Arg(4);

/// Shared grid for the engine benches, built once.
const partition::GridDataset& MicroDataset(io::Device** device_out) {
  static std::unique_ptr<io::Device> device = io::MakePosixDevice();
  static std::unique_ptr<partition::GridDataset> dataset = [] {
    RmatOptions o;
    o.scale = 11;
    o.edge_factor = 8;
    o.max_weight = 10.0;
    const EdgeList g = GenerateRmat(o);
    partition::GridBuildOptions build;
    build.num_intervals = 4;
    const char* dir = "/tmp/graphsd_micro_prefetch";
    GRAPHSD_CHECK(partition::BuildGrid(g, *device, dir, build).ok());
    auto opened = partition::GridDataset::Open(*device, dir);
    GRAPHSD_CHECK(opened.ok());
    return std::make_unique<partition::GridDataset>(std::move(opened).value());
  }();
  *device_out = device.get();
  return *dataset;
}

void BM_EngineSsspAtDepth(benchmark::State& state) {
  io::Device* device = nullptr;
  const partition::GridDataset& dataset = MicroDataset(&device);
  core::EngineOptions options;
  options.prefetch_depth = static_cast<std::size_t>(state.range(0));
  double modeled = 0;
  for (auto _ : state) {
    core::GraphSDEngine engine(dataset, options);
    algos::Sssp sssp(0);
    auto report = engine.Run(sssp);
    GRAPHSD_CHECK(report.ok());
    modeled = report.value().TotalSeconds();
    benchmark::DoNotOptimize(modeled);
  }
  // Wall time above is pipeline overhead on a page-cache-resident graph;
  // the counter carries the modeled (virtual-device) charge.
  state.counters["modeled_s"] = modeled;
}
BENCHMARK(BM_EngineSsspAtDepth)->Arg(0)->Arg(1)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
