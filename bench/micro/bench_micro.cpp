// Micro-benchmarks (google-benchmark) for the engineering substrate:
// bitset frontiers, the filtered apply loop, CRC32C checksums,
// varint-delta decode, grid partitioning, sub-block loading, and the
// scheduler's evaluation pass.
// Not paper figures — these quantify the building blocks the figures are
// made of.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "compress/codec.hpp"
#include "compress/frame.hpp"
#include "core/program.hpp"
#include "core/scheduler.hpp"
#include "graph/generators.hpp"
#include "partition/grid_builder.hpp"
#include "partition/grid_dataset.hpp"
#include "util/bitset.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"

namespace {

using namespace graphsd;

void BM_BitsetTestAndSet(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  ConcurrentBitset bits(n);
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bits.TestAndSet(rng.NextBounded(n)));
  }
}
BENCHMARK(BM_BitsetTestAndSet);

void BM_BitsetIterate(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  ConcurrentBitset bits(n);
  Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) bits.Set(rng.NextBounded(n));
  for (auto _ : state) {
    std::size_t sum = 0;
    bits.ForEachSet([&](std::size_t i) { sum += i; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BitsetIterate);

// One filtered push pass (an SSSP-style min combine) over a sorted block
// of an `sssp-web`-shaped grid: 24576-vertex intervals, sources in the
// first, a frontier with `permille`/1000 of all vertices active at random.
// range(0): 0 = a diagonal block (about 530 k edges, 21.6 per source),
// 1 = an off-diagonal one (about 33 k edges from 90 % of the sources, 1.5
// each). range(2): 0 = the linear per-edge test, 1 = the active-source
// walk. Items/s counts the block's edges, applied or not.
void BM_FilteredApply(benchmark::State& state) {
  constexpr VertexId kInterval = 24576;
  const bool off_diagonal = state.range(0) != 0;
  const double density = static_cast<double>(state.range(1)) / 1000.0;
  Xoshiro256 rng(27);
  std::vector<Edge> edges;
  std::vector<Weight> weights;
  const VertexId dst_first = off_diagonal ? kInterval : 0;
  for (VertexId src = 0; src < kInterval; ++src) {
    const double u = rng.NextDouble();
    std::uint64_t degree = 0;
    if (off_diagonal) {
      degree = u < 0.9 ? 1 + rng.NextBounded(2) : 0;
    } else {
      degree = 1 + rng.NextBounded(42);
    }
    for (std::uint64_t d = 0; d < degree; ++d) {
      edges.push_back(Edge{src, dst_first + static_cast<VertexId>(
                                                rng.NextBounded(kInterval))});
      weights.push_back(rng.NextFloat(1.0f, 100.0f));
    }
  }
  std::sort(edges.begin(), edges.end());
  core::Frontier active(2 * kInterval);
  for (VertexId v = 0; v < 2 * kInterval; ++v) {
    if (rng.NextDouble() < density) active.Activate(v);
  }
  std::vector<double> dist(2 * kInterval, 1e300);
  core::ApplyPass pass = core::EdgePass(edges, weights, /*need_weights=*/true,
                                        dst_first, dst_first + kInterval);
  pass.sources = &active;
  pass.sorted_by_src = state.range(2) != 0;
  benchmark::DoNotOptimize(dist.data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ForEachPassEdge(
        pass, [&](VertexId src, VertexId dst, Weight w) {
          const double candidate = static_cast<double>(src) + w;
          if (candidate < dist[dst]) dist[dst] = candidate;
        }));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_FilteredApply)
    ->ArgNames({"offdiag", "permille", "walk"})
    ->ArgsProduct({{0, 1}, {1, 10, 100, 500, 1000}, {0, 1}});

// CRC32C over a 1 MiB buffer: the portable slice-by-8 routine against the
// dispatched one (SSE4.2 where the CPU has it). Bytes/s is the checksum
// throughput every verified sub-block read pays.
template <std::uint32_t (*kCrc)(std::uint32_t, const void*,
                                std::size_t) noexcept>
void BM_Crc32c(benchmark::State& state) {
  std::vector<std::uint8_t> data(1 << 20);
  Xoshiro256 rng(1);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(kCrc(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}

// `Crc32c` is overloaded; this names the (crc, data, size) one.
std::uint32_t Crc32cDispatched(std::uint32_t crc, const void* data,
                               std::size_t size) noexcept {
  return Crc32c(crc, data, size);
}
BENCHMARK(BM_Crc32c<Crc32cPortable>)->Name("BM_Crc32c/portable");
BENCHMARK(BM_Crc32c<Crc32cDispatched>)->Name("BM_Crc32c/dispatched");

// The largest sub-block of an RMAT scale-16 graph, framed by the real grid
// builder: its varint-delta payload and decoded size. Built once.
struct DecodeInput {
  PooledArray<std::uint8_t> frame;
  std::size_t raw_bytes = 0;
};

const DecodeInput& RmatDecodeInput() {
  static const DecodeInput input = [] {
    RmatOptions o;
    o.scale = 16;
    o.edge_factor = 16;
    const EdgeList g = GenerateRmat(o);
    auto device = io::MakePosixDevice();
    const std::string dir = "/tmp/graphsd_micro_decode";
    partition::GridBuildOptions build;
    build.num_intervals = 4;
    build.codec = "varint-delta";
    (void)partition::BuildGrid(g, *device, dir, build);
    auto dataset = partition::GridDataset::Open(*device, dir);
    const partition::GridManifest& m = dataset->manifest();
    std::uint32_t bi = 0;
    std::uint32_t bj = 0;
    for (std::uint32_t i = 0; i < m.p; ++i) {
      for (std::uint32_t j = 0; j < m.p; ++j) {
        if (m.EdgesIn(i, j) > m.EdgesIn(bi, bj)) {
          bi = i;
          bj = j;
        }
      }
    }
    DecodeInput out;
    out.frame = std::move(dataset->FetchSubBlock(bi, bj, false)->frame);
    out.raw_bytes = m.EdgesIn(bi, bj) * kEdgeBytes;
    (void)io::RemoveTree(dir);
    return out;
  }();
  return input;
}

// varint-delta decode of that sub-block: the checked byte-at-a-time
// decoder, the portable word-at-a-time kernel, and the kernel
// `VarintDeltaCodec().Decode` dispatches to (masked VByte where the CPU
// has SSSE3, BMI1 and BMI2). Bytes/s counts decoded (raw edge) bytes, the
// unit of perfbench's compress.decode_mib_per_s.
void BM_VarintDeltaDecode(benchmark::State& state,
                          Status (*decode)(std::span<const std::uint8_t>,
                                           std::span<std::uint8_t>)) {
  const DecodeInput& input = RmatDecodeInput();
  const auto encoded = std::span<const std::uint8_t>(input.frame)
                           .subspan(compress::kFrameHeaderBytes);
  std::vector<std::uint8_t> raw(input.raw_bytes);
  for (auto _ : state) {
    if (!decode(encoded, raw).ok()) state.SkipWithError("decode failed");
    benchmark::DoNotOptimize(raw.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw.size()));
}
BENCHMARK_CAPTURE(BM_VarintDeltaDecode, checked,
                  &compress::VarintDeltaDecodeChecked);
BENCHMARK_CAPTURE(BM_VarintDeltaDecode, portable,
                  compress::VarintDeltaKernels().front().decode);
BENCHMARK_CAPTURE(BM_VarintDeltaDecode, dispatched,
                  +[](std::span<const std::uint8_t> encoded,
                      std::span<std::uint8_t> raw) {
                    return compress::VarintDeltaCodec().Decode(encoded, raw);
                  });

void BM_RmatGeneration(benchmark::State& state) {
  for (auto _ : state) {
    RmatOptions o;
    o.scale = static_cast<std::uint32_t>(state.range(0));
    o.edge_factor = 8;
    benchmark::DoNotOptimize(GenerateRmat(o).num_edges());
  }
}
BENCHMARK(BM_RmatGeneration)->Arg(10)->Arg(12);

void BM_GridBuild(benchmark::State& state) {
  RmatOptions o;
  o.scale = 12;
  o.edge_factor = 8;
  const EdgeList g = GenerateRmat(o);
  auto device = io::MakePosixDevice();
  for (auto _ : state) {
    partition::GridBuildOptions build;
    build.num_intervals = static_cast<std::uint32_t>(state.range(0));
    auto result =
        partition::BuildGrid(g, *device, "/tmp/graphsd_micro_grid", build);
    benchmark::DoNotOptimize(result.ok());
  }
  (void)io::RemoveTree("/tmp/graphsd_micro_grid");
}
BENCHMARK(BM_GridBuild)->Arg(4)->Arg(16);

void BM_SubBlockLoad(benchmark::State& state) {
  RmatOptions o;
  o.scale = 12;
  o.edge_factor = 8;
  const EdgeList g = GenerateRmat(o);
  auto device = io::MakePosixDevice();
  partition::GridBuildOptions build;
  build.num_intervals = 4;
  (void)partition::BuildGrid(g, *device, "/tmp/graphsd_micro_load", build);
  auto dataset = partition::GridDataset::Open(*device, "/tmp/graphsd_micro_load");
  for (auto _ : state) {
    auto block = dataset->LoadSubBlock(0, 0, false);
    benchmark::DoNotOptimize(block->edges.size());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(dataset->SubBlockBytes(0, 0, false)));
  (void)io::RemoveTree("/tmp/graphsd_micro_load");
}
BENCHMARK(BM_SubBlockLoad);

void BM_SchedulerEvaluate(benchmark::State& state) {
  RmatOptions o;
  o.scale = 14;
  o.edge_factor = 8;
  const EdgeList g = GenerateRmat(o);
  auto device = io::MakePosixDevice();
  partition::GridBuildOptions build;
  build.num_intervals = 8;
  (void)partition::BuildGrid(g, *device, "/tmp/graphsd_micro_sched", build);
  auto dataset =
      partition::GridDataset::Open(*device, "/tmp/graphsd_micro_sched");
  core::StateAwareScheduler scheduler(*dataset, io::IoCostModel::Hdd());
  core::Frontier active(dataset->num_vertices());
  Xoshiro256 rng(1);
  for (std::uint64_t i = 0; i < dataset->num_vertices() / 10; ++i) {
    active.Activate(
        static_cast<VertexId>(rng.NextBounded(dataset->num_vertices())));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.Evaluate(active, 8, false).on_demand);
  }
  (void)io::RemoveTree("/tmp/graphsd_micro_sched");
}
BENCHMARK(BM_SchedulerEvaluate);

}  // namespace

BENCHMARK_MAIN();
