// graphsd — command-line front end for the GraphSD library.
//
//   graphsd generate   --type rmat|er|web|grid --out graph.bin [...]
//   graphsd convert    --input graph.txt --out graph.bin [--weighted]
//   graphsd preprocess --input graph.bin --out dataset_dir [--p N] [--system ...]
//   graphsd info       --dataset dataset_dir
//   graphsd verify     --dataset dataset_dir
//   graphsd run        --dataset dataset_dir --algo pr|prd|cc|sssp|bfs [...]
//                      [--checkpoint-dir DIR [--checkpoint-every N] [--resume]]
//                      [--deadline-seconds S]
//   graphsd serve      --socket /tmp/graphsd.sock [--workers N]
//                      [--no-share-buffer] [--no-batching] [...]
//   graphsd query      --socket /tmp/graphsd.sock --op run --dataset DIR
//                      --algo bfs --root R [--values] [...]
//   graphsd profile    --dir /path/on/target/disk
//   graphsd difftest   [--seeds N] [--seed0 S] [--artifact-dir DIR]
//                      [--replay artifact.txt] [--kill-resume]
//
// `run` prints the execution report and optionally dumps per-vertex values.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>

#include "algos/bfs.hpp"
#include "algos/connected_components.hpp"
#include "algos/pagerank.hpp"
#include "algos/pagerank_delta.hpp"
#include "algos/sssp.hpp"
#include "algos/personalized_pagerank.hpp"
#include "algos/widest_path.hpp"
#include "baselines/hus_graph_engine.hpp"
#include "baselines/lumos_engine.hpp"
#include "core/cancellation.hpp"
#include "core/engine.hpp"
#include "graph/edge_io.hpp"
#include "graph/generators.hpp"
#include "graph/reference_algorithms.hpp"
#include "io/profiler.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "partition/baseline_preprocessors.hpp"
#include "partition/dataset_verify.hpp"
#include "partition/external_builder.hpp"
#include "partition/grid_dataset.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "testing/artifact.hpp"
#include "testing/difftest.hpp"
#include "testing/temp_dir.hpp"
#include "util/checked_cast.hpp"
#include "util/cli.hpp"
#include "util/str_format.hpp"

namespace graphsd {
namespace {

// Upper bounds of numeric flags read into 32-bit fields, and of sizes given
// in MiB (their byte counts must fit in 64 bits).
constexpr std::int64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr std::int64_t kMiBMax = std::numeric_limits<std::int64_t>::max() >> 20;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Result<std::unique_ptr<io::Device>> MakeDevice(const CliFlags& flags) {
  return io::MakeDeviceForKind(flags.GetString("device"));
}

void DefineDeviceFlag(CliFlags& flags) {
  flags.Define("device", "scaled-hdd",
               "storage backend: scaled-hdd | sim:hdd | sim:ssd (modeled "
               "time) | real:ssd (O_DIRECT hardware reads) | posix");
}

int CmdGenerate(int argc, const char* const* argv) {
  CliFlags flags;
  flags.Define("type", "rmat", "rmat | er | web | grid");
  flags.Define("out", "graph.bin", "output binary edge file");
  flags.DefineInt("scale", "14", "rmat: log2 vertex count", kU32Max);
  flags.DefineInt("edge-factor", "16", "rmat: edges per vertex", kU32Max);
  flags.DefineInt("vertices", "16384", "er/web: vertex count", kU32Max);
  flags.DefineInt("edges", "262144", "er: edge count");
  flags.DefineInt("rows", "128", "grid: rows", kU32Max);
  flags.DefineInt("cols", "128", "grid: cols", kU32Max);
  flags.DefineInt("avg-degree", "16", "web: average out-degree", kU32Max);
  flags.DefineDouble("max-weight", "0", "attach uniform weights in [1,W] when > 0");
  flags.DefineDouble("whiskers", "0", "append this fraction of whisker vertices");
  flags.DefineInt("seed", "1", "generator seed");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);

  const std::string type = flags.GetString("type");
  const double max_weight = flags.GetDouble("max-weight");
  const auto seed = CheckedCast<std::uint64_t>(flags.GetInt("seed"));
  EdgeList graph;
  if (type == "rmat") {
    RmatOptions o;
    o.scale = CheckedCast<std::uint32_t>(flags.GetInt("scale"));
    o.edge_factor = CheckedCast<std::uint32_t>(flags.GetInt("edge-factor"));
    o.max_weight = max_weight;
    o.seed = seed;
    graph = GenerateRmat(o);
  } else if (type == "er") {
    ErdosRenyiOptions o;
    o.num_vertices = CheckedCast<VertexId>(flags.GetInt("vertices"));
    o.num_edges = CheckedCast<std::uint64_t>(flags.GetInt("edges"));
    o.max_weight = max_weight;
    o.seed = seed;
    graph = GenerateErdosRenyi(o);
  } else if (type == "web") {
    WebGraphOptions o;
    o.num_vertices = CheckedCast<VertexId>(flags.GetInt("vertices"));
    o.avg_degree = CheckedCast<std::uint32_t>(flags.GetInt("avg-degree"));
    o.max_weight = max_weight;
    o.seed = seed;
    graph = GenerateWebGraph(o);
  } else if (type == "grid") {
    graph = GenerateGrid2D(CheckedCast<VertexId>(flags.GetInt("rows")),
                           CheckedCast<VertexId>(flags.GetInt("cols")), seed,
                           max_weight);
  } else {
    std::fprintf(stderr, "unknown --type %s\n", type.c_str());
    return 1;
  }
  const double whiskers = flags.GetDouble("whiskers");
  if (whiskers > 0) {
    AppendWhiskers(graph,
                   static_cast<VertexId>(graph.num_vertices() * whiskers), 32,
                   seed, max_weight);
  }

  auto device = io::MakePosixDevice();
  if (Status s = WriteBinaryEdgeList(graph, *device, flags.GetString("out"));
      !s.ok()) {
    return Fail(s);
  }
  std::printf("%s: %u vertices, %llu edges%s\n",
              flags.GetString("out").c_str(), graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()),
              graph.weighted() ? " (weighted)" : "");
  return 0;
}

int CmdConvert(int argc, const char* const* argv) {
  CliFlags flags;
  flags.Define("input", "", "text edge list (src dst [weight] per line)");
  flags.Define("out", "graph.bin", "output binary edge file");
  flags.Define("weighted", "false", "parse the third column as weights");
  flags.Define("symmetrize", "false", "add reverse edges (for WCC)");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);

  auto list = ReadTextEdgeList(flags.GetString("input"),
                               flags.GetBool("weighted"));
  if (!list.ok()) return Fail(list.status());
  EdgeList graph = std::move(list).value();
  if (flags.GetBool("symmetrize")) graph = Symmetrize(graph);
  auto device = io::MakePosixDevice();
  if (Status s = WriteBinaryEdgeList(graph, *device, flags.GetString("out"));
      !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %llu edges over %u vertices to %s\n",
              static_cast<unsigned long long>(graph.num_edges()),
              graph.num_vertices(), flags.GetString("out").c_str());
  return 0;
}

int CmdPreprocess(int argc, const char* const* argv) {
  CliFlags flags;
  flags.Define("input", "graph.bin", "binary edge file (see generate/convert)");
  flags.Define("out", "dataset", "output dataset directory");
  flags.DefineInt("p", "0", "interval count (0 = derive from memory budget)", kU32Max);
  flags.DefineInt("memory-budget", "0", "bytes; 0 = 5% of the raw edge bytes");
  flags.Define("system", "graphsd", "pipeline: graphsd | hus | lumos");
  flags.Define("external", "false",
               "stream out of core (bounded memory; graphsd layout only)");
  flags.Define("name", "graph", "dataset name stored in the manifest");
  flags.Define("codec", "none",
               "edge-payload codec: none | varint-delta (graphsd layout "
               "only; baselines always write raw)");
  DefineDeviceFlag(flags);
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);

  auto device_or = MakeDevice(flags);
  if (!device_or.ok()) return Fail(device_or.status());
  std::unique_ptr<io::Device> device = std::move(device_or).value();
  partition::PreprocessOptions options;
  options.num_intervals = CheckedCast<std::uint32_t>(flags.GetInt("p"));
  options.memory_budget_bytes =
      CheckedCast<std::uint64_t>(flags.GetInt("memory-budget"));
  options.name = flags.GetString("name");
  options.codec = flags.GetString("codec");

  if (flags.GetBool("external")) {
    partition::ExternalBuildOptions external;
    external.num_intervals = options.num_intervals;
    external.memory_budget_bytes = options.memory_budget_bytes;
    external.name = options.name;
    external.codec = options.codec;
    auto manifest = partition::BuildGridExternal(
        flags.GetString("input"), *device, flags.GetString("out"), external);
    if (!manifest.ok()) return Fail(manifest.status());
    std::printf("out-of-core preprocessing: P=%u, %llu edges\n", manifest->p,
                static_cast<unsigned long long>(manifest->num_edges));
    return 0;
  }

  const std::string system = flags.GetString("system");
  Result<partition::PreprocessReport> report =
      InternalError("unknown system");
  if (system == "graphsd") {
    report = partition::PreprocessGraphSD(flags.GetString("input"), *device,
                                          flags.GetString("out"), options);
  } else if (system == "hus") {
    report = partition::PreprocessHusGraph(flags.GetString("input"), *device,
                                           flags.GetString("out"), options);
  } else if (system == "lumos") {
    report = partition::PreprocessLumos(flags.GetString("input"), *device,
                                        flags.GetString("out"), options);
  }
  if (!report.ok()) return Fail(report.status());
  std::printf("%s preprocessing: P=%u, modeled io %.3fs, pipeline wall "
              "%.3fs, traffic %s\n",
              report->system.c_str(), report->manifest.p, report->io_seconds,
              report->wall_seconds, report->io.ToString().c_str());
  return 0;
}

int CmdInfo(int argc, const char* const* argv) {
  CliFlags flags;
  flags.Define("dataset", "dataset", "dataset directory");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);
  auto device = io::MakePosixDevice();
  auto dataset =
      partition::GridDataset::Open(*device, flags.GetString("dataset"));
  if (!dataset.ok()) return Fail(dataset.status());
  const auto& m = dataset->manifest();
  std::printf("dataset '%s'\n", m.name.c_str());
  std::printf("  vertices:  %u\n", m.num_vertices);
  std::printf("  edges:     %llu%s\n",
              static_cast<unsigned long long>(m.num_edges),
              m.weighted ? " (weighted)" : "");
  std::printf("  intervals: %u (%s, %s)\n", m.p,
              m.sorted ? "sorted" : "unsorted",
              m.has_index ? "indexed" : "no index");
  std::printf("  payload:   %llu bytes\n",
              static_cast<unsigned long long>(m.TotalEdgeBytes()));
  if (m.compressed()) {
    std::printf("  codec:     %s (manifest v%u), edge frames %llu bytes on "
                "disk (%llu raw)\n",
                m.codec.c_str(), m.format_version,
                static_cast<unsigned long long>(m.TotalEdgeFileBytes()),
                static_cast<unsigned long long>(m.num_edges * kEdgeBytes));
  }
  std::printf("  sub-block edge counts:\n");
  for (std::uint32_t i = 0; i < m.p; ++i) {
    std::printf("   ");
    for (std::uint32_t j = 0; j < m.p; ++j) {
      std::printf(" %8llu", static_cast<unsigned long long>(m.EdgesIn(i, j)));
    }
    std::printf("\n");
  }
  return 0;
}

int CmdVerify(int argc, const char* const* argv) {
  CliFlags flags;
  flags.Define("dataset", "dataset", "dataset directory");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);
  auto report = partition::VerifyDataset(flags.GetString("dataset"));
  if (!report.ok()) return Fail(report.status());
  std::printf("%s\n", report->Summary().c_str());
  return report->ok() ? 0 : 1;
}

int CmdRun(int argc, const char* const* argv) {
  CliFlags flags;
  flags.Define("dataset", "dataset", "dataset directory");
  flags.Define("algo", "pr", "pr | prd | cc | sssp | bfs | widest | ppr");
  flags.Define("engine", "graphsd", "graphsd | hus | lumos");
  flags.DefineInt("iterations", "10", "pr: iteration count", kU32Max);
  flags.DefineDouble("epsilon", "1e-9", "prd: residual activation threshold");
  flags.DefineInt("root", "0", "sssp/bfs: source vertex", kU32Max);
  flags.Define("threads", "0",
               "ignored: a run is one consumer thread plus the prefetch "
               "readers (one on sim:*, two on real devices); still accepted "
               "because perfbench/run.py passes it");
  flags.Define("compute-threads", "0",
               "ignored: edge application is serial on one consumer thread; "
               "still accepted because perfbench/run.py passes it");
  flags.Define("no-cross-iteration", "false", "disable cross-iteration (b1)");
  flags.Define("no-selective", "false", "disable the on-demand model (b2)");
  flags.Define("no-buffer", "false", "disable the sub-block buffer");
  flags.Define("mode", "auto",
               "auto | semi: semi keeps vertex state RAM-resident and adds "
               "skip-summary selective streaming as a third scheduler choice");
  flags.DefineInt("prefetch-depth", "4",
               "async read look-ahead in fetch units (0 = synchronous I/O)");
  flags.Define("values-out", "", "write per-vertex results to this file");
  flags.Define("trace-out", "",
               "write a chrome://tracing JSON of per-iteration phases "
               "(graphsd engine only)");
  flags.Define("report-json", "",
               "write the machine-readable run report to this file");
  flags.Define("checkpoint-dir", "",
               "write crash-safe GSCK checkpoints into this directory "
               "(graphsd engine only)");
  flags.DefineInt("checkpoint-every", "1",
               "checkpoint every N committed iterations", kU32Max);
  flags.Define("resume", "false",
               "resume from the latest valid checkpoint in --checkpoint-dir");
  flags.DefineDouble("deadline-seconds", "0",
               "cancel the run after this many wall-clock seconds (0 = none)");
  DefineDeviceFlag(flags);
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);

  auto device_or = MakeDevice(flags);
  if (!device_or.ok()) return Fail(device_or.status());
  std::unique_ptr<io::Device> device = std::move(device_or).value();
  auto dataset =
      partition::GridDataset::Open(*device, flags.GetString("dataset"));
  if (!dataset.ok()) return Fail(dataset.status());

  std::unique_ptr<core::Program> program;
  const std::string algo = flags.GetString("algo");
  if (algo == "pr") {
    program = std::make_unique<algos::PageRank>(
        CheckedCast<std::uint32_t>(flags.GetInt("iterations")));
  } else if (algo == "prd") {
    program =
        std::make_unique<algos::PageRankDelta>(flags.GetDouble("epsilon"));
  } else if (algo == "cc") {
    program = std::make_unique<algos::ConnectedComponents>();
  } else if (algo == "sssp") {
    program = std::make_unique<algos::Sssp>(
        CheckedCast<VertexId>(flags.GetInt("root")));
  } else if (algo == "bfs") {
    program = std::make_unique<algos::Bfs>(
        CheckedCast<VertexId>(flags.GetInt("root")));
  } else if (algo == "widest") {
    program = std::make_unique<algos::WidestPath>(
        CheckedCast<VertexId>(flags.GetInt("root")));
  } else if (algo == "ppr") {
    program = std::make_unique<algos::PersonalizedPageRank>(
        CheckedCast<VertexId>(flags.GetInt("root")),
        flags.GetDouble("epsilon"));
  } else {
    std::fprintf(stderr, "unknown --algo %s\n", algo.c_str());
    return 1;
  }

  const std::string engine_kind = flags.GetString("engine");
  Result<core::ExecutionReport> report = InternalError("unknown engine");
  const core::VertexState* state = nullptr;
  core::GraphSDEngine* graphsd_engine = nullptr;

  const std::string trace_out = flags.GetString("trace-out");
  const std::string report_json = flags.GetString("report-json");
  obs::TraceBuffer trace;
  obs::MetricsRegistry metrics;
  const bool want_obs = !trace_out.empty() || !report_json.empty();

  std::unique_ptr<core::GraphSDEngine> gsd;
  std::unique_ptr<baselines::HusGraphEngine> hus;
  std::unique_ptr<baselines::LumosEngine> lumos;
  graphsd::CancellationToken interrupt_token;
  if (engine_kind == "graphsd") {
    core::EngineOptions options;
    options.enable_cross_iteration = !flags.GetBool("no-cross-iteration");
    options.enable_selective = !flags.GetBool("no-selective");
    options.enable_buffering = !flags.GetBool("no-buffer");
    const std::string mode = flags.GetString("mode");
    if (mode == "semi") {
      options.semi_external = true;
    } else if (mode != "auto") {
      std::fprintf(stderr, "unknown --mode %s (auto | semi)\n", mode.c_str());
      return 1;
    }
    options.prefetch_depth =
        CheckedCast<std::size_t>(flags.GetInt("prefetch-depth"));
    if (!trace_out.empty()) options.trace = &trace;
    if (want_obs) options.metrics = &metrics;
    options.checkpoint_dir = flags.GetString("checkpoint-dir");
    options.checkpoint_every =
        CheckedCast<std::uint32_t>(flags.GetInt("checkpoint-every"));
    options.resume = flags.GetBool("resume");
    options.deadline_seconds = flags.GetDouble("deadline-seconds");
    options.cancel = &interrupt_token;
    gsd = std::make_unique<core::GraphSDEngine>(*dataset, options);
    graphsd_engine = gsd.get();
    // Ctrl-C / SIGTERM trips the token instead of killing the process: the
    // engine rolls back to the last committed boundary, writes a final
    // checkpoint (when --checkpoint-dir is set) and returns a partial
    // report. A second signal force-exits.
    core::SignalCancellationScope signal_scope(&interrupt_token);
    report = gsd->Run(*program);
    state = gsd->state();
  } else if (engine_kind == "hus") {
    hus = std::make_unique<baselines::HusGraphEngine>(*dataset);
    report = hus->Run(*program);
    state = hus->state();
  } else if (engine_kind == "lumos") {
    lumos = std::make_unique<baselines::LumosEngine>(*dataset);
    report = lumos->Run(*program);
    state = lumos->state();
  } else {
    std::fprintf(stderr, "unknown --engine %s\n", engine_kind.c_str());
    return 1;
  }
  (void)graphsd_engine;
  if (!report.ok()) return Fail(report.status());
  std::printf("%s", report->Summary().c_str());

  if (!trace_out.empty()) {
    if (Status s = obs::WriteChromeTrace(trace, trace_out); !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote %zu trace events to %s\n", trace.event_count(),
                trace_out.c_str());
  }
  if (!report_json.empty()) {
    const io::IoCostModel& cost_model = device->options().cost_model;
    if (Status s = obs::WriteRunReport(*report, cost_model, report_json,
                                       metrics.size() > 0 ? &metrics : nullptr);
        !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote run report to %s\n", report_json.c_str());
  }

  const std::string values_out = flags.GetString("values-out");
  if (!values_out.empty() && state != nullptr) {
    // One "<vertex> <%.17g value>" line per vertex, formatted into one
    // buffer and written with a single fwrite.
    std::string text;
    text.reserve(static_cast<std::size_t>(state->num_vertices()) * 32);
    for (VertexId v = 0; v < state->num_vertices(); ++v) {
      char id[16];
      text.append(id, std::to_chars(id, id + sizeof(id), v).ptr);
      text.push_back(' ');
      AppendDouble17g(&text, program->ValueOf(*state, v));
      text.push_back('\n');
    }
    std::FILE* f = std::fopen(values_out.c_str(), "w");
    if (f == nullptr) return Fail(ErrnoError("fopen " + values_out, errno));
    const bool written = std::fwrite(text.data(), 1, text.size(), f) ==
                         text.size();
    if (std::fclose(f) != 0 || !written) {
      return Fail(ErrnoError("write " + values_out, errno));
    }
    std::printf("wrote %u vertex values to %s\n", state->num_vertices(),
                values_out.c_str());
  }
  // Shell convention for interrupted commands: 128 + SIGINT. The partial
  // report, values and checkpoint above are still written, so a later
  // `--resume` picks up exactly where this run stopped.
  return report->cancelled ? 130 : 0;
}

int CmdProfile(int argc, const char* const* argv) {
  CliFlags flags;
  flags.Define("dir", "/tmp", "directory on the device to profile");
  flags.DefineInt("file-mb", "64", "scratch file size in MiB", kMiBMax);
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);
  io::ProfilerOptions options;
  options.file_bytes =
      CheckedCast<std::uint64_t>(flags.GetInt("file-mb")) * 1024 * 1024;
  auto result = io::ProfileDevice(flags.GetString("dir"), options);
  if (!result.ok()) return Fail(result.status());
  const io::IoCostModel model = result->ToCostModel(64 * 1024);
  std::printf("seq read  %.1f MiB/s\nseq write %.1f MiB/s\n"
              "rand read %.1f MiB/s (64 KiB requests)\n"
              "rand write %.1f MiB/s\nfitted model: %s\n",
              result->seq_read_bw / (1 << 20),
              result->seq_write_bw / (1 << 20),
              result->rand_read_bw / (1 << 20),
              result->rand_write_bw / (1 << 20), model.ToString().c_str());
  return 0;
}

// Differential correctness harness (DESIGN.md §11): randomized
// engine-vs-oracle sweep, or deterministic replay of a repro artifact.
// Exits nonzero when any divergence is found (replay included), printing a
// value-level first-divergence report.
int CmdDifftest(int argc, const char* const* argv) {
  CliFlags flags;
  flags.Define("replay", "", "re-execute a repro artifact instead of sweeping");
  flags.DefineInt("seeds", "8", "sweep: number of random seeds", kU32Max);
  flags.DefineInt("seed0", "1", "sweep: first seed");
  flags.Define("artifact-dir", "",
               "sweep: where minimized repro artifacts are written");
  flags.Define("inject-fault", "none",
               "deliberate engine fault for harness self-tests: "
               "none | drop_max_edge");
  flags.Define("kill-resume", "false",
               "run the crash-safety sweep instead: kill checkpointed runs "
               "at randomized points, damage slots, resume, require "
               "bit-identical results");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);

  const std::string replay = flags.GetString("replay");
  if (!replay.empty()) {
    auto artifact = testing::ReadArtifact(replay);
    if (!artifact.ok()) return Fail(artifact.status());
    auto scratch = testing::ScratchDir::Create();
    if (!scratch.ok()) return Fail(scratch.status());
    auto divergence = testing::ReplayArtifact(*artifact, scratch->path());
    if (!divergence.ok()) return Fail(divergence.status());
    std::printf("replay %s: algo=%s model=%s p=%u codec=%s "
                "cross=%d depth=%u fault=%s (%u vertices, %llu edges)\n",
                replay.c_str(), artifact->algo.c_str(),
                artifact->model.c_str(), artifact->p, artifact->codec.c_str(),
                artifact->cross_iteration ? 1 : 0,
                artifact->prefetch_depth, testing::FaultName(artifact->fault),
                artifact->graph.num_vertices(),
                static_cast<unsigned long long>(artifact->graph.num_edges()));
    if (!divergence->has_value()) {
      std::printf("no divergence: engine matches the oracle\n");
      return 0;
    }
    std::fprintf(stderr, "DIVERGENCE %s\n",
                 testing::DescribeDivergence(**divergence).c_str());
    return 1;
  }

  if (flags.GetBool("kill-resume")) {
    testing::KillResumeSweepOptions kr;
    kr.num_seeds = CheckedCast<std::uint32_t>(flags.GetInt("seeds"));
    kr.seed0 = CheckedCast<std::uint64_t>(flags.GetInt("seed0"));
    kr.progress = [](const std::string& line) {
      std::printf("%s\n", line.c_str());
    };
    auto summary = testing::RunKillResumeSweep(kr);
    if (!summary.ok()) return Fail(summary.status());
    std::printf("difftest --kill-resume: %llu combos over %llu graphs "
                "(%llu datasets), %zu divergence(s)\n",
                static_cast<unsigned long long>(summary->combos_run),
                static_cast<unsigned long long>(summary->graphs),
                static_cast<unsigned long long>(summary->datasets_built),
                summary->divergences.size());
    if (!summary->divergences.empty()) {
      std::fprintf(stderr, "DIVERGENCE %s\n",
                   testing::DescribeDivergence(summary->divergences[0]).c_str());
      return 1;
    }
    return 0;
  }

  testing::SweepOptions options;
  options.num_seeds =
      CheckedCast<std::uint32_t>(flags.GetInt("seeds"));
  options.seed0 = CheckedCast<std::uint64_t>(flags.GetInt("seed0"));
  options.artifact_dir = flags.GetString("artifact-dir");
  if (flags.GetString("inject-fault") == "drop_max_edge") {
    options.fault = testing::EngineFault::kDropMaxEdge;
  }
  options.progress = [](const std::string& line) {
    std::printf("%s\n", line.c_str());
  };
  auto summary = testing::RunSweep(options);
  if (!summary.ok()) return Fail(summary.status());
  std::printf("difftest: %llu combos over %llu graphs (%llu datasets), "
              "%zu divergence(s)\n",
              static_cast<unsigned long long>(summary->combos_run),
              static_cast<unsigned long long>(summary->graphs),
              static_cast<unsigned long long>(summary->datasets_built),
              summary->divergences.size());
  for (const std::string& path : summary->artifact_paths) {
    std::printf("repro artifact: %s\n", path.c_str());
  }
  if (!summary->divergences.empty()) {
    std::fprintf(stderr, "DIVERGENCE %s\n",
                 testing::DescribeDivergence(summary->divergences[0]).c_str());
    return 1;
  }
  return 0;
}

// Resident query daemon (DESIGN.md §13). Blocks until a `shutdown` request
// or SIGINT/SIGTERM drains the service; a second signal force-exits.
int CmdServe(int argc, const char* const* argv) {
  CliFlags flags;
  flags.Define("socket", "/tmp/graphsd.sock", "unix socket path to listen on");
  flags.DefineInt("workers", "2", "concurrent engine runs");
  flags.Define("engine-threads", "0",
               "ignored: each engine run applies on its worker thread; "
               "still accepted because perfbench/run.py passes it");
  flags.DefineInt("buffer-mb", "0",
               "shared sub-block buffer per dataset in MiB (0 = 5% of edges)", kMiBMax);
  flags.DefineInt("prefetch-depth", "4",
               "async read look-ahead in fetch units (0 = synchronous I/O)");
  flags.Define("no-share-buffer", "false",
               "give every run a private buffer + prefetch tier instead of "
               "the dataset-shared one");
  flags.Define("no-batching", "false",
               "disable multi-source coalescing of compatible queries");
  flags.DefineInt("max-batch", "8", "max value lanes per batched run", kU32Max);
  flags.DefineDouble("batch-linger-ms", "2",
               "how long a worker waits for extra batch members");
  flags.DefineInt("max-queue", "64", "admission: max in-flight run requests");
  flags.DefineInt("max-iterations", "10000",
               "admission: iteration cap per query", kU32Max);
  flags.DefineDouble("max-deadline-seconds", "300",
               "admission: per-query deadline cap (also the default)");
  flags.Define("no-verify-on-open", "false",
               "skip dataset checksum verification at first open");
  flags.Define("scratch-dir", "",
               "per-run scratch root (default: <socket>.scratch)");
  DefineDeviceFlag(flags);
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);

  service::ServerOptions options;
  options.socket_path = flags.GetString("socket");
  options.registry.device = flags.GetString("device");
  options.registry.buffer_capacity_bytes =
      CheckedCast<std::uint64_t>(flags.GetInt("buffer-mb")) * 1024 * 1024;
  options.registry.prefetch_depth =
      CheckedCast<std::size_t>(flags.GetInt("prefetch-depth"));
  options.registry.verify_on_open = !flags.GetBool("no-verify-on-open");
  options.limits.max_queue = CheckedCast<std::size_t>(flags.GetInt("max-queue"));
  options.limits.max_iterations =
      CheckedCast<std::uint32_t>(flags.GetInt("max-iterations"));
  options.limits.max_deadline_seconds =
      flags.GetDouble("max-deadline-seconds");
  options.workers = CheckedCast<std::size_t>(flags.GetInt("workers"));
  options.share_buffer = !flags.GetBool("no-share-buffer");
  options.enable_batching = !flags.GetBool("no-batching");
  options.max_batch = CheckedCast<std::uint32_t>(flags.GetInt("max-batch"));
  options.batch_linger_ms = flags.GetDouble("batch-linger-ms");
  options.scratch_dir = flags.GetString("scratch-dir");

  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  graphsd::CancellationToken interrupt_token;
  options.external_cancel = &interrupt_token;

  service::QueryServer server(std::move(options));
  // First signal trips the token: the daemon stops accepting work, drains
  // queued queries as cancelled partial reports, and exits cleanly. A
  // second signal force-exits.
  core::SignalCancellationScope signal_scope(&interrupt_token);
  if (Status s = server.Start(); !s.ok()) return Fail(s);
  std::printf("graphsd serve: listening on %s (workers=%zu, sharing=%s, "
              "batching=%s)\n",
              server.socket_path().c_str(),
              CheckedCast<std::size_t>(flags.GetInt("workers")),
              flags.GetBool("no-share-buffer") ? "off" : "on",
              flags.GetBool("no-batching") ? "off" : "on");
  std::fflush(stdout);
  server.Wait();
  const service::ServiceStats stats = server.stats();
  std::printf("graphsd serve: exiting after %llu requests (%llu runs, "
              "%llu batches, %llu errors)\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.runs),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.errors));
  return 0;
}

// One-shot client: builds a request line, prints the response JSON.
int CmdQuery(int argc, const char* const* argv) {
  CliFlags flags;
  flags.Define("socket", "/tmp/graphsd.sock", "daemon socket path");
  flags.Define("op", "run", "ping | info | verify | stats | run | shutdown");
  flags.Define("dataset", "", "dataset directory (a server-side path)");
  flags.Define("algo", "bfs",
               "pr | prd | cc | bfs | sssp | widest_path | ppr");
  flags.DefineInt("root", "0", "source vertex for single-source algorithms", kU32Max);
  flags.DefineInt("iterations", "0", "iteration cap (0 = service default)", kU32Max);
  flags.DefineDouble("epsilon", "1e-10", "residual threshold (prd/ppr)");
  flags.DefineDouble("deadline-seconds", "0",
               "per-query deadline (0 = the service cap)");
  flags.Define("values", "false", "request per-vertex values (hex doubles)");
  flags.Define("vertices", "",
               "comma-separated vertex ids for --values (empty = all)");
  flags.DefineInt("id", "1", "request id echoed back in the response");
  flags.DefineDouble("timeout-seconds", "300", "client receive timeout");
  flags.Define("line", "", "send this raw JSON line instead of building one");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);

  std::string line = flags.GetString("line");
  if (line.empty()) {
    obs::JsonWriter json;
    json.BeginObject();
    json.Field("id", CheckedCast<std::uint64_t>(flags.GetInt("id")));
    json.Field("op", flags.GetString("op"));
    if (!flags.GetString("dataset").empty()) {
      json.Field("dataset", flags.GetString("dataset"));
    }
    if (flags.GetString("op") == "run") {
      json.Field("algo", flags.GetString("algo"));
      json.Field("root", CheckedCast<std::uint64_t>(flags.GetInt("root")));
      if (flags.GetInt("iterations") > 0) {
        json.Field("iterations",
                   CheckedCast<std::uint64_t>(flags.GetInt("iterations")));
      }
      json.Field("epsilon", flags.GetDouble("epsilon"));
      if (flags.GetDouble("deadline-seconds") > 0) {
        json.Field("deadline_seconds", flags.GetDouble("deadline-seconds"));
      }
      if (flags.GetBool("values")) {
        json.Field("values", true);
        const std::string list = flags.GetString("vertices");
        if (!list.empty()) {
          json.Key("vertices");
          json.BeginArray();
          std::size_t start = 0;
          while (start < list.size()) {
            std::size_t comma = list.find(',', start);
            if (comma == std::string::npos) comma = list.size();
            json.Uint(std::strtoull(
                list.substr(start, comma - start).c_str(), nullptr, 10));
            start = comma + 1;
          }
          json.EndArray();
        }
      }
    }
    json.EndObject();
    line = json.Finish();
  }

  service::ServiceClient client;
  if (Status s = client.Connect(flags.GetString("socket")); !s.ok()) {
    return Fail(s);
  }
  auto response =
      client.RoundTrip(line, flags.GetDouble("timeout-seconds"));
  if (!response.ok()) return Fail(response.status());
  std::printf("%s\n", response->c_str());

  // Exit-code mirrors the one-shot CLI: 0 ok, 130 cancelled partial
  // result, 1 service-side error (the response line still prints).
  auto parsed = service::ParseJson(*response);
  if (!parsed.ok()) return Fail(parsed.status());
  if (!parsed->GetBool("ok", false)) return 1;
  const service::JsonValue* exit_code = parsed->Find("exit_code");
  if (exit_code != nullptr && exit_code->is_number()) {
    return static_cast<int>(exit_code->number());
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: graphsd <command> [flags]\n"
               "commands: generate convert preprocess info verify run "
               "serve query profile difftest\n"
               "run `graphsd <command> --help=true` is not supported; see\n"
               "tools/graphsd_cli.cpp for every flag.\n");
  return 1;
}

}  // namespace
}  // namespace graphsd

int main(int argc, char** argv) {
  if (argc < 2) return graphsd::Usage();
  const std::string command = argv[1];
  // Shift argv so each command parses only its own flags.
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  if (command == "generate") return graphsd::CmdGenerate(sub_argc, sub_argv);
  if (command == "convert") return graphsd::CmdConvert(sub_argc, sub_argv);
  if (command == "preprocess") {
    return graphsd::CmdPreprocess(sub_argc, sub_argv);
  }
  if (command == "info") return graphsd::CmdInfo(sub_argc, sub_argv);
  if (command == "verify") return graphsd::CmdVerify(sub_argc, sub_argv);
  if (command == "run") return graphsd::CmdRun(sub_argc, sub_argv);
  if (command == "serve") return graphsd::CmdServe(sub_argc, sub_argv);
  if (command == "query") return graphsd::CmdQuery(sub_argc, sub_argv);
  if (command == "profile") return graphsd::CmdProfile(sub_argc, sub_argv);
  if (command == "difftest") return graphsd::CmdDifftest(sub_argc, sub_argv);
  return graphsd::Usage();
}
