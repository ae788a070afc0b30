// perfprobe — what the benchmark (run.py) needs from the library that
// the `graphsd` CLI does not expose: oracle results for the output checks,
// and timed calls into single layers.
//
//   perfprobe reference --graph G.bin --algo pr|sssp --out FILE
//                       [--iterations N] [--root R]
//       ReferencePageRank / ReferenceSssp values, n little-endian doubles.
//   perfprobe bfs --graph G.bin --seed S --roots K --out FILE
//       K distinct seeded roots with nonzero out-degree, then ReferenceBfs
//       levels per root: u32 K, K × u32 root, K × n × u32 level.
//   perfprobe layers --dataset DIR --weights true|false
//       Times DeviceFile::ReadAt on a real:ssd device over the sub-block
//       payload files a run streams (kLayerPasses passes), Crc32c over the
//       same bytes, and GridDataset::DecodeSubBlock over every frame; prints
//       one JSON line.
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/edge_io.hpp"
#include "graph/reference_algorithms.hpp"
#include "io/device.hpp"
#include "partition/grid_dataset.hpp"
#include "partition/manifest.hpp"
#include "util/aligned_buffer.hpp"
#include "util/checked_cast.hpp"
#include "util/cli.hpp"
#include "util/clock.hpp"
#include "util/crc32c.hpp"

namespace graphsd {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "perfprobe: %s\n", status.ToString().c_str());
  return 1;
}

Result<EdgeList> LoadGraph(const std::string& path) {
  auto device = io::MakePosixDevice();
  return ReadBinaryEdgeList(*device, path);
}

template <typename T>
Status WriteRaw(std::FILE* f, const T* data, std::size_t count) {
  if (std::fwrite(data, sizeof(T), count, f) != count) {
    return InternalError("short write");
  }
  return Status::Ok();
}

int CmdReference(int argc, const char* const* argv) {
  CliFlags flags;
  flags.Define("graph", "", "GSDE binary edge file");
  flags.Define("algo", "pr", "pr | sssp");
  flags.Define("iterations", "10", "pr: iteration count");
  flags.Define("root", "0", "sssp: source vertex");
  flags.Define("out", "", "output file of n doubles");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);
  auto graph = LoadGraph(flags.GetString("graph"));
  if (!graph.ok()) return Fail(graph.status());

  std::vector<double> values;
  const std::string algo = flags.GetString("algo");
  if (algo == "pr") {
    values = ReferencePageRank(
        *graph, CheckedCast<std::uint32_t>(flags.GetInt("iterations")));
  } else if (algo == "sssp") {
    const auto root = CheckedCast<VertexId>(flags.GetInt("root"));
    if (root >= graph->num_vertices()) {
      return Fail(InvalidArgumentError("root out of range"));
    }
    values = ReferenceSssp(*graph, root);
  } else {
    return Fail(InvalidArgumentError("unknown --algo " + algo));
  }
  std::FILE* f = std::fopen(flags.GetString("out").c_str(), "wb");
  if (f == nullptr) return Fail(ErrnoError("fopen", errno));
  const Status written = WriteRaw(f, values.data(), values.size());
  if (std::fclose(f) != 0 || !written.ok()) {
    return Fail(InternalError("writing " + flags.GetString("out")));
  }
  return 0;
}

// SplitMix64: a fixed, platform-independent stream, so a seed names the same
// roots on every host.
std::uint64_t NextRandom(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int CmdBfs(int argc, const char* const* argv) {
  CliFlags flags;
  flags.Define("graph", "", "GSDE binary edge file");
  flags.Define("seed", "1", "root sampling seed");
  flags.Define("roots", "16", "number of distinct roots");
  flags.Define("out", "", "output file");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);
  auto graph = LoadGraph(flags.GetString("graph"));
  if (!graph.ok()) return Fail(graph.status());

  const std::vector<std::uint32_t> degrees = graph->OutDegrees();
  std::uint64_t nonzero = 0;
  for (const std::uint32_t d : degrees) nonzero += d > 0 ? 1 : 0;
  const auto count = CheckedCast<std::uint32_t>(flags.GetInt("roots"));
  if (count == 0 || count > nonzero) {
    return Fail(InvalidArgumentError("--roots exceeds vertices with edges"));
  }
  std::uint64_t state = CheckedCast<std::uint64_t>(flags.GetInt("seed"));
  std::vector<std::uint32_t> roots;
  while (roots.size() < count) {
    const auto v =
        static_cast<VertexId>(NextRandom(state) % graph->num_vertices());
    if (degrees[v] == 0) continue;
    bool seen = false;
    for (const std::uint32_t r : roots) seen = seen || r == v;
    if (!seen) roots.push_back(v);
  }

  std::FILE* f = std::fopen(flags.GetString("out").c_str(), "wb");
  if (f == nullptr) return Fail(ErrnoError("fopen", errno));
  Status written = WriteRaw(f, &count, 1);
  if (written.ok()) written = WriteRaw(f, roots.data(), roots.size());
  for (const std::uint32_t root : roots) {
    if (!written.ok()) break;
    const std::vector<std::uint32_t> levels = ReferenceBfs(*graph, root);
    written = WriteRaw(f, levels.data(), levels.size());
  }
  if (std::fclose(f) != 0 || !written.ok()) {
    return Fail(InternalError("writing " + flags.GetString("out")));
  }
  return 0;
}

// Timed passes over the payload files: enough that one slow read does not
// set the rate.
constexpr std::uint32_t kLayerPasses = 3;

int CmdLayers(int argc, const char* const* argv) {
  CliFlags flags;
  flags.Define("dataset", "", "dataset directory");
  flags.Define("weights", "false", "include the weight files a run streams");
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);

  auto device = io::MakeRealSsdDevice();
  const std::string dir = flags.GetString("dataset");
  auto dataset = partition::GridDataset::Open(*device, dir);
  if (!dataset.ok()) return Fail(dataset.status());
  const partition::GridManifest& m = dataset->manifest();
  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < m.p; ++i) {
    for (std::uint32_t j = 0; j < m.p; ++j) {
      if (m.EdgesIn(i, j) == 0) continue;
      paths.push_back(partition::SubBlockEdgesPath(dir, i, j));
      if (flags.GetBool("weights") && m.weighted) {
        paths.push_back(partition::SubBlockWeightsPath(dir, i, j));
      }
    }
  }

  device->ResetAccounting();
  AlignedBuffer buffer;
  std::uint64_t bytes = 0;
  double read_s = 0;
  double crc_s = 0;
  std::uint32_t crc_sink = 0;
  for (std::uint32_t pass = 0; pass < kLayerPasses; ++pass) {
    for (const std::string& path : paths) {
      auto file = device->Open(path, io::OpenMode::kRead);
      if (!file.ok()) return Fail(file.status());
      auto size = file->Size();
      if (!size.ok()) return Fail(size.status());
      buffer.Reserve(CheckedCast<std::size_t>(*size));
      WallTimer read_timer;
      if (Status s = file->ReadAt(0, buffer.span()); !s.ok()) return Fail(s);
      read_s += read_timer.Seconds();
      WallTimer crc_timer;
      crc_sink += Crc32c(buffer.span());
      crc_s += crc_timer.Seconds();
      bytes += *size;
    }
  }
  const io::IoStatsSnapshot io = device->stats().Snapshot();

  double decode_s = 0;
  std::uint64_t decoded_bytes = 0;
  std::uint64_t frames = 0;
  if (dataset->compressed()) {
    for (std::uint32_t i = 0; i < m.p; ++i) {
      for (std::uint32_t j = 0; j < m.p; ++j) {
        if (m.EdgesIn(i, j) == 0) continue;
        auto payload = dataset->FetchSubBlock(i, j, false);
        if (!payload.ok()) return Fail(payload.status());
        WallTimer decode_timer;
        if (Status s = dataset->DecodeSubBlock(i, j, *payload); !s.ok()) {
          return Fail(s);
        }
        decode_s += decode_timer.Seconds();
        decoded_bytes += payload->block.edges.size() * sizeof(Edge);
        ++frames;
      }
    }
  }

  constexpr double kMiB = 1024.0 * 1024.0;
  const double mib = static_cast<double>(bytes) / kMiB;
  std::printf(
      "{\"payload_files\": %zu, \"bytes\": %llu, \"read_s\": %.9f, "
      "\"crc_s\": %.9f, \"read_mib_per_s\": %.6f, \"crc32c_mib_per_s\": "
      "%.6f, \"read_ops\": %llu, \"bounce_reads\": %llu, "
      "\"vectored_reads\": %llu, \"frames\": %llu, \"decode_s\": %.9f, "
      "\"decode_mib_per_s\": %.6f, \"crc_sink\": %u}\n",
      paths.size(), static_cast<unsigned long long>(bytes), read_s, crc_s,
      read_s > 0 ? mib / read_s : 0.0, crc_s > 0 ? mib / crc_s : 0.0,
      static_cast<unsigned long long>(io.seq_read_ops + io.rand_read_ops),
      static_cast<unsigned long long>(io.bounce_reads),
      static_cast<unsigned long long>(io.vectored_reads),
      static_cast<unsigned long long>(frames), decode_s,
      decode_s > 0 ? static_cast<double>(decoded_bytes) / kMiB / decode_s
                   : 0.0,
      crc_sink);
  return 0;
}

}  // namespace
}  // namespace graphsd

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  if (command == "reference") return graphsd::CmdReference(sub_argc, sub_argv);
  if (command == "bfs") return graphsd::CmdBfs(sub_argc, sub_argv);
  if (command == "layers") return graphsd::CmdLayers(sub_argc, sub_argv);
  std::fprintf(stderr, "usage: perfprobe reference|bfs|layers [flags]\n");
  return 2;
}
