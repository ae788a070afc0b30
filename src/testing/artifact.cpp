#include "testing/artifact.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

namespace graphsd::testing {
namespace {

Status Malformed(const std::string& path, std::size_t line_no,
                 const std::string& why) {
  return InvalidArgumentError("repro artifact " + path + " line " +
                              std::to_string(line_no) + ": " + why);
}

}  // namespace

const char* FaultName(EngineFault fault) {
  return fault == EngineFault::kDropMaxEdge ? "drop_max_edge" : "none";
}

Status WriteArtifact(const ReproArtifact& a, const std::string& path) {
  std::ostringstream out;
  out << "graphsd-difftest-repro v1\n";
  out << "seed " << a.seed << "\n";
  out << "family " << (a.family.empty() ? "unknown" : a.family) << "\n";
  out << "invariant " << (a.invariant.empty() ? "unknown" : a.invariant)
      << "\n";
  out << "algo " << a.algo << "\n";
  out << "root " << a.root << "\n";
  out << "codec " << a.codec << "\n";
  out << "p " << a.p << "\n";
  out << "model " << a.model << "\n";
  out << "cross_iteration " << (a.cross_iteration ? 1 : 0) << "\n";
  out << "prefetch_depth " << a.prefetch_depth << "\n";
  out << "fault " << FaultName(a.fault) << "\n";
  out << "vertices " << a.graph.num_vertices() << "\n";
  out << "edges " << a.graph.num_edges() << "\n";
  out << "weighted " << (a.graph.weighted() ? 1 : 0) << "\n";
  const auto& edges = a.graph.edges();
  const auto& weights = a.graph.weights();
  char buf[64];
  for (std::size_t k = 0; k < edges.size(); ++k) {
    out << "e " << edges[k].src << " " << edges[k].dst;
    if (a.graph.weighted()) {
      // %a round-trips the float exactly through strtof.
      std::snprintf(buf, sizeof buf, " %a", static_cast<double>(weights[k]));
      out << buf;
    }
    out << "\n";
  }
  out << "end\n";

  std::ofstream file(path, std::ios::trunc);
  if (!file) return InternalError("cannot open " + path + " for writing");
  file << out.str();
  file.flush();
  if (!file) return InternalError("short write to " + path);
  return Status::Ok();
}

Result<ReproArtifact> ReadArtifact(const std::string& path) {
  std::ifstream file(path);
  if (!file) return NotFoundError("cannot open repro artifact " + path);

  ReproArtifact a;
  std::uint32_t vertices = 0;
  std::uint64_t edge_count = 0;
  bool weighted = false;
  bool saw_header = false;
  bool saw_end = false;
  std::vector<Edge> edges;
  std::vector<Weight> weights;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(file, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    if (!saw_header) {
      if (line != "graphsd-difftest-repro v1") {
        return Malformed(path, line_no, "bad header: " + line);
      }
      saw_header = true;
      continue;
    }
    std::istringstream in(line);
    std::string key;
    in >> key;
    if (key == "end") {
      saw_end = true;
      break;
    }
    if (key == "e") {
      Edge e{};
      in >> e.src >> e.dst;
      if (!in) return Malformed(path, line_no, "bad edge line");
      if (weighted) {
        std::string tok;
        in >> tok;
        if (tok.empty()) return Malformed(path, line_no, "missing weight");
        char* endp = nullptr;
        const float w = std::strtof(tok.c_str(), &endp);
        if (endp == tok.c_str() || *endp != '\0') {
          return Malformed(path, line_no, "bad weight: " + tok);
        }
        weights.push_back(w);
      }
      edges.push_back(e);
      continue;
    }
    std::string value;
    in >> value;
    if (!in) return Malformed(path, line_no, "missing value for key " + key);
    if (key == "seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "family") {
      a.family = value;
    } else if (key == "invariant") {
      a.invariant = value;
    } else if (key == "algo") {
      a.algo = value;
    } else if (key == "root") {
      a.root = static_cast<VertexId>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "codec") {
      a.codec = value;
    } else if (key == "p") {
      a.p = static_cast<std::uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "model") {
      if (value != "auto" && value != "on_demand" && value != "full") {
        return Malformed(path, line_no, "bad model: " + value);
      }
      a.model = value;
    } else if (key == "cross_iteration") {
      a.cross_iteration = value == "1";
    } else if (key == "prefetch_depth") {
      a.prefetch_depth =
          static_cast<std::uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "threads") {
      // Older files record an engine pool size. The pool only verified
      // checksums, so the value cannot change a replay.
    } else if (key == "compute_threads") {
      // Older files record a destination-shard count. Sharded apply was
      // bit-identical to serial, so the value cannot change a replay.
    } else if (key == "fault") {
      if (value == "none") {
        a.fault = EngineFault::kNone;
      } else if (value == "drop_max_edge") {
        a.fault = EngineFault::kDropMaxEdge;
      } else {
        return Malformed(path, line_no, "bad fault: " + value);
      }
    } else if (key == "vertices") {
      vertices =
          static_cast<std::uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "edges") {
      edge_count = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "weighted") {
      weighted = value == "1";
    } else {
      return Malformed(path, line_no, "unknown key: " + key);
    }
  }
  if (!saw_header) return Malformed(path, line_no, "missing header");
  if (!saw_end) return Malformed(path, line_no, "missing 'end' terminator");
  if (edges.size() != edge_count) {
    return Malformed(path, line_no,
                     "edge count mismatch: declared " +
                         std::to_string(edge_count) + ", found " +
                         std::to_string(edges.size()));
  }
  if (a.p == 0) return Malformed(path, line_no, "p must be >= 1");

  a.graph = EdgeList(vertices);
  for (std::size_t k = 0; k < edges.size(); ++k) {
    if (weighted) {
      a.graph.AddEdge(edges[k].src, edges[k].dst, weights[k]);
    } else {
      a.graph.AddEdge(edges[k].src, edges[k].dst);
    }
  }
  GRAPHSD_RETURN_IF_ERROR(a.graph.Validate());
  if (a.root >= a.graph.num_vertices()) {
    return Malformed(path, line_no, "root out of range");
  }
  return a;
}

}  // namespace graphsd::testing
