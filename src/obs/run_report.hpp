// Machine-readable run report: one stable JSON document per engine run, so
// bench harnesses can diff trajectories across commits (BENCH_*.json) and
// the paper's §5 breakdowns can be regenerated without re-parsing logs.
//
// Schema (versioned; additive changes bump schema_version):
//   schema_version, engine, algorithm, dataset
//   iterations, rounds, degraded_rounds
//   seconds{compute, update, io, scheduler, total}
//   cost_model{seq_read_bw, seq_write_bw, seek_seconds,
//              random_request_bytes, random_read_bw}   — the C_r/C_s inputs
//   io{*_bytes, *_ops by direction and pattern, retries, checksum_failures}
//   buffer{hits, misses, hit_rate, bytes_saved}
//   per_round[]: first_iteration, iterations_covered, model (S|F|P|-),
//     active_vertices, active_edges, cost_on_demand (C_r), cost_full (C_s),
//     seq_bytes (S_seq), rand_bytes (S_ran), random_requests, io_seconds,
//     compute_seconds, scheduler_seconds, read_bytes, write_bytes
//   metrics (when a registry is given): counters/gauges/histograms by name
#pragma once

#include <string>

#include "core/report.hpp"
#include "io/cost_model.hpp"
#include "obs/metrics.hpp"
#include "util/status.hpp"

namespace graphsd::obs {

/// Renders the report document. `metrics` may be null.
std::string ToRunReportJson(const core::ExecutionReport& report,
                            const io::IoCostModel& cost_model,
                            const MetricsRegistry* metrics = nullptr);

/// Writes ToRunReportJson(...) to `path` (plain stdio; reports are tooling
/// output, not accounted dataset I/O).
Status WriteRunReport(const core::ExecutionReport& report,
                      const io::IoCostModel& cost_model, const std::string& path,
                      const MetricsRegistry* metrics = nullptr);

}  // namespace graphsd::obs
