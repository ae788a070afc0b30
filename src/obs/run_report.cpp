#include "obs/run_report.hpp"

#include "io/file.hpp"
#include "obs/json_writer.hpp"

namespace graphsd::obs {
namespace {

const char* ModelName(core::RoundModel model) {
  switch (model) {
    case core::RoundModel::kSciu:
      return "S";
    case core::RoundModel::kFciu:
      return "F";
    case core::RoundModel::kPlainFull:
      return "P";
    case core::RoundModel::kSemi:
      return "M";
    case core::RoundModel::kSkipped:
      return "-";
  }
  return "?";
}

void WriteIo(JsonWriter& json, const io::IoStatsSnapshot& io) {
  json.BeginObject();
  json.Field("seq_read_bytes", io.seq_read_bytes);
  json.Field("seq_write_bytes", io.seq_write_bytes);
  json.Field("rand_read_bytes", io.rand_read_bytes);
  json.Field("rand_write_bytes", io.rand_write_bytes);
  json.Field("seq_read_ops", io.seq_read_ops);
  json.Field("seq_write_ops", io.seq_write_ops);
  json.Field("rand_read_ops", io.rand_read_ops);
  json.Field("rand_write_ops", io.rand_write_ops);
  json.Field("total_read_bytes", io.TotalReadBytes());
  json.Field("total_write_bytes", io.TotalWriteBytes());
  json.Field("retries", io.retries);
  json.Field("checksum_failures", io.checksum_failures);
  json.EndObject();
}

}  // namespace

std::string ToRunReportJson(const core::ExecutionReport& report,
                            const io::IoCostModel& cost_model,
                            const MetricsRegistry* metrics) {
  JsonWriter json;
  json.BeginObject();
  json.Field("schema_version", std::uint64_t{1});
  json.Field("engine", report.engine);
  json.Field("algorithm", report.algorithm);
  json.Field("dataset", report.dataset);
  json.Field("iterations", report.iterations);
  json.Field("rounds", report.rounds);
  json.Field("degraded_rounds", report.degraded_rounds);

  json.Key("seconds");
  json.BeginObject();
  json.Field("compute", report.compute_seconds);
  json.Field("update", report.update_seconds);
  json.Field("io", report.io_seconds);
  json.Field("scheduler", report.scheduler_seconds);
  json.Field("total", report.TotalSeconds());
  json.EndObject();
  // Always 0 since one consumer applies every pass; kept only because
  // perfbench/run.py --trace 1 reads it. The benchmark change that drops
  // core.apply_serialization_s from perfbench removes this key.
  json.Field("apply_serialization_seconds", 0.0);

  json.Key("cost_model");
  json.BeginObject();
  json.Field("seq_read_bw", cost_model.seq_read_bw);
  json.Field("seq_write_bw", cost_model.seq_write_bw);
  json.Field("seek_seconds", cost_model.seek_seconds);
  json.Field("random_request_bytes", cost_model.random_request_bytes);
  json.Field("random_read_bw", cost_model.RandomReadBandwidth());
  json.Field("decode_bw", cost_model.decode_bw);
  json.EndObject();

  json.Key("io");
  WriteIo(json, report.io);

  json.Key("buffer");
  json.BeginObject();
  json.Field("hits", report.buffer_hits);
  json.Field("misses", report.buffer_misses);
  const std::uint64_t lookups = report.buffer_hits + report.buffer_misses;
  json.Field("hit_rate",
             lookups == 0 ? 0.0
                          : static_cast<double>(report.buffer_hits) /
                                static_cast<double>(lookups));
  json.Field("bytes_saved", report.buffer_bytes_saved);
  json.Field("disk_bytes_saved", report.buffer_disk_bytes_saved);
  json.EndObject();

  json.Key("semi_external");
  json.BeginObject();
  json.Field("rounds", report.semi_rounds);
  json.Field("blocks_skipped", report.blocks_skipped);
  json.Field("blocks_skipped_bytes", report.blocks_skipped_bytes);
  json.EndObject();

  json.Key("compression");
  json.BeginObject();
  json.Field("codec", report.codec);
  json.Field("frames_decoded", report.frames_decoded);
  json.Field("compressed_bytes_read", report.compressed_bytes_read);
  json.Field("decoded_bytes", report.decoded_bytes);
  json.Field("decode_seconds", report.decode_seconds);
  json.EndObject();

  json.Key("lifecycle");
  json.BeginObject();
  json.Field("cancelled", report.cancelled);
  json.Field("cancel_reason", report.cancel_reason);
  json.Field("resumed", report.resumed);
  json.Field("resume_iteration", report.resume_iteration);
  json.Field("checkpoints_written", report.checkpoints_written);
  json.Field("checkpoint_bytes", report.checkpoint_bytes);
  json.Field("checkpoint_seconds", report.checkpoint_seconds);
  json.EndObject();

  json.Key("per_round");
  json.BeginArray();
  for (const core::RoundStat& stat : report.per_round) {
    json.BeginObject();
    json.Field("first_iteration", stat.first_iteration);
    json.Field("iterations_covered", stat.iterations_covered);
    json.Field("model", ModelName(stat.model));
    json.Field("active_vertices", stat.active_vertices);
    json.Field("active_edges", stat.active_edges);
    json.Field("cost_on_demand", stat.cost_on_demand);
    json.Field("cost_full", stat.cost_full);
    json.Field("cost_semi", stat.cost_semi);
    json.Field("blocks_skipped", stat.blocks_skipped);
    json.Field("blocks_skipped_bytes", stat.blocks_skipped_bytes);
    json.Field("seq_bytes", stat.seq_bytes);
    json.Field("rand_bytes", stat.rand_bytes);
    json.Field("random_requests", stat.random_requests);
    json.Field("io_seconds", stat.io_seconds);
    json.Field("compute_seconds", stat.compute_seconds);
    json.Field("scheduler_seconds", stat.scheduler_seconds);
    json.Field("read_bytes", stat.read_bytes);
    json.Field("write_bytes", stat.write_bytes);
    json.EndObject();
  }
  json.EndArray();

  if (metrics != nullptr) {
    json.Key("metrics");
    metrics->WriteJson(json);
  }
  json.EndObject();
  return json.Finish();
}

Status WriteRunReport(const core::ExecutionReport& report,
                      const io::IoCostModel& cost_model,
                      const std::string& path,
                      const MetricsRegistry* metrics) {
  // Atomic replace (write-temp → fsync → rename): a crash mid-export must
  // not leave a truncated JSON document where a previous good report was.
  return io::WriteStringToFile(path, ToRunReportJson(report, cost_model,
                                                     metrics));
}

}  // namespace graphsd::obs
