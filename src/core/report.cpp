#include "core/report.hpp"

#include "util/stats.hpp"
#include "util/str_format.hpp"

namespace graphsd::core {

std::string ExecutionReport::Summary() const {
  // StrAppendf sizes each line exactly, so long engine/algorithm/dataset
  // names can never truncate the summary.
  std::string out;
  StrAppendf(&out,
             "%s/%s on %s: %u iterations in %u rounds, total %s "
             "(io %s, compute %s, scheduler %s)\n",
             engine.c_str(), algorithm.c_str(), dataset.c_str(), iterations,
             rounds, graphsd::FormatSeconds(TotalSeconds()).c_str(),
             graphsd::FormatSeconds(io_seconds).c_str(),
             graphsd::FormatSeconds(compute_seconds).c_str(),
             graphsd::FormatSeconds(scheduler_seconds).c_str());
  if (overlap_io) {
    StrAppendf(&out, "  overlap: pipelined charge %s (serial would be %s)\n",
               graphsd::FormatSeconds(overlapped_seconds).c_str(),
               graphsd::FormatSeconds(SerialSeconds()).c_str());
  }
  StrAppendf(&out, "  traffic: %s\n", io.ToString().c_str());
  if (buffer_hits + buffer_misses > 0) {
    StrAppendf(&out, "  buffer: %llu hits / %llu misses, %s saved\n",
               static_cast<unsigned long long>(buffer_hits),
               static_cast<unsigned long long>(buffer_misses),
               graphsd::FormatBytes(buffer_bytes_saved).c_str());
  }
  if (buffer_frame_puts + buffer_frame_hits > 0) {
    StrAppendf(&out,
               "  frame cache: %llu compressed entries inserted, "
               "%llu decode-on-hit serves\n",
               static_cast<unsigned long long>(buffer_frame_puts),
               static_cast<unsigned long long>(buffer_frame_hits));
  }
  if (semi_rounds > 0) {
    StrAppendf(&out,
               "  semi-external: %u rounds, %llu sub-blocks skipped "
               "(%s of edge I/O elided)\n",
               semi_rounds, static_cast<unsigned long long>(blocks_skipped),
               graphsd::FormatBytes(blocks_skipped_bytes).c_str());
  }
  if (codec != "none") {
    StrAppendf(&out,
               "  compression: codec %s, %llu frames decoded, %s on disk -> "
               "%s decoded (decode %s)\n",
               codec.c_str(), static_cast<unsigned long long>(frames_decoded),
               graphsd::FormatBytes(compressed_bytes_read).c_str(),
               graphsd::FormatBytes(decoded_bytes).c_str(),
               graphsd::FormatSeconds(decode_seconds).c_str());
  }
  if (io.retries > 0 || io.checksum_failures > 0 || degraded_rounds > 0) {
    StrAppendf(&out,
               "  resilience: %llu retries, %llu checksum failures, "
               "%u degraded rounds\n",
               static_cast<unsigned long long>(io.retries),
               static_cast<unsigned long long>(io.checksum_failures),
               degraded_rounds);
  }
  if (resumed) {
    StrAppendf(&out, "  lifecycle: resumed from iteration %u\n",
               resume_iteration);
  }
  if (checkpoints_written > 0) {
    StrAppendf(&out,
               "  lifecycle: %u checkpoints written (%s, %s wall, %llu "
               "superseded before reaching disk)\n",
               checkpoints_written,
               graphsd::FormatBytes(checkpoint_bytes).c_str(),
               graphsd::FormatSeconds(checkpoint_seconds).c_str(),
               static_cast<unsigned long long>(checkpoints_dropped));
  }
  if (cancelled) {
    StrAppendf(&out, "  lifecycle: CANCELLED (%s) — partial run up to "
               "iteration %u\n",
               cancel_reason.c_str(), iterations);
  }
  return out;
}

}  // namespace graphsd::core
