#include "io/io_stats.hpp"

#include "util/stats.hpp"

namespace graphsd::io {

IoStatsSnapshot IoStatsSnapshot::operator-(
    const IoStatsSnapshot& other) const noexcept {
  IoStatsSnapshot d = *this;
  ForEachCounter([](std::uint64_t& a, std::uint64_t b) { a -= b; }, d, other);
  return d;
}

IoStatsSnapshot& IoStatsSnapshot::operator+=(
    const IoStatsSnapshot& other) noexcept {
  ForEachCounter([](std::uint64_t& a, std::uint64_t b) { a += b; }, *this,
                 other);
  return *this;
}

std::string IoStatsSnapshot::ToString() const {
  std::string out;
  out += "read " + graphsd::FormatBytes(TotalReadBytes());
  out += " (seq " + graphsd::FormatBytes(seq_read_bytes);
  out += ", rand " + graphsd::FormatBytes(rand_read_bytes);
  out += "), write " + graphsd::FormatBytes(TotalWriteBytes());
  out += ", ops " + std::to_string(TotalOps());
  if (retries > 0) out += ", retries " + std::to_string(retries);
  if (checksum_failures > 0) {
    out += ", checksum failures " + std::to_string(checksum_failures);
  }
  if (eintr_absorbed > 0) {
    out += ", eintr absorbed " + std::to_string(eintr_absorbed);
  }
  return out;
}

void IoStats::RecordRead(AccessPattern pattern, std::uint64_t bytes) noexcept {
  if (pattern == AccessPattern::kSequential) {
    counters_.seq_read_bytes.fetch_add(bytes, std::memory_order_relaxed);
    counters_.seq_read_ops.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.rand_read_bytes.fetch_add(bytes, std::memory_order_relaxed);
    counters_.rand_read_ops.fetch_add(1, std::memory_order_relaxed);
  }
}

void IoStats::RecordWrite(AccessPattern pattern, std::uint64_t bytes) noexcept {
  if (pattern == AccessPattern::kSequential) {
    counters_.seq_write_bytes.fetch_add(bytes, std::memory_order_relaxed);
    counters_.seq_write_ops.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.rand_write_bytes.fetch_add(bytes, std::memory_order_relaxed);
    counters_.rand_write_ops.fetch_add(1, std::memory_order_relaxed);
  }
}

IoStatsSnapshot IoStats::Snapshot() const noexcept {
  IoStatsSnapshot s;
  IoStatsSnapshot::ForEachCounter(
      [](std::uint64_t& out, const Counter& counter) {
        out = counter.load(std::memory_order_relaxed);
      },
      s, counters_);
  return s;
}

void IoStats::Reset() noexcept {
  IoStatsSnapshot::ForEachCounter(
      [](Counter& counter) { counter.store(0, std::memory_order_relaxed); },
      counters_);
}

}  // namespace graphsd::io
