// Disk cost model (paper §4.1, Table 2).
//
// The model carries the four bandwidth constants the paper names
// (B_sr, B_sw, B_rr, B_rw) plus an explicit seek latency. Random requests
// are charged `seek + bytes/transfer_rate`, which is the mechanism behind
// the paper's constant B_rr: for a fixed request size s,
// B_rr(s) = s / (seek + s/B_sr). Keeping the seek explicit makes the model
// exact for any request size instead of only at the size B_rr was measured
// at. `RandomReadBandwidth()` exposes the paper-style constant.
#pragma once

#include <cstdint>
#include <string>

namespace graphsd::io {

struct IoCostModel {
  /// Sequential read bandwidth, bytes/second.
  double seq_read_bw = 160.0 * 1024 * 1024;
  /// Sequential write bandwidth, bytes/second.
  double seq_write_bw = 140.0 * 1024 * 1024;
  /// Average positioning (seek + rotational) latency per random request.
  double seek_seconds = 8.0e-3;
  /// Request size at which the paper-style B_rr / B_rw constants are quoted.
  std::uint64_t random_request_bytes = 64 * 1024;
  /// Edge-frame decode throughput (raw bytes produced per second). The
  /// scheduler adds DecodeSeconds to each model's disk time. ~1 GB/s
  /// matches the software varint decoder. Ignored (zero cost) for raw
  /// datasets; 0 is the "free" sentinel like the bandwidths above.
  double decode_bw = 1024.0 * 1024 * 1024;

  /// An HDD-like profile matching the paper's testbed (two 500 GB HDDs).
  static IoCostModel Hdd() { return IoCostModel{}; }

  /// The HDD profile rescaled for proxy-sized datasets.
  ///
  /// Two calibrations keep proxy runs shaped like the paper's testbed:
  ///   1. Crossover: the scheduler's on-demand/full trade is governed by the
  ///      seeks-per-full-scan ratio (paper: ~18 GB / 160 MB/s ≈ 14000 seeks
  ///      per scan). Proxies are ~10^3x smaller, so the seek shrinks by
  ///      `size_factor` to hold that ratio.
  ///   2. I/O dominance: the paper's runs are 56-91% disk time. Dividing
  ///      the modeled bandwidth by `io_weight` keeps modeled I/O dominant
  ///      over the (real, hardware-dependent) compute wall even on tiny
  ///      graphs. Virtual time is free, so this costs no wall-clock.
  /// Both scalings multiply C_r and C_s coherently; relative results are
  /// what the benchmarks report.
  static IoCostModel ScaledHdd(double size_factor = 1000.0,
                               double io_weight = 8.0) {
    IoCostModel m;
    m.seq_read_bw /= io_weight;
    m.seq_write_bw /= io_weight;
    m.seek_seconds = m.seek_seconds * io_weight / size_factor;
    m.random_request_bytes = 4 * 1024;
    return m;
  }

  /// An SSD-like profile (for sensitivity experiments).
  static IoCostModel Ssd() {
    IoCostModel m;
    m.seq_read_bw = 520.0 * 1024 * 1024;
    m.seq_write_bw = 480.0 * 1024 * 1024;
    m.seek_seconds = 60.0e-6;
    m.random_request_bytes = 16 * 1024;
    return m;
  }

  /// A free model: everything costs zero (pure traffic accounting).
  static IoCostModel Free() {
    IoCostModel m;
    m.seq_read_bw = 0;  // sentinel: 0 bandwidth means "free" (see *Seconds)
    m.seq_write_bw = 0;
    m.seek_seconds = 0;
    m.decode_bw = 0;
    return m;
  }

  /// Modeled seconds for one sequential read of `bytes`.
  double SeqReadSeconds(std::uint64_t bytes) const noexcept {
    return seq_read_bw <= 0 ? 0.0 : static_cast<double>(bytes) / seq_read_bw;
  }

  /// Modeled seconds for one sequential write of `bytes`.
  double SeqWriteSeconds(std::uint64_t bytes) const noexcept {
    return seq_write_bw <= 0 ? 0.0 : static_cast<double>(bytes) / seq_write_bw;
  }

  /// Modeled seconds for `requests` random reads totalling `bytes`.
  double RandReadSeconds(std::uint64_t bytes,
                         std::uint64_t requests = 1) const noexcept {
    return static_cast<double>(requests) * seek_seconds + SeqReadSeconds(bytes);
  }

  /// Modeled seconds for `requests` random writes totalling `bytes`.
  double RandWriteSeconds(std::uint64_t bytes,
                          std::uint64_t requests = 1) const noexcept {
    return static_cast<double>(requests) * seek_seconds +
           SeqWriteSeconds(bytes);
  }

  /// Paper-style B_rr constant at `random_request_bytes`.
  double RandomReadBandwidth() const noexcept {
    const double t = RandReadSeconds(random_request_bytes, 1);
    return t <= 0 ? 0.0 : static_cast<double>(random_request_bytes) / t;
  }

  /// Paper-style B_rw constant at `random_request_bytes`.
  double RandomWriteBandwidth() const noexcept {
    const double t = RandWriteSeconds(random_request_bytes, 1);
    return t <= 0 ? 0.0 : static_cast<double>(random_request_bytes) / t;
  }

  /// Modeled seconds to decode frames producing `raw_bytes` of edges.
  double DecodeSeconds(std::uint64_t raw_bytes) const noexcept {
    return decode_bw <= 0 ? 0.0 : static_cast<double>(raw_bytes) / decode_bw;
  }

  /// One-line description for bench headers.
  std::string ToString() const;
};

}  // namespace graphsd::io
