// Storage device abstraction: real file I/O + per-request accounting +
// modeled (virtual) time.
//
// All engine I/O goes through a `Device`. Each request is classified as
// sequential (it starts exactly where the previous request on the same file
// ended) or random (anything else — a seek), recorded in `IoStats`, and
// charged to the device's `VirtualClock` using the `IoCostModel`.
//
// With `charge_virtual_time=false` and the Free cost model the Device is a
// plain POSIX passthrough; with the HDD model it deterministically
// reproduces the paper's disk economics regardless of the machine we run
// on. See DESIGN.md §5.1.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "io/cost_model.hpp"
#include "io/fault_injector.hpp"
#include "io/file.hpp"
#include "io/io_stats.hpp"
#include "util/buffer_pool.hpp"
#include "util/clock.hpp"

namespace graphsd::obs {
class MetricsRegistry;
}  // namespace graphsd::obs

namespace graphsd::io {

struct DeviceOptions {
  /// Open read-only files with O_DIRECT when supported (paper §5.1 disables
  /// the page cache; on filesystems without O_DIRECT the virtual clock
  /// still makes every byte cost its modeled time). Writable opens stay
  /// buffered — every durable writer already fsyncs, and O_DIRECT write
  /// alignment would infect the dataset builders for no measurement gain.
  bool use_direct_io = false;
  /// Batched selective reads: edge runs whose file gap is at most this many
  /// bytes are fetched with one vectored request (the gap bytes land in
  /// scratch and are discarded, but are accounted — they really crossed the
  /// bus). 0 disables merging, which every simulated profile keeps so
  /// modeled traffic stays bit-stable; the real SSD backend sets it to the
  /// cost model's random-request granularity.
  std::uint64_t read_batch_gap_bytes = 0;
  /// Accumulate modeled time on the virtual clock.
  bool charge_virtual_time = true;
  /// The disk profile used to charge requests.
  IoCostModel cost_model = IoCostModel::Hdd();
  /// Total attempts per request (first try + retries) before a transient
  /// kIoError is surfaced. Non-transient codes are never retried.
  int max_io_attempts = 4;
  /// Backoff before the first retry; doubles on each subsequent retry.
  /// Charged to the virtual clock when charge_virtual_time, otherwise slept
  /// (capped) in real time.
  double retry_backoff_seconds = 1e-3;
  /// Optional fault schedule consulted before every request (non-owning;
  /// must outlive the Device). See fault_injector.hpp.
  FaultInjector* fault_injector = nullptr;
};

class Device;

/// Reads a real device keeps in flight. Two O_DIRECT readers of 1 MiB read
/// up to 1.5x faster than one on a 4-vCPU ext4 host; four and eight were no
/// faster than two (DESIGN.md §8).
inline constexpr std::size_t kRealDeviceReaders = 2;

/// A file opened through a Device. Movable; closes on destruction.
class DeviceFile {
 public:
  DeviceFile() = default;

  /// Reads `out.size()` bytes at `offset`, with accounting. On a direct-I/O
  /// file an unaligned offset/size/pointer detours through a pooled aligned
  /// bounce buffer transparently.
  Status ReadAt(std::uint64_t offset, std::span<std::uint8_t> out);

  /// Reads `size` bytes at `offset` into the front of `padded`, an aligned
  /// buffer padded to 4 KiB (a pooled lease, see util/buffer_pool.hpp, or an
  /// AlignedBuffer's capacity) of at least `size` bytes. With an aligned
  /// `offset` a direct-I/O file reads the 4 KiB-rounded range straight into
  /// it, with no bounce: a final block cut short by end-of-file lands in
  /// the padding. Accounted as a read of `size` bytes.
  Status ReadPadded(std::uint64_t offset, std::size_t size,
                    std::span<std::uint8_t> padded);

  /// Reads the contiguous range starting at `offset` scattered into `bufs`
  /// in order, accounted as ONE request of the summed size (sequential iff
  /// it starts where the previous read on this file ended). Buffered files,
  /// and direct-I/O files when the offset and every buffer are 4 KiB-
  /// aligned, submit a single preadv batch; other direct-I/O requests read
  /// the aligned covering range into a bounce buffer and scatter from there.
  Status ReadVAt(std::uint64_t offset,
                 std::span<const std::span<std::uint8_t>> bufs);

  /// Writes `data.size()` bytes at `offset`, with accounting.
  Status WriteAt(std::uint64_t offset, std::span<const std::uint8_t> data);

  /// File size in bytes.
  Result<std::uint64_t> Size() const { return file_.Size(); }

  const std::string& path() const noexcept { return file_.path(); }
  bool is_open() const noexcept { return file_.is_open(); }

 private:
  friend class Device;

  /// One read request of `out.size()` bytes, `writable` >= out.size() of
  /// them writable at out.data(): a direct read of the 4 KiB-rounded range
  /// when it fits and is aligned, else a bounce on a direct-I/O file.
  Status Read(std::uint64_t offset, std::span<std::uint8_t> out,
              std::size_t writable);

  /// One attempt of a (possibly scattered) read of `total` logical bytes at
  /// `offset` through a pooled aligned bounce buffer: reads the block-aligned
  /// covering range, tolerating the EOF-short tail, then scatters the
  /// requested window into `bufs`.
  Status BouncedRead(std::uint64_t offset,
                     std::span<const std::span<std::uint8_t>> bufs,
                     std::uint64_t total);

  Device* device_ = nullptr;
  File file_;
  // End offset of the last request, for sequential/random classification.
  std::uint64_t last_read_end_ = UINT64_MAX;
  std::uint64_t last_write_end_ = UINT64_MAX;
};

/// Factory + accounting hub for DeviceFiles.
class Device {
 public:
  explicit Device(DeviceOptions options = {}) : options_(options) {}

  /// Opens `path` for accounted I/O.
  Result<DeviceFile> Open(const std::string& path, OpenMode mode);

  /// Traffic counters (bytes/ops by direction and pattern).
  IoStats& stats() noexcept { return stats_; }
  const IoStats& stats() const noexcept { return stats_; }

  /// The aligned buffers this device's reads land in: payloads of the
  /// datasets opened on it and direct-I/O bounce scratch.
  BufferPool& pool() noexcept { return pool_; }

  /// How many reads a prefetch pipeline over this device keeps in flight.
  /// A device that charges virtual time is serial (one head position, one
  /// clock), so it gets 1; a real device gets kRealDeviceReaders.
  std::size_t reads_in_flight() const noexcept {
    return options_.charge_virtual_time ? 1 : kRealDeviceReaders;
  }

  /// Accumulated modeled I/O seconds.
  VirtualClock& clock() noexcept { return clock_; }
  const VirtualClock& clock() const noexcept { return clock_; }

  const DeviceOptions& options() const noexcept { return options_; }

  /// Attaches (or detaches, with nullptr) a fault schedule after
  /// construction, e.g. once a test dataset has been built fault-free.
  void set_fault_injector(FaultInjector* injector) noexcept {
    options_.fault_injector = injector;
  }

  /// Resets counters and the virtual clock (between benchmark phases).
  void ResetAccounting() noexcept {
    stats_.Reset();
    clock_.Reset();
  }

  /// Publishes the current traffic counters and modeled clock as `device.*`
  /// gauges (snapshot semantics: safe to call repeatedly, last write wins).
  void PublishMetrics(obs::MetricsRegistry& metrics) const;

 private:
  friend class DeviceFile;
  void AccountRead(AccessPattern pattern, std::uint64_t bytes) noexcept;
  void AccountWrite(AccessPattern pattern, std::uint64_t bytes) noexcept;

  /// Runs `attempt` under the device's bounded retry-with-backoff policy,
  /// consulting the fault injector before each try. Only kIoError is
  /// considered transient.
  Status RunWithRetry(FaultOp op, const std::string& path,
                      const std::function<Status()>& attempt);
  void Backoff(double seconds);

  DeviceOptions options_;
  IoStats stats_;
  VirtualClock clock_;
  BufferPool pool_;
};

/// A device that performs plain POSIX I/O with traffic accounting but no
/// modeled time (real-time measurements only).
std::unique_ptr<Device> MakePosixDevice(bool direct_io = false);

/// A device that charges modeled time per the given profile (default: the
/// paper-like HDD profile). This is what benches use.
std::unique_ptr<Device> MakeSimulatedDevice(
    IoCostModel model = IoCostModel::Hdd(), bool direct_io = false);

/// The real SSD backend: O_DIRECT reads (bounced through aligned buffers
/// when needed), batched vectored selective reads, wall-clock timing only.
/// The SSD cost model is still attached so the scheduler prices its
/// C_r/C_s/C_m decisions with SSD economics, but no virtual time accrues.
std::unique_ptr<Device> MakeRealSsdDevice();

/// The one place a user-facing device-kind string becomes a Device:
/// "scaled-hdd" (default bench profile, alias "sim:scaled-hdd"), "sim:hdd",
/// "sim:ssd", "real:ssd" or "posix". Bare "hdd"/"ssd" are rejected as
/// ambiguous — a benchmark must never run simulated I/O believing it is
/// real — and unknown kinds return kInvalidArgument instead of silently
/// defaulting. The CLI, the query service and the benches all parse through
/// here so the accepted spellings cannot drift apart.
Result<std::unique_ptr<Device>> MakeDeviceForKind(const std::string& kind);

}  // namespace graphsd::io
