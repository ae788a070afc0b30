#include "io/device.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/metrics.hpp"

namespace graphsd::io {

namespace {

// How an injected fault surfaces to the retry loop. Transient kinds map to
// kIoError (retryable); ENOSPC maps to kResourceExhausted (fatal). kEintr
// never reaches this function on the normal path — it is absorbed inside
// RunWithRetry — except when an EINTR storm exceeds the spin cap.
Status FaultToStatus(FaultKind kind, const std::string& path) {
  switch (kind) {
    case FaultKind::kEio:
      return IoError("injected EIO on " + path);
    case FaultKind::kEintr:
      return IoError("injected EINTR storm on " + path);
    case FaultKind::kShortRead:
      return IoError("injected short transfer on " + path);
    case FaultKind::kEnospc:
      return ResourceExhaustedError("injected ENOSPC on " + path);
  }
  return InternalError("unknown injected fault kind");
}

// EINTR retries are free (no backoff, no retry-budget slot) but bounded:
// past this many consecutive interruptions of one request the storm is
// treated as a real transient failure so a misconfigured unlimited rule
// cannot spin forever.
constexpr int kMaxEintrSpins = 256;

// True when a read of `size` bytes at `offset` into `data` satisfies the
// O_DIRECT alignment contract and can go straight to the kernel.
bool DirectAligned(std::uint64_t offset, const void* data, std::size_t size) {
  return offset % kDirectIoAlignment == 0 &&
         size % kDirectIoAlignment == 0 &&
         reinterpret_cast<std::uintptr_t>(data) % kDirectIoAlignment == 0;
}

}  // namespace

Status DeviceFile::BouncedRead(std::uint64_t offset,
                               std::span<const std::span<std::uint8_t>> bufs,
                               std::uint64_t total) {
  const std::uint64_t begin = AlignDown(offset, kDirectIoAlignment);
  const std::uint64_t end = AlignUp(offset + total, kDirectIoAlignment);
  BufferPool::Lease scratch = device_->pool().Acquire(end - begin);
  GRAPHSD_ASSIGN_OR_RETURN(
      const std::size_t got,
      file_.ReadAtMost(begin, {scratch.data(), end - begin}));
  // The aligned covering range may run past EOF (final partial block); only
  // the caller's logical window must be fully present.
  if (begin + got < offset + total) {
    return IoError("short read at offset " + std::to_string(offset) + " in " +
                   file_.path());
  }
  const std::uint8_t* src = scratch.data() + (offset - begin);
  for (const std::span<std::uint8_t>& b : bufs) {
    std::memcpy(b.data(), src, b.size());
    src += b.size();
  }
  return Status::Ok();
}

Status DeviceFile::Read(std::uint64_t offset, std::span<std::uint8_t> out,
                        std::size_t writable) {
  GRAPHSD_CHECK(device_ != nullptr);
  GRAPHSD_CHECK(writable >= out.size());
  const AccessPattern pattern = (offset == last_read_end_)
                                    ? AccessPattern::kSequential
                                    : AccessPattern::kRandom;
  // A direct read covers whole 4 KiB blocks; it needs them writable.
  const std::size_t covered = AlignUp(out.size(), kDirectIoAlignment);
  const bool bounce =
      file_.is_direct() &&
      (covered > writable || !DirectAligned(offset, out.data(), covered));
  const std::span<std::uint8_t> one[] = {out};
  GRAPHSD_RETURN_IF_ERROR(device_->RunWithRetry(
      FaultOp::kRead, file_.path(), [&]() -> Status {
        if (bounce) return BouncedRead(offset, one, out.size());
        if (!file_.is_direct()) return file_.ReadAt(offset, out);
        GRAPHSD_ASSIGN_OR_RETURN(
            const std::size_t got,
            file_.ReadAtMost(offset, {out.data(), covered}));
        if (got < out.size()) {
          return IoError("short read at offset " + std::to_string(offset) +
                         " in " + file_.path());
        }
        return Status::Ok();
      }));
  last_read_end_ = offset + out.size();
  device_->AccountRead(pattern, out.size());
  if (bounce) device_->stats().RecordBounceRead();
  return Status::Ok();
}

Status DeviceFile::ReadAt(std::uint64_t offset, std::span<std::uint8_t> out) {
  return Read(offset, out, out.size());
}

Status DeviceFile::ReadPadded(std::uint64_t offset, std::size_t size,
                              std::span<std::uint8_t> padded) {
  GRAPHSD_CHECK(size <= padded.size());
  return Read(offset, padded.first(size), padded.size());
}

Status DeviceFile::ReadVAt(std::uint64_t offset,
                           std::span<const std::span<std::uint8_t>> bufs) {
  GRAPHSD_CHECK(device_ != nullptr);
  std::uint64_t total = 0;
  bool aligned = offset % kDirectIoAlignment == 0;
  for (const std::span<std::uint8_t>& b : bufs) {
    total += b.size();
    aligned = aligned && DirectAligned(0, b.data(), b.size());
  }
  if (total == 0) return Status::Ok();
  const AccessPattern pattern = (offset == last_read_end_)
                                    ? AccessPattern::kSequential
                                    : AccessPattern::kRandom;
  const bool bounce = file_.is_direct() && !aligned;
  GRAPHSD_RETURN_IF_ERROR(device_->RunWithRetry(
      FaultOp::kRead, file_.path(), [&] {
        return bounce ? BouncedRead(offset, bufs, total)
                      : file_.ReadVAt(offset, bufs);
      }));
  last_read_end_ = offset + total;
  device_->AccountRead(pattern, total);
  device_->stats().RecordVectoredRead();
  if (bounce) device_->stats().RecordBounceRead();
  return Status::Ok();
}

Status DeviceFile::WriteAt(std::uint64_t offset,
                           std::span<const std::uint8_t> data) {
  GRAPHSD_CHECK(device_ != nullptr);
  const AccessPattern pattern = (offset == last_write_end_)
                                    ? AccessPattern::kSequential
                                    : AccessPattern::kRandom;
  GRAPHSD_RETURN_IF_ERROR(device_->RunWithRetry(
      FaultOp::kWrite, file_.path(),
      [&] { return file_.WriteAt(offset, data); }));
  last_write_end_ = offset + data.size();
  device_->AccountWrite(pattern, data.size());
  return Status::Ok();
}

Status Device::RunWithRetry(FaultOp op, const std::string& path,
                            const std::function<Status()>& attempt) {
  const int max_attempts = std::max(1, options_.max_io_attempts);
  double backoff = options_.retry_backoff_seconds;
  Status status;
  for (int attempt_no = 1; attempt_no <= max_attempts; ++attempt_no) {
    if (attempt_no > 1) {
      stats_.RecordRetry();
      Backoff(backoff);
      backoff *= 2.0;
    }
    status = Status::Ok();
    if (options_.fault_injector != nullptr) {
      // A signal interrupting a request (EINTR) is routine once SIGINT/
      // SIGTERM handlers are installed, not a device failure: retry the
      // injector immediately without charging backoff or consuming one of
      // the max_io_attempts slots. (Real EINTR from syscalls is already
      // absorbed inside io::File's pread/pwrite/open/fdatasync loops.)
      int eintr_spins = 0;
      while (auto fault = options_.fault_injector->Evaluate(op, path)) {
        if (*fault == FaultKind::kEintr && eintr_spins < kMaxEintrSpins) {
          ++eintr_spins;
          stats_.RecordEintrAbsorbed();
          continue;
        }
        status = FaultToStatus(*fault, path);
        break;
      }
    }
    if (status.ok()) status = attempt();
    if (status.code() != StatusCode::kIoError) return status;
  }
  return status.WithContext("after " + std::to_string(max_attempts) +
                            " attempts");
}

void Device::Backoff(double seconds) {
  if (options_.charge_virtual_time) {
    clock_.Add(seconds);
    return;
  }
  // Real sleep, capped so an exponential schedule can never stall a run.
  std::this_thread::sleep_for(
      std::chrono::duration<double>(std::min(seconds, 0.05)));
}

Result<DeviceFile> Device::Open(const std::string& path, OpenMode mode) {
  // O_DIRECT is a read-side measurement tool here (defeat the page cache);
  // writers keep buffered I/O + fsync so they need no alignment handling.
  const bool direct = options_.use_direct_io && mode == OpenMode::kRead;
  GRAPHSD_ASSIGN_OR_RETURN(File file, File::Open(path, mode, direct));
  DeviceFile df;
  df.device_ = this;
  df.file_ = std::move(file);
  return df;
}

void Device::AccountRead(AccessPattern pattern, std::uint64_t bytes) noexcept {
  stats_.RecordRead(pattern, bytes);
  if (!options_.charge_virtual_time) return;
  const auto& m = options_.cost_model;
  clock_.Add(pattern == AccessPattern::kSequential ? m.SeqReadSeconds(bytes)
                                                   : m.RandReadSeconds(bytes));
}

void Device::AccountWrite(AccessPattern pattern, std::uint64_t bytes) noexcept {
  stats_.RecordWrite(pattern, bytes);
  if (!options_.charge_virtual_time) return;
  const auto& m = options_.cost_model;
  clock_.Add(pattern == AccessPattern::kSequential
                 ? m.SeqWriteSeconds(bytes)
                 : m.RandWriteSeconds(bytes));
}

void Device::PublishMetrics(obs::MetricsRegistry& metrics) const {
  const IoStatsSnapshot s = stats_.Snapshot();
  const auto set = [&metrics](const char* name, std::uint64_t v) {
    metrics.GetGauge(name).Set(static_cast<double>(v));
  };
  set("device.seq_read_bytes", s.seq_read_bytes);
  set("device.seq_write_bytes", s.seq_write_bytes);
  set("device.rand_read_bytes", s.rand_read_bytes);
  set("device.rand_write_bytes", s.rand_write_bytes);
  set("device.seq_read_ops", s.seq_read_ops);
  set("device.seq_write_ops", s.seq_write_ops);
  set("device.rand_read_ops", s.rand_read_ops);
  set("device.rand_write_ops", s.rand_write_ops);
  set("device.retries", s.retries);
  set("device.checksum_failures", s.checksum_failures);
  set("device.eintr_absorbed", s.eintr_absorbed);
  set("device.vectored_reads", s.vectored_reads);
  set("device.bounce_reads", s.bounce_reads);
  set("pool.resident_bytes", pool_.resident_bytes());
  set("pool.free_bytes", pool_.free_bytes());
  metrics.GetGauge("device.clock_seconds").Set(clock_.Seconds());
}

std::unique_ptr<Device> MakePosixDevice(bool direct_io) {
  DeviceOptions opts;
  opts.use_direct_io = direct_io;
  opts.charge_virtual_time = false;
  opts.cost_model = IoCostModel::Free();
  return std::make_unique<Device>(opts);
}

std::unique_ptr<Device> MakeSimulatedDevice(IoCostModel model, bool direct_io) {
  DeviceOptions opts;
  opts.use_direct_io = direct_io;
  opts.charge_virtual_time = true;
  opts.cost_model = model;
  return std::make_unique<Device>(opts);
}

std::unique_ptr<Device> MakeRealSsdDevice() {
  DeviceOptions opts;
  opts.use_direct_io = true;
  opts.charge_virtual_time = false;
  opts.cost_model = IoCostModel::Ssd();
  // Merge selective-read runs up to one random-request granule apart: at
  // SSD seek costs, re-reading a ≤16 KiB gap is cheaper than a second
  // request, and one preadv replaces a syscall per run.
  opts.read_batch_gap_bytes = IoCostModel::Ssd().random_request_bytes;
  return std::make_unique<Device>(opts);
}

Result<std::unique_ptr<Device>> MakeDeviceForKind(const std::string& kind) {
  if (kind == "posix") return MakePosixDevice();
  if (kind == "sim:hdd") return MakeSimulatedDevice(IoCostModel::Hdd());
  if (kind == "sim:ssd") return MakeSimulatedDevice(IoCostModel::Ssd());
  if (kind == "scaled-hdd" || kind == "sim:scaled-hdd") {
    return MakeSimulatedDevice(IoCostModel::ScaledHdd());
  }
  if (kind == "real:ssd") return MakeRealSsdDevice();
  if (kind == "hdd" || kind == "ssd") {
    // These used to mean the simulated profiles; now that a real backend
    // exists the bare spelling is ambiguous, and a benchmark silently
    // running modeled I/O as if it were hardware (or vice versa) is exactly
    // the mistake this registry exists to prevent.
    return InvalidArgumentError(
        "ambiguous device kind '" + kind + "': spell the backend explicitly" +
        " (sim:" + kind + " for the modeled profile" +
        (kind == "ssd" ? ", real:ssd for direct-I/O hardware reads" : "") +
        ")");
  }
  return InvalidArgumentError(
      "unknown device kind '" + kind +
      "' (expected scaled-hdd | sim:hdd | sim:ssd | real:ssd | posix)");
}

}  // namespace graphsd::io
