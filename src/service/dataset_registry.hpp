// DatasetRegistry: the daemon's table of opened datasets.
//
// One entry per dataset directory, created on first use and kept for the
// daemon's lifetime: the manifest is parsed once, the frames are verified
// once (optional), and the entry owns the resources every query on that
// dataset shares —
//   * the accounted Device (thread-safe counters; see io/device.hpp),
//   * one pinned-aware SubBlockBuffer, so a sub-block loaded for one query
//     serves every concurrent and subsequent query (the service's shared
//     buffer tier),
//   * one PrefetchPipeline, so all queries' reads funnel through a single
//     loader thread — the modeled device is one serial disk, and a single
//     submission order keeps its accounting meaningful under concurrency.
//
// Entries are heap-allocated and never destroyed before shutdown, so
// pointers handed to workers stay valid without further locking.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/skip_summary.hpp"
#include "core/sub_block_buffer.hpp"
#include "io/device.hpp"
#include "io/prefetch.hpp"
#include "partition/grid_dataset.hpp"

namespace graphsd::service {

struct RegistryOptions {
  /// Device kind every entry opens: "posix" | "scaled-hdd" | "sim:hdd" |
  /// "sim:ssd" | "real:ssd" (see io::MakeDeviceForKind).
  std::string device = "posix";
  /// Shared buffer capacity per dataset; 0 = 5 % of the edge payload (the
  /// engine's default budget).
  std::uint64_t buffer_capacity_bytes = 0;
  /// Shared loader look-ahead; 0 disables prefetching (synchronous reads).
  std::size_t prefetch_depth = 1;
  /// Run a full frame verification (CRC walk of every sub-block) on first
  /// open; a corrupt dataset is refused once instead of failing queries
  /// midway, and the verdict is cached with the entry.
  bool verify_on_open = true;
  /// Cache compressed sub-blocks as raw GSDF frames in the shared buffer
  /// (decode-on-hit); only meaningful for compressed datasets, a no-op
  /// otherwise. See DESIGN.md §14.
  bool cache_compressed = false;
};

struct DatasetEntry {
  std::string dir;
  std::unique_ptr<io::Device> device;
  std::unique_ptr<partition::GridDataset> dataset;
  std::unique_ptr<core::SubBlockBuffer> buffer;
  std::unique_ptr<io::PrefetchPipeline> prefetch;
  /// Dataset-static active-source skip summaries, learned once by any query
  /// and consulted by every later one (semi-external mode; DESIGN.md §14).
  std::unique_ptr<core::SkipSummaryStore> summaries;
  /// Monotone per-run sequence for scratch-directory names (each engine run
  /// needs a private values file; see QueryServer).
  std::atomic<std::uint64_t> run_seq{0};
};

class DatasetRegistry {
 public:
  explicit DatasetRegistry(RegistryOptions options);

  /// Returns the entry for `dir`, opening (and optionally verifying) it on
  /// first use. Thread-safe; the returned pointer stays valid until the
  /// registry is destroyed. Concurrent first opens of the same directory
  /// serialize on the registry mutex.
  Result<DatasetEntry*> GetOrOpen(const std::string& dir);

  /// Number of opened datasets.
  std::size_t size() const;

  /// Sums the shared-buffer counters over every entry (service-level stats).
  core::SubBlockBuffer::Counters TotalBufferCounters() const;

  const RegistryOptions& options() const noexcept { return options_; }

 private:
  RegistryOptions options_;
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<DatasetEntry>> entries_;
};

}  // namespace graphsd::service
