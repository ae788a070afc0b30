#include "service/dataset_registry.hpp"

#include <algorithm>

#include "partition/dataset_verify.hpp"

namespace graphsd::service {

DatasetRegistry::DatasetRegistry(RegistryOptions options)
    : options_(std::move(options)) {}

Result<DatasetEntry*> DatasetRegistry::GetOrOpen(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(dir);
  if (it != entries_.end()) return it->second.get();

  if (options_.verify_on_open) {
    GRAPHSD_ASSIGN_OR_RETURN(partition::DatasetVerifyReport verify,
                             partition::VerifyDataset(dir));
    if (!verify.ok()) {
      return CorruptDataError("dataset " + dir +
                              " failed verification: " + verify.Summary());
    }
  }

  auto entry = std::make_unique<DatasetEntry>();
  entry->dir = dir;
  GRAPHSD_ASSIGN_OR_RETURN(entry->device,
                           io::MakeDeviceForKind(options_.device));
  GRAPHSD_ASSIGN_OR_RETURN(partition::GridDataset opened,
                           partition::GridDataset::Open(*entry->device, dir));
  entry->dataset =
      std::make_unique<partition::GridDataset>(std::move(opened));

  // One shared buffer + loader per dataset. Capacity defaults to the
  // engine's own 5 % budget so shared and private runs see the same tier
  // size. Cancellation belongs to each run's streams, not to the pipeline.
  const std::uint64_t capacity =
      options_.buffer_capacity_bytes != 0
          ? options_.buffer_capacity_bytes
          : std::max<std::uint64_t>(
                1, entry->dataset->manifest().TotalEdgeBytes() / 20);
  entry->buffer = std::make_unique<core::SubBlockBuffer>(capacity);
  entry->prefetch = std::make_unique<io::PrefetchPipeline>(
      options_.prefetch_depth, entry->device->reads_in_flight());
  // Skip summaries are dataset-static, so one store serves every query on
  // the entry: the first run to touch a sub-block publishes its summary and
  // all later runs skip I/O against it (DESIGN.md §14).
  entry->summaries = std::make_unique<core::SkipSummaryStore>(
      entry->dataset->manifest());

  DatasetEntry* raw = entry.get();
  entries_.emplace(dir, std::move(entry));
  return raw;
}

std::size_t DatasetRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

core::SubBlockBuffer::Counters DatasetRegistry::TotalBufferCounters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  core::SubBlockBuffer::Counters total;
  for (const auto& [dir, entry] : entries_) {
    const core::SubBlockBuffer::Counters c = entry->buffer->counters();
    total.hits += c.hits;
    total.misses += c.misses;
    total.bytes_saved += c.bytes_saved;
    total.disk_bytes_saved += c.disk_bytes_saved;
    total.evictions += c.evictions;
    total.rejected_puts += c.rejected_puts;
    total.pinned_rejected_puts += c.pinned_rejected_puts;
  }
  return total;
}

}  // namespace graphsd::service
