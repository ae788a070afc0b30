#include "io/prefetch.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace graphsd::io {

PrefetchPipeline::PrefetchPipeline(std::size_t depth, std::size_t readers)
    : depth_(depth) {
  if (depth_ == 0) return;
  loader_ = std::make_unique<ThreadPool>(std::max<std::size_t>(1, readers));
}

std::future<Status> PrefetchPipeline::Submit(std::function<Status()> task) {
  // ThreadPool tasks must be copyable; the packaged task is not.
  auto packaged =
      std::make_shared<std::packaged_task<Status()>>(std::move(task));
  std::future<Status> done = packaged->get_future();
  ++submitted_;
  loader_->Submit([packaged] { (*packaged)(); });
  return done;
}

void PrefetchPipeline::PublishMetrics(obs::MetricsRegistry& metrics) const {
  metrics.GetGauge("prefetch.depth").Set(static_cast<double>(depth_));
  metrics.GetGauge("prefetch.readers").Set(static_cast<double>(readers()));
  metrics.GetGauge("prefetch.submitted")
      .Set(static_cast<double>(submitted_.load()));
  metrics.GetGauge("prefetch.skipped")
      .Set(static_cast<double>(skipped_.load()));
}

}  // namespace graphsd::io
