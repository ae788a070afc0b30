#include "util/clock.hpp"

#include "util/status.hpp"

namespace graphsd {

void VirtualClock::Add(double seconds) noexcept {
  if (seconds <= 0) return;  // zero-cost events are fine; never subtract
  const auto nanos = static_cast<std::int64_t>(seconds * 1e9);
  nanos_.fetch_add(nanos, std::memory_order_relaxed);
}

}  // namespace graphsd
