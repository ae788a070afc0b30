// Engine-facing run cancellation: signal plumbing for the token.
//
// The token itself lives in util/cancellation.hpp (the io layer polls it
// from each prefetch stream's loader fetches); this header adds the pieces
// only the driver needs:
//
//   * `SignalCancellationScope` — RAII SIGINT/SIGTERM installation that
//     trips a token instead of killing the process, so the engine can
//     write a final checkpoint and emit a partial run report.  A second
//     signal while cancellation is already pending force-exits (the
//     escape hatch when draining itself wedges).
//
// Poll points, in order of granularity (see DESIGN.md §12):
//   engine round loop → executor pass/sub-block loops → read-queue tasks.
#pragma once

#include "util/cancellation.hpp"

namespace graphsd::core {

/// Routes SIGINT/SIGTERM to `token->Cancel(...)` for the scope's lifetime;
/// restores the previous handlers on destruction.  At most one scope may
/// be live per process (enforced with GRAPHSD_CHECK) because signal
/// dispositions are process-global.  Handlers are installed without
/// SA_RESTART so blocking syscalls return EINTR promptly — io::File
/// absorbs those retries transparently.
class SignalCancellationScope {
 public:
  explicit SignalCancellationScope(CancellationToken* token);
  ~SignalCancellationScope();

  SignalCancellationScope(const SignalCancellationScope&) = delete;
  SignalCancellationScope& operator=(const SignalCancellationScope&) = delete;
};

}  // namespace graphsd::core
