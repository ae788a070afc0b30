// QueryServer: the resident `graphsd serve` daemon.
//
// Architecture (DESIGN.md §13):
//
//   accept loop ──► connection reader threads ──► request queue ──► workers
//                        │  (parse, validate,        (admission-       │
//                        │   inline ops)              gated runs)      │
//                        ◄───────────── responses ◄────────────────────┘
//
// One reader thread per connection parses newline-delimited JSON requests.
// Cheap ops (ping/info/stats/verify/shutdown) execute inline on the reader;
// `run` requests pass the admission controller and join the shared request
// queue. Worker threads dequeue a leader, linger briefly for compatible
// arrivals, coalesce them into one multi-source batched engine run
// (batch_planner.hpp), and write each member its own response. All engine
// runs on one dataset share that dataset's SubBlockBuffer and
// PrefetchPipeline through the DatasetRegistry (pin-on-use keeps one run's
// working set safe from another's evictions).
//
// Shutdown (the `shutdown` op, or an external SIGTERM token): the daemon
// stops accepting work, queued runs execute against the tripped token —
// the engine returns immediately with a cancelled partial report, which is
// delivered to the client with exit-130 semantics — and Wait() returns
// once every thread has drained. A second signal force-exits via
// SignalCancellationScope, not this class.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "service/admission.hpp"
#include "service/dataset_registry.hpp"
#include "service/protocol.hpp"
#include "util/cancellation.hpp"

namespace graphsd::service {

struct ServerOptions {
  /// Unix-domain socket path. A stale socket file is replaced at Start().
  std::string socket_path;
  /// Dataset-tier options (device kind, buffer capacity, prefetch depth,
  /// verify-on-open).
  RegistryOptions registry;
  AdmissionLimits limits;
  /// Engine-run worker threads (concurrent runs; each run additionally
  /// parallelizes internally per `engine_threads`).
  std::size_t workers = 2;
  /// Worker threads inside each engine run (0 = hardware concurrency).
  std::size_t engine_threads = 0;
  /// Share each dataset's SubBlockBuffer + PrefetchPipeline across runs.
  /// Off = every run builds the same private tier a one-shot CLI run would.
  bool share_buffer = true;
  /// Coalesce compatible queued single-source requests into one
  /// multi-source batched run.
  bool enable_batching = true;
  /// Maximum value lanes per batched run.
  std::uint32_t max_batch = 8;
  /// How long a worker lingers for additional batch members after
  /// dequeuing a batchable leader (0 = take only what is already queued).
  double batch_linger_ms = 2.0;
  /// Root for per-run scratch directories (vertex-value files). Empty =
  /// `<socket_path>.scratch`. Created at Start(), removed at Wait().
  std::string scratch_dir;
  /// Optional service metrics sink (service.* instruments; non-owning).
  obs::MetricsRegistry* metrics = nullptr;
  /// External cancellation (the signal token). Chained under the server's
  /// own shutdown token: tripping it drains and stops the daemon.
  const CancellationToken* external_cancel = nullptr;
};

/// Snapshot of the service counters (also served by the `stats` op).
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t runs = 0;              // engine executions (batches count 1)
  std::uint64_t run_requests = 0;      // `run` requests answered
  std::uint64_t batches = 0;           // runs with width > 1
  std::uint64_t batched_requests = 0;  // run requests served by those
  std::uint64_t deduped = 0;           // requests that shared a lane
  std::uint64_t cancelled_runs = 0;
  std::uint64_t admission_rejections = 0;
  std::uint64_t errors = 0;
  std::size_t queue_depth = 0;
  std::size_t datasets = 0;
};

class QueryServer {
 public:
  explicit QueryServer(ServerOptions options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds the socket and starts the accept loop + workers.
  Status Start();

  /// Blocks until the daemon has shut down and every thread is joined.
  void Wait();

  /// Start() + Wait().
  Status Serve();

  /// Trips the shutdown token (idempotent; also triggered by the
  /// `shutdown` op and the external token).
  void Shutdown();

  ServiceStats stats() const;
  DatasetRegistry& registry() noexcept { return *registry_; }
  const std::string& socket_path() const noexcept {
    return options_.socket_path;
  }

 private:
  /// Closed by the last owner: the reader thread exits on EOF/shutdown, but
  /// a worker may still hold a PendingRun's reference and must be able to
  /// deliver its response on the open fd.
  struct Connection {
    int fd = -1;
    std::mutex write_mutex;
    ~Connection();
  };

  struct PendingRun {
    QueryRequest request;
    std::shared_ptr<Connection> connection;
    DatasetEntry* entry = nullptr;
    std::uint64_t reserved_bytes = 0;
  };

  void AcceptLoop();
  void ConnectionLoop(std::shared_ptr<Connection> connection);
  void WorkerLoop();

  void HandleLine(const std::shared_ptr<Connection>& connection,
                  const std::string& line);
  void HandleRun(const std::shared_ptr<Connection>& connection,
                 QueryRequest request);
  /// Executes one engine run for the leader + members and responds to each.
  void ExecuteBatch(PendingRun leader, std::vector<PendingRun> members);

  void Respond(const std::shared_ptr<Connection>& connection,
               const std::string& line);
  void CountError();

  ServerOptions options_;
  CancellationToken shutdown_;
  std::unique_ptr<DatasetRegistry> registry_;
  AdmissionController admission_;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::mutex connections_mutex_;
  std::vector<std::thread> connection_threads_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<PendingRun> queue_;
  /// Set by Wait() once the accept loop and every connection reader have
  /// exited: nothing can enqueue anymore, so workers may drain and stop.
  /// Guarded by queue_mutex_.
  bool producers_done_ = false;

  mutable std::mutex stats_mutex_;
  ServiceStats stats_;
  bool started_ = false;
};

}  // namespace graphsd::service
