#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "algos/connected_components.hpp"
#include "algos/multi_source.hpp"
#include "algos/pagerank.hpp"
#include "algos/pagerank_delta.hpp"
#include "core/engine.hpp"
#include "io/file.hpp"
#include "obs/json_writer.hpp"
#include "obs/run_report.hpp"
#include "partition/dataset_verify.hpp"
#include "service/batch_planner.hpp"

namespace graphsd::service {

namespace {

constexpr int kPollMillis = 100;
constexpr std::size_t kMaxLineBytes = 1 << 20;

/// Default PageRank round count when the request does not specify one
/// (matches the `graphsd run` CLI default).
constexpr std::uint32_t kDefaultPrIterations = 10;

Status SendAll(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("send", errno);
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

QueryServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

QueryServer::QueryServer(ServerOptions options)
    : options_(std::move(options)), admission_(options_.limits) {
  if (options_.external_cancel != nullptr) {
    shutdown_.set_parent(options_.external_cancel);
  }
  if (options_.scratch_dir.empty()) {
    options_.scratch_dir = options_.socket_path + ".scratch";
  }
  registry_ = std::make_unique<DatasetRegistry>(options_.registry);
}

QueryServer::~QueryServer() {
  Shutdown();
  Wait();
}

Status QueryServer::Start() {
  GRAPHSD_CHECK(!started_);
  if (options_.socket_path.empty()) {
    return InvalidArgumentError("serve: socket path must not be empty");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return InvalidArgumentError("serve: socket path too long: " +
                                options_.socket_path);
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  GRAPHSD_RETURN_IF_ERROR(io::MakeDirectories(options_.scratch_dir));

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return ErrnoError("socket", errno);
  ::unlink(options_.socket_path.c_str());  // replace a stale socket file
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status s = ErrnoError("bind " + options_.socket_path, errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 64) < 0) {
    const Status s = ErrnoError("listen", errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }

  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  const std::size_t workers = std::max<std::size_t>(1, options_.workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::Ok();
}

void QueryServer::Wait() {
  if (!started_) return;
  // Producers first: once the accept loop and every connection reader have
  // exited, the queue can only shrink — then workers drain it and stop.
  // This ordering is what guarantees shutdown delivers a response for every
  // request a client managed to submit.
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connection_threads_);
  }
  for (std::thread& t : connections) {
    if (t.joinable()) t.join();
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    producers_done_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
    (void)io::RemoveTree(options_.scratch_dir);
  }
}

Status QueryServer::Serve() {
  GRAPHSD_RETURN_IF_ERROR(Start());
  Wait();
  return Status::Ok();
}

void QueryServer::Shutdown() {
  shutdown_.Cancel("service shutdown");
  queue_cv_.notify_all();
}

ServiceStats QueryServer::stats() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    out = stats_;
  }
  {
    std::lock_guard<std::mutex> lock(
        const_cast<std::mutex&>(queue_mutex_));
    out.queue_depth = queue_.size();
  }
  out.admission_rejections = admission_.rejected();
  out.datasets = registry_->size();
  return out;
}

void QueryServer::CountError() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.errors;
}

void QueryServer::Respond(const std::shared_ptr<Connection>& connection,
                          const std::string& line) {
  std::lock_guard<std::mutex> lock(connection->write_mutex);
  // A vanished client is not a server error: drop the response.
  (void)SendAll(connection->fd, line + "\n");
}

void QueryServer::AcceptLoop() {
  while (!shutdown_.cancelled()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready <= 0) continue;  // timeout / EINTR: re-check the token
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connection_threads_.emplace_back(
        [this, connection] { ConnectionLoop(connection); });
  }
  // Shutdown drain: `connect()` succeeds against the listen backlog before
  // this loop ever sees the connection, so a client may already have
  // submitted a request on a never-accepted socket. Accept whatever is
  // pending so those requests still get a response — each reader's own
  // shutdown drain handles the rest.
  for (;;) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 0) <= 0 || (pfd.revents & POLLIN) == 0) break;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;
    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connection_threads_.emplace_back(
        [this, connection] { ConnectionLoop(connection); });
  }
}

void QueryServer::ConnectionLoop(std::shared_ptr<Connection> connection) {
  std::string buffer;
  char chunk[16384];
  bool overflow = false;
  const auto dispatch_lines = [&] {
    std::size_t start = 0;
    for (;;) {
      const std::size_t eol = buffer.find('\n', start);
      if (eol == std::string::npos) break;
      std::string line = buffer.substr(start, eol - start);
      start = eol + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) HandleLine(connection, line);
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxLineBytes) {
      Respond(connection,
              BuildErrorResponse(
                  0, InvalidArgumentError("request line exceeds 1 MiB")));
      overflow = true;
    }
  };

  while (!shutdown_.cancelled() && !overflow) {
    pollfd pfd{connection->fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const ssize_t n = ::recv(connection->fd, chunk, sizeof(chunk), 0);
    if (n == 0) return;  // EOF
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    dispatch_lines();
  }

  // Shutdown drain: on unix sockets a client's completed send() is already
  // in our receive buffer, so requests submitted before the shutdown
  // tripped are still dispatched (they run against the tripped token and
  // get cancelled partial reports). Bytes arriving later are dropped — the
  // client sees EOF.
  if (shutdown_.cancelled() && !overflow) {
    for (;;) {
      const ssize_t n =
          ::recv(connection->fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    dispatch_lines();
  }
}

void QueryServer::HandleLine(const std::shared_ptr<Connection>& connection,
                             const std::string& line) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.requests;
  }
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("service.requests").Add();
  }

  auto parsed = ParseRequest(line);
  if (!parsed.ok()) {
    CountError();
    Respond(connection, BuildErrorResponse(0, parsed.status()));
    return;
  }
  QueryRequest request = std::move(parsed).value();

  if (request.op == "ping") {
    Respond(connection, BuildAckResponse(request.id, "ping"));
    return;
  }
  if (request.op == "shutdown") {
    Respond(connection, BuildAckResponse(request.id, "shutdown"));
    Shutdown();
    return;
  }
  if (request.op == "stats") {
    const ServiceStats s = stats();
    const core::SubBlockBuffer::Counters buf =
        registry_->TotalBufferCounters();
    obs::JsonWriter json;
    json.BeginObject();
    json.Field("id", request.id);
    json.Field("ok", true);
    json.Field("op", "stats");
    json.Key("service");
    json.BeginObject();
    json.Field("requests", s.requests);
    json.Field("runs", s.runs);
    json.Field("run_requests", s.run_requests);
    json.Field("batches", s.batches);
    json.Field("batched_requests", s.batched_requests);
    json.Field("deduped", s.deduped);
    json.Field("cancelled_runs", s.cancelled_runs);
    json.Field("admission_rejections", s.admission_rejections);
    json.Field("errors", s.errors);
    json.Field("queue_depth", static_cast<std::uint64_t>(s.queue_depth));
    json.Field("datasets", static_cast<std::uint64_t>(s.datasets));
    json.EndObject();
    json.Key("buffer");
    json.BeginObject();
    json.Field("hits", buf.hits);
    json.Field("misses", buf.misses);
    const std::uint64_t lookups = buf.hits + buf.misses;
    json.Field("hit_rate", lookups == 0 ? 0.0
                                        : static_cast<double>(buf.hits) /
                                              static_cast<double>(lookups));
    json.Field("bytes_saved", buf.bytes_saved);
    json.Field("disk_bytes_saved", buf.disk_bytes_saved);
    json.Field("evictions", buf.evictions);
    json.Field("pinned_rejected_puts", buf.pinned_rejected_puts);
    json.EndObject();
    json.EndObject();
    Respond(connection, json.Finish());
    return;
  }
  if (request.op == "verify") {
    auto verify = partition::VerifyDataset(request.dataset);
    if (!verify.ok()) {
      CountError();
      Respond(connection, BuildErrorResponse(request.id, verify.status()));
      return;
    }
    obs::JsonWriter json;
    json.BeginObject();
    json.Field("id", request.id);
    json.Field("ok", true);
    json.Field("op", "verify");
    json.Field("dataset", request.dataset);
    json.Field("verified", verify->ok());
    json.Field("files_checked", verify->files_checked);
    json.Field("frames_checked", verify->frames_checked);
    json.Field("summary", verify->Summary());
    json.EndObject();
    Respond(connection, json.Finish());
    return;
  }
  if (request.op == "info") {
    auto entry = registry_->GetOrOpen(request.dataset);
    if (!entry.ok()) {
      CountError();
      Respond(connection, BuildErrorResponse(request.id, entry.status()));
      return;
    }
    const partition::GridManifest& m = (*entry)->dataset->manifest();
    obs::JsonWriter json;
    json.BeginObject();
    json.Field("id", request.id);
    json.Field("ok", true);
    json.Field("op", "info");
    json.Field("dataset", request.dataset);
    json.Field("name", m.name);
    json.Field("vertices", static_cast<std::uint64_t>(m.num_vertices));
    json.Field("edges", m.num_edges);
    json.Field("weighted", m.weighted);
    json.Field("intervals", m.p);
    json.Field("codec", m.codec);
    json.EndObject();
    Respond(connection, json.Finish());
    return;
  }
  GRAPHSD_CHECK(request.op == "run");
  HandleRun(connection, std::move(request));
}

void QueryServer::HandleRun(const std::shared_ptr<Connection>& connection,
                            QueryRequest request) {
  auto entry_or = registry_->GetOrOpen(request.dataset);
  if (!entry_or.ok()) {
    CountError();
    Respond(connection, BuildErrorResponse(request.id, entry_or.status()));
    return;
  }
  DatasetEntry* entry = *entry_or;
  const VertexId n = entry->dataset->num_vertices();

  // Validate everything a GRAPHSD_CHECK would otherwise abort the daemon
  // on: roots and requested value vertices must exist, weighted algorithms
  // need a weighted dataset.
  if (request.root >= n) {
    CountError();
    Respond(connection,
            BuildErrorResponse(
                request.id,
                InvalidArgumentError("root " + std::to_string(request.root) +
                                     " out of range (dataset has " +
                                     std::to_string(n) + " vertices)")));
    return;
  }
  for (const VertexId v : request.vertices) {
    if (v >= n) {
      CountError();
      Respond(connection,
              BuildErrorResponse(request.id,
                                 InvalidArgumentError(
                                     "requested value vertex " +
                                     std::to_string(v) + " out of range")));
      return;
    }
  }
  if ((request.algo == "sssp" || request.algo == "widest_path") &&
      !entry->dataset->weighted()) {
    CountError();
    Respond(connection,
            BuildErrorResponse(
                request.id,
                FailedPreconditionError("algo '" + request.algo +
                                        "' needs a weighted dataset")));
    return;
  }

  if (Status admitted = admission_.Admit(request, n); !admitted.ok()) {
    if (options_.metrics != nullptr) {
      options_.metrics->GetCounter("service.admission_rejections").Add();
    }
    Respond(connection, BuildErrorResponse(request.id, admitted));
    return;
  }
  const std::uint64_t reserved = EstimateStateBytes(request, n, 1);

  PendingRun pending;
  pending.request = std::move(request);
  pending.connection = connection;
  pending.entry = entry;
  pending.reserved_bytes = reserved;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.push_back(std::move(pending));
    if (options_.metrics != nullptr) {
      options_.metrics->GetGauge("service.queue_depth")
          .Set(static_cast<double>(queue_.size()));
    }
  }
  queue_cv_.notify_one();
}

void QueryServer::WorkerLoop() {
  using namespace std::chrono;
  for (;;) {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    queue_cv_.wait_for(lock, milliseconds(50), [this] {
      return !queue_.empty() || producers_done_;
    });
    if (queue_.empty()) {
      // Exit only once nothing can enqueue anymore (Wait() has joined the
      // accept loop and every reader): guarantees every submitted request
      // is executed and answered, even mid-shutdown.
      if (producers_done_) return;
      continue;
    }
    PendingRun leader = std::move(queue_.front());
    queue_.pop_front();

    std::vector<PendingRun> members;
    if (options_.enable_batching && options_.max_batch > 1 &&
        IsBatchableRequest(leader.request)) {
      if (options_.batch_linger_ms > 0 && !shutdown_.cancelled()) {
        // Give contemporaries a beat to arrive; batch width is the whole
        // point of the coalescer. The queue lock is released while
        // lingering, so arrivals can actually enqueue.
        queue_cv_.wait_for(
            lock, duration<double, std::milli>(options_.batch_linger_ms));
      }
      std::vector<QueryRequest> snapshot;
      snapshot.reserve(queue_.size());
      for (const PendingRun& p : queue_) snapshot.push_back(p.request);
      const BatchPlan plan =
          PlanBatch(leader.request, snapshot, options_.max_batch);
      // Erase members back-to-front so earlier indices stay valid.
      members.reserve(plan.member_indices.size());
      for (auto it = plan.member_indices.rbegin();
           it != plan.member_indices.rend(); ++it) {
        members.push_back(std::move(queue_[*it]));
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(*it));
      }
      std::reverse(members.begin(), members.end());
    }
    if (options_.metrics != nullptr) {
      options_.metrics->GetGauge("service.queue_depth")
          .Set(static_cast<double>(queue_.size()));
    }
    lock.unlock();
    ExecuteBatch(std::move(leader), std::move(members));
  }
}

void QueryServer::ExecuteBatch(PendingRun leader,
                               std::vector<PendingRun> members) {
  DatasetEntry* entry = leader.entry;
  std::vector<QueryRequest> member_requests;
  member_requests.reserve(members.size());
  for (const PendingRun& m : members) member_requests.push_back(m.request);
  const BatchPlan plan = PlanBatch(leader.request, member_requests,
                                   options_.max_batch);
  GRAPHSD_CHECK(plan.member_indices.size() == members.size());

  // Build the program: batched multi-source for the single-source
  // algorithms (a batch of one is just one lane), solo programs otherwise.
  std::unique_ptr<core::Program> program;
  algos::MultiSourceProgram* multi = nullptr;
  const QueryRequest& req = leader.request;
  if (IsBatchableRequest(req)) {
    auto ms = algos::MakeMultiSourceProgram(req.algo, plan.roots, req.epsilon);
    GRAPHSD_CHECK(ms != nullptr);
    multi = ms.get();
    program = std::move(ms);
  } else if (req.algo == "pr") {
    program = std::make_unique<algos::PageRank>(
        req.iterations != 0 ? req.iterations : kDefaultPrIterations);
  } else if (req.algo == "prd") {
    program = std::make_unique<algos::PageRankDelta>(req.epsilon);
  } else {
    GRAPHSD_CHECK(req.algo == "cc");
    program = std::make_unique<algos::ConnectedComponents>();
  }

  core::EngineOptions options;
  options.num_threads = options_.engine_threads;
  options.prefetch_depth = options_.registry.prefetch_depth;
  options.buffer_capacity_bytes = options_.registry.buffer_capacity_bytes;
  if (options_.share_buffer) {
    options.shared_buffer = entry->buffer.get();
    options.shared_prefetch = entry->prefetch.get();
    // Summaries are dataset-static, so sharing them is always safe; they
    // only pay off in semi-external rounds but recording them is cheap.
    options.shared_summaries = entry->summaries.get();
  }
  options.cache_compressed = options_.registry.cache_compressed;
  options.max_iterations = admission_.EffectiveIterationCap(req);
  options.deadline_seconds = admission_.EffectiveDeadline(req);
  options.cancel = &shutdown_;
  const std::uint64_t run_id =
      entry->run_seq.fetch_add(1, std::memory_order_relaxed);
  options.scratch_dir =
      options_.scratch_dir + "/run" + std::to_string(run_id);

  Status scratch = io::MakeDirectories(options.scratch_dir);
  Result<core::ExecutionReport> report = InternalError("not run");
  core::GraphSDEngine engine(*entry->dataset, options);
  if (scratch.ok()) {
    report = engine.Run(*program);
  } else {
    report = scratch;
  }
  (void)io::RemoveTree(options.scratch_dir);

  const auto respond_one = [&](const PendingRun& run, std::uint32_t lane) {
    if (!report.ok()) {
      CountError();
      Respond(run.connection,
              BuildErrorResponse(run.request.id, report.status()));
      return;
    }
    const core::ExecutionReport& r = *report;
    obs::JsonWriter json;
    json.BeginObject();
    json.Field("id", run.request.id);
    json.Field("ok", true);
    json.Field("op", "run");
    json.Field("algo", run.request.algo);
    json.Field("dataset", run.request.dataset);
    json.Field("root", static_cast<std::uint64_t>(run.request.root));
    json.Field("cancelled", r.cancelled);
    if (r.cancelled) json.Field("cancel_reason", r.cancel_reason);
    // Per-query exit-130 semantics: what the equivalent interrupted
    // `graphsd run` would have exited with.
    json.Field("exit_code",
               static_cast<std::uint64_t>(r.cancelled ? 130 : 0));
    json.Field("batched", plan.width() > 1);
    json.Field("batch_width", plan.width());
    json.Field("lane", lane);
    json.Key("report");
    json.RawValue(obs::ToRunReportJson(
        r, entry->device->options().cost_model, nullptr));
    if (run.request.values && engine.state() != nullptr) {
      const core::VertexState& state = *engine.state();
      std::vector<VertexId> ids = run.request.vertices;
      if (ids.empty()) {
        ids.resize(state.num_vertices());
        for (VertexId v = 0; v < state.num_vertices(); ++v) ids[v] = v;
      }
      json.Key("value_vertices");
      json.BeginArray();
      for (const VertexId v : ids) json.Uint(v);
      json.EndArray();
      json.Key("values");
      json.BeginArray();
      for (const VertexId v : ids) {
        const double value = multi != nullptr
                                 ? multi->LaneValueOf(state, lane, v)
                                 : program->ValueOf(state, v);
        json.String(HexDouble(value));
      }
      json.EndArray();
    }
    json.EndObject();
    Respond(run.connection, json.Finish());
  };

  // Stats before responses: a client that has its answer must be able to
  // observe the run in `stats` (the bench reads stats right after the last
  // response arrives).
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.runs;
    stats_.run_requests += 1 + members.size();
    stats_.deduped += plan.deduped;
    if (plan.width() > 1 || !members.empty()) {
      ++stats_.batches;
      stats_.batched_requests += 1 + members.size();
    }
    if (report.ok() && report->cancelled) ++stats_.cancelled_runs;
  }

  respond_one(leader, 0);
  for (std::size_t i = 0; i < members.size(); ++i) {
    respond_one(members[i], plan.lanes[i + 1]);
  }

  admission_.Release(leader.reserved_bytes);
  for (const PendingRun& m : members) admission_.Release(m.reserved_bytes);
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("service.runs").Add();
    options_.metrics->GetCounter("service.run_requests")
        .Add(1 + members.size());
    if (plan.deduped > 0) {
      options_.metrics->GetCounter("service.deduped").Add(plan.deduped);
    }
    options_.metrics->GetHistogram("service.batch_width")
        .Record(plan.width());
    if (report.ok() && report->cancelled) {
      options_.metrics->GetCounter("service.cancelled_runs").Add();
    }
  }
}

}  // namespace graphsd::service
