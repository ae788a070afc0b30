// End-to-end query-service tests: an in-process QueryServer on a temp unix
// socket, driven by real ServiceClient connections from concurrent threads.
//
// The differential test is the service-level acceptance gate: K identical +
// K distinct queries answered by the daemon (shared buffer tier, batching
// on) must be bit-identical to solo one-shot engine runs — the hex-float
// value encoding makes "bit-identical" literal string equality.
#include "service/server.hpp"

#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "algos/personalized_pagerank.hpp"
#include "algos/sssp.hpp"
#include "core/cancellation.hpp"
#include "core/engine.hpp"
#include "engine/engine_test_util.hpp"
#include "io/file.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"

namespace graphsd::testing {
namespace {

using service::JsonValue;
using service::ParseJson;
using service::QueryServer;
using service::ServerOptions;
using service::ServiceClient;

constexpr double kRecvTimeout = 120.0;

/// Builds one dataset and returns its directory (kept alive by `td`).
struct ServiceFixture {
  TempDir tmp;
  TestDataset td;
  std::string dataset_dir;

  explicit ServiceFixture(EdgeList graph)
      : td(MakeDataset(std::move(graph), tmp.Sub("ds"), 4)),
        dataset_dir(tmp.Sub("ds")) {}

  ServerOptions Options(const std::string& socket_name) {
    ServerOptions options;
    options.socket_path = tmp.Sub(socket_name);
    options.registry.device = "posix";
    options.registry.verify_on_open = false;  // built in-process just now
    options.workers = 2;
    return options;
  }

  /// Solo baseline: a fresh one-shot engine run, values as hex strings.
  std::vector<std::string> SoloHexValues(core::Program& program,
                                         const std::string& scratch) {
    core::EngineOptions options;
    options.scratch_dir = tmp.Sub(scratch);
    EXPECT_OK(io::MakeDirectories(options.scratch_dir));
    core::GraphSDEngine engine(*td.dataset, options);
    auto report = engine.Run(program);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    std::vector<std::string> out;
    out.reserve(engine.state()->num_vertices());
    for (VertexId v = 0; v < engine.state()->num_vertices(); ++v) {
      out.push_back(service::HexDouble(program.ValueOf(*engine.state(), v)));
    }
    return out;
  }
};

std::string RunRequestLine(std::uint64_t id, const std::string& dataset,
                           const std::string& algo, VertexId root,
                           double epsilon = 1e-10) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"id\":%llu,\"op\":\"run\",\"dataset\":\"%s\","
                "\"algo\":\"%s\",\"root\":%u,\"epsilon\":%.17g,"
                "\"values\":true}",
                static_cast<unsigned long long>(id), dataset.c_str(),
                algo.c_str(), root, epsilon);
  return buf;
}

JsonValue QueryOnce(const std::string& socket, const std::string& line) {
  ServiceClient client;
  Status s = client.Connect(socket);
  EXPECT_TRUE(s.ok()) << s.ToString();
  auto response = client.RoundTrip(line, kRecvTimeout);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  auto parsed = ParseJson(response.ok() ? *response : "null",
                          /*max_bytes=*/64 << 20);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? *parsed : JsonValue();
}

std::vector<std::string> HexValuesOf(const JsonValue& response) {
  std::vector<std::string> out;
  const JsonValue* values = response.Find("values");
  if (values == nullptr || !values->is_array()) return out;
  out.reserve(values->elements().size());
  for (const JsonValue& v : values->elements()) {
    out.push_back(v.string_value());
  }
  return out;
}

TEST(ServiceTest, PingInfoStatsAndErrors) {
  ServiceFixture fx(MakeErCase());
  QueryServer server(fx.Options("s.sock"));
  ASSERT_OK(server.Start());

  JsonValue ping = QueryOnce(server.socket_path(), R"({"id":1,"op":"ping"})");
  EXPECT_TRUE(ping.GetBool("ok"));
  EXPECT_EQ(ping.GetUint("protocol"), service::kProtocolVersion);

  JsonValue info = QueryOnce(
      server.socket_path(),
      R"({"id":2,"op":"info","dataset":")" + fx.dataset_dir + R"("})");
  EXPECT_TRUE(info.GetBool("ok"));
  EXPECT_EQ(info.GetUint("vertices"), fx.td.dataset->num_vertices());
  EXPECT_TRUE(info.GetBool("weighted"));

  // Malformed JSON and a bad root both produce error envelopes, not drops.
  JsonValue bad = QueryOnce(server.socket_path(), "{nope");
  EXPECT_FALSE(bad.GetBool("ok", true));
  JsonValue bad_root = QueryOnce(
      server.socket_path(),
      RunRequestLine(3, fx.dataset_dir, "bfs", 1u << 30));
  EXPECT_FALSE(bad_root.GetBool("ok", true));
  EXPECT_EQ(bad_root.Find("error")->GetString("code"), "InvalidArgument");

  JsonValue stats =
      QueryOnce(server.socket_path(), R"({"id":4,"op":"stats"})");
  EXPECT_TRUE(stats.GetBool("ok"));
  EXPECT_GE(stats.Find("service")->GetUint("requests"), 4u);
  EXPECT_GE(stats.Find("service")->GetUint("errors"), 2u);

  server.Shutdown();
  server.Wait();
}

// The acceptance gate: K identical + K distinct concurrent queries, every
// response bit-identical to a solo one-shot run of the same query.
TEST(ServiceTest, ConcurrentDifferentialBitIdentical) {
  ServiceFixture fx(MakeErCase());
  const VertexId n = fx.td.dataset->num_vertices();
  const std::vector<VertexId> distinct_roots = {0, 1, n / 3, n / 2, n - 1};
  const VertexId shared_root = 7;
  constexpr int kIdentical = 5;

  // Solo baselines (engine runs without the service).
  std::vector<std::vector<std::string>> solo(distinct_roots.size());
  for (std::size_t i = 0; i < distinct_roots.size(); ++i) {
    algos::Sssp program(distinct_roots[i]);
    solo[i] = fx.SoloHexValues(program, "solo" + std::to_string(i));
  }
  algos::Sssp shared_program(shared_root);
  const auto solo_shared = fx.SoloHexValues(shared_program, "solo_shared");

  ServerOptions options = fx.Options("s.sock");
  options.batch_linger_ms = 50;
  QueryServer server(options);
  ASSERT_OK(server.Start());

  std::vector<std::vector<std::string>> got(distinct_roots.size() +
                                            kIdentical);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < distinct_roots.size(); ++i) {
    threads.emplace_back([&, i] {
      const JsonValue response = QueryOnce(
          server.socket_path(),
          RunRequestLine(100 + i, fx.dataset_dir, "sssp", distinct_roots[i]));
      EXPECT_TRUE(response.GetBool("ok"));
      got[i] = HexValuesOf(response);
    });
  }
  for (int i = 0; i < kIdentical; ++i) {
    threads.emplace_back([&, i] {
      const JsonValue response = QueryOnce(
          server.socket_path(),
          RunRequestLine(200 + i, fx.dataset_dir, "sssp", shared_root));
      EXPECT_TRUE(response.GetBool("ok"));
      got[distinct_roots.size() + i] = HexValuesOf(response);
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 0; i < distinct_roots.size(); ++i) {
    ASSERT_EQ(got[i].size(), solo[i].size()) << "root " << distinct_roots[i];
    EXPECT_EQ(got[i], solo[i]) << "root " << distinct_roots[i];
  }
  for (int i = 0; i < kIdentical; ++i) {
    EXPECT_EQ(got[distinct_roots.size() + i], solo_shared);
  }

  server.Shutdown();
  server.Wait();
}

// PPR is the consuming (non-monotone) batched algorithm: service answers
// must match solo runs within the sum-threshold tolerance.
TEST(ServiceTest, ConcurrentPprWithinTolerance) {
  ServiceFixture fx(MakeWebCase());
  const VertexId n = fx.td.dataset->num_vertices();
  const std::vector<VertexId> roots = {0, n / 2, n - 1};
  const double epsilon = 1e-8;

  std::vector<std::vector<std::string>> solo(roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    algos::PersonalizedPageRank program(roots[i], epsilon);
    solo[i] = fx.SoloHexValues(program, "solo" + std::to_string(i));
  }

  ServerOptions options = fx.Options("s.sock");
  options.batch_linger_ms = 50;
  QueryServer server(options);
  ASSERT_OK(server.Start());

  std::vector<std::vector<std::string>> got(roots.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    threads.emplace_back([&, i] {
      const JsonValue response = QueryOnce(
          server.socket_path(),
          RunRequestLine(300 + i, fx.dataset_dir, "ppr", roots[i], epsilon));
      EXPECT_TRUE(response.GetBool("ok"));
      got[i] = HexValuesOf(response);
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 0; i < roots.size(); ++i) {
    ASSERT_EQ(got[i].size(), solo[i].size());
    for (std::size_t v = 0; v < solo[i].size(); ++v) {
      const double want = ValueOrDie(service::ParseHexDouble(solo[i][v]));
      const double have = ValueOrDie(service::ParseHexDouble(got[i][v]));
      EXPECT_NEAR(have, want, 2e-6 + 1e-6 * std::fabs(want))
          << "root " << roots[i] << " vertex " << v;
    }
  }

  server.Shutdown();
  server.Wait();
}

// Holding the single worker busy forces later arrivals to queue, so the
// coalescer has something to batch; the generous linger covers scheduling
// jitter. Identical requests must dedup onto one lane.
TEST(ServiceTest, BatchingCoalescesQueuedQueries) {
  ServiceFixture fx(MakeErCase());
  const VertexId n = fx.td.dataset->num_vertices();

  ServerOptions options = fx.Options("s.sock");
  options.workers = 1;
  options.batch_linger_ms = 500;
  options.scratch_dir = fx.tmp.Sub("scratch");
  QueryServer server(options);
  ASSERT_OK(server.Start());

  // Occupy the worker with a long PageRank run.
  std::thread busy([&] {
    ServiceClient client;
    ASSERT_OK(client.Connect(server.socket_path()));
    ASSERT_OK(client.SendLine(
        R"({"id":1,"op":"run","dataset":")" + fx.dataset_dir +
        R"(","algo":"pr","iterations":300})"));
    auto response = client.RecvLine(kRecvTimeout);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
  });
  // Send the BFS queries only once the worker runs the PageRank (its run
  // directory exists, bounded at 10 s): a BFS leader dequeued first would
  // batch only with whatever follows it, so the duplicate roots could
  // land in different runs.
  {
    const std::string pr_run_dir = options.scratch_dir + "/run0";
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!io::PathExists(pr_run_dir) && server.stats().run_requests == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  const std::vector<VertexId> roots = {0, 1, 2, n / 2, 0, 1};  // 2 dups
  std::vector<std::thread> threads;
  std::vector<JsonValue> responses(roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    threads.emplace_back([&, i] {
      responses[i] = QueryOnce(
          server.socket_path(),
          RunRequestLine(400 + i, fx.dataset_dir, "bfs", roots[i]));
    });
  }
  for (std::thread& t : threads) t.join();
  busy.join();

  algos::Bfs solo0(0);
  const auto solo_values = fx.SoloHexValues(solo0, "solo_bfs0");
  bool any_batched = false;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    EXPECT_TRUE(responses[i].GetBool("ok"));
    if (responses[i].GetUint("batch_width") > 1) any_batched = true;
    if (roots[i] == 0) {
      EXPECT_EQ(HexValuesOf(responses[i]), solo_values) << "query " << i;
    }
  }
  EXPECT_TRUE(any_batched);

  const service::ServiceStats stats = server.stats();
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GE(stats.deduped, 1u);
  EXPECT_EQ(stats.run_requests, roots.size() + 1);

  server.Shutdown();
  server.Wait();
}

TEST(ServiceTest, AdmissionRejectsOverLimitRequests) {
  ServiceFixture fx(MakeErCase());
  ServerOptions options = fx.Options("s.sock");
  options.limits.max_iterations = 5;
  QueryServer server(options);
  ASSERT_OK(server.Start());

  JsonValue over = QueryOnce(
      server.socket_path(),
      R"({"id":1,"op":"run","dataset":")" + fx.dataset_dir +
          R"(","algo":"pr","iterations":100})");
  EXPECT_FALSE(over.GetBool("ok", true));
  EXPECT_EQ(over.Find("error")->GetString("code"), "InvalidArgument");
  EXPECT_GE(server.stats().admission_rejections, 1u);

  // Within the cap still runs.
  JsonValue ok = QueryOnce(
      server.socket_path(),
      R"({"id":2,"op":"run","dataset":")" + fx.dataset_dir +
          R"(","algo":"pr","iterations":3})");
  EXPECT_TRUE(ok.GetBool("ok"));

  server.Shutdown();
  server.Wait();
}

TEST(ServiceTest, AdmissionRejectsOverMemoryBudget) {
  ServiceFixture fx(MakeErCase());
  ServerOptions options = fx.Options("s.sock");
  options.limits.max_request_state_bytes = 16;  // nothing fits
  QueryServer server(options);
  ASSERT_OK(server.Start());

  JsonValue response = QueryOnce(
      server.socket_path(), RunRequestLine(1, fx.dataset_dir, "bfs", 0));
  EXPECT_FALSE(response.GetBool("ok", true));
  EXPECT_EQ(response.Find("error")->GetString("code"), "InvalidArgument");

  server.Shutdown();
  server.Wait();
}

// Tripping the external token (what SIGTERM does in `graphsd serve`) must
// drain: every already-submitted query still gets a response — completed,
// or a cancelled partial report with exit-130 semantics — and Wait()
// returns.
TEST(ServiceTest, ShutdownDrainsInFlightQueries) {
  ServiceFixture fx(MakeErCase());
  ServerOptions options = fx.Options("s.sock");
  options.workers = 1;
  graphsd::CancellationToken external;
  options.external_cancel = &external;
  QueryServer server(options);
  ASSERT_OK(server.Start());

  ServiceClient busy;
  ASSERT_OK(busy.Connect(server.socket_path()));
  ASSERT_OK(busy.SendLine(R"({"id":1,"op":"run","dataset":")" +
                          fx.dataset_dir +
                          R"(","algo":"pr","iterations":2000})"));
  ServiceClient queued;
  ASSERT_OK(queued.Connect(server.socket_path()));
  ASSERT_OK(queued.SendLine(RunRequestLine(2, fx.dataset_dir, "bfs", 0)));

  external.Cancel("test sigterm");

  auto first = busy.RecvLine(kRecvTimeout);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = queued.RecvLine(kRecvTimeout);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  for (const auto& line : {*first, *second}) {
    const JsonValue response = ValueOrDie(ParseJson(line, 64 << 20));
    ASSERT_TRUE(response.GetBool("ok")) << line;
    const std::uint64_t exit_code = response.GetUint("exit_code", 99);
    EXPECT_TRUE(exit_code == 0 || exit_code == 130) << line;
    if (response.GetBool("cancelled")) {
      EXPECT_EQ(exit_code, 130u);
    }
  }

  server.Wait();  // must return: the token is tripped
  const service::ServiceStats stats = server.stats();
  EXPECT_EQ(stats.run_requests, 2u);
}

}  // namespace
}  // namespace graphsd::testing
