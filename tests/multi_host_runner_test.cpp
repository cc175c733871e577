#include "runner/shard_coordinator.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "runner/shard_protocol.hpp"
#include "runner/shard_server.hpp"
#include "runner/shard_transport.hpp"
#include "trace/report.hpp"

/// Acceptance battery of the multi-host sweep dataplane
/// (runner/shard_coordinator.hpp + runner/shard_server.hpp): real TCP
/// sessions against in-process ShardServers must merge byte-identically
/// to the in-process ScenarioRunner at every host/worker count, recover
/// from every injected network fault class within the retry budget,
/// reassign a dead host's shards to survivors (remote or local), and
/// reject protocol version skew loudly in both directions — and no
/// configuration may hang.
///
/// The test binary is its own `shard-server` (main() below forwards the
/// subcommand), because the local-endpoint battery fork/execs it.

namespace lr {
namespace {

/// RAII setenv/unsetenv so a failing test cannot leak fault knobs into
/// its neighbours.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

/// The byte string the determinism contract is stated over: records CSV,
/// aggregate CSV, and records JSON concatenated.
std::string tables_of(const SweepReport& report) {
  std::ostringstream os;
  write_table_csv(os, report.records_table());
  write_table_csv(os, report.aggregate_table());
  write_table_json(os, report.records_table());
  return os.str();
}

/// A small but heterogeneous sweep: 24 runs over two topologies and
/// three kernels, enough to spread non-trivially over several shards.
SweepSpec small_sweep() {
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kChain, TopologyKind::kRandom};
  sweep.sizes = {8, 12};
  sweep.algorithms = {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR,
                      AlgorithmKind::kTora};
  sweep.schedulers = {SchedulerKind::kLowestId};
  sweep.seeds = {1, 2};
  sweep.max_steps = 200'000;
  return sweep;
}

/// A somewhat longer sweep through the distributed kernels, used by the
/// mid-run host-death test so there is a run window to kill a host in.
SweepSpec longer_sweep() {
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kChain};
  sweep.sizes = {48, 64};
  sweep.algorithms = {AlgorithmKind::kDistFR, AlgorithmKind::kDistPR};
  sweep.schedulers = {SchedulerKind::kLowestId};
  sweep.seeds = {1, 2, 3};
  sweep.max_steps = 200'000;
  return sweep;
}

/// small_sweep() over 11 seeds: 132 runs, so 2 lanes split it into 9
/// ranges of at most kRangeRuns, and every session serves several.
/// Range 5 can only reach a session that has served a range before.
SweepSpec many_range_sweep() {
  SweepSpec sweep = small_sweep();
  sweep.seeds = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  return sweep;
}

std::string in_process_tables(const SweepSpec& sweep) {
  const ScenarioRunner runner({.threads = 1});
  return tables_of(runner.run(sweep));
}

/// Starts `count` loopback shard servers and returns them; hosts() maps
/// them to a --hosts style endpoint list with `workers` lanes each.
std::vector<std::unique_ptr<ShardServer>> start_servers(std::size_t count) {
  std::vector<std::unique_ptr<ShardServer>> servers;
  for (std::size_t i = 0; i < count; ++i) {
    servers.push_back(std::make_unique<ShardServer>());
    servers.back()->start();
  }
  return servers;
}

std::vector<HostSpec> hosts_of(const std::vector<std::unique_ptr<ShardServer>>& servers,
                               std::size_t workers) {
  std::vector<HostSpec> hosts;
  for (const auto& server : servers) {
    hosts.push_back({"127.0.0.1", server->port(), workers});
  }
  return hosts;
}

/// A loopback port with nothing listening on it: bound, inspected, and
/// closed, so connects are refused (the "host that is already dead"
/// staging used by the reassignment batteries).
std::uint16_t dead_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)), 0);
  socklen_t length = sizeof(address);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&address), &length), 0);
  const std::uint16_t port = ntohs(address.sin_port);
  ::close(fd);
  return port;
}

// ---------------------------------------------------------------------------
// Byte identity
// ---------------------------------------------------------------------------

TEST(MultiHostRunner, ByteIdenticalAcrossHostAndWorkerCounts) {
  const SweepSpec sweep = small_sweep();
  const std::string expected = in_process_tables(sweep);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    const auto servers = start_servers(2);
    ShardRunner runner({.threads = 1}, hosts_of(servers, workers));
    EXPECT_EQ(runner.total_workers(), 2 * workers);
    const SweepReport report = runner.run(sweep);
    EXPECT_EQ(tables_of(report), expected) << workers << " worker(s) per host";
    for (const ShardDiagnostics& diag : runner.shard_diagnostics()) {
      EXPECT_TRUE(diag.completed) << "shard " << diag.shard;
      EXPECT_EQ(diag.attempts, 1u) << "shard " << diag.shard;
      EXPECT_TRUE(diag.failure_lines().empty()) << "shard " << diag.shard;
      ASSERT_EQ(diag.attempt_log.size(), 1u);
      EXPECT_EQ(diag.attempt_log[0].outcome, "ok");
      EXPECT_NE(diag.attempt_log[0].endpoint.find("127.0.0.1:"), std::string::npos);
    }
  }
}

TEST(MultiHostRunner, WorkerThreadsInsideHostsKeepTablesIdentical) {
  const SweepSpec sweep = small_sweep();
  const std::string expected = in_process_tables(sweep);
  const auto servers = start_servers(2);
  ShardRunner runner({.threads = 2}, hosts_of(servers, 2));
  EXPECT_EQ(tables_of(runner.run(sweep)), expected);
}

// ---------------------------------------------------------------------------
// Network fault battery: every class recovers with identical tables
// ---------------------------------------------------------------------------

struct FaultCase {
  const char* knob;          ///< LR_TEST_TRANSPORT_FAULT value
  const char* expect_in_failure;  ///< substring of the logged failure
  bool recovers_via_retry;   ///< true = one failed attempt then success
};

class MultiHostFaultBattery : public ::testing::TestWithParam<FaultCase> {};

TEST_P(MultiHostFaultBattery, RecoversWithinBudgetAndStaysByteIdentical) {
  const FaultCase fault = GetParam();
  const SweepSpec sweep = small_sweep();
  const std::string expected = in_process_tables(sweep);
  const ScopedEnv knob("LR_TEST_TRANSPORT_FAULT", fault.knob);
  // Short watchdog so the heartbeat-stall case fires in test time.
  const ScopedEnv watchdog("LR_TEST_WORKER_TIMEOUT_MS", "400");
  const auto servers = start_servers(2);
  ShardRunner runner({.threads = 1}, hosts_of(servers, 2));
  const SweepReport report = runner.run(sweep);
  EXPECT_EQ(tables_of(report), expected) << fault.knob;
  const auto& diagnostics = runner.shard_diagnostics();
  ASSERT_GT(diagnostics.size(), 1u);
  const ShardDiagnostics& hit = diagnostics[1];  // faults target shard 1
  EXPECT_TRUE(hit.completed);
  if (fault.recovers_via_retry) {
    EXPECT_EQ(hit.attempts, 2u) << fault.knob;
    ASSERT_EQ(hit.failure_lines().size(), 1u) << fault.knob;
    // `expect_in_failure` lists acceptable classifications, '|'-separated
    // (a stalled channel may surface as the inactivity watchdog or as a
    // coordinator heartbeat failing on the dead-looking socket — both
    // are loud and both recover; which fires first is a timing race).
    {
      std::istringstream alternatives(fault.expect_in_failure);
      std::string token;
      bool matched = false;
      while (std::getline(alternatives, token, '|')) {
        matched = matched || hit.failure_lines()[0].find(token) != std::string::npos;
      }
      EXPECT_TRUE(matched) << fault.knob << " logged: " << hit.failure_lines()[0];
    }
    ASSERT_EQ(hit.attempt_log.size(), 2u);
    EXPECT_NE(hit.attempt_log[0].outcome, "ok");
    EXPECT_EQ(hit.attempt_log[1].outcome, "ok");
  } else {
    EXPECT_EQ(hit.attempts, 1u) << fault.knob;
    EXPECT_TRUE(hit.failure_lines().empty()) << fault.knob;
  }
  for (const ShardDiagnostics& diag : diagnostics) {
    EXPECT_TRUE(diag.completed) << "shard " << diag.shard;
  }
}

INSTANTIATE_TEST_SUITE_P(
    NetworkFaults, MultiHostFaultBattery,
    ::testing::Values(FaultCase{"drop:1", "truncated mid-frame|exited before completing", true},
                      FaultCase{"corrupt:1", "shard frame", true},
                      FaultCase{"hbstall:1", "stalled|heartbeat failed", true},
                      FaultCase{"connect:1", "connect", true},
                      FaultCase{"delay:1", "", false}),
    [](const ::testing::TestParamInfo<FaultCase>& info) {
      std::string name = info.param.knob;
      name.resize(name.find(':'));
      return name;
    });

/// The network analogues of a worker's exit, stall and truncation —
/// drop, hbstall and corrupt — plus a refused request, on a range that
/// is not its session's first: only that range is retried, and the
/// connection's earlier ranges keep their merged records.
class ReusedSessionNetworkFaults : public ::testing::TestWithParam<const char*> {};

TEST_P(ReusedSessionNetworkFaults, OnlyTheFaultedRangeRetries) {
  const std::string knob = GetParam();
  const SweepSpec sweep = many_range_sweep();
  const std::string expected = in_process_tables(sweep);
  const ScopedEnv fault("LR_TEST_TRANSPORT_FAULT", knob);
  const ScopedEnv watchdog("LR_TEST_WORKER_TIMEOUT_MS", "400");
  const auto servers = start_servers(1);
  ShardRunner runner({.threads = 1}, hosts_of(servers, 2));
  EXPECT_EQ(tables_of(runner.run(sweep)), expected) << knob;
  const auto& diagnostics = runner.shard_diagnostics();
  ASSERT_EQ(diagnostics.size(), 9u);
  for (const ShardDiagnostics& diag : diagnostics) {
    EXPECT_TRUE(diag.completed) << knob << " range " << diag.shard;
    EXPECT_EQ(diag.attempts, diag.shard == 5 ? 2u : 1u) << knob << " range " << diag.shard;
  }
}

INSTANTIATE_TEST_SUITE_P(DropStallCorruptConnect, ReusedSessionNetworkFaults,
                         ::testing::Values("drop:5", "hbstall:5", "corrupt:5", "connect:5"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           name.resize(name.find(':'));
                           return name;
                         });

TEST(MultiHostRunner, DropFaultLogNamesHowTheSessionEnded) {
  // The fault itself closes the connection; the retry line must carry
  // that close's status, not the "not connected" of a second abort.
  const SweepSpec sweep = many_range_sweep();
  const ScopedEnv fault("LR_TEST_TRANSPORT_FAULT", "drop:3");
  const auto servers = start_servers(1);
  ShardRunner runner({.threads = 1}, hosts_of(servers, 2));
  EXPECT_EQ(tables_of(runner.run(sweep)), in_process_tables(sweep));
  const auto& diagnostics = runner.shard_diagnostics();
  ASSERT_EQ(diagnostics.size(), 9u);
  ASSERT_EQ(diagnostics[3].failure_lines().size(), 1u);
  const std::string line = diagnostics[3].failure_lines()[0];
  EXPECT_NE(line.find("truncated mid-frame (connection closed by coordinator)"),
            std::string::npos)
      << line;
  EXPECT_EQ(line.find("not connected"), std::string::npos) << line;
}

TEST(MultiHostRunner, FaultFreeSweepOpensOneConnectionPerLane) {
  const SweepSpec sweep = many_range_sweep();
  const std::string expected = in_process_tables(sweep);
  const auto servers = start_servers(1);
  ShardRunner runner({.threads = 1}, hosts_of(servers, 2));
  EXPECT_EQ(tables_of(runner.run(sweep)), expected);
  // Both sessions end cleanly once the coordinator closes them; wait for
  // the server threads to count them.
  const auto bound = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (servers[0]->sessions_completed() < 2 && std::chrono::steady_clock::now() < bound) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(servers[0]->sessions_completed(), 2u);
  EXPECT_EQ(servers[0]->sessions_failed(), 0u);
  EXPECT_EQ(runner.shard_diagnostics().size(), 9u);
}

TEST(MultiHostRunner, UnrecoverableFaultExhaustsBudgetLoudly) {
  const SweepSpec sweep = small_sweep();
  // The fault outlives the budget: 2 total attempts, 20 armed failures.
  const ScopedEnv knob("LR_TEST_TRANSPORT_FAULT", "drop:0:20");
  const auto servers = start_servers(2);
  RunnerOptions options{.threads = 1};
  options.worker_retries = 1;
  ShardRunner runner(options, hosts_of(servers, 2));
  try {
    runner.run(sweep);
    FAIL() << "budget exhaustion must throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("multi-host sweep failed: retry budget exhausted"), std::string::npos)
        << what;
    EXPECT_NE(what.find("shard 0"), std::string::npos) << what;
  }
  const auto& diagnostics = runner.shard_diagnostics();
  ASSERT_FALSE(diagnostics.empty());
  EXPECT_FALSE(diagnostics[0].completed);
  EXPECT_EQ(diagnostics[0].attempts, 2u);
  EXPECT_EQ(diagnostics[0].failure_lines().size(), 2u);
}

// ---------------------------------------------------------------------------
// Host death: reassignment, local endpoint, loud all-dead failure
// ---------------------------------------------------------------------------

TEST(MultiHostRunner, DeadHostShardsReassignToSurvivor) {
  const SweepSpec sweep = small_sweep();
  const std::string expected = in_process_tables(sweep);
  const auto servers = start_servers(1);
  std::vector<HostSpec> hosts = hosts_of(servers, 2);
  hosts.push_back({"127.0.0.1", dead_port(), 2});
  ShardRunner runner({.threads = 1}, hosts);
  const SweepReport report = runner.run(sweep);
  EXPECT_EQ(tables_of(report), expected);
  bool any_refused = false;
  for (const ShardDiagnostics& diag : runner.shard_diagnostics()) {
    EXPECT_TRUE(diag.completed) << "shard " << diag.shard;
    for (const std::string& failure : diag.failure_lines()) {
      any_refused = any_refused || failure.find("connect") != std::string::npos;
    }
    ASSERT_FALSE(diag.attempt_log.empty());
    // Whoever failed, the attempt that completed ran on the live server.
    EXPECT_EQ(diag.attempt_log.back().endpoint,
              "127.0.0.1:" + std::to_string(servers[0]->port()));
  }
  EXPECT_TRUE(any_refused);  // the dead host was actually tried
}

TEST(MultiHostRunner, HostStoppedMidRunIsRecoveredFrom) {
  const SweepSpec sweep = longer_sweep();
  const std::string expected = in_process_tables(sweep);
  auto servers = start_servers(2);
  std::thread killer([&servers] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    servers[1]->stop();  // coordinators observe dropped connections
  });
  ShardRunner runner({.threads = 1}, hosts_of(servers, 2));
  const SweepReport report = runner.run(sweep);
  killer.join();
  EXPECT_EQ(tables_of(report), expected);
  for (const ShardDiagnostics& diag : runner.shard_diagnostics()) {
    EXPECT_TRUE(diag.completed) << "shard " << diag.shard;
  }
}

TEST(MultiHostRunner, AllHostsDeadEngagesLocalProcessFallback) {
  // Every host is dead from the start; the local endpoint, which takes
  // shards alongside the hosts, inherits their shards and finishes the
  // sweep byte-identically.
  const SweepSpec sweep = small_sweep();
  const std::string expected = in_process_tables(sweep);
  std::vector<HostSpec> hosts = {{"127.0.0.1", dead_port(), 2},
                                 {"127.0.0.1", dead_port(), 2}};
  RunnerOptions options{.threads = 1};
  options.process_workers = 2;  // the local endpoint
  ShardRunner runner(options, hosts);
  EXPECT_EQ(runner.total_workers(), 6u);
  const SweepReport report = runner.run(sweep);
  EXPECT_EQ(tables_of(report), expected);
  std::size_t refused = 0;
  for (const ShardDiagnostics& diag : runner.shard_diagnostics()) {
    EXPECT_TRUE(diag.completed) << "shard " << diag.shard;
    ASSERT_FALSE(diag.attempt_log.empty());
    EXPECT_EQ(diag.attempt_log.back().endpoint, "process");
    refused += diag.failure_lines().size();
  }
  EXPECT_GE(refused, 4u);  // both hosts were tried until declared dead
}

TEST(MultiHostRunner, AllHostsDeadWithoutFallbackFailsLoudly) {
  const SweepSpec sweep = small_sweep();
  std::vector<HostSpec> hosts = {{"127.0.0.1", dead_port(), 2}};
  ShardRunner runner({.threads = 1}, hosts);
  try {
    runner.run(sweep);
    FAIL() << "an all-dead deployment with no local endpoint must throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("multi-host sweep failed"), std::string::npos) << what;
    EXPECT_NE(what.find("every endpoint is dead"), std::string::npos) << what;
  }
}

TEST(MultiHostRunner, EmptyHostListRejected) {
  EXPECT_THROW(ShardRunner({.threads = 1}, {}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Version skew: rejected loudly in both directions, never a hang
// ---------------------------------------------------------------------------

TEST(MultiHostRunner, ServerRejectsSkewedRequestVersionLoudly) {
  const auto servers = start_servers(1);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(servers[0]->port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)), 0);
  timeval timeout{};
  timeout.tv_sec = 5;  // reads are bounded: a hang fails the test, loudly
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  ShardRequestFrame request;
  request.version = kShardProtocolVersion - 1;  // one protocol generation behind
  request.begin = 0;
  request.end = 4;
  request.total = 4;
  request.spec_text = "topology = chain\nsize = 8\nseed = 1\nalgorithm = fr\n";
  const std::vector<std::uint8_t> bytes = encode_frame(request);
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));

  FrameParser parser;
  bool got_error = false;
  bool got_eof = false;
  std::uint8_t buffer[4096];
  while (!got_eof) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    ASSERT_GE(n, 0) << "server went silent instead of refusing";
    if (n == 0) {
      got_eof = true;
      break;
    }
    parser.feed(buffer, static_cast<std::size_t>(n));
    while (auto frame = parser.next()) {
      ASSERT_EQ(frame->type, FrameType::kShardError);
      EXPECT_NE(frame->error.message.find("protocol version mismatch"), std::string::npos)
          << frame->error.message;
      got_error = true;
    }
  }
  EXPECT_TRUE(got_error);
  EXPECT_TRUE(got_eof);  // refusal then close, not a wedged session
  ::close(fd);
}

TEST(MultiHostRunner, CoordinatorRejectsSkewedHelloLoudly) {
  // A fake "old worker": accepts the connection and answers with a
  // previous-version hello.  The coordinator must classify the skew by name.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  const int reuse = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)), 0);
  ASSERT_EQ(::listen(listen_fd, 8), 0);
  socklen_t length = sizeof(address);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&address), &length), 0);
  const std::uint16_t port = ntohs(address.sin_port);

  std::atomic<bool> stop{false};
  std::vector<int> accepted;
  std::thread fake_worker([listen_fd, &stop, &accepted] {
    while (!stop.load()) {
      pollfd poll_item{listen_fd, POLLIN, 0};
      if (::poll(&poll_item, 1, 50) <= 0) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      accepted.push_back(fd);
      HelloFrame hello;
      hello.version = kShardProtocolVersion - 1;
      hello.begin = 0;
      hello.end = 24;
      const std::vector<std::uint8_t> bytes = encode_frame(hello);
      (void)!::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      // Keep the fd open: the rejection must come from the version
      // check, not from a dropped connection.
    }
  });

  const SweepSpec sweep = small_sweep();
  RunnerOptions options{.threads = 1};
  options.worker_retries = 0;  // one attempt: the skew itself must surface
  ShardRunner runner(options, {{"127.0.0.1", port, 1}});
  try {
    runner.run(sweep);
    stop.store(true);
    fake_worker.join();
    ::close(listen_fd);
    FAIL() << "version skew must fail the sweep";
  } catch (const std::runtime_error& error) {
    stop.store(true);
    fake_worker.join();
    for (const int fd : accepted) ::close(fd);
    ::close(listen_fd);
    const std::string what = error.what();
    EXPECT_NE(what.find("protocol version mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("worker " + std::to_string(kShardProtocolVersion - 1)), std::string::npos)
        << what;
  }
}

// ---------------------------------------------------------------------------
// Server refusals carry their cause to the coordinator's diagnostics
// ---------------------------------------------------------------------------

TEST(MultiHostRunner, ServerRefusalNamesTheCauseInDiagnostics) {
  // A coordinator whose spec disagrees with its own advertised total:
  // stage it by driving the raw protocol (the runner itself can never
  // produce this, which is exactly why the server must refuse it).
  const auto servers = start_servers(1);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(servers[0]->port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)), 0);
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  ShardRequestFrame request;  // current version, wrong run-count claim
  request.begin = 0;
  request.end = 4;
  request.total = 999;
  request.spec_text = "topology = chain\nsize = 8\nseed = 1\nalgorithm = fr\n";
  const std::vector<std::uint8_t> bytes = encode_frame(request);
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));

  FrameParser parser;
  std::string refusal;
  std::uint8_t buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    ASSERT_GE(n, 0);
    if (n == 0) break;
    parser.feed(buffer, static_cast<std::size_t>(n));
    while (auto frame = parser.next()) {
      ASSERT_EQ(frame->type, FrameType::kShardError);
      refusal = frame->error.message;
    }
  }
  ::close(fd);
  EXPECT_NE(refusal.find("expands to"), std::string::npos) << refusal;
  EXPECT_NE(refusal.find("999"), std::string::npos) << refusal;
}

}  // namespace
}  // namespace lr

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "shard-server") {
    return lr::shard_server_main(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
