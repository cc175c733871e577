#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "runner/retry_policy.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "runner/shard_transport.hpp"

/// \file shard_coordinator.hpp
/// The shard coordinator of the sweep dataplane: one poll() loop that
/// dispatches shards onto any mix of ShardTransports
/// (runner/shard_transport.hpp), merges their record streams, and owns
/// every robustness decision — inactivity watchdogs, coordinator
/// heartbeats, backoff-scheduled retries (runner/retry_policy.hpp),
/// endpoint-death detection, and shard reassignment to surviving
/// endpoints.
///
/// ShardRunner is the one sweep backend over this loop: it hands it one
/// TcpShardTransport per `--hosts` entry plus, with `--processes N`,
/// one local ProcessShardTransport of capacity N.  The merge contract is
/// owned here, once: every record is validated against the
/// coordinator's own expansion and written to its global slot, so the
/// merged tables are byte-identical to the in-process runner's at every
/// transport mix, worker count, and fault schedule — retries and
/// reassignments simply overwrite slots with identical bytes.
///
/// Liveness state machine (docs/ARCHITECTURE.md §"The shard
/// dataplane"): every live attempt carries a deadline that any received
/// frame pushes forward; a silent attempt past the deadline is aborted
/// and charged.  Failures (crash, EOF, protocol violation, stall,
/// refused connect, heartbeat-write failure) increment the serving
/// endpoint's consecutive-failure count; at the threshold the endpoint
/// is declared dead and receives no new work, and its shards are
/// reassigned to surviving endpoints (preferring an endpoint other than
/// the one that just failed).  An endpoint that later completes a shard
/// is resurrected.  When every endpoint is dead with work outstanding
/// the coordinator fails loudly with per-shard diagnostics.  Every wait
/// in the loop is deadline-bounded, so no configuration can hang.

namespace lr {

/// Configuration of a ShardCoordinator.
struct CoordinatorOptions {
  /// Attempt budget and backoff schedule; max_attempts counts total
  /// tries per shard (first + retries).
  RetryPolicy retry;

  /// Inactivity watchdog per attempt, in milliseconds: an attempt whose
  /// channel yields no frame for this long is aborted and charged.  The
  /// LR_TEST_WORKER_TIMEOUT_MS environment variable overrides it.
  int timeout_ms = 30'000;

  /// Budget for establishing one attempt (fork or connect, then request
  /// shipping).
  int start_timeout_ms = 5'000;

  /// Coordinator -> worker beacon interval; 0 derives timeout_ms / 4.
  int heartbeat_ms = 0;

  /// Consecutive failures after which an endpoint is declared dead.
  std::size_t endpoint_failure_threshold = 2;

  /// Error-message prefix naming the backend ("multi-process sweep",
  /// "multi-host sweep").
  std::string label = "sweep";

  std::size_t threads = 1;      ///< worker-internal thread count
  std::size_t cache_cap = 0;    ///< worker SweepCache LRU bound
};

/// The coordinator: shards a sweep across `transports` and merges the
/// streams.  See the file comment for the dataplane and liveness
/// contracts.
class ShardCoordinator {
 public:
  /// Creates a coordinator over `transports` (at least one required).
  ShardCoordinator(CoordinatorOptions options,
                   std::vector<std::shared_ptr<ShardTransport>> transports);

  /// Expands `spec`, runs every shard to completion across the
  /// endpoints (retrying and reassigning within budget), and returns the
  /// merged report, byte-identical to the in-process runner's.  Throws
  /// std::runtime_error with per-shard diagnostics when a shard exhausts
  /// its attempts or every endpoint dies with work outstanding — never
  /// hangs, never silently drops runs.
  SweepReport run(const SweepSpec& spec);

  /// Per-shard attempt/failure log of the most recent run() call (valid
  /// after both success and failure).
  const std::vector<ShardDiagnostics>& shard_diagnostics() const noexcept {
    return diagnostics_;
  }

  /// Sum of the transports' capacities: the shard count a large enough
  /// sweep is split into.
  std::size_t total_capacity() const noexcept;

 private:
  CoordinatorOptions options_;
  std::vector<std::shared_ptr<ShardTransport>> transports_;
  std::vector<ShardDiagnostics> diagnostics_;
};

/// Executes sweeps by sharding them across worker endpoints — the
/// `lr_cli sweep --processes / --hosts` backend.  Each `--hosts` entry
/// is a remote `shard-server` daemon serving `HostSpec::workers`
/// concurrent connections; RunnerOptions::process_workers = N > 0 adds
/// one local endpoint ("process") of capacity N, whose every attempt is
/// a fresh `shard-server --stdio` child.  All endpoints take shards from
/// the start.  RunnerOptions::threads is the thread count inside each
/// worker, worker_retries / worker_timeout_ms the crash-isolation
/// budget, and snapshot_dir is forwarded to the local children only.
/// The LR_TEST_TRANSPORT_FAULT environment variable
/// (`kind:shard[:attempts]`, kind in connect|drop|corrupt|hbstall|
/// delay) wraps every endpoint in a deterministic FaultyTransport — the
/// network fault battery of tests/multi_host_runner_test.cpp.
class ShardRunner {
 public:
  /// Creates a runner over `hosts` plus the local endpoint.  Throws
  /// std::invalid_argument when there is no endpoint at all (no hosts
  /// and process_workers = 0: use ScenarioRunner) or on a malformed
  /// LR_TEST_TRANSPORT_FAULT.  `worker_command` is the binary the local
  /// endpoint fork/execs (empty = this process's own binary).
  explicit ShardRunner(RunnerOptions options, std::vector<HostSpec> hosts = {},
                       std::string worker_command = {});

  /// Runs the sweep across the endpoints; same contract and exception
  /// behavior as ShardCoordinator::run().
  SweepReport run(const SweepSpec& spec) { return coordinator_.run(spec); }

  /// Per-shard attempt/failure log of the most recent run() call.
  const std::vector<ShardDiagnostics>& shard_diagnostics() const noexcept {
    return coordinator_.shard_diagnostics();
  }

  /// Total concurrent shard attempts across all endpoints.
  std::size_t total_workers() const noexcept { return coordinator_.total_capacity(); }

 private:
  ShardCoordinator coordinator_;
};

}  // namespace lr
