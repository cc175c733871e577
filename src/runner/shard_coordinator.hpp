#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "runner/shard_transport.hpp"

/// \file shard_coordinator.hpp
/// The shard runner of the sweep dataplane: ShardRunner, the `lr_cli
/// sweep --processes / --hosts` backend.  It builds its endpoints from
/// RunnerOptions — one TcpShardTransport per `--hosts` entry plus, with
/// `--processes N`, one local ProcessShardTransport of capacity N
/// (runner/shard_transport.hpp) — and runs one poll() loop that
/// dispatches shards onto them, merges their record streams, and owns
/// every robustness decision: inactivity watchdogs, heartbeats,
/// backoff-scheduled retries (runner/retry_policy.hpp), endpoint-death
/// detection, and shard reassignment to surviving endpoints.
///
/// The merge contract is owned here, once: every record is validated
/// against the runner's own expansion and written to its global slot, so
/// the merged tables are byte-identical to the in-process runner's at
/// every transport mix, worker count, and fault schedule — retries and
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
/// the runner fails loudly with per-shard diagnostics.  Every wait in
/// the loop is deadline-bounded, so no configuration can hang.
///
/// The timing constants are fixed, not options: 5 s to start an attempt
/// (fork or connect, then ship the request), a heartbeat every
/// max(10 ms, timeout / 4), a worker-side coordinator watchdog of
/// max(2 x timeout, 2 s), and endpoint death after 2 consecutive
/// failures; retries back off on RetryPolicy's default schedule.  Only
/// the inactivity timeout (RunnerOptions::worker_timeout_ms) and the
/// attempt budget (1 + RunnerOptions::worker_retries) are settable.

namespace lr {

/// Executes sweeps by sharding them across worker endpoints.  Each
/// `--hosts` entry is a remote `shard-server` daemon serving
/// `HostSpec::workers` concurrent connections;
/// RunnerOptions::process_workers = N > 0 adds one local endpoint
/// ("process") of capacity N, whose every attempt is a fresh
/// `shard-server --stdio` child.  All endpoints take shards from the
/// start.  RunnerOptions::threads is the thread count inside each
/// worker, cache_max_entries its SweepCache bound, worker_retries /
/// worker_timeout_ms the crash-isolation budget, and snapshot_dir is
/// forwarded to the local children only.  Two test hooks are read at
/// construction: LR_TEST_WORKER_TIMEOUT_MS overrides worker_timeout_ms,
/// and LR_TEST_TRANSPORT_FAULT (`kind:shard[:attempts]`, kind in
/// connect|drop|corrupt|hbstall|delay) wraps every endpoint in a
/// deterministic FaultyTransport — the network fault battery of
/// tests/multi_host_runner_test.cpp.
class ShardRunner {
 public:
  /// Creates a runner over `hosts` plus the local endpoint.  Throws
  /// std::invalid_argument when there is no endpoint at all (no hosts
  /// and process_workers = 0: use ScenarioRunner) or on a malformed test
  /// hook.  `worker_command` is the binary the local endpoint fork/execs
  /// (empty = this process's own binary).
  explicit ShardRunner(RunnerOptions options, std::vector<HostSpec> hosts = {},
                       std::string worker_command = {});

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

  /// Total concurrent shard attempts across all endpoints: the shard
  /// count a large enough sweep is split into.
  std::size_t total_workers() const noexcept;

 private:
  RunnerOptions options_;
  std::string label_;  ///< error-message prefix naming the deployment
  int timeout_ms_;     ///< inactivity watchdog per attempt
  std::vector<std::shared_ptr<ShardTransport>> transports_;
  std::vector<ShardDiagnostics> diagnostics_;
};

}  // namespace lr
