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
/// (runner/shard_transport.hpp) — and runs one poll() loop that cuts the
/// sweep into ranges of at most kRangeRuns runs, lets one long-lived
/// session per lane pull them (the next range ships on the same session
/// as soon as the last one's kShardDone arrives), merges their record
/// streams, and owns every robustness decision: inactivity watchdogs,
/// heartbeats, backoff-scheduled retries (runner/retry_policy.hpp),
/// endpoint-death detection, and range reassignment to surviving
/// endpoints.
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
/// and charged.  A failure aborts only that session: its in-flight
/// range is charged and retried, and the ranges it completed keep their
/// merged records.  Failures (crash, EOF, protocol violation, stall,
/// refused connect, heartbeat-write failure) increment the serving
/// endpoint's consecutive-failure count; at the threshold the endpoint
/// is declared dead and receives no new work, and its ranges are
/// reassigned to surviving endpoints (preferring an endpoint other than
/// the one that just failed).  An endpoint that later completes a shard
/// is resurrected.  When every endpoint is dead with work outstanding
/// the runner fails loudly with per-shard diagnostics.  Every wait in
/// the loop is deadline-bounded, so no configuration can hang.
///
/// The timing constants are fixed, not options: 5 s to start an attempt
/// (fork or connect, then ship the request; or ship it on a reused
/// session), a heartbeat every
/// max(10 ms, timeout / 4), a worker-side coordinator watchdog of
/// max(2 x timeout, 2 s), and endpoint death after 2 consecutive
/// failures; retries back off on RetryPolicy's default schedule.  Only
/// the inactivity timeout (RunnerOptions::worker_timeout_ms) and the
/// attempt budget (1 + RunnerOptions::worker_retries, saturating) are
/// settable.

namespace lr {

/// Executes sweeps by sharding them across worker endpoints.  Each
/// `--hosts` entry is a remote `shard-server` daemon serving
/// `HostSpec::workers` concurrent connections;
/// RunnerOptions::process_workers = N > 0 adds one local endpoint
/// ("process") of capacity N, whose every session is a
/// `shard-server --stdio` child serving ranges until the runner closes
/// it.  All endpoints take ranges from the start.
/// RunnerOptions::threads is the thread count inside each worker,
/// cache_max_entries its SweepCache bound, worker_retries /
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

  /// Expands `spec`, cuts it into max(total_workers(), ceil(runs /
  /// kRangeRuns)) ranges, runs every range to completion across the
  /// endpoints' sessions (retrying and reassigning within budget), and
  /// returns the merged report, byte-identical to the in-process
  /// runner's.  Throws std::runtime_error with per-range diagnostics
  /// when a range exhausts its attempts or every endpoint dies with work
  /// outstanding — never hangs, never silently drops runs.
  SweepReport run(const SweepSpec& spec);

  /// Per-range attempt/failure log of the most recent run() call (valid
  /// after both success and failure); a range is the unit the log calls
  /// a shard.
  const std::vector<ShardDiagnostics>& shard_diagnostics() const noexcept {
    return diagnostics_;
  }

  /// Total lanes across all endpoints: the sessions that run at once,
  /// and the fewest ranges a sweep of at least that many runs is cut
  /// into (larger sweeps get more, of at most kRangeRuns runs each).
  std::size_t total_workers() const noexcept;

 private:
  RunnerOptions options_;
  std::string label_;  ///< error-message prefix naming the deployment
  int timeout_ms_;     ///< inactivity watchdog per range attempt
  std::vector<std::shared_ptr<ShardTransport>> transports_;
  std::vector<ShardDiagnostics> diagnostics_;
};

}  // namespace lr
