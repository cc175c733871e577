#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

/// \file shard_server.hpp
/// The worker side of the sharded sweep dataplane: one shard session
/// function, served either by a TCP daemon to remote coordinators
/// (`lr_cli shard-server --listen`, ShardServer) or by a one-session
/// child process over a socketpair on its fd 0 (`lr_cli shard-server
/// --stdio`, fork/exec'd by ProcessShardTransport for `sweep
/// --processes`).  Both run serve_shard_session(); only the way the
/// socket reaches it differs.
///
/// Session contract, per connection: the coordinator sends one
/// kShardRequest per range, the next only after the previous range's
/// kShardDone, and closes the connection when it has no more work.  The
/// session validates each request (protocol version, parseable spec,
/// run-count and range cross-checks, at most kRangeRuns runs) and
/// either answers with a single loud kShardError and ends, or replies
/// kHello, runs the range in one batch, streams its records and a
/// kShardDone, interleaving kHeartbeat beacons so a long range never
/// looks like a dead worker.  The spec is expanded once per distinct
/// spec text.  A per-session reader checks the coordinator's own
/// beacons; a coordinator silent past the request's liveness timeout —
/// or a closed connection mid-range — makes the session abandon the
/// range, so an orphaned worker never computes for a dead coordinator.
/// Every wait is deadline-bounded: no peer behavior can hang a session.
///
/// Fault injection (test hook, `--stdio` children only): the
/// LR_TEST_WORKER_FAULT environment variable — `exit:<shard>`,
/// `segv:<shard>`, `truncate:<shard>`, `stall:<shard>`, each with an
/// optional `:<attempts>` suffix (default 1), parsed by
/// parse_fault_hook (runner/shard_transport.hpp) — makes the child
/// inject that fault mid-range on the first `<attempts>` attempts of
/// range `<shard>`, whichever session they reach, which
/// is how tests/process_runner_test.cpp drives the retry-then-success
/// and bounded-retry-then-loud-failure batteries.  A malformed value
/// makes the child exit 2 naming it.

namespace lr {

/// One shard session's connection state, shared between the thread
/// serving it and whoever may cancel it.  The socket is borrowed: the
/// owner closes it after the session has ended.
struct ShardSession {
  /// Wraps the connected stream socket `fd`.
  explicit ShardSession(int fd) : fd(fd) {}

  int fd = -1;                         ///< connected stream socket
  std::atomic<bool> cancelled{false};  ///< abandon the session ASAP
  std::atomic<bool> done{false};       ///< the session function has finished
  std::mutex write_mutex;              ///< serializes records vs. beacons

  /// Cancels the session: further writes fail immediately and blocked
  /// peers observe a closed connection.  Safe from any thread.
  void cancel();

  /// Full write under the write mutex; a failed write cancels the
  /// session.  Returns false on failure.
  bool send_bytes(const std::vector<std::uint8_t>& bytes);
};

/// Knobs of one shard session that are local to the worker, not part of
/// the coordinator's request.
struct ShardSessionOptions {
  /// Budget for the coordinator to deliver each kShardRequest (or to
  /// close the session between ranges); past it the session refuses
  /// with a kShardError and ends.
  int request_timeout_ms = 10'000;

  /// Snapshot directory of the session's SweepCache (empty = none).
  std::string snapshot_dir;

  /// Honour LR_TEST_WORKER_FAULT (set by the `--stdio` child only).
  bool worker_faults = false;
};

/// Serves one session of successive ranges on `session.fd` until the
/// coordinator closes it: per range, request deadline, validation with
/// kShardError refusals, hello, two-way heartbeats with the coordinator
/// watchdog, one batch of at most kRangeRuns runs, shard-done.  Sets
/// `session.done` last.  Returns true when the session ended cleanly:
/// EOF between ranges after at least one completed range.
bool serve_shard_session(ShardSession& session, const ShardSessionOptions& options);

/// Configuration of a ShardServer.
struct ShardServerOptions {
  /// Address to bind; the default serves loopback only (the multi-host
  /// smoke deployments); daemons meant for real remote coordinators
  /// bind 0.0.0.0 explicitly.
  std::string bind_address = "127.0.0.1";

  /// TCP port; 0 picks an ephemeral port (read it back with port()).
  /// Every connection's session runs with the default
  /// ShardSessionOptions.
  std::uint16_t port = 0;
};

/// A running TCP shard server: binds in the constructor (so the port is
/// known immediately), serves one session per connection after start(),
/// drains after stop().  Embeddable: tests and benches run real TCP
/// sessions in-process, no daemon needed.
class ShardServer {
 public:
  /// Binds and listens; throws std::runtime_error when the address or
  /// port cannot be bound.
  explicit ShardServer(ShardServerOptions options = {});

  /// Stops and joins everything still running.
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// The bound port (the realized one when options asked for 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Starts accepting connections (idempotent).
  void start();

  /// Stops accepting, cancels every in-flight session (their
  /// coordinators observe a dropped connection and retry elsewhere —
  /// this is how tests stage whole-host death), and joins all threads.
  /// Idempotent.
  void stop();

  /// Sessions that ended cleanly (at least one range served, then an
  /// orderly close by the coordinator) since construction.
  std::uint64_t sessions_completed() const noexcept { return sessions_completed_.load(); }

  /// Sessions that ended any other way: refused requests, protocol
  /// errors, dead coordinators, cancellation by stop().
  std::uint64_t sessions_failed() const noexcept { return sessions_failed_.load(); }

 private:
  struct Session;

  void accept_loop();

  ShardServerOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::thread accept_thread_;
  std::mutex sessions_mutex_;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::atomic<std::uint64_t> sessions_completed_{0};
  std::atomic<std::uint64_t> sessions_failed_{0};
};

/// Entry point of the `shard-server` subcommand, in one of two modes:
///
///   - `shard-server --listen <port> [--bind <address>]`: prints one
///     "shard-server listening on <address>:<port>" line to stdout (the
///     ready signal deployment scripts wait for) and serves until SIGINT
///     or SIGTERM;
///   - `shard-server --stdio [--snapshot-dir D]`: serves exactly one
///     session of successive ranges on fd 0, which must be a connected
///     socket (the socketpair end ProcessShardTransport hands its
///     child), then exits 0 when the coordinator closed it cleanly
///     between ranges and 1 otherwise.
///
/// Returns the process exit code (2 with a usage message on bad
/// arguments or a non-socket fd 0, matching the CLI's validation
/// convention).
int shard_server_main(int argc, char** argv);

}  // namespace lr
