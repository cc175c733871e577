#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runner/shard_protocol.hpp"

/// \file shard_transport.hpp
/// The transport abstraction of the sharded sweep dataplane: how the
/// ShardRunner (runner/shard_coordinator.hpp) reaches the workers that
/// execute its ranges.  A transport only has to (1) open a session by
/// shipping the first kShardRequest frame the runner built to a worker
/// before the runner's start deadline and (2) hand back a channel over a
/// pollable socket speaking the shard protocol
/// (runner/shard_protocol.hpp), on which the runner ships the session's
/// later ranges.  Every session is served by the same session function
/// (runner/shard_server.hpp); two transports differ only in how the
/// socket comes to exist:
///
///   - ProcessShardTransport: a socketpair to a fork/exec'd
///     `shard-server --stdio` child of this process per session,
///   - TcpShardTransport: a TCP connection to a remote `shard-server
///     --listen` daemon per session,
///
/// plus FaultyTransport, a deterministic fault-injection decorator that
/// wraps any transport and corrupts / drops / stalls / delays the byte
/// stream of a chosen range's first attempts, whichever session carries
/// them — the network half of the fault battery (shard_server.hpp
/// documents the worker-process half, LR_TEST_WORKER_FAULT).
///
/// Every write to a worker socket is a send() with MSG_NOSIGNAL, so a
/// worker that died mid-attempt surfaces as an EPIPE failure of that one
/// attempt; the process's SIGPIPE disposition is never touched.

namespace lr {

/// One contiguous shard of the expanded run list: global indexes
/// [begin, end).
struct ShardRange {
  std::size_t begin = 0;  ///< first global run index of the shard
  std::size_t end = 0;    ///< one past the last global run index

  /// Number of runs in the shard.
  std::size_t size() const noexcept { return end - begin; }

  /// Ranges compare by their bounds.
  friend bool operator==(const ShardRange&, const ShardRange&) = default;
};

/// Deterministically partitions `runs` global run indexes into `shards`
/// contiguous, maximally balanced ranges (sizes differ by at most one,
/// larger shards first).  `shards` is clamped to `runs` so no shard is
/// empty; runs = 0 yields no shards.  This is fixed merge contract: run
/// #k lives in the same shard on every machine and every invocation.
std::vector<ShardRange> shard_ranges(std::size_t runs, std::size_t shards);

/// One dispatched attempt of a shard, as the coordinator logs it —
/// surfaced through `lr_cli sweep --shard-log` so operators can see
/// which endpoint served (or killed) each attempt and how long it took.
struct ShardAttemptLog {
  std::size_t attempt = 0;   ///< zero-based attempt number
  std::string endpoint;      ///< transport endpoint that served the attempt
  std::string outcome;       ///< "ok" or the failure description
  long long elapsed_ms = 0;  ///< dispatch to completion / failure
  long long backoff_ms = 0;  ///< retry-policy delay imposed before dispatch
};

/// What happened to one shard across all its attempts — surfaced so a
/// failed sweep can say exactly which shard died how, and a recovered
/// one can report the retries and reassignments it absorbed.
struct ShardDiagnostics {
  std::size_t shard = 0;              ///< shard index
  ShardRange range;                   ///< the shard's run range
  std::size_t attempts = 0;           ///< attempts dispatched for this shard
  bool completed = false;             ///< shard delivered all its records
  std::vector<ShardAttemptLog> attempt_log;  ///< every attempt, incl. the successful one

  /// One human-readable line per failed attempt, "attempt <k>: <cause>"
  /// with k one-based, in dispatch order (derived from attempt_log).
  std::vector<std::string> failure_lines() const;
};

/// Result of ShardChannel::read_some.
struct ChannelRead {
  /// What the read produced.
  enum class Kind : std::uint8_t {
    kData,        ///< `bytes` bytes were written into the buffer
    kWouldBlock,  ///< nothing available right now; poll again
    kEof,         ///< orderly end of stream
    kError,       ///< transport failure; `error` describes it
  };
  Kind kind = Kind::kWouldBlock;  ///< outcome discriminator
  std::size_t bytes = 0;          ///< bytes read when kind == kData
  std::string error;              ///< description when kind == kError
};

/// One live session's byte stream, as the coordinator consumes it: the
/// successive ranges the coordinator ships with send_request(), one at
/// a time.  The channel owns its socket and, for a local worker, the
/// child process; exactly one of abort() / complete() must be called
/// before destruction ends the session implicitly (destructors abort).
class ShardChannel {
 public:
  virtual ~ShardChannel() = default;

  /// File descriptor to poll for readability.
  virtual int poll_fd() const noexcept = 0;

  /// Nonblocking read of up to `capacity` bytes into `buffer`.
  virtual ChannelRead read_some(std::uint8_t* buffer, std::size_t capacity) = 0;

  /// Ships the kShardRequest of the session's next range, blocking no
  /// later than `deadline`; only legal once the previous range's
  /// kShardDone has arrived.  Returns an empty string on success, else a
  /// failure description (the coordinator then aborts the channel).
  virtual std::string send_request(const ShardRequestFrame& request,
                                   std::chrono::steady_clock::time_point deadline) = 0;

  /// Sends a coordinator -> worker liveness beacon.  Returns an empty
  /// string on success, else a failure description (the coordinator
  /// treats a failed heartbeat like any other channel failure).
  virtual std::string send_heartbeat(std::uint64_t sequence) = 0;

  /// Abandons the session — kills / disconnects the worker and releases
  /// the channel.  Returns a status description for diagnostics (e.g.
  /// the child's wait status).  Idempotent.
  virtual std::string abort() = 0;

  /// Ends the session cleanly after its last range's kShardDone: closes
  /// the socket, which the worker reads as the end of the session, and
  /// reaps a local child.  Idempotent.
  virtual void complete() = 0;
};

/// Result of ShardTransport::start.
struct ShardStart {
  std::unique_ptr<ShardChannel> channel;  ///< live channel, or null on failure
  std::string error;  ///< failure description when channel is null
};

/// A place that can execute ranges: a factory of ShardChannels.
/// `capacity()` is how many sessions the coordinator may run there
/// concurrently (child processes for the local transport, connections
/// for a TCP host) — its lanes.
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  /// Human-readable endpoint name ("process", "127.0.0.1:7071") used in
  /// diagnostics and the shard log.
  virtual const std::string& endpoint() const noexcept = 0;

  /// Concurrent sessions (lanes) this transport can serve.
  virtual std::size_t capacity() const noexcept = 0;

  /// Opens one session by shipping `request`, its first range, to a
  /// worker; blocks no later than `deadline` establishing it.  A failure
  /// (fork failure, connection refused, timeout shipping the request) is
  /// returned, not thrown — the runner charges it against the range's
  /// retry budget and the endpoint's liveness score.
  virtual ShardStart start(const ShardRequestFrame& request,
                           std::chrono::steady_clock::time_point deadline) = 0;
};

/// The local transport: every start() fork/execs a fresh shared-nothing
/// `<worker_command> shard-server --stdio [--snapshot-dir D]` child with
/// one end of a socketpair on its fd 0, ships the first kShardRequest
/// over the other, and returns that end as the channel.  The child
/// serves successive ranges until the channel closes, so a fault-free
/// sweep forks one child per lane.  Crash isolation is the process
/// boundary: a failed session's child is killed and reaped by the
/// channel, and its lane reopens with a fresh child.
class ProcessShardTransport : public ShardTransport {
 public:
  /// `workers` is the concurrent-attempt capacity; `snapshot_dir` is
  /// forwarded to every child (empty = none), so all shards mmap the
  /// same snapshot files.  `worker_command` is the executable to
  /// fork/exec; empty means this process's own binary (/proc/self/exe),
  /// so any binary that forwards its `shard-server` argv to
  /// shard_server_main() hosts its own workers.
  explicit ProcessShardTransport(std::size_t workers, std::string snapshot_dir = {},
                                 std::string worker_command = {});

  const std::string& endpoint() const noexcept override { return endpoint_; }
  std::size_t capacity() const noexcept override { return workers_; }
  ShardStart start(const ShardRequestFrame& request,
                   std::chrono::steady_clock::time_point deadline) override;

  /// Children fork/exec'd by every ProcessShardTransport of this
  /// process so far (read by the fork-count tests).
  static std::size_t children_forked() noexcept;

 private:
  std::size_t workers_;
  std::string snapshot_dir_;
  std::string worker_command_;  ///< empty = /proc/self/exe
  std::string endpoint_ = "process";
};

/// One remote `shard-server` endpoint (runner/shard_server.hpp): every
/// start() opens a fresh TCP connection, ships the first kShardRequest,
/// and returns the socket as the channel; the connection carries the
/// session's later ranges too.
class TcpShardTransport : public ShardTransport {
 public:
  /// Endpoint `host:port` with `workers` concurrent connections.
  TcpShardTransport(std::string host, std::uint16_t port, std::size_t workers);

  const std::string& endpoint() const noexcept override { return endpoint_; }
  std::size_t capacity() const noexcept override { return workers_; }
  ShardStart start(const ShardRequestFrame& request,
                   std::chrono::steady_clock::time_point deadline) override;

 private:
  std::string host_;
  std::uint16_t port_;
  std::size_t workers_;
  std::string endpoint_;
};

/// One `host:port[*workers]` entry of `lr_cli sweep --hosts`.
struct HostSpec {
  std::string host;          ///< hostname or dotted-quad address
  std::uint16_t port = 0;    ///< TCP port, 1..65535
  std::size_t workers = 1;   ///< concurrent shard connections to the host

  /// Specs compare field-wise.
  friend bool operator==(const HostSpec&, const HostSpec&) = default;
};

/// Parses a `--hosts` list: comma-separated `host:port[*workers]`
/// entries, e.g. "10.0.0.1:7071*4,10.0.0.2:7071*4".  Throws
/// std::invalid_argument, naming the offending entry, on an empty list,
/// a missing/empty host or port, a port outside 1..65535, a zero or
/// non-numeric worker count, or trailing garbage.
std::vector<HostSpec> parse_host_list(const std::string& text);

/// One test fault hook in the `kind:shard[:attempts]` grammar shared by
/// LR_TEST_TRANSPORT_FAULT and LR_TEST_WORKER_FAULT: fault `kind` armed
/// for the first `attempts` attempts of shard `shard`.
struct FaultHook {
  std::size_t kind = 0;      ///< index of the kind in the accepted list
  std::size_t shard = 0;     ///< target shard
  std::size_t attempts = 1;  ///< arm on attempts [0, attempts)
};

/// Parses `text`, the value of environment variable `knob`, as
/// `kind:shard[:attempts]` with kind one of `kinds` and both integers
/// read by parse_u64 (shard <= 2^20, attempts in 1..2^20, default 1).
/// Throws std::invalid_argument naming `knob` and `text` on anything
/// else.
FaultHook parse_fault_hook(const std::string& knob, const std::string& text,
                           const std::vector<std::string>& kinds);

/// A deterministic network fault, armed for the first `attempts`
/// attempts of one shard.  Parsed from the LR_TEST_TRANSPORT_FAULT
/// environment knob by parse_fault_hook, the grammar
/// LR_TEST_WORKER_FAULT shares for the worker-process faults.
struct TransportFault {
  /// Network fault classes.
  enum class Kind : std::uint8_t {
    kNone,            ///< no fault
    kConnectRefuse,   ///< `connect`: start() fails as if the host were down
    kDrop,            ///< `drop`: connection closed mid-shard
    kCorrupt,         ///< `corrupt`: one byte of the stream flipped
    kHeartbeatStall,  ///< `hbstall`: stream goes silent mid-shard
    kDelay,           ///< `delay`: bytes trickle through a slowed link
  };
  Kind kind = Kind::kNone;    ///< which fault to inject
  std::size_t shard = 0;      ///< target shard
  std::size_t attempts = 1;   ///< arm on attempts [0, attempts)
  std::size_t at_byte = 200;  ///< stream offset where drop/corrupt/stall triggers
  std::uint32_t delay_ms = 2;  ///< per-read delay of the `delay` fault
};

/// Parses an LR_TEST_TRANSPORT_FAULT value, `kind:shard[:attempts]`
/// (kind in connect|drop|corrupt|hbstall|delay); throws
/// std::invalid_argument on malformed input.
TransportFault parse_transport_fault(const std::string& text);

/// Decorator injecting one TransportFault into an inner transport's byte
/// stream, deterministically: attempt k of range s either is or is not
/// faulted as a pure function of the plan, whether it opens a session or
/// is shipped on a reused one, so every test run exercises the identical
/// failure schedule.  Ranges outside the plan pass through untouched; a
/// `connect` fault on a reused session fails shipping the request.
class FaultyTransport : public ShardTransport {
 public:
  /// Wraps `inner`, injecting `fault`.
  FaultyTransport(std::shared_ptr<ShardTransport> inner, TransportFault fault);

  const std::string& endpoint() const noexcept override { return inner_->endpoint(); }
  std::size_t capacity() const noexcept override { return inner_->capacity(); }
  ShardStart start(const ShardRequestFrame& request,
                   std::chrono::steady_clock::time_point deadline) override;

 private:
  std::shared_ptr<ShardTransport> inner_;
  TransportFault fault_;
};

}  // namespace lr
