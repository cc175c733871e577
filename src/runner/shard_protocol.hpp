#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/runner.hpp"

/// \file shard_protocol.hpp
/// The wire protocol between a sweep coordinator and its shard workers —
/// `shard-server` sessions (runner/shard_server.hpp), reached over a
/// socketpair to a local child or over TCP to a remote daemon: a small
/// length-prefixed binary framing carrying per-run records back to the
/// coordinator as a worker finishes them.
///
/// Frame layout (all integers little-endian):
///
///     u32 magic ("LRSH")  |  u8 type  |  u32 payload_len  |
///     payload_len bytes   |  u64 fnv1a(type || payload)
///
/// A session carries successive ranges.  Per range, worker ->
/// coordinator: one kHello (handshake: protocol version, shard index,
/// run range, attempt), then one kRecord per run of the range in
/// ascending global run-index order — with kHeartbeat frames
/// interleaved at any point after the hello — then one kShardDone
/// (record count + the worker's cache counters for that range).  A
/// worker that cannot start a range (bad spec, version skew, a range of
/// more than kRangeRuns runs) answers with a single kShardError instead
/// of a hello and ends the session.  Coordinator -> worker: one
/// kShardRequest per range, the next one only after the previous
/// range's kShardDone, with kHeartbeat frames proving the coordinator
/// is still alive while a range is in flight; closing the connection
/// between ranges ends the session cleanly.

/// Everything else — wrong magic, a payload over kMaxFramePayload, a
/// checksum mismatch, an unknown enum value inside a record, trailing
/// payload bytes, EOF mid-frame — is a protocol error the coordinator
/// treats exactly like a worker crash: kill, reap, retry the shard
/// (tests/shard_protocol_test.cpp pins the rejection behavior, including
/// randomized fuzzes over frame boundaries and single-byte corruption,
/// for the v3 frames too).
///
/// Version skew is rejected loudly in both directions and can never
/// hang: each end compares the version field of the other's first frame
/// (kShardRequest, kHello) with its own and refuses a mismatch by
/// number.
///
/// The parser is deliberately incremental (feed() bytes as the socket
/// yields them, next() yields complete frames) so the coordinator can
/// multiplex many workers over poll() without threads, and so tests can
/// replay a stream at any chunking.

namespace lr {

/// Frame discriminator on the wire.
enum class FrameType : std::uint8_t {
  kHello = 1,         ///< worker handshake, first frame of every attempt
  kRecord = 2,        ///< one finished run, in ascending global-index order
  kShardDone = 3,     ///< shard complete: record count + cache counters
  kHeartbeat = 4,     ///< liveness beacon, either direction (v3)
  kShardRequest = 5,  ///< coordinator -> worker shard assignment (v3)
  kShardError = 6,    ///< worker -> coordinator loud refusal (v3)
};

/// Wire magic prefixing every frame ("LRSH" little-endian).
inline constexpr std::uint32_t kFrameMagic = 0x4853524cu;

/// Protocol version carried by the hello and shard-request frames;
/// coordinator and worker must match exactly (workers are normally the
/// same binary, so a mismatch means build or deployment skew across
/// hosts — a situation to reject loudly, never to paper over).
/// Version 3 added the heartbeat / shard-request / shard-error frames of
/// the multi-host TCP dataplane.  Version 4 dropped the execution-path
/// byte from the record frame.  Version 5 made a session serve
/// successive ranges of at most kRangeRuns runs until the coordinator
/// closes it (a v4 worker served one range and exited).
inline constexpr std::uint32_t kShardProtocolVersion = 5;

/// Most runs one kShardRequest may assign.  The coordinator cuts a
/// sweep into ranges of at most this many runs (more ranges than lanes
/// once the sweep is large, so lanes that finish early pull more work),
/// and a session runs each range in one batch and refuses a larger one.
inline constexpr std::uint64_t kRangeRuns = 16;

/// Upper bound on a frame payload.  Records are a few hundred bytes;
/// anything near this limit is garbage (e.g. random bytes read as a
/// length field) and is rejected without allocating.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

/// A malformed or out-of-contract byte stream.  The parent maps this to
/// "worker failed, retry the shard", same as a crash.
class ShardProtocolError : public std::runtime_error {
 public:
  explicit ShardProtocolError(const std::string& what) : std::runtime_error(what) {}
};

/// Handshake payload: which shard this attempt serves.
struct HelloFrame {
  std::uint32_t version = kShardProtocolVersion;  ///< must equal the parent's
  std::uint64_t shard = 0;    ///< shard index the worker was assigned
  std::uint64_t begin = 0;    ///< first global run index of the shard
  std::uint64_t end = 0;      ///< one past the last global run index
  std::uint64_t attempt = 0;  ///< 0 = first try, +1 per retry
};

/// One finished run: the record plus where it lands in the merged table.
struct RecordFrame {
  std::uint64_t global_index = 0;  ///< expansion index in the full sweep
  RunRecord record;                ///< the run's full record
};

/// End-of-shard marker: lets the parent distinguish a complete shard
/// from a worker that died after its last record but before finishing.
struct ShardDoneFrame {
  std::uint64_t records_emitted = 0;  ///< must equal end - begin
  SweepCacheStats cache;              ///< the worker's private cache counters
};

/// Liveness beacon (v3).  Either end sends one whenever it has produced
/// no other frame for a while; receiving *any* frame resets the
/// receiver's inactivity watchdog, so heartbeats only flow when the
/// channel would otherwise look dead (a worker mid-long-run, a
/// coordinator waiting on other shards).
struct HeartbeatFrame {
  std::uint8_t from_coordinator = 0;  ///< 1 = coordinator -> worker
  std::uint64_t sequence = 0;         ///< per-connection beacon counter
};

/// Range assignment, coordinator -> worker (v3).  Opens every range of
/// a session: everything a `shard-server` needs to execute global runs
/// [begin, end) of the sweep `spec_text` expands to, end - begin <=
/// kRangeRuns.
struct ShardRequestFrame {
  std::uint32_t version = kShardProtocolVersion;  ///< must equal the worker's
  std::uint64_t shard = 0;        ///< shard index being assigned
  std::uint64_t begin = 0;        ///< first global run index of the shard
  std::uint64_t end = 0;          ///< one past the last global run index
  std::uint64_t total = 0;        ///< the full sweep's run count (cross-check)
  std::uint64_t attempt = 0;      ///< 0 = first try, +1 per retry
  std::uint64_t threads = 1;      ///< worker-internal thread count
  std::uint64_t cache_cap = 0;    ///< worker SweepCache LRU bound (0 = unbounded)
  std::uint32_t heartbeat_ms = 0;       ///< worker beacon interval (0 = default)
  std::uint32_t liveness_timeout_ms = 0;  ///< worker-side coordinator watchdog
  std::string spec_text;          ///< canonical sweep spec (format_sweep_spec)
};

/// Loud refusal, worker -> coordinator (v3): the worker cannot serve the
/// request (version skew, unparseable spec, run-count mismatch) and says
/// why before closing, so the coordinator's diagnostics name the cause
/// instead of a bare EOF.
struct ShardErrorFrame {
  std::string message;  ///< human-readable reason
};

/// A decoded frame; `type` selects which member is meaningful.
struct Frame {
  FrameType type = FrameType::kHello;  ///< which payload member is live
  HelloFrame hello;                    ///< payload when type == kHello
  RecordFrame record;                  ///< payload when type == kRecord
  ShardDoneFrame done;                 ///< payload when type == kShardDone
  HeartbeatFrame heartbeat;            ///< payload when type == kHeartbeat
  ShardRequestFrame request;           ///< payload when type == kShardRequest
  ShardErrorFrame error;               ///< payload when type == kShardError
};

/// Encodes one frame (header + payload + checksum) to wire bytes.
std::vector<std::uint8_t> encode_frame(const HelloFrame& hello);
/// \copydoc encode_frame(const HelloFrame&)
std::vector<std::uint8_t> encode_frame(const RecordFrame& record);
/// \copydoc encode_frame(const HelloFrame&)
std::vector<std::uint8_t> encode_frame(const ShardDoneFrame& done);
/// \copydoc encode_frame(const HelloFrame&)
std::vector<std::uint8_t> encode_frame(const HeartbeatFrame& heartbeat);
/// \copydoc encode_frame(const HelloFrame&)
std::vector<std::uint8_t> encode_frame(const ShardRequestFrame& request);
/// \copydoc encode_frame(const HelloFrame&)
std::vector<std::uint8_t> encode_frame(const ShardErrorFrame& error);

/// Incremental frame decoder: feed() raw socket bytes in any chunking,
/// pull complete frames with next().  Throws ShardProtocolError on the
/// first malformed byte; the instance is then unusable (the parent
/// discards it with the worker).
class FrameParser {
 public:
  /// Appends `size` raw bytes to the parse buffer.
  void feed(const std::uint8_t* data, std::size_t size);

  /// Decodes and returns the next complete frame, or nullopt when the
  /// buffered bytes end mid-frame (feed more).  Throws ShardProtocolError
  /// on bad magic, oversized length, checksum mismatch, or an
  /// undecodable payload.
  std::optional<Frame> next();

  /// True when undecoded bytes are buffered — at worker EOF this means
  /// the stream was truncated mid-frame, which the parent must treat as
  /// a failed attempt, never as a clean end.
  bool mid_frame() const noexcept { return consumed_ < buffer_.size(); }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< bytes of buffer_ already decoded
};

}  // namespace lr
