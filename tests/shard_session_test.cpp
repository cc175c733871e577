#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "runner/shard_protocol.hpp"
#include "runner/shard_server.hpp"

/// Seed-loop fuzz of the one shard-request decoder every worker runs
/// (serve_shard_session, runner/shard_server.hpp), driven in-process over
/// a socketpair exactly as a `shard-server --stdio` child is.  Mutated,
/// truncated and version-skewed kShardRequest frames, garbled spec text,
/// out-of-contract first frames and raw garbage must each end the
/// session with a kShardError, or with an accepted hello that the
/// session abandons as soon as its coordinator hangs up — within the
/// request deadline, never a crash or a hang.  A session serves
/// successive ranges, so the multi-request streams are pinned too:
/// request -> done -> request with the same and a different spec, EOF
/// between ranges (a clean end), a request before the current range's
/// done, a range of more than kRangeRuns runs, and garbage or mutated
/// requests after a completed range.  Runs under the ASan+UBSan and TSan
/// CI jobs like every other suite.

namespace lr {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRequestTimeoutMs = 150;

/// A one-run sweep: cheap enough that a garbled-but-valid request which
/// the session accepts finishes its chunk immediately.
const char* const kSpecText = "topology = chain\nsize = 6\nalgorithm = fr\nseed = 1\n";

ShardRequestFrame valid_request() {
  ShardRequestFrame request;
  request.begin = 0;
  request.end = 1;
  request.total = 1;
  request.threads = 1;
  request.heartbeat_ms = 50;
  request.liveness_timeout_ms = 2'000;
  request.spec_text = kSpecText;
  return request;
}

/// How one session ended, from the coordinator's side of the socket.
struct Outcome {
  bool refused = false;     ///< a kShardError arrived
  bool accepted = false;    ///< a kHello arrived
  bool shard_done = false;  ///< a kShardDone arrived
  bool ended = false;       ///< serve_shard_session returned within the bound
  std::string refusal;      ///< the kShardError message
  std::string protocol_error;  ///< the session sent bytes that do not parse
};

/// Feeds `bytes` to a fresh session over a socketpair, then — when
/// `hang_up` — half-closes the coordinator end so the session sees EOF.
/// Reads the session's answer until a kShardError, a kHello (after which
/// the coordinator end is closed, unless `finish` asks to read on to the
/// shard-done frame) or the bound passes, then checks the session
/// function returned.  A session still running at the bound is cancelled
/// so the test reports instead of hanging.
Outcome feed_session(const std::vector<std::uint8_t>& bytes, bool hang_up, bool finish = false) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  ShardSession session(fds[1]);
  ShardSessionOptions options;
  options.request_timeout_ms = kRequestTimeoutMs;
  std::atomic<bool> returned{false};
  std::thread server([&] {
    serve_shard_session(session, options);
    returned.store(true);
  });

  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fds[0], bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;  // the session already refused and shut down
    sent += static_cast<std::size_t>(n);
  }
  if (hang_up) ::shutdown(fds[0], SHUT_WR);

  Outcome outcome;
  const Clock::time_point bound =
      Clock::now() + std::chrono::milliseconds(kRequestTimeoutMs + 5'000);
  FrameParser parser;
  bool reading = true;
  while (reading && Clock::now() < bound) {
    pollfd item{fds[0], POLLIN, 0};
    if (::poll(&item, 1, 20) <= 0) continue;
    std::uint8_t buffer[4096];
    const ssize_t n = ::recv(fds[0], buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    try {
      parser.feed(buffer, static_cast<std::size_t>(n));
      while (auto frame = parser.next()) {
        if (frame->type == FrameType::kShardError) {
          outcome.refused = true;
          outcome.refusal = frame->error.message;
          reading = false;
        } else if (frame->type == FrameType::kHello) {
          outcome.accepted = true;
          reading = finish;
        } else if (frame->type == FrameType::kShardDone) {
          outcome.shard_done = true;
          reading = false;
        }
      }
    } catch (const ShardProtocolError& error) {
      outcome.protocol_error = error.what();
      reading = false;
    }
  }
  // The coordinator goes away: an accepted session must notice and end.
  ::close(fds[0]);
  while (!returned.load() && Clock::now() < bound) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  outcome.ended = returned.load();
  if (!outcome.ended) session.cancel();
  server.join();
  ::close(fds[1]);
  return outcome;
}

/// The invariant every fuzz case must satisfy.
void expect_clean_end(const Outcome& outcome, const std::string& context) {
  EXPECT_TRUE(outcome.ended) << context << ": session still running past the bound";
  EXPECT_TRUE(outcome.protocol_error.empty()) << context << ": " << outcome.protocol_error;
  EXPECT_TRUE(outcome.refused || outcome.accepted) << context << ": ended without a word";
}

TEST(ShardSession, ValidRequestRunsTheShardOverASocketpair) {
  const Outcome outcome = feed_session(encode_frame(valid_request()), false, true);
  EXPECT_TRUE(outcome.accepted);
  EXPECT_TRUE(outcome.shard_done);
  EXPECT_FALSE(outcome.refused) << outcome.refusal;
  EXPECT_TRUE(outcome.ended);
}

TEST(ShardSession, SilentCoordinatorIsRefusedAtTheRequestDeadline) {
  const Clock::time_point start = Clock::now();
  const Outcome outcome = feed_session({}, false);
  expect_clean_end(outcome, "silent");
  EXPECT_NE(outcome.refusal.find("no shard request within"), std::string::npos)
      << outcome.refusal;
  // Not before the deadline (less the session's millisecond rounding).
  EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(kRequestTimeoutMs - 2));
}

TEST(ShardSession, FuzzMutatedRequestFramesAreRefused) {
  const std::vector<std::uint8_t> valid = encode_frame(valid_request());
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::uint8_t> bytes = valid;
    const std::size_t flips = 1 + seed % 3;
    for (std::size_t i = 0; i < flips; ++i) {
      bytes[rng() % bytes.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    }
    // Most cases hang up after writing; every tenth stays connected, so a
    // mutated length field that leaves the frame incomplete must still
    // end at the request deadline.
    const Outcome outcome = feed_session(bytes, seed % 10 != 0);
    expect_clean_end(outcome, "mutation seed " + std::to_string(seed));
    EXPECT_TRUE(outcome.refused) << "mutation seed " << seed << " was accepted";
  }
}

TEST(ShardSession, FuzzTruncatedRequestFramesAreRefused) {
  const std::vector<std::uint8_t> valid = encode_frame(valid_request());
  for (std::size_t cut = 0; cut < valid.size(); cut += 1 + cut / 8) {
    const std::vector<std::uint8_t> bytes(valid.begin(),
                                          valid.begin() + static_cast<std::ptrdiff_t>(cut));
    const Outcome outcome = feed_session(bytes, cut % 5 != 3);
    expect_clean_end(outcome, "cut at " + std::to_string(cut));
    EXPECT_TRUE(outcome.refused) << "cut at " << cut;
  }
}

TEST(ShardSession, VersionSkewedRequestsAreRefusedByName) {
  for (const std::uint32_t version :
       {0u, 1u, kShardProtocolVersion - 1, kShardProtocolVersion + 1, 0xffffffffu}) {
    ShardRequestFrame request = valid_request();
    request.version = version;
    const Outcome outcome = feed_session(encode_frame(request), false);
    expect_clean_end(outcome, "version " + std::to_string(version));
    EXPECT_NE(outcome.refusal.find("protocol version mismatch"), std::string::npos)
        << outcome.refusal;
  }
}

TEST(ShardSession, OutOfContractRequestsAreRefused) {
  std::vector<ShardRequestFrame> requests(5, valid_request());
  requests[0].total = 2;                      // run-count claim disagrees
  requests[1].begin = 1;                      // begin > end
  requests[1].end = 0;
  requests[2].end = 2;                        // range past the sweep
  requests[3].spec_text = "";                 // nothing to expand
  requests[4].spec_text = "size = 1..1000000\nseed = 1..1000000\ntopology = chain\n"
                          "algorithm = fr\n";  // huge sweep, tiny claim
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Outcome outcome = feed_session(encode_frame(requests[i]), false);
    expect_clean_end(outcome, "request " + std::to_string(i));
    EXPECT_TRUE(outcome.refused) << "request " << i;
  }
  // Any other frame type first is refused too.
  HelloFrame hello;
  HeartbeatFrame beacon;
  beacon.from_coordinator = 1;
  ShardErrorFrame error;
  error.message = "not a request";
  for (const auto& bytes : {encode_frame(hello), encode_frame(beacon), encode_frame(error)}) {
    const Outcome outcome = feed_session(bytes, false);
    expect_clean_end(outcome, "wrong first frame");
    EXPECT_NE(outcome.refusal.find("first frame must be a shard request"), std::string::npos)
        << outcome.refusal;
  }
}

TEST(ShardSession, NeverEndingSeedRangesAreRefusedAtOnce) {
  // The spec parser must refuse ranges ending at 2^64 - 1 at once, not
  // expand them until the worker runs out of memory: the parse comes
  // before any run-count check.
  for (const char* seeds : {"18446744073709551610..18446744073709551615",
                            "0..18446744073709551615"}) {
    ShardRequestFrame request = valid_request();
    request.spec_text = std::string("topology = chain\nsize = 6\nalgorithm = fr\nseed = ") +
                        seeds + "\n";
    const Clock::time_point start = Clock::now();
    const Outcome outcome = feed_session(encode_frame(request), false);
    expect_clean_end(outcome, seeds);
    EXPECT_TRUE(outcome.refused) << seeds;
    EXPECT_NE(outcome.refusal.find("sweep spec line 4"), std::string::npos) << outcome.refusal;
    EXPECT_LT(Clock::now() - start, std::chrono::milliseconds(kRequestTimeoutMs + 1'000))
        << seeds;
  }
}

TEST(ShardSession, FuzzGarbledSpecTextEndsCleanly) {
  const std::string printable =
      "abcdefghijklmnopqrstuvwxyz0123456789 =,.\n#-_:*ABCXYZ\t\x7f\x01\xff";
  std::size_t refused = 0;
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    std::mt19937_64 rng(1000 + seed);
    ShardRequestFrame request = valid_request();
    std::string& text = request.spec_text;
    switch (seed % 4) {
      case 0:  // overwrite one byte
        text[rng() % text.size()] = printable[rng() % printable.size()];
        break;
      case 1:  // insert one byte
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(rng() % (text.size() + 1)),
                    printable[rng() % printable.size()]);
        break;
      case 2:  // truncate
        text.resize(rng() % text.size());
        break;
      default:  // swap two lines' worth of bytes
        std::swap(text[rng() % text.size()], text[rng() % text.size()]);
        break;
    }
    const Outcome outcome = feed_session(encode_frame(request), false);
    expect_clean_end(outcome, "spec seed " + std::to_string(seed) + " text '" + text + "'");
    if (outcome.refused) ++refused;
  }
  EXPECT_GT(refused, 0u);  // the loop did reach the validation path
}

TEST(ShardSession, FuzzRandomGarbageIsRefused) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    std::mt19937_64 rng(5000 + seed);
    std::vector<std::uint8_t> bytes(1 + rng() % 200);
    for (std::uint8_t& byte : bytes) byte = static_cast<std::uint8_t>(rng());
    if (seed % 2 == 0) {
      // Valid magic, so the garbage reaches the length and checksum checks.
      for (int i = 0; i < 4 && i < static_cast<int>(bytes.size()); ++i) {
        bytes[static_cast<std::size_t>(i)] = (kFrameMagic >> (8 * i)) & 0xffu;
      }
    }
    const Outcome outcome = feed_session(bytes, true);
    expect_clean_end(outcome, "garbage seed " + std::to_string(seed));
    EXPECT_TRUE(outcome.refused) << "garbage seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Multi-request sessions
// ---------------------------------------------------------------------------

/// A 20-run sweep: two ranges of at most kRangeRuns runs.
const char* const kTwentyRunSpec =
    "topology = chain\nsize = 6\nalgorithm = fr, pr\nseed = 1..10\n";

ShardRequestFrame range_request(const char* spec_text, std::uint64_t total, std::uint64_t begin,
                                std::uint64_t end) {
  ShardRequestFrame request = valid_request();
  request.spec_text = spec_text;
  request.total = total;
  request.shard = begin;
  request.begin = begin;
  request.end = end;
  return request;
}

/// The coordinator end of one session that serves several ranges: sends
/// bytes, reads frames until a range ends, hangs up, and reports how
/// serve_shard_session returned.
class SessionPeer {
 public:
  SessionPeer() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds_), 0);
    session_.fd = fds_[1];
    options_.request_timeout_ms = kRequestTimeoutMs;
    server_ = std::thread([this] {
      clean_.store(serve_shard_session(session_, options_));
      returned_.store(true);
    });
  }

  ~SessionPeer() {
    ::close(fds_[0]);
    if (!wait_returned()) session_.cancel();
    server_.join();
    ::close(fds_[1]);
  }

  SessionPeer(const SessionPeer&) = delete;
  SessionPeer& operator=(const SessionPeer&) = delete;

  void send(const std::vector<std::uint8_t>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fds_[0], bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return;  // the session already ended
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Frames read until a kShardDone or kShardError (included), EOF, a
  /// stream that does not parse (`protocol_error`), or the bound.
  std::vector<Frame> read_range() {
    std::vector<Frame> frames;
    const Clock::time_point bound =
        Clock::now() + std::chrono::milliseconds(kRequestTimeoutMs + 5'000);
    std::size_t fed = 0;  // nothing new on the first pass: frames left from the last range
    std::uint8_t buffer[4096];
    while (Clock::now() < bound) {
      try {
        parser_.feed(buffer, fed);
        while (auto frame = parser_.next()) {
          frames.push_back(*frame);
          if (frame->type == FrameType::kShardDone || frame->type == FrameType::kShardError) {
            return frames;
          }
        }
      } catch (const ShardProtocolError& error) {
        protocol_error = error.what();
        return frames;
      }
      pollfd item{fds_[0], POLLIN, 0};
      fed = 0;
      if (::poll(&item, 1, 20) <= 0) continue;
      const ssize_t n = ::recv(fds_[0], buffer, sizeof(buffer), 0);
      if (n <= 0) return frames;
      fed = static_cast<std::size_t>(n);
    }
    return frames;
  }

  /// True when the session has sent nothing since the last read_range().
  bool silent() {
    pollfd item{fds_[0], POLLIN, 0};
    return ::poll(&item, 1, 0) == 0;
  }

  /// Half-closes the coordinator end: the session reads EOF.
  void hang_up() { ::shutdown(fds_[0], SHUT_WR); }

  /// True once serve_shard_session returned (waits up to the bound).
  bool wait_returned() {
    const Clock::time_point bound =
        Clock::now() + std::chrono::milliseconds(kRequestTimeoutMs + 5'000);
    while (!returned_.load() && Clock::now() < bound) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return returned_.load();
  }

  /// serve_shard_session's result (valid once wait_returned() is true).
  bool clean() const { return clean_.load(); }

  std::string protocol_error;  ///< set when the session sent unparseable bytes

 private:
  int fds_[2] = {-1, -1};
  ShardSession session_{-1};
  ShardSessionOptions options_;
  FrameParser parser_;
  std::atomic<bool> returned_{false};
  std::atomic<bool> clean_{false};
  std::thread server_;
};

/// Checks `frames` are one complete range [begin, end): hello, its
/// records in order, shard-done.
void expect_range(const std::vector<Frame>& frames, std::uint64_t begin, std::uint64_t end) {
  std::vector<Frame> data;
  for (const Frame& frame : frames) {
    if (frame.type != FrameType::kHeartbeat) data.push_back(frame);
  }
  ASSERT_EQ(data.size(), end - begin + 2) << "range [" << begin << ", " << end << ")";
  EXPECT_EQ(data.front().type, FrameType::kHello);
  EXPECT_EQ(data.front().hello.begin, begin);
  EXPECT_EQ(data.front().hello.end, end);
  for (std::uint64_t i = begin; i < end; ++i) {
    const Frame& record = data[1 + i - begin];
    EXPECT_EQ(record.type, FrameType::kRecord);
    EXPECT_EQ(record.record.global_index, i);
  }
  EXPECT_EQ(data.back().type, FrameType::kShardDone);
  EXPECT_EQ(data.back().done.records_emitted, end - begin);
}

/// The refusal message in `frames`, or empty when there is none.
std::string refusal_in(const std::vector<Frame>& frames) {
  for (const Frame& frame : frames) {
    if (frame.type == FrameType::kShardError) return frame.error.message;
  }
  return {};
}

TEST(ShardSessionRanges, SuccessiveRequestsReuseTheSessionThenEofEndsItCleanly) {
  SessionPeer peer;
  // Same spec twice, then a different spec: one session serves all three.
  peer.send(encode_frame(range_request(kTwentyRunSpec, 20, 0, 16)));
  expect_range(peer.read_range(), 0, 16);
  peer.send(encode_frame(range_request(kTwentyRunSpec, 20, 16, 20)));
  expect_range(peer.read_range(), 16, 20);
  peer.send(encode_frame(range_request(kSpecText, 1, 0, 1)));
  expect_range(peer.read_range(), 0, 1);
  peer.hang_up();
  ASSERT_TRUE(peer.wait_returned());
  EXPECT_TRUE(peer.clean());
  EXPECT_TRUE(peer.protocol_error.empty()) << peer.protocol_error;
}

TEST(ShardSessionRanges, EofBetweenRangesIsACleanEndWithoutARefusal) {
  SessionPeer peer;
  peer.send(encode_frame(range_request(kTwentyRunSpec, 20, 4, 8)));
  expect_range(peer.read_range(), 4, 8);
  peer.hang_up();
  ASSERT_TRUE(peer.wait_returned());
  EXPECT_TRUE(peer.clean());
  EXPECT_TRUE(peer.silent());  // no kShardError followed the last range
}

TEST(ShardSessionRanges, RequestBeforeTheCurrentRangesDoneIsRefused) {
  SessionPeer peer;
  std::vector<std::uint8_t> bytes = encode_frame(range_request(kTwentyRunSpec, 20, 0, 16));
  const std::vector<std::uint8_t> second = encode_frame(range_request(kTwentyRunSpec, 20, 16, 20));
  bytes.insert(bytes.end(), second.begin(), second.end());
  peer.send(bytes);
  std::vector<Frame> frames = peer.read_range();
  // The first range may finish before the refusal lands; read on to it.
  if (refusal_in(frames).empty()) frames = peer.read_range();
  EXPECT_NE(refusal_in(frames).find("before the previous range's shard-done"), std::string::npos)
      << refusal_in(frames);
  ASSERT_TRUE(peer.wait_returned());
  EXPECT_FALSE(peer.clean());
}

TEST(ShardSessionRanges, RangeOfMoreThanKRangeRunsIsRefusedByName) {
  for (const std::uint64_t first : {std::uint64_t{0}, std::uint64_t{1}}) {
    SessionPeer peer;
    if (first == 1) {  // also as the second request of a session
      peer.send(encode_frame(range_request(kTwentyRunSpec, 20, 0, 2)));
      expect_range(peer.read_range(), 0, 2);
    }
    peer.send(encode_frame(range_request(kTwentyRunSpec, 20, 2, 2 + kRangeRuns + 1)));
    const std::string refusal = refusal_in(peer.read_range());
    EXPECT_NE(refusal.find("more than kRangeRuns (16)"), std::string::npos) << refusal;
    ASSERT_TRUE(peer.wait_returned());
    EXPECT_FALSE(peer.clean());
  }
}

TEST(ShardSessionRanges, GarbageAfterDoneIsRefused) {
  SessionPeer peer;
  peer.send(encode_frame(range_request(kTwentyRunSpec, 20, 0, 3)));
  expect_range(peer.read_range(), 0, 3);
  peer.send({0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06});
  const std::string refusal = refusal_in(peer.read_range());
  EXPECT_NE(refusal.find("malformed request stream"), std::string::npos) << refusal;
  ASSERT_TRUE(peer.wait_returned());
  EXPECT_FALSE(peer.clean());
}

TEST(ShardSessionRanges, FuzzMutatedSecondRequestsEndCleanly) {
  const std::vector<std::uint8_t> valid =
      encode_frame(range_request(kTwentyRunSpec, 20, 16, 20));
  std::size_t refused = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    std::mt19937_64 rng(9000 + seed);
    std::vector<std::uint8_t> bytes = valid;
    const std::size_t flips = 1 + seed % 3;
    for (std::size_t i = 0; i < flips; ++i) {
      bytes[rng() % bytes.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    }
    SessionPeer peer;
    peer.send(encode_frame(range_request(kTwentyRunSpec, 20, 0, 16)));
    expect_range(peer.read_range(), 0, 16);
    peer.send(bytes);
    if (seed % 10 != 0) peer.hang_up();  // every tenth stays connected
    const std::vector<Frame> frames = peer.read_range();
    const std::string context = "mutation seed " + std::to_string(seed);
    EXPECT_TRUE(peer.protocol_error.empty()) << context << ": " << peer.protocol_error;
    if (!refusal_in(frames).empty()) ++refused;
    ASSERT_TRUE(peer.wait_returned()) << context << ": session still running past the bound";
    // A mutated request either refuses or, when the flips left it valid
    // (a different but legal range), serves it; neither end is clean
    // unless the coordinator closed between whole ranges.
    EXPECT_TRUE(!refusal_in(frames).empty() || frames.empty() ||
                frames.back().type == FrameType::kShardDone)
        << context;
  }
  EXPECT_GT(refused, 50u);
}

}  // namespace
}  // namespace lr
