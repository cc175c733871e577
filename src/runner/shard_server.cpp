#include "runner/shard_server.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "runner/shard_protocol.hpp"
#include "runner/shard_transport.hpp"

namespace lr {

namespace {

using Clock = std::chrono::steady_clock;

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

long long now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now().time_since_epoch())
      .count();
}

/// Full write; MSG_NOSIGNAL because a session may run in a process that
/// does not ignore SIGPIPE.  The caller holds the session's write lock.
bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Worker fault injection (LR_TEST_WORKER_FAULT)
// ---------------------------------------------------------------------------

/// Listed in LR_TEST_WORKER_FAULT's kind order.
enum class WorkerFault { kExit, kSegv, kTruncate, kStall, kNone };

/// Reads LR_TEST_WORKER_FAULT (`kind:shard[:attempts]`, parse_fault_hook's
/// grammar) and returns the fault armed for this shard attempt: the
/// shard matches and the attempt is within the hook's count (default 1,
/// so a retried shard succeeds unless the hook says otherwise).  A
/// malformed hook ends the process with exit code 2; only `--stdio`
/// children ever read it.
WorkerFault armed_worker_fault(std::uint64_t shard, std::uint64_t attempt) {
  const char* env = std::getenv("LR_TEST_WORKER_FAULT");
  if (env == nullptr || *env == '\0') return WorkerFault::kNone;
  FaultHook hook;
  try {
    hook = parse_fault_hook("LR_TEST_WORKER_FAULT", env, {"exit", "segv", "truncate", "stall"});
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    ::_exit(2);
  }
  const bool armed = hook.shard == shard && attempt < hook.attempts;
  return armed ? static_cast<WorkerFault>(hook.kind) : WorkerFault::kNone;
}

/// Injects `fault` mid-shard; every branch leaves the process.  Holding
/// the write lock silences the session's beacons too, so a stall reads
/// as a wedged worker and a truncation stays mid-frame.
[[noreturn]] void trigger_fault(WorkerFault fault, ShardSession& session) {
  const std::lock_guard<std::mutex> lock(session.write_mutex);
  switch (fault) {
    case WorkerFault::kSegv:
      ::raise(SIGSEGV);
      break;  // unreachable unless SIGSEGV is blocked
    case WorkerFault::kTruncate: {
      // A syntactically valid header promising a 64-byte record payload,
      // followed by only 8 payload bytes and EOF: the coordinator must
      // classify this as a truncated frame, never a clean shard end.
      std::vector<std::uint8_t> bytes;
      for (int byte = 0; byte < 4; ++byte) bytes.push_back((kFrameMagic >> (8 * byte)) & 0xffu);
      bytes.push_back(static_cast<std::uint8_t>(FrameType::kRecord));
      bytes.insert(bytes.end(), {64, 0, 0, 0});
      bytes.insert(bytes.end(), 8, 0xabu);
      write_all(session.fd, bytes.data(), bytes.size());
      ::_exit(0);
    }
    case WorkerFault::kStall: {
      // Silent until the coordinator's watchdog kills us or it hangs up.
      std::uint8_t sink[256];
      for (;;) {
        const ssize_t n = ::recv(session.fd, sink, sizeof(sink), 0);
        if (n == 0 || (n < 0 && errno != EINTR)) break;
      }
      break;
    }
    case WorkerFault::kExit:
    case WorkerFault::kNone:
      break;
  }
  ::_exit(3);
}

/// What a session's reader thread shares with its serving loop.
struct SessionState {
  std::mutex mutex;  ///< guards request, busy, closed and orderly
  std::condition_variable changed;
  std::optional<ShardRequestFrame> request;  ///< the next range, not yet taken
  bool busy = false;     ///< a range is taken and its shard-done not yet sent
  bool closed = false;   ///< the reader has stopped: EOF, error, or violation
  bool orderly = false;  ///< it stopped at an EOF between frames
  std::atomic<bool> in_flight{false};  ///< beacons and the liveness watchdog run
  std::atomic<long long> last_heard_ms{now_ms()};
  std::atomic<int> heartbeat_ms{1};
  std::atomic<int> liveness_ms{1};
};

/// Validates `request` against the sweep it names, expanding the spec
/// only when its text differs from the last accepted one (`spec_text`,
/// `runs`).  Returns the refusal, or empty when the range can run.
std::string validate_request(const ShardRequestFrame& request, std::string& spec_text,
                             std::vector<RunSpec>& runs) {
  if (request.version != kShardProtocolVersion) {
    return "protocol version mismatch (coordinator " + std::to_string(request.version) +
           ", worker " + std::to_string(kShardProtocolVersion) + ")";
  }
  if (request.spec_text != spec_text || runs.empty()) {
    spec_text.clear();
    runs.clear();
    try {
      // Count before expanding, so a request claiming a tiny sweep cannot
      // make the worker materialize a huge one.
      const SweepSpec spec = SweepSpec::parse_string(request.spec_text);
      if (spec.run_count() != request.total) {
        return "spec expands to " + std::to_string(spec.run_count()) +
               " runs but coordinator expected " + std::to_string(request.total);
      }
      runs = spec.expand();
    } catch (const std::exception& error) {
      return std::string("cannot parse sweep spec: ") + error.what();
    }
    spec_text = request.spec_text;
  } else if (runs.size() != request.total) {
    return "spec expands to " + std::to_string(runs.size()) + " runs but coordinator expected " +
           std::to_string(request.total);
  }
  const std::string range =
      "shard range [" + std::to_string(request.begin) + ", " + std::to_string(request.end) + ")";
  if (request.begin > request.end || request.end > runs.size()) {
    return range + " exceeds the sweep's " + std::to_string(runs.size()) + " runs";
  }
  if (request.end - request.begin > kRangeRuns) {
    return range + " holds " + std::to_string(request.end - request.begin) +
           " runs, more than kRangeRuns (" + std::to_string(kRangeRuns) + ")";
  }
  return {};
}

/// A session's reader thread, which owns the read side for the whole
/// session.  It queues each kShardRequest for serve_shard_session's
/// serving loop; while a range is in flight, coordinator beacons reset
/// the liveness deadline, silence past it cancels the session, and it
/// sends this worker's own beacons, so a long range never reads as a
/// dead worker.  Any out-of-contract frame
/// — garbage, a request before the previous range's shard-done, a
/// non-request first frame — is refused with a kShardError and ends the
/// session; EOF between ranges ends it cleanly.
void read_coordinator(ShardSession& session, SessionState& state) {
  FrameParser parser;
  bool requested = false;  // a request has arrived
  std::uint64_t beacon_sequence = 0;
  Clock::time_point next_beacon = Clock::now();
  std::string violation;
  bool orderly = false;
  while (!session.done.load() && !session.cancelled.load()) {
    const Clock::time_point now = Clock::now();
    int wait_ms = 100;
    if (state.in_flight.load()) {
      if (now_ms() - state.last_heard_ms.load() > state.liveness_ms.load()) {
        session.cancel();  // coordinator presumed dead or partitioned
        break;
      }
      if (now >= next_beacon) {
        const std::lock_guard<std::mutex> lock(session.write_mutex);
        if (state.in_flight.load()) {
          HeartbeatFrame beacon;
          beacon.from_coordinator = 0;
          beacon.sequence = beacon_sequence++;
          const std::vector<std::uint8_t> bytes = encode_frame(beacon);
          if (!write_all(session.fd, bytes.data(), bytes.size())) {
            session.cancel();
            break;
          }
        }
        next_beacon = now + std::chrono::milliseconds(state.heartbeat_ms.load());
      }
      wait_ms = static_cast<int>(std::clamp<long long>(
          std::chrono::duration_cast<std::chrono::milliseconds>(next_beacon - now).count(), 1,
          100));
    } else {
      next_beacon = now + std::chrono::milliseconds(state.heartbeat_ms.load());
    }
    struct pollfd pfd {
      session.fd, POLLIN, 0
    };
    if (::poll(&pfd, 1, wait_ms) <= 0) continue;
    std::uint8_t buffer[65536];
    const ssize_t n = ::recv(session.fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    if (n <= 0) {
      if (state.in_flight.load() || n < 0) {
        session.cancel();  // coordinator went away mid-range
      } else if (parser.mid_frame()) {
        violation = "coordinator closed mid-frame";
      } else {
        orderly = true;
      }
      break;
    }
    // Decode the whole read first and judge it under one lock, so a
    // request that arrived with its predecessor is refused however fast
    // the serving loop takes the first one.
    std::vector<Frame> frames;
    std::string malformed;
    try {
      parser.feed(buffer, static_cast<std::size_t>(n));
      while (auto frame = parser.next()) frames.push_back(std::move(*frame));
    } catch (const ShardProtocolError& error) {
      malformed = std::string("malformed request stream: ") + error.what();
    }
    {
      const std::lock_guard<std::mutex> lock(state.mutex);
      for (Frame& frame : frames) {
        if (frame.type == FrameType::kShardRequest) {
          if (state.busy || state.request) {
            violation = "shard request before the previous range's shard-done";
            break;
          }
          state.request = std::move(frame.request);
          requested = true;
          state.last_heard_ms.store(now_ms());
          state.changed.notify_all();
        } else if (!requested) {
          violation = "first frame must be a shard request";
          break;
        } else if (frame.type == FrameType::kHeartbeat && frame.heartbeat.from_coordinator == 1) {
          state.last_heard_ms.store(now_ms());
        } else {
          violation = "unexpected frame from the coordinator";
          break;
        }
      }
    }
    if (violation.empty()) violation = malformed;
    if (!violation.empty()) break;
  }
  if (!violation.empty() && !session.cancelled.load()) {
    ShardErrorFrame error;
    error.message = violation;
    session.send_bytes(encode_frame(error));
    session.cancel();
  }
  const std::lock_guard<std::mutex> lock(state.mutex);
  state.closed = true;
  state.orderly = orderly;
  state.changed.notify_all();
}

}  // namespace

void ShardSession::cancel() {
  cancelled.store(true);
  ::shutdown(fd, SHUT_RDWR);
}

bool ShardSession::send_bytes(const std::vector<std::uint8_t>& bytes) {
  const std::lock_guard<std::mutex> lock(write_mutex);
  if (write_all(fd, bytes.data(), bytes.size())) return true;
  cancel();
  return false;
}

bool serve_shard_session(ShardSession& session, const ShardSessionOptions& options) {
  SessionState state;
  std::thread reader([&] { read_coordinator(session, state); });

  // The serving loop: one range per request, each in one run_all over
  // this session's runner and a fresh SweepCache, so each done frame
  // carries that range's counters.  The spec is expanded once per
  // distinct spec text.
  std::string spec_text;
  std::vector<RunSpec> runs;
  std::unique_ptr<ScenarioRunner> runner;
  std::uint64_t runner_threads = 0;
  std::uint64_t ranges_served = 0;
  bool clean = false;
  for (;;) {
    ShardRequestFrame request;
    std::string refusal;
    {
      std::unique_lock<std::mutex> lock(state.mutex);
      const bool woke = state.changed.wait_for(
          lock, std::chrono::milliseconds(options.request_timeout_ms),
          [&] { return state.request.has_value() || state.closed; });
      if (state.request) {
        request = std::move(*state.request);
        state.request.reset();
        state.busy = true;
      } else if (!woke) {
        refusal = "no shard request within " + std::to_string(options.request_timeout_ms) + " ms";
      } else if (state.orderly && ranges_served == 0) {
        refusal = "coordinator closed before sending a shard request";
      } else {
        clean = state.orderly;  // EOF between ranges ends the session cleanly
        break;
      }
    }
    if (refusal.empty()) refusal = validate_request(request, spec_text, runs);
    if (!refusal.empty()) {
      if (!session.cancelled.load()) {
        ShardErrorFrame error;
        error.message = refusal;
        session.send_bytes(encode_frame(error));
      }
      break;
    }

    state.heartbeat_ms.store(static_cast<int>(std::max<std::uint32_t>(request.heartbeat_ms, 1)));
    state.liveness_ms.store(
        static_cast<int>(std::max<std::uint32_t>(request.liveness_timeout_ms, 1)));
    state.last_heard_ms.store(now_ms());
    state.in_flight.store(true);
    HelloFrame hello;
    hello.shard = request.shard;
    hello.begin = request.begin;
    hello.end = request.end;
    hello.attempt = request.attempt;
    if (!session.send_bytes(encode_frame(hello))) break;
    const WorkerFault fault = options.worker_faults
                                  ? armed_worker_fault(request.shard, request.attempt)
                                  : WorkerFault::kNone;

    const auto threads = static_cast<std::size_t>(request.threads);
    const auto cache_cap = static_cast<std::size_t>(request.cache_cap);
    if (runner == nullptr || runner_threads != request.threads) {
      runner = std::make_unique<ScenarioRunner>(
          RunnerOptions{.threads = threads, .cache_max_entries = cache_cap});
      runner_threads = request.threads;
    }
    SweepCache cache(cache_cap, options.snapshot_dir);
    const std::vector<RunSpec> slice(runs.begin() + static_cast<std::ptrdiff_t>(request.begin),
                                     runs.begin() + static_cast<std::ptrdiff_t>(request.end));
    const std::vector<RunRecord> records = runner->run_all(slice, cache);
    const std::size_t fault_at = records.size() / 2;  // mid-range
    bool failed = session.cancelled.load();
    for (std::size_t i = 0; i < records.size() && !failed; ++i) {
      if (fault != WorkerFault::kNone && i == fault_at) trigger_fault(fault, session);
      RecordFrame frame;
      frame.global_index = request.begin + i;
      frame.record = records[i];
      failed = !session.send_bytes(encode_frame(frame));
    }
    if (failed || session.cancelled.load()) break;
    {
      const std::lock_guard<std::mutex> lock(state.mutex);
      state.busy = false;
    }
    ShardDoneFrame done;
    done.records_emitted = records.size();
    done.cache = {cache.entries(), cache.hits(), cache.misses(), cache.evictions()};
    const std::vector<std::uint8_t> bytes = encode_frame(done);
    {
      // No beacon may follow the done frame: the coordinator's next bytes
      // on this session start the next range.
      const std::lock_guard<std::mutex> lock(session.write_mutex);
      state.in_flight.store(false);
      if (!write_all(session.fd, bytes.data(), bytes.size())) break;
    }
    ++ranges_served;
  }

  if (!clean) session.cancel();  // wakes the reader
  session.done.store(true);
  reader.join();
  return clean;
}

// ---------------------------------------------------------------------------
// ShardServer: one session thread per TCP connection
// ---------------------------------------------------------------------------

/// A TCP connection's session plus the thread serving it.
struct ShardServer::Session : ShardSession {
  using ShardSession::ShardSession;
  std::thread thread;
};

ShardServer::ShardServer(ShardServerOptions options) : options_(std::move(options)) {
  struct addrinfo hints {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
  struct addrinfo* addresses = nullptr;
  const std::string port_text = std::to_string(options_.port);
  const int resolve =
      ::getaddrinfo(options_.bind_address.c_str(), port_text.c_str(), &hints, &addresses);
  if (resolve != 0) {
    throw std::runtime_error("ShardServer: cannot resolve bind address '" +
                             options_.bind_address + "': " + ::gai_strerror(resolve));
  }
  std::string last_error = "no addresses";
  for (struct addrinfo* address = addresses; address != nullptr; address = address->ai_next) {
    listen_fd_ = ::socket(address->ai_family, address->ai_socktype | SOCK_CLOEXEC,
                          address->ai_protocol);
    if (listen_fd_ < 0) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    int reuse = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
    if (::bind(listen_fd_, address->ai_addr, address->ai_addrlen) == 0 &&
        ::listen(listen_fd_, 64) == 0) {
      break;
    }
    last_error = std::string("bind/listen: ") + std::strerror(errno);
    close_fd(listen_fd_);
  }
  ::freeaddrinfo(addresses);
  if (listen_fd_ < 0) {
    throw std::runtime_error("ShardServer: cannot listen on " + options_.bind_address + ":" +
                             port_text + " (" + last_error + ")");
  }
  struct sockaddr_storage bound {};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound), &bound_len);
  if (bound.ss_family == AF_INET) {
    port_ = ntohs(reinterpret_cast<struct sockaddr_in*>(&bound)->sin_port);
  } else if (bound.ss_family == AF_INET6) {
    port_ = ntohs(reinterpret_cast<struct sockaddr_in6*>(&bound)->sin6_port);
  } else {
    port_ = options_.port;
  }
}

ShardServer::~ShardServer() { stop(); }

void ShardServer::start() {
  if (started_) return;
  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void ShardServer::stop() {
  stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  close_fd(listen_fd_);
  std::vector<std::shared_ptr<Session>> sessions;
  {
    const std::lock_guard<std::mutex> lock(sessions_mutex_);
    sessions.swap(sessions_);
  }
  for (const auto& session : sessions) session->cancel();
  for (const auto& session : sessions) {
    if (session->thread.joinable()) session->thread.join();
    close_fd(session->fd);
  }
}

void ShardServer::accept_loop() {
  while (!stopping_.load()) {
    // Reap finished sessions so a long-lived daemon's fd/thread footprint
    // stays proportional to the in-flight load, not its history.  The
    // accept loop is the only closer besides stop(), and stop() only
    // closes after this loop has exited, so each fd closes exactly once.
    {
      const std::lock_guard<std::mutex> lock(sessions_mutex_);
      for (std::size_t i = 0; i < sessions_.size();) {
        if (sessions_[i]->done.load()) {
          if (sessions_[i]->thread.joinable()) sessions_[i]->thread.join();
          close_fd(sessions_[i]->fd);
          sessions_.erase(sessions_.begin() + static_cast<std::ptrdiff_t>(i));
          continue;
        }
        ++i;
      }
    }
    struct pollfd pfd {
      listen_fd_, POLLIN, 0
    };
    const int ready = ::poll(&pfd, 1, 100);
    if (stopping_.load()) break;
    if (ready <= 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    auto session = std::make_shared<Session>(fd);
    {
      const std::lock_guard<std::mutex> lock(sessions_mutex_);
      sessions_.push_back(session);
    }
    session->thread = std::thread([this, session] {
      const bool completed = serve_shard_session(*session, ShardSessionOptions{});
      (completed ? sessions_completed_ : sessions_failed_).fetch_add(1);
    });
  }
}

// ---------------------------------------------------------------------------
// shard-server subcommand
// ---------------------------------------------------------------------------

namespace {

int server_argv_error(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: lr_cli shard-server --listen <port> [--bind <address>]\n"
               "       lr_cli shard-server --stdio [--snapshot-dir DIR]\n"
               "--listen serves sweep ranges to remote `lr_cli sweep --hosts` coordinators\n"
               "over the v%u shard protocol; binds 127.0.0.1 unless --bind says otherwise.\n"
               "--stdio serves successive ranges over the socket on fd 0 until EOF;\n"
               "`lr_cli sweep --processes N` spawns its workers this way.\n",
               why.c_str(), static_cast<unsigned>(kShardProtocolVersion));
  return 2;
}

/// `--stdio`: one session on the socket at fd 0, then exit (0 when the
/// coordinator ended it cleanly between ranges).
int serve_stdio(const std::string& snapshot_dir) {
  int type = 0;
  socklen_t length = sizeof(type);
  if (::getsockopt(STDIN_FILENO, SOL_SOCKET, SO_TYPE, &type, &length) != 0 ||
      type != SOCK_STREAM) {
    return server_argv_error("--stdio needs a connected stream socket on fd 0");
  }
  ShardSession session(STDIN_FILENO);
  ShardSessionOptions options;
  options.snapshot_dir = snapshot_dir;
  options.worker_faults = true;
  return serve_shard_session(session, options) ? 0 : 1;
}

}  // namespace

int shard_server_main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "shard-server") != 0) {
    return server_argv_error("shard_server_main invoked without the shard-server subcommand");
  }
  ShardServerOptions options;
  bool listen_seen = false;
  bool stdio = false;
  std::string snapshot_dir;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--stdio") {
      stdio = true;
      continue;
    }
    if (i + 1 >= argc) return server_argv_error("flag '" + flag + "' is missing its value");
    const std::string value = argv[++i];
    if (flag == "--bind") {
      if (value.empty()) return server_argv_error("--bind needs a non-empty address");
      options.bind_address = value;
    } else if (flag == "--snapshot-dir") {
      snapshot_dir = value;
    } else if (flag == "--listen") {
      std::uint64_t port = 0;
      try {
        port = parse_u64(value);
      } catch (const std::invalid_argument&) {
        // stays 0: rejected below with the usage text
      }
      if (port == 0 || port > 65535) {
        return server_argv_error("--listen needs a port in 1..65535, got '" + value + "'");
      }
      options.port = static_cast<std::uint16_t>(port);
      listen_seen = true;
    } else {
      return server_argv_error("unknown flag '" + flag + "'");
    }
  }
  if (stdio) {
    if (listen_seen) return server_argv_error("--stdio and --listen are exclusive");
    return serve_stdio(snapshot_dir);
  }
  if (!listen_seen) return server_argv_error("--listen <port> (or --stdio) is required");
  if (!snapshot_dir.empty()) return server_argv_error("--snapshot-dir needs --stdio");

  // Serve until SIGINT/SIGTERM; the mask is installed before the server
  // threads spawn so they inherit it and sigwait below is race-free.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  ::pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  try {
    ShardServer server(options);
    server.start();
    std::printf("shard-server listening on %s:%u\n", options.bind_address.c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    int signal_number = 0;
    ::sigwait(&signals, &signal_number);
    server.stop();
    std::fprintf(stderr, "shard-server: shutting down (signal %d), served %llu session(s)\n",
                 signal_number,
                 static_cast<unsigned long long>(server.sessions_completed()));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}

}  // namespace lr
