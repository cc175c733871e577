#include "runner/shard_transport.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "runner/scenario.hpp"

namespace lr {

std::vector<ShardRange> shard_ranges(std::size_t runs, std::size_t shards) {
  std::vector<ShardRange> ranges;
  if (runs == 0 || shards == 0) return ranges;
  shards = std::min(shards, runs);
  ranges.reserve(shards);
  const std::size_t base = runs / shards;
  const std::size_t extra = runs % shards;  // first `extra` shards take one more
  std::size_t begin = 0;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    const std::size_t size = base + (shard < extra ? 1 : 0);
    ranges.push_back({begin, begin + size});
    begin += size;
  }
  return ranges;
}

std::vector<std::string> ShardDiagnostics::failure_lines() const {
  std::vector<std::string> lines;
  for (const ShardAttemptLog& entry : attempt_log) {
    if (entry.outcome == "ok") continue;
    lines.push_back("attempt " + std::to_string(entry.attempt + 1) + ": " + entry.outcome);
  }
  return lines;
}

namespace {

using Clock = std::chrono::steady_clock;

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Human-readable cause of a child's wait status.
std::string describe_status(int status) {
  if (WIFEXITED(status)) return "exit code " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = strsignal(sig);
    return "killed by signal " + std::to_string(sig) + (name ? std::string(" (") + name + ")" : "");
  }
  return "unknown wait status " + std::to_string(status);
}

/// Writes `size` bytes to a nonblocking socket, polling for writability
/// until `deadline`.  MSG_NOSIGNAL turns a write to a dead worker into an
/// EPIPE failure of this attempt instead of a SIGPIPE.  Returns empty on
/// success, else the failure description.
std::string write_all_deadline(int fd, const std::uint8_t* data, std::size_t size,
                               Clock::time_point deadline) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      return std::string("write: ") + std::strerror(errno);
    }
    const auto remaining_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count();
    if (remaining_ms <= 0) return "write timed out";
    struct pollfd pfd {
      fd, POLLOUT, 0
    };
    if (::poll(&pfd, 1, static_cast<int>(std::min<long long>(remaining_ms, 1000))) < 0 &&
        errno != EINTR) {
      return std::string("poll: ") + std::strerror(errno);
    }
  }
  return {};
}

/// One session's socket to its worker — a socketpair end to a local
/// child (`pid` > 0), which the channel kills and reaps, or a TCP
/// connection to a remote shard-server (`pid` = -1).
class SocketShardChannel final : public ShardChannel {
 public:
  SocketShardChannel(int fd, pid_t pid) : fd_(fd), pid_(pid) {}
  ~SocketShardChannel() override { abort(); }

  int poll_fd() const noexcept override { return fd_; }

  ChannelRead read_some(std::uint8_t* buffer, std::size_t capacity) override {
    for (;;) {
      const ssize_t n = ::read(fd_, buffer, capacity);
      if (n > 0) return {ChannelRead::Kind::kData, static_cast<std::size_t>(n), {}};
      if (n == 0) return {ChannelRead::Kind::kEof, 0, {}};
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return {ChannelRead::Kind::kWouldBlock, 0, {}};
      return {ChannelRead::Kind::kError, 0, std::string("read error: ") + std::strerror(errno)};
    }
  }

  std::string send_request(const ShardRequestFrame& request,
                           Clock::time_point deadline) override {
    if (fd_ < 0) return "connection already closed";
    const std::vector<std::uint8_t> bytes = encode_frame(request);
    const std::string error = write_all_deadline(fd_, bytes.data(), bytes.size(), deadline);
    if (!error.empty()) return "failed shipping shard request (" + error + ")";
    return {};
  }

  std::string send_heartbeat(std::uint64_t sequence) override {
    if (fd_ < 0) return "connection already closed";
    HeartbeatFrame beacon;
    beacon.from_coordinator = 1;
    beacon.sequence = sequence;
    const std::vector<std::uint8_t> bytes = encode_frame(beacon);
    // A beacon is tiny; if the socket cannot absorb it within a second
    // the connection is effectively dead and the coordinator should
    // treat the attempt as failed.
    const std::string error = write_all_deadline(
        fd_, bytes.data(), bytes.size(), Clock::now() + std::chrono::milliseconds(1000));
    if (!error.empty()) return "heartbeat failed (" + error + ")";
    return {};
  }

  std::string abort() override {
    if (fd_ < 0 && pid_ <= 0) return "not connected";
    close_fd(fd_);
    if (pid_ <= 0) return "connection closed by coordinator";
    ::kill(pid_, SIGKILL);
    return reap();
  }

  void complete() override {
    close_fd(fd_);
    if (pid_ > 0) reap();
  }

 private:
  /// Waits for the child and describes how it ended.
  std::string reap() {
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return describe_status(status);
  }

  int fd_;
  pid_t pid_;
};

/// Wraps a connected nonblocking socket in a channel and ships the
/// session's first request over it; a failed shipment aborts the channel.
ShardStart start_session(int fd, pid_t pid, const ShardRequestFrame& request,
                         Clock::time_point deadline, const std::string& endpoint) {
  auto channel = std::make_unique<SocketShardChannel>(fd, pid);
  ShardStart result;
  const std::string error = channel->send_request(request, deadline);
  if (!error.empty()) {
    result.error = endpoint + ": " + error + " (" + channel->abort() + ")";
    return result;
  }
  result.channel = std::move(channel);
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// ProcessShardTransport
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::size_t> children_forked_total{0};

}  // namespace

std::size_t ProcessShardTransport::children_forked() noexcept {
  return children_forked_total.load();
}

ProcessShardTransport::ProcessShardTransport(std::size_t workers, std::string snapshot_dir,
                                             std::string worker_command)
    : workers_(workers),
      snapshot_dir_(std::move(snapshot_dir)),
      worker_command_(std::move(worker_command)) {
  if (workers_ == 0) {
    throw std::invalid_argument("ProcessShardTransport: workers must be >= 1");
  }
}

ShardStart ProcessShardTransport::start(const ShardRequestFrame& request,
                                        Clock::time_point deadline) {
  ShardStart result;
  // /proc/self/exe in the child names the binary the parent runs.
  const std::string command = worker_command_.empty() ? "/proc/self/exe" : worker_command_;
  // Close-on-exec keeps every other child from inheriting this attempt's
  // end, so the child sees EOF the moment the coordinator closes it.
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    result.error = std::string("socketpair() failed: ") + std::strerror(errno);
    return result;
  }
  std::vector<const char*> argv = {command.c_str(), "shard-server", "--stdio"};
  if (!snapshot_dir_.empty()) {
    argv.push_back("--snapshot-dir");
    argv.push_back(snapshot_dir_.c_str());
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    result.error = std::string("fork() failed: ") + std::strerror(errno);
    close_fd(fds[0]);
    close_fd(fds[1]);
    return result;
  }
  if (pid == 0) {
    // Child: the socket on fd 0 (dup2 clears close-on-exec); stdout and
    // stderr pass through so worker messages reach the parent's stderr.
    ::dup2(fds[1], STDIN_FILENO);
    ::fcntl(STDIN_FILENO, F_SETFD, 0);
    ::execv(command.c_str(), const_cast<char**>(argv.data()));
    std::fprintf(stderr, "error: cannot exec shard worker '%s': %s\n", command.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  children_forked_total.fetch_add(1);
  close_fd(fds[1]);
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  return start_session(fds[0], pid, request, deadline, endpoint_);
}

// ---------------------------------------------------------------------------
// TcpShardTransport
// ---------------------------------------------------------------------------

TcpShardTransport::TcpShardTransport(std::string host, std::uint16_t port, std::size_t workers)
    : host_(std::move(host)), port_(port), workers_(workers) {
  if (workers_ == 0) {
    throw std::invalid_argument("TcpShardTransport: workers must be >= 1");
  }
  if (port_ == 0) {
    throw std::invalid_argument("TcpShardTransport: port must be 1..65535");
  }
  endpoint_ = host_ + ":" + std::to_string(port_);
}

ShardStart TcpShardTransport::start(const ShardRequestFrame& request,
                                    Clock::time_point deadline) {
  ShardStart result;

  struct addrinfo hints {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  struct addrinfo* addresses = nullptr;
  const std::string port_text = std::to_string(port_);
  const int resolve = ::getaddrinfo(host_.c_str(), port_text.c_str(), &hints, &addresses);
  if (resolve != 0) {
    result.error = endpoint_ + ": cannot resolve host (" + ::gai_strerror(resolve) + ")";
    return result;
  }

  int fd = -1;
  std::string last_error = "no addresses";
  for (struct addrinfo* address = addresses; address != nullptr; address = address->ai_next) {
    fd = ::socket(address->ai_family, address->ai_socktype | SOCK_CLOEXEC | SOCK_NONBLOCK,
                  address->ai_protocol);
    if (fd < 0) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    if (::connect(fd, address->ai_addr, address->ai_addrlen) == 0) break;
    if (errno == EINPROGRESS) {
      // Nonblocking connect: poll for writability, then read SO_ERROR —
      // a refused or timed-out connection is a returned failure the
      // coordinator can charge and retry elsewhere, never a hang.
      const auto remaining_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count();
      struct pollfd pfd {
        fd, POLLOUT, 0
      };
      const int ready = ::poll(&pfd, 1, static_cast<int>(std::max<long long>(remaining_ms, 0)));
      int so_error = ETIMEDOUT;
      socklen_t so_len = sizeof(so_error);
      if (ready > 0) ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &so_len);
      if (ready > 0 && so_error == 0) break;
      last_error = std::string("connect: ") + std::strerror(so_error);
    } else {
      last_error = std::string("connect: ") + std::strerror(errno);
    }
    close_fd(fd);
  }
  ::freeaddrinfo(addresses);
  if (fd < 0) {
    result.error = endpoint_ + ": " + last_error;
    return result;
  }

  // Records are small and latency-sensitive relative to the watchdogs;
  // don't let Nagle batch them against delayed ACKs.
  int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  return start_session(fd, -1, request, deadline, endpoint_);
}

// ---------------------------------------------------------------------------
// Host-list parsing
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void bad_host_entry(const std::string& entry, const std::string& why) {
  throw std::invalid_argument("bad --hosts entry '" + entry + "': " + why +
                              " (want host:port[*workers])");
}

/// parse_u64 bounded to [min, max]; false on anything else.
bool parse_bounded(const std::string& text, std::uint64_t min, std::uint64_t max,
                   std::uint64_t& out) {
  try {
    out = parse_u64(text);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return out >= min && out <= max;
}

}  // namespace

std::vector<HostSpec> parse_host_list(const std::string& text) {
  std::vector<HostSpec> hosts;
  std::size_t position = 0;
  while (position <= text.size()) {
    const std::size_t comma = text.find(',', position);
    const std::string entry =
        text.substr(position, comma == std::string::npos ? std::string::npos : comma - position);
    position = comma == std::string::npos ? text.size() + 1 : comma + 1;
    if (entry.empty()) bad_host_entry(entry, "empty entry");

    std::string body = entry;
    std::uint64_t workers = 1;
    const std::size_t star = body.find('*');
    if (star != std::string::npos) {
      const std::string workers_text = body.substr(star + 1);
      if (!parse_bounded(workers_text, 1, 1024, workers)) {
        bad_host_entry(entry, "worker count must be an integer in 1..1024");
      }
      body.resize(star);
    }
    const std::size_t colon = body.rfind(':');
    if (colon == std::string::npos) bad_host_entry(entry, "missing ':port'");
    const std::string host = body.substr(0, colon);
    if (host.empty()) bad_host_entry(entry, "empty host");
    std::uint64_t port = 0;
    if (!parse_bounded(body.substr(colon + 1), 1, 65535, port)) {
      bad_host_entry(entry, "port must be an integer in 1..65535");
    }
    hosts.push_back({host, static_cast<std::uint16_t>(port), static_cast<std::size_t>(workers)});
  }
  if (hosts.empty()) throw std::invalid_argument("--hosts list is empty");
  return hosts;
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

FaultHook parse_fault_hook(const std::string& knob, const std::string& text,
                           const std::vector<std::string>& kinds) {
  std::string kind_list;
  for (const std::string& kind : kinds) kind_list += (kind_list.empty() ? "" : "|") + kind;
  const auto bad = [&](const std::string& why) {
    return std::invalid_argument("bad " + knob + " '" + text + "': " + why +
                                 " (want kind:shard[:attempts], kind in " + kind_list + ")");
  };
  const std::size_t first = text.find(':');
  if (first == std::string::npos) throw bad("missing ':shard'");
  const std::string kind_token = text.substr(0, first);
  std::string rest = text.substr(first + 1);
  std::uint64_t attempts = 1;
  const std::size_t second = rest.find(':');
  if (second != std::string::npos) {
    if (!parse_bounded(rest.substr(second + 1), 1, 1u << 20, attempts)) {
      throw bad("attempts must be a positive integer");
    }
    rest.resize(second);
  }
  std::uint64_t shard = 0;
  if (!parse_bounded(rest, 0, 1u << 20, shard)) throw bad("shard must be a non-negative integer");
  const auto kind = std::find(kinds.begin(), kinds.end(), kind_token);
  if (kind == kinds.end()) throw bad("unknown kind '" + kind_token + "'");
  return {static_cast<std::size_t>(kind - kinds.begin()), static_cast<std::size_t>(shard),
          static_cast<std::size_t>(attempts)};
}

TransportFault parse_transport_fault(const std::string& text) {
  // Listed in TransportFault::Kind order, after kNone.
  const FaultHook hook = parse_fault_hook("LR_TEST_TRANSPORT_FAULT", text,
                                          {"connect", "drop", "corrupt", "hbstall", "delay"});
  TransportFault fault;
  fault.kind = static_cast<TransportFault::Kind>(hook.kind + 1);
  fault.shard = hook.shard;
  fault.attempts = hook.attempts;
  return fault;
}

namespace {

/// True when `fault` targets this attempt of this range.
bool fault_armed_for(const TransportFault& fault, const ShardRequestFrame& request) {
  return fault.kind != TransportFault::Kind::kNone && request.shard == fault.shard &&
         request.attempt < fault.attempts;
}

/// Channel decorator applying a TransportFault to the byte stream of
/// the ranges it targets, counting stream offsets from the request that
/// armed it.
class FaultyChannel final : public ShardChannel {
 public:
  FaultyChannel(std::unique_ptr<ShardChannel> inner, TransportFault fault, bool armed)
      : inner_(std::move(inner)), fault_(fault), armed_(armed) {
    if (fault_.kind == TransportFault::Kind::kHeartbeatStall) {
      // A never-readable fd the coordinator can park its poll() on once
      // the stream goes silent, so the watchdog fires on schedule
      // instead of the loop spinning hot.
      if (::pipe2(stall_pipe_, O_CLOEXEC) != 0) stall_pipe_[0] = stall_pipe_[1] = -1;
    }
  }

  ~FaultyChannel() override {
    close_fd(stall_pipe_[0]);
    close_fd(stall_pipe_[1]);
  }

  int poll_fd() const noexcept override {
    if (tripped_ && fault_.kind == TransportFault::Kind::kHeartbeatStall && stall_pipe_[0] >= 0) {
      return stall_pipe_[0];
    }
    return inner_->poll_fd();
  }

  ChannelRead read_some(std::uint8_t* buffer, std::size_t capacity) override {
    if (!armed_) return inner_->read_some(buffer, capacity);
    switch (fault_.kind) {
      case TransportFault::Kind::kDrop: {
        if (tripped_) return drop_session();
        ChannelRead read = inner_->read_some(buffer, capacity);
        if (read.kind == ChannelRead::Kind::kData) {
          if (seen_ + read.bytes >= fault_.at_byte) {
            // Deliver only up to the cut so the stream dies mid-frame.
            read.bytes = fault_.at_byte > seen_ ? fault_.at_byte - seen_ : 0;
            tripped_ = true;
            if (read.bytes == 0) return drop_session();
          }
          seen_ += read.bytes;
        }
        return read;
      }
      case TransportFault::Kind::kCorrupt: {
        ChannelRead read = inner_->read_some(buffer, capacity);
        if (read.kind == ChannelRead::Kind::kData) {
          if (!tripped_ && seen_ <= fault_.at_byte && fault_.at_byte < seen_ + read.bytes) {
            buffer[fault_.at_byte - seen_] ^= 0x20;  // one flipped bit; checksum must catch it
            tripped_ = true;
          }
          seen_ += read.bytes;
        }
        return read;
      }
      case TransportFault::Kind::kHeartbeatStall: {
        if (tripped_) return {ChannelRead::Kind::kWouldBlock, 0, {}};
        ChannelRead read = inner_->read_some(buffer, capacity);
        if (read.kind == ChannelRead::Kind::kData) {
          if (seen_ + read.bytes >= fault_.at_byte) {
            const std::size_t deliver = fault_.at_byte > seen_ ? fault_.at_byte - seen_ : 0;
            tripped_ = true;  // stream goes silent from here; watchdog must fire
            seen_ += deliver;
            if (deliver == 0) return {ChannelRead::Kind::kWouldBlock, 0, {}};
            read.bytes = deliver;
            return read;
          }
          seen_ += read.bytes;
        }
        return read;
      }
      case TransportFault::Kind::kDelay: {
        // Trickle: tiny reads with a per-read pause, modeling a slow
        // link.  The shard still completes, just late.
        std::this_thread::sleep_for(std::chrono::milliseconds(fault_.delay_ms));
        ChannelRead read = inner_->read_some(buffer, std::min<std::size_t>(capacity, 64));
        if (read.kind == ChannelRead::Kind::kData) seen_ += read.bytes;
        return read;
      }
      case TransportFault::Kind::kConnectRefuse:
      case TransportFault::Kind::kNone:
        break;
    }
    return inner_->read_some(buffer, capacity);
  }

  std::string send_request(const ShardRequestFrame& request,
                           Clock::time_point deadline) override {
    // The previous range ended cleanly, so this range's stream starts at
    // offset 0 of whatever the worker sends next.
    armed_ = fault_armed_for(fault_, request);
    seen_ = 0;
    tripped_ = false;
    if (armed_ && fault_.kind == TransportFault::Kind::kConnectRefuse) {
      return "connect: Connection refused (injected fault)";
    }
    return inner_->send_request(request, deadline);
  }

  std::string send_heartbeat(std::uint64_t sequence) override {
    // Beacons keep flowing during a receive stall — the fault models a
    // one-directional partition, the harder case for the watchdog.
    return inner_->send_heartbeat(sequence);
  }

  std::string abort() override {
    const std::string status = inner_->abort();
    return dropped_status_.empty() ? status : dropped_status_;
  }
  void complete() override { inner_->complete(); }

 private:
  /// Ends the session the way a dropped connection does, keeping the
  /// inner channel's account of how it ended for abort() to report.
  ChannelRead drop_session() {
    if (dropped_status_.empty()) dropped_status_ = inner_->abort();
    return {ChannelRead::Kind::kEof, 0, {}};
  }

  std::unique_ptr<ShardChannel> inner_;
  TransportFault fault_;
  bool armed_;             ///< the range in flight is a faulted one
  std::size_t seen_ = 0;   ///< bytes of that range delivered so far
  bool tripped_ = false;   ///< the fault has fired
  std::string dropped_status_;  ///< inner abort() status of a fired drop
  int stall_pipe_[2] = {-1, -1};
};

}  // namespace

FaultyTransport::FaultyTransport(std::shared_ptr<ShardTransport> inner, TransportFault fault)
    : inner_(std::move(inner)), fault_(fault) {}

ShardStart FaultyTransport::start(const ShardRequestFrame& request,
                                  Clock::time_point deadline) {
  const bool armed = fault_armed_for(fault_, request);
  if (armed && fault_.kind == TransportFault::Kind::kConnectRefuse) {
    ShardStart refused;
    refused.error = endpoint() + ": connect: Connection refused (injected fault)";
    return refused;
  }
  ShardStart started = inner_->start(request, deadline);
  if (fault_.kind != TransportFault::Kind::kNone && started.channel != nullptr) {
    started.channel =
        std::make_unique<FaultyChannel>(std::move(started.channel), fault_, armed);
  }
  return started;
}

}  // namespace lr
