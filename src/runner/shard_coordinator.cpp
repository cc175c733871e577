#include "runner/shard_coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <utility>

#include "runner/retry_policy.hpp"

namespace lr {

namespace {

using Clock = std::chrono::steady_clock;

/// Budget for establishing one attempt: fork or connect, then shipping
/// the request.
constexpr auto kStartTimeout = std::chrono::milliseconds(5'000);

/// Consecutive failed attempts after which an endpoint is declared dead.
constexpr std::size_t kEndpointFailureThreshold = 2;

constexpr std::size_t kNoEndpoint = static_cast<std::size_t>(-1);

/// One endpoint the runner can dispatch to, with its liveness score.
struct Endpoint {
  std::shared_ptr<ShardTransport> transport;
  std::size_t consecutive_failures = 0;
  bool dead = false;
};

/// One lane's session: a channel that carries successive ranges, and
/// the range in flight on it.
struct Lane {
  std::size_t endpoint = kNoEndpoint;
  std::unique_ptr<ShardChannel> channel;
  FrameParser parser;          ///< survives across the session's ranges
  Clock::time_point deadline;  ///< inactivity watchdog expiry
  std::size_t shard = 0;       ///< range in flight
  std::size_t next_index = 0;  ///< next global run index the range owes
  bool hello_seen = false;
  bool done_seen = false;
  Clock::time_point started;
  long long backoff_ms = 0;  ///< delay the retry policy imposed before dispatch
};

/// A range to dispatch: a fresh one from the cursor or a retry.
struct Job {
  std::size_t shard = 0;
  Clock::time_point not_before;              ///< retry-policy gate
  std::size_t avoid_endpoint = kNoEndpoint;  ///< endpoint of the last failure
  long long backoff_ms = 0;                  ///< the gate's delay, for the attempt log
};

long long elapsed_ms_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - start).count();
}

}  // namespace

ShardRunner::ShardRunner(RunnerOptions options, std::vector<HostSpec> hosts,
                         std::string worker_command)
    : options_(std::move(options)),
      label_(hosts.empty() ? "multi-process sweep" : "multi-host sweep"),
      timeout_ms_(options_.worker_timeout_ms) {
  for (const HostSpec& host : hosts) {
    transports_.push_back(
        std::make_shared<TcpShardTransport>(host.host, host.port, host.workers));
  }
  if (options_.process_workers > 0) {
    // Remote hosts do not share this filesystem, so only the local
    // children get the snapshot dir (the CLI rejects --hosts with it).
    transports_.push_back(std::make_shared<ProcessShardTransport>(
        options_.process_workers, options_.snapshot_dir, std::move(worker_command)));
  }
  if (transports_.empty()) {
    throw std::invalid_argument("ShardRunner: no endpoint (no hosts and process_workers = 0)");
  }
  if (const char* env = std::getenv("LR_TEST_WORKER_TIMEOUT_MS"); env != nullptr && *env != '\0') {
    std::uint64_t parsed = 0;
    try {
      parsed = parse_u64(env);
    } catch (const std::invalid_argument&) {
      // stays 0: rejected below
    }
    if (parsed == 0 || parsed > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      throw std::invalid_argument(std::string("bad LR_TEST_WORKER_TIMEOUT_MS '") + env +
                                  "' (want a millisecond count in 1..2^31-1)");
    }
    timeout_ms_ = static_cast<int>(parsed);
  }
  if (const char* env = std::getenv("LR_TEST_TRANSPORT_FAULT"); env != nullptr && *env != '\0') {
    const TransportFault fault = parse_transport_fault(env);
    for (auto& transport : transports_) {
      transport = std::make_shared<FaultyTransport>(std::move(transport), fault);
    }
  }
}

std::size_t ShardRunner::total_workers() const noexcept {
  std::size_t capacity = 0;
  for (const auto& transport : transports_) capacity += transport->capacity();
  return capacity;
}

SweepReport ShardRunner::run(const SweepSpec& spec) {
  const std::vector<RunSpec> runs = spec.expand();
  const std::size_t total = runs.size();
  diagnostics_.clear();
  SweepReport report;
  report.records.resize(total);
  if (total == 0) return report;

  // Ranges of at most kRangeRuns runs, and at least one per lane: a
  // small sweep splits exactly across the lanes, a large one into more
  // ranges than lanes, which the lanes pull as they finish.
  const std::size_t range_count =
      std::max(total_workers(), (total + kRangeRuns - 1) / kRangeRuns);
  const std::vector<ShardRange> ranges = shard_ranges(total, range_count);
  const std::size_t shards = ranges.size();
  diagnostics_.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    diagnostics_[s].shard = s;
    diagnostics_[s].range = ranges[s];
  }

  const std::string spec_text = format_sweep_spec(spec);
  const int heartbeat_ms = std::max(10, timeout_ms_ / 4);
  // The worker tolerates a few missed beacons before declaring this end
  // gone and unwinding its session.
  const auto liveness_timeout_ms =
      static_cast<std::uint32_t>(std::max(2LL * timeout_ms_, 2'000LL));
  const RetryPolicy retry;
  // Saturating: a retry count of SIZE_MAX means "retry forever", not 0.
  const std::size_t max_attempts =
      options_.worker_retries < std::numeric_limits<std::size_t>::max()
          ? 1 + options_.worker_retries
          : options_.worker_retries;

  std::vector<Endpoint> endpoints;
  endpoints.reserve(transports_.size());
  for (const auto& transport : transports_) endpoints.push_back({transport});

  std::vector<Lane> lanes;
  std::size_t next_fresh = 0;  // first range never dispatched
  std::vector<Job> retries;    // failed ranges behind their backoff gates
  std::size_t completed = 0;
  bool exhausted = false;       // some range ran out of attempts
  bool nowhere_to_run = false;  // every endpoint dead with work outstanding
  std::uint64_t heartbeat_sequence = 0;
  Clock::time_point next_heartbeat = Clock::now() + std::chrono::milliseconds(heartbeat_ms);

  const auto busy_on = [&](std::size_t endpoint) {
    std::size_t count = 0;
    for (const Lane& lane : lanes) {
      if (lane.endpoint == endpoint) ++count;
    }
    return count;
  };

  // A live endpoint with a free lane, preferring one other than `avoid`
  // (reassignment on host death); kNoEndpoint when every lane is busy.
  const auto free_endpoint = [&](std::size_t avoid) {
    std::size_t second_choice = kNoEndpoint;
    for (std::size_t e = 0; e < endpoints.size(); ++e) {
      if (endpoints[e].dead || busy_on(e) >= endpoints[e].transport->capacity()) continue;
      if (e != avoid) return e;
      second_choice = e;
    }
    return second_choice;
  };

  // Takes the next dispatchable range at `now`: a retry whose gate has
  // passed, else the next fresh range from the cursor.
  const auto take_job = [&](Clock::time_point now, Job& job) {
    for (std::size_t i = 0; i < retries.size(); ++i) {
      if (retries[i].not_before > now) continue;
      job = retries[i];
      retries.erase(retries.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
    if (next_fresh == shards) return false;
    job = {next_fresh++, now, kNoEndpoint, 0};
    return true;
  };

  // Logs the attempt's failure, charges the endpoint's liveness score,
  // and re-queues the range behind its backoff gate — or declares the
  // budget exhausted.
  const auto record_failure = [&](std::size_t shard, std::size_t endpoint_index,
                                  Clock::time_point started, long long backoff_ms,
                                  const std::string& cause) {
    ShardDiagnostics& diag = diagnostics_[shard];
    Endpoint& endpoint = endpoints[endpoint_index];
    diag.attempt_log.push_back({diag.attempts - 1, endpoint.transport->endpoint(), cause,
                                elapsed_ms_since(started), backoff_ms});
    if (++endpoint.consecutive_failures >= kEndpointFailureThreshold) endpoint.dead = true;
    if (diag.attempts < max_attempts) {
      const auto backoff = retry.delay(shard, diag.attempts);
      retries.push_back({shard, Clock::now() + backoff, endpoint_index, backoff.count()});
    } else {
      exhausted = true;
    }
  };

  // The request for the next attempt of `job`'s range; counts the attempt.
  const auto request_for = [&](const Job& job) {
    ShardDiagnostics& diag = diagnostics_[job.shard];
    ++diag.attempts;
    ShardRequestFrame request;
    request.shard = job.shard;
    request.begin = ranges[job.shard].begin;
    request.end = ranges[job.shard].end;
    request.total = total;
    request.attempt = diag.attempts - 1;
    request.threads = options_.threads;
    request.cache_cap = options_.cache_max_entries;
    request.heartbeat_ms = static_cast<std::uint32_t>(heartbeat_ms);
    request.liveness_timeout_ms = liveness_timeout_ms;
    request.spec_text = spec_text;
    return request;
  };

  // Puts `job`'s range in flight on `lane` (its request already shipped).
  const auto begin_range = [&](Lane& lane, const Job& job, Clock::time_point started) {
    lane.shard = job.shard;
    lane.next_index = ranges[job.shard].begin;
    lane.hello_seen = false;
    lane.done_seen = false;
    lane.started = started;
    lane.backoff_ms = job.backoff_ms;
    lane.deadline = Clock::now() + std::chrono::milliseconds(timeout_ms_);
  };

  // Opens a fresh session for `job` on `endpoint`; a failed start is
  // charged like any other failed attempt.
  const auto start_session = [&](const Job& job, std::size_t endpoint) {
    const ShardRequestFrame request = request_for(job);
    const Clock::time_point started = Clock::now();
    ShardStart start = endpoints[endpoint].transport->start(request, started + kStartTimeout);
    if (start.channel == nullptr) {
      record_failure(job.shard, endpoint, started, job.backoff_ms, start.error);
      return;
    }
    Lane lane;
    lane.endpoint = endpoint;
    lane.channel = std::move(start.channel);
    begin_range(lane, job, started);
    lanes.push_back(std::move(lane));
  };

  // Completes the lane's range, then ships the next dispatchable range
  // on the same session, or closes it when there is none.  Returns
  // false when the session is over (closed, or its next request failed
  // to ship).
  const auto finish_range = [&](Lane& lane, Clock::time_point now) {
    ShardDiagnostics& diag = diagnostics_[lane.shard];
    diag.completed = true;
    diag.attempt_log.push_back({diag.attempts - 1, endpoints[lane.endpoint].transport->endpoint(),
                                "ok", elapsed_ms_since(lane.started), lane.backoff_ms});
    Endpoint& endpoint = endpoints[lane.endpoint];
    endpoint.consecutive_failures = 0;
    endpoint.dead = false;  // a completing endpoint is alive, whatever we presumed
    ++completed;
    Job job;
    if (exhausted || !take_job(now, job)) {
      lane.channel->complete();
      return false;
    }
    const ShardRequestFrame request = request_for(job);
    const Clock::time_point started = Clock::now();
    const std::string error = lane.channel->send_request(request, started + kStartTimeout);
    if (!error.empty()) {
      record_failure(job.shard, lane.endpoint, started, job.backoff_ms,
                     error + " (" + lane.channel->abort() + ")");
      return false;
    }
    begin_range(lane, job, started);
    return true;
  };

  // Validates and applies one decoded frame from a lane; returns a
  // failure description, or empty when the frame was in contract.
  const auto apply_frame = [&](Lane& lane, const Frame& frame) -> std::string {
    const std::size_t s = lane.shard;
    const ShardRange& range = ranges[s];
    if (frame.type == FrameType::kHeartbeat) {
      // Liveness only — the read already pushed the watchdog deadline.
      // Direction is still validated: a coordinator beacon echoed back
      // means a confused peer, which must not pass for liveness.
      if (frame.heartbeat.from_coordinator != 0) {
        return "worker echoed a coordinator heartbeat";
      }
      return {};
    }
    if (frame.type == FrameType::kShardRequest) {
      return "worker sent a shard-request frame (coordinator-only frame)";
    }
    if (frame.type == FrameType::kShardError) {
      return "worker refused shard: " + frame.error.message;
    }
    if (frame.type == FrameType::kHello) {
      if (lane.hello_seen) return "duplicate hello frame";
      const HelloFrame& hello = frame.hello;
      if (hello.version != kShardProtocolVersion) {
        return "protocol version mismatch (worker " + std::to_string(hello.version) +
               ", parent " + std::to_string(kShardProtocolVersion) + ")";
      }
      if (hello.shard != s || hello.begin != range.begin || hello.end != range.end) {
        return "hello frame names the wrong shard";
      }
      lane.hello_seen = true;
      return {};
    }
    if (!lane.hello_seen) return "frame before hello";
    if (frame.type == FrameType::kRecord) {
      const RecordFrame& record = frame.record;
      if (record.global_index != lane.next_index || record.global_index >= range.end) {
        return "out-of-order record (got run #" + std::to_string(record.global_index) +
               ", expected #" + std::to_string(lane.next_index) + ")";
      }
      if (record.record.spec != runs[record.global_index]) {
        return "record #" + std::to_string(record.global_index) +
               " carries a spec that differs from the parent's expansion";
      }
      report.records[record.global_index] = record.record;
      ++lane.next_index;
      return {};
    }
    // Shard done: every run must be accounted for, exactly once.
    if (lane.next_index != range.end || frame.done.records_emitted != range.size()) {
      return "shard-done before all records arrived (" +
             std::to_string(lane.next_index - range.begin) + "/" +
             std::to_string(range.size()) + ")";
    }
    lane.done_seen = true;
    // A valid shard-done completes the range, so each range's worker
    // cache counters are summed exactly once.  Each range runs over its
    // own cache, so the resident count is the largest one, not a sum.
    report.cache.entries = std::max(report.cache.entries, frame.done.cache.entries);
    report.cache.hits += frame.done.cache.hits;
    report.cache.misses += frame.done.cache.misses;
    report.cache.evictions += frame.done.cache.evictions;
    return {};
  };

  while (!exhausted && !nowhere_to_run && completed < shards) {
    const bool all_dead =
        std::all_of(endpoints.begin(), endpoints.end(), [](const Endpoint& e) { return e.dead; });
    if (all_dead && lanes.empty() && (!retries.empty() || next_fresh < shards)) {
      nowhere_to_run = true;
      break;
    }

    // Open sessions on free lanes (the poll below frees busy ones):
    // retries whose gate has passed first, each preferring an endpoint
    // other than the one that failed it, then fresh ranges.
    const Clock::time_point now = Clock::now();
    for (Job job; !exhausted && free_endpoint(kNoEndpoint) != kNoEndpoint && take_job(now, job);) {
      start_session(job, free_endpoint(job.avoid_endpoint));
    }
    if (exhausted || completed == shards) break;

    // Multiplex all lanes; wake at the earliest of any watchdog
    // deadline, backoff gate, or the next coordinator beacon.
    std::vector<struct pollfd> fds;
    fds.reserve(lanes.size());
    Clock::time_point earliest = next_heartbeat;
    for (const Lane& lane : lanes) {
      fds.push_back({lane.channel->poll_fd(), POLLIN, 0});
      earliest = std::min(earliest, lane.deadline);
    }
    for (const Job& job : retries) {
      // A job past due when dispatch looked at it is waiting for a lane,
      // not the clock; lanes free via fd events or deadlines, so its gate
      // must not clamp this wait to a busy spin.  A gate that passed
      // during dispatch still counts (the wait is then 0), or the job
      // would sleep a full poll cap with no fd left to wake it.
      if (job.not_before > now) earliest = std::min(earliest, job.not_before);
    }
    const auto wait_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(earliest - Clock::now()).count();
    ::poll(fds.data(), fds.size(), static_cast<int>(std::clamp<long long>(wait_ms, 0, 1000)));
    const Clock::time_point after_poll = Clock::now();

    // Coordinator beacons: prove to every live worker that this end is
    // still alive.  A beacon that cannot be written is a dead channel.
    const bool send_beacons = after_poll >= next_heartbeat;
    if (send_beacons) next_heartbeat = after_poll + std::chrono::milliseconds(heartbeat_ms);

    for (std::size_t i = 0; i < lanes.size();) {
      Lane& lane = lanes[i];
      std::string failure;
      bool open = true;
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        // Drain the channel and the parser until would-block, EOF, an
        // error, or the session's end.
        while (failure.empty() && open) {
          std::uint8_t buffer[65536];
          const ChannelRead read = lane.channel->read_some(buffer, sizeof(buffer));
          if (read.kind == ChannelRead::Kind::kData) {
            lane.deadline = after_poll + std::chrono::milliseconds(timeout_ms_);
            lane.parser.feed(buffer, read.bytes);
            try {
              while (auto frame = lane.parser.next()) {
                failure = apply_frame(lane, *frame);
                if (!failure.empty()) break;
                if (lane.done_seen && !(open = finish_range(lane, after_poll))) break;
              }
            } catch (const ShardProtocolError& error) {
              failure = error.what();
            }
            continue;
          }
          if (read.kind == ChannelRead::Kind::kEof) {
            failure = lane.parser.mid_frame() ? "stream truncated mid-frame"
                                              : "worker exited before completing its shard";
            break;
          }
          if (read.kind == ChannelRead::Kind::kError) {
            failure = read.error;
            break;
          }
          break;  // would block; nothing buffered
        }
      }
      if (open && failure.empty() && after_poll >= lane.deadline) {
        failure = "stalled: no frame within " + std::to_string(timeout_ms_) + " ms";
      }
      if (open && failure.empty() && send_beacons) {
        const std::string beacon_error = lane.channel->send_heartbeat(heartbeat_sequence++);
        if (!beacon_error.empty()) failure = beacon_error;
      }
      if (open && !failure.empty()) {
        const std::string status = lane.channel->abort();
        // The retry re-emits the range from its beginning (records are
        // pure functions of their spec, so completed slots are simply
        // overwritten identically); ranges this session completed keep
        // their records.
        record_failure(lane.shard, lane.endpoint, lane.started, lane.backoff_ms,
                       failure + " (" + status + ")");
        open = false;
      }
      if (!open) {
        lanes.erase(lanes.begin() + static_cast<std::ptrdiff_t>(i));
        fds.erase(fds.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      ++i;
    }
  }

  if (exhausted || nowhere_to_run) {
    for (Lane& lane : lanes) lane.channel->abort();
    std::string message =
        nowhere_to_run
            ? label_ + " failed: every endpoint is dead with shards outstanding"
            : label_ + " failed: retry budget exhausted (" + std::to_string(max_attempts) +
                  " attempt(s) per shard)";
    for (const ShardDiagnostics& diag : diagnostics_) {
      const std::vector<std::string> failures = diag.failure_lines();
      if (failures.empty()) continue;
      message += "\n  shard " + std::to_string(diag.shard) + " (runs [" +
                 std::to_string(diag.range.begin) + ", " + std::to_string(diag.range.end) +
                 "), " + (diag.completed ? "completed" : "INCOMPLETE") + "):";
      for (const std::string& failure : failures) message += "\n    " + failure;
    }
    throw std::runtime_error(message);
  }
  for (Lane& lane : lanes) lane.channel->complete();

  return report;
}

}  // namespace lr
