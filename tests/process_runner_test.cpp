#include <gtest/gtest.h>
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "runner/shard_coordinator.hpp"
#include "runner/shard_protocol.hpp"
#include "runner/shard_server.hpp"
#include "runner/shard_transport.hpp"
#include "trace/report.hpp"

/// Acceptance battery of the `--processes` sweep backend (ShardRunner
/// over one local endpoint, runner/shard_coordinator.hpp): shard
/// partitioning, spec round-trip,
/// byte-identical merges at every worker count (including sweeps that
/// exercise the engine / sim parallelism knobs), sessions that serve
/// many ranges (one child per lane), and the fault-injection battery —
/// each of exit / segv / truncate / stall must recover via a retry with
/// identical tables, also when it hits a range that is not its
/// session's first, and an unrecoverable fault must fail loudly with
/// per-shard diagnostics, never hang or drop runs.  Also
/// pinned here: the strict parsing of the three test fault hooks, and
/// that a sharded sweep never touches the process's SIGPIPE handler.
///
/// The test binary is its own shard worker: main() below forwards a
/// `shard-server` argv[1] straight to shard_server_main(), which is the
/// same self-hosting arrangement lr_cli and bench_e7 use.

namespace lr {
namespace {

/// RAII setenv/unsetenv so a failing test cannot leak fault knobs into
/// its neighbours.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

/// The byte string the determinism contract is stated over: records CSV,
/// aggregate CSV, and records JSON concatenated.
std::string tables_of(const SweepReport& report) {
  std::ostringstream os;
  write_table_csv(os, report.records_table());
  write_table_csv(os, report.aggregate_table());
  write_table_json(os, report.records_table());
  return os.str();
}

/// A small but heterogeneous sweep: 24 runs over two topologies and
/// three kernels, enough to spread non-trivially over up to 8 shards.
SweepSpec small_sweep() {
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kChain, TopologyKind::kRandom};
  sweep.sizes = {8, 12};
  sweep.algorithms = {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR,
                      AlgorithmKind::kTora};
  sweep.schedulers = {SchedulerKind::kLowestId};
  sweep.seeds = {1, 2};
  sweep.max_steps = 200'000;
  return sweep;
}

/// A sweep through the distributed kernels with every parallelism knob
/// turned: wheel scheduler, sharded sim loop, parallel engine rounds.
/// Multi-process merges must stay byte-identical to the in-process run
/// even when the workers themselves are internally parallel.
SweepSpec parallel_knobs_sweep() {
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kChain};
  sweep.sizes = {8, 10};
  sweep.algorithms = {AlgorithmKind::kDistFR, AlgorithmKind::kDistPR,
                      AlgorithmKind::kNewPR};
  sweep.schedulers = {SchedulerKind::kLowestId, SchedulerKind::kRandom};
  sweep.seeds = {3};
  sweep.max_steps = 200'000;
  sweep.sim_scheduler = EventSchedulerKind::kWheel;
  sweep.sim_threads = 2;
  sweep.engine_threads = 2;
  return sweep;
}

/// small_sweep() over 11 seeds: 132 runs, so 2 lanes split it into 9
/// ranges of at most kRangeRuns, and every session serves several.
/// Range 5 can only reach a session that has served a range before.
SweepSpec many_range_sweep() {
  SweepSpec sweep = small_sweep();
  sweep.seeds = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  return sweep;
}

std::string in_process_tables(const SweepSpec& sweep) {
  const ScenarioRunner runner({.threads = 1});
  return tables_of(runner.run(sweep));
}

TEST(ShardRanges, PartitionIsContiguousBalancedAndComplete) {
  for (const std::size_t runs : {0u, 1u, 7u, 24u, 100u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 8u, 150u}) {
      const auto ranges = shard_ranges(runs, shards);
      if (runs == 0) {
        EXPECT_TRUE(ranges.empty());
        continue;
      }
      // Clamped: never more shards than runs, never an empty shard.
      EXPECT_EQ(ranges.size(), std::min(runs, shards));
      std::size_t cursor = 0;
      std::size_t smallest = runs, largest = 0;
      for (const ShardRange& range : ranges) {
        EXPECT_EQ(range.begin, cursor);  // contiguous, in order
        EXPECT_GT(range.size(), 0u);
        smallest = std::min(smallest, range.size());
        largest = std::max(largest, range.size());
        cursor = range.end;
      }
      EXPECT_EQ(cursor, runs);             // complete coverage
      EXPECT_LE(largest - smallest, 1u);   // maximally balanced
      // Deterministic: same inputs, same partition.
      EXPECT_EQ(shard_ranges(runs, shards), ranges);
    }
  }
}

TEST(ShardRanges, LargerShardsComeFirst) {
  const auto ranges = shard_ranges(10, 4);  // 3,3,2,2
  ASSERT_EQ(ranges.size(), 4u);
  EXPECT_EQ(ranges[0].size(), 3u);
  EXPECT_EQ(ranges[1].size(), 3u);
  EXPECT_EQ(ranges[2].size(), 2u);
  EXPECT_EQ(ranges[3].size(), 2u);
}

TEST(FormatSweepSpec, RoundTripsThroughTheParser) {
  for (const SweepSpec& sweep : {small_sweep(), parallel_knobs_sweep()}) {
    const std::string text = format_sweep_spec(sweep);
    const SweepSpec reparsed = SweepSpec::parse_string(text);
    // The round-trip contract is stated over the expansion.
    const auto original = sweep.expand();
    const auto recovered = reparsed.expand();
    ASSERT_EQ(recovered.size(), original.size());
    // A second format pass must be a fixed point.
    EXPECT_EQ(format_sweep_spec(reparsed), text);
    // Spot-check the scalars survived.
    EXPECT_EQ(reparsed.sim_scheduler, sweep.sim_scheduler);
    EXPECT_EQ(reparsed.sim_threads, sweep.sim_threads);
    EXPECT_EQ(reparsed.engine_threads, sweep.engine_threads);
    EXPECT_EQ(reparsed.max_steps, sweep.max_steps);
  }
}

TEST(ProcessShardRunner, RejectsZeroWorkers) {
  EXPECT_THROW(ShardRunner({.process_workers = 0}), std::invalid_argument);
}

TEST(ProcessShardRunner, ClampsWorkersToRunCount) {
  ShardRunner runner({.threads = 1, .process_workers = 64});
  EXPECT_EQ(runner.total_workers(), 64u);
  SweepSpec sweep = small_sweep();
  sweep.topologies = {TopologyKind::kChain};
  sweep.sizes = {8};
  sweep.seeds = {1};  // 3 runs: one shard per run, never an empty one
  const std::string baseline = in_process_tables(sweep);
  EXPECT_EQ(tables_of(runner.run(sweep)), baseline);
  EXPECT_EQ(runner.shard_diagnostics().size(), 3u);
}

TEST(ProcessShardRunner, TablesAreByteIdenticalAtEveryWorkerCount) {
  const SweepSpec sweep = small_sweep();
  const std::string baseline = in_process_tables(sweep);
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    ShardRunner runner({.threads = 1, .process_workers = workers});
    const SweepReport report = runner.run(sweep);
    EXPECT_EQ(tables_of(report), baseline) << workers << " workers";
    // Every shard completed on its first attempt.
    for (const ShardDiagnostics& diag : runner.shard_diagnostics()) {
      EXPECT_TRUE(diag.completed);
      EXPECT_EQ(diag.attempts, 1u);
      EXPECT_TRUE(diag.failure_lines().empty());
    }
  }
}

TEST(ProcessShardRunner, ParallelismKnobsDoNotPerturbTheMerge) {
  const SweepSpec sweep = parallel_knobs_sweep();
  const std::string baseline = in_process_tables(sweep);
  for (const std::size_t workers : {2u, 4u}) {
    ShardRunner runner({.threads = 2, .process_workers = workers});
    EXPECT_EQ(tables_of(runner.run(sweep)), baseline) << workers << " workers";
  }
}

TEST(ProcessShardRunner, LargeSweepsPullSmallRangesFromOneChildPerLane) {
  const SweepSpec sweep = many_range_sweep();
  const std::string baseline = in_process_tables(sweep);
  for (const std::size_t workers : {2u, 4u}) {
    const std::size_t forked = ProcessShardTransport::children_forked();
    ShardRunner runner({.threads = 1, .process_workers = workers});
    EXPECT_EQ(tables_of(runner.run(sweep)), baseline) << workers << " workers";
    // Fault-free: every lane's child serves ranges until none is left.
    EXPECT_LE(ProcessShardTransport::children_forked() - forked, workers) << workers;
    const auto& diagnostics = runner.shard_diagnostics();
    EXPECT_EQ(diagnostics.size(), 9u);
    for (const ShardDiagnostics& diag : diagnostics) {
      EXPECT_LE(diag.range.size(), kRangeRuns);
      EXPECT_TRUE(diag.completed);
      EXPECT_EQ(diag.attempts, 1u);
    }
  }
}

TEST(ProcessShardRunner, EmptySweepYieldsEmptyReport) {
  SweepSpec sweep = small_sweep();
  sweep.seeds.clear();  // run_count() == 0
  ShardRunner runner({.process_workers = 4});
  const SweepReport report = runner.run(sweep);
  EXPECT_TRUE(report.records.empty());
  EXPECT_TRUE(runner.shard_diagnostics().empty());
}

TEST(ProcessShardRunner, MergedCacheStatsCoverEveryRun) {
  const SweepSpec sweep = small_sweep();
  ShardRunner runner({.threads = 1, .process_workers = 3});
  const SweepReport report = runner.run(sweep);
  // Every CSR-path run consults its worker's cache exactly once, and the
  // parent sums the per-worker counters.
  EXPECT_EQ(report.cache.hits + report.cache.misses, sweep.run_count());
  EXPECT_GT(report.cache.misses, 0u);
}

TEST(ProcessShardRunner, ResidentCacheCountIsTheLargestRangesNotTheSum) {
  // Every range runs over a cache of its own, so "resident" means the
  // most workloads one range held: the distinct (topology, size, seed)
  // keys of its runs.
  const SweepSpec sweep = many_range_sweep();
  ShardRunner runner({.threads = 1, .process_workers = 2});
  const SweepReport report = runner.run(sweep);
  const std::vector<RunSpec> runs = sweep.expand();
  std::size_t largest = 0;
  std::size_t sum = 0;
  for (const ShardDiagnostics& diag : runner.shard_diagnostics()) {
    std::set<std::tuple<TopologyKind, std::size_t, std::uint64_t>> keys;
    for (std::size_t i = diag.range.begin; i < diag.range.end; ++i) {
      keys.emplace(runs[i].topology, runs[i].size, runs[i].seed);
    }
    largest = std::max(largest, keys.size());
    sum += keys.size();
  }
  EXPECT_EQ(report.cache.entries, largest);
  EXPECT_LT(report.cache.entries, sum);
}

// ---------------------------------------------------------------------------
// Fault-injection battery
// ---------------------------------------------------------------------------

/// Each fault kind: the sweep must recover on the retry, the merged
/// tables must match the in-process baseline byte for byte, and the
/// diagnostics must record exactly one failed attempt on the faulted
/// shard.
class WorkerFaultRecovery : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkerFaultRecovery, RetriesOnceAndMergesIdentically) {
  const std::string kind = GetParam();
  const SweepSpec sweep = small_sweep();
  const std::string baseline = in_process_tables(sweep);

  // Arm the fault on shard 2, first attempt only.
  const ScopedEnv fault("LR_TEST_WORKER_FAULT", kind + ":2");
  // The stall fault only resolves via the inactivity watchdog; keep the
  // test fast with a short deadline (generous enough for a real frame).
  const ScopedEnv timeout("LR_TEST_WORKER_TIMEOUT_MS", "1500");

  ShardRunner runner({.threads = 1, .process_workers = 4, .worker_retries = 2});
  const SweepReport report = runner.run(sweep);
  EXPECT_EQ(tables_of(report), baseline) << "fault kind " << kind;

  const auto& diagnostics = runner.shard_diagnostics();
  ASSERT_EQ(diagnostics.size(), 4u);
  for (const ShardDiagnostics& diag : diagnostics) {
    EXPECT_TRUE(diag.completed) << "shard " << diag.shard;
    if (diag.shard == 2) {
      EXPECT_EQ(diag.attempts, 2u);
      ASSERT_EQ(diag.failure_lines().size(), 1u);
    } else {
      EXPECT_EQ(diag.attempts, 1u);
      EXPECT_TRUE(diag.failure_lines().empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFaultKinds, WorkerFaultRecovery,
                         ::testing::Values("exit", "segv", "truncate", "stall"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

/// The same faults on a range that is not its session's first: the
/// child dies or wedges after serving earlier ranges, whose merged
/// records stand; only the faulted range is retried.
class ReusedSessionFaultRecovery : public ::testing::TestWithParam<const char*> {};

TEST_P(ReusedSessionFaultRecovery, OnlyTheFaultedRangeRetries) {
  const std::string kind = GetParam();
  const SweepSpec sweep = many_range_sweep();
  const std::string baseline = in_process_tables(sweep);
  const ScopedEnv fault("LR_TEST_WORKER_FAULT", kind + ":5");
  const ScopedEnv timeout("LR_TEST_WORKER_TIMEOUT_MS", "1500");
  ShardRunner runner({.threads = 1, .process_workers = 2, .worker_retries = 2});
  EXPECT_EQ(tables_of(runner.run(sweep)), baseline) << "fault kind " << kind;
  const auto& diagnostics = runner.shard_diagnostics();
  ASSERT_EQ(diagnostics.size(), 9u);
  for (const ShardDiagnostics& diag : diagnostics) {
    EXPECT_TRUE(diag.completed) << "range " << diag.shard;
    EXPECT_EQ(diag.attempts, diag.shard == 5 ? 2u : 1u) << "range " << diag.shard;
    EXPECT_EQ(diag.failure_lines().size(), diag.shard == 5 ? 1u : 0u) << "range " << diag.shard;
  }
}

INSTANTIATE_TEST_SUITE_P(ExitStallTruncate, ReusedSessionFaultRecovery,
                         ::testing::Values("exit", "stall", "truncate"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(WorkerFaultRecovery, RetryBudgetSaturatesAtTheIntegerLimit) {
  // 1 + SIZE_MAX once wrapped to a budget of one attempt.
  const SweepSpec sweep = small_sweep();
  const ScopedEnv fault("LR_TEST_WORKER_FAULT", "exit:0");
  ShardRunner runner({.threads = 1,
                      .process_workers = 2,
                      .worker_retries = std::numeric_limits<std::size_t>::max()});
  EXPECT_EQ(tables_of(runner.run(sweep)), in_process_tables(sweep));
  EXPECT_EQ(runner.shard_diagnostics().at(0).attempts, 2u);
}

TEST(WorkerFaultExhaustion, BoundedRetriesThenLoudFailure) {
  const SweepSpec sweep = small_sweep();
  // Fault every attempt (99 >> retry budget) on shard 1.
  const ScopedEnv fault("LR_TEST_WORKER_FAULT", "exit:1:99");

  ShardRunner runner({.threads = 1, .process_workers = 4, .worker_retries = 1});
  try {
    runner.run(sweep);
    FAIL() << "a shard faulting on every attempt must fail the sweep";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    // The message must name the dead shard and read as diagnostics, not
    // as a generic failure.
    EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
    EXPECT_NE(what.find("attempt"), std::string::npos) << what;
  }

  const auto& diagnostics = runner.shard_diagnostics();
  ASSERT_EQ(diagnostics.size(), 4u);
  for (const ShardDiagnostics& diag : diagnostics) {
    if (diag.shard == 1) {
      EXPECT_FALSE(diag.completed);
      EXPECT_EQ(diag.attempts, 2u);  // 1 + worker_retries
      EXPECT_EQ(diag.failure_lines().size(), 2u);
    }
  }
}

TEST(WorkerFaultExhaustion, StallFaultNeverHangsTheSweep) {
  const SweepSpec sweep = small_sweep();
  const ScopedEnv fault("LR_TEST_WORKER_FAULT", "stall:0:99");
  const ScopedEnv timeout("LR_TEST_WORKER_TIMEOUT_MS", "400");
  ShardRunner runner({.threads = 1, .process_workers = 2, .worker_retries = 1});
  // Two stalled attempts at ~400 ms each: the sweep must fail within the
  // watchdog budget rather than waiting on the wedged workers forever.
  EXPECT_THROW(runner.run(sweep), std::runtime_error);
  ASSERT_FALSE(runner.shard_diagnostics().empty());
  const ShardDiagnostics& diag = runner.shard_diagnostics()[0];
  EXPECT_FALSE(diag.completed);
  ASSERT_EQ(diag.failure_lines().size(), 2u);
  EXPECT_NE(diag.failure_lines()[0].find("stalled"), std::string::npos) << diag.failure_lines()[0];
}

TEST(WorkerFaultRecoveryUnderLoad, MidSweepCrashStillMergesByteIdentically) {
  // The determinism-under-crashes acceptance test: a worker dying mid
  // sweep with internally parallel workers must not perturb a single
  // byte of the merged tables.
  const SweepSpec sweep = parallel_knobs_sweep();
  const std::string baseline = in_process_tables(sweep);
  const ScopedEnv fault("LR_TEST_WORKER_FAULT", "segv:0");
  ShardRunner runner({.threads = 2, .process_workers = 2, .worker_retries = 2});
  EXPECT_EQ(tables_of(runner.run(sweep)), baseline);
}

// ---------------------------------------------------------------------------
// The test fault hooks parse strictly
// ---------------------------------------------------------------------------

TEST(FaultHooks, MalformedWorkerFaultExitsTheChildWithCode2) {
  // Each of these once armed a fault it did not say (`exit:0:x` never
  // fired; `exit:` and `exit:zero` fired on shard 0, exit code 3).  A
  // malformed hook now makes every child exit 2 naming it.
  SweepSpec sweep = small_sweep();
  sweep.seeds = {1};
  for (const char* text : {"exit:0:x", "exit:", "exit:zero"}) {
    const ScopedEnv fault("LR_TEST_WORKER_FAULT", text);
    ShardRunner runner({.threads = 1, .process_workers = 1, .worker_retries = 0});
    try {
      runner.run(sweep);
      ADD_FAILURE() << "'" << text << "' was accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("exit code 2"), std::string::npos)
          << text << ": " << error.what();
    }
  }
}

TEST(FaultHooks, MalformedWorkerTimeoutIsRejectedByTheRunner) {
  // `abc` once read as a 1 ms watchdog.
  for (const std::string text : {"abc", "0", "15ms", "-5", "99999999999999999999"}) {
    const ScopedEnv timeout("LR_TEST_WORKER_TIMEOUT_MS", text);
    try {
      const ShardRunner runner({.threads = 1, .process_workers = 1});
      ADD_FAILURE() << "'" << text << "' was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("'" + text + "'"), std::string::npos)
          << error.what();
    }
  }
}

TEST(FaultHooks, MalformedTransportFaultIsRejectedByTheRunner) {
  for (const std::string text : {"drop:0:x", "drop:", "drop:0:", "explode:1"}) {
    const ScopedEnv fault("LR_TEST_TRANSPORT_FAULT", text);
    try {
      const ShardRunner runner({.threads = 1, .process_workers = 1});
      ADD_FAILURE() << "'" << text << "' was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("'" + text + "'"), std::string::npos)
          << error.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Signal hygiene
// ---------------------------------------------------------------------------

std::atomic<int> sigpipes_delivered{0};

void record_sigpipe(int) { sigpipes_delivered.fetch_add(1); }

/// The handler SIGPIPE has in this process right now.
void (*current_sigpipe_handler())(int) {
  struct sigaction current {};
  ::sigaction(SIGPIPE, nullptr, &current);
  return current.sa_handler;
}

TEST(ShardRunnerSignals, ShardedSweepLeavesSigpipeAlone) {
  // A host program's SIGPIPE handler must stay installed while a sharded
  // sweep runs and after it, even while a worker dies mid-shard: writes
  // to a dead worker fail with EPIPE (MSG_NOSIGNAL) instead.
  struct sigaction recording {};
  recording.sa_handler = record_sigpipe;
  sigemptyset(&recording.sa_mask);
  struct sigaction saved {};
  ASSERT_EQ(::sigaction(SIGPIPE, &recording, &saved), 0);

  const SweepSpec sweep = small_sweep();
  const std::string baseline = in_process_tables(sweep);
  const ScopedEnv fault("LR_TEST_WORKER_FAULT", "exit:0");
  ShardRunner runner({.threads = 1, .process_workers = 2, .worker_retries = 2});
  std::atomic<bool> finished{false};
  std::string tables;
  std::string error;
  std::thread sweeper([&] {
    try {
      tables = tables_of(runner.run(sweep));
    } catch (const std::exception& failure) {
      error = failure.what();
    }
    finished.store(true);
  });
  std::size_t reads = 0;
  std::size_t foreign = 0;
  while (!finished.load()) {
    ++reads;
    if (current_sigpipe_handler() != record_sigpipe) ++foreign;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  sweeper.join();
  const bool handler_kept = current_sigpipe_handler() == record_sigpipe;
  ::sigaction(SIGPIPE, &saved, nullptr);

  EXPECT_GT(reads, 0u);
  EXPECT_EQ(foreign, 0u) << foreign << " of " << reads << " reads during the sweep";
  EXPECT_TRUE(handler_kept);
  EXPECT_EQ(sigpipes_delivered.load(), 0);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(tables, baseline);
  const ShardDiagnostics& hit = runner.shard_diagnostics().at(0);
  EXPECT_TRUE(hit.completed);
  EXPECT_EQ(hit.attempts, 2u);
  EXPECT_EQ(hit.failure_lines().size(), 1u);
}

}  // namespace
}  // namespace lr

/// Self-hosting worker dispatch: the local endpoint fork/execs this very
/// binary as `<test> shard-server --stdio` (worker_command defaults to
/// /proc/self/exe), so forward that argv before gtest sees it.
int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "shard-server") {
    return lr::shard_server_main(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
