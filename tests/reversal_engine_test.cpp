// Tests for the batched CSR execution engine (core/reversal_engine.hpp):
// step-for-step equivalence with the legacy automaton + scheduler path
// across all three algorithms and all four scheduling policies, greedy-
// rounds equivalence, worklist sink detection on disconnected/degenerate
// graphs, and record-level A/B equality through the scenario runner.

#include "core/reversal_engine.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <random>
#include <set>
#include <sstream>
#include <vector>

#include "analysis/game.hpp"
#include "analysis/rounds.hpp"
#include "automata/executor.hpp"
#include "automata/scheduler.hpp"
#include "core/full_reversal.hpp"
#include "core/newpr.hpp"
#include "core/pr.hpp"
#include "runner/runner.hpp"
#include "trace/report.hpp"

namespace lr {
namespace {

struct NamedPolicy {
  SchedulerKind scheduler;
  EnginePolicy policy;
};

const NamedPolicy kPolicies[] = {
    {SchedulerKind::kLowestId, EnginePolicy::kLowestId},
    {SchedulerKind::kRandom, EnginePolicy::kRandom},
    {SchedulerKind::kRoundRobin, EnginePolicy::kRoundRobin},
    {SchedulerKind::kFarthestFirst, EnginePolicy::kFarthestFirst},
};

const Strategy kStrategies[] = {Strategy::kFullReversal, Strategy::kPartialReversal,
                                Strategy::kNewPR};

EngineAlgorithm engine_algorithm(Strategy strategy) {
  switch (strategy) {
    case Strategy::kFullReversal:
      return EngineAlgorithm::kFullReversal;
    case Strategy::kPartialReversal:
      return EngineAlgorithm::kOneStepPR;
    case Strategy::kNewPR:
      return EngineAlgorithm::kNewPR;
  }
  ADD_FAILURE() << "unknown strategy";
  return EngineAlgorithm::kFullReversal;
}

std::vector<Instance> equivalence_instances() {
  std::vector<Instance> instances;
  instances.push_back(make_worst_case_chain(17));
  std::mt19937_64 rng(99);
  for (const std::uint64_t trial : {1u, 2u, 3u}) {
    (void)trial;
    instances.push_back(make_random_instance(20, 25, rng));
  }
  instances.push_back(make_grid_instance(4, 5, rng));
  instances.push_back(make_layered_bad_instance(4, 4, 0.4, rng));
  instances.push_back(make_sink_source_instance(11));
  instances.push_back(make_unit_disk_instance(18, 0.35, rng));
  return instances;
}

/// Runs the legacy automaton for `strategy` under the scheduler `kind` and
/// returns its final edge senses (the engine must reproduce them exactly).
template <typename A>
std::vector<EdgeSense> legacy_final_senses(const Instance& instance, SchedulerKind kind,
                                           std::uint64_t seed, const RunOptions& options) {
  A automaton(instance);
  switch (kind) {
    case SchedulerKind::kLowestId: {
      LowestIdScheduler s;
      run_to_quiescence(automaton, s, options);
      break;
    }
    case SchedulerKind::kRandom: {
      RandomScheduler s(seed);
      run_to_quiescence(automaton, s, options);
      break;
    }
    case SchedulerKind::kRoundRobin: {
      RoundRobinScheduler s;
      run_to_quiescence(automaton, s, options);
      break;
    }
    case SchedulerKind::kFarthestFirst: {
      FarthestFirstScheduler s;
      run_to_quiescence(automaton, s, options);
      break;
    }
  }
  return automaton.orientation().senses();
}

std::vector<EdgeSense> legacy_final_senses(const Instance& instance, Strategy strategy,
                                           SchedulerKind kind, std::uint64_t seed,
                                           const RunOptions& options) {
  switch (strategy) {
    case Strategy::kFullReversal:
      return legacy_final_senses<FullReversalAutomaton>(instance, kind, seed, options);
    case Strategy::kPartialReversal:
      return legacy_final_senses<OneStepPRAutomaton>(instance, kind, seed, options);
    case Strategy::kNewPR:
      return legacy_final_senses<NewPRAutomaton>(instance, kind, seed, options);
  }
  return {};
}

/// Runs `engine` and the legacy automaton + scheduler on `instance` with
/// the same seed and step budget, and expects identical counts, per-node
/// costs and final orientations.
void expect_engine_matches_legacy(ReversalEngine& engine, const Instance& instance,
                                  Strategy strategy, const NamedPolicy& pair,
                                  std::uint64_t seed, const RunOptions& options = {}) {
  const CostProfile profile = measure_cost(instance, strategy, pair.scheduler, seed, options);
  const EngineResult result = engine.run(engine_algorithm(strategy), pair.policy,
                                         {.max_steps = options.max_steps,
                                          .scheduler_seed = seed,
                                          .record_node_costs = true});
  const std::string context = std::string(instance.name) + " " + strategy_name(strategy) +
                              " " + scheduler_name(pair.scheduler);
  EXPECT_EQ(result.steps, profile.social_cost) << context;
  EXPECT_EQ(result.edge_reversals, profile.edge_reversals) << context;
  EXPECT_EQ(result.dummy_steps, profile.dummy_steps) << context;
  EXPECT_EQ(result.quiescent && result.destination_oriented, profile.converged) << context;
  EXPECT_EQ(result.node_cost, profile.node_cost) << context;

  const std::vector<EdgeSense> expected =
      legacy_final_senses(instance, strategy, pair.scheduler, seed, options);
  EXPECT_TRUE(std::equal(engine.senses().begin(), engine.senses().end(), expected.begin(),
                         expected.end()))
      << context << ": final orientations differ";
  EXPECT_EQ(engine.state_checksum(), senses_checksum(expected)) << context;
}

TEST(ReversalEngineTest, MatchesLegacyPathAcrossAlgorithmsAndPolicies) {
  for (const Instance& instance : equivalence_instances()) {
    ReversalEngine engine(instance);
    for (const Strategy strategy : kStrategies) {
      for (const NamedPolicy& pair : kPolicies) {
        expect_engine_matches_legacy(engine, instance, strategy, pair, 12345);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The order-statistic sink set and multi-word instances
// ---------------------------------------------------------------------------

TEST(ReversalEngineTest, SinkSetMatchesOrderedSetOracle) {
  std::mt19937_64 rng(2024);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 1000u, 4097u}) {
    SinkSet sinks;
    sinks.reset(n);
    std::set<NodeId> oracle;
    std::uniform_int_distribution<NodeId> any_id(0, static_cast<NodeId>(n - 1));
    for (std::size_t op = 0; op < 8 * n + 64; ++op) {
      const NodeId v = any_id(rng);
      // Bias towards inserts early and erases late, so the set sweeps
      // through sparse, dense and near-empty states.
      if (rng() % (8 * n + 64) >= op) {
        sinks.insert(v);
        oracle.insert(v);
      } else {
        sinks.erase(v);
        oracle.erase(v);
      }
      const std::string context = "n=" + std::to_string(n) + " op=" + std::to_string(op);
      ASSERT_EQ(sinks.size(), oracle.size()) << context;
      ASSERT_EQ(sinks.empty(), oracle.empty()) << context;
      ASSERT_EQ(sinks.rank(v + 1) - sinks.rank(v), oracle.count(v)) << context;
      const NodeId probe = any_id(rng);
      ASSERT_EQ(sinks.rank(probe),
                static_cast<std::size_t>(std::distance(oracle.begin(), oracle.lower_bound(probe))))
          << context;
      const auto at_or_after = oracle.lower_bound(probe);
      const NodeId successor = oracle.empty()                ? kNoNode
                               : at_or_after != oracle.end() ? *at_or_after
                                                             : *oracle.begin();
      ASSERT_EQ(sinks.next_cyclic(probe), successor) << context;
      if (!oracle.empty()) {
        const std::size_t k = rng() % oracle.size();
        ASSERT_EQ(sinks.select(k), *std::next(oracle.begin(), static_cast<std::ptrdiff_t>(k)))
            << context;
      }
    }
    ASSERT_EQ(sinks.rank(n), oracle.size());
    std::size_t k = 0;
    for (const NodeId v : oracle) ASSERT_EQ(sinks.select(k++), v) << "n=" << n;
    sinks.reset(n);
    EXPECT_TRUE(sinks.empty());
    EXPECT_EQ(sinks.next_cyclic(0), kNoNode);
  }
}

/// A chain over every node but `isolated`, oriented away from the
/// destination 0; `isolated` is a vacuous sink forever, so no run can
/// quiesce and every policy keeps re-choosing it until the budget ends.
Instance chain_with_isolated_node(std::size_t n, NodeId isolated) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  NodeId previous = 0;
  for (NodeId v = 1; v < n; ++v) {
    if (v == isolated) continue;
    edges.emplace_back(previous, v);
    previous = v;
  }
  Instance instance;
  instance.senses.assign(edges.size(), EdgeSense::kForward);
  instance.graph = Graph(n, std::move(edges));
  instance.destination = 0;
  instance.name = "chain_with_isolated(n=" + std::to_string(n) + ")";
  return instance;
}

TEST(ReversalEngineTest, MultiWordInstancesMatchLegacyRandomAndRoundRobin) {
  // The instances above fit in one 64-bit word of the sink set; these span
  // 5 to 9 words, so every select and successor query walks the Fenwick
  // tree across words.
  const NamedPolicy set_policies[] = {kPolicies[1], kPolicies[2]};
  ASSERT_EQ(set_policies[0].policy, EnginePolicy::kRandom);
  ASSERT_EQ(set_policies[1].policy, EnginePolicy::kRoundRobin);
  std::mt19937_64 rng(7);
  std::vector<Instance> instances;
  instances.push_back(make_worst_case_chain(300));
  instances.push_back(make_random_instance(500, 250, rng));
  instances.push_back(make_unit_disk_instance(400, 0.12, rng));
  Instance high_destination = make_random_instance(450, 200, rng);
  high_destination.destination = 300;  // word 4 of the sink set
  high_destination.name += " D=300";
  instances.push_back(std::move(high_destination));
  for (const Instance& instance : instances) {
    ReversalEngine engine(instance);
    for (const Strategy strategy : kStrategies) {
      for (const NamedPolicy& pair : set_policies) {
        expect_engine_matches_legacy(engine, instance, strategy, pair, 31);
      }
    }
  }

  // An isolated node in word 7 stays in the set after every vacuous fire;
  // under a step budget both paths must burn it identically.
  const Instance isolated = chain_with_isolated_node(520, 470);
  ReversalEngine engine(isolated);
  for (const Strategy strategy : kStrategies) {
    for (const NamedPolicy& pair : set_policies) {
      expect_engine_matches_legacy(engine, isolated, strategy, pair, 31, {.max_steps = 6000});
    }
  }
}

TEST(ReversalEngineTest, GreedyRoundsMatchLegacyRounds) {
  for (const Instance& instance : equivalence_instances()) {
    ReversalEngine engine(instance);
    for (const RoundStrategy strategy :
         {RoundStrategy::kFullReversal, RoundStrategy::kPartialReversal}) {
      const RoundHistory history = run_greedy_rounds(instance, strategy);
      const EngineRoundsResult result = engine.run_greedy_rounds(
          strategy == RoundStrategy::kFullReversal ? EngineAlgorithm::kFullReversal
                                                   : EngineAlgorithm::kOneStepPR,
          1'000'000);
      EXPECT_EQ(result.rounds, history.total_rounds()) << instance.name;
      EXPECT_EQ(result.node_steps, history.total_node_steps()) << instance.name;
      EXPECT_EQ(result.converged, history.converged) << instance.name;
    }
  }
}

TEST(ReversalEngineTest, RunToQuiescenceBridgeMatchesAutomatonRun) {
  const Instance instance = make_worst_case_chain(9);
  FullReversalAutomaton automaton(instance);
  LowestIdScheduler scheduler;
  const RunResult expected = run_to_quiescence(automaton, scheduler);

  ReversalEngine engine(instance);
  const RunResult actual = run_to_quiescence(engine, EngineAlgorithm::kFullReversal,
                                             EnginePolicy::kLowestId);
  EXPECT_EQ(actual.steps, expected.steps);
  EXPECT_EQ(actual.node_steps, expected.node_steps);
  EXPECT_EQ(actual.edge_reversals, expected.edge_reversals);
  EXPECT_EQ(actual.quiescent, expected.quiescent);
  EXPECT_EQ(actual.destination_oriented, expected.destination_oriented);
}

// ---------------------------------------------------------------------------
// Worklist sink detection on disconnected / degenerate graphs
// ---------------------------------------------------------------------------

Instance disconnected_instance(NodeId destination) {
  Instance instance;
  instance.graph = Graph(5, {{0, 1}, {3, 4}});
  instance.senses = {EdgeSense::kForward, EdgeSense::kForward};  // 0->1, 3->4
  instance.destination = destination;
  instance.name = "disconnected-5";
  return instance;
}

TEST(ReversalEngineTest, DisconnectedGraphMatchesLegacyBudgetExhaustion) {
  // Node 2 is isolated: a vacuous sink forever, so neither path can reach
  // quiescence — both must burn the identical budget and report the same
  // non-converged outcome.  This pins the engine's worklist re-push
  // semantics for degree-0 nodes to the legacy scheduler semantics.
  const Instance instance = disconnected_instance(0);
  const std::uint64_t budget = 64;
  for (const Strategy strategy : kStrategies) {
    for (const NamedPolicy& pair : kPolicies) {
      const CostProfile profile =
          measure_cost(instance, strategy, pair.scheduler, 7, {.max_steps = budget});
      ReversalEngine engine(instance);
      const EngineResult result =
          engine.run(engine_algorithm(strategy), pair.policy,
                     {.max_steps = budget, .scheduler_seed = 7, .record_node_costs = true});
      const std::string context =
          std::string(strategy_name(strategy)) + " " + scheduler_name(pair.scheduler);
      EXPECT_EQ(result.steps, profile.social_cost) << context;
      EXPECT_EQ(result.node_cost, profile.node_cost) << context;
      EXPECT_FALSE(result.quiescent) << context;
      EXPECT_FALSE(result.destination_oriented) << context;
      EXPECT_FALSE(profile.converged) << context;
    }
  }
}

TEST(ReversalEngineTest, DisconnectedGraphGreedyRoundsExhaustBudgetIdentically) {
  const Instance instance = disconnected_instance(0);
  const std::uint64_t budget = 32;
  ReversalEngine engine(instance);
  for (const RoundStrategy strategy :
       {RoundStrategy::kFullReversal, RoundStrategy::kPartialReversal}) {
    const RoundHistory history = run_greedy_rounds(instance, strategy, budget);
    const EngineRoundsResult result = engine.run_greedy_rounds(
        strategy == RoundStrategy::kFullReversal ? EngineAlgorithm::kFullReversal
                                                 : EngineAlgorithm::kOneStepPR,
        budget);
    EXPECT_EQ(result.rounds, history.total_rounds());
    EXPECT_EQ(result.node_steps, history.total_node_steps());
    EXPECT_FALSE(result.converged);
    EXPECT_FALSE(history.converged);
  }
}

TEST(ReversalEngineTest, SingleNodeGraphIsImmediatelyQuiescent) {
  Instance instance;
  instance.graph = Graph(1, {});
  instance.destination = 0;
  instance.name = "single";
  ReversalEngine engine(instance);
  const EngineResult result = engine.run(EngineAlgorithm::kOneStepPR, EnginePolicy::kLowestId);
  EXPECT_EQ(result.steps, 0u);
  EXPECT_TRUE(result.quiescent);
  EXPECT_TRUE(result.destination_oriented);
}

TEST(ReversalEngineTest, InitialSourceAndSinkInstanceCountsDummiesLikeLegacy) {
  const Instance instance = make_sink_source_instance(9);
  const CostProfile profile =
      measure_cost(instance, Strategy::kNewPR, SchedulerKind::kLowestId, 1);
  ReversalEngine engine(instance);
  const EngineResult result = engine.run(EngineAlgorithm::kNewPR, EnginePolicy::kLowestId);
  EXPECT_GT(result.dummy_steps, 0u);  // the instance exists to force dummies
  EXPECT_EQ(result.dummy_steps, profile.dummy_steps);
  EXPECT_EQ(result.steps, profile.social_cost);
}

TEST(ReversalEngineTest, ConstructorValidatesDestination) {
  const Instance instance = make_worst_case_chain(4);
  const CsrGraph csr(instance.graph, instance.senses);
  EXPECT_THROW(ReversalEngine(csr, 99), std::invalid_argument);
}

TEST(ReversalEngineTest, GreedyRoundsRejectNewPR) {
  ReversalEngine engine(make_worst_case_chain(4));
  EXPECT_THROW(engine.run_greedy_rounds(EngineAlgorithm::kNewPR, 10), std::invalid_argument);
}

TEST(ReversalEngineTest, ChecksumDistinguishesOrientations) {
  std::vector<EdgeSense> senses(8, EdgeSense::kForward);
  const std::uint64_t base = senses_checksum(senses);
  senses[3] = EdgeSense::kBackward;
  EXPECT_NE(base, senses_checksum(senses));
  EXPECT_EQ(senses_checksum(senses), senses_checksum(senses));
}

// ---------------------------------------------------------------------------
// Record-level A/B equality through the scenario runner
// ---------------------------------------------------------------------------

void expect_records_equal(const RunRecord& csr, const RunRecord& legacy,
                          const std::string& context) {
  EXPECT_EQ(csr.run_seed, legacy.run_seed) << context;
  EXPECT_EQ(csr.nodes, legacy.nodes) << context;
  EXPECT_EQ(csr.bad_nodes, legacy.bad_nodes) << context;
  EXPECT_EQ(csr.work, legacy.work) << context;
  EXPECT_EQ(csr.edge_reversals, legacy.edge_reversals) << context;
  EXPECT_EQ(csr.rounds, legacy.rounds) << context;
  EXPECT_EQ(csr.dummy_steps, legacy.dummy_steps) << context;
  EXPECT_EQ(csr.converged, legacy.converged) << context;
  EXPECT_EQ(csr.error, legacy.error) << context;
}

TEST(ReversalEngineTest, ExecuteRunIsPathInvariant) {
  for (const TopologyKind topology : {TopologyKind::kChain, TopologyKind::kRandom,
                                      TopologyKind::kLayered, TopologyKind::kStar}) {
    for (const AlgorithmKind algorithm :
         {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR, AlgorithmKind::kNewPR}) {
      for (const NamedPolicy& pair : kPolicies) {
        RunSpec spec;
        spec.topology = topology;
        spec.size = 16;
        spec.algorithm = algorithm;
        spec.scheduler = pair.scheduler;
        spec.seed = 3;
        spec.path = ExecutionPath::kCsr;
        const RunRecord csr = execute_run(spec);
        spec.path = ExecutionPath::kLegacy;
        const RunRecord legacy = execute_run(spec);
        const std::string context = std::string(topology_token(topology)) + "/" +
                                    algorithm_token(algorithm) + "/" +
                                    scheduler_token(pair.scheduler);
        expect_records_equal(csr, legacy, context);
      }
    }
  }
}

TEST(ReversalEngineTest, SweepTablesAreBytewisePathInvariant) {
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kChain, TopologyKind::kRandom};
  sweep.sizes = {8, 16};
  sweep.algorithms = {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR,
                      AlgorithmKind::kNewPR};
  sweep.schedulers = {SchedulerKind::kLowestId, SchedulerKind::kRandom};
  sweep.seeds = {1, 2};

  const auto csv_of = [](const SweepSpec& spec) {
    const SweepReport report = ScenarioRunner(RunnerOptions{.threads = 1}).run(spec);
    std::ostringstream oss;
    write_table_csv(oss, report.records_table());
    write_table_csv(oss, report.aggregate_table());
    return oss.str();
  };
  sweep.path = ExecutionPath::kCsr;
  const std::string csr_csv = csv_of(sweep);
  sweep.path = ExecutionPath::kLegacy;
  const std::string legacy_csv = csv_of(sweep);
  EXPECT_EQ(csr_csv, legacy_csv);
}

// ---------------------------------------------------------------------------
// Parallel greedy rounds: byte-identical to the serial kernel everywhere
// ---------------------------------------------------------------------------

TEST(ReversalEngineTest, ParallelGreedyRoundsMatchSerialAtEveryPoolSize) {
  for (const Instance& instance : equivalence_instances()) {
    ReversalEngine engine(instance);
    for (const EngineAlgorithm algorithm :
         {EngineAlgorithm::kFullReversal, EngineAlgorithm::kOneStepPR}) {
      const EngineRoundsResult serial = engine.run_greedy_rounds(algorithm, 1'000'000);
      const std::uint64_t serial_checksum = engine.state_checksum();
      for (const std::size_t workers : {2u, 4u, 8u}) {
        ThreadPool pool(workers);
        // min_parallel_work = 1 forces the sharded kernel onto every
        // round, however narrow — the worst case for determinism.
        const EngineRoundsResult parallel = engine.run_greedy_rounds(
            algorithm, {.max_rounds = 1'000'000, .pool = &pool, .min_parallel_work = 1});
        const std::string context = std::string(instance.name) + " workers=" +
                                    std::to_string(workers) +
                                    (algorithm == EngineAlgorithm::kFullReversal ? " fr" : " pr");
        EXPECT_EQ(parallel.rounds, serial.rounds) << context;
        EXPECT_EQ(parallel.node_steps, serial.node_steps) << context;
        EXPECT_EQ(parallel.edge_reversals, serial.edge_reversals) << context;
        EXPECT_EQ(parallel.converged, serial.converged) << context;
        EXPECT_EQ(engine.state_checksum(), serial_checksum) << context;
      }
    }
  }
}

TEST(ReversalEngineTest, ParallelGreedyRoundsExhaustBudgetIdentically) {
  const Instance instance = disconnected_instance(0);
  ReversalEngine engine(instance);
  const EngineRoundsResult serial =
      engine.run_greedy_rounds(EngineAlgorithm::kFullReversal, 32);
  ThreadPool pool(4);
  const EngineRoundsResult parallel = engine.run_greedy_rounds(
      EngineAlgorithm::kFullReversal, {.max_rounds = 32, .pool = &pool, .min_parallel_work = 1});
  EXPECT_EQ(parallel.rounds, serial.rounds);
  EXPECT_EQ(parallel.node_steps, serial.node_steps);
  EXPECT_FALSE(parallel.converged);
  EXPECT_FALSE(serial.converged);
}

TEST(ReversalEngineTest, ParallelGreedyRoundsRejectNewPR) {
  ReversalEngine engine(make_worst_case_chain(4));
  ThreadPool pool(2);
  EXPECT_THROW(engine.run_greedy_rounds(EngineAlgorithm::kNewPR,
                                        {.max_rounds = 10, .pool = &pool}),
               std::invalid_argument);
}

TEST(ReversalEngineTest, ExecuteRunIsEngineThreadInvariant) {
  // The satellite determinism contract: records byte-identical across
  // 1/2/4/8 engine threads for every algorithm x scheduler pair (the
  // engine_threads knob only touches the fr/pr rounds kernel, but the
  // sweep-format contract is that *no* record ever depends on it).
  for (const AlgorithmKind algorithm :
       {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR, AlgorithmKind::kNewPR}) {
    for (const NamedPolicy& pair : kPolicies) {
      RunSpec spec;
      spec.topology = TopologyKind::kRandom;
      spec.size = 24;
      spec.algorithm = algorithm;
      spec.scheduler = pair.scheduler;
      spec.seed = 11;
      spec.engine_threads = 1;
      const RunRecord baseline = execute_run(spec);
      for (const std::size_t threads : {2u, 4u, 8u}) {
        spec.engine_threads = threads;
        const RunRecord record = execute_run(spec);
        const std::string context = std::string(algorithm_token(algorithm)) + "/" +
                                    scheduler_token(pair.scheduler) + " engine_threads=" +
                                    std::to_string(threads);
        expect_records_equal(record, baseline, context);
      }
    }
  }
}

TEST(ReversalEngineTest, ExecuteRunShardsWideTopologiesIdentically) {
  // The cases above stay below the runner's num_nodes >= 1024 pool gate,
  // so they pin record invariance but compare serial against serial.
  // star-2049 (spec size 2048 -> n = 2049, round width 1024) both spawns
  // the per-run pool and clears the sharding threshold, so this is the
  // one ctest case where execute_run's engine_threads plumbing drives the
  // sharded kernel end to end.
  for (const AlgorithmKind algorithm :
       {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR}) {
    RunSpec spec;
    spec.topology = TopologyKind::kStar;
    spec.size = 2048;
    spec.algorithm = algorithm;
    spec.seed = 1;
    spec.engine_threads = 1;
    const RunRecord baseline = execute_run(spec);
    ASSERT_GE(baseline.nodes, 1024u);
    ASSERT_GT(baseline.rounds, 0u);
    for (const std::size_t threads : {2u, 4u}) {
      spec.engine_threads = threads;
      const RunRecord record = execute_run(spec);
      expect_records_equal(record, baseline,
                           std::string(algorithm_token(algorithm)) + " wide engine_threads=" +
                               std::to_string(threads));
    }
  }
}

TEST(ReversalEngineTest, SweepTablesAreEngineThreadInvariant) {
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kChain, TopologyKind::kLayered};
  sweep.sizes = {16, 32};
  sweep.algorithms = {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR};
  sweep.schedulers = {SchedulerKind::kLowestId, SchedulerKind::kRandom};
  sweep.seeds = {1, 2};

  const auto csv_of = [&sweep](std::size_t engine_threads) {
    SweepSpec configured = sweep;
    configured.engine_threads = engine_threads;
    const SweepReport report = ScenarioRunner(RunnerOptions{.threads = 2}).run(configured);
    std::ostringstream oss;
    write_table_csv(oss, report.records_table());
    write_table_csv(oss, report.aggregate_table());
    return oss.str();
  };
  const std::string serial_csv = csv_of(1);
  EXPECT_EQ(serial_csv, csv_of(2));
  EXPECT_EQ(serial_csv, csv_of(4));
}

TEST(ReversalEngineTest, SweepSpecParsesEngineThreadsOption) {
  const SweepSpec spec = SweepSpec::parse_string(
      "topology = chain\nsize = 8\nalgorithm = pr\nengine_threads = 4\n");
  EXPECT_EQ(spec.engine_threads, 4u);
  ASSERT_EQ(spec.expand().size(), 1u);
  EXPECT_EQ(spec.expand()[0].engine_threads, 4u);
  EXPECT_EQ(SweepSpec::parse_string("topology = chain\nsize = 8\nalgorithm = pr\n")
                .engine_threads,
            1u);
  EXPECT_THROW(SweepSpec::parse_string(
                   "topology = chain\nsize = 8\nalgorithm = pr\nengine_threads = 2, 4\n"),
               std::invalid_argument);
}

TEST(ReversalEngineTest, SweepSpecParsesPathOption) {
  const SweepSpec spec = SweepSpec::parse_string(
      "topology = chain\nsize = 8\nalgorithm = pr\npath = legacy\n");
  EXPECT_EQ(spec.path, ExecutionPath::kLegacy);
  ASSERT_EQ(spec.expand().size(), 1u);
  EXPECT_EQ(spec.expand()[0].path, ExecutionPath::kLegacy);
  EXPECT_EQ(SweepSpec::parse_string("topology = chain\nsize = 8\nalgorithm = pr\n").path,
            ExecutionPath::kCsr);
  EXPECT_THROW(
      SweepSpec::parse_string("topology = chain\nsize = 8\nalgorithm = pr\npath = turbo\n"),
      std::invalid_argument);
}

}  // namespace
}  // namespace lr
