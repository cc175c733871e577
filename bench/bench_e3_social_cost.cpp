/// Experiment E3 — the Charron-Bost et al. strategy comparison the paper
/// cites: FR vs PR vs NewPR social cost across instance families and
/// schedulers.
///
/// Expected shape: PR's total cost is below FR's in aggregate and on
/// structured families (chains, layered); on individual random DAGs PR can
/// occasionally lose (reproduced and counted here); NewPR's cost is PR's
/// plus its dummy steps.
///
/// All measurement loops run through the scenario runner (src/runner) —
/// the same code path as `lr_cli sweep` — so the 600-run distribution
/// sweep of E3.2 executes on the thread pool.  E3.4 (the Nash-equilibrium
/// check) is a game-theoretic analysis, not a run measurement, and stays
/// on the analysis layer directly.
///
/// E3.5 is the oracle gate (docs/PERFORMANCE.md): every social cost
/// kernel (fr / pr / newpr) of the stock scenario set is replayed through
/// the paper-shaped automata, and the batched engine's records must match
/// them field for field; the harness exits non-zero otherwise.  `--smoke`
/// shrinks every series to seconds, skips the micro-timings, and is wired
/// into the CI bench-smoke job.

#include <benchmark/benchmark.h>

#include <map>

#include "analysis/game.hpp"
#include "graph/generators.hpp"
#include "runner/runner.hpp"

#include "bench_util.hpp"

namespace lr {
namespace {

void print_family_table() {
  bench::print_header("E3.1: social cost by family (lowest-id scheduler)",
                      "PR <= FR on structured families; NewPR = PR + dummies");
  bench::print_row({"family", "nodes", "FR", "PR", "NewPR", "dummies", "FR/PR"}, 14);
  const std::vector<std::pair<TopologyKind, std::size_t>> families = {
      {TopologyKind::kChain, 65},  {TopologyKind::kLayered, 48}, {TopologyKind::kGrid, 64},
      {TopologyKind::kStar, 65},   {TopologyKind::kRandom, 64},  {TopologyKind::kRandom, 256},
  };
  std::vector<RunSpec> specs;
  for (const auto& [topology, size] : families) {
    for (const AlgorithmKind algorithm : {AlgorithmKind::kFullReversal,
                                          AlgorithmKind::kOneStepPR, AlgorithmKind::kNewPR}) {
      RunSpec spec;
      spec.topology = topology;
      spec.size = size;
      spec.algorithm = algorithm;
      specs.push_back(spec);
    }
  }
  const std::vector<RunRecord> records = ScenarioRunner().run_all(specs);
  for (std::size_t i = 0; i < families.size(); ++i) {
    const RunRecord& fr = records[3 * i];
    const RunRecord& pr = records[3 * i + 1];
    const RunRecord& np = records[3 * i + 2];
    const double ratio = pr.work == 0
                             ? 0.0
                             : static_cast<double>(fr.work) / static_cast<double>(pr.work);
    bench::print_row({topology_token(fr.spec.topology), bench::fmt_u(fr.nodes),
                      bench::fmt_u(fr.work), bench::fmt_u(pr.work), bench::fmt_u(np.work),
                      bench::fmt_u(np.dummy_steps), bench::fmt(ratio)},
                     14);
  }
}

void print_distribution_table(bool smoke) {
  bench::print_header("E3.2: FR vs PR across 100 random instances per size",
                      "PR wins in aggregate; occasional per-instance losses counted");
  bench::print_row({"n", "PR_wins", "FR_wins", "ties", "sum_FR", "sum_PR"});
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kRandom};
  sweep.sizes = smoke ? std::vector<std::size_t>{16} : std::vector<std::size_t>{16, 64, 128};
  sweep.algorithms = {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR};
  sweep.schedulers = {SchedulerKind::kLowestId};
  const std::uint64_t seed_count = smoke ? 10 : 100;
  for (std::uint64_t seed = 1; seed <= seed_count; ++seed) sweep.seeds.push_back(seed);
  const SweepReport report = ScenarioRunner().run(sweep);
  // Pair FR/PR by (size, seed): instance seeds ignore the algorithm axis,
  // so both records of a pair measured the *same* instance.
  std::map<std::pair<std::size_t, std::uint64_t>, std::pair<std::uint64_t, std::uint64_t>> cost;
  for (const RunRecord& record : report.records) {
    auto& pair = cost[{record.spec.size, record.spec.seed}];
    (record.spec.algorithm == AlgorithmKind::kFullReversal ? pair.first : pair.second) =
        record.work;
  }
  for (const std::size_t n : sweep.sizes) {
    int pr_wins = 0, fr_wins = 0, ties = 0;
    std::uint64_t fr_sum = 0, pr_sum = 0;
    for (const auto& [key, pair] : cost) {
      if (key.first != n) continue;
      fr_sum += pair.first;
      pr_sum += pair.second;
      if (pair.second < pair.first) ++pr_wins;
      else if (pair.first < pair.second) ++fr_wins;
      else ++ties;
    }
    bench::print_row({std::to_string(n), std::to_string(pr_wins), std::to_string(fr_wins),
                      std::to_string(ties), bench::fmt_u(fr_sum), bench::fmt_u(pr_sum)});
  }
}

void print_scheduler_table() {
  bench::print_header("E3.3: scheduler sensitivity of the strategies",
                      "FR's cost is schedule-independent; PR's varies little");
  bench::print_row({"scheduler", "FR", "PR", "NewPR"});
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kRandom};
  sweep.sizes = {96};
  sweep.algorithms = {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR,
                      AlgorithmKind::kNewPR};
  sweep.schedulers = {SchedulerKind::kLowestId, SchedulerKind::kRandom,
                      SchedulerKind::kRoundRobin, SchedulerKind::kFarthestFirst};
  sweep.seeds = {9};
  const SweepReport report = ScenarioRunner().run(sweep);
  for (const SchedulerKind kind : sweep.schedulers) {
    std::uint64_t fr = 0, pr = 0, np = 0;
    for (const RunRecord& record : report.records) {
      if (record.spec.scheduler != kind) continue;
      if (record.spec.algorithm == AlgorithmKind::kFullReversal) fr = record.work;
      if (record.spec.algorithm == AlgorithmKind::kOneStepPR) pr = record.work;
      if (record.spec.algorithm == AlgorithmKind::kNewPR) np = record.work;
    }
    bench::print_row(
        {scheduler_name(kind), bench::fmt_u(fr), bench::fmt_u(pr), bench::fmt_u(np)});
  }
}

void print_nash_table() {
  bench::print_header("E3.4: the strategy game (Charron-Bost et al.)",
                      "all-FR is always a Nash equilibrium; all-PR only sometimes, "
                      "but with lower social cost");
  bench::print_row({"instance", "FR_nash", "PR_nash", "social_FR", "social_PR"}, 22);
  std::mt19937_64 rng(41);
  std::vector<Instance> instances;
  instances.push_back(make_worst_case_chain(9));
  instances.push_back(make_grid_instance(3, 3, rng));
  for (int trial = 0; trial < 4; ++trial) {
    instances.push_back(make_random_instance(10, 8, rng));
  }
  for (const Instance& inst : instances) {
    const std::size_t n = inst.graph.num_nodes();
    const auto fr_nash = check_nash_equilibrium(inst, HybridStrategyAutomaton::all_full(n));
    const auto pr_nash = check_nash_equilibrium(inst, HybridStrategyAutomaton::all_partial(n));
    const auto total = [](const std::vector<std::uint64_t>& v) {
      std::uint64_t sum = 0;
      for (const auto x : v) sum += x;
      return sum;
    };
    bench::print_row({inst.name, fr_nash.is_equilibrium ? "yes" : "NO",
                      pr_nash.is_equilibrium ? "yes" : "no",
                      bench::fmt_u(total(measure_profile_costs(
                          inst, HybridStrategyAutomaton::all_full(n)))),
                      bench::fmt_u(total(measure_profile_costs(
                          inst, HybridStrategyAutomaton::all_partial(n))))},
                     22);
  }
}

// ---------------------------------------------------------------------------
// E3.5: the social cost kernels checked against the paper automata
// ---------------------------------------------------------------------------

/// The stock oracle scenario set: every strategy kernel over the structured
/// families and a random-graph slice, across two schedulers.
std::vector<RunSpec> stock_specs(bool smoke) {
  const std::vector<std::pair<TopologyKind, std::size_t>> families =
      smoke ? std::vector<std::pair<TopologyKind, std::size_t>>{{TopologyKind::kChain, 17},
                                                                {TopologyKind::kRandom, 16}}
            : std::vector<std::pair<TopologyKind, std::size_t>>{{TopologyKind::kChain, 65},
                                                                {TopologyKind::kLayered, 48},
                                                                {TopologyKind::kGrid, 64},
                                                                {TopologyKind::kStar, 65},
                                                                {TopologyKind::kRandom, 64}};
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{1} : std::vector<std::uint64_t>{1, 2};
  std::vector<RunSpec> specs;
  for (const auto& [topology, size] : families) {
    for (const AlgorithmKind algorithm : {AlgorithmKind::kFullReversal,
                                          AlgorithmKind::kOneStepPR, AlgorithmKind::kNewPR}) {
      for (const SchedulerKind scheduler :
           {SchedulerKind::kLowestId, SchedulerKind::kRandom}) {
        for (const std::uint64_t seed : seeds) {
          RunSpec spec;
          spec.topology = topology;
          spec.size = size;
          spec.algorithm = algorithm;
          spec.scheduler = scheduler;
          spec.seed = seed;
          specs.push_back(spec);
        }
      }
    }
  }
  return specs;
}

/// E3.5 driver; returns false (failing the harness) if any engine record
/// differs from the automata oracle (bench_util.hpp).
bool print_oracle_series(bool smoke) {
  bench::print_header("E3.5: batched engine vs paper automata (oracle gate)",
                      "identical work, reversals, dummies and rounds for the social cost "
                      "kernels");
  return bench::records_match_automata(stock_specs(smoke));
}

void BM_MeasureCostPR(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(3);
  const Instance inst = make_random_instance(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        measure_cost(inst, Strategy::kPartialReversal, SchedulerKind::kLowestId, 1).social_cost);
  }
}
BENCHMARK(BM_MeasureCostPR)->Arg(64)->Arg(256)->Arg(1024);

void BM_MeasureCostFR(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(3);
  const Instance inst = make_random_instance(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        measure_cost(inst, Strategy::kFullReversal, SchedulerKind::kLowestId, 1).social_cost);
  }
}
BENCHMARK(BM_MeasureCostFR)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace lr

int main(int argc, char** argv) {
  const bool smoke = lr::bench::consume_smoke_flag(argc, argv);
  lr::print_family_table();
  lr::print_distribution_table(smoke);
  if (!smoke) {
    lr::print_scheduler_table();
    lr::print_nash_table();
  }
  if (!lr::print_oracle_series(smoke)) {
    std::fprintf(stderr, "E3.5 oracle verification FAILED\n");
    return 1;
  }
  if (smoke) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
