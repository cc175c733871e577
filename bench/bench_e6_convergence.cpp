/// Experiment E6 — convergence to a destination-oriented DAG: steps, edge
/// reversals, and greedy rounds by scheduler and family.  The safety
/// theorems hold under every scheduler; this experiment quantifies the
/// *liveness* side (how fast quiescence arrives) and verifies the
/// quiescence consistency claim (quiescent iff destination-oriented).
///
/// E6.3 is the oracle gate (docs/PERFORMANCE.md): the convergence
/// kernels (fr / pr across all four schedulers) replayed through the
/// paper-shaped automata, with field-for-field equal engine records
/// demanded — the same check as E2.5 / E3.5.  `--smoke` shrinks the
/// series, skips the micro-timings, and exits non-zero on any divergence;
/// CI runs it.

#include <benchmark/benchmark.h>

#include "automata/executor.hpp"
#include "automata/scheduler.hpp"
#include "core/invariants.hpp"
#include "core/pr.hpp"
#include "graph/generators.hpp"
#include "runner/runner.hpp"

#include "bench_util.hpp"

namespace lr {
namespace {

Instance family_instance(const std::string& family, std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  if (family == "chain") return make_worst_case_chain(n);
  if (family == "random") return make_random_instance(n, n, rng);
  if (family == "grid") return make_grid_instance(n / 8 + 2, 8, rng);
  return make_layered_bad_instance(n / 8 + 2, 8, 0.3, rng);
}

template <typename Scheduler>
RunResult run_with(const Instance& inst, Scheduler scheduler) {
  OneStepPRAutomaton pr(inst);
  const RunResult r = run_to_quiescence(pr, scheduler);
  // Quiescence consistency (the goal-state sanity claim).
  const auto qc = check_quiescence_consistency(pr.orientation(), pr.destination());
  if (!qc.ok) std::printf("!! %s\n", qc.detail.c_str());
  return r;
}

void print_convergence_table(bool smoke) {
  bench::print_header("E6: PR steps to quiescence by scheduler and family",
                      "quiescent iff destination-oriented; steps vary mildly by scheduler");
  bench::print_row({"family", "n", "lowest-id", "random", "round-robin", "farthest", "lrf",
                    "max-degree"});
  const std::vector<unsigned> sizes = smoke ? std::vector<unsigned>{32u}
                                            : std::vector<unsigned>{32u, 128u};
  for (const std::string family : {"chain", "random", "grid", "layered"}) {
    for (const std::size_t n : sizes) {
      const Instance inst = family_instance(family, n, n * 3 + 1);
      const auto lowest = run_with(inst, LowestIdScheduler{});
      const auto random = run_with(inst, RandomScheduler{7});
      const auto rr = run_with(inst, RoundRobinScheduler{});
      const auto far = run_with(inst, FarthestFirstScheduler{});
      const auto lrf = run_with(inst, LeastRecentlyFiredScheduler{});
      const auto deg = run_with(inst, MaxDegreeScheduler{});
      bench::print_row({family, std::to_string(n), bench::fmt_u(lowest.steps),
                        bench::fmt_u(random.steps), bench::fmt_u(rr.steps),
                        bench::fmt_u(far.steps), bench::fmt_u(lrf.steps),
                        bench::fmt_u(deg.steps)});
    }
  }
}

void print_rounds_table() {
  bench::print_header("E6.2: greedy rounds (maximal set steps) to quiescence",
                      "rounds << one-step actions on graphs with many parallel sinks");
  bench::print_row({"instance", "rounds", "node_steps", "parallelism"});
  std::mt19937_64 rng(3);
  std::vector<Instance> instances;
  instances.push_back(make_sink_source_instance(129));
  instances.push_back(make_layered_bad_instance(8, 16, 0.3, rng));
  instances.push_back(make_random_instance(128, 128, rng));
  for (const Instance& inst : instances) {
    PRAutomaton pr(inst);
    MaximalSetScheduler scheduler;
    const RunResult r = run_to_quiescence_set(pr, scheduler);
    bench::print_row({inst.name, bench::fmt_u(r.steps), bench::fmt_u(r.node_steps),
                      bench::fmt(r.steps == 0 ? 0.0
                                              : static_cast<double>(r.node_steps) /
                                                    static_cast<double>(r.steps))},
                     24);
  }
}

// ---------------------------------------------------------------------------
// E6.3: the convergence kernels checked against the paper automata
// ---------------------------------------------------------------------------

/// The stock oracle scenario set: fr and pr to quiescence under all four
/// schedulers over the convergence families (the E6.1 grid, swept).
std::vector<RunSpec> stock_specs(bool smoke) {
  const std::vector<std::pair<TopologyKind, std::size_t>> families =
      smoke ? std::vector<std::pair<TopologyKind, std::size_t>>{{TopologyKind::kChain, 17},
                                                                {TopologyKind::kGrid, 16}}
            : std::vector<std::pair<TopologyKind, std::size_t>>{{TopologyKind::kChain, 33},
                                                                {TopologyKind::kRandom, 32},
                                                                {TopologyKind::kGrid, 32},
                                                                {TopologyKind::kLayered, 32},
                                                                {TopologyKind::kRandom, 128}};
  std::vector<RunSpec> specs;
  for (const auto& [topology, size] : families) {
    for (const AlgorithmKind algorithm :
         {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR}) {
      for (const SchedulerKind scheduler :
           {SchedulerKind::kLowestId, SchedulerKind::kRandom, SchedulerKind::kRoundRobin,
            SchedulerKind::kFarthestFirst}) {
        RunSpec spec;
        spec.topology = topology;
        spec.size = size;
        spec.algorithm = algorithm;
        spec.scheduler = scheduler;
        spec.seed = 5;
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

/// E6.3 driver; returns false (failing the harness) if any engine record
/// differs from the automata oracle (bench_util.hpp).
bool print_oracle_series(bool smoke) {
  bench::print_header("E6.3: batched engine vs paper automata (oracle gate)",
                      "identical work, reversals and rounds for the convergence kernels "
                      "across every scheduler");
  return bench::records_match_automata(stock_specs(smoke));
}

void BM_PRConvergenceRandomGraph(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(17);
  const Instance inst = make_random_instance(n, n, rng);
  for (auto _ : state) {
    OneStepPRAutomaton pr(inst);
    LowestIdScheduler scheduler;
    benchmark::DoNotOptimize(run_to_quiescence(pr, scheduler).steps);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PRConvergenceRandomGraph)->RangeMultiplier(4)->Range(64, 4096)->Complexity();

void BM_GreedyRounds(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(18);
  const Instance inst = make_random_instance(n, n, rng);
  for (auto _ : state) {
    PRAutomaton pr(inst);
    MaximalSetScheduler scheduler;
    benchmark::DoNotOptimize(run_to_quiescence_set(pr, scheduler).steps);
  }
}
BENCHMARK(BM_GreedyRounds)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace lr

int main(int argc, char** argv) {
  const bool smoke = lr::bench::consume_smoke_flag(argc, argv);
  lr::print_convergence_table(smoke);
  lr::print_rounds_table();
  if (!lr::print_oracle_series(smoke)) {
    std::fprintf(stderr, "E6.3 oracle verification FAILED\n");
    return 1;
  }
  if (smoke) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
