/// Experiment E5 — the Section 5 simulation relations, measured: every PR
/// step maps to |S| OneStepPR steps (Lemma 5.1) and every OneStepPR step to
/// 1..2 NewPR steps (Lemma 5.3); the relations hold at every matched point;
/// the reverse direction (the conclusion's proposed extension) holds with
/// dummy steps mapping to empty sequences.
///
/// The measurement loop runs the sim-rprime / sim-r / sim-rrev kernels of
/// the scenario runner (src/runner), i.e. the same relation-check code
/// `lr_cli sweep` executes, fanned out over the thread pool.
///
/// E5.3 is the event-core scheduler A/B: a self-replenishing event storm
/// replayed on the binary-heap and timing-wheel time-index backends
/// (sim/time_index.hpp), with an execution-order FNV fingerprint that both
/// must reproduce exactly before the events/sec figures are trusted.

#include <benchmark/benchmark.h>

#include <functional>
#include <string>
#include <vector>

#include "automata/scheduler.hpp"
#include "automata/simulation.hpp"
#include "core/relations.hpp"
#include "graph/generators.hpp"
#include "runner/runner.hpp"
#include "sim/event_queue.hpp"
#include "sim/time_index.hpp"

#include "bench_util.hpp"

namespace lr {
namespace {

const char* relation_label(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kSimRPrime:
      return "R'(PR->1Step)";
    case AlgorithmKind::kSimR:
      return "R(1Step->New)";
    case AlgorithmKind::kSimRRev:
      return "Rrev(New->1Step)";
    default:
      return "?";
  }
}

/// E5.1 driver; returns false if any relation check failed (the smoke
/// mode's correctness gate).
bool print_expansion_table(bool smoke) {
  bench::print_header("E5.1: simulation-relation checks & step expansion factors",
                      "R'/R hold everywhere; expansion in [1,2] for R, = |S| for R'");
  bench::print_row({"n", "relation", "concrete", "abstract", "expansion", "ok"});
  SweepSpec sweep;
  sweep.topologies = {TopologyKind::kRandom};
  sweep.sizes = smoke ? std::vector<std::size_t>{16} : std::vector<std::size_t>{16, 64, 256};
  sweep.algorithms = {AlgorithmKind::kSimRPrime, AlgorithmKind::kSimR, AlgorithmKind::kSimRRev};
  sweep.schedulers = {SchedulerKind::kRandom};
  sweep.seeds = {1};
  const SweepReport report = ScenarioRunner().run(sweep);
  bool all_hold = true;
  for (const RunRecord& record : report.records) {
    const double expansion = record.work == 0 ? 0.0
                                              : static_cast<double>(record.abstract_steps) /
                                                    static_cast<double>(record.work);
    const bool holds = record.relation == RelationVerdict::kHolds;
    all_hold &= holds;
    bench::print_row({bench::fmt_u(record.spec.size), relation_label(record.spec.algorithm),
                      bench::fmt_u(record.work), bench::fmt_u(record.abstract_steps),
                      bench::fmt(expansion), holds ? "yes" : "NO"});
  }
  return all_hold;
}

// ---------------------------------------------------------------------------
// E5.3: the event-core scheduler A/B (binary heap vs hierarchical wheel)
// ---------------------------------------------------------------------------

/// One self-replenishing event storm on a fresh EventQueue: each fired
/// event draws from the RNG *in execution order* and reschedules followers
/// with a bimodal (mostly-near, occasionally-far) delay profile.  Heap and
/// wheel therefore produce the same order fingerprint only if they agree
/// on the exact execution order — any divergence forks the RNG stream and
/// snowballs into a different checksum.
struct StormResult {
  std::uint64_t checksum = 0;
  std::uint64_t executed = 0;
};

StormResult run_event_storm(EventSchedulerKind backend, std::uint64_t events,
                            std::uint64_t seed) {
  EventQueue queue(backend);
  std::mt19937_64 rng(seed);
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  };
  std::uint64_t remaining = events;
  std::function<void()> fire;
  fire = [&] {
    mix(queue.now());
    const std::uint64_t fan = 1 + rng() % 2;
    for (std::uint64_t i = 0; i < fan && remaining > 0; ++i) {
      --remaining;
      const SimTime delay = rng() % 16 == 0 ? 1 + static_cast<SimTime>(rng() % 4096)
                                            : 1 + static_cast<SimTime>(rng() % 12);
      queue.schedule_in(delay, fire);
    }
  };
  for (int i = 0; i < 32 && remaining > 0; ++i) {
    --remaining;
    queue.schedule_at(rng() % 8, fire);
  }
  StormResult result;
  result.executed = queue.run_until_idle();
  result.checksum = hash;
  return result;
}

/// E5.3 driver; returns false if the two backends disagree on the order
/// fingerprint (a correctness failure of the wheel, not a perf matter).
bool print_event_core_series(bool smoke) {
  bench::print_header("E5.3: event-core scheduler A/B, binary heap vs timing wheel",
                      "identical execution-order fingerprints; events/sec per backend "
                      "(docs/PERFORMANCE.md)");
  const std::uint64_t events = smoke ? 20'000 : 400'000;
  Table table;
  table.columns = {"backend", "events", "ns_per_event", "events_per_sec", "order_checksum",
                   "identical"};
  StormResult reference;
  bool identical = true;
  for (const EventSchedulerKind backend :
       {EventSchedulerKind::kHeap, EventSchedulerKind::kWheel}) {
    StormResult result;
    const double ns_per_storm = bench::measure_ns_per_iter(
        [&] { result = run_event_storm(backend, events, 41); }, smoke ? 1 : 5,
        smoke ? 0.0 : 200.0);
    if (backend == EventSchedulerKind::kHeap) reference = result;
    identical &= result.checksum == reference.checksum && result.executed == reference.executed;
    const double ns_per_event = ns_per_storm / static_cast<double>(result.executed);
    table.add_row({event_scheduler_token(backend), bench::fmt_u(result.executed),
                   bench::fmt(ns_per_event), bench::fmt(1e9 / ns_per_event),
                   bench::fmt_hex(result.checksum),
                   result.checksum == reference.checksum ? "yes" : "NO"});
  }
  bench::emit_csv(table);
  std::printf("order checksums: %s\n", identical ? "identical" : "MISMATCH");
  return identical;
}

void BM_SimulationCheckRPrime(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(9);
  const Instance inst = make_random_instance(n, n, rng);
  for (auto _ : state) {
    PRAutomaton concrete(inst);
    OneStepPRAutomaton abstract(inst);
    RandomSetScheduler scheduler(1);
    const auto r = check_forward_simulation(
        concrete, abstract, scheduler,
        [](const PRAutomaton& s, const OneStepPRAutomaton& t) { return relation_R_prime(s, t); },
        correspondence_R_prime);
    benchmark::DoNotOptimize(r.ok);
  }
}
BENCHMARK(BM_SimulationCheckRPrime)->Arg(32)->Arg(128);

void BM_RelationRPredicate(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(10);
  const Instance inst = make_random_instance(n, n, rng);
  OneStepPRAutomaton s(inst);
  NewPRAutomaton t(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(relation_R(s, t));
  }
}
BENCHMARK(BM_RelationRPredicate)->Arg(64)->Arg(512);

}  // namespace
}  // namespace lr

int main(int argc, char** argv) {
  const bool smoke = lr::bench::consume_smoke_flag(argc, argv);
  const bool relations_ok = lr::print_expansion_table(smoke);
  if (smoke && !relations_ok) {
    std::fprintf(stderr, "E5.1 relation check FAILED\n");
    return 1;
  }
  if (!lr::print_event_core_series(smoke)) {
    std::fprintf(stderr, "E5.3 event-core A/B verification FAILED\n");
    return 1;
  }
  if (smoke) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
