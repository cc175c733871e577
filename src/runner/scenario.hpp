#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/game.hpp"
#include "graph/generators.hpp"
#include "service/workload.hpp"
#include "sim/time_index.hpp"

/// \file scenario.hpp
/// Declarative scenario-sweep specifications: the input language of the
/// scenario runner (runner.hpp, docs/EXPERIMENTS.md §"Sweep specs").
///
/// A sweep is the cartesian product of five axes — topology family ×
/// instance size × algorithm kernel × scheduler × seed — expanded in a
/// fixed documented order so that run #k means the same scenario on every
/// machine and at every thread count.  Each expanded RunSpec derives its
/// RNG streams (instance construction, scheduler choices, network delays)
/// from the axis values alone via SplitMix64, never from expansion order
/// or wall clock, which is what makes swept executions reproducible and
/// thread-count-invariant (the acceptance property runner_test.cpp locks
/// in).
///
/// The algorithm axis names *measurement kernels* over the paper's
/// artifacts rather than automata alone: the Section 3 automata (FR /
/// OneStepPR / NewPR), the Charron-Bost-style hybrid strategy game, the
/// TORA routing service, the distributed message-passing protocols, and
/// the Section 5 simulation-relation checkers (Lemmas 5.1 / 5.3 and the
/// conclusion's reverse direction).

namespace lr {

/// Topology families the sweep axis can name.  Construction recipes (how
/// `size` maps to generator arguments) live in make_instance() and are
/// documented in docs/EXPERIMENTS.md.
enum class TopologyKind : std::uint8_t {
  kChain,       ///< away-oriented worst-case chain (E2's gadget)
  kRandom,      ///< connected random graph, random acyclic orientation
  kGrid,        ///< size/8+2 rows x 8 columns, random orientation
  kLayered,     ///< layered all-bad instance (E2's second gadget)
  kStar,        ///< alternating star with initial sinks and sources (E4)
  kUnitDisk,    ///< unit-disk MANET instance (the deployment model)
  kTorus,       ///< ~sqrt(size)-sided torus, degree 4 (million-node E10)
  kWideRandom,  ///< wide random connected graph, avg degree 8 (E10)
  kWaypoint,    ///< unit-disk + random-waypoint churn schedule (E10)
};

/// Measurement kernels the sweep axis can name.
enum class AlgorithmKind : std::uint8_t {
  kFullReversal,  ///< FR run to quiescence (Gafni–Bertsekas baseline)
  kOneStepPR,     ///< OneStepPR (paper Algorithm 3) run to quiescence
  kNewPR,         ///< NewPR (paper Algorithm 2) run to quiescence
  kHybrid,        ///< per-node random FR/PR strategy profile (game, E3.4)
  kTora,          ///< TORA-style routing service under link churn
  kDistFR,        ///< distributed FR over the simulated network (E7)
  kDistPR,        ///< distributed PR over the simulated network (E7)
  kSimRPrime,     ///< relation R' checker: PR -> OneStepPR (Lemma 5.1)
  kSimR,          ///< relation R checker: OneStepPR -> NewPR (Lemma 5.3)
  kSimRRev,       ///< reverse relation checker: NewPR -> OneStepPR
  kService,       ///< request-serving harness with latency SLOs (E9)
};

/// One fully resolved scenario: a point of the sweep's cartesian product.
struct RunSpec {
  TopologyKind topology = TopologyKind::kChain;  ///< topology family
  std::size_t size = 8;                          ///< nominal instance size
  AlgorithmKind algorithm = AlgorithmKind::kOneStepPR;  ///< kernel to run
  SchedulerKind scheduler = SchedulerKind::kLowestId;   ///< demon resolving nondeterminism
  std::uint64_t seed = 1;      ///< master seed of this run's RNG streams
  std::uint64_t max_steps = 10'000'000;  ///< step/round safety budget

  /// Worker threads of the reversal engine's sharded greedy-rounds kernel
  /// (fr/pr kernels only): 1 = serial (default), 0 = hardware
  /// concurrency, N = a pool of N.  Purely a performance switch — the
  /// parallel engine is deterministic and byte-identical to the serial one
  /// at every value (tests/reversal_engine_test.cpp), so records never
  /// depend on it.  A value > 1 spawns a short-lived ThreadPool per run;
  /// worth it on large topologies, overhead on tiny ones.
  std::size_t engine_threads = 1;

  /// Event-scheduler backend of the simulated network's time index
  /// (dist-fr / dist-pr kernels): the historical binary heap or the
  /// hierarchical timing wheel (sim/time_index.hpp).  Purely a performance
  /// switch — pop order, and hence every record, is byte-identical across
  /// backends (tests/sim_test.cpp pins the equivalence).  Every other
  /// kernel ignores it.
  EventSchedulerKind sim_scheduler = EventSchedulerKind::kHeap;

  /// Worker threads of the simulated network's sharded event loop
  /// (dist-fr / dist-pr kernels): 1 = the serial event queue (default),
  /// 0 = hardware concurrency, N = a pool of N per-node event lanes
  /// (sim/sharded_loop.hpp).  Deterministic and byte-identical to the
  /// serial loop at every value, like engine_threads.  Every other
  /// kernel ignores it.
  std::size_t sim_threads = 1;

  /// Client-request mix of the service kernel
  /// (service/service_harness.hpp); ignored by every other kernel.
  ServiceWorkload service_workload = ServiceWorkload::kMixed;

  /// Closed-loop client count of the service kernel.
  std::size_t service_clients = 8;

  /// Virtual-tick duration of the service kernel's run.
  std::uint64_t service_duration = 256;

  /// Minimum length of the churn schedule attached to a `waypoint`
  /// workload (make_churn_instance); 0 = a static instance with an empty
  /// schedule (the default).  The tora kernel replays the schedule over
  /// the dynamic-heights core when it is non-empty; every other kernel
  /// measures the static pre-churn instance.  Part of the workload
  /// identity: SweepCache keys include it so runs with different churn
  /// schedules can never alias one cached instance.
  std::size_t churn_events = 0;

  /// Seed of the instance-construction RNG stream.  Depends only on
  /// (topology, size, seed) — *not* on algorithm or scheduler — so all
  /// kernels of one sweep measure the same instances, which is what makes
  /// FR-vs-PR comparisons within a sweep meaningful.
  std::uint64_t instance_seed() const;

  /// Seed of the scheduler RNG stream (random scheduler choices).
  std::uint64_t scheduler_seed() const;

  /// Seed of the network RNG stream (message delays, drops, churn).
  std::uint64_t network_seed() const;

  /// Specs compare field-wise: the text round-trip to a shard worker
  /// must reproduce every field (the merge cross-checks each record).
  friend bool operator==(const RunSpec&, const RunSpec&) = default;
};

/// SplitMix64 — the seed-derivation hash behind the per-run RNG streams.
std::uint64_t splitmix64(std::uint64_t x);

/// Builds the workload instance a RunSpec describes.  Deterministic in
/// (topology, size, seed); the recipes are fixed sweep-format contract
/// (docs/EXPERIMENTS.md) shared with `lr_cli gen`.
Instance make_instance(const RunSpec& spec);

/// Builds the workload plus its churn schedule: for the `waypoint`
/// topology the schedule holds at least `spec.churn_events` link events
/// (empty when churn_events == 0); for every other topology the schedule
/// is empty and the instance equals make_instance(spec).  The instance is
/// identical to make_instance(spec) in all cases — churn draws consume
/// the RNG stream strictly after instance construction — so cached
/// snapshots of the static part stay byte-identical across churn lengths.
ChurnInstance make_churn_instance(const RunSpec& spec);

// ---------------------------------------------------------------------------
// Axis token names (the sweep-spec file vocabulary)
// ---------------------------------------------------------------------------

/// Spec-file token of a topology family ("chain", "random", ...).
const char* topology_token(TopologyKind kind);

/// Spec-file token of an algorithm kernel ("fr", "pr", "newpr", "hybrid",
/// "tora", "dist-fr", "dist-pr", "sim-rprime", "sim-r", "sim-rrev",
/// "service").
const char* algorithm_token(AlgorithmKind kind);

/// Spec-file token of a scheduler ("lowest", "random", "rr", "farthest"),
/// matching the `lr_cli run` vocabulary.
const char* scheduler_token(SchedulerKind kind);

/// Strict non-negative integer: decimal digits only (no sign, space or
/// suffix) and at most 2^64 - 1.  Throws std::invalid_argument naming
/// `token` otherwise.  The one integer parser of the spec language, the
/// CLI and the shard stack.
std::uint64_t parse_u64(const std::string& token);

/// Parses a topology token; throws std::invalid_argument when unknown.
TopologyKind parse_topology(const std::string& token);

/// Parses an algorithm token; throws std::invalid_argument when unknown.
AlgorithmKind parse_algorithm(const std::string& token);

/// Parses a scheduler token; throws std::invalid_argument when unknown.
SchedulerKind parse_scheduler(const std::string& token);

/// A declarative sweep: the five value lists whose cartesian product is
/// the set of runs, plus the shared step budget.
///
/// Text form (see docs/EXPERIMENTS.md §"Sweep specs"): one `key = values`
/// line per axis, `#` comments, values comma-separated, integer axes also
/// accepting inclusive `lo..hi` ranges:
///
///     topology  = chain, random
///     size      = 16, 32
///     algorithm = fr, pr
///     scheduler = lowest, random
///     seed      = 1..5
///     max_steps = 1000000
///
/// `scheduler` defaults to `lowest` and `seed` to `1` when omitted;
/// `topology`, `size`, and `algorithm` are required.
struct SweepSpec {
  std::vector<TopologyKind> topologies;     ///< `topology =` axis
  std::vector<std::size_t> sizes;           ///< `size =` axis
  std::vector<AlgorithmKind> algorithms;    ///< `algorithm =` axis
  std::vector<SchedulerKind> schedulers;    ///< `scheduler =` axis
  std::vector<std::uint64_t> seeds;         ///< `seed =` axis
  std::uint64_t max_steps = 10'000'000;     ///< per-run safety budget
  /// `engine_threads =` scalar option: the engine's greedy-rounds worker
  /// count stamped on every expanded run (see RunSpec::engine_threads).
  /// A scalar, not an axis: results are identical at every thread count
  /// by construction, so sweeping it would only duplicate rows.
  std::size_t engine_threads = 1;
  /// `sim_scheduler =` scalar option (`heap` default, `wheel` for the
  /// timing-wheel backend): the dist-fr / dist-pr network time index
  /// stamped on every expanded run (see RunSpec::sim_scheduler).  Scalar
  /// because records are byte-identical across backends.
  EventSchedulerKind sim_scheduler = EventSchedulerKind::kHeap;
  /// `sim_threads =` scalar option: the dist-fr / dist-pr network's
  /// sharded-event-loop worker count stamped on every expanded run (see
  /// RunSpec::sim_threads).
  /// Scalar because records are byte-identical at every value.
  std::size_t sim_threads = 1;
  /// `service_workload =` scalar option (`mixed` default): the service
  /// kernel's request mix stamped on every expanded run.  A scalar like
  /// max_steps: it parameterizes the workload rather than naming an
  /// independent axis (sweep the algorithm axis to compare kernels).
  ServiceWorkload service_workload = ServiceWorkload::kMixed;
  /// `service_clients =` scalar option: the service kernel's closed-loop
  /// client count stamped on every expanded run.
  std::size_t service_clients = 8;
  /// `service_duration =` scalar option: the service kernel's virtual-tick
  /// duration stamped on every expanded run.
  std::uint64_t service_duration = 256;
  /// `churn_events =` scalar option: the waypoint churn-schedule length
  /// stamped on every expanded run (see RunSpec::churn_events).  A scalar
  /// because it parameterizes the workload, like service_duration.
  std::size_t churn_events = 0;

  /// Number of runs the spec expands to (the axes' size product,
  /// saturating at SIZE_MAX).
  std::size_t run_count() const;

  /// Expands the cartesian product in the canonical order: topology
  /// outermost, then size, algorithm, scheduler, and seed innermost.
  std::vector<RunSpec> expand() const;

  /// Parses the text form.  Throws std::invalid_argument on unknown keys,
  /// unknown tokens, duplicate keys, or a missing required axis.
  static SweepSpec parse(std::istream& is);

  /// Convenience overload of parse() taking the spec text directly.
  static SweepSpec parse_string(const std::string& text);
};

/// Canonical text form of a sweep spec: one `key = values` line per axis
/// plus every scalar option, in a fixed order.  The round-trip contract
/// `SweepSpec::parse_string(format_sweep_spec(s)).expand() == s.expand()`
/// is what lets the sharded sweep backend ship a spec to its workers as
/// text (runner/shard_coordinator.hpp) without the coordinator and the
/// workers ever disagreeing about what run #k means.
std::string format_sweep_spec(const SweepSpec& spec);

}  // namespace lr
