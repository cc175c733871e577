#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "runner/thread_pool.hpp"

/// \file reversal_engine.hpp
/// The batched CSR execution engine: FR / OneStepPR / NewPR run to
/// quiescence as flat-array kernels.
///
/// The automaton classes in this layer (`full_reversal.hpp`, `pr.hpp`,
/// `newpr.hpp`) are the paper's I/O automata stated as faithfully as
/// possible — one object per algorithm, per-step preconditions, orientation
/// updates routed through `Orientation::reverse_edge` so every invariant
/// checker can watch them.  That fidelity costs time: each step re-derives
/// neighbor sets, binary-searches adjacency lists, and reconsults a sink
/// vector that is re-sorted per scheduler call.
///
/// `ReversalEngine` is the production path.  It executes the *same*
/// algorithms over a `CsrGraph` snapshot with:
///
///  * flat per-edge sense bytes and per-node out-degree counters (the whole
///    mutable state of G'),
///  * maintained sink structures — nodes are pushed exactly when their
///    out-degree hits zero, into a lazy heap (lowest-id, farthest-first) or
///    an order-statistic `SinkSet` (random, round-robin), so no step ever
///    scans the graph for sinks,
///  * batched per-node kernels that exploit the sink precondition (every
///    incident edge of a firing node points at it, so a "reversal set" is
///    just a slice of positions to flip),
///  * O(1) `list[v]` updates in the PR kernel via CSR mirror positions, and
///  * O(1) dummy-step detection in the NewPR kernel via the precomputed
///    initial in/out partition.
///
/// Equivalence contract: for every (algorithm, policy, seed, step budget),
/// `run()` performs the *identical action sequence* as the corresponding
/// automaton driven by the same scheduler from `automata/scheduler.hpp`,
/// and therefore produces identical work counts, per-node costs, dummy
/// counts, and final orientations.  `tests/reversal_engine_test.cpp` locks
/// this in across algorithms × policies × topologies, which is what makes
/// the scenario runner's legacy/CSR A/B mode byte-identical.

namespace lr {

/// The three run-to-quiescence algorithms the engine implements.
enum class EngineAlgorithm : std::uint8_t {
  kFullReversal,  ///< FR: a firing sink reverses all incident edges
  kOneStepPR,     ///< OneStepPR (Algorithm 3): list-based partial reversal
  kNewPR,         ///< NewPR (Algorithm 2): parity-selected constant sets
};

/// Scheduling policies, mirroring the single-step schedulers the legacy
/// path uses (`automata/scheduler.hpp`); each engine policy reproduces the
/// exact choice sequence of its scheduler counterpart.
enum class EnginePolicy : std::uint8_t {
  kLowestId,       ///< always the smallest-id enabled sink (lazy min-heap)
  kRandom,         ///< uniform index into the ascending sink list (same RNG
                   ///< draws), selected from the SinkSet without building it
  kRoundRobin,     ///< first sink at or after the cursor, wrapping (same cursor
                   ///< rule), via the SinkSet's cyclic successor
  kFarthestFirst,  ///< max (BFS distance to destination, id) (lazy max-heap)
};

/// Execution limits and instrumentation switches for `ReversalEngine::run`.
struct EngineRunOptions {
  /// Hard step budget, matching `RunOptions::max_steps` on the legacy path.
  std::uint64_t max_steps = 10'000'000;

  /// Seed of the scheduling RNG (used by `EnginePolicy::kRandom` only);
  /// pass `RunSpec::scheduler_seed()` to match a swept legacy run.
  std::uint64_t scheduler_seed = 0;

  /// When true, `EngineResult::node_cost` records per-node fire counts
  /// (one extra array increment per step).
  bool record_node_costs = false;
};

/// Everything one engine execution produced; the flat-path counterpart of
/// `RunResult` plus the strategy-game measures.
struct EngineResult {
  std::uint64_t steps = 0;            ///< actions fired (dummy steps included)
  std::uint64_t edge_reversals = 0;   ///< single-edge flips performed
  std::uint64_t dummy_steps = 0;      ///< NewPR steps that flipped nothing
  bool quiescent = false;             ///< no enabled sink remained
  bool destination_oriented = false;  ///< final G' routes every node to D
  std::vector<std::uint64_t> node_cost;  ///< per-node fires; empty unless recorded
};

/// Result of a batched greedy-rounds execution (`run_greedy_rounds`).
struct EngineRoundsResult {
  std::uint64_t rounds = 0;          ///< maximal-set rounds fired
  std::uint64_t node_steps = 0;      ///< total sink fires over all rounds
  std::uint64_t edge_reversals = 0;  ///< total single-edge flips
  bool converged = false;            ///< quiescent within the round budget
};

/// Execution limits and parallelism knobs for `run_greedy_rounds`.
///
/// Why greedy rounds parallelize at all: a round's sinks are pairwise
/// non-adjacent (two adjacent nodes cannot both be sinks — their shared
/// edge points out of one of them), so each edge is flipped by at most one
/// firing node per round and the only cross-shard state is the out-degree
/// (and PR list-size) counters of *non-firing* neighbors, whose updates
/// commute.  The engine never applies those updates concurrently, though:
/// each firing shard records them as delta events bucketed by the
/// *owner* shard of the neighbor (contiguous node ranges), and a second
/// barrier phase has every owner drain the buckets aimed at its range.
/// Every counter keeps a single writer per phase — no atomic RMW, no
/// contended hub cache line — and the merge order (firer-major, firing
/// order within a firer) is fixed, so the execution is deterministic at
/// every pool size; docs/ARCHITECTURE.md §"Parallel execution" spells out
/// the merge invariants.
struct EngineRoundsOptions {
  /// Hard round budget, matching the legacy `run_greedy_rounds` limit.
  std::uint64_t max_rounds = 10'000'000;

  /// Worker pool to shard each round's worklist across; nullptr (or a
  /// single-worker pool) runs the serial kernel.  Results are byte-
  /// identical to the serial engine at every pool size.  The pool is
  /// borrowed, never owned, so one pool can serve a whole sweep or bench
  /// loop (and is the same `ThreadPool` the scenario runner uses).
  ThreadPool* pool = nullptr;

  /// Rounds whose estimated work — round width times the maximum degree
  /// among the firing sinks — falls below this fire serially even when a
  /// pool is supplied.  Width alone misleads on skewed graphs: a round of
  /// 2048 degree-1 leaves (star topologies) is ~2048 counter decrements,
  /// far too cheap to amortize a dispatch, while 2048 degree-2 chain nodes
  /// are worth sharding.  The firing-degree scan is O(width) over CSR
  /// offset pairs, noise next to the round itself.  Purely a performance
  /// knob (results never depend on it); tests lower it to 1 to force the
  /// sharded kernel onto tiny rounds.
  std::size_t min_parallel_work = 4096;
};

/// FNV-1a checksum of an edge-sense vector — the canonical fingerprint of
/// a final orientation (from which any height assignment is derived).
/// Benches use it to make legacy/CSR A/B runs self-verifying.
std::uint64_t senses_checksum(std::span<const EdgeSense> senses);

/// Order-statistic set of node ids in [0, n): the sink set behind the
/// engine's random and round-robin policies.  A bitset holds membership and
/// a Fenwick tree over the per-word popcounts answers rank and select, so
/// the k-th smallest member and the cyclic successor of an id each cost
/// O(log(n/64) + 64).  The legacy schedulers define their choices over the
/// ascending sink list; `select(k)` is that list's k-th entry, so the
/// engine reproduces them without ever materializing the list.
class SinkSet {
 public:
  /// Empties the set and sizes it for ids in [0, n).
  void reset(std::size_t n);

  /// Adds `v`; a no-op if it is already a member.
  void insert(NodeId v);

  /// Removes `v`; a no-op if it is not a member.
  void erase(NodeId v);

  /// Number of members.
  std::size_t size() const noexcept { return size_; }

  /// True iff the set has no members.
  bool empty() const noexcept { return size_ == 0; }

  /// Number of members smaller than `v`, for any `v` in [0, n].
  std::size_t rank(std::size_t v) const;

  /// The k-th smallest member, counting from 0.  Precondition: k < size().
  NodeId select(std::size_t k) const;

  /// The smallest member at or after `from` (in [0, n)), wrapping around to
  /// the smallest member overall; kNoNode when the set is empty.
  NodeId next_cyclic(std::size_t from) const;

 private:
  void adjust(std::size_t word, bool add);  // Fenwick point update, +1 or -1

  std::vector<std::uint64_t> words_;  // membership bits, 64 ids per word
  std::vector<std::uint32_t> tree_;   // 1-based Fenwick tree over word popcounts
  std::size_t size_ = 0;
};

/// Batched link-reversal executor over a `CsrGraph` snapshot.
///
/// The engine owns all mutable state and can be re-run: every `run` /
/// `run_greedy_rounds` call first resets to the snapshot's initial
/// orientation, so one engine amortizes its allocations across a whole
/// benchmark or sweep loop (zero per-step and per-run allocation after the
/// first call).
class ReversalEngine {
 public:
  /// Creates an engine over `csr` with the given destination.  The CsrGraph
  /// must outlive the engine.  Throws std::invalid_argument if the
  /// destination is out of range.
  ReversalEngine(const CsrGraph& csr, NodeId destination);

  /// Convenience: engine over a fresh snapshot of `instance` (graph +
  /// initial senses + destination).  The snapshot is owned by the engine.
  explicit ReversalEngine(const Instance& instance);

  /// Engines hold an internal pointer to their snapshot; copying or moving
  /// would dangle it for the owning constructor, so both are disabled.
  ReversalEngine(const ReversalEngine&) = delete;
  /// \copydoc ReversalEngine(const ReversalEngine&)
  ReversalEngine& operator=(const ReversalEngine&) = delete;

  /// Runs `algorithm` to quiescence (or budget exhaustion) under `policy`,
  /// resetting to the initial orientation first.
  EngineResult run(EngineAlgorithm algorithm, EnginePolicy policy,
                   const EngineRunOptions& options = {});

  /// Runs the greedy (maximal-set) rounds execution of FR or OneStepPR,
  /// resetting first; the batched counterpart of
  /// `analysis/rounds.hpp::run_greedy_rounds` totals.  NewPR is rejected
  /// with std::invalid_argument, matching the legacy rounds API surface.
  EngineRoundsResult run_greedy_rounds(EngineAlgorithm algorithm, std::uint64_t max_rounds);

  /// Same, with the full option set: supply `options.pool` to shard each
  /// round's worklist across the pool's workers (results byte-identical to
  /// the serial kernel at every pool size; see EngineRoundsOptions).
  EngineRoundsResult run_greedy_rounds(EngineAlgorithm algorithm,
                                       const EngineRoundsOptions& options);

  /// The CSR snapshot this engine executes over.
  const CsrGraph& csr() const noexcept { return *csr_; }

  /// The destination node D.
  NodeId destination() const noexcept { return destination_; }

  /// Edge senses after the most recent run (initial senses before any).
  std::span<const EdgeSense> senses() const noexcept { return sense_; }

  /// Checksum of the current (post-run) orientation; see senses_checksum().
  std::uint64_t state_checksum() const { return senses_checksum(sense_); }

  /// True iff `u` currently has no outgoing edge (degree-0 nodes included,
  /// matching `Orientation::is_sink`).
  bool is_sink(NodeId u) const { return out_degree_[u] == 0; }

 private:
  void attach(const CsrGraph& csr, NodeId destination);
  void reset();
  void ensure_distances();
  bool compute_destination_oriented();

  // The fire kernels are policy-templated: `Ops` supplies the two
  // neighbor-side effects (out-degree decrement on an edge flip, PR
  // list-size increment) plus the zero-flip self-requeue.  Serial paths
  // apply them in place; the sharded rounds kernel *defers* them as
  // per-owner delta events instead — a hub neighbor shared by thousands
  // of firing leaves would otherwise serialize every shard on one
  // contended counter cache line.  See run_greedy_rounds for the
  // two-phase fire/merge that applies the deltas without any atomic RMW.
  template <typename Ops>
  std::uint32_t fire(EngineAlgorithm algorithm, NodeId u, Ops& ops);
  template <typename Ops>
  std::uint32_t fire_full(NodeId u, Ops& ops);
  template <typename Ops>
  std::uint32_t fire_pr(NodeId u, Ops& ops);
  template <typename Ops>
  std::uint32_t fire_newpr(NodeId u, Ops& ops);
  template <typename Ops>
  void flip(CsrPos p, Ops& ops);

  const CsrGraph* csr_ = nullptr;
  std::vector<CsrGraph> owned_csr_;  // non-empty only for the Instance ctor
  NodeId destination_ = 0;

  // Mutable G' state (reset per run).
  std::vector<EdgeSense> sense_;            // current sense per edge
  std::vector<std::uint32_t> out_degree_;   // current out-degree per node
  std::vector<std::uint32_t> initial_out_degree_;

  // PR list state: flag per adjacency position, size per node.
  std::vector<std::uint8_t> in_list_;
  std::vector<std::uint32_t> list_size_;

  // NewPR parity bits.
  std::vector<std::uint8_t> parity_;

  std::uint64_t dummy_steps_ = 0;

  // Scheduling scratch (persistent so repeated runs do not allocate).
  std::vector<NodeId> heap_;            // lowest-id lazy min-heap
  std::vector<std::uint64_t> key_heap_; // farthest-first lazy max-heap
  std::vector<std::uint8_t> queued_;    // one live heap entry per node
  SinkSet sinks_;                       // random / round-robin: current sinks
  std::vector<NodeId> round_current_;   // greedy rounds: this round's set
  std::vector<NodeId> round_next_;      // greedy rounds: next round's set
  std::vector<std::vector<NodeId>> shard_next_;   // per-shard next-round buffers
  std::vector<std::uint64_t> shard_reversals_;    // per-shard flip counters
  // Sharded-round delta buckets, indexed [firing shard * shards + owner
  // shard]; each holds the neighbor ids whose counter the firer would have
  // touched, drained by the owner in the merge phase (capacity persists
  // across rounds).
  std::vector<std::vector<NodeId>> degree_events_;  // out-degree decrements
  std::vector<std::vector<NodeId>> list_events_;    // PR list-size increments
  std::vector<std::uint32_t> distance_; // undirected BFS distance to D
  std::vector<std::uint8_t> visited_;   // destination-oriented BFS scratch
  std::vector<NodeId> bfs_queue_;       // BFS scratch
};

}  // namespace lr
