#include "core/reversal_engine.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <random>
#include <stdexcept>

namespace lr {

namespace {

/// In-place neighbor updates for every serial execution path (single-step
/// runs and un-sharded rounds): a decrement lands immediately and a node
/// is requeued the instant its out-degree hits zero.
template <typename PushSink>
struct SerialOps {
  std::uint32_t* out_degree;
  std::uint32_t* list_size;
  PushSink& push;

  void flipped(NodeId v) {
    if (--out_degree[v] == 0) push(v);
  }
  void listed(NodeId v) { ++list_size[v]; }
  void self_sink(NodeId u) { push(u); }
};

/// Deferred neighbor updates for the sharded rounds kernel.  Touching a
/// neighbor's counter directly would need an atomic RMW (a non-firing hub
/// can neighbor every concurrently firing shard), and on hub topologies
/// those RMWs all land on one cache line — star-4097's first round is
/// 4096 leaves decrementing the same hub counter, which serializes the
/// whole "parallel" round.  Instead the firing phase appends the neighbor
/// id to a bucket addressed by the neighbor's *owner* shard; the merge
/// phase has each owner drain the buckets aimed at its contiguous node
/// range, so every counter keeps exactly one writer and no RMW is atomic.
struct DeltaOps {
  std::vector<NodeId>* degree_bucket;  // this firer's row: one bucket per owner
  std::vector<NodeId>* list_bucket;
  std::vector<NodeId>* next;  // this shard's next-round buffer (zero-flip requeues)
  std::size_t shards;
  std::size_t nodes;

  std::size_t owner(NodeId v) const {
    return static_cast<std::size_t>(v) * shards / nodes;
  }
  void flipped(NodeId v) { degree_bucket[owner(v)].push_back(v); }
  void listed(NodeId v) { list_bucket[owner(v)].push_back(v); }
  // The destination never fires, so a zero-flip self-requeue needs no
  // destination filter here (the merge phase filters its own pushes).
  void self_sink(NodeId u) { next->push_back(u); }
};

}  // namespace

std::uint64_t senses_checksum(std::span<const EdgeSense> senses) {
  // FNV-1a over one byte per edge, the same encoding the automata use in
  // their state fingerprints (1 = forward, 0 = backward).
  std::uint64_t hash = 14695981039346656037ULL;
  for (const EdgeSense sense : senses) {
    hash ^= sense == EdgeSense::kForward ? 1u : 0u;
    hash *= 1099511628211ULL;
  }
  return hash;
}

void SinkSet::reset(std::size_t n) {
  words_.assign((n + 63) / 64, 0);
  tree_.assign(words_.size() + 1, 0);
  size_ = 0;
}

void SinkSet::adjust(std::size_t word, bool add) {
  const std::uint32_t delta = add ? 1u : ~0u;  // -1 modulo 2^32
  for (std::size_t i = word + 1; i < tree_.size(); i += i & (~i + 1)) tree_[i] += delta;
}

void SinkSet::insert(NodeId v) {
  const std::uint64_t bit = std::uint64_t{1} << (v % 64);
  std::uint64_t& word = words_[v / 64];
  if (word & bit) return;
  word |= bit;
  adjust(v / 64, true);
  ++size_;
}

void SinkSet::erase(NodeId v) {
  const std::uint64_t bit = std::uint64_t{1} << (v % 64);
  std::uint64_t& word = words_[v / 64];
  if (!(word & bit)) return;
  word &= ~bit;
  adjust(v / 64, false);
  --size_;
}

std::size_t SinkSet::rank(std::size_t v) const {
  const std::size_t word = v / 64;
  std::size_t count = 0;
  for (std::size_t i = word; i > 0; i &= i - 1) count += tree_[i];  // words [0, word)
  if (v % 64 != 0) {
    count += std::popcount(words_[word] & ((std::uint64_t{1} << (v % 64)) - 1));
  }
  return count;
}

NodeId SinkSet::select(std::size_t k) const {
  // Fenwick descent: find the last prefix of whole words holding at most k
  // members; the answer is the (remaining k)-th set bit of the next word.
  std::size_t word = 0;
  for (std::size_t step = std::bit_floor(words_.size()); step != 0; step >>= 1) {
    if (word + step < tree_.size() && tree_[word + step] <= k) {
      word += step;
      k -= tree_[word];
    }
  }
  std::uint64_t bits = words_[word];
  for (; k > 0; --k) bits &= bits - 1;  // drop the k lowest members
  return static_cast<NodeId>(word * 64 + std::countr_zero(bits));
}

NodeId SinkSet::next_cyclic(std::size_t from) const {
  if (size_ == 0) return kNoNode;
  const std::size_t below = rank(from);
  return select(below < size_ ? below : 0);
}

void ReversalEngine::attach(const CsrGraph& csr, NodeId destination) {
  csr_ = &csr;
  destination_ = destination;
  if (destination_ >= csr.num_nodes()) {
    throw std::invalid_argument("ReversalEngine: destination out of range");
  }
  const std::size_t n = csr.num_nodes();
  initial_out_degree_.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    initial_out_degree_[u] = static_cast<std::uint32_t>(csr.initial_out_degree(u));
  }
  reset();
}

ReversalEngine::ReversalEngine(const CsrGraph& csr, NodeId destination) {
  attach(csr, destination);
}

ReversalEngine::ReversalEngine(const Instance& instance) {
  owned_csr_.emplace_back(instance.graph, instance.senses);
  attach(owned_csr_.back(), instance.destination);
}

void ReversalEngine::reset() {
  const std::size_t n = csr_->num_nodes();
  sense_.assign(csr_->initial_senses().begin(), csr_->initial_senses().end());
  out_degree_.assign(initial_out_degree_.begin(), initial_out_degree_.end());
  in_list_.assign(2 * csr_->num_edges(), 0);
  list_size_.assign(n, 0);
  parity_.assign(n, 0);
  dummy_steps_ = 0;
}

void ReversalEngine::ensure_distances() {
  const std::size_t n = csr_->num_nodes();
  if (!distance_.empty()) return;  // the snapshot is immutable: compute once
  distance_.assign(n, std::numeric_limits<std::uint32_t>::max());
  bfs_queue_.clear();
  distance_[destination_] = 0;
  bfs_queue_.push_back(destination_);
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const NodeId x = bfs_queue_[head];
    for (const NodeId v : csr_->neighbors(x)) {
      if (distance_[v] == std::numeric_limits<std::uint32_t>::max()) {
        distance_[v] = distance_[x] + 1;
        bfs_queue_.push_back(v);
      }
    }
  }
}

bool ReversalEngine::compute_destination_oriented() {
  const std::size_t n = csr_->num_nodes();
  visited_.assign(n, 0);
  bfs_queue_.clear();
  visited_[destination_] = 1;
  bfs_queue_.push_back(destination_);
  std::size_t reached = 1;
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const NodeId x = bfs_queue_[head];
    const CsrPos end = csr_->adjacency_end(x);
    for (CsrPos p = csr_->adjacency_begin(x); p < end; ++p) {
      // Traverse edges *into* x: their tails route to D through x.
      if (csr_->points_out_of(p, x, sense_)) continue;
      const NodeId v = csr_->neighbor_at(p);
      if (!visited_[v]) {
        visited_[v] = 1;
        bfs_queue_.push_back(v);
        ++reached;
      }
    }
  }
  return reached == n;
}

template <typename Ops>
void ReversalEngine::flip(CsrPos p, Ops& ops) {
  const EdgeId e = csr_->edge_at(p);
  sense_[e] = sense_[e] == EdgeSense::kForward ? EdgeSense::kBackward : EdgeSense::kForward;
  ops.flipped(csr_->neighbor_at(p));
}

template <typename Ops>
std::uint32_t ReversalEngine::fire_full(NodeId u, Ops& ops) {
  const CsrPos begin = csr_->adjacency_begin(u);
  const CsrPos end = csr_->adjacency_end(u);
  for (CsrPos p = begin; p < end; ++p) flip(p, ops);
  const std::uint32_t flips = end - begin;
  // Plain store in the sharded kernel too: u's round peers are pairwise
  // non-adjacent to it and delta events only target non-firing nodes, so
  // no other shard touches out_degree_[u] this round.
  out_degree_[u] = flips;
  if (flips == 0) ops.self_sink(u);  // a degree-0 node stays a (vacuous) sink
  return flips;
}

template <typename Ops>
std::uint32_t ReversalEngine::fire_pr(NodeId u, Ops& ops) {
  const CsrPos begin = csr_->adjacency_begin(u);
  const CsrPos end = csr_->adjacency_end(u);
  const bool reverse_all = list_size_[u] == end - begin;
  std::uint32_t flips = 0;
  for (CsrPos p = begin; p < end; ++p) {
    if (!reverse_all && in_list_[p]) continue;  // v ∈ list[u]: keep the edge
    flip(p, ops);
    ++flips;
    // list[v] := list[v] ∪ {u}, addressed through the mirror position.
    // The mirror slot is written by at most one shard per round (it names
    // the {u, v} edge from v's side and u is the only firing endpoint);
    // v's list-size counter is shared with u's round peers, which is why
    // the increment goes through ops (deferred to v's owner when sharded).
    const CsrPos mp = csr_->mirror(p);
    if (!in_list_[mp]) {
      in_list_[mp] = 1;
      ops.listed(csr_->neighbor_at(p));
    }
  }
  for (CsrPos p = begin; p < end; ++p) in_list_[p] = 0;  // list[u] := ∅
  list_size_[u] = 0;
  out_degree_[u] = flips;
  if (flips == 0) ops.self_sink(u);
  return flips;
}

template <typename Ops>
std::uint32_t ReversalEngine::fire_newpr(NodeId u, Ops& ops) {
  const std::span<const CsrPos> selected =
      parity_[u] ? csr_->initial_out_positions(u) : csr_->initial_in_positions(u);
  for (const CsrPos p : selected) flip(p, ops);
  const std::uint32_t flips = static_cast<std::uint32_t>(selected.size());
  out_degree_[u] = flips;
  if (flips == 0) {
    ++dummy_steps_;  // the selected constant set is empty: a dummy step
    ops.self_sink(u);
  }
  parity_[u] ^= 1;
  return flips;
}

template <typename Ops>
std::uint32_t ReversalEngine::fire(EngineAlgorithm algorithm, NodeId u, Ops& ops) {
  switch (algorithm) {
    case EngineAlgorithm::kFullReversal:
      return fire_full(u, ops);
    case EngineAlgorithm::kOneStepPR:
      return fire_pr(u, ops);
    case EngineAlgorithm::kNewPR:
      return fire_newpr(u, ops);  // single-step only: rounds reject NewPR
  }
  throw std::invalid_argument("ReversalEngine: unknown algorithm");
}

EngineResult ReversalEngine::run(EngineAlgorithm algorithm, EnginePolicy policy,
                                 const EngineRunOptions& options) {
  reset();
  const std::size_t n = csr_->num_nodes();
  EngineResult result;
  if (options.record_node_costs) result.node_cost.assign(n, 0);

  const auto account = [&result](NodeId u, std::uint32_t flips) {
    result.edge_reversals += flips;
    ++result.steps;
    if (!result.node_cost.empty()) ++result.node_cost[u];
  };

  switch (policy) {
    case EnginePolicy::kLowestId: {
      // Lazy min-heap worklist: every node is pushed when its out-degree
      // hits zero; stale entries are discarded at pop.  The first valid pop
      // is the minimum current sink, exactly LowestIdScheduler's choice.
      heap_.clear();
      queued_.assign(n, 0);
      for (NodeId u = 0; u < n; ++u) {
        if (out_degree_[u] == 0) {
          heap_.push_back(u);
          queued_[u] = 1;
        }
      }
      std::make_heap(heap_.begin(), heap_.end(), std::greater<NodeId>{});
      const auto push = [this](NodeId v) {
        if (!queued_[v]) {
          queued_[v] = 1;
          heap_.push_back(v);
          std::push_heap(heap_.begin(), heap_.end(), std::greater<NodeId>{});
        }
      };
      SerialOps ops{out_degree_.data(), list_size_.data(), push};
      while (result.steps < options.max_steps) {
        NodeId u = kNoNode;
        while (!heap_.empty()) {
          std::pop_heap(heap_.begin(), heap_.end(), std::greater<NodeId>{});
          const NodeId top = heap_.back();
          heap_.pop_back();
          queued_[top] = 0;
          if (top != destination_ && out_degree_[top] == 0) {
            u = top;
            break;
          }
        }
        if (u == kNoNode) {
          result.quiescent = true;
          break;
        }
        account(u, fire(algorithm, u, ops));
      }
      break;
    }
    case EnginePolicy::kRandom:
    case EnginePolicy::kRoundRobin: {
      // Both policies choose from the order-statistic sink set.  A sink
      // stays one until it fires, so the set changes only where a node's
      // out-degree hits zero (the push) and where a fired node regains
      // out-edges (the erase after fire).
      sinks_.reset(n);
      for (NodeId u = 0; u < n; ++u) {
        if (u != destination_ && out_degree_[u] == 0) sinks_.insert(u);
      }
      const auto push = [this](NodeId v) {
        if (v != destination_) sinks_.insert(v);
      };
      SerialOps ops{out_degree_.data(), list_size_.data(), push};
      std::mt19937_64 rng(options.scheduler_seed);
      std::size_t cursor = 0;
      while (result.steps < options.max_steps) {
        if (sinks_.empty()) {
          result.quiescent = true;
          break;
        }
        NodeId u = kNoNode;
        if (policy == EnginePolicy::kRandom) {
          // RandomScheduler: a uniform index into the ascending sink list,
          // drawn from the same mt19937_64 stream.
          std::uniform_int_distribution<std::size_t> pick(0, sinks_.size() - 1);
          u = sinks_.select(pick(rng));
        } else {
          // RoundRobinScheduler: the first sink at or after the cursor.
          u = sinks_.next_cyclic(cursor);
          cursor = (u + 1) % n;
        }
        account(u, fire(algorithm, u, ops));
        if (out_degree_[u] != 0) sinks_.erase(u);
      }
      break;
    }
    case EnginePolicy::kFarthestFirst: {
      // Lazy max-heap keyed (BFS distance to D, id), matching
      // FarthestFirstScheduler's max_element over (distance, id) pairs.
      ensure_distances();
      const auto key_of = [this](NodeId u) {
        return (static_cast<std::uint64_t>(distance_[u]) << 32) | u;
      };
      key_heap_.clear();
      queued_.assign(n, 0);
      for (NodeId u = 0; u < n; ++u) {
        if (out_degree_[u] == 0) {
          key_heap_.push_back(key_of(u));
          queued_[u] = 1;
        }
      }
      std::make_heap(key_heap_.begin(), key_heap_.end());
      const auto push = [this, &key_of](NodeId v) {
        if (!queued_[v]) {
          queued_[v] = 1;
          key_heap_.push_back(key_of(v));
          std::push_heap(key_heap_.begin(), key_heap_.end());
        }
      };
      SerialOps ops{out_degree_.data(), list_size_.data(), push};
      while (result.steps < options.max_steps) {
        NodeId u = kNoNode;
        while (!key_heap_.empty()) {
          std::pop_heap(key_heap_.begin(), key_heap_.end());
          const NodeId top = static_cast<NodeId>(key_heap_.back() & 0xffffffffu);
          key_heap_.pop_back();
          queued_[top] = 0;
          if (top != destination_ && out_degree_[top] == 0) {
            u = top;
            break;
          }
        }
        if (u == kNoNode) {
          result.quiescent = true;
          break;
        }
        account(u, fire(algorithm, u, ops));
      }
      break;
    }
  }

  result.dummy_steps = dummy_steps_;
  result.destination_oriented = compute_destination_oriented();
  return result;
}

EngineRoundsResult ReversalEngine::run_greedy_rounds(EngineAlgorithm algorithm,
                                                     std::uint64_t max_rounds) {
  return run_greedy_rounds(algorithm, EngineRoundsOptions{.max_rounds = max_rounds});
}

EngineRoundsResult ReversalEngine::run_greedy_rounds(EngineAlgorithm algorithm,
                                                     const EngineRoundsOptions& options) {
  if (algorithm == EngineAlgorithm::kNewPR) {
    throw std::invalid_argument(
        "ReversalEngine::run_greedy_rounds: greedy rounds are defined for FR and "
        "OneStepPR only (matching analysis/rounds.hpp)");
  }
  reset();
  const std::size_t n = csr_->num_nodes();
  EngineRoundsResult result;

  round_current_.clear();
  for (NodeId u = 0; u < n; ++u) {
    if (u != destination_ && out_degree_[u] == 0) round_current_.push_back(u);
  }
  // Within a round, a non-firing node's out-degree only decreases and a
  // firing node's is rewritten once, so every node reaches zero at most
  // once per round: the next-round list needs no deduplication.  Firing
  // order within a round is immaterial — round sinks are pairwise
  // non-adjacent, and PR list additions only flow from firing nodes to
  // their (non-firing) neighbors — so the list also needs no sorting.
  const auto push = [this](NodeId v) {
    if (v != destination_) round_next_.push_back(v);
  };
  SerialOps serial_ops{out_degree_.data(), list_size_.data(), push};
  const std::size_t shards = options.pool != nullptr ? options.pool->size() : 1;
  std::size_t width = 0;
  std::function<void(std::size_t)> fire_job;
  std::function<void(std::size_t)> merge_job;
  if (shards > 1) {
    shard_next_.resize(shards);
    shard_reversals_.assign(shards, 0);
    degree_events_.resize(shards * shards);
    list_events_.resize(shards * shards);
    // Both jobs are built once per execution (not per round): the fire job
    // reads the current round's size through `width`.
    fire_job = [this, algorithm, &width, shards](std::size_t shard) {
      const std::size_t begin = width * shard / shards;
      const std::size_t end = width * (shard + 1) / shards;
      DeltaOps ops{degree_events_.data() + shard * shards,
                   list_events_.data() + shard * shards,
                   &shard_next_[shard],
                   shards,
                   csr_->num_nodes()};
      std::uint64_t reversals = 0;
      for (std::size_t i = begin; i < end; ++i) {
        reversals += fire(algorithm, round_current_[i], ops);
      }
      shard_reversals_[shard] = reversals;
    };
    merge_job = [this, shards](std::size_t owner) {
      // Drain every firer's buckets aimed at this owner's node range, in
      // firer order.  Each counter in the range has this job as its only
      // writer, so no decrement is atomic, and the decrement that lands on
      // zero — hence the requeue — is the same at every pool size.
      std::vector<NodeId>& next = shard_next_[owner];
      for (std::size_t firer = 0; firer < shards; ++firer) {
        std::vector<NodeId>& degree = degree_events_[firer * shards + owner];
        for (const NodeId v : degree) {
          if (--out_degree_[v] == 0 && v != destination_) next.push_back(v);
        }
        degree.clear();
        std::vector<NodeId>& list = list_events_[firer * shards + owner];
        for (const NodeId v : list) ++list_size_[v];
        list.clear();
      }
    };
  }
  while (!round_current_.empty() && result.rounds < options.max_rounds) {
    ++result.rounds;
    result.node_steps += round_current_.size();
    width = round_current_.size();
    // Work estimate: width x the widest firing sink's adjacency span.  The
    // scan is two offset loads per sink; it keeps star-like rounds (many
    // degree-1 leaves, almost no per-node work) on the inline path where
    // they are fastest.
    std::size_t work = 0;
    if (shards > 1) {
      std::size_t max_degree = 0;
      for (const NodeId u : round_current_) {
        max_degree = std::max(max_degree,
                              static_cast<std::size_t>(csr_->adjacency_end(u) -
                                                       csr_->adjacency_begin(u)));
      }
      work = width * max_degree;
    }
    // width > 1: a single sink cannot be split across shards, however
    // heavy (star hubs hit exactly this — one firing node of huge degree).
    if (shards > 1 && width > 1 && work >= options.min_parallel_work) {
      // Sharded round, two barrier phases over contiguous worklist slices.
      // Phase 1 (fire): edge flips are disjoint across shards (round sinks
      // are pairwise non-adjacent), and every neighbor-counter update is
      // deferred as a delta event bucketed by the neighbor's owner shard —
      // nothing shared is written, so hub neighbors cost each firer an
      // append into its private bucket instead of a contended RMW.
      // Phase 2 (merge): each owner drains the buckets aimed at its node
      // range and requeues the sinks it zeroes into its own buffer.
      for (std::vector<NodeId>& buffer : shard_next_) buffer.clear();
      options.pool->run(fire_job);
      options.pool->run(merge_job);
      round_current_.clear();
      for (std::size_t shard = 0; shard < shards; ++shard) {
        result.edge_reversals += shard_reversals_[shard];
        round_current_.insert(round_current_.end(), shard_next_[shard].begin(),
                              shard_next_[shard].end());
      }
      // The merged list is fully deterministic: bucket membership follows
      // from the fixed slice boundaries, and each owner drains its buckets
      // in firer order.  Order within a round is unobservable anyway —
      // round sinks are pairwise non-adjacent, so every counter update and
      // edge flip commutes — which is why the merge needs no sort and
      // results stay byte-identical at every pool size
      // (tests/reversal_engine_test.cpp pins this).
    } else {
      round_next_.clear();
      for (const NodeId u : round_current_) {
        result.edge_reversals += fire(algorithm, u, serial_ops);
      }
      round_current_.swap(round_next_);
    }
  }
  result.converged = round_current_.empty();
  return result;
}

}  // namespace lr
