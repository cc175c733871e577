#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

/// \file dynamic_heights.hpp
/// A dynamic-topology partial-reversal core shared by the routing services
/// (TORA-style routing, leader election, mutual exclusion).
///
/// Unlike the Section 3/4 automata — which fix G once — the applications
/// the paper's abstract names (routing, leader election, mutual exclusion)
/// live on networks whose links come and go and whose "destination" can
/// change (a new leader, the next token holder).  This class maintains
/// Gafni–Bertsekas triple heights over a mutable undirected topology:
///
///   * every link is directed from its lexicographically higher endpoint's
///     height to the lower one (acyclic by total order, always),
///   * `stabilize()` repeatedly applies the partial-reversal height update
///     to non-destination sinks until the destination's component is
///     destination-oriented,
///   * nodes outside the destination's component are reported unroutable
///     rather than reversed forever (the paper's model assumes
///     connectivity; TORA handles partition detection separately, which we
///     approximate by the component check).
///
/// Execution layout (docs/PERFORMANCE.md): every node keeps its current
/// neighbours in one ascending list, and per-node out-degree counters are
/// maintained incrementally under height updates, so a sink test is O(1)
/// and a single add_link/remove_link costs a binary search plus one
/// insert or erase in each endpoint's list — O(deg), independent of n and
/// m.  Every query loop (sink tests, reversal steps, next-hop scans) walks
/// those lists in ascending neighbour order.
///
/// The destination's component is cached and recomputed (one BFS) only
/// after an event that can change it: an add_link joining the component
/// to an outside node, a set_destination outside it, or a remove_link
/// inside it that no local argument proves harmless (see remove_link).
/// `stabilize()` and `routable()` read the cache.

namespace lr {

/// The dynamic-topology partial-reversal height core; see the file comment.
class DynamicHeightsDag {
 public:
  /// Starts with `num_nodes` nodes, no links, and the given destination.
  /// Heights start at (0, id) — distinct, so any initial link set is
  /// acyclic by total order.
  DynamicHeightsDag(std::size_t num_nodes, NodeId destination);

  /// Batch form: starts with all of `topology`'s links (the services'
  /// construction path; equivalent to add_link over every edge).
  DynamicHeightsDag(const Graph& topology, NodeId destination);

  /// Number of nodes (fixed at construction; links churn, nodes do not).
  std::size_t num_nodes() const noexcept { return a_.size(); }

  /// The node the DAG is oriented towards.
  NodeId destination() const noexcept { return destination_; }

  /// Re-targets the DAG (new leader / token holder).  Call stabilize()
  /// afterwards.  Keeps the component cache when `d` is already in the
  /// destination's component.
  void set_destination(NodeId d);

  /// Adds / removes an undirected link.  Idempotent.  Call stabilize()
  /// afterwards to restore destination orientation.  O(deg): one binary
  /// search and one insert / erase in each endpoint's neighbour list.
  ///
  /// add_link invalidates the component cache only when exactly one
  /// endpoint is in the destination's component.  remove_link keeps it
  /// when the link lay outside the component; when nothing changed since
  /// the last stabilize() and the link's tail keeps an out-link (every
  /// downhill path from the tail's other out-neighbours and from the head
  /// avoids the removed link); or when the endpoints still share a
  /// neighbour.  Otherwise it invalidates it.
  void add_link(NodeId u, NodeId v);
  /// \copydoc add_link
  void remove_link(NodeId u, NodeId v);
  /// True iff the undirected link {u, v} is currently present.  A binary
  /// search in u's neighbour list.
  bool has_link(NodeId u, NodeId v) const;

  /// add_link / remove_link calls that changed the link set so far.
  std::uint64_t link_edits() const noexcept { return link_edits_; }

  /// The Gafni–Bertsekas triple height of `u`: (a, b, id), compared
  /// lexicographically.
  std::tuple<std::int64_t, std::int64_t, NodeId> height(NodeId u) const {
    return {a_[u], b_[u], u};
  }

  /// True iff the link {u, v} is currently directed u -> v.
  bool directed_from(NodeId u, NodeId v) const { return height(u) > height(v); }

  /// True iff u has no outgoing link (and at least one link).  O(1) via the
  /// maintained out-degree counters.
  bool is_sink(NodeId u) const;

  /// Applies partial-reversal height updates to non-destination sinks in
  /// the destination's component until none remain.  Returns the number of
  /// reversal steps performed.  Nodes in other components are left alone.
  std::uint64_t stabilize();

  /// True iff u is in the destination's component (i.e. routable once
  /// stabilized).  Reads the component cache; not safe to call from
  /// several threads at once while the cache may need a recompute.
  bool routable(NodeId u) const;

  /// The out-neighbor with the smallest height (the steepest-descent next
  /// hop), or nullopt if u is the destination, a sink, or unroutable.
  std::optional<NodeId> next_hop(NodeId u) const;

  /// Follows next hops from u to the destination; nullopt if unroutable.
  /// The returned path starts at u and ends at the destination.
  std::optional<std::vector<NodeId>> route(NodeId u) const;

  /// Total reversal steps performed by all stabilize() calls so far.
  std::uint64_t total_reversals() const noexcept { return total_reversals_; }

  /// Current neighbors of `u`, ascending — an O(1) view of u's list.
  /// Invalidated by the next add_link/remove_link touching u.
  std::span<const NodeId> neighbors(NodeId u) const;

 private:
  void partial_reversal_step(NodeId u);
  /// The destination's component, recomputed by BFS when stale.
  const std::vector<bool>& destination_component() const;
  /// True iff u and v have a common neighbour (sorted-list intersection).
  bool share_neighbor(NodeId u, NodeId v) const;

  NodeId destination_;
  std::vector<std::vector<NodeId>> adj_;  ///< ascending neighbour lists
  std::vector<std::int64_t> a_;
  std::vector<std::int64_t> b_;
  std::vector<std::uint32_t> out_degree_;  ///< derived from heights
  std::uint64_t total_reversals_ = 0;
  std::uint64_t link_edits_ = 0;
  /// No link, destination or height changed since the last stabilize():
  /// the component is destination-oriented.
  bool settled_ = false;

  // The component cache (mutable: const queries refresh it when stale).
  mutable std::vector<bool> component_;
  mutable bool component_stale_ = true;
};

}  // namespace lr
