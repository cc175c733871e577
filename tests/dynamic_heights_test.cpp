#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "routing/dynamic_heights.hpp"
#include "routing/leader_election.hpp"

/// Lockstep differential tests of DynamicHeightsDag against a from-scratch
/// reference: a sorted edge set, a full BFS for the destination's
/// component and a full sink scan on every stabilize(), and the textbook
/// partial-reversal height rule.  The reference keeps no counters and no
/// cache, so any drift in the DAG's out-degree bookkeeping, neighbour
/// lists or component cache shows up as a differing height, sink, route
/// or routable answer.

namespace lr {
namespace {

class ReferenceHeights {
 public:
  ReferenceHeights(std::size_t n, NodeId destination)
      : destination_(destination), a_(n, 0), b_(n) {
    for (NodeId u = 0; u < n; ++u) b_[u] = static_cast<std::int64_t>(u);
  }

  void add_link(NodeId u, NodeId v) { links_.insert(std::minmax(u, v)); }
  void remove_link(NodeId u, NodeId v) { links_.erase(std::minmax(u, v)); }
  void set_destination(NodeId d) { destination_ = d; }

  std::tuple<std::int64_t, std::int64_t, NodeId> height(NodeId u) const {
    return {a_[u], b_[u], u};
  }

  /// Every node's neighbours, ascending, rebuilt from the edge set.
  std::vector<std::vector<NodeId>> adjacency() const {
    std::vector<std::vector<NodeId>> adj(a_.size());
    for (const auto& [u, v] : links_) {
      adj[u].push_back(v);
      adj[v].push_back(u);
    }
    for (std::vector<NodeId>& list : adj) std::sort(list.begin(), list.end());
    return adj;
  }

  bool is_sink(const std::vector<std::vector<NodeId>>& adj, NodeId u) const {
    return !adj[u].empty() && std::all_of(adj[u].begin(), adj[u].end(), [&](NodeId v) {
      return height(v) > height(u);
    });
  }

  std::vector<bool> component(const std::vector<std::vector<NodeId>>& adj) const {
    std::vector<bool> seen(a_.size(), false);
    std::queue<NodeId> frontier;
    seen[destination_] = true;
    frontier.push(destination_);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      for (const NodeId v : adj[u]) {
        if (!seen[v]) {
          seen[v] = true;
          frontier.push(v);
        }
      }
    }
    return seen;
  }

  std::uint64_t stabilize() {
    const auto adj = adjacency();
    const std::vector<bool> in_component = component(adj);
    std::uint64_t steps = 0;
    std::queue<NodeId> candidates;
    for (NodeId u = 0; u < a_.size(); ++u) {
      if (u != destination_ && in_component[u] && is_sink(adj, u)) candidates.push(u);
    }
    while (!candidates.empty()) {
      const NodeId u = candidates.front();
      candidates.pop();
      if (u == destination_ || !is_sink(adj, u)) continue;
      std::int64_t min_a = std::numeric_limits<std::int64_t>::max();
      for (const NodeId v : adj[u]) min_a = std::min(min_a, a_[v]);
      const std::int64_t new_a = min_a + 1;
      std::optional<std::int64_t> min_b;
      for (const NodeId v : adj[u]) {
        if (a_[v] == new_a) min_b = std::min(min_b.value_or(b_[v]), b_[v]);
      }
      a_[u] = new_a;
      if (min_b) b_[u] = *min_b - 1;
      ++steps;
      for (const NodeId v : adj[u]) {
        if (v != destination_ && in_component[v] && is_sink(adj, v)) candidates.push(v);
      }
      if (is_sink(adj, u)) candidates.push(u);
    }
    return steps;
  }

  std::optional<std::vector<NodeId>> route(const std::vector<std::vector<NodeId>>& adj,
                                           NodeId u) const {
    std::vector<NodeId> path{u};
    NodeId current = u;
    for (std::size_t hops = 0; hops <= a_.size(); ++hops) {
      if (current == destination_) return path;
      std::optional<NodeId> best;
      for (const NodeId v : adj[current]) {
        if (height(v) < height(current) && (!best || height(v) < height(*best))) best = v;
      }
      if (!best) return std::nullopt;
      current = *best;
      path.push_back(current);
    }
    return std::nullopt;
  }

 private:
  NodeId destination_;
  std::set<std::pair<NodeId, NodeId>> links_;
  std::vector<std::int64_t> a_;
  std::vector<std::int64_t> b_;
};

/// A DAG and its reference, driven in lockstep.
struct Lockstep {
  Lockstep(const Graph& g, NodeId destination)
      : dag(g, destination), ref(g.num_nodes(), destination) {
    for (const auto& [u, v] : g.edges()) ref.add_link(u, v);
  }

  std::size_t n() const { return dag.num_nodes(); }

  void add_link(NodeId u, NodeId v) {
    dag.add_link(u, v);
    ref.add_link(u, v);
  }
  void remove_link(NodeId u, NodeId v) {
    dag.remove_link(u, v);
    ref.remove_link(u, v);
  }
  void set_destination(NodeId d) {
    dag.set_destination(d);
    ref.set_destination(d);
  }

  /// Links and components agree (no stabilize needed).
  void expect_topology(const std::string& where) {
    const auto adj = ref.adjacency();
    const std::vector<bool> in_component = ref.component(adj);
    for (NodeId u = 0; u < n(); ++u) {
      ASSERT_EQ(dag.routable(u), in_component[u]) << where << " node " << u;
      const auto slice = dag.neighbors(u);
      ASSERT_EQ(std::vector<NodeId>(slice.begin(), slice.end()), adj[u])
          << where << " node " << u;
    }
  }

  /// Stabilizes both and compares everything observable.
  void stabilize_and_expect(const std::string& where) {
    ASSERT_EQ(dag.stabilize(), ref.stabilize()) << where;
    const auto adj = ref.adjacency();
    const std::vector<bool> in_component = ref.component(adj);
    for (NodeId u = 0; u < n(); ++u) {
      ASSERT_EQ(dag.height(u), ref.height(u)) << where << " node " << u;
      ASSERT_EQ(dag.is_sink(u), ref.is_sink(adj, u)) << where << " node " << u;
      ASSERT_EQ(dag.routable(u), in_component[u]) << where << " node " << u;
      ASSERT_EQ(dag.route(u), ref.route(adj, u)) << where << " node " << u;
    }
  }

  DynamicHeightsDag dag;
  ReferenceHeights ref;
};

/// Random add / remove / set_destination operations.  A link event
/// toggles a random link of `flips` when it is non-empty (geometric churn:
/// links of the original topology go down and come back), else it removes
/// a random link of a random node or adds a random absent pair, half and
/// half, which keeps the topology sparse, partitioning and healing.  About
/// one operation in five is a burst of link events with no stabilize() in
/// between, the shape of LeaderElectionService::fail_node.
void run_random_ops(Lockstep& pair, std::mt19937_64& rng, int operations,
                    const std::vector<std::pair<NodeId, NodeId>>& flips = {}) {
  const auto n = static_cast<NodeId>(pair.n());
  const auto random_link_event = [&] {
    if (!flips.empty()) {
      const auto [u, v] = flips[rng() % flips.size()];
      if (pair.dag.has_link(u, v)) {
        pair.remove_link(u, v);
      } else {
        pair.add_link(u, v);
      }
      return;
    }
    const NodeId u = static_cast<NodeId>(rng() % n);
    NodeId v = static_cast<NodeId>(rng() % n);
    if (u == v) v = (v + 1) % n;
    if (pair.dag.has_link(u, v) || rng() % 2 == 0) {
      const auto around = pair.dag.neighbors(u);
      if (!around.empty()) {
        pair.remove_link(u, around[rng() % around.size()]);
        return;
      }
    }
    pair.add_link(u, v);
  };
  for (int op = 0; op < operations; ++op) {
    const std::string where = "op " + std::to_string(op);
    const std::uint64_t kind = rng() % 16;
    if (kind < 2) {
      pair.set_destination(static_cast<NodeId>(rng() % n));
    } else if (kind < 5) {
      const int burst = 2 + static_cast<int>(rng() % 4);
      for (int i = 0; i < burst; ++i) {
        random_link_event();
        pair.expect_topology(where + " burst " + std::to_string(i));
        if (::testing::Test::HasFatalFailure()) return;
      }
    } else {
      random_link_event();
    }
    pair.expect_topology(where);
    if (::testing::Test::HasFatalFailure()) return;
    pair.stabilize_and_expect(where);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DynamicHeightsDifferential, RandomConnectedGraphsMatchTheReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    std::mt19937_64 rng(seed);
    const std::size_t n = 12 + seed * 4;
    const Graph g = make_random_connected_graph(n, n / 2, rng);
    Lockstep pair(g, static_cast<NodeId>(rng() % n));
    pair.stabilize_and_expect("initial");
    run_random_ops(pair, rng, 300);
    if (HasFatalFailure()) return;
  }
}

TEST(DynamicHeightsDifferential, UnitDiskGraphsMatchTheReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    std::mt19937_64 rng(100 + seed);
    const Graph g = make_unit_disk_graph(40, 0.3, rng);
    Lockstep pair(g, 0);
    pair.stabilize_and_expect("initial");
    run_random_ops(pair, rng, 300, g.edges());
    if (HasFatalFailure()) return;
  }
}

TEST(DynamicHeightsDifferential, EmptyStartMatchesTheReference) {
  // Built link by link from no links at all: every add grows or merges
  // components, the cache's busiest invalidation path.
  std::mt19937_64 rng(7);
  Lockstep pair(Graph(20, {}), 19);
  run_random_ops(pair, rng, 200);
}

TEST(DynamicHeightsDifferential, PartitioningRemovalOfASinkTailWithNoCommonNeighbour) {
  // Chain 0-1-2-3 oriented to 0: 3 -> 2 -> 1 -> 0.  Removing {1, 2}
  // leaves its tail 2 a sink, 1 and 2 share no neighbour, and {2, 3}
  // falls out of the destination's component.
  Lockstep pair(make_chain_graph(4), 0);
  pair.stabilize_and_expect("initial");
  ASSERT_TRUE(pair.dag.directed_from(2, 1));
  pair.remove_link(1, 2);
  EXPECT_TRUE(pair.dag.is_sink(2));
  EXPECT_TRUE(pair.dag.routable(1));
  EXPECT_FALSE(pair.dag.routable(2));
  EXPECT_FALSE(pair.dag.routable(3));
  pair.stabilize_and_expect("after the removal");
  EXPECT_FALSE(pair.dag.route(3).has_value());
}

TEST(DynamicHeightsDifferential, RemovalWithACommonNeighbourKeepsTheComponent) {
  // Triangle 0-1-2 plus a tail 3 on 2: removing {1, 2} keeps 1 and 2
  // joined through 0.
  Lockstep pair(Graph(4, {{0, 1}, {0, 2}, {1, 2}, {2, 3}}), 0);
  pair.stabilize_and_expect("initial");
  pair.remove_link(1, 2);
  pair.expect_topology("after the removal");
  EXPECT_TRUE(pair.dag.routable(3));
  pair.stabilize_and_expect("after the removal");
}

TEST(DynamicHeightsDifferential, MergingAddJoinsTheOtherComponent) {
  // Two chains, 0-1-2 (destination 0) and 3-4-5; linking 2 and 5 makes
  // the second routable and stabilize() orients it towards 0.
  Lockstep pair(Graph(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}}), 0);
  pair.stabilize_and_expect("initial");
  EXPECT_FALSE(pair.dag.routable(4));
  pair.add_link(2, 5);
  EXPECT_TRUE(pair.dag.routable(3));
  pair.stabilize_and_expect("after the merge");
  for (NodeId u = 3; u < 6; ++u) EXPECT_TRUE(pair.dag.route(u).has_value()) << u;
}

TEST(DynamicHeightsDifferential, RetargetOutsideTheComponentOnLeaderFailure) {
  // LeaderElectionService::fail_node on the leader removes all its links,
  // leaving the old destination alone in its component, then retargets
  // to the highest alive id — a node outside that component.
  std::mt19937_64 rng(31);
  const Graph g = make_random_connected_graph(16, 10, rng);
  LeaderElectionService service(g);
  ReferenceHeights ref(g.num_nodes(), 0);
  for (const auto& [u, v] : g.edges()) ref.add_link(u, v);
  ref.set_destination(15);
  ref.stabilize();

  for (NodeId failed = 15; failed >= 13; --failed) {
    ASSERT_EQ(service.leader(), std::optional<NodeId>(failed));
    const auto before = ref.adjacency();
    for (const NodeId v : before[failed]) ref.remove_link(failed, v);
    ref.set_destination(failed - 1);
    const std::uint64_t steps = ref.stabilize();
    EXPECT_EQ(service.fail_node(failed), steps) << "failed " << failed;
    const DynamicHeightsDag& dag = service.dag();
    EXPECT_FALSE(dag.routable(failed));
    const auto adj = ref.adjacency();
    const std::vector<bool> in_component = ref.component(adj);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      ASSERT_EQ(dag.height(u), ref.height(u)) << "failed " << failed << " node " << u;
      ASSERT_EQ(dag.routable(u), in_component[u]) << "failed " << failed << " node " << u;
      ASSERT_EQ(dag.route(u), ref.route(adj, u)) << "failed " << failed << " node " << u;
    }
    EXPECT_TRUE(service.leader_reachable_from_all());
  }
}

}  // namespace
}  // namespace lr
