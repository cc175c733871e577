#include "routing/dynamic_heights.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

namespace lr {

DynamicHeightsDag::DynamicHeightsDag(std::size_t num_nodes, NodeId destination)
    : destination_(destination), adj_(num_nodes), a_(num_nodes, 0), b_(num_nodes),
      out_degree_(num_nodes, 0) {
  if (destination >= num_nodes) {
    throw std::invalid_argument("DynamicHeightsDag: destination out of range");
  }
  // Distinct b values make the initial height order total and deterministic.
  // Ascending in id, so orienting towards a high-id destination (e.g. a
  // newly elected leader) genuinely exercises reversals.
  for (NodeId u = 0; u < num_nodes; ++u) b_[u] = static_cast<std::int64_t>(u);
}

DynamicHeightsDag::DynamicHeightsDag(const Graph& topology, NodeId destination)
    : DynamicHeightsDag(topology.num_nodes(), destination) {
  // Exact-size lists (a Graph has no self loops or parallel edges), then
  // one sort each for the ascending order every query loop relies on.
  std::vector<std::uint32_t> degree(num_nodes(), 0);
  for (const auto& [u, v] : topology.edges()) {
    ++degree[u];
    ++degree[v];
  }
  for (NodeId u = 0; u < num_nodes(); ++u) adj_[u].reserve(degree[u]);
  for (const auto& [u, v] : topology.edges()) {
    adj_[u].push_back(v);
    adj_[v].push_back(u);
    ++out_degree_[directed_from(u, v) ? u : v];
  }
  for (std::vector<NodeId>& list : adj_) std::sort(list.begin(), list.end());
}

void DynamicHeightsDag::set_destination(NodeId d) {
  if (d >= num_nodes()) {
    throw std::invalid_argument("DynamicHeightsDag::set_destination: out of range");
  }
  if (d == destination_) return;
  // Heights (and thus directions) are unaffected; the component is the same
  // set whenever d already lies in it.
  if (!component_stale_ && !component_[d]) component_stale_ = true;
  destination_ = d;
  settled_ = false;
}

void DynamicHeightsDag::add_link(NodeId u, NodeId v) {
  if (u >= num_nodes() || v >= num_nodes() || u == v) {
    throw std::invalid_argument("DynamicHeightsDag::add_link: bad endpoints");
  }
  std::vector<NodeId>& from_u = adj_[u];
  const auto it = std::lower_bound(from_u.begin(), from_u.end(), v);
  if (it != from_u.end() && *it == v) return;  // already present
  from_u.insert(it, v);
  std::vector<NodeId>& from_v = adj_[v];
  from_v.insert(std::lower_bound(from_v.begin(), from_v.end(), u), u);
  ++out_degree_[directed_from(u, v) ? u : v];
  ++link_edits_;
  settled_ = false;
  // Only a link from inside the component to outside it can grow it.
  if (!component_stale_ && component_[u] != component_[v]) component_stale_ = true;
}

void DynamicHeightsDag::remove_link(NodeId u, NodeId v) {
  if (u >= num_nodes() || v >= num_nodes()) {
    throw std::invalid_argument("DynamicHeightsDag::remove_link: bad endpoints");
  }
  std::vector<NodeId>& from_u = adj_[u];
  const auto it = std::lower_bound(from_u.begin(), from_u.end(), v);
  if (it == from_u.end() || *it != v) return;  // absent
  from_u.erase(it);
  std::vector<NodeId>& from_v = adj_[v];
  from_v.erase(std::lower_bound(from_v.begin(), from_v.end(), u));
  const NodeId tail = directed_from(u, v) ? u : v;
  --out_degree_[tail];
  ++link_edits_;
  if (!component_stale_) {
    // The component survives when the link lay outside it; when the DAG
    // was destination-oriented and the tail keeps an out-link (downhill
    // paths from the tail's other out-neighbours and from the head reach
    // the destination through nodes below the tail, so never through the
    // removed link); or when a common neighbour still joins u and v.
    const bool keeps = !component_[u] || (settled_ && out_degree_[tail] > 0) ||
                       share_neighbor(u, v);
    if (!keeps) component_stale_ = true;
  }
  settled_ = false;
}

bool DynamicHeightsDag::has_link(NodeId u, NodeId v) const {
  return u < num_nodes() && std::binary_search(adj_[u].begin(), adj_[u].end(), v);
}

bool DynamicHeightsDag::share_neighbor(NodeId u, NodeId v) const {
  const std::vector<NodeId>& x = adj_[u];
  const std::vector<NodeId>& y = adj_[v];
  auto i = x.begin();
  auto j = y.begin();
  while (i != x.end() && j != y.end()) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

std::span<const NodeId> DynamicHeightsDag::neighbors(NodeId u) const { return adj_[u]; }

bool DynamicHeightsDag::is_sink(NodeId u) const {
  return !adj_[u].empty() && out_degree_[u] == 0;
}

void DynamicHeightsDag::partial_reversal_step(NodeId u) {
  // u is a sink: every link points in, so no counter needs retracting.
  // One pass finds min a over the neighbours and min b among those whose
  // a is one above it (the tie level of the new height)...
  const std::vector<NodeId>& slice = adj_[u];
  constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::max();
  std::int64_t min_a = kNone;
  std::int64_t min_b_at_min = kNone;    // min b among a == min_a
  std::int64_t min_b_above_min = kNone; // min b among a == min_a + 1
  for (const NodeId v : slice) {
    const std::int64_t a = a_[v];
    if (a < min_a) {
      min_b_above_min = a + 1 == min_a ? min_b_at_min : kNone;
      min_a = a;
      min_b_at_min = b_[v];
    } else if (a == min_a) {
      min_b_at_min = std::min(min_b_at_min, b_[v]);
    } else if (a == min_a + 1) {
      min_b_above_min = std::min(min_b_above_min, b_[v]);
    }
  }
  a_[u] = min_a + 1;
  if (min_b_above_min != kNone) b_[u] = min_b_above_min - 1;
  // ...and one more moves each flipped link's count from its old tail v
  // to u (only u's height moved, so only u's links can have flipped).
  for (const NodeId v : slice) {
    if (directed_from(u, v)) {
      --out_degree_[v];
      ++out_degree_[u];
    }
  }
  ++total_reversals_;
}

const std::vector<bool>& DynamicHeightsDag::destination_component() const {
  if (!component_stale_) return component_;
  component_.assign(num_nodes(), false);
  std::vector<NodeId> frontier{destination_};
  component_[destination_] = true;
  while (!frontier.empty()) {
    const NodeId u = frontier.back();
    frontier.pop_back();
    for (const NodeId v : adj_[u]) {
      if (!component_[v]) {
        component_[v] = true;
        frontier.push_back(v);
      }
    }
  }
  component_stale_ = false;
  return component_;
}

std::uint64_t DynamicHeightsDag::stabilize() {
  const std::vector<bool>& in_component = destination_component();
  std::uint64_t steps = 0;
  // Simple work-list loop; a step can only create new sinks among the
  // stepping node's neighbors, so seed with all current sinks and chase.
  // Sink tests are O(1) through the out-degree counters.
  std::queue<NodeId> candidates;
  for (NodeId u = 0; u < num_nodes(); ++u) {
    if (u != destination_ && in_component[u] && is_sink(u)) candidates.push(u);
  }
  while (!candidates.empty()) {
    const NodeId u = candidates.front();
    candidates.pop();
    if (u == destination_ || !is_sink(u)) continue;
    partial_reversal_step(u);
    ++steps;
    for (const NodeId v : adj_[u]) {
      if (v != destination_ && in_component[v] && is_sink(v)) candidates.push(v);
    }
    if (is_sink(u)) candidates.push(u);  // defensive; cannot normally happen
  }
  settled_ = true;
  return steps;
}

bool DynamicHeightsDag::routable(NodeId u) const { return destination_component()[u]; }

std::optional<NodeId> DynamicHeightsDag::next_hop(NodeId u) const {
  if (u == destination_) return std::nullopt;
  std::optional<NodeId> best;
  for (const NodeId v : adj_[u]) {
    if (!directed_from(u, v)) continue;
    if (!best || height(v) < height(*best)) best = v;
  }
  return best;
}

std::optional<std::vector<NodeId>> DynamicHeightsDag::route(NodeId u) const {
  std::vector<NodeId> path{u};
  NodeId current = u;
  // Heights strictly decrease along the path, so it cannot loop; bound by n
  // anyway as a defensive measure.
  for (std::size_t hops = 0; hops <= num_nodes(); ++hops) {
    if (current == destination_) return path;
    const auto next = next_hop(current);
    if (!next) return std::nullopt;
    current = *next;
    path.push_back(current);
  }
  return std::nullopt;
}

}  // namespace lr
