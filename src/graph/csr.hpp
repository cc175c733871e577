#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/orientation.hpp"

/// \file csr.hpp
/// The immutable compressed-sparse-row (CSR) execution core.
///
/// `Graph` is the *build/mutation front-end*: it validates edges, supports
/// binary-searched lookups, and is the representation every constructor in
/// the library accepts.  `CsrGraph` is the *execution back-end*: a frozen,
/// fully flat snapshot of one graph plus one initial orientation, designed
/// so that the reversal hot path (core/reversal_engine.hpp) touches nothing
/// but contiguous integer arrays — no `Incidence` pairs, no per-step
/// allocation, no binary searches inside kernels.
///
/// Three flat views are precomputed at conversion time:
///
///  1. **Adjacency** — `neighbors(u)` / `incident_edges(u)` spans in
///     ascending neighbor order (identical order to `Graph::neighbors`),
///     addressed by a global *position* `p` in `[0, 2m)`.
///  2. **Mirrors** — `mirror(p)` maps position `p` (edge `e` seen from `u`)
///     to the position of the same edge in the other endpoint's adjacency
///     block.  This is what lets Partial Reversal update `list[v]` in O(1)
///     per reversed edge instead of re-binary-searching `v`'s adjacency.
///  3. **Initial in/out partition** — per node, the positions (and neighbor
///     ids) of its initial in-edges and initial out-edges with respect to
///     the *initial* orientation, as O(1) spans.  These are the paper's
///     constant sets `in-nbrs_u` / `out-nbrs_u` that NewPR reverses by
///     parity, so the NewPR kernel touches exactly the set it flips.
///
/// Storage modes: a CsrGraph normally *owns* its eight arrays, but it can
/// also be a non-owning *borrowed* view over externally owned memory —
/// the zero-fixup reload mode of the mmap snapshot layer
/// (graph/snapshot.hpp): every array is stored in the snapshot file
/// exactly as it lives in memory, so loading is `mmap` + eight span
/// bindings, no parsing and no per-element work.  All read accessors go
/// through spans either way, so the engine cannot tell the modes apart.
/// Mutating a borrowed snapshot (insert_link / remove_link) first
/// *materializes* it — copies the views into owning vectors — because the
/// borrowed memory may be a read-only shared mapping.
///
/// A `CsrGraph` never changes during an execution; mutable execution state
/// (current edge senses, out-degrees, lists, parities) lives in the engine.
/// Between executions, however, a snapshot can be *patched in place* for
/// single-link topology events (`insert_link` / `remove_link`): one linear
/// pass over the flat arrays instead of a `Graph` reconstruction plus a
/// full rebuild.  The dynamic routing core (routing/dynamic_heights.hpp)
/// uses this to keep churn-heavy TORA sweeps rebuild-free.

namespace lr {

class CsrBuilder;

/// Flat CSR snapshot of a `Graph` plus an initial orientation; immutable
/// during execution, patchable between executions (see insert_link).
class CsrGraph {
 public:
  /// An empty CSR graph (0 nodes); useful as a placeholder before assignment.
  CsrGraph() = default;

  /// Converts `g` using the all-forward initial orientation (every edge
  /// pointing from its smaller to its larger endpoint, the canonical
  /// sense).  `g` may be destroyed afterwards: the CSR form is self-owned.
  explicit CsrGraph(const Graph& g);

  /// Converts `g` with the given initial orientation (one sense per edge,
  /// as stored by `Orientation::senses()` and `Instance::senses`).  Throws
  /// std::invalid_argument if `initial.size() != g.num_edges()`.
  CsrGraph(const Graph& g, std::span<const EdgeSense> initial);

  /// Copying preserves the storage mode: an owning snapshot deep-copies
  /// its arrays (views rebound to the copy), a borrowed one copies the
  /// views (both copies alias the same external memory).
  CsrGraph(const CsrGraph& other);
  /// \copydoc CsrGraph(const CsrGraph&)
  CsrGraph& operator=(const CsrGraph& other);
  /// Moving transfers the arrays (or the borrowed views) wholesale; the
  /// moved-from graph is left empty.
  CsrGraph(CsrGraph&& other) noexcept;
  /// \copydoc CsrGraph(CsrGraph&&)
  CsrGraph& operator=(CsrGraph&& other) noexcept;
  ~CsrGraph() = default;

  /// The eight flat arrays of one snapshot as externally owned spans —
  /// the input of `borrow()`.  Lifetime: the spans must outlive the
  /// borrowed CsrGraph (the snapshot layer keeps the mmap alive for
  /// exactly that reason).
  struct BorrowedArrays {
    std::size_t num_nodes = 0;           ///< n
    std::span<const CsrPos> offsets;     ///< size n+1
    std::span<const NodeId> nbr;         ///< size 2m
    std::span<const EdgeId> edge;        ///< size 2m
    std::span<const CsrPos> mirror;      ///< size 2m
    std::span<const NodeId> part_nbr;    ///< size 2m
    std::span<const CsrPos> part_pos;    ///< size 2m
    std::span<const CsrPos> split;       ///< size n
    std::span<const EdgeSense> senses;   ///< size m
  };

  /// A non-owning snapshot over `arrays` (see the file comment's storage
  /// modes).  Throws std::invalid_argument when the span sizes are
  /// mutually inconsistent.  The arrays' *contents* are trusted — the
  /// snapshot layer validates a checksum before borrowing.
  static CsrGraph borrow(const BorrowedArrays& arrays);

  /// True iff this snapshot is a non-owning view (see borrow()).
  bool is_borrowed() const noexcept { return borrowed_; }

  /// Converts a borrowed snapshot into an owning one by copying the
  /// borrowed memory into fresh vectors; no-op on an owning snapshot.
  /// After this the external memory may be unmapped.
  void materialize();

  /// Number of nodes.
  std::size_t num_nodes() const noexcept { return num_nodes_; }

  /// Number of undirected edges.
  std::size_t num_edges() const noexcept { return v_senses_.size(); }

  /// First flat position of node `u`'s adjacency block.
  CsrPos adjacency_begin(NodeId u) const { return v_offsets_[u]; }

  /// One past the last flat position of node `u`'s adjacency block.
  CsrPos adjacency_end(NodeId u) const { return v_offsets_[u + 1]; }

  /// Neighbor at flat position `p`.
  NodeId neighbor_at(CsrPos p) const { return v_nbr_[p]; }

  /// Edge id at flat position `p`.
  EdgeId edge_at(CsrPos p) const { return v_edge_[p]; }

  /// Position of the same edge inside the *other* endpoint's block.
  CsrPos mirror(CsrPos p) const { return v_mirror_[p]; }

  /// Flat position of neighbor `v` inside `u`'s adjacency block, or
  /// nullopt when `v` is not adjacent to `u`.  O(log deg(u)) over the
  /// ascending neighbor slice — the one lookup the sim layer's
  /// view-by-position state and the network's adjacency checks share.
  std::optional<CsrPos> position_of(NodeId u, NodeId v) const {
    const auto nbrs = neighbors(u);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
    if (it == nbrs.end() || *it != v) return std::nullopt;
    return v_offsets_[u] + static_cast<CsrPos>(it - nbrs.begin());
  }

  /// Degree of node `u`.
  std::size_t degree(NodeId u) const { return v_offsets_[u + 1] - v_offsets_[u]; }

  /// All neighbors of `u`, ascending (same order as `Graph::neighbors`).
  std::span<const NodeId> neighbors(NodeId u) const {
    return v_nbr_.subspan(v_offsets_[u], degree(u));
  }

  /// Edge ids incident to `u`, aligned with `neighbors(u)`.
  std::span<const EdgeId> incident_edges(NodeId u) const {
    return v_edge_.subspan(v_offsets_[u], degree(u));
  }

  /// The initial orientation this CSR snapshot was built with.
  std::span<const EdgeSense> initial_senses() const noexcept { return v_senses_; }

  /// The paper's constant set `in-nbrs_u` (ascending) as an O(1) slice.
  std::span<const NodeId> initial_in_neighbors(NodeId u) const {
    return v_part_nbr_.subspan(v_offsets_[u], v_split_[u] - v_offsets_[u]);
  }

  /// The paper's constant set `out-nbrs_u` (ascending) as an O(1) slice.
  std::span<const NodeId> initial_out_neighbors(NodeId u) const {
    return v_part_nbr_.subspan(v_split_[u], v_offsets_[u + 1] - v_split_[u]);
  }

  /// Flat adjacency positions of `u`'s initial in-edges (aligned with
  /// `initial_in_neighbors`); the NewPR even-parity reversal set.
  std::span<const CsrPos> initial_in_positions(NodeId u) const {
    return v_part_pos_.subspan(v_offsets_[u], v_split_[u] - v_offsets_[u]);
  }

  /// Flat adjacency positions of `u`'s initial out-edges (aligned with
  /// `initial_out_neighbors`); the NewPR odd-parity reversal set.
  std::span<const CsrPos> initial_out_positions(NodeId u) const {
    return v_part_pos_.subspan(v_split_[u], v_offsets_[u + 1] - v_split_[u]);
  }

  /// |in-nbrs_u| with respect to the initial orientation.
  std::size_t initial_in_degree(NodeId u) const { return v_split_[u] - v_offsets_[u]; }

  /// |out-nbrs_u| with respect to the initial orientation.
  std::size_t initial_out_degree(NodeId u) const { return v_offsets_[u + 1] - v_split_[u]; }

  /// True iff the edge at position `p` points *out of* the block owner `u`
  /// under the given current senses.  Canonical endpoint order makes this a
  /// pure comparison: forward means smaller-id -> larger-id.
  bool points_out_of(CsrPos p, NodeId u, std::span<const EdgeSense> senses) const {
    return (senses[v_edge_[p]] == EdgeSense::kForward) == (u < v_nbr_[p]);
  }

  // -------------------------------------------------------------------------
  // Whole-array views (the snapshot writer's and the test suite's flat
  // window into one snapshot; kernels use the per-node accessors above)
  // -------------------------------------------------------------------------

  /// Block-boundary offsets, size n+1.
  std::span<const CsrPos> raw_offsets() const noexcept { return v_offsets_; }
  /// Neighbor ids by position, size 2m.
  std::span<const NodeId> raw_neighbors() const noexcept { return v_nbr_; }
  /// Edge ids by position, size 2m.
  std::span<const EdgeId> raw_edges() const noexcept { return v_edge_; }
  /// Mirror positions, size 2m.
  std::span<const CsrPos> raw_mirrors() const noexcept { return v_mirror_; }
  /// Partition neighbor ids, size 2m.
  std::span<const NodeId> raw_partition_neighbors() const noexcept { return v_part_nbr_; }
  /// Partition adjacency positions, size 2m.
  std::span<const CsrPos> raw_partition_positions() const noexcept { return v_part_pos_; }
  /// Out-block start per node, size n.
  std::span<const CsrPos> raw_splits() const noexcept { return v_split_; }

  /// FNV-1a fingerprint over every array of the snapshot (offsets,
  /// adjacency, mirrors, partition, splits, senses, node count).  Two
  /// snapshots with equal fingerprints are byte-identical for every
  /// accessor — the self-verification hook of the E10 bench and the
  /// streaming-vs-batch identity tests.
  std::uint64_t fingerprint() const;

  // -------------------------------------------------------------------------
  // Single-link in-place patching (the incremental snapshot-repair path)
  // -------------------------------------------------------------------------
  //
  // Both calls keep every class invariant — adjacency order, mirror links,
  // the initial in/out partition, and edge-id numbering — via one linear
  // pass over the flat arrays, so a patched snapshot is *byte-identical*
  // to one rebuilt from scratch over the modified edge list
  // (tests/csr_test.cpp locks this in under randomized churn).
  //
  // Precondition (documented, not checked): edge ids must ascend in
  // canonical (min, max) endpoint order, i.e. the snapshot was built from
  // a Graph over a canonically sorted edge list.  Patching preserves the
  // property, so any number of patches may be chained.  (The routing core
  // keeps its own per-node neighbour lists and does not patch CSR; these
  // calls serve the E10.3 patch series and the tests.)
  //
  // A borrowed snapshot is materialized first (one array copy), then
  // patched: the mmap'd bytes stay pristine for other processes.

  /// Patches the link {u, v} into the snapshot with initial sense `sense`
  /// for the new edge (forward = min -> max, the canonical default).
  /// Throws std::invalid_argument on bad endpoints or an existing link.
  /// O(n + m) array shifting — no allocation beyond vector growth, no
  /// Graph reconstruction, no re-sorting.
  void insert_link(NodeId u, NodeId v, EdgeSense sense = EdgeSense::kForward);

  /// Patches the link {u, v} out of the snapshot.  Throws
  /// std::invalid_argument on bad endpoints or an absent link.  Same cost
  /// model as insert_link.
  void remove_link(NodeId u, NodeId v);

 private:
  friend class CsrBuilder;

  void build(const Graph& g, std::span<const EdgeSense> initial);
  /// Derives part_nbr_ / part_pos_ / split_ from the completed adjacency
  /// arrays and initial_senses_ (views must already be bound).
  void fill_partition();
  /// Points the read views at the owning vectors.
  void rebind() noexcept;

  std::size_t num_nodes_ = 0;
  bool borrowed_ = false;

  // Owning storage; empty while borrowed (until materialize()).
  std::vector<CsrPos> offsets_;            ///< size n+1; block boundaries
  std::vector<NodeId> nbr_;                ///< size 2m; neighbors, ascending per block
  std::vector<EdgeId> edge_;               ///< size 2m; edge ids, aligned with nbr_
  std::vector<CsrPos> mirror_;             ///< size 2m; same edge, other endpoint
  std::vector<NodeId> part_nbr_;           ///< size 2m; [in-block | out-block] per node
  std::vector<CsrPos> part_pos_;           ///< size 2m; adjacency positions, aligned
  std::vector<CsrPos> split_;              ///< size n; where the out-block starts
  std::vector<EdgeSense> initial_senses_;  ///< size m; the frozen initial orientation

  // Read views: every accessor indexes these, so owning and borrowed
  // snapshots share one code path.  Bound to the vectors above (owning)
  // or to external memory (borrowed).
  std::span<const CsrPos> v_offsets_;
  std::span<const NodeId> v_nbr_;
  std::span<const EdgeId> v_edge_;
  std::span<const CsrPos> v_mirror_;
  std::span<const NodeId> v_part_nbr_;
  std::span<const CsrPos> v_part_pos_;
  std::span<const CsrPos> v_split_;
  std::span<const EdgeSense> v_senses_;
};

/// Streaming two-pass CSR construction — the million-node build path.
///
/// `CsrGraph(const Graph&)` is the *batch* converter: it requires the
/// fully materialized `Graph` front-end, which itself holds an endpoint
/// list, a sorted scratch copy for duplicate detection, and an `Incidence`
/// CSR payload — three m-sized intermediates that exist only to be copied
/// into the snapshot and thrown away.  `CsrBuilder` eliminates all of
/// them: the caller replays its edge *stream* twice — once to count
/// degrees, once to place both endpoints of each edge (mirrors are linked
/// at placement, so the batch path's per-edge `first_pos` scratch array
/// disappears too) — and the only allocations are the snapshot's own
/// eight output arrays.  Work is O(V + E); peak memory is the finished
/// snapshot, nothing else.
///
/// Stream contract (checked, throws std::invalid_argument on violation):
/// both passes must replay the *identical* sequence of edges in strictly
/// ascending canonical (min, max) lexicographic order — which generators
/// emit naturally, and which makes validation free: strict ascent implies
/// no duplicates, and self-loops/range are checked per edge.  Edge ids
/// are stream ranks, exactly the canonical-rank numbering the
/// `insert_link` / `remove_link` patch path requires, so a streamed
/// snapshot is patchable from birth.  Per-block neighbor ascent falls out
/// of the stream order: node `w`'s block receives its smaller neighbors
/// (from edges `(x, w)`, `x` ascending) before its larger ones (from
/// edges `(w, y)`, `y` ascending).
///
/// The 32-bit position space (graph/types.hpp offset-width policy) is
/// guarded at `begin_placement()`: 2·E >= 2^32 throws std::overflow_error
/// before any position array is allocated.  `position_limit` exists so
/// tests can exercise the guard without allocating 2^31 edges.
///
/// Usage:
///
///     CsrBuilder b(n);
///     for (auto [u, v] : stream) b.count_edge(u, v);      // pass 1
///     b.begin_placement();
///     for (auto [u, v] : stream) b.place_edge(u, v, s);   // pass 2
///     CsrGraph csr = b.finish();
///
/// A streamed snapshot is byte-identical (CsrGraph::fingerprint) to the
/// batch conversion of a Graph over the same canonically sorted edge
/// list; tests/csr_builder_test.cpp locks this in under randomized
/// streams.
class CsrBuilder {
 public:
  /// Starts a build over `num_nodes` nodes.  `position_limit` caps the
  /// adjacency position space (default: the 32-bit CsrPos limit); it is a
  /// test hook, not a tuning knob.
  explicit CsrBuilder(std::size_t num_nodes, std::uint64_t position_limit = kCsrPosLimit);

  /// Pass 1: counts one edge.  Validates range, self-loops, and strict
  /// canonical ascent against the previous counted edge.
  void count_edge(NodeId u, NodeId v);

  /// Ends pass 1: checks the position-space bound (std::overflow_error
  /// when 2·E >= the limit), prefix-sums the degree counts, and allocates
  /// the position arrays.
  void begin_placement();

  /// Pass 2: places both endpoints of the next edge and links their
  /// mirror positions.  The sequence must replay pass 1 exactly (same
  /// edges, same order); `sense` is the edge's initial orientation.
  void place_edge(NodeId u, NodeId v, EdgeSense sense = EdgeSense::kForward);

  /// Number of edges counted so far (pass 1) / placed so far (pass 2).
  std::size_t edges() const noexcept { return placing_ ? placed_ : counted_; }

  /// Finishes the build: restores the offset array, derives the initial
  /// in/out partition, and returns the snapshot.  Throws
  /// std::invalid_argument when pass 2 placed fewer edges than pass 1
  /// counted.  The builder is spent afterwards.
  CsrGraph finish();

 private:
  /// Validates the next streamed edge of either pass (range, self-loop,
  /// strict canonical ascent), updates the ascent state, and returns the
  /// canonical (min, max) pair.  `index` is the edge's rank in its pass.
  std::pair<NodeId, NodeId> next_edge(NodeId u, NodeId v, std::size_t index);

  CsrGraph out_;
  std::uint64_t position_limit_;
  std::size_t counted_ = 0;
  std::size_t placed_ = 0;
  bool placing_ = false;
  NodeId prev_a_ = 0;  ///< last canonical pair seen (ascent check)
  NodeId prev_b_ = 0;
};

}  // namespace lr
