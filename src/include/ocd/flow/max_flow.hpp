// Reusable s-t max-flow core.
//
// One solver object, two algorithms over the same residual network:
//
//   * run()         — Dinic's algorithm with the current-arc
//                     optimization: BFS level phases, iterative
//                     blocking-flow DFS that never rescans an arc it
//                     has already saturated or pruned within a phase.
//   * run_scaling() — the capacity-scaling variant: the same phases,
//                     restricted to residual capacities >= Δ for Δ
//                     halving from the largest power of two under the
//                     maximum capacity down to 1.  The final Δ = 1
//                     rounds are plain Dinic on what is left, so the
//                     result is exact; the early rounds route the fat
//                     paths first, which bounds augmentations by
//                     O(E log U) on networks with large capacities.
//
// Storage is CSR-style flat arrays throughout: arcs live in paired
// slots (arc 2i is add_edge() call i, arc 2i^1 its reverse) in flat
// to/from/capacity vectors, and adjacency is a counting-sorted offset +
// arc-id table rebuilt only when edges changed.  Every scratch buffer
// (levels, current-arc cursors, BFS queue, DFS path) is owned by the
// solver and only ever grows: once a MaxFlow instance has solved a
// network of some size, re-filling and re-solving networks of at most
// that size performs **zero heap allocations** — the contract the
// shard partitioner's per-pair refinement loop and the exact search's
// last-step check (exact/bnb.cpp) rely on, pinned by
// tests/flow/flow_alloc_test.cpp.
//
// The solver is deterministic: identical add_edge sequences yield
// identical flows, residual networks, and min-cut sides on every host.
#pragma once

#include <cstdint>
#include <vector>

#include "ocd/util/error.hpp"

namespace ocd::flow {

class MaxFlow {
 public:
  using Flow = std::int64_t;
  /// Largest admissible edge capacity.  Leaves headroom so that sums
  /// of parallel capacities and the scaling threshold never overflow.
  static constexpr Flow kInfinity =
      std::int64_t{1} << 60;

  MaxFlow() = default;

  /// Starts a fresh network of `num_vertices` vertices.  Previously
  /// grown buffers are kept (capacity is never released), so rebuilding
  /// same-or-smaller networks is allocation-free.
  void reset(std::int32_t num_vertices);

  /// Adds a directed edge with `capacity` and a paired reverse edge
  /// with `reverse_capacity` (0 = plain directed edge; equal values
  /// model an undirected edge).  Returns the edge id for flow().
  /// Requires 0 <= capacity, reverse_capacity <= kInfinity.
  std::int32_t add_edge(std::int32_t from, std::int32_t to, Flow capacity,
                        Flow reverse_capacity = 0);

  [[nodiscard]] std::int32_t num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::int32_t num_edges() const noexcept {
    return static_cast<std::int32_t>(to_.size() / 2);
  }

  /// Dinic max flow from `source` to `sink` over the *current* residual
  /// capacities (a second call continues where the first stopped and
  /// returns 0; use reload() to restart from the original capacities).
  /// Requires source != sink, both valid.
  Flow run(std::int32_t source, std::int32_t sink);

  /// Capacity-scaling Dinic; same contract and same final residual
  /// invariants as run(), identical return value on any network.
  Flow run_scaling(std::int32_t source, std::int32_t sink);

  /// Restores every residual capacity to its add_edge() value, so the
  /// same network can be re-solved (e.g. with the other algorithm).
  void reload();

  /// Flow pushed over edge `e` (an add_edge id) by the last run; the
  /// paired reverse edge's flow is its negation clamped at 0.
  [[nodiscard]] Flow flow(std::int32_t e) const {
    OCD_EXPECTS(e >= 0 && e < num_edges());
    const auto a = static_cast<std::size_t>(e) * 2;
    return init_cap_[a] - cap_[a];
  }

  /// After run()/run_scaling(): true iff `v` is on the source side of
  /// the canonical (source-reachable) min cut — reachable from the
  /// source in the final residual network.
  [[nodiscard]] bool in_source_side(std::int32_t v) const {
    OCD_EXPECTS(v >= 0 && v < n_);
    return level_[static_cast<std::size_t>(v)] >= 0;
  }

  /// Computes the other canonical min cut: the sink side becomes the
  /// set of vertices that can still reach the sink in the residual
  /// network (the inclusion-minimal sink side; the source-reachable cut
  /// is the inclusion-minimal source side).  Call after run().
  void compute_sink_side();
  [[nodiscard]] bool in_sink_side(std::int32_t v) const {
    OCD_EXPECTS(v >= 0 && v < n_);
    return sink_mark_[static_cast<std::size_t>(v)] != 0;
  }

 private:
  void build_csr();
  bool bfs(std::int32_t source, std::int32_t sink, Flow min_cap);
  Flow blocking_flow(std::int32_t source, std::int32_t sink, Flow min_cap);

  std::int32_t n_ = 0;
  // Paired arcs in flat arrays; arc a's reverse is a ^ 1.
  std::vector<std::int32_t> to_;
  std::vector<std::int32_t> from_;
  std::vector<Flow> cap_;       // residual capacities (mutated by runs)
  std::vector<Flow> init_cap_;  // capacities as added (for flow/reload)
  // CSR adjacency over arc ids, counting-sorted by from-vertex.
  bool csr_dirty_ = true;
  std::vector<std::int32_t> offsets_;  // n_ + 1
  std::vector<std::int32_t> adj_;      // arc ids grouped by from-vertex
  // Phase scratch: BFS levels double as the source-side marks (a vertex
  // is source-reachable iff the final, failed BFS levelled it).
  std::vector<std::int32_t> level_;
  std::vector<std::int32_t> cur_;    // current-arc cursor per vertex
  std::vector<std::int32_t> queue_;  // BFS ring buffer
  std::vector<std::int32_t> path_;   // DFS path as arc ids
  std::vector<char> sink_mark_;      // compute_sink_side() result
  std::int32_t last_sink_ = -1;
};

}  // namespace ocd::flow
