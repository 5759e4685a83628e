// Vertex partitioning for the sharded runtime.
//
// A Partition splits the vertex set into `num_shards` ownership classes.
// Each shard owns a contiguous-ish block of the overlay (BFS-grown, then
// greedily refined to shrink the edge cut) and additionally *ghosts* the
// vertices it can see but does not own: every non-owned endpoint of an
// arc incident to an owned vertex.  Ghosts are the read-only possession
// replicas the barrier protocol keeps fresh between steps; the arcs
// that cross shards (counted in PartitionStats::cut_arcs) carry all of
// the barrier's delivery traffic.
//
// The partitioner is deterministic and seedless: the same (graph,
// options) always yields the same Partition, on every shard of every
// transport — the runtime relies on this to let each process derive the
// partition independently instead of shipping it.
//
// Two refinement stages run after the BFS-grown seed blocks:
//
//   * greedy sweeps — move vertices to their neighbor-majority shard
//     where the balance band allows it (cheap, local);
//   * flow refinement (opt-in) — FlowCutter-style pair improvement:
//     for every adjacent block pair, extract the region around the
//     boundary, contract the remainder of each block into an s/t
//     terminal, solve s-t max-flow over the unit-capacity undirected
//     skeleton (ocd/flow/max_flow.hpp), and adopt the min cut's
//     reassignment when it shrinks the pair cut within the band.
//
// Both stages honor the same balance band: with slack ε (percent,
// resolve_balance_eps / OCD_SHARD_BALANCE_EPS) ownership sizes may
// range over [max(1, ⌊n/k⌋ - ⌊ε·⌊n/k⌋/100⌋), ⌈n/k⌉ + ⌊ε·⌊n/k⌋/100⌋].
// ε = 0 keeps the historical exact band [⌊n/k⌋, ⌈n/k⌉] — note that
// band pins every class size when k | n, which froze the greedy sweep
// entirely until ε existed (flow refinement can still improve a tight
// band via offsetting swaps between the two sides).
#pragma once

#include <cstdint>
#include <vector>

#include "ocd/graph/digraph.hpp"

namespace ocd::shard {

/// Edge-cut quality report, printed by bench/fig_shard and asserted
/// loosely by tests (a partitioner regression shows up as a cut blowup).
struct PartitionStats {
  std::int32_t num_shards = 1;
  std::int64_t total_arcs = 0;
  std::int64_t cut_arcs = 0;        ///< arcs crossing shards
  std::int64_t min_owned = 0;       ///< smallest ownership class
  std::int64_t max_owned = 0;       ///< largest ownership class
  std::int64_t total_ghosts = 0;    ///< sum of per-shard ghost counts

  [[nodiscard]] double cut_fraction() const noexcept {
    return total_arcs == 0
               ? 0.0
               : static_cast<double>(cut_arcs) /
                     static_cast<double>(total_arcs);
  }
};

struct Partition {
  std::int32_t num_shards = 1;
  /// Owning shard per vertex.
  std::vector<std::int32_t> shard_of;
  /// Owned vertices per shard, ascending.
  std::vector<std::vector<VertexId>> owned;
  /// Ghost vertices per shard (non-owned endpoints of arcs incident to
  /// owned vertices, either direction), ascending.
  std::vector<std::vector<VertexId>> ghosts;
  PartitionStats stats;
};

/// Resolves a balance-band slack request (percent of ⌊n/k⌋): values in
/// [0, 100] pass through, -1 consults OCD_SHARD_BALANCE_EPS (validated
/// as a non-negative integer <= 100, throwing ocd::Error on garbage),
/// defaulting to 0 — the historical exact band, so existing partitions
/// stay bit-compatible unless a caller or the environment opts in.
std::int32_t resolve_balance_eps(std::int32_t requested);

struct PartitionOptions {
  std::int32_t num_shards = 1;
  /// Greedy neighbor-majority refinement sweep budget (see below).
  std::int32_t refinement_sweeps = 1;
  /// Balance slack ε in percent; -1 = consult OCD_SHARD_BALANCE_EPS
  /// (default 0, the exact band).  See resolve_balance_eps.
  std::int32_t balance_eps = -1;
  /// Opt-in flow-based pair refinement after the greedy sweeps.  Off by
  /// default: the flow stage is bit-compatible only with itself.
  bool flow_refine = false;
  /// Per-side cap on the boundary region the flow stage extracts from
  /// each block of a pair; 0 picks max(256, 4 * (hi - lo + 1), 2 *
  /// boundary vertices on that side) — a region smaller than its own
  /// boundary cannot improve anything.  Either way a region never
  /// exceeds half its block, so the contracted core anchoring the s/t
  /// terminal stays non-empty.  Larger regions find better cuts and
  /// cost more flow time; the core outside the region is contracted
  /// into the s/t terminals either way, so any cap yields a valid
  /// refinement.
  std::int32_t flow_region_limit = 0;
};

/// Partitions the graph's vertices into `num_shards` ownership classes:
/// BFS-grow blocks of (near-)equal size in deterministic traversal
/// order, then up to `refinement_sweeps` greedy refinement sweeps, each
/// moving vertices to their neighbor-majority shard where that strictly
/// reduces the cut without breaking the size bounds.  Sweeps after the
/// first act on the previous sweep's labels, so they keep converging
/// toward a local cut minimum; the loop stops early at the first sweep
/// that moves nothing.  0 sweeps = raw BFS blocks; the runtime default
/// is 1 (bit-compatible with the historical single-sweep partition);
/// bench/fig_shard reports the cut reduction of deeper refinement.
/// Requires 1 <= num_shards <= num_vertices and refinement_sweeps >= 0.
Partition partition_vertices(const Digraph& graph, std::int32_t num_shards,
                             std::int32_t refinement_sweeps = 1);

/// As above with the full option set: the eps-relaxed balance band and,
/// when options.flow_refine is set, one pass of flow-based min-cut
/// refinement over every adjacent block pair in ascending (a, b) order
/// after the greedy sweeps.  A pair's reassignment is adopted only when
/// it strictly shrinks that pair's cut and both new sizes stay inside
/// the band (the source-reachable min cut is tried first, then the
/// sink-reaching one; if both are out of band the pair is retried on a
/// band-safe corridor whose region caps make every cut adoptable).
/// Deterministic and seedless like the two-arg
/// overload, which it generalizes: {k, sweeps, balance_eps: 0,
/// flow_refine: false} reproduces it bit-for-bit.
Partition partition_vertices(const Digraph& graph,
                             const PartitionOptions& options);

}  // namespace ocd::shard
