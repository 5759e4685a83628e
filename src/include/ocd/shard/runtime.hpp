// Vertex-sharded simulation runtime.
//
// run_sharded() replays the single-process simulator's synchronous
// round loop across `num_shards` shards, each owning a block of the
// vertex partition (ocd/shard/partition.hpp).  Per step, every shard:
//
//   plan    — plans sends for its owned vertices only (via
//             Policy::plan_shard on a shard-local StepView), validates
//             them, applies the fault model's per-(step, arc) loss, and
//             routes surviving cross-shard deliveries as BinStream
//             messages to the destination's owner;
//   apply   — merges inbound deliveries into its owned possession rows
//             and prepares ghost updates for the shards that replicate
//             its owned vertices;
//   commit  — identical on every shard: folds the broadcast summaries
//             (empty/idle flags, move/loss/useful counters, aggregate
//             deltas, unsatisfied counts) into the replicated global
//             decision state, so termination, the watchdog, and the
//             aggregate vectors never need a coordinator.
//
// Bit-identity guarantee: for every supported planner the merged
// schedule and RunStats are bit-for-bit identical to sim::run on the
// same (instance, options), for every shard count and both transports —
// pinned by tests/shard/determinism_test.cpp.  The supported planners
// (round-robin, random, local) plan each vertex independently
// (plan_shard contract), all randomness is derived per-(step,
// coordinate) rather than drawn from execution-order-dependent streams
// (util::derive_seed), and merges are keyed sums or deterministic sorts.
//
// Envelope: the kGlobal planners (global, bandwidth) are refused with
// ocd::Error — each makes one greedy decision over global state per
// step, so sharding cannot split their work.  Staleness, stale
// aggregates, dynamics models, completion overrides, precomputed
// distances, and adapter-wrapped policies ("+reliable") are refused
// too — each would need state the barrier protocol does not replicate.
// Fault models are supported verbatim.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ocd/core/instance.hpp"
#include "ocd/shard/partition.hpp"
#include "ocd/shard/recovery.hpp"
#include "ocd/sim/simulator.hpp"

namespace ocd::shard {

enum class TransportKind : std::uint8_t {
  /// Shards stepped as chunks of the ocd::util worker pool, messages
  /// through in-memory mailboxes (still BinStream-encoded, same codec
  /// path as the process transport).  The tests/CI default.
  kInProcess,
  /// One process per shard (fork), a socketpair star routed by the
  /// parent.  Breaks the single-address-space ceiling on one host:
  /// each child's private state is its possession slice + planner
  /// scratch; the instance is shared copy-on-write.
  kForked,
};

struct ShardOptions {
  /// Shard count; 0 resolves OCD_SHARDS from the environment
  /// (validated), defaulting to 1.
  std::int32_t num_shards = 0;
  TransportKind transport = TransportKind::kInProcess;
  /// Hard deadline on every cross-process read and write in the forked
  /// transport.  A peer that neither answers nor dies within this
  /// window is declared hung: killed and respawned when recovery is
  /// armed, surfaced as a field-named ocd::Error otherwise — never a
  /// silent stall.  Generous by default because a child legitimately
  /// waits its turn while the parent drains its siblings.
  std::int64_t barrier_timeout_ms = 120'000;
  /// Crash tolerance: checkpoint cadence, respawn budget, scripted
  /// failure injection (ocd/shard/recovery.hpp).
  RecoveryOptions recovery;
  /// Partition balance slack ε in percent; -1 consults
  /// OCD_SHARD_BALANCE_EPS (validated, default 0 — the historical exact
  /// band).  A resolved ε > 0 also enables the flow-based min-cut
  /// refinement stage (shard/partition.hpp), trading a bounded
  /// ownership imbalance for fewer cut arcs and hence less barrier
  /// traffic.  The merged schedule is bit-identical either way —
  /// partitioning only moves ownership, never planning decisions.
  std::int32_t balance_eps = -1;
  /// Simulator options; see the envelope note above for the supported
  /// subset.  faults (if any) must outlive the run.
  sim::SimOptions sim;
};

/// Resolves a requested shard count: positive values pass through,
/// 0 consults OCD_SHARDS (throwing ocd::Error on garbage), else 1.
std::int32_t resolve_num_shards(std::int32_t requested);

/// Runs `policy_name` (round-robin / random / local — each shard
/// constructs its own instance via heuristics::make_policy) over the
/// instance, sharded.  Throws ocd::Error for unsupported policies and
/// options.
/// The result is bit-identical to sim::run for every shard count.
sim::RunResult run_sharded(const core::Instance& instance,
                           std::string_view policy_name,
                           const ShardOptions& options);

/// As run_sharded with a precomputed partition (must match
/// resolve_num_shards(options.num_shards) shards).
sim::RunResult run_sharded(const core::Instance& instance,
                           std::string_view policy_name,
                           const ShardOptions& options,
                           const Partition& partition);

}  // namespace ocd::shard
