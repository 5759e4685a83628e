// Crash tolerance for the vertex-sharded runtime.
//
// Three pieces, shared by both transports:
//
//   * Checkpoint — the complete restartable state of one ShardWorker
//     (possession rows incl. ghosts, replicated decision state, policy
//     RNG/cursor state, the fault cursor, shard-0 series, schedule
//     fragment), BinStream-encoded with the codec's usual hostile-input
//     discipline: every field is named, counts are bounds-checked, a
//     checkpoint presented to the wrong shard is rejected.
//
//   * CrashPlan — scripted crash/hang injection, the failure-side
//     mirror of faults::FaultPlan: exact (shard, step, phase) kill
//     points plus a seeded random model whose decisions derive per
//     (seed, shard, step, phase) so they are identical across
//     transports and respawns.  Scripted points and the random model
//     fire only on a worker's first incarnation (so a respawned worker
//     makes progress); crash_always() points fire on every incarnation
//     (for respawn-exhaustion tests).
//
//   * RecoveryOptions — the knobs run_sharded threads into the
//     transports: checkpoint cadence (0 consults
//     OCD_SHARD_CHECKPOINT_INTERVAL, else off), the per-shard respawn
//     budget, and an optional CrashPlan.
//
// The recovery invariant (pinned by tests/shard/recovery_test.cpp): a
// run with any schedule of injected crashes produces a schedule and
// RunStats bit-identical to the crash-free run, except the four
// recovery counters.  See docs/MODEL.md "Crash model & recovery".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ocd/core/schedule.hpp"
#include "ocd/util/token_matrix.hpp"

namespace ocd::util {
class BinStream;
}

namespace ocd::shard {

/// The barrier phases a worker can be killed in front of.  A crash
/// "at" a phase destroys the worker before the phase executes.  The
/// numeric values are pinned so seeded random crash schedules stay
/// stable.
enum class CrashPhase : std::uint8_t {
  kPlan = 0,
  kApply = 1,
  kCommit = 2,
};

enum class CrashAction : std::uint8_t {
  kNone = 0,
  kCrash = 1,  ///< the worker dies (forked: _exit; in-process: discarded)
  kHang = 2,   ///< the worker wedges; detected when the barrier deadline
               ///< expires (in-process: handled as kCrash immediately)
};

[[nodiscard]] const char* crash_phase_name(CrashPhase phase) noexcept;

/// Scripted failure injection.  Build once, pass by pointer through
/// RecoveryOptions; both transports query it read-only (forked children
/// see a copy-on-write copy), so a const CrashPlan is safe to share.
class CrashPlan {
 public:
  /// Kill `shard` immediately before `phase` of `step` — first
  /// incarnation only, so the respawned worker completes the phase.
  CrashPlan& crash(std::int32_t shard, std::int64_t step, CrashPhase phase);
  /// As crash(), but the worker wedges instead of dying; only a barrier
  /// deadline surfaces it.
  CrashPlan& hang(std::int32_t shard, std::int64_t step, CrashPhase phase);
  /// Kill on every incarnation — the point never clears, so the shard
  /// exhausts its respawn budget (graceful-degradation tests).
  CrashPlan& crash_always(std::int32_t shard, std::int64_t step,
                          CrashPhase phase);
  /// Seeded random crashes: each (shard, step, phase) of a first
  /// incarnation crashes with probability `rate`, derived per
  /// coordinate (never drawn from a sequential stream), so the crash
  /// schedule is reproducible and transport-independent.
  CrashPlan& random_crashes(double rate, std::uint64_t seed);

  /// The action for a worker about to execute (shard, step, phase) in
  /// its `incarnation`-th life (0 = original).
  [[nodiscard]] CrashAction action(std::int32_t shard, std::int64_t step,
                                   CrashPhase phase,
                                   std::int32_t incarnation) const;

  [[nodiscard]] bool empty() const noexcept {
    return points_.empty() && rate_ <= 0.0;
  }

 private:
  struct Point {
    CrashAction action = CrashAction::kNone;
    bool every_incarnation = false;
  };
  std::map<std::tuple<std::int32_t, std::int64_t, std::uint8_t>, Point>
      points_;
  double rate_ = 0.0;
  std::uint64_t seed_ = 0;
};

/// Recovery knobs, embedded in ShardOptions.
struct RecoveryOptions {
  /// Checkpoint every N committed steps.  0 consults
  /// OCD_SHARD_CHECKPOINT_INTERVAL (validated positive integer),
  /// defaulting to off.  Checkpointing arms crash recovery: without it
  /// (and without a crash_plan) a dead or hung shard surfaces as a
  /// structured ocd::Error instead of being respawned.
  std::int64_t checkpoint_interval = 0;
  /// Respawn budget per shard; exceeding it throws an ocd::Error naming
  /// the shard, step, and phase.  0 = never respawn.
  std::int32_t max_respawns = 3;
  /// Optional scripted failure injection; must outlive the run.
  const CrashPlan* crash_plan = nullptr;
};

/// Resolves a requested checkpoint interval: positive passes through,
/// 0 consults OCD_SHARD_CHECKPOINT_INTERVAL (0 = off when unset),
/// negative throws.
std::int64_t resolve_checkpoint_interval(std::int64_t requested);

/// One worker's complete restartable state.  The codec (put_checkpoint
/// / get_checkpoint) is a plain record over the BinStream primitives so
/// the binstream hostile-encoding suite can hammer it directly;
/// ShardWorker::restore_checkpoint adds the shape checks that need the
/// live worker (row counts, universe, schedule presence).
struct Checkpoint {
  std::int32_t shard = 0;
  std::int32_t num_shards = 0;
  /// Committed steps at capture == the step the next plan would run.
  std::int64_t step = 0;
  /// How many begin_step() advances the fault model has consumed; a
  /// respawned forked worker fast-forwards its copy-on-write model by
  /// exactly this many steps.  Always equals `step` today; serialized
  /// separately so the invariant is checked, not assumed.
  std::int64_t fault_cursor = 0;
  std::int64_t unsatisfied = 0;
  std::int64_t local_unsatisfied = 0;
  std::int64_t no_progress = 0;
  /// Barrier traffic counters (sim/stats.hpp): checkpointed so a
  /// recovered run reports the crash-free totals — replay re-counts
  /// only the steps after the restore point.
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;
  /// Owned + ghost possession rows, in the worker's row order.
  util::TokenMatrix possession;
  std::vector<char> satisfied;            ///< per owned slot
  std::vector<std::int64_t> completion;   ///< per owned slot, -1 pending
  /// Sparse upload counters: (vertex, count), vertex strictly
  /// increasing, count > 0.
  std::vector<std::pair<std::int64_t, std::int64_t>> sent_by;
  /// Replicated aggregate vectors; empty when the policy's knowledge
  /// class does not maintain them.
  std::vector<std::int32_t> holders;
  std::vector<std::int32_t> need;
  /// Opaque Policy::save_state payload.
  std::string policy_state;
  /// Shard-0-only global series (empty elsewhere).
  std::vector<std::int64_t> moves_per_step;
  std::vector<std::int64_t> lost_per_step;
  std::int64_t useful_total = 0;
  std::int64_t lost_total = 0;
  bool has_schedule = false;
  core::Schedule schedule;  ///< this shard's fragment (when recording)
};

void put_checkpoint(util::BinStream& out, const Checkpoint& checkpoint);

/// Decodes and validates a checkpoint record.  `expect_shard` >= 0
/// rejects a checkpoint captured by a different shard ("checkpoint from
/// the wrong shard") — the guard against a supervisor handing a
/// respawned worker a peer's state.
Checkpoint get_checkpoint(util::BinStream& in, const char* field,
                          std::int32_t expect_shard = -1);

/// Recovery counters a transport reports back to run_sharded; folded
/// into RunStats verbatim.
struct RecoveryStats {
  std::int64_t worker_crashes = 0;
  std::int64_t recoveries = 0;
  std::int64_t replayed_steps = 0;
  std::int64_t checkpoint_bytes = 0;
};

}  // namespace ocd::shard
