// Shard execution engines: one ShardWorker per shard plus a Transport
// that steps all workers through the barrier protocol and moves their
// BinStream messages.
//
// The protocol is phase-synchronous; a Transport only provides message
// motion and the barrier, never decisions.  Per step:
//
//   phase_plan    -> round-1 messages (plan summary + routed deliveries)
//   phase_apply   -> round-2 messages (apply summary + ghost updates)
//   phase_commit  -> replicated global decision; every worker agrees on
//                    running()/termination() afterwards
//
// plus one init round before the loop (initial unsatisfied counts) and
// one finish_fragment() per worker after it, which run_sharded merges
// into the final RunResult.  Both transports move the same encoded
// bytes, so the in-process engine exercises the full codec path the
// process engine ships over sockets.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ocd/core/schedule.hpp"
#include "ocd/shard/partition.hpp"
#include "ocd/shard/runtime.hpp"
#include "ocd/sim/knowledge.hpp"
#include "ocd/sim/policy.hpp"
#include "ocd/util/token_matrix.hpp"

namespace ocd::shard {

/// Everything a worker needs to run one shard, resolved once by
/// run_sharded.  Borrowed pointers must outlive the transport run.
struct RunContext {
  const core::Instance* instance = nullptr;
  const Partition* partition = nullptr;
  std::string policy_name;
  sim::SimOptions sim;
  sim::KnowledgeClass knowledge = sim::KnowledgeClass::kLocalOnly;
  /// Resolved watchdog window (-1 = off), as
  /// sim::resolve_watchdog_window gives it.
  std::int64_t watchdog_window = -1;
  /// Fault-model stepping: the forked transport replicates the model
  /// per process (each child advances its copy-on-write copy in
  /// phase_plan); the in-process transport shares one model and the
  /// driver advances it exactly once per step.
  bool worker_advances_faults = false;
  /// In-process replay cannot re-query the shared fault model for past
  /// steps (its chain state has moved on), so when recovery is armed
  /// with faults on the in-process path, every phase_plan also records
  /// its per-send loss sets for the driver's log.
  bool log_losses = false;
  /// Resolved recovery knobs (ocd/shard/recovery.hpp).  recovery_armed:
  /// a failed worker is respawned and replayed; otherwise it surfaces
  /// as an ocd::Error.
  bool recovery_armed = false;
  std::int64_t checkpoint_interval = 0;  ///< 0 = checkpoints off
  std::int32_t max_respawns = 0;
  const CrashPlan* crash_plan = nullptr;
  std::int64_t barrier_timeout_ms = 120'000;
  std::vector<std::int32_t> static_capacity;
};

/// One shard's replica of the simulator loop.  Owns the shard-local
/// possession rows (owned vertices plus ghosts), its policy instance,
/// and the replicated global decision state; communicates only through
/// the phase methods' message vectors (indexed by peer shard; the self
/// slot stays empty).
class ShardWorker {
 public:
  ShardWorker(const RunContext& ctx, std::int32_t shard);

  /// Init round: broadcast the initial owned unsatisfied count.
  void phase_init(std::vector<std::string>& out);
  void absorb_init(const std::vector<std::string>& in);

  /// Plan owned vertices, validate, apply channel loss, route surviving
  /// deliveries to their destination's owner.  Requires running().
  /// `replay_losses` (in-process replay only) substitutes a recorded
  /// loss trace for live fault-model queries: the policy still plans in
  /// full (its state must advance), but the per-send loss sets are read
  /// from the record instead of the shared model, whose chain has
  /// already moved past this step.
  void phase_plan(std::vector<std::string>& out,
                  const std::string* replay_losses = nullptr);
  /// Merge inbound deliveries into owned possession rows; emit apply
  /// summaries and ghost updates.
  void phase_apply(const std::vector<std::string>& in,
                   std::vector<std::string>& out);
  /// Fold the apply summaries into the replicated global state and
  /// decide termination — identically on every shard.
  void phase_commit(const std::vector<std::string>& in);

  [[nodiscard]] bool running() const noexcept { return running_; }
  /// Committed step count == the step the next phase_plan would plan.
  [[nodiscard]] std::int64_t step() const noexcept { return step_; }
  [[nodiscard]] sim::Termination termination() const;

  /// Final per-shard results for run_sharded's merge: the termination
  /// byte followed by a checkpoint of the finished worker (schedule
  /// fragment, completion, upload counts; shard 0 adds the global
  /// per-step series).
  [[nodiscard]] std::string finish_fragment();

  /// Serializes this worker's complete restartable state (see
  /// shard::Checkpoint).  Capture point: a committed barrier, i.e.
  /// between phase_commit and the next phase_plan.
  [[nodiscard]] std::string save_checkpoint() const;
  /// Restores a save_checkpoint() blob into a freshly constructed
  /// worker: validates shard identity and every shape against this
  /// worker's layout, loads the policy state, and (forked transport)
  /// fast-forwards the private fault-model copy to the fault cursor.
  void restore_checkpoint(const std::string& bytes);
  /// The loss record phase_plan captured (empty unless ctx.log_losses
  /// and a fault model are active).
  [[nodiscard]] const std::string& loss_record() const noexcept {
    return loss_record_;
  }

 private:
  void deliver(VertexId to, TokenSetView tokens);
  /// This worker's state as a Checkpoint record, schedule left empty
  /// (save_checkpoint copies it in, finish_fragment lends it).
  [[nodiscard]] Checkpoint capture() const;

  const RunContext& ctx_;
  std::int32_t shard_;
  std::int32_t num_shards_;
  bool faulted_;
  bool needs_aggregates_;

  sim::PolicyPtr policy_;
  std::span<const VertexId> owned_;
  std::vector<VertexId> rows_;             ///< row -> global vertex id
  std::vector<std::int32_t> row_map_;      ///< global vertex id -> row, -1
  std::vector<std::int32_t> owned_index_;  ///< vertex -> owned slot, -1
  util::TokenMatrix possession_;           ///< one row per rows_ entry
  util::TokenMatrix uni_;  ///< per-owned union of this step's fresh sets
  sim::Aggregates aggregates_;             ///< replicated global vectors
  std::vector<std::int64_t> dh_, dn_;      ///< per-step aggregate deltas
  sim::StepPlan plan_;
  std::vector<std::int32_t> arc_load_;
  std::vector<char> satisfied_;            ///< per owned slot
  std::vector<std::int64_t> completion_;   ///< per owned slot, -1 pending
  std::vector<std::int64_t> sent_by_;      ///< per vertex (senders may be
                                           ///< ghosts under "local")
  std::vector<char> touched_flag_;         ///< per owned slot
  std::vector<std::int32_t> touched_;      ///< owned slots hit this step
  /// Per peer: owned vertices that peer ghosts (its subscriptions).
  std::vector<std::vector<VertexId>> out_ghost_;
  /// Per peer: plan send indices routed to it this step.
  std::vector<std::vector<std::uint32_t>> deliv_for_;
  std::vector<std::uint32_t> local_deliv_;
  TokenSet fresh_;        ///< apply kernel scratch
  TokenSet lost_;         ///< fault scratch
  TokenSet msg_tokens_;   ///< decode scratch
  std::string loss_record_;  ///< this step's loss sets (ctx.log_losses)

  // Barrier traffic accounting (sim/stats.hpp shard_* counters).
  std::int64_t bytes_sent_ = 0;
  std::int64_t bytes_received_ = 0;

  // Replicated global decision state (identical on every shard).
  std::int64_t step_ = 0;
  std::int64_t unsatisfied_ = 0;
  std::int64_t local_unsatisfied_ = 0;
  std::int64_t no_progress_ = 0;
  bool running_ = false;
  bool stalled_ = false;
  bool watchdog_hit_ = false;
  bool pending_stall_ = false;

  // Per-step counters (this shard / folded global).
  std::int64_t step_moves_ = 0;
  std::int64_t step_lost_ = 0;
  std::int64_t step_useful_ = 0;
  std::int64_t global_moves_ = 0;
  std::int64_t global_lost_ = 0;

  // Shard 0 only: the global per-step series for RunStats.
  std::vector<std::int64_t> moves_per_step_;
  std::vector<std::int64_t> lost_per_step_;
  std::int64_t useful_total_ = 0;
  std::int64_t lost_total_ = 0;

  core::Schedule schedule_;  ///< this shard's fragment (when recording)
};

/// A transport run's outcome: one finish fragment per shard, plus the
/// recovery counters (all zero for a crash-free run).
struct TransportResult {
  std::vector<std::string> fragments;
  RecoveryStats recovery;
};

class Transport {
 public:
  virtual ~Transport() = default;
  /// Runs the full protocol; returns one finish fragment per shard.
  virtual TransportResult run(const RunContext& ctx) = 0;
};

/// Workers stepped as chunks of the ocd::util worker pool; messages
/// pass through two in-memory mailbox grids (one per round, so a
/// phase never reads a grid another worker is writing).  When recovery
/// is armed, the driver logs committed message rows and checkpoints so
/// an injected crash (CrashPlan) discards the worker and rebuilds it —
/// hang injection is handled as a crash, since there is no deadline to
/// expire inside one address space.  All recovery bookkeeping runs on
/// the driver thread between parallel phases, so the suite is
/// TSan-clean.
class InProcessTransport final : public Transport {
 public:
  TransportResult run(const RunContext& ctx) override;
};

/// One forked child process per shard, each owning a private
/// ShardWorker; the parent routes frames over a socketpair star.  The
/// instance and partition are shared copy-on-write; only possession
/// slices and planner scratch are private dirty pages.
///
/// Every read and write carries ctx.barrier_timeout_ms; SIGPIPE is
/// suppressed (MSG_NOSIGNAL + SIG_IGN in the parent for the run), so a
/// dead child surfaces as EOF/EPIPE and a hung one as an expired
/// deadline.  When recovery is armed the supervisor kills the failed
/// child, respawns it from the latest checkpoint (or from scratch),
/// replays the committed steps from the logged mail, and re-enters the
/// barrier protocol at the exact sub-stage that failed; otherwise the
/// failure is rethrown as a field-named ocd::Error.
class ForkTransport final : public Transport {
 public:
  TransportResult run(const RunContext& ctx) override;
};

}  // namespace ocd::shard
