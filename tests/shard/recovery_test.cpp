// Crash-tolerance contract: a sharded run with any schedule of injected
// worker crashes and hangs must produce a schedule and RunStats
// bit-identical to the crash-free run — only the four recovery counters
// may differ — and a permanently dead shard must terminate the run with
// a structured error naming the shard, step, and phase, never a hang.
//
// The ShardRecovery suite drives the in-process transport (TSan-clean:
// all recovery bookkeeping happens on the driver thread between
// parallel phases).  The ShardForkRecovery suite drives real forked
// children through SIGKILL-style deaths and wedged-peer hangs; it is
// excluded from the TSan pass (fork) like ShardForkTransport.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ocd/core/scenario.hpp"
#include "ocd/faults/model.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/shard/recovery.hpp"
#include "ocd/shard/runtime.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"

namespace ocd::shard {
namespace {

constexpr std::int32_t kShardCounts[] = {1, 2, 4};
constexpr CrashPhase kPhases[] = {CrashPhase::kPlan, CrashPhase::kApply,
                                  CrashPhase::kCommit};

core::Instance broadcast_instance(std::int32_t n, std::int32_t tokens,
                                  std::uint64_t seed) {
  Rng rng(seed);
  Digraph g = topology::random_overlay(n, rng);
  return core::single_source_all_receivers(std::move(g), tokens, 0);
}

/// Bit-identity up to the recovery counters, which are execution
/// accounting, not simulation results.
void expect_same_run(const sim::RunResult& recovered,
                     const sim::RunResult& reference,
                     const std::string& label) {
  EXPECT_EQ(recovered.success, reference.success) << label;
  EXPECT_EQ(recovered.steps, reference.steps) << label;
  EXPECT_EQ(recovered.bandwidth, reference.bandwidth) << label;
  EXPECT_EQ(recovered.termination, reference.termination) << label;
  EXPECT_EQ(recovered.stats.useful_moves, reference.stats.useful_moves)
      << label;
  EXPECT_EQ(recovered.stats.redundant_moves, reference.stats.redundant_moves)
      << label;
  EXPECT_EQ(recovered.stats.lost_moves, reference.stats.lost_moves) << label;
  EXPECT_EQ(recovered.stats.moves_per_step, reference.stats.moves_per_step)
      << label;
  EXPECT_EQ(recovered.stats.lost_per_step, reference.stats.lost_per_step)
      << label;
  EXPECT_EQ(recovered.stats.completion_step, reference.stats.completion_step)
      << label;
  EXPECT_EQ(recovered.stats.sent_by_vertex, reference.stats.sent_by_vertex)
      << label;
  ASSERT_EQ(recovered.schedule.length(), reference.schedule.length()) << label;
  for (std::size_t s = 0; s < reference.schedule.steps().size(); ++s) {
    const auto& sa = recovered.schedule.steps()[s].sends();
    const auto& sb = reference.schedule.steps()[s].sends();
    ASSERT_EQ(sa.size(), sb.size()) << label << " step " << s;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].arc, sb[i].arc) << label << " step " << s;
      EXPECT_EQ(sa[i].tokens, sb[i].tokens) << label << " step " << s;
    }
  }
}

sim::RunResult run_with(const core::Instance& inst, const char* policy_name,
                        std::int32_t shards, const sim::SimOptions& sim,
                        TransportKind transport,
                        const CrashPlan* plan = nullptr,
                        std::int64_t checkpoint_interval = 0,
                        std::int32_t max_respawns = 3,
                        std::int64_t barrier_timeout_ms = 120'000) {
  ShardOptions options;
  options.num_shards = shards;
  options.transport = transport;
  options.sim = sim;
  options.barrier_timeout_ms = barrier_timeout_ms;
  options.recovery.crash_plan = plan;
  options.recovery.checkpoint_interval = checkpoint_interval;
  options.recovery.max_respawns = max_respawns;
  return run_sharded(inst, policy_name, options);
}

// ---- in-process recovery -------------------------------------------

TEST(ShardRecovery, CrashFreeRunReportsZeroCounters) {
  const core::Instance inst = broadcast_instance(24, 12, 7);
  sim::SimOptions sim;
  sim.max_steps = 200;
  const sim::RunResult result =
      run_with(inst, "round-robin", 2, sim, TransportKind::kInProcess);
  EXPECT_EQ(result.stats.worker_crashes, 0);
  EXPECT_EQ(result.stats.recoveries, 0);
  EXPECT_EQ(result.stats.replayed_steps, 0);
  EXPECT_EQ(result.stats.checkpoint_bytes, 0);
}

TEST(ShardRecovery, CrashAtEveryPhaseIsBitIdentical) {
  const core::Instance inst = broadcast_instance(32, 16, 5);
  for (const char* policy_name : {"round-robin", "local"}) {
    sim::SimOptions sim;
    sim.max_steps = 200;
    sim.seed = 17;
    for (std::int32_t shards : kShardCounts) {
      const sim::RunResult reference = run_with(
          inst, policy_name, shards, sim, TransportKind::kInProcess);
      ASSERT_GT(reference.steps, 6);
      for (CrashPhase phase : kPhases) {
        CrashPlan plan;
        plan.crash(shards - 1, 4, phase);
        const sim::RunResult recovered =
            run_with(inst, policy_name, shards, sim,
                     TransportKind::kInProcess, &plan,
                     /*checkpoint_interval=*/3);
        const std::string label = std::string(policy_name) + " shards=" +
                                  std::to_string(shards) + " phase=" +
                                  crash_phase_name(phase);
        expect_same_run(recovered, reference, label);
        EXPECT_EQ(recovered.stats.worker_crashes, 1) << label;
        EXPECT_EQ(recovered.stats.recoveries, 1) << label;
        EXPECT_GT(recovered.stats.checkpoint_bytes, 0) << label;
      }
    }
  }
}

TEST(ShardRecovery, CrashBeforeFirstCheckpointReplaysFromInit) {
  const core::Instance inst = broadcast_instance(24, 12, 9);
  sim::SimOptions sim;
  sim.max_steps = 200;
  const sim::RunResult reference =
      run_with(inst, "local", 2, sim, TransportKind::kInProcess);
  CrashPlan plan;
  plan.crash(1, 2, CrashPhase::kApply);
  // Interval longer than the crash step: no checkpoint exists yet, so
  // the respawn rebuilds from the logged init round and replays
  // everything.
  const sim::RunResult recovered =
      run_with(inst, "local", 2, sim, TransportKind::kInProcess, &plan,
               /*checkpoint_interval=*/50);
  expect_same_run(recovered, reference, "pre-checkpoint crash");
  EXPECT_EQ(recovered.stats.recoveries, 1);
  EXPECT_EQ(recovered.stats.replayed_steps, 2);
}

TEST(ShardRecovery, HangIsHandledAsCrashInProcess) {
  const core::Instance inst = broadcast_instance(24, 12, 9);
  sim::SimOptions sim;
  sim.max_steps = 200;
  const sim::RunResult reference =
      run_with(inst, "round-robin", 2, sim, TransportKind::kInProcess);
  CrashPlan plan;
  plan.hang(0, 3, CrashPhase::kCommit);
  const sim::RunResult recovered =
      run_with(inst, "round-robin", 2, sim, TransportKind::kInProcess, &plan,
               /*checkpoint_interval=*/2);
  expect_same_run(recovered, reference, "in-process hang");
  EXPECT_EQ(recovered.stats.worker_crashes, 1);
  EXPECT_EQ(recovered.stats.recoveries, 1);
}

TEST(ShardRecovery, CrashUnderFaultsReplaysRecordedLosses) {
  const core::Instance inst = broadcast_instance(28, 14, 13);
  struct FaultCase {
    const char* label;
    std::function<std::unique_ptr<faults::FaultModel>()> make;
  };
  const std::vector<FaultCase> cases = {
      {"uniform", [] { return std::make_unique<faults::UniformLoss>(0.3); }},
      {"gilbert-elliott", [] {
         return std::make_unique<faults::GilbertElliott>(0.15, 0.4, 0.6);
       }}};
  for (const FaultCase& c : cases) {
    sim::SimOptions sim;
    sim.max_steps = 300;
    sim.seed = 23;
    const auto reference_model = c.make();
    sim.faults = reference_model.get();
    const sim::RunResult reference =
        run_with(inst, "round-robin", 4, sim, TransportKind::kInProcess);
    ASSERT_GT(reference.stats.lost_moves, 0) << c.label;
    for (CrashPhase phase : kPhases) {
      const auto recovered_model = c.make();
      sim::SimOptions crashed = sim;
      crashed.faults = recovered_model.get();
      CrashPlan plan;
      plan.crash(2, 5, phase);
      // The Gilbert-Elliott chain advances once per step in the shared
      // model; replay must read the recorded per-send loss sets, never
      // re-query the model — this is what the log_losses path pins.
      const sim::RunResult recovered =
          run_with(inst, "round-robin", 4, crashed,
                   TransportKind::kInProcess, &plan,
                   /*checkpoint_interval=*/4);
      expect_same_run(recovered, reference,
                      std::string(c.label) + " phase=" +
                          crash_phase_name(phase));
      EXPECT_EQ(recovered.stats.recoveries, 1) << c.label;
    }
  }
}

TEST(ShardRecovery, RandomCrashScheduleStaysBitIdentical) {
  const core::Instance inst = broadcast_instance(32, 16, 19);
  sim::SimOptions sim;
  sim.max_steps = 300;
  sim.seed = 3;
  const sim::RunResult reference =
      run_with(inst, "local", 4, sim, TransportKind::kInProcess);
  CrashPlan plan;
  plan.random_crashes(0.02, 77);
  const sim::RunResult recovered =
      run_with(inst, "local", 4, sim, TransportKind::kInProcess, &plan,
               /*checkpoint_interval=*/5, /*max_respawns=*/64);
  expect_same_run(recovered, reference, "random crashes");
  EXPECT_GT(recovered.stats.worker_crashes, 0);
  EXPECT_EQ(recovered.stats.worker_crashes, recovered.stats.recoveries);
}

TEST(ShardRecovery, MultipleCrashesAccumulateCounters) {
  const core::Instance inst = broadcast_instance(28, 14, 21);
  sim::SimOptions sim;
  sim.max_steps = 200;
  const sim::RunResult reference =
      run_with(inst, "round-robin", 4, sim, TransportKind::kInProcess);
  ASSERT_GT(reference.steps, 3);  // every kill point must be reachable
  CrashPlan plan;
  plan.crash(0, 1, CrashPhase::kPlan)
      .crash(1, 2, CrashPhase::kApply)
      .crash(3, 3, CrashPhase::kCommit)
      .hang(2, 2, CrashPhase::kPlan);
  const sim::RunResult recovered =
      run_with(inst, "round-robin", 4, sim, TransportKind::kInProcess, &plan,
               /*checkpoint_interval=*/3);
  expect_same_run(recovered, reference, "multi-crash");
  EXPECT_EQ(recovered.stats.worker_crashes, 4);
  EXPECT_EQ(recovered.stats.recoveries, 4);
  EXPECT_GT(recovered.stats.replayed_steps, 0);
}

TEST(ShardRecovery, ExhaustedRespawnBudgetNamesShardStepPhase) {
  const core::Instance inst = broadcast_instance(24, 12, 25);
  sim::SimOptions sim;
  sim.max_steps = 200;
  CrashPlan plan;
  plan.crash_always(1, 3, CrashPhase::kApply);
  try {
    run_with(inst, "round-robin", 2, sim, TransportKind::kInProcess, &plan,
             /*checkpoint_interval=*/2, /*max_respawns=*/2);
    FAIL() << "expected respawn exhaustion";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
    EXPECT_NE(what.find("max_respawns (2)"), std::string::npos) << what;
    EXPECT_NE(what.find("step 3"), std::string::npos) << what;
    EXPECT_NE(what.find("phase apply"), std::string::npos) << what;
  }
}

TEST(ShardRecovery, ValidatesRecoveryOptions) {
  const core::Instance inst = broadcast_instance(10, 4, 1);
  sim::SimOptions sim;
  ShardOptions bad_timeout;
  bad_timeout.num_shards = 2;
  bad_timeout.barrier_timeout_ms = 0;
  EXPECT_THROW(run_sharded(inst, "round-robin", bad_timeout), Error);
  ShardOptions bad_budget;
  bad_budget.num_shards = 2;
  bad_budget.recovery.max_respawns = -1;
  EXPECT_THROW(run_sharded(inst, "round-robin", bad_budget), Error);
  ShardOptions bad_interval;
  bad_interval.num_shards = 2;
  bad_interval.recovery.checkpoint_interval = -3;
  EXPECT_THROW(run_sharded(inst, "round-robin", bad_interval), Error);
}

TEST(ShardRecovery, ResolvesCheckpointIntervalFromEnvironment) {
  EXPECT_EQ(resolve_checkpoint_interval(5), 5);
  ::unsetenv("OCD_SHARD_CHECKPOINT_INTERVAL");
  EXPECT_EQ(resolve_checkpoint_interval(0), 0);
  ::setenv("OCD_SHARD_CHECKPOINT_INTERVAL", "8", 1);
  EXPECT_EQ(resolve_checkpoint_interval(0), 8);
  EXPECT_EQ(resolve_checkpoint_interval(2), 2);  // explicit beats env
  ::setenv("OCD_SHARD_CHECKPOINT_INTERVAL", "often", 1);
  EXPECT_THROW(resolve_checkpoint_interval(0), Error);
  ::unsetenv("OCD_SHARD_CHECKPOINT_INTERVAL");
  EXPECT_THROW(resolve_checkpoint_interval(-1), Error);
}

TEST(ShardRecovery, CheckpointingAloneLeavesRunUnchanged) {
  // Checkpoints without crashes: pure overhead, zero semantic effect.
  const core::Instance inst = broadcast_instance(28, 14, 29);
  sim::SimOptions sim;
  sim.max_steps = 200;
  const sim::RunResult reference =
      run_with(inst, "local", 4, sim, TransportKind::kInProcess);
  const sim::RunResult checkpointed =
      run_with(inst, "local", 4, sim, TransportKind::kInProcess, nullptr,
               /*checkpoint_interval=*/2);
  expect_same_run(checkpointed, reference, "checkpoint-only");
  EXPECT_EQ(checkpointed.stats.worker_crashes, 0);
  EXPECT_GT(checkpointed.stats.checkpoint_bytes, 0);
}

// ---- forked recovery (ASan-only; fork is excluded from TSan) --------

TEST(ShardForkRecovery, CrashAtEveryPhaseIsBitIdentical) {
  const core::Instance inst = broadcast_instance(24, 12, 31);
  sim::SimOptions sim;
  sim.max_steps = 200;
  const sim::RunResult reference =
      run_with(inst, "round-robin", 2, sim, TransportKind::kForked);
  for (CrashPhase phase : kPhases) {
    CrashPlan plan;
    plan.crash(1, 3, phase);
    const sim::RunResult recovered =
        run_with(inst, "round-robin", 2, sim, TransportKind::kForked, &plan,
                 /*checkpoint_interval=*/2);
    const std::string label =
        std::string("fork phase=") + crash_phase_name(phase);
    expect_same_run(recovered, reference, label);
    EXPECT_EQ(recovered.stats.worker_crashes, 1) << label;
    EXPECT_EQ(recovered.stats.recoveries, 1) << label;
    EXPECT_GT(recovered.stats.checkpoint_bytes, 0) << label;
  }
}

TEST(ShardForkRecovery, HangIsDetectedByTheBarrierDeadline) {
  const core::Instance inst = broadcast_instance(20, 10, 33);
  sim::SimOptions sim;
  sim.max_steps = 200;
  const sim::RunResult reference =
      run_with(inst, "round-robin", 2, sim, TransportKind::kForked);
  CrashPlan plan;
  plan.hang(0, 2, CrashPhase::kApply);
  const auto start = std::chrono::steady_clock::now();
  const sim::RunResult recovered = run_with(
      inst, "round-robin", 2, sim, TransportKind::kForked, &plan,
      /*checkpoint_interval=*/2, /*max_respawns=*/3,
      /*barrier_timeout_ms=*/1'000);
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - start);
  expect_same_run(recovered, reference, "fork hang");
  EXPECT_EQ(recovered.stats.worker_crashes, 1);
  EXPECT_EQ(recovered.stats.recoveries, 1);
  EXPECT_LT(elapsed.count(), 30) << "hang detection must not stall the run";
}

TEST(ShardForkRecovery, CrashUnderGilbertElliottFastForwardsTheModel) {
  // Forked children own private copy-on-write fault models; a respawn
  // fast-forwards the chain to the checkpoint's fault cursor and then
  // replays live — no loss records involved.
  const core::Instance inst = broadcast_instance(24, 12, 35);
  faults::GilbertElliott reference_model(0.15, 0.4, 0.6);
  sim::SimOptions sim;
  sim.max_steps = 300;
  sim.seed = 41;
  sim.faults = &reference_model;
  const sim::RunResult reference =
      run_with(inst, "round-robin", 2, sim, TransportKind::kForked);
  ASSERT_GT(reference.stats.lost_moves, 0);
  faults::GilbertElliott recovered_model(0.15, 0.4, 0.6);
  sim::SimOptions crashed = sim;
  crashed.faults = &recovered_model;
  CrashPlan plan;
  plan.crash(1, 5, CrashPhase::kPlan);
  const sim::RunResult recovered =
      run_with(inst, "round-robin", 2, crashed, TransportKind::kForked, &plan,
               /*checkpoint_interval=*/3);
  expect_same_run(recovered, reference, "fork gilbert-elliott");
  EXPECT_EQ(recovered.stats.recoveries, 1);
}

TEST(ShardForkRecovery, PermanentlyDeadShardFailsStructuredAndFast) {
  const core::Instance inst = broadcast_instance(20, 10, 37);
  sim::SimOptions sim;
  sim.max_steps = 200;
  CrashPlan plan;
  plan.crash_always(0, 2, CrashPhase::kPlan);
  const auto start = std::chrono::steady_clock::now();
  try {
    run_with(inst, "round-robin", 2, sim, TransportKind::kForked, &plan,
             /*checkpoint_interval=*/2, /*max_respawns=*/1,
             /*barrier_timeout_ms=*/5'000);
    FAIL() << "expected respawn exhaustion";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 0"), std::string::npos) << what;
    EXPECT_NE(what.find("max_respawns (1)"), std::string::npos) << what;
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 30) << "a dead shard must never hang the run";
}

TEST(ShardForkRecovery, ZeroRespawnBudgetNeverHangsOnAWedgedPeer) {
  // The barrier-deadline guarantee independent of respawn: with no
  // budget, a wedged child surfaces as a structured error within the
  // timeout instead of stalling ctest forever.
  const core::Instance inst = broadcast_instance(20, 10, 39);
  sim::SimOptions sim;
  sim.max_steps = 200;
  CrashPlan plan;
  plan.hang(1, 1, CrashPhase::kCommit);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(run_with(inst, "round-robin", 2, sim, TransportKind::kForked,
                        &plan, /*checkpoint_interval=*/0,
                        /*max_respawns=*/0, /*barrier_timeout_ms=*/1'000),
               Error);
  const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 30);
}

TEST(ShardForkRecovery, MultipleCrashesAcrossShardsRecover) {
  const core::Instance inst = broadcast_instance(28, 14, 43);
  sim::SimOptions sim;
  sim.max_steps = 200;
  const sim::RunResult reference =
      run_with(inst, "local", 4, sim, TransportKind::kForked);
  ASSERT_GT(reference.steps, 3);  // every kill point must be reachable
  CrashPlan plan;
  plan.crash(0, 1, CrashPhase::kPlan)
      .crash(2, 2, CrashPhase::kApply)
      .crash(3, 3, CrashPhase::kCommit);
  const sim::RunResult recovered =
      run_with(inst, "local", 4, sim, TransportKind::kForked, &plan,
               /*checkpoint_interval=*/3);
  expect_same_run(recovered, reference, "fork multi-crash");
  EXPECT_EQ(recovered.stats.worker_crashes, 3);
  EXPECT_EQ(recovered.stats.recoveries, 3);
}

}  // namespace
}  // namespace ocd::shard
