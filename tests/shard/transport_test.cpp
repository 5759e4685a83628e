// Forked multi-process transport: one child process per shard, frames
// over a socketpair star.  Must agree bit-for-bit with both the
// in-process transport and sim::run.  The suite name is excluded from
// the TSan filter in scripts/check_sanitizers.sh — fork() from a
// threaded test binary is outside TSan's supported envelope.
#include <gtest/gtest.h>

#include <string>

#include "ocd/core/scenario.hpp"
#include "ocd/faults/model.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/shard/runtime.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"

namespace ocd::shard {
namespace {

core::Instance broadcast_instance(std::int32_t n, std::int32_t tokens,
                                  std::uint64_t seed) {
  Rng rng(seed);
  Digraph g = topology::random_overlay(n, rng);
  return core::single_source_all_receivers(std::move(g), tokens, 0);
}

void expect_same_run(const sim::RunResult& a, const sim::RunResult& b,
                     const std::string& label) {
  EXPECT_EQ(a.success, b.success) << label;
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.bandwidth, b.bandwidth) << label;
  EXPECT_EQ(a.termination, b.termination) << label;
  EXPECT_EQ(a.stats.useful_moves, b.stats.useful_moves) << label;
  EXPECT_EQ(a.stats.redundant_moves, b.stats.redundant_moves) << label;
  EXPECT_EQ(a.stats.lost_moves, b.stats.lost_moves) << label;
  EXPECT_EQ(a.stats.moves_per_step, b.stats.moves_per_step) << label;
  EXPECT_EQ(a.stats.lost_per_step, b.stats.lost_per_step) << label;
  EXPECT_EQ(a.stats.completion_step, b.stats.completion_step) << label;
  EXPECT_EQ(a.stats.sent_by_vertex, b.stats.sent_by_vertex) << label;
  ASSERT_EQ(a.schedule.length(), b.schedule.length()) << label;
  for (std::size_t s = 0; s < a.schedule.steps().size(); ++s) {
    const auto& sa = a.schedule.steps()[s].sends();
    const auto& sb = b.schedule.steps()[s].sends();
    ASSERT_EQ(sa.size(), sb.size()) << label << " step " << s;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].arc, sb[i].arc) << label << " step " << s;
      EXPECT_EQ(sa[i].tokens, sb[i].tokens) << label << " step " << s;
    }
  }
}

TEST(ShardForkTransport, RefusesGlobalPlannersOnBothTransports) {
  // The kGlobal planners are outside the envelope at every shard count,
  // one shard included, and the refusal names the policy.
  const core::Instance inst = broadcast_instance(12, 4, 3);
  for (const char* policy_name : {"global", "bandwidth"}) {
    for (const TransportKind transport :
         {TransportKind::kInProcess, TransportKind::kForked}) {
      for (const std::int32_t shards : {1, 2, 4}) {
        ShardOptions options;
        options.num_shards = shards;
        options.transport = transport;
        const std::string label = std::string(policy_name) +
                                  " shards=" + std::to_string(shards);
        try {
          (void)run_sharded(inst, policy_name, options);
          ADD_FAILURE() << label << ": not refused";
        } catch (const Error& e) {
          EXPECT_NE(std::string(e.what()).find(std::string("'") +
                                               policy_name + "'"),
                    std::string::npos)
              << label << ": " << e.what();
        }
      }
    }
  }
}

TEST(ShardForkTransport, MatchesSingleProcessRun) {
  const core::Instance inst = broadcast_instance(24, 12, 19);
  for (const char* policy_name : {"round-robin", "local"}) {
    sim::SimOptions options;
    options.max_steps = 200;
    const sim::PolicyPtr policy = heuristics::make_policy(policy_name);
    const sim::RunResult reference = sim::run(inst, *policy, options);
    for (std::int32_t shards : {1, 2, 4}) {
      ShardOptions sharded;
      sharded.num_shards = shards;
      sharded.transport = TransportKind::kForked;
      sharded.sim = options;
      const sim::RunResult result = run_sharded(inst, policy_name, sharded);
      expect_same_run(result, reference,
                      std::string(policy_name) + " forked shards=" +
                          std::to_string(shards));
    }
  }
}

TEST(ShardForkTransport, MatchesInProcessUnderFaults) {
  const core::Instance inst = broadcast_instance(20, 10, 23);
  sim::SimOptions options;
  options.max_steps = 300;
  options.seed = 77;

  faults::GilbertElliott in_process_model(0.2, 0.5, 0.3);
  ShardOptions in_process;
  in_process.num_shards = 3;
  in_process.sim = options;
  in_process.sim.faults = &in_process_model;
  const sim::RunResult reference =
      run_sharded(inst, "random", in_process);

  faults::GilbertElliott forked_model(0.2, 0.5, 0.3);
  ShardOptions forked;
  forked.num_shards = 3;
  forked.transport = TransportKind::kForked;
  forked.sim = options;
  forked.sim.faults = &forked_model;
  const sim::RunResult result = run_sharded(inst, "random", forked);

  ASSERT_GT(reference.stats.lost_moves, 0);
  expect_same_run(result, reference, "forked vs in-process faults");
}

}  // namespace
}  // namespace ocd::shard
