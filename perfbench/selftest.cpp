// Self-tests of the benchmark's statistics, failure counting and
// correctness gate.  Run with `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <stdexcept>

#include "gate.hpp"
#include "ocd/core/scenario.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Stats, MedianOfOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, MinOfAndEmpty) {
  EXPECT_DOUBLE_EQ(min_of({3.0, 1.5, 2.0}), 1.5);
  EXPECT_DOUBLE_EQ(min_of({}), 0.0);
}

// Reference values from Python: statistics.quantiles(data, n=4).
TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  const Quartiles a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.median, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  const Quartiles b = quartiles({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(b.q1, 1.0);
  EXPECT_DOUBLE_EQ(b.median, 2.0);
  EXPECT_DOUBLE_EQ(b.q3, 3.0);
  const Quartiles c = quartiles({5.0, 1.0});
  EXPECT_DOUBLE_EQ(c.q1, 0.0);
  EXPECT_DOUBLE_EQ(c.median, 3.0);
  EXPECT_DOUBLE_EQ(c.q3, 6.0);
  const Quartiles d = quartiles({0.9, 1.1, 1.0, 1.3, 0.95, 1.05, 1.2});
  EXPECT_DOUBLE_EQ(d.q1, 0.95);
  EXPECT_DOUBLE_EQ(d.median, 1.05);
  EXPECT_DOUBLE_EQ(d.q3, 1.2);
  const Quartiles one = quartiles({7.0});
  EXPECT_DOUBLE_EQ(one.q1, 7.0);
  EXPECT_DOUBLE_EQ(one.q3, 7.0);
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Stats, PercentileNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(samples_beyond(99, 90), 9u);
  EXPECT_TRUE(percentile(ramp(100), 90).has_value());
  EXPECT_FALSE(percentile(ramp(99), 90).has_value());
  EXPECT_FALSE(percentile(ramp(19), 50).has_value());
  ASSERT_TRUE(percentile(ramp(20), 50).has_value());
  EXPECT_DOUBLE_EQ(*percentile(ramp(21), 50), 11.0);
  EXPECT_DOUBLE_EQ(*percentile(ramp(101), 90), 91.0);
  EXPECT_FALSE(percentile({}, 50).has_value());
  // 99.9 / 100 * 10000 rounds to 9990.000000000002 in doubles; the
  // ten samples above rank 9990 still count.
  EXPECT_EQ(samples_beyond(10000, 99.9), 10u);
}

TEST(Tally, CountsEveryRunAndEveryFailure) {
  Tally tally;
  tally.record("a", "");
  tally.record("b", "wrong bandwidth");
  tally.check("c", [] { return std::string(); });
  tally.check("d", []() -> std::string { throw std::runtime_error("boom"); });
  tally.check("e", [] { return std::string(); });  // still counted after a throw
  EXPECT_EQ(tally.attempted(), 5);
  EXPECT_EQ(tally.failed(), 2);
  ASSERT_EQ(tally.reasons().size(), 2u);
  EXPECT_EQ(tally.reasons()[0], "b: wrong bandwidth");
  EXPECT_EQ(tally.reasons()[1], "d: threw: boom");
}

TEST(Tally, CapsStoredReasonsButNotCounts) {
  Tally tally;
  for (int i = 0; i < 100; ++i) tally.record("run", "bad");
  EXPECT_EQ(tally.failed(), 100);
  EXPECT_LT(tally.reasons().size(), 100u);
}

struct SmallRun {
  ocd::core::Instance instance;
  ocd::sim::RunResult result;
};

SmallRun small_run() {
  ocd::Rng rng(11);
  ocd::core::Instance inst = ocd::core::single_source_all_receivers(
      ocd::topology::random_overlay(30, rng), 16, 0);
  auto policy = ocd::heuristics::make_policy("local");
  ocd::sim::SimOptions options;
  options.seed = 3;
  ocd::sim::RunResult result = ocd::sim::run(inst, *policy, options);
  return {std::move(inst), std::move(result)};
}

TEST(Gate, AcceptsAnUntamperedRun) {
  const SmallRun run = small_run();
  ASSERT_TRUE(run.result.success);
  EXPECT_EQ(validation_problem(run.instance, run.result.schedule), "");
  EXPECT_EQ(result_difference(run.result, run.result, false), "");
}

TEST(Gate, CatchesATamperedSchedule) {
  const SmallRun run = small_run();
  ocd::sim::RunResult tampered = run.result;
  // Send every token over an arc out of a vertex that holds nothing at
  // step 0: a possession (and likely capacity) violation.
  const ocd::Digraph& g = run.instance.graph();
  ocd::ArcId arc = -1;
  for (ocd::ArcId a = 0; a < g.num_arcs(); ++a)
    if (g.arc(a).from != 0) {
      arc = a;
      break;
    }
  ASSERT_GE(arc, 0);
  tampered.schedule.steps().front().sends().push_back(
      {arc, ocd::TokenSet::full(16)});
  EXPECT_NE(validation_problem(run.instance, tampered.schedule), "");
  EXPECT_NE(schedule_difference(run.result.schedule, tampered.schedule), "");
  EXPECT_NE(result_difference(run.result, tampered, false), "");
  EXPECT_NE(fingerprint(run.result, false), fingerprint(tampered, false));
}

TEST(Gate, CatchesADroppedDelivery) {
  const SmallRun run = small_run();
  ocd::sim::RunResult tampered = run.result;
  tampered.schedule.steps().back().sends().pop_back();
  EXPECT_NE(validation_problem(run.instance, tampered.schedule), "");
  EXPECT_NE(fingerprint(run.result, false), fingerprint(tampered, false));
}

TEST(Gate, ShardTrafficIsIgnoredOnlyWhenAsked) {
  const SmallRun run = small_run();
  ocd::sim::RunResult sharded = run.result;
  sharded.stats.shard_bytes_sent = 1234;
  sharded.stats.wall_seconds = 99.0;
  EXPECT_EQ(result_difference(sharded, run.result, true), "");
  EXPECT_NE(result_difference(sharded, run.result, false), "");
  EXPECT_EQ(fingerprint(sharded, true), fingerprint(run.result, true));
  EXPECT_NE(fingerprint(sharded, false), fingerprint(run.result, false));
}

}  // namespace
}  // namespace perfbench
