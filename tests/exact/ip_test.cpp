#include "ocd/exact/ip_builder.hpp"
#include "ocd/exact/ip_solver.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "ocd/core/scenario.hpp"
#include "ocd/core/validate.hpp"
#include "ocd/exact/bnb.hpp"
#include "ocd/lp/mip.hpp"

namespace ocd::exact {
namespace {

core::Instance line_instance() {
  Digraph g(3);
  g.add_arc(0, 1, 1);
  g.add_arc(1, 2, 1);
  core::Instance inst(std::move(g), 1);
  inst.add_have(0, 0);
  inst.add_want(2, 0);
  return inst;
}

TEST(IpBuilder, DimensionsMatchFormulation) {
  const core::Instance inst = line_instance();
  const TimeIndexedIp ip(inst, /*horizon=*/2);
  // send: arcs(2) * tokens(1) * steps(2); hold: vertices(3) * tokens(1)
  // * (horizon+1).
  EXPECT_EQ(ip.program().num_variables(), 2 * 1 * 2 + 3 * 1 * 3);
  // possession (2*1*2) + no-minting (3*1*2) + capacity (2*2).
  EXPECT_EQ(ip.program().num_constraints(), 4 + 6 + 4);
}

TEST(IpBuilder, VariableIndicesAreDistinctAndInRange) {
  const core::Instance inst = line_instance();
  const TimeIndexedIp ip(inst, 2);
  std::vector<bool> seen(static_cast<std::size_t>(ip.program().num_variables()),
                         false);
  auto mark = [&](std::int32_t idx) {
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, ip.program().num_variables());
    EXPECT_FALSE(seen[static_cast<std::size_t>(idx)]);
    seen[static_cast<std::size_t>(idx)] = true;
  };
  for (ArcId a = 0; a < 2; ++a)
    for (std::int32_t i = 1; i <= 2; ++i) mark(ip.send_var(a, 0, i));
  for (VertexId v = 0; v < 3; ++v)
    for (std::int32_t i = 0; i <= 2; ++i) mark(ip.hold_var(v, 0, i));
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(IpBuilder, InitialAndFinalBoundsEncodeHaveWant) {
  const core::Instance inst = line_instance();
  const TimeIndexedIp ip(inst, 2);
  const auto& program = ip.program();
  // Vertex 0 holds token 0 at time 0 (fixed to 1).
  EXPECT_EQ(program.variable(ip.hold_var(0, 0, 0)).lower, 1.0);
  // Vertex 2 lacks it initially (fixed to 0).
  EXPECT_EQ(program.variable(ip.hold_var(2, 0, 0)).upper, 0.0);
  // Vertex 2 must hold it at the horizon.
  EXPECT_EQ(program.variable(ip.hold_var(2, 0, 2)).lower, 1.0);
}

TEST(IpSolver, LineNeedsTwoSteps) {
  const core::Instance inst = line_instance();
  EXPECT_FALSE(solve_eocd(inst, 1).has_value());
  const auto solved = solve_eocd(inst, 2);
  ASSERT_TRUE(solved.has_value());
  EXPECT_EQ(solved->bandwidth, 2);
  EXPECT_TRUE(core::is_successful(inst, solved->schedule));
}

TEST(IpSolver, MinMakespanMatchesDistance) {
  const core::Instance inst = line_instance();
  const auto result = min_makespan_ip(inst, 5);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->makespan, 2);
}

TEST(IpSolver, TrivialInstanceNeedsNothing) {
  Digraph g(2);
  g.add_arc(0, 1, 1);
  core::Instance inst(std::move(g), 1);
  inst.add_have(0, 0);
  const auto solved = solve_eocd(inst, 1);
  ASSERT_TRUE(solved.has_value());
  EXPECT_EQ(solved->bandwidth, 0);
  const auto makespan = min_makespan_ip(inst, 3);
  ASSERT_TRUE(makespan.has_value());
  EXPECT_EQ(makespan->makespan, 0);
}

TEST(IpSolver, UnsatisfiableReturnsNullopt) {
  Digraph g(2);
  g.add_arc(0, 1, 1);
  core::Instance inst(std::move(g), 1);
  inst.add_have(1, 0);
  inst.add_want(0, 0);
  EXPECT_FALSE(min_makespan_ip(inst, 4).has_value());
  EXPECT_FALSE(solve_eocd(inst, 3).has_value());
}

TEST(IpSolver, Figure1MinimumTimeCostsSixMoves) {
  const core::Instance inst = core::figure1_instance();
  const auto fast = solve_eocd(inst, 2);
  ASSERT_TRUE(fast.has_value());
  EXPECT_TRUE(fast->proven_optimal);
  EXPECT_EQ(fast->bandwidth, 6);
  EXPECT_FALSE(solve_eocd(inst, 1).has_value());
}

TEST(IpSolver, Figure1MinimumBandwidthIsFourInThreeSteps) {
  const core::Instance inst = core::figure1_instance();
  const auto slow = solve_eocd(inst, 3);
  ASSERT_TRUE(slow.has_value());
  EXPECT_TRUE(slow->proven_optimal);
  EXPECT_EQ(slow->bandwidth, 4);
  EXPECT_EQ(slow->schedule.length(), 3);
}

TEST(IpSolver, WiderHorizonNeverIncreasesBandwidth) {
  const core::Instance inst = core::figure1_instance();
  const auto h3 = solve_eocd(inst, 3);
  const auto h4 = solve_eocd(inst, 4);
  ASSERT_TRUE(h3.has_value());
  ASSERT_TRUE(h4.has_value());
  EXPECT_LE(h4->bandwidth, h3->bandwidth);
}

TEST(IpSolver, CapacityMattersInModel) {
  // Two tokens over one capacity-1 arc need two steps.
  Digraph g(2);
  g.add_arc(0, 1, 1);
  core::Instance inst(std::move(g), 2);
  inst.add_have(0, 0);
  inst.add_have(0, 1);
  inst.add_want(1, 0);
  inst.add_want(1, 1);
  EXPECT_FALSE(solve_eocd(inst, 1).has_value());
  const auto two = solve_eocd(inst, 2);
  ASSERT_TRUE(two.has_value());
  EXPECT_EQ(two->bandwidth, 2);
}


TEST(LpBound, BracketedByCountingBoundAndOptimum) {
  // Figure 1 at horizon 2: counting bound 4 < LP bound <= IP optimum 6.
  const core::Instance inst = core::figure1_instance();
  const auto lp_lb = lp_bandwidth_lower_bound(inst, 2);
  ASSERT_TRUE(lp_lb.has_value());
  EXPECT_GE(*lp_lb, 4.0 - 1e-6);   // >= simple counting bound
  EXPECT_LE(*lp_lb, 6.0 + 1e-6);   // <= integral optimum
  // The relay structure forces strictly more than the counting bound.
  EXPECT_GT(*lp_lb, 4.0 + 0.5);
}

TEST(LpBound, TightAtRelaxedHorizon) {
  // With 3 steps the integral optimum is 4; the LP can do no better
  // than the counting bound but no worse either.
  const core::Instance inst = core::figure1_instance();
  const auto lp_lb = lp_bandwidth_lower_bound(inst, 3);
  ASSERT_TRUE(lp_lb.has_value());
  EXPECT_GE(*lp_lb, 4.0 - 1e-6);
  EXPECT_LE(*lp_lb, 4.0 + 1e-6);
}

TEST(LpBound, InfeasibleHorizonReturnsNullopt) {
  const core::Instance inst = core::figure1_instance();
  EXPECT_FALSE(lp_bandwidth_lower_bound(inst, 1).has_value());
}

TEST(LpBound, TrivialInstanceIsZero) {
  Digraph g(2);
  g.add_arc(0, 1, 1);
  core::Instance inst(std::move(g), 1);
  inst.add_have(0, 0);
  const auto lp_lb = lp_bandwidth_lower_bound(inst, 1);
  ASSERT_TRUE(lp_lb.has_value());
  EXPECT_DOUBLE_EQ(*lp_lb, 0.0);
}

TEST(LpBound, NeverExceedsIpOptimumOnRandomInstances) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed + 0x11a0);
    const auto inst = core::random_small_instance(4, 2, 0.5, rng);
    const auto makespan = min_makespan_ip(inst, 10);
    if (!makespan.has_value()) continue;
    const std::int32_t horizon = makespan->makespan + 1;
    const auto ip = solve_eocd(inst, horizon);
    const auto lp_lb = lp_bandwidth_lower_bound(inst, horizon);
    ASSERT_TRUE(ip.has_value()) << seed;
    ASSERT_TRUE(lp_lb.has_value()) << seed;
    EXPECT_LE(*lp_lb, static_cast<double>(ip->bandwidth) + 1e-6) << seed;
  }
}

// Pins the simplex's pivot sequence: a fixed block of small random IPs
// solved at their B&B makespan must reproduce the iteration and node
// totals, the objective sum and the exact bits of every solution value
// that the dense vector-of-rows tableau produced.  A change to the
// tableau's layout must leave all four untouched; a change to pricing,
// the ratio test or the float order of any update moves them.
TEST(IpPivotPin, FixedBlockReproducesIterationsNodesAndSolutionBits) {
  std::int64_t iterations = 0;
  std::int64_t nodes = 0;
  double objective = 0.0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a 64
  int solved = 0;
  for (std::uint64_t k = 0; k < 300; ++k) {
    Rng rng(0x9170'0000 + k);
    const auto inst = core::random_small_instance(5, 2, 0.5, rng);
    const auto bnb = focd_min_makespan(inst, 12);
    ASSERT_TRUE(bnb.has_value()) << k;
    if (bnb->makespan == 0) continue;
    const TimeIndexedIp ip(inst, bnb->makespan);
    const lp::MipResult mip = lp::solve_mip(ip.program());
    ASSERT_EQ(mip.status, lp::SolveStatus::kOptimal) << k;
    ++solved;
    iterations += mip.lp_iterations;
    nodes += mip.nodes_explored;
    objective += mip.objective;
    for (const double v : mip.values) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      for (int byte = 0; byte < 8; ++byte) {
        digest ^= (bits >> (8 * byte)) & 0xffU;
        digest *= 0x100000001b3ULL;
      }
    }
  }
  EXPECT_EQ(solved, 300);
  EXPECT_EQ(iterations, 16657);
  EXPECT_EQ(nodes, 400);
  EXPECT_EQ(objective, 1416.0);
  EXPECT_EQ(digest, 0x177bdc45aba90598ULL);
}
}  // namespace
}  // namespace ocd::exact
