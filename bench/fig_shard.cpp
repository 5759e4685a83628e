// Vertex-sharded scaling sweep: the same broadcast instance run at
// shards x {1, 2, 4} over both transports and two local planners
// ("round-robin", "local"), with the partitioner's cut statistics and
// the barrier traffic accounting alongside the run metrics.  The point
// of the figure is the properties the shard runtime promises: every row
// of a policy reports the same steps/bandwidth (bit-identity across
// shard counts and transports), and the full-scale instance — a
// million-vertex sparse overlay that would be impractical under the
// O(n^2) generator — completes across 4 shards.
// Rows are emitted in a fixed (transport, policy, shards) loop order,
// so the output is diff-stable across runs.
//
// --crash-rate=<r> arms crash recovery (checkpoints every 3 steps) with
// a seeded random crash schedule at rate r per (shard, step, phase).
// The crashes/replayed/ckpt_b columns then snapshot the recovery
// overhead, and the bit-identity check extends over the crashed rows:
// recovery must not change a single reported number.
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "ocd/core/scenario.hpp"
#include "ocd/shard/recovery.hpp"
#include "ocd/shard/runtime.hpp"
#include "ocd/topology/random_graph.hpp"
#include "ocd/topology/transit_stub.hpp"

namespace {

double crash_rate_requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--crash-rate=", 0) == 0)
      return std::atof(arg.data() + std::string_view("--crash-rate=").size());
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ocd;
  const bool csv = bench::csv_requested(argc, argv);
  const double crash_rate = crash_rate_requested(argc, argv);
  const bool full = bench::full_scale();
  bench::print_header("fig_shard",
                      "vertex-sharded runtime: scaling + bit-identity "
                      "across shard counts, transports and planners");

  const std::int32_t n = full ? 1'000'000 : 20'000;
  const std::int32_t num_tokens = 8;
  const double expected_degree = 8.0;

  Stopwatch build_timer;
  Rng graph_rng(0x5a4d'0001);
  Digraph base = topology::sparse_random_overlay(n, expected_degree,
                                                 graph_rng);
  const auto inst =
      core::single_source_all_receivers(std::move(base), num_tokens, 0);
  std::cout << "# instance: " << n << " vertices, "
            << inst.graph().num_arcs() << " arcs, " << num_tokens
            << " tokens, built in " << build_timer.seconds() << " s\n";

  const std::vector<std::int32_t> shard_counts = {1, 2, 4};
  const struct {
    shard::TransportKind kind;
    const char* name;
  } transports[] = {
      {shard::TransportKind::kInProcess, "inproc"},
      {shard::TransportKind::kForked, "forked"},
  };
  const char* policies[] = {"round-robin", "local"};

  shard::CrashPlan crash_plan;
  if (crash_rate > 0.0) {
    crash_plan.random_crashes(crash_rate, 0xc4a5'0001);
    std::cout << "# crash-rate: " << crash_rate
              << " per (shard, step, phase); checkpoints every 3 steps\n";
  }

  Table table({"transport", "policy", "part", "shards", "cut_arcs",
               "cut_pct", "imb_pct", "ghosts", "success", "steps",
               "bandwidth", "kb_per_step", "crashes", "replayed",
               "ckpt_b", "part_ms", "run_s"});
  table.set_precision(3);

  // Partition variants per shard count: the default greedy partition at
  // every count, plus the flow-refined eps=5 partition at the largest —
  // the greedy-vs-flow comparison rows.  The flow rows join the same
  // bit-identity check: a partition may only move ownership, never the
  // schedule.
  struct PartitionCase {
    std::int32_t shards;
    bool flow;
  };
  const std::vector<PartitionCase> partition_cases = {
      {1, false}, {2, false}, {4, false}, {4, true}};
  constexpr std::int32_t kFlowEps = 5;
  // The head-to-head section runs at a wider slack: transit-stub
  // separators sit off-center, so the band needs room before the min
  // cut's reassignment is adoptable at every shard count.
  constexpr std::int32_t kCompareEps = 10;

  bool identical = true;
  for (const auto& transport : transports) {
    for (const char* policy : policies) {
      std::int64_t first_steps = -1;
      std::int64_t first_bandwidth = -1;
      for (const PartitionCase& pc : partition_cases) {
        const std::int32_t shards = pc.shards;
        shard::PartitionOptions part_options;
        part_options.num_shards = shards;
        part_options.balance_eps = pc.flow ? kFlowEps : 0;
        part_options.flow_refine = pc.flow;
        Stopwatch part_timer;
        const shard::Partition part =
            shard::partition_vertices(inst.graph(), part_options);
        const double part_seconds = part_timer.seconds();

        shard::ShardOptions options;
        options.num_shards = shards;
        options.transport = transport.kind;
        options.sim.seed = 7;
        options.sim.record_schedule = false;
        options.sim.max_steps = 500'000;
        if (crash_rate > 0.0) {
          options.recovery.crash_plan = &crash_plan;
          options.recovery.checkpoint_interval = 3;
          options.recovery.max_respawns = 64;
        }
        Stopwatch run_timer;
        const auto result = shard::run_sharded(inst, policy, options, part);
        const double run_seconds = run_timer.seconds();

        // Bit-identity is per policy: every (transport, shards) row of
        // one planner must report the same trajectory.
        if (first_steps < 0) {
          first_steps = result.steps;
          first_bandwidth = result.bandwidth;
        } else if (result.steps != first_steps ||
                   result.bandwidth != first_bandwidth) {
          identical = false;
        }
        const double kb_per_step =
            result.steps == 0
                ? 0.0
                : static_cast<double>(result.stats.shard_bytes_sent) /
                      (1024.0 * static_cast<double>(result.steps));
        // Achieved imbalance: largest ownership class over the perfect
        // n/k average, in percent (0 = perfectly balanced).
        const double imb_pct =
            100.0 * (static_cast<double>(part.stats.max_owned) *
                         static_cast<double>(shards) /
                         static_cast<double>(n) -
                     1.0);
        table.add_row({std::string(transport.name), std::string(policy),
                       std::string(pc.flow ? "flow" : "greedy"), shards,
                       part.stats.cut_arcs,
                       100.0 * part.stats.cut_fraction(), imb_pct,
                       part.stats.total_ghosts,
                       std::string(result.success ? "yes" : "no"),
                       result.steps, result.bandwidth, kb_per_step,
                       result.stats.worker_crashes,
                       result.stats.replayed_steps,
                       result.stats.checkpoint_bytes,
                       1000.0 * part_seconds, run_seconds});
      }
    }
  }

  bench::emit(table, csv);

  // Partitioner refinement depth: the runtime's default single sweep vs
  // a deeper budget, on the same overlay.  The reduction is the cut
  // traffic the deeper refinement would save a deployment that can
  // afford the extra partitioning time.  Reported at shard counts that
  // do not divide n: the balance bounds give refinement exactly
  // ceil(n/k) - floor(n/k) vertices of slack per shard, so when k | n
  // the bounds pin every class size and no sweep can move anything —
  // the sweep loop is only exercised where slack exists.
  std::cout << "# multi-sweep refinement (cut arcs, sweeps=1 -> sweeps=8):\n";
  for (const std::int32_t shards : {3, 7}) {
    const shard::Partition one =
        shard::partition_vertices(inst.graph(), shards, 1);
    const shard::Partition deep =
        shard::partition_vertices(inst.graph(), shards, 8);
    const double reduction =
        one.stats.cut_arcs == 0
            ? 0.0
            : 100.0 *
                  static_cast<double>(one.stats.cut_arcs -
                                      deep.stats.cut_arcs) /
                  static_cast<double>(one.stats.cut_arcs);
    std::cout << "#   shards=" << shards << ": " << one.stats.cut_arcs
              << " -> " << deep.stats.cut_arcs << " (-" << reduction
              << "%)\n";
  }

  // Greedy vs flow-refined partitions on the paper's structured
  // topology: transit-stub graphs have genuinely small separators (the
  // stub-transit attachment edges), which local greedy moves cannot
  // reach but a min cut finds — the measured cut reduction is the
  // barrier traffic the flow stage saves at the same balance slack.
  std::cout << "# greedy vs flow partitions, transit-stub overlay (eps="
            << kCompareEps << "):\n";
  {
    Rng ts_rng(0x5a4d'0002);
    const Digraph ts = topology::transit_stub(
        topology::transit_stub_options_for_size(20'000), ts_rng);
    std::cout << "#   (" << ts.num_vertices() << " vertices, "
              << ts.num_arcs() << " arcs)\n";
    for (const std::int32_t shards : {3, 4, 7}) {
      shard::PartitionOptions greedy_options;
      greedy_options.num_shards = shards;
      greedy_options.balance_eps = kCompareEps;
      Stopwatch greedy_timer;
      const shard::Partition greedy =
          shard::partition_vertices(ts, greedy_options);
      const double greedy_ms = 1000.0 * greedy_timer.seconds();
      shard::PartitionOptions flow_options = greedy_options;
      flow_options.flow_refine = true;
      Stopwatch flow_timer;
      const shard::Partition flow = shard::partition_vertices(ts,
                                                              flow_options);
      const double flow_ms = 1000.0 * flow_timer.seconds();
      const double reduction =
          greedy.stats.cut_arcs == 0
              ? 0.0
              : 100.0 *
                    static_cast<double>(greedy.stats.cut_arcs -
                                        flow.stats.cut_arcs) /
                    static_cast<double>(greedy.stats.cut_arcs);
      std::cout << "#   shards=" << shards << ": " << greedy.stats.cut_arcs
                << " -> " << flow.stats.cut_arcs << " cut arcs (-"
                << reduction << "%), " << greedy_ms << " -> " << flow_ms
                << " ms\n";
    }
  }

  std::cout << "# bit-identity across rows (per policy): "
            << (identical ? "yes" : "NO — INVARIANT VIOLATED") << '\n'
            << "# expected: steps/bandwidth identical on every row of a\n"
               "# policy (flow-refined rows included — partitioning only\n"
               "# moves ownership); the cut fraction stays well below\n"
               "# the ~"
            << 100.0 * (1.0 - 1.0 / 4.0)
            << "% a random 4-way assignment would pay.\n";
  return identical ? 0 : 1;
}
