// The benchmark's four workloads.
//
// Each workload builds its inputs from a seed (set-up), then repeats a
// pass of measured work: a fixed list of runs, each timed from outside
// around calls into the library's public functions.  The gate checks a
// run's outputs right after it, untimed, and then drops them, so at
// most one run's schedule is alive at a time.
//
//   dense_global  two random overlays 1000v x 512t, global + bandwidth
//                 on each, then core::prune: the coordinated planners.
//                 global's step count (17-25) depends on the overlay.
//                 Not listed in BENCHMARK.json: too unsteady to gate
//                 (perfbench/README.md, "Host noise").
//   ts_lossy      eight transit-stub 500v x 128t overlays under 5%
//                 uniform loss, local + random+reliable + round-robin on
//                 each, then prune: the simulator core, the fault model
//                 and the adapter.  Round-robin's step count varies by
//                 overlay, so one overlay per pass would make wall_s
//                 depend on the seed more than on the code.
//   sharded_ts    four transit-stub 1000v x 128t overlays,
//                 shard::run_sharded("local") at 4 shards in-process,
//                 with and without 5% loss: the shard runtime.  The
//                 forked transport runs in traced passes only (see
//                 main.cpp, kPoolJobs).
//   Both keep every run short (at most ~0.2 s), so each run is timed in
//   dozens of passes; see fastest_pass_s in main.cpp.
//   exact_gap     table_optimality_gap's small random instances: B&B
//                 makespan, combinatorial bounds, and the IP at the
//                 optimal makespan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gate.hpp"
#include "trace.hpp"

namespace perfbench {

/// Pinned outputs of one run for one seed.  For exact_gap the single
/// entry "instances" holds the sums over the pass: B&B makespans in
/// `steps`, IP bandwidths in `bandwidth`, bandwidth lower bounds in
/// `pruned`.
struct Pin {
  std::string workload;
  std::uint64_t seed = 0;
  std::string run;
  std::int64_t steps = 0;
  std::int64_t bandwidth = 0;
  std::int64_t pruned = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Builds the inputs from `seed`.  Repeated through the run to time
  /// set-up, so it must rebuild identical inputs and leave the gate's
  /// state alone.  With `layers` non-null, also records set-up spans
  /// and sums.
  virtual void setup(std::uint64_t seed, Layers* layers) = 0;
  /// Untimed work the gate needs before the first pass (references).
  virtual void prepare(Tally& tally);
  /// Runs in one pass.
  [[nodiscard]] virtual std::size_t runs() const = 0;
  /// Run `i` of a pass, the measured work.  With `layers` non-null the
  /// run is traced; traced-only probes add their time to layers->probe_s.
  virtual void run(std::size_t i, Layers* layers) = 0;
  /// Gate over run `i`'s outputs: records one or more runs in `tally`,
  /// then releases the outputs.
  virtual void check(std::size_t i, Tally& tally) = 0;
  /// The last pass's outputs as pins for the current seed.
  [[nodiscard]] virtual std::vector<Pin> observed_pins() const = 0;
};

/// "dense_global", "ts_lossy", "sharded_ts", "exact_gap".
const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name);

/// The per-layer metrics reported by a traced run, in report order,
/// with their units.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& layer_metric_specs();

/// Turns the traced passes' raw sums into the per-layer metrics:
/// time and count metrics are the median over passes, percentiles are
/// taken over the per-step samples of all passes pooled, set-up metrics
/// are the median over set-up repetitions, and trace_overhead_pct
/// compares the median traced pass with the median untraced one.
/// Metrics a workload does not exercise read 0.
std::map<std::string, double> finish_layers(
    const std::vector<Layers>& setups, const std::vector<Layers>& passes,
    const std::vector<double>& untraced_wall,
    const std::vector<double>& traced_wall);

}  // namespace perfbench
