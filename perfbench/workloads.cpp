#include "workloads.hpp"

#include <array>
#include <optional>
#include <stdexcept>

#include "ocd/core/bounds.hpp"
#include "ocd/core/prune.hpp"
#include "ocd/core/scenario.hpp"
#include "ocd/exact/bnb.hpp"
#include "ocd/exact/ip_solver.hpp"
#include "ocd/faults/model.hpp"
#include "ocd/faults/reliable.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/shard/runtime.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"
#include "ocd/topology/transit_stub.hpp"
#include "pins.hpp"
#include "shard_stepper.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using ocd::core::Instance;

constexpr double kLossRate = 0.05;
constexpr std::int64_t kMaxSteps = 500'000;

const Pin* find_pin(std::string_view workload, std::uint64_t seed,
                    std::string_view run) {
  for (const Pin& pin : pinned_outputs())
    if (pin.workload == workload && pin.seed == seed && pin.run == run)
      return &pin;
  return nullptr;
}

std::string pin_problem(const Pin* pin, std::int64_t steps,
                        std::int64_t bandwidth, std::int64_t pruned) {
  if (pin == nullptr) return {};
  if (steps != pin->steps)
    return "steps " + std::to_string(steps) + " != pinned " +
           std::to_string(pin->steps);
  if (bandwidth != pin->bandwidth)
    return "bandwidth " + std::to_string(bandwidth) + " != pinned " +
           std::to_string(pin->bandwidth);
  if (pruned != pin->pruned)
    return "pruned " + std::to_string(pruned) + " != pinned " +
           std::to_string(pin->pruned);
  return {};
}

/// Times set-up step `name` into a span and a sum (when traced).
template <typename Fn>
void setup_step(Layers* layers, const char* name, const char* sum_key,
                Fn&& fn) {
  const std::int64_t start = now_ns();
  fn();
  if (layers != nullptr) {
    const std::int64_t end = now_ns();
    layers->span(name, start, end);
    layers->add(sum_key, seconds_between(start, end));
  }
}

Instance single_source(ocd::Digraph graph, std::int32_t tokens) {
  return ocd::core::single_source_all_receivers(std::move(graph), tokens, 0);
}

// ---------------------------------------------------------------------
// One sim::run followed by core::prune, optionally traced.
// ---------------------------------------------------------------------

struct SimJob {
  const char* label;
  const char* policy;  ///< base planner name (heuristics::make_policy)
  bool reliable;       ///< wrapped in faults::ReliableAdapter
  bool lossy;          ///< 5% uniform loss
};

struct SimOutcome {
  std::string error;
  ocd::sim::RunResult result;
  std::int64_t pruned = 0;
};

SimOutcome run_sim_job(const Instance& instance, const SimJob& job,
                       std::uint64_t seed, Layers* layers) {
  ocd::faults::UniformLoss loss(kLossRate);
  std::optional<TimedFaultModel> timed_loss;
  ocd::sim::SimOptions options;
  options.seed = seed;
  options.max_steps = kMaxSteps;
  if (job.lossy) {
    if (layers != nullptr) {
      options.faults = &timed_loss.emplace(loss);
    } else {
      options.faults = &loss;
    }
  }
  // Traced: TimedPolicy(ReliableAdapter(TimedPolicy(planner))), so the
  // adapter's self time is the outer span minus the inner one.
  ocd::sim::PolicyPtr policy = ocd::heuristics::make_policy(job.policy);
  TimedPolicy* inner = nullptr;
  TimedPolicy* outer = nullptr;
  if (layers != nullptr) {
    auto timed = std::make_unique<TimedPolicy>(std::move(policy),
                                               "heuristics.plan_step", *layers);
    inner = outer = timed.get();
    policy = std::move(timed);
  }
  if (job.reliable) {
    policy = std::make_unique<ocd::faults::ReliableAdapter>(std::move(policy));
    if (layers != nullptr) {
      auto timed = std::make_unique<TimedPolicy>(
          std::move(policy), "faults.reliable_plan_step", *layers);
      outer = timed.get();
      policy = std::move(timed);
    }
  }

  SimOutcome out;
  std::int64_t start = now_ns();
  std::int64_t ran = start;
  std::int64_t pruned = start;
  try {
    out.result = ocd::sim::run(instance, *policy, options);
    ran = now_ns();
    out.pruned = ocd::core::prune(instance, out.result.schedule).bandwidth();
    pruned = now_ns();
  } catch (const std::exception& e) {
    out.error = e.what();
    return out;
  }
  if (layers == nullptr) return out;

  layers->span("sim.run", start, ran);
  layers->span("core.prune", ran, pruned);
  const double run_s = seconds_between(start, ran);
  const double plan_s = static_cast<double>(inner->total_ns()) * 1e-9;
  const double outer_s = static_cast<double>(outer->total_ns()) * 1e-9;
  const double model_s =
      timed_loss ? static_cast<double>(timed_loss->total_ns()) * 1e-9 : 0.0;
  layers->add("sim.run_s", run_s);
  layers->add("heuristics.plan_s", plan_s);
  layers->add("faults.adapter_s", outer_s - plan_s);
  layers->add("faults.model_s", model_s);
  layers->add("sim.core_s", run_s - outer_s - model_s);
  layers->add("heuristics.sends", static_cast<double>(inner->sends()));
  layers->add("heuristics.steps",
              static_cast<double>(inner->durations().size()));
  for (const std::int64_t d : inner->durations())
    layers->plan_ms.push_back(static_cast<double>(d) * 1e-6);
  const std::vector<std::int64_t>& starts = outer->starts();
  for (std::size_t k = 0; k < starts.size(); ++k) {
    const std::int64_t next = k + 1 < starts.size() ? starts[k + 1] : ran;
    layers->step_ms.push_back(static_cast<double>(next - starts[k]) * 1e-6);
  }
  const ocd::sim::RunStats& stats = out.result.stats;
  layers->add("sim.steps", static_cast<double>(out.result.steps));
  layers->add("sim.useful_moves", static_cast<double>(stats.useful_moves));
  layers->add("sim.total_moves", static_cast<double>(stats.total_moves()));
  layers->add("faults.lost_moves", static_cast<double>(stats.lost_moves));
  layers->add("faults.retransmissions",
              static_cast<double>(stats.retransmissions));
  layers->add("faults.adapter_dropped_moves",
              static_cast<double>(stats.adapter_dropped_moves));
  layers->add("core.prune_s", seconds_between(ran, pruned));
  layers->add("core.bandwidth", static_cast<double>(out.result.bandwidth));
  layers->add("core.pruned_bandwidth", static_cast<double>(out.pruned));
  return out;
}

// ---------------------------------------------------------------------
// dense_global and ts_lossy: planner pipelines over one overlay.
// ---------------------------------------------------------------------

class SimWorkload final : public Workload {
 public:
  enum class Overlay { kRandom, kTransitStub };

  /// A pass runs every job on each of `overlays` overlays drawn from
  /// the seed, overlay-major; each overlay carries `tokens` tokens.
  SimWorkload(const char* name, Overlay overlay, std::int32_t vertices,
              std::int32_t tokens, std::size_t overlays,
              std::vector<SimJob> jobs)
      : name_(name), overlay_(overlay), vertices_(vertices), tokens_(tokens),
        jobs_(std::move(jobs)), instances_(overlays),
        outcomes_(runs()), first_(runs()), last_(runs()) {
    for (std::size_t i = 0; i < runs(); ++i)
      labels_.push_back(overlays == 1 ? std::string(job(i).label)
                                      : std::string(job(i).label) + "@" +
                                            std::to_string(i / jobs_.size()));
  }

  [[nodiscard]] std::string_view name() const override { return name_; }

  void setup(std::uint64_t seed, Layers* layers) override {
    seed_ = seed;
    for (std::size_t k = 0; k < instances_.size(); ++k) {
      ocd::Digraph graph;
      setup_step(layers, "topology.build", "topology.build_s", [&] {
        ocd::Rng rng(ocd::derive_seed(
            overlay_ == Overlay::kRandom ? 0x0cd0'd001 : 0x0cd0'd002, seed, k));
        graph =
            overlay_ == Overlay::kRandom
                ? ocd::topology::random_overlay(vertices_, rng)
                : ocd::topology::transit_stub(
                      ocd::topology::transit_stub_options_for_size(vertices_),
                      rng);
      });
      setup_step(layers, "core.instance", "core.instance_s",
                 [&] { instances_[k] = single_source(std::move(graph), tokens_); });
    }
  }

  [[nodiscard]] std::size_t runs() const override {
    return jobs_.size() * instances_.size();
  }

  void run(std::size_t i, Layers* layers) override {
    outcomes_[i] = run_sim_job(instance(i), job(i), seed_, layers);
  }

  void check(std::size_t i, Tally& tally) override {
    SimOutcome out = std::move(outcomes_[i]);
    outcomes_[i] = {};
    tally.check(labels_[i], [&]() -> std::string {
      if (!out.error.empty()) return "threw: " + out.error;
      const ocd::sim::RunResult& r = out.result;
      if (!r.success)
        return std::string("run ended unsatisfied: ") +
               ocd::sim::to_string(r.termination);
      last_[i] = {name_, seed_, labels_[i], r.steps, r.bandwidth, out.pruned};
      const std::uint64_t digest = fingerprint(r, false);
      if (!first_[i]) {
        // The first pass is validated in full; a later pass that
        // matches it bit for bit is valid for the same reason.
        if (std::string p = validation_problem(instance(i), r.schedule);
            !p.empty())
          return p;
        first_[i] = std::make_pair(digest, out.pruned);
      } else if (first_[i]->first != digest ||
                 first_[i]->second != out.pruned) {
        return "outputs differ from the first pass";
      }
      return pin_problem(find_pin(name_, seed_, labels_[i]), r.steps,
                         r.bandwidth, out.pruned);
    });
  }

  [[nodiscard]] std::vector<Pin> observed_pins() const override {
    return last_;
  }

 private:
  [[nodiscard]] const SimJob& job(std::size_t i) const {
    return jobs_[i % jobs_.size()];
  }
  [[nodiscard]] const Instance& instance(std::size_t i) const {
    return instances_[i / jobs_.size()];
  }

  const char* name_;
  Overlay overlay_;
  std::int32_t vertices_;
  std::int32_t tokens_;
  std::vector<SimJob> jobs_;
  std::vector<std::string> labels_;
  std::uint64_t seed_ = 0;
  std::vector<Instance> instances_;
  std::vector<SimOutcome> outcomes_;
  /// Per run: the first pass's fingerprint and pruned bandwidth.
  std::vector<std::optional<std::pair<std::uint64_t, std::int64_t>>> first_;
  std::vector<Pin> last_;
};

// ---------------------------------------------------------------------
// sharded_ts: run_sharded("local") at 4 shards, in-process transport.
// ---------------------------------------------------------------------

class ShardedWorkload final : public Workload {
 public:
  static constexpr std::size_t kOverlays = 4;
  static constexpr std::int32_t kShards = 4;
  static constexpr std::int32_t kVertices = 1000;
  static constexpr std::int32_t kTokens = 128;
  static constexpr const char* kPolicy = "local";

  ShardedWorkload() {
    for (std::size_t i = 0; i < runs(); ++i)
      labels_.push_back(std::string(lossy(i) ? "inproc lossy@" : "inproc@") +
                        std::to_string(i / 2));
  }

  [[nodiscard]] std::string_view name() const override { return "sharded_ts"; }

  void setup(std::uint64_t seed, Layers* layers) override {
    seed_ = seed;
    for (std::size_t k = 0; k < kOverlays; ++k) {
      ocd::Digraph graph;
      setup_step(layers, "topology.build", "topology.build_s", [&] {
        ocd::Rng rng(ocd::derive_seed(0x0cd0'd003, seed, k));
        graph = ocd::topology::transit_stub(
            ocd::topology::transit_stub_options_for_size(kVertices), rng);
      });
      setup_step(layers, "core.instance", "core.instance_s", [&] {
        instances_[k] = single_source(std::move(graph), kTokens);
      });
      // The runtime's default partition: exact balance band (eps = 0),
      // one greedy refinement sweep, no flow refinement.
      setup_step(layers, "shard.partition", "shard.partition_s", [&] {
        partitions_[k] =
            ocd::shard::partition_vertices(instances_[k].graph(), kShards, 1);
      });
      if (layers != nullptr) {
        layers->add("shard.cut_arcs",
                    static_cast<double>(partitions_[k].stats.cut_arcs));
        layers->add("shard.ghosts",
                    static_cast<double>(partitions_[k].stats.total_ghosts));
      }
    }
  }

  void prepare(Tally& tally) override {
    for (std::size_t k = 0; k < kOverlays; ++k)
      one_shard_[k] = ocd::shard::partition_vertices(instances_[k].graph(), 1, 1);
    for (std::size_t i = 0; i < runs(); ++i) {
      tally.check("sim reference for " + labels_[i], [&]() -> std::string {
        ocd::faults::UniformLoss loss(kLossRate);
        auto policy = ocd::heuristics::make_policy(kPolicy);
        reference_[i] = ocd::sim::run(instance(i), *policy,
                                      sim_options(lossy(i) ? &loss : nullptr));
        const ocd::sim::RunResult& r = reference_[i];
        if (!r.success) return "reference run ended unsatisfied";
        if (std::string p = validation_problem(instance(i), r.schedule);
            !p.empty())
          return p;
        pruned_[i] = ocd::core::prune(instance(i), r.schedule).bandwidth();
        return {};
      });
    }
  }

  /// Run 2k is overlay k without loss, run 2k+1 the same with loss.
  [[nodiscard]] std::size_t runs() const override { return 2 * kOverlays; }

  void run(std::size_t i, Layers* layers) override {
    Outcome& out = outcomes_[i];
    out = {};
    const std::int64_t start = now_ns();
    try {
      out.result = run_sharded(i, ocd::shard::TransportKind::kInProcess,
                               kShards, partitions_[i / 2]);
    } catch (const std::exception& e) {
      out.error = e.what();
      return;
    }
    const std::int64_t end = now_ns();
    if (layers == nullptr) return;
    layers->span("shard.run_inproc", start, end);
    layers->add("shard.inproc_s", seconds_between(start, end));
    layers->add("faults.lost_moves",
                static_cast<double>(out.result.stats.lost_moves));
    probe(i, *layers, out);
  }

  void check(std::size_t i, Tally& tally) override {
    Outcome out = std::move(outcomes_[i]);
    outcomes_[i] = {};
    const ocd::sim::RunResult& ref = reference_[i];
    tally.check(labels_[i], [&]() -> std::string {
      if (!out.error.empty()) return "threw: " + out.error;
      if (std::string p = result_difference(out.result, ref, true); !p.empty())
        return "differs from sim::run: " + p;
      return pin_problem(find_pin(name(), seed_, labels_[i]), ref.steps,
                         ref.bandwidth, pruned_[i]);
    });
    if (out.probe_error) {
      tally.check(labels_[i] + " traced probes",
                  [&] { return *out.probe_error; });
    }
  }

  [[nodiscard]] std::vector<Pin> observed_pins() const override {
    std::vector<Pin> pins;
    for (std::size_t i = 0; i < runs(); ++i)
      pins.push_back({"sharded_ts", seed_, labels_[i], reference_[i].steps,
                      reference_[i].bandwidth, pruned_[i]});
    return pins;
  }

 private:
  struct Outcome {
    std::string error;
    ocd::sim::RunResult result;
    /// Set when traced probes ran: empty on success.
    std::optional<std::string> probe_error;
  };

  [[nodiscard]] static bool lossy(std::size_t i) { return i % 2 == 1; }
  [[nodiscard]] const Instance& instance(std::size_t i) const {
    return instances_[i / 2];
  }

  [[nodiscard]] ocd::sim::SimOptions sim_options(
      ocd::faults::FaultModel* faults) const {
    ocd::sim::SimOptions options;
    options.seed = seed_;
    options.max_steps = kMaxSteps;
    options.faults = faults;
    return options;
  }

  /// Run `i`'s instance and loss on `shards` shards over `transport`.
  ocd::sim::RunResult run_sharded(std::size_t i,
                                  ocd::shard::TransportKind transport,
                                  std::int32_t shards,
                                  const ocd::shard::Partition& partition) {
    ocd::faults::UniformLoss loss(kLossRate);
    ocd::shard::ShardOptions options;
    options.num_shards = shards;
    options.transport = transport;
    options.sim = sim_options(lossy(i) ? &loss : nullptr);
    return ocd::shard::run_sharded(instance(i), kPolicy, options, partition);
  }

  /// Traced-only probes after run `i`'s in-process run `out`, on the
  /// same options: the serial phase stepper (must reproduce the run's
  /// steps, termination and frame bytes), the forked transport (must
  /// equal sim::run), and for the clean runs run_sharded at 1 shard
  /// against sim::run.  Their time goes to probe_s.
  void probe(std::size_t i, Layers& layers, Outcome& out) {
    const std::int64_t start = now_ns();
    std::string problem;
    try {
      ocd::faults::UniformLoss loss(kLossRate);
      TimedFaultModel timed_loss(loss);
      const ShardTraceResult traced = trace_sharded(
          instance(i), partitions_[i / 2], kPolicy,
          sim_options(lossy(i) ? &timed_loss : nullptr), layers);
      if (lossy(i))
        layers.add("faults.model_s",
                   static_cast<double>(timed_loss.total_ns()) * 1e-9);
      if (traced.steps != out.result.steps ||
          traced.termination != out.result.termination)
        problem = "serial stepper steps " + std::to_string(traced.steps) +
                  " != " + std::to_string(out.result.steps);
      else if (traced.frame_bytes != out.result.stats.shard_bytes_sent)
        problem = "serial stepper frame bytes " +
                  std::to_string(traced.frame_bytes) +
                  " != " + std::to_string(out.result.stats.shard_bytes_sent);

      const std::int64_t t0 = now_ns();
      const ocd::sim::RunResult forked =
          run_sharded(i, ocd::shard::TransportKind::kForked, kShards,
                      partitions_[i / 2]);
      const std::int64_t t1 = now_ns();
      layers.span("shard.run_forked", t0, t1);
      layers.add("shard.forked_s", seconds_between(t0, t1));
      if (std::string p = result_difference(forked, reference_[i], true);
          problem.empty() && !p.empty())
        problem = "forked run differs from sim::run: " + p;

      if (!lossy(i)) {
        const std::int64_t t2 = now_ns();
        const ocd::sim::RunResult one =
            run_sharded(i, ocd::shard::TransportKind::kInProcess, 1,
                        one_shard_[i / 2]);
        const std::int64_t t3 = now_ns();
        auto policy = ocd::heuristics::make_policy(kPolicy);
        const ocd::sim::RunResult plain =
            ocd::sim::run(instance(i), *policy, sim_options(nullptr));
        const std::int64_t t4 = now_ns();
        layers.span("shard.run_one_shard", t2, t3);
        layers.span("sim.run", t3, t4);
        layers.add("shard.one_shard_s", seconds_between(t2, t3));
        layers.add("shard.sim_s", seconds_between(t3, t4));
        if (std::string p = result_difference(one, plain, true);
            problem.empty() && !p.empty())
          problem = "one-shard run: " + p;
      }
    } catch (const std::exception& e) {
      problem = std::string("threw: ") + e.what();
    }
    out.probe_error = problem;
    layers.probe_s += seconds_between(start, now_ns());
  }

  std::vector<std::string> labels_;
  std::uint64_t seed_ = 0;
  std::array<Instance, kOverlays> instances_;
  std::array<ocd::shard::Partition, kOverlays> partitions_;
  std::array<ocd::shard::Partition, kOverlays> one_shard_;
  std::array<ocd::sim::RunResult, 2 * kOverlays> reference_;
  std::array<std::int64_t, 2 * kOverlays> pruned_{};
  std::array<Outcome, 2 * kOverlays> outcomes_;
};

// ---------------------------------------------------------------------
// exact_gap: exact solvers and bounds on small instances.
// ---------------------------------------------------------------------

class ExactWorkload final : public Workload {
 public:
  /// Instances per pass: enough that B&B and IP node totals differ by
  /// only a few percent between seeds, few enough that a run times
  /// every instance in well over a dozen passes.
  static constexpr std::size_t kInstances = 4000;
  static constexpr std::int32_t kMaxTau = 12;

  [[nodiscard]] std::string_view name() const override { return "exact_gap"; }

  void setup(std::uint64_t seed, Layers* layers) override {
    seed_ = seed;
    setup_step(layers, "topology.build", "topology.build_s", [&] {
      instances_.clear();
      instances_.reserve(kInstances);
      // table_optimality_gap's generator and seed base, consecutive
      // seeds; --seed selects the block.
      for (std::size_t k = 0; k < kInstances; ++k) {
        ocd::Rng rng(0x7ab'0000 + seed * kInstances + k);
        instances_.push_back(ocd::core::random_small_instance(5, 2, 0.5, rng));
      }
    });
  }

  [[nodiscard]] std::size_t runs() const override { return kInstances; }

  void run(std::size_t i, Layers* layers) override {
    const Instance& inst = instances_[i];
    Outcome& out = outcomes_[i];
    out = {};
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = t0, t2 = t0, t3 = t0;
    try {
      out.bnb = ocd::exact::focd_min_makespan(inst, kMaxTau);
      t1 = now_ns();
      out.lb_makespan = ocd::core::makespan_lower_bound(inst);
      out.lb_bandwidth = ocd::core::bandwidth_lower_bound(inst);
      t2 = now_ns();
      if (out.bnb) out.ip = ocd::exact::solve_eocd(inst, out.bnb->makespan);
      t3 = now_ns();
    } catch (const std::exception& e) {
      out.error = e.what();
      return;
    }
    if (layers == nullptr) return;
    layers->span("exact.bnb", t0, t1);
    layers->span("core.bounds", t1, t2);
    layers->span("exact.ip", t2, t3);
    layers->add("exact.bnb_s", seconds_between(t0, t1));
    layers->add("core.bounds_s", seconds_between(t1, t2));
    layers->add("exact.ip_s", seconds_between(t2, t3));
    if (out.bnb) {
      layers->add("exact.bnb_nodes", static_cast<double>(out.bnb->stats.nodes));
      layers->add("exact.flow_checks",
                  static_cast<double>(out.bnb->stats.flow_checks));
    }
    if (out.ip)
      layers->add("exact.ip_nodes", static_cast<double>(out.ip->nodes_explored));
  }

  void check(std::size_t i, Tally& tally) override {
    Outcome out = std::move(outcomes_[i]);
    outcomes_[i] = {};
    tally.check("instance " + std::to_string(i), [&]() -> std::string {
      if (!out.error.empty()) return "threw: " + out.error;
      if (!out.bnb) return "B&B found no makespan within the horizon";
      const std::int64_t makespan = out.bnb->makespan;
      if (out.lb_makespan > makespan)
        return "makespan lower bound " + std::to_string(out.lb_makespan) +
               " > B&B optimum " + std::to_string(makespan);
      if (!out.ip) return "IP infeasible at the B&B makespan";
      if (out.ip->bandwidth < out.lb_bandwidth)
        return "IP bandwidth " + std::to_string(out.ip->bandwidth) +
               " < bandwidth lower bound " + std::to_string(out.lb_bandwidth);
      const Signature sig{makespan, out.ip->bandwidth, out.lb_makespan,
                          out.lb_bandwidth};
      sums_[0] += makespan;
      sums_[1] += out.ip->bandwidth;
      sums_[2] += out.lb_bandwidth;
      if (!first_[i]) {
        const Instance& inst = instances_[i];
        for (const ocd::core::Schedule* s :
             {&out.bnb->schedule, &out.ip->schedule}) {
          if (std::string p = validation_problem(inst, *s); !p.empty())
            return p;
          if (s->length() > makespan)
            return "schedule longer than the optimal makespan";
        }
        first_[i] = sig;
      } else if (!(*first_[i] == sig)) {
        return "outputs differ from the first pass";
      }
      return {};
    });
    if (i + 1 == kInstances) {
      last_sums_ = sums_;
      sums_ = {};
      if (const Pin* pin = find_pin(name(), seed_, "instances"))
        tally.check("instance sums", [&] {
          return pin_problem(pin, last_sums_[0], last_sums_[1], last_sums_[2]);
        });
    }
  }

  [[nodiscard]] std::vector<Pin> observed_pins() const override {
    return {{"exact_gap", seed_, "instances", last_sums_[0], last_sums_[1],
             last_sums_[2]}};
  }

 private:
  struct Outcome {
    std::string error;
    std::optional<ocd::exact::BnbMakespanResult> bnb;
    std::optional<ocd::exact::IpSolveResult> ip;
    std::int64_t lb_makespan = 0;
    std::int64_t lb_bandwidth = 0;
  };
  struct Signature {
    std::int64_t makespan, ip_bandwidth, lb_makespan, lb_bandwidth;
    bool operator==(const Signature&) const = default;
  };

  std::uint64_t seed_ = 0;
  std::vector<Instance> instances_;
  std::vector<Outcome> outcomes_ = std::vector<Outcome>(kInstances);
  std::vector<std::optional<Signature>> first_ =
      std::vector<std::optional<Signature>>(kInstances);
  /// Makespans, IP bandwidths, bandwidth lower bounds summed over the
  /// pass in progress / the last completed pass.
  std::array<std::int64_t, 3> sums_{};
  std::array<std::int64_t, 3> last_sums_{};
};

double sum_or_zero(const std::map<std::string, double>& sums,
                   const std::string& key) {
  const auto it = sums.find(key);
  return it == sums.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

void Workload::prepare(Tally&) {}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"dense_global", "ts_lossy",
                                                 "sharded_ts", "exact_gap"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name) {
  using Overlay = SimWorkload::Overlay;
  if (name == "dense_global")
    return std::make_unique<SimWorkload>(
        "dense_global", Overlay::kRandom, 1000, 512, 2,
        std::vector<SimJob>{{"global", "global", false, false},
                            {"bandwidth", "bandwidth", false, false}});
  if (name == "ts_lossy")
    return std::make_unique<SimWorkload>(
        "ts_lossy", Overlay::kTransitStub, 250, 128, 16,
        std::vector<SimJob>{{"local", "local", false, true},
                            {"random+reliable", "random", true, true},
                            {"round-robin", "round-robin", false, true}});
  if (name == "sharded_ts") return std::make_unique<ShardedWorkload>();
  if (name == "exact_gap") return std::make_unique<ExactWorkload>();
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

const std::vector<MetricSpec>& layer_metric_specs() {
  static const std::vector<MetricSpec> specs = {
      {"topology.build_s", "s"},
      {"heuristics.plan_s", "s"},
      {"heuristics.plan_ms_p50", "ms"},
      {"heuristics.plan_ms_p90", "ms"},
      {"heuristics.plan_share", "ratio"},
      {"heuristics.sends_per_step", "count"},
      {"sim.core_s", "s"},
      {"sim.step_ms_p50", "ms"},
      {"sim.step_ms_p90", "ms"},
      {"sim.steps", "count"},
      {"sim.useful_ratio", "ratio"},
      {"faults.model_s", "s"},
      {"faults.adapter_s", "s"},
      {"faults.lost_moves", "count"},
      {"faults.retransmissions", "count"},
      {"faults.adapter_dropped_moves", "count"},
      {"core.prune_s", "s"},
      {"core.pruned_ratio", "ratio"},
      {"core.bounds_s", "s"},
      {"shard.partition_s", "s"},
      {"shard.cut_arcs", "count"},
      {"shard.ghosts", "count"},
      {"shard.plan_s", "s"},
      {"shard.apply_s", "s"},
      {"shard.commit_s", "s"},
      {"shard.wait_s", "s"},
      {"shard.plan_bytes", "bytes"},
      {"shard.apply_bytes", "bytes"},
      {"shard.bytes_per_step", "bytes"},
      {"shard.inproc_s", "s"},
      {"shard.forked_s", "s"},
      {"shard.one_shard_ratio", "ratio"},
      {"exact.bnb_s", "s"},
      {"exact.bnb_nodes", "count"},
      {"exact.flow_checks", "count"},
      {"exact.ip_s", "s"},
      {"exact.ip_nodes", "count"},
      {"trace_overhead_pct", "%"},
  };
  return specs;
}

std::map<std::string, double> finish_layers(
    const std::vector<Layers>& setups, const std::vector<Layers>& passes,
    const std::vector<double>& untraced_wall,
    const std::vector<double>& traced_wall) {
  // Median over set-up repetitions / traced passes of a per-repetition
  // value.
  const auto over = [](const std::vector<Layers>& reps, auto&& value) {
    std::vector<double> samples;
    for (const Layers& l : reps) samples.push_back(value(l.sums));
    return median(samples);
  };
  const auto setup_sum = [&](const char* key) {
    return over(setups, [&](const auto& s) { return sum_or_zero(s, key); });
  };
  const auto pass_sum = [&](const char* key) {
    return over(passes, [&](const auto& s) { return sum_or_zero(s, key); });
  };
  const auto pass_ratio = [&](const char* num, const char* den) {
    return over(passes, [&](const auto& s) {
      return ratio(sum_or_zero(s, num), sum_or_zero(s, den));
    });
  };
  std::vector<double> plan_ms, step_ms;
  for (const Layers& l : passes) {
    plan_ms.insert(plan_ms.end(), l.plan_ms.begin(), l.plan_ms.end());
    step_ms.insert(step_ms.end(), l.step_ms.begin(), l.step_ms.end());
  }
  const auto pct = [](const std::vector<double>& samples, double p) {
    return percentile(samples, p).value_or(0.0);
  };

  std::map<std::string, double> m;
  for (const char* key : {"topology.build_s", "shard.partition_s",
                          "shard.cut_arcs", "shard.ghosts"})
    m[key] = setup_sum(key);
  for (const char* key :
       {"heuristics.plan_s", "sim.core_s", "sim.steps", "faults.model_s",
        "faults.adapter_s", "faults.lost_moves", "faults.retransmissions",
        "faults.adapter_dropped_moves", "core.prune_s", "core.bounds_s",
        "shard.plan_s", "shard.apply_s", "shard.commit_s", "shard.wait_s",
        "shard.plan_bytes", "shard.apply_bytes", "shard.inproc_s",
        "shard.forked_s", "exact.bnb_s", "exact.bnb_nodes",
        "exact.flow_checks", "exact.ip_s", "exact.ip_nodes"})
    m[key] = pass_sum(key);
  m["heuristics.plan_ms_p50"] = pct(plan_ms, 50);
  m["heuristics.plan_ms_p90"] = pct(plan_ms, 90);
  m["heuristics.plan_share"] = pass_ratio("heuristics.plan_s", "sim.run_s");
  m["heuristics.sends_per_step"] =
      pass_ratio("heuristics.sends", "heuristics.steps");
  m["sim.step_ms_p50"] = pct(step_ms, 50);
  m["sim.step_ms_p90"] = pct(step_ms, 90);
  m["sim.useful_ratio"] = pass_ratio("sim.useful_moves", "sim.total_moves");
  m["core.pruned_ratio"] =
      pass_ratio("core.pruned_bandwidth", "core.bandwidth");
  m["shard.bytes_per_step"] = over(passes, [](const auto& s) {
    return ratio(sum_or_zero(s, "shard.plan_bytes") +
                     sum_or_zero(s, "shard.apply_bytes"),
                 sum_or_zero(s, "shard.steps"));
  });
  m["shard.one_shard_ratio"] =
      pass_ratio("shard.one_shard_s", "shard.sim_s");
  const double untraced = median(untraced_wall);
  m["trace_overhead_pct"] =
      untraced == 0.0 ? 0.0 : 100.0 * (median(traced_wall) / untraced - 1.0);
  return m;
}

}  // namespace perfbench
