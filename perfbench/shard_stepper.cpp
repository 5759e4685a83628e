#include "shard_stepper.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ocd/faults/model.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/shard/transport.hpp"

namespace perfbench {

namespace {

/// The watchdog window the simulator arms when a fault model is active
/// and SimOptions::no_progress_window is 0.
constexpr std::int64_t kAutoWatchdogWindow = 256;

std::int64_t frame_bytes(const std::vector<std::vector<std::string>>& boxes) {
  std::int64_t total = 0;
  for (const auto& row : boxes)
    for (const std::string& frame : row)
      total += static_cast<std::int64_t>(frame.size());
  return total;
}

}  // namespace

ShardTraceResult trace_sharded(const ocd::core::Instance& instance,
                               const ocd::shard::Partition& partition,
                               std::string_view policy_name,
                               const ocd::sim::SimOptions& options,
                               Layers& layers) {
  using ocd::shard::ShardWorker;
  ocd::shard::RunContext ctx;
  ctx.instance = &instance;
  ctx.partition = &partition;
  ctx.policy_name = std::string(policy_name);
  ctx.sim = options;
  ctx.knowledge = ocd::heuristics::make_policy(policy_name)->knowledge_class();
  ctx.watchdog_window = options.no_progress_window;
  if (ctx.watchdog_window == 0)
    ctx.watchdog_window = options.faults != nullptr ? kAutoWatchdogWindow : -1;
  const ocd::Digraph& graph = instance.graph();
  ctx.static_capacity.resize(static_cast<std::size_t>(graph.num_arcs()));
  for (ocd::ArcId a = 0; a < graph.num_arcs(); ++a)
    ctx.static_capacity[static_cast<std::size_t>(a)] = graph.arc(a).capacity;
  if (options.faults != nullptr) options.faults->reset(instance, options.seed);

  const auto count = static_cast<std::size_t>(partition.num_shards);
  std::vector<std::unique_ptr<ShardWorker>> workers;
  for (std::size_t s = 0; s < count; ++s)
    workers.push_back(
        std::make_unique<ShardWorker>(ctx, static_cast<std::int32_t>(s)));

  std::vector<std::vector<std::string>> outbox(count), inbox(count);
  for (std::size_t s = 0; s < count; ++s) {
    outbox[s].assign(count, {});
    inbox[s].assign(count, {});
  }
  ShardTraceResult result;
  const auto transpose = [&] {
    result.frame_bytes += frame_bytes(outbox);
    for (std::size_t src = 0; src < count; ++src)
      for (std::size_t dst = 0; dst < count; ++dst)
        if (src != dst) inbox[dst][src] = std::move(outbox[src][dst]);
  };
  // Times one phase on every worker in turn; the slowest worker is the
  // phase's barrier time, the rest idle for the difference.
  std::vector<std::int64_t> took(count);
  const auto phase = [&](const char* span, const char* sum_key, auto&& fn) {
    for (std::size_t s = 0; s < count; ++s) {
      const std::int64_t start = now_ns();
      fn(s);
      const std::int64_t end = now_ns();
      took[s] = end - start;
      layers.span(span, start, end, static_cast<std::int32_t>(s) + 1);
    }
    const std::int64_t slowest = *std::max_element(took.begin(), took.end());
    layers.add(sum_key, static_cast<double>(slowest) * 1e-9);
    for (const std::int64_t t : took)
      layers.add("shard.wait_s", static_cast<double>(slowest - t) * 1e-9);
  };

  for (std::size_t s = 0; s < count; ++s) workers[s]->phase_init(outbox[s]);
  transpose();
  for (std::size_t s = 0; s < count; ++s) workers[s]->absorb_init(inbox[s]);

  while (workers[0]->running()) {
    if (options.faults != nullptr)
      options.faults->begin_step(workers[0]->step(), graph);
    phase("shard.plan", "shard.plan_s",
          [&](std::size_t s) { workers[s]->phase_plan(outbox[s]); });
    layers.add("shard.plan_bytes", static_cast<double>(frame_bytes(outbox)));
    transpose();
    phase("shard.apply", "shard.apply_s", [&](std::size_t s) {
      workers[s]->phase_apply(inbox[s], outbox[s]);
    });
    layers.add("shard.apply_bytes", static_cast<double>(frame_bytes(outbox)));
    transpose();
    phase("shard.commit", "shard.commit_s",
          [&](std::size_t s) { workers[s]->phase_commit(inbox[s]); });
  }
  result.steps = workers[0]->step();
  result.termination = workers[0]->termination();
  layers.add("shard.steps", static_cast<double>(result.steps));
  return result;
}

}  // namespace perfbench
