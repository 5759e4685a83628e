// Serial traced stepper for the shard runtime's barrier protocol.
//
// Steps the public shard::ShardWorker phase methods one worker at a
// time with the in-process transport's mailbox semantics (write every
// outbox, transpose, read every inbox) and advances a shared fault
// model once per step, as shard::InProcessTransport does.  Running the
// workers serially lets each phase of each worker be timed on its own:
// the slowest worker of a phase is what a parallel barrier waits for,
// and the others' shortfall is their idle time at that barrier.
#pragma once

#include <cstdint>
#include <string_view>

#include "ocd/core/instance.hpp"
#include "ocd/shard/partition.hpp"
#include "ocd/sim/simulator.hpp"
#include "trace.hpp"

namespace perfbench {

struct ShardTraceResult {
  std::int64_t steps = 0;
  ocd::sim::Termination termination = ocd::sim::Termination::kSatisfied;
  std::int64_t frame_bytes = 0;  ///< every frame, init round included
};

/// Runs `policy_name` over the partition as run_sharded would, adding
/// per-phase spans (track 1 + shard) and these sums to `layers`:
/// shard.plan_s / apply_s / commit_s (slowest worker per step),
/// shard.wait_s (idle time of the faster workers), shard.plan_bytes /
/// apply_bytes and shard.steps.  `options` follows run_sharded's
/// envelope; pass a TimedFaultModel as options.faults to time the fault
/// model too.
ShardTraceResult trace_sharded(const ocd::core::Instance& instance,
                               const ocd::shard::Partition& partition,
                               std::string_view policy_name,
                               const ocd::sim::SimOptions& options,
                               Layers& layers);

}  // namespace perfbench
