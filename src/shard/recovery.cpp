#include "ocd/shard/recovery.hpp"

#include <cstdlib>

#include "ocd/util/binstream.hpp"
#include "ocd/util/env.hpp"
#include "ocd/util/rng.hpp"

namespace ocd::shard {

namespace {

/// "OCK1": checkpoint record magic + version in one word, so a frame
/// that is not a checkpoint at all fails on the first field.
constexpr std::uint32_t kCheckpointMagic = 0x4F434B31u;

std::tuple<std::int32_t, std::int64_t, std::uint8_t> point_key(
    std::int32_t shard, std::int64_t step, CrashPhase phase) {
  return {shard, step, static_cast<std::uint8_t>(phase)};
}

}  // namespace

const char* crash_phase_name(CrashPhase phase) noexcept {
  switch (phase) {
    case CrashPhase::kPlan:
      return "plan";
    case CrashPhase::kApply:
      return "apply";
    case CrashPhase::kCommit:
      return "commit";
  }
  return "?";
}

CrashPlan& CrashPlan::crash(std::int32_t shard, std::int64_t step,
                            CrashPhase phase) {
  points_[point_key(shard, step, phase)] = {CrashAction::kCrash, false};
  return *this;
}

CrashPlan& CrashPlan::hang(std::int32_t shard, std::int64_t step,
                           CrashPhase phase) {
  points_[point_key(shard, step, phase)] = {CrashAction::kHang, false};
  return *this;
}

CrashPlan& CrashPlan::crash_always(std::int32_t shard, std::int64_t step,
                                   CrashPhase phase) {
  points_[point_key(shard, step, phase)] = {CrashAction::kCrash, true};
  return *this;
}

CrashPlan& CrashPlan::random_crashes(double rate, std::uint64_t seed) {
  rate_ = rate;
  seed_ = seed;
  return *this;
}

CrashAction CrashPlan::action(std::int32_t shard, std::int64_t step,
                              CrashPhase phase,
                              std::int32_t incarnation) const {
  const auto it = points_.find(point_key(shard, step, phase));
  if (it != points_.end() &&
      (incarnation == 0 || it->second.every_incarnation))
    return it->second.action;
  if (rate_ > 0.0 && incarnation == 0) {
    // Derived per coordinate, like every other randomized decision in
    // the sharded runtime: the crash schedule is a pure function of
    // (seed, shard, step, phase), independent of transport or timing.
    Rng rng(derive_seed(seed_,
                        (static_cast<std::uint64_t>(shard) << 8) |
                            static_cast<std::uint64_t>(phase),
                        static_cast<std::uint64_t>(step)));
    if (rng.chance(rate_)) return CrashAction::kCrash;
  }
  return CrashAction::kNone;
}

std::int64_t resolve_checkpoint_interval(std::int64_t requested) {
  if (requested > 0) return requested;
  if (requested < 0)
    throw Error("RecoveryOptions.checkpoint_interval must be >= 0, got " +
                std::to_string(requested));
  const char* env = std::getenv("OCD_SHARD_CHECKPOINT_INTERVAL");
  if (env == nullptr) return 0;
  return util::parse_env_int("OCD_SHARD_CHECKPOINT_INTERVAL", env);
}

void put_checkpoint(util::BinStream& out, const Checkpoint& checkpoint) {
  out.put_u32(kCheckpointMagic);
  out.put_varint(static_cast<std::uint64_t>(checkpoint.shard));
  out.put_varint(static_cast<std::uint64_t>(checkpoint.num_shards));
  out.put_varint(static_cast<std::uint64_t>(checkpoint.step));
  out.put_varint(static_cast<std::uint64_t>(checkpoint.fault_cursor));
  out.put_varint(static_cast<std::uint64_t>(checkpoint.unsatisfied));
  out.put_varint(static_cast<std::uint64_t>(checkpoint.local_unsatisfied));
  out.put_varint(static_cast<std::uint64_t>(checkpoint.no_progress));
  out.put_varint(static_cast<std::uint64_t>(checkpoint.bytes_sent));
  out.put_varint(static_cast<std::uint64_t>(checkpoint.bytes_received));
  util::put_token_matrix(out, checkpoint.possession);
  out.put_varint(checkpoint.satisfied.size());
  for (char s : checkpoint.satisfied)
    out.put_u8(static_cast<std::uint8_t>(s));
  out.put_varint(checkpoint.completion.size());
  for (std::int64_t c : checkpoint.completion) out.put_varint_signed(c);
  out.put_varint(checkpoint.sent_by.size());
  for (const auto& [vertex, count] : checkpoint.sent_by) {
    out.put_varint(static_cast<std::uint64_t>(vertex));
    out.put_varint(static_cast<std::uint64_t>(count));
  }
  out.put_bool(!checkpoint.holders.empty());
  if (!checkpoint.holders.empty()) {
    out.put_varint(checkpoint.holders.size());
    for (std::int32_t h : checkpoint.holders)
      out.put_varint(static_cast<std::uint64_t>(h));
    for (std::int32_t n : checkpoint.need)
      out.put_varint(static_cast<std::uint64_t>(n));
  }
  out.put_string(checkpoint.policy_state);
  out.put_bool(!checkpoint.moves_per_step.empty() || checkpoint.shard == 0);
  if (!checkpoint.moves_per_step.empty() || checkpoint.shard == 0) {
    out.put_varint(checkpoint.moves_per_step.size());
    for (std::int64_t x : checkpoint.moves_per_step)
      out.put_varint(static_cast<std::uint64_t>(x));
    for (std::int64_t x : checkpoint.lost_per_step)
      out.put_varint(static_cast<std::uint64_t>(x));
    out.put_varint(static_cast<std::uint64_t>(checkpoint.useful_total));
    out.put_varint(static_cast<std::uint64_t>(checkpoint.lost_total));
  }
  out.put_bool(checkpoint.has_schedule);
  if (checkpoint.has_schedule) util::put_schedule(out, checkpoint.schedule);
}

Checkpoint get_checkpoint(util::BinStream& in, const char* field,
                          std::int32_t expect_shard) {
  Checkpoint out;
  in.require(in.get_u32(field) == kCheckpointMagic, field,
             "bad checkpoint magic");
  const auto remaining = [&] { return in.size() - in.read_pos(); };

  out.shard = static_cast<std::int32_t>(in.get_varint("checkpoint.shard"));
  out.num_shards =
      static_cast<std::int32_t>(in.get_varint("checkpoint.num_shards"));
  in.require(out.num_shards > 0, "checkpoint.num_shards", "not positive");
  in.require(out.shard >= 0 && out.shard < out.num_shards, "checkpoint.shard",
             "shard id out of range");
  in.require(expect_shard < 0 || out.shard == expect_shard,
             "checkpoint.shard", "checkpoint from the wrong shard");
  out.step = static_cast<std::int64_t>(in.get_varint("checkpoint.step"));
  out.fault_cursor =
      static_cast<std::int64_t>(in.get_varint("checkpoint.fault_cursor"));
  in.require(out.fault_cursor == out.step, "checkpoint.fault_cursor",
             "fault cursor != committed step");
  out.unsatisfied =
      static_cast<std::int64_t>(in.get_varint("checkpoint.unsatisfied"));
  out.local_unsatisfied = static_cast<std::int64_t>(
      in.get_varint("checkpoint.local_unsatisfied"));
  in.require(out.local_unsatisfied <= out.unsatisfied,
             "checkpoint.local_unsatisfied", "exceeds the global count");
  out.no_progress =
      static_cast<std::int64_t>(in.get_varint("checkpoint.no_progress"));
  out.bytes_sent =
      static_cast<std::int64_t>(in.get_varint("checkpoint.bytes_sent"));
  out.bytes_received =
      static_cast<std::int64_t>(in.get_varint("checkpoint.bytes_received"));
  out.possession = util::get_token_matrix(in, "checkpoint.possession");

  const std::uint64_t n_satisfied = in.get_varint("checkpoint.satisfied");
  in.require(n_satisfied <= remaining(), "checkpoint.satisfied",
             "count exceeds the remaining bytes");
  out.satisfied.reserve(n_satisfied);
  for (std::uint64_t i = 0; i < n_satisfied; ++i) {
    const std::uint8_t s = in.get_u8("checkpoint.satisfied");
    in.require(s <= 1, "checkpoint.satisfied", "not a boolean");
    out.satisfied.push_back(static_cast<char>(s));
  }
  const std::uint64_t n_completion = in.get_varint("checkpoint.completion");
  in.require(n_completion == n_satisfied, "checkpoint.completion",
             "length != satisfied length");
  out.completion.reserve(n_completion);
  for (std::uint64_t i = 0; i < n_completion; ++i) {
    const std::int64_t c = in.get_varint_signed("checkpoint.completion");
    in.require(c >= -1 && c <= out.step, "checkpoint.completion",
               "completion step out of range");
    in.require((c >= 0) == (out.satisfied[i] != 0), "checkpoint.completion",
               "completion disagrees with the satisfied flag");
    out.completion.push_back(c);
  }
  const std::uint64_t n_senders = in.get_varint("checkpoint.senders");
  in.require(n_senders <= remaining(), "checkpoint.senders",
             "count exceeds the remaining bytes");
  out.sent_by.reserve(n_senders);
  std::int64_t prev_vertex = -1;
  for (std::uint64_t i = 0; i < n_senders; ++i) {
    const auto v =
        static_cast<std::int64_t>(in.get_varint("checkpoint.sender.vertex"));
    in.require(v > prev_vertex, "checkpoint.sender.vertex",
               "vertices not strictly increasing");
    prev_vertex = v;
    const auto c =
        static_cast<std::int64_t>(in.get_varint("checkpoint.sender.count"));
    in.require(c > 0, "checkpoint.sender.count", "count not positive");
    out.sent_by.emplace_back(v, c);
  }

  if (in.get_bool("checkpoint.has_aggregates")) {
    const std::uint64_t n_tokens = in.get_varint("checkpoint.aggregates");
    in.require(n_tokens == out.possession.universe_size(),
               "checkpoint.aggregates", "length != token universe");
    out.holders.reserve(n_tokens);
    for (std::uint64_t i = 0; i < n_tokens; ++i)
      out.holders.push_back(
          static_cast<std::int32_t>(in.get_varint("checkpoint.holders")));
    out.need.reserve(n_tokens);
    for (std::uint64_t i = 0; i < n_tokens; ++i)
      out.need.push_back(
          static_cast<std::int32_t>(in.get_varint("checkpoint.need")));
  }
  out.policy_state = in.get_string("checkpoint.policy_state");

  if (in.get_bool("checkpoint.has_series")) {
    in.require(out.shard == 0, "checkpoint.has_series",
               "series on a non-zero shard");
    const std::uint64_t n_steps = in.get_varint("checkpoint.series");
    in.require(n_steps == static_cast<std::uint64_t>(out.step),
               "checkpoint.series", "length != committed steps");
    out.moves_per_step.reserve(n_steps);
    for (std::uint64_t i = 0; i < n_steps; ++i)
      out.moves_per_step.push_back(
          static_cast<std::int64_t>(in.get_varint("checkpoint.moves")));
    out.lost_per_step.reserve(n_steps);
    for (std::uint64_t i = 0; i < n_steps; ++i)
      out.lost_per_step.push_back(
          static_cast<std::int64_t>(in.get_varint("checkpoint.lost")));
    out.useful_total =
        static_cast<std::int64_t>(in.get_varint("checkpoint.useful_total"));
    out.lost_total =
        static_cast<std::int64_t>(in.get_varint("checkpoint.lost_total"));
  } else {
    in.require(out.shard != 0, "checkpoint.has_series",
               "shard 0 checkpoint without the global series");
  }
  out.has_schedule = in.get_bool("checkpoint.has_schedule");
  if (out.has_schedule)
    out.schedule = util::get_schedule(in, "checkpoint.schedule");
  return out;
}

}  // namespace ocd::shard
