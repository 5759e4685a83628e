#include "gate.hpp"

#include "ocd/core/validate.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMaxReasons = 8;

std::string mismatch(std::string_view field, std::int64_t a, std::int64_t b) {
  return std::string(field) + " " + std::to_string(a) + " != " +
         std::to_string(b);
}

/// FNV-1a-style mixing, one 64-bit word per round.
class Digest {
 public:
  void add(std::uint64_t value) {
    state_ = (state_ ^ value) * 0x100000001b3ULL;
    state_ ^= state_ >> 29;
  }
  void add(const std::vector<std::int64_t>& values) {
    add(values.size());
    for (const std::int64_t v : values) add(static_cast<std::uint64_t>(v));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

}  // namespace

void Tally::record(std::string_view label, std::string_view problem) {
  ++attempted_;
  if (problem.empty()) return;
  ++failed_;
  if (reasons_.size() < kMaxReasons)
    reasons_.push_back(std::string(label) + ": " + std::string(problem));
}

std::string schedule_difference(const ocd::core::Schedule& a,
                                const ocd::core::Schedule& b) {
  if (a.length() != b.length())
    return mismatch("schedule length", a.length(), b.length());
  for (std::size_t i = 0; i < a.steps().size(); ++i) {
    const auto& sa = a.steps()[i].sends();
    const auto& sb = b.steps()[i].sends();
    if (sa.size() != sb.size())
      return "timestep " + std::to_string(i) + ": " +
             mismatch("send count", static_cast<std::int64_t>(sa.size()),
                      static_cast<std::int64_t>(sb.size()));
    for (std::size_t j = 0; j < sa.size(); ++j)
      if (sa[j].arc != sb[j].arc || !(sa[j].tokens == sb[j].tokens))
        return "timestep " + std::to_string(i) + ": send " +
               std::to_string(j) + " differs";
  }
  return {};
}

std::string result_difference(const ocd::sim::RunResult& a,
                              const ocd::sim::RunResult& b,
                              bool ignore_shard_traffic) {
  if (a.success != b.success) return "success differs";
  if (a.steps != b.steps) return mismatch("steps", a.steps, b.steps);
  if (a.bandwidth != b.bandwidth)
    return mismatch("bandwidth", a.bandwidth, b.bandwidth);
  if (a.termination != b.termination) return "termination differs";
  const ocd::sim::RunStats& x = a.stats;
  const ocd::sim::RunStats& y = b.stats;
  if (x.moves_per_step != y.moves_per_step) return "moves_per_step differs";
  if (x.lost_per_step != y.lost_per_step) return "lost_per_step differs";
  if (x.completion_step != y.completion_step)
    return "completion_step differs";
  if (x.sent_by_vertex != y.sent_by_vertex) return "sent_by_vertex differs";
  const std::pair<const char*, std::pair<std::int64_t, std::int64_t>>
      counters[] = {
          {"useful_moves", {x.useful_moves, y.useful_moves}},
          {"redundant_moves", {x.redundant_moves, y.redundant_moves}},
          {"lost_moves", {x.lost_moves, y.lost_moves}},
          {"retransmissions", {x.retransmissions, y.retransmissions}},
          {"adapter_dropped_moves",
           {x.adapter_dropped_moves, y.adapter_dropped_moves}},
          {"worker_crashes", {x.worker_crashes, y.worker_crashes}},
          {"recoveries", {x.recoveries, y.recoveries}},
          {"replayed_steps", {x.replayed_steps, y.replayed_steps}},
          {"checkpoint_bytes", {x.checkpoint_bytes, y.checkpoint_bytes}},
      };
  for (const auto& [name, values] : counters)
    if (values.first != values.second)
      return mismatch(name, values.first, values.second);
  if (!ignore_shard_traffic) {
    const std::pair<const char*, std::pair<std::int64_t, std::int64_t>>
        traffic[] = {
            {"shard_bytes_sent", {x.shard_bytes_sent, y.shard_bytes_sent}},
            {"shard_bytes_received",
             {x.shard_bytes_received, y.shard_bytes_received}},
            {"shard_summary_entries",
             {x.shard_summary_entries, y.shard_summary_entries}},
            {"shard_wave_fallbacks",
             {x.shard_wave_fallbacks, y.shard_wave_fallbacks}},
        };
    for (const auto& [name, values] : traffic)
      if (values.first != values.second)
        return mismatch(name, values.first, values.second);
  }
  return schedule_difference(a.schedule, b.schedule);
}

std::uint64_t fingerprint(const ocd::sim::RunResult& result,
                          bool ignore_shard_traffic) {
  Digest d;
  const ocd::sim::RunStats& s = result.stats;
  for (const std::int64_t v :
       {std::int64_t{result.success}, result.steps, result.bandwidth,
        static_cast<std::int64_t>(result.termination), s.useful_moves,
        s.redundant_moves, s.lost_moves, s.retransmissions,
        s.adapter_dropped_moves, s.worker_crashes, s.recoveries,
        s.replayed_steps, s.checkpoint_bytes})
    d.add(static_cast<std::uint64_t>(v));
  if (!ignore_shard_traffic)
    for (const std::int64_t v : {s.shard_bytes_sent, s.shard_bytes_received,
                                 s.shard_summary_entries,
                                 s.shard_wave_fallbacks})
      d.add(static_cast<std::uint64_t>(v));
  d.add(s.moves_per_step);
  d.add(s.lost_per_step);
  d.add(s.completion_step);
  d.add(s.sent_by_vertex);
  d.add(result.schedule.steps().size());
  for (const ocd::core::Timestep& step : result.schedule.steps()) {
    d.add(step.sends().size());
    for (const ocd::core::ArcSend& send : step.sends()) {
      d.add(static_cast<std::uint64_t>(send.arc));
      const ocd::TokenSetView tokens(send.tokens);
      for (std::size_t wi = 0; wi < tokens.num_words(); ++wi)
        d.add(tokens.word(wi));
    }
  }
  return d.value();
}

std::string validation_problem(const ocd::core::Instance& instance,
                               const ocd::core::Schedule& schedule) {
  const ocd::core::ValidationResult v = ocd::core::validate(instance, schedule);
  if (!v.valid) return "invalid schedule: " + v.violation;
  if (!v.successful) return "schedule leaves wants unsatisfied";
  return {};
}

}  // namespace perfbench
