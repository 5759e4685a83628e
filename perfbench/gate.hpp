// The benchmark's correctness gate: failure counting and the output
// comparisons every workload's check() is built from.
//
// A run that throws or fails a check is counted and described, never
// rethrown: one bad run must not hide the rest of the pass.
#pragma once

#include <cstdint>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "ocd/core/instance.hpp"
#include "ocd/core/schedule.hpp"
#include "ocd/sim/simulator.hpp"

namespace perfbench {

/// Runs attempted and failed, with the first few failure reasons.
class Tally {
 public:
  /// Counts one run: failed when `problem` is non-empty.
  void record(std::string_view label, std::string_view problem);

  /// Counts one run whose check is `fn` (returns an empty string when
  /// the run passed, else the reason); an exception from `fn` fails it.
  template <typename Fn>
  void check(std::string_view label, Fn&& fn) {
    std::string problem;
    try {
      problem = fn();
    } catch (const std::exception& e) {
      problem = std::string("threw: ") + e.what();
    }
    record(label, problem);
  }

  [[nodiscard]] std::int64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::int64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& reasons() const noexcept {
    return reasons_;
  }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> reasons_;  ///< capped; see record()
};

/// Empty when both schedules hold the same timesteps with the same
/// sends in the same order; else where they first differ.
std::string schedule_difference(const ocd::core::Schedule& a,
                                const ocd::core::Schedule& b);

/// Empty when two run results agree bit for bit on steps, bandwidth,
/// termination, schedule and RunStats.  Wall time always differs and
/// is ignored; `ignore_shard_traffic` also ignores the shard_* traffic
/// counters, which only run_sharded fills.
std::string result_difference(const ocd::sim::RunResult& a,
                              const ocd::sim::RunResult& b,
                              bool ignore_shard_traffic);

/// 64-bit digest of everything result_difference compares (shard
/// traffic included unless `ignore_shard_traffic`).  Passes keep the
/// digest of the first pass instead of its schedules, which can run to
/// hundreds of megabytes.
std::uint64_t fingerprint(const ocd::sim::RunResult& result,
                          bool ignore_shard_traffic);

/// Empty when `schedule` replays validly and satisfies every want.
std::string validation_problem(const ocd::core::Instance& instance,
                               const ocd::core::Schedule& schedule);

}  // namespace perfbench
