// In-memory span recording for the traced benchmark run.
//
// Spans are taken from outside the library: around calls into its
// public functions, and inside two decorators that forward every
// virtual call of a sim::Policy or faults::FaultModel and time the
// ones that do work.  Nothing here changes what the wrapped object
// computes, which the gate checks by comparing traced outputs with the
// untraced ones bit for bit.  Everything is timed with steady_clock
// (wall time), never CPU time: pool threads and forked shard processes
// work outside the calling thread's CPU clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "ocd/faults/model.hpp"
#include "ocd/sim/policy.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

struct Span {
  const char* name = "";   ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t track = 0;  ///< 0 = the driving thread, 1 + s = shard s
};

/// One traced pass: its spans plus the raw per-layer sums that
/// finish_layers() (workloads.hpp) turns into the reported metrics.
struct Layers {
  std::vector<Span> spans;
  std::map<std::string, double> sums;
  std::vector<double> plan_ms;  ///< inner Policy::plan_step durations
  std::vector<double> step_ms;  ///< plan start to next plan start
  /// Wall seconds of traced-only probes (the serial shard stepper and
  /// the one-shard comparison), left out of the pass's traced wall time
  /// so trace_overhead_pct compares like with like.
  double probe_s = 0.0;

  void span(const char* name, std::int64_t start_ns, std::int64_t end_ns,
            std::int32_t track = 0) {
    spans.push_back({name, start_ns, end_ns, track});
  }
  void add(const std::string& key, double value) { sums[key] += value; }
};

/// Writes `spans` as Chrome trace-event JSON ("X" complete events, one
/// thread row per track), with `metadata` under "otherData".
void write_chrome_trace(
    std::ostream& out, const std::vector<Span>& spans,
    const std::vector<std::pair<std::string, std::string>>& metadata);

/// Forwards every Policy call to `inner` and times plan_step.
class TimedPolicy final : public ocd::sim::Policy {
 public:
  TimedPolicy(ocd::sim::PolicyPtr inner, const char* span_name,
              Layers& layers);

  [[nodiscard]] std::string_view name() const override;
  [[nodiscard]] ocd::sim::KnowledgeClass knowledge_class() const override;
  void reset(const ocd::core::Instance& instance, std::uint64_t seed) override;
  void plan_step(const ocd::sim::StepView& view,
                 ocd::sim::StepPlan& plan) override;
  void plan_vertex(ocd::VertexId self, const ocd::sim::StepView& view,
                   ocd::sim::StepPlan& plan) override;
  void plan_shard(const ocd::sim::StepView& view, ocd::sim::StepPlan& plan,
                  std::span<const ocd::VertexId> owned) override;
  void finish_run(ocd::sim::RunStats& stats) override;
  void save_state(ocd::util::BinStream& out) const override;
  void load_state(ocd::util::BinStream& in) override;

  [[nodiscard]] std::int64_t total_ns() const noexcept { return total_ns_; }
  /// Start time of every plan_step call, in call order.
  [[nodiscard]] const std::vector<std::int64_t>& starts() const noexcept {
    return starts_;
  }
  /// Duration of every plan_step call, in call order.
  [[nodiscard]] const std::vector<std::int64_t>& durations() const noexcept {
    return durations_;
  }
  /// Arc sends the wrapped policy planned, summed over steps.
  [[nodiscard]] std::int64_t sends() const noexcept { return sends_; }

 private:
  ocd::sim::PolicyPtr inner_;
  const char* span_name_;
  Layers& layers_;
  std::int64_t total_ns_ = 0;
  std::int64_t sends_ = 0;
  std::vector<std::int64_t> starts_;
  std::vector<std::int64_t> durations_;
};

/// Forwards every FaultModel call to `inner` and times begin_step and
/// lost.  lost() runs once per arc send, so it is summed, not spanned.
class TimedFaultModel final : public ocd::faults::FaultModel {
 public:
  explicit TimedFaultModel(ocd::faults::FaultModel& inner) : inner_(inner) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  void reset(const ocd::core::Instance& instance, std::uint64_t seed) override;
  void begin_step(std::int64_t step, const ocd::Digraph& graph) override;
  void lost(std::int64_t step, ocd::ArcId arc, const ocd::TokenSet& sent,
            ocd::TokenSet& lost) override;

  [[nodiscard]] std::int64_t total_ns() const noexcept { return total_ns_; }

 private:
  ocd::faults::FaultModel& inner_;
  std::int64_t total_ns_ = 0;
};

}  // namespace perfbench
