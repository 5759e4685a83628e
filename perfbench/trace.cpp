#include "trace.hpp"

#include <algorithm>
#include <set>

namespace perfbench {

namespace {

void write_json_string(std::ostream& out, std::string_view text) {
  out << '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << ' ';
    } else {
      out << c;
    }
  }
  out << '"';
}

}  // namespace

void write_chrome_trace(
    std::ostream& out, const std::vector<Span>& spans,
    const std::vector<std::pair<std::string, std::string>>& metadata) {
  std::int64_t origin = 0;
  if (!spans.empty())
    origin = std::min_element(spans.begin(), spans.end(),
                              [](const Span& a, const Span& b) {
                                return a.start_ns < b.start_ns;
                              })
                 ->start_ns;
  std::set<std::int32_t> tracks;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto separator = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const Span& s : spans) {
    tracks.insert(s.track);
    separator();
    out << "{\"name\":";
    write_json_string(out, s.name);
    out << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.track
        << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << '}';
  }
  for (const std::int32_t track : tracks) {
    separator();
    const std::string label =
        track == 0 ? "main" : "shard " + std::to_string(track - 1);
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << track
        << ",\"args\":{\"name\":";
    write_json_string(out, label);
    out << "}}";
  }
  out << "],\n\"otherData\":{";
  for (std::size_t i = 0; i < metadata.size(); ++i) {
    if (i > 0) out << ',';
    write_json_string(out, metadata[i].first);
    out << ':';
    write_json_string(out, metadata[i].second);
  }
  out << "}}\n";
}

TimedPolicy::TimedPolicy(ocd::sim::PolicyPtr inner, const char* span_name,
                         Layers& layers)
    : inner_(std::move(inner)), span_name_(span_name), layers_(layers) {}

std::string_view TimedPolicy::name() const { return inner_->name(); }

ocd::sim::KnowledgeClass TimedPolicy::knowledge_class() const {
  return inner_->knowledge_class();
}

void TimedPolicy::reset(const ocd::core::Instance& instance,
                        std::uint64_t seed) {
  inner_->reset(instance, seed);
}

void TimedPolicy::plan_step(const ocd::sim::StepView& view,
                            ocd::sim::StepPlan& plan) {
  const std::int64_t start = now_ns();
  inner_->plan_step(view, plan);
  const std::int64_t end = now_ns();
  total_ns_ += end - start;
  sends_ += static_cast<std::int64_t>(plan.sends().size());
  starts_.push_back(start);
  durations_.push_back(end - start);
  layers_.span(span_name_, start, end);
}

void TimedPolicy::plan_vertex(ocd::VertexId self,
                              const ocd::sim::StepView& view,
                              ocd::sim::StepPlan& plan) {
  inner_->plan_vertex(self, view, plan);
}

void TimedPolicy::plan_shard(const ocd::sim::StepView& view,
                             ocd::sim::StepPlan& plan,
                             std::span<const ocd::VertexId> owned) {
  inner_->plan_shard(view, plan, owned);
}

void TimedPolicy::finish_run(ocd::sim::RunStats& stats) {
  inner_->finish_run(stats);
}

void TimedPolicy::save_state(ocd::util::BinStream& out) const {
  inner_->save_state(out);
}

void TimedPolicy::load_state(ocd::util::BinStream& in) {
  inner_->load_state(in);
}

void TimedFaultModel::reset(const ocd::core::Instance& instance,
                            std::uint64_t seed) {
  inner_.reset(instance, seed);
}

void TimedFaultModel::begin_step(std::int64_t step, const ocd::Digraph& graph) {
  const std::int64_t start = now_ns();
  inner_.begin_step(step, graph);
  total_ns_ += now_ns() - start;
}

void TimedFaultModel::lost(std::int64_t step, ocd::ArcId arc,
                           const ocd::TokenSet& sent, ocd::TokenSet& lost) {
  const std::int64_t start = now_ns();
  inner_.lost(step, arc, sent, lost);
  total_ns_ += now_ns() - start;
}

}  // namespace perfbench
