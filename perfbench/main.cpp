// ocd_perfbench: the repository's end-to-end benchmark.
//
// Runs at the library's default configuration (any OCD_* variable is
// refused) except for the intra-run worker pool, which is narrowed to
// one worker (see kPoolJobs).
//   ocd_perfbench --workload dense_global|ts_lossy|sharded_ts|exact_gap|all
//                 [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//                 [--print-pins]
//
// Per workload: set-up is timed on its own.  Set-ups run back to back
// in batches filling at least kSetupSampleSeconds; kSetupReps batches
// are taken up front and one before every measured pass, so they span
// the run, and setup_s is the fastest single set-up.  One untimed
// warm-up pass follows, then passes repeat while the next is expected
// to finish within S seconds (at least kMinPasses), each pinned to the
// next CPU in turn (CpuRotation).  wall_s is the sum over a pass's runs
// of each run's fastest time (see fastest_pass_s).
// Every run of every pass goes through the correctness
// gate; failures are counted, not fatal.  With --trace 1, untraced and
// traced passes alternate and the per-layer metrics are reported
// instead; the spans of the last traced pass go to --trace-out as
// Chrome trace-event JSON.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 1 when any run failed, 2 on a usage or
// configuration error (no result line then).
#include <sched.h>
#include <sys/resource.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ocd/util/parallel.hpp"
#include "ocd/util/simd.hpp"
#include "stats.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kSetupReps = 5;
constexpr double kSetupSampleSeconds = 0.05;
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMinTracedPasses = 2;
// The intra-run pool runs inline.  At the default width (one worker per
// core) every parallel region waits for its slowest worker, and on a
// shared 4-vCPU host that made dense_global and the in-process shard
// runs 1.5-2x slower for minutes at a time: wall_s varied by 0.35
// (quartile spread over median) between seeds, more than any bound
// could absorb.  The pool paths do not pay on such hosts either
// (ROADMAP: global is ~1.9x slower at 2 threads than at 1).
constexpr unsigned kPoolJobs = 1;

struct Args {
  std::string workload = "all";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool print_pins = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "error: " << message
            << "\nusage: ocd_perfbench --workload NAME|all [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out FILE] "
               "[--print-pins]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-pins") {
      args.print_pins = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value, &used);
        if (!(args.seconds > 0)) usage_error("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        usage_error("unknown flag " + flag);
      }
      if (used != 0 && used != value.size())
        usage_error("bad number for " + flag + ": " + value);
    } catch (const std::logic_error&) {
      usage_error("bad number for " + flag + ": " + value);
    }
  }
  return args;
}

/// Every OCD_* variable changes what the library does (jobs, SIMD
/// level, shard knobs, checkpoints, figure scale), so the benchmark
/// only runs at the default configuration.
std::vector<std::string> behaviour_knobs_set() {
  std::vector<std::string> set;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e)
    if (std::strncmp(*e, "OCD_", 4) == 0) set.emplace_back(*e);
  return set;
}

int online_cpus() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) != 0) return 0;
  return CPU_COUNT(&cpus);
}

/// Pins the process to one CPU of its affinity mask at a time and
/// restores the mask when destroyed.  Untraced passes (with their
/// set-up batch) rotate through the CPUs, so every run is timed on each
/// of them; see fastest_pass_s.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&mask_);
    if (sched_getaffinity(0, sizeof(mask_), &mask_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &mask_)) cpus_.push_back(c);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() { release(); }

  /// Pins to the k-th allowed CPU (modulo their count).
  void pin(std::size_t k) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  /// Restores the original mask.
  void release() {
    if (pinned_) sched_setaffinity(0, sizeof(mask_), &mask_);
    pinned_ = false;
  }

 private:
  cpu_set_t mask_{};
  std::vector<int> cpus_;
  bool pinned_ = false;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Records the host and build, then narrows the library's intra-run
/// worker pool to kPoolJobs.
std::vector<std::pair<std::string, std::string>> configure() {
  namespace simd = ocd::util::simd;
  const unsigned default_jobs = ocd::util::parallel_jobs();
  ocd::util::set_parallel_jobs(kPoolJobs);
  return {
      {"nproc", std::to_string(online_cpus())},
      {"parallel_jobs_default", std::to_string(default_jobs)},
      {"parallel_jobs", std::to_string(ocd::util::parallel_jobs())},
      {"simd_active", simd::level_name(simd::active_level())},
      {"simd_max", simd::level_name(simd::max_supported_level())},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
  };
}

struct Report {
  std::string workload;
  std::vector<double> setup_s;        ///< single set-ups
  std::vector<double> wall_s;         ///< untraced passes
  /// Per run of a pass, its times over the untraced passes.
  std::vector<std::vector<double>> run_s;
  std::vector<double> traced_wall_s;  ///< traced passes, probes excluded
  std::vector<Layers> setup_layers;
  std::vector<Layers> pass_layers;
  double peak_rss_mb = 0.0;
  Tally tally;
};

Report run_workload(Workload& w, const Args& args) {
  Report report;
  report.workload = std::string(w.name());

  const auto setup = [&] {
    const std::int64_t start = now_ns();
    do {
      Layers* layers =
          args.trace ? &report.setup_layers.emplace_back() : nullptr;
      const std::int64_t t = now_ns();
      w.setup(args.seed, layers);
      report.setup_s.push_back(seconds_between(t, now_ns()));
    } while (seconds_between(start, now_ns()) < kSetupSampleSeconds);
  };
  for (int rep = 0; rep < kSetupReps; ++rep) setup();
  w.prepare(report.tally);

  // One pass: the sum of its runs' times.  Each run's gate check runs
  // right after it, outside the timed region, as do traced probes.
  // With `keep` (untraced passes) each run's time also goes to run_s.
  report.run_s.resize(w.runs());
  const auto pass = [&](Layers* layers, bool keep) {
    double wall = 0.0;
    for (std::size_t i = 0; i < w.runs(); ++i) {
      const double probe_before = layers != nullptr ? layers->probe_s : 0.0;
      const std::int64_t start = now_ns();
      w.run(i, layers);
      double run = seconds_between(start, now_ns());
      if (layers != nullptr) run -= layers->probe_s - probe_before;
      if (keep) report.run_s[i].push_back(run);
      wall += run;
      w.check(i, report.tally);
    }
    return wall;
  };

  // Warm-up: checked, not reported; its time seeds the estimate of how
  // long a pass takes.
  const std::int64_t warm_start = now_ns();
  pass(nullptr, false);
  double pass_estimate = seconds_between(warm_start, now_ns());
  if (args.print_pins) return report;

  // Passes continue while the next one is expected to end within the
  // budget (at least the minimum count), so runs do not overshoot by
  // most of a pass.
  const std::int64_t start = now_ns();
  const auto more = [&](std::size_t done, std::size_t minimum) {
    return done < minimum ||
           seconds_between(start, now_ns()) + pass_estimate <= args.seconds;
  };
  CpuRotation rotation;
  const auto untraced_pass = [&] {
    rotation.pin(report.wall_s.size());
    setup();
    report.wall_s.push_back(pass(nullptr, true));
    rotation.release();
  };
  if (!args.trace) {
    while (more(report.wall_s.size(), kMinPasses)) {
      const std::int64_t t = now_ns();
      untraced_pass();
      pass_estimate = seconds_between(t, now_ns());
    }
  } else {
    // Traced passes run unpinned: their probes fork shard workers.
    while (more(report.pass_layers.size(), kMinTracedPasses)) {
      const std::int64_t t = now_ns();
      untraced_pass();
      report.traced_wall_s.push_back(
          pass(&report.pass_layers.emplace_back(), false));
      pass_estimate = seconds_between(t, now_ns());
    }
  }
  report.peak_rss_mb = peak_rss_mb();
  return report;
}

void print_pins(const Workload& w) {
  for (const Pin& p : w.observed_pins())
    std::cout << "      {\"" << p.workload << "\", " << p.seed << ", \""
              << p.run << "\", " << p.steps << ", " << p.bandwidth << ", "
              << p.pruned << "},\n";
}

/// wall_s: the sum over a pass's runs of each run's fastest time over
/// the untraced passes.  Other tenants of a shared host only ever add
/// time: their load on the sibling hardware threads and the shared cache
/// slowed identical passes by up to 1.5x for seconds to minutes, often
/// on some CPUs and not others, so the median pass followed the host
/// rather than the program.  The fastest repetition of each run is the
/// one least disturbed; taking it per run rather than per pass, with
/// short runs and passes rotating through the CPUs, lets every run find
/// its own quiet moment.
double fastest_pass_s(const Report& r) {
  double total = 0.0;
  for (const std::vector<double>& times : r.run_s) total += min_of(times);
  return total;
}

std::string json_number(double value) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
  return out.str();
}

void print_summary(const Report& r) {
  const Quartiles wall = quartiles(r.wall_s);
  std::cout << std::left << std::setw(13) << r.workload << std::right
            << std::fixed << std::setprecision(4) << "  wall_s "
            << fastest_pass_s(r) << " [pass q1 " << wall.q1 << ", median "
            << wall.median << ", q3 " << wall.q3 << ", n " << r.wall_s.size()
            << "]  setup_s " << std::setprecision(6) << min_of(r.setup_s)
            << " [median " << median(r.setup_s) << ", n " << r.setup_s.size()
            << "]"
            << std::setprecision(1) << "  peak_rss_mb " << r.peak_rss_mb
            << "  failed_runs " << r.tally.failed() << "/"
            << r.tally.attempted() << '\n'
            << std::defaultfloat;
  std::cout << "# " << r.workload << " passes (s):" << std::fixed
            << std::setprecision(4);
  for (const double s : r.wall_s) std::cout << ' ' << s;
  std::cout << '\n' << std::defaultfloat;
  for (const std::string& reason : r.tally.reasons())
    std::cerr << "FAILED " << r.workload << " " << reason << '\n';
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef NDEBUG
  std::cerr << "error: ocd_perfbench was built without NDEBUG; configure "
               "with -DCMAKE_BUILD_TYPE=Release\n";
  return 2;
#endif
  const Args args = parse_args(argc, argv);
  if (const auto knobs = behaviour_knobs_set(); !knobs.empty()) {
    std::cerr << "error: refusing to run with behaviour knobs set:";
    for (const std::string& k : knobs) std::cerr << ' ' << k;
    std::cerr << "\nunset them; the benchmark measures the default "
                 "configuration\n";
    return 2;
  }
  std::vector<std::string> names;
  if (args.workload == "all") {
    names = workload_names();
  } else {
    names = {args.workload};
    try {
      make_workload(args.workload);
    } catch (const std::invalid_argument& e) {
      usage_error(e.what());
    }
  }

  std::vector<std::pair<std::string, std::string>> config;
  try {
    config = configure();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
  std::cout << "# ocd_perfbench seed " << args.seed << ", " << args.seconds
            << " s per workload, trace " << args.trace << '\n';
  for (const auto& [key, value] : config)
    std::cout << "# " << key << ": " << value << '\n';

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  const bool prefixed = names.size() > 1;
  for (const std::string& name : names) {
    const std::unique_ptr<Workload> w = make_workload(name);
    const Report r = run_workload(*w, args);
    print_summary(r);
    if (args.print_pins) {
      // Pins come from the warm-up pass, which the gate checks too.
      print_pins(*w);
      if (r.tally.failed() != 0) return 1;
      continue;
    }
    attempted += r.tally.attempted();
    failed += r.tally.failed();
    const std::string prefix = prefixed ? name + "." : "";
    if (!args.trace) {
      metrics.push_back({prefix + "wall_s", {fastest_pass_s(r), "s"}});
      metrics.push_back({prefix + "setup_s", {min_of(r.setup_s), "s"}});
      metrics.push_back({prefix + "peak_rss_mb", {r.peak_rss_mb, "MB"}});
      continue;
    }
    const auto layers = finish_layers(r.setup_layers, r.pass_layers, r.wall_s,
                                      r.traced_wall_s);
    std::cout << "# per-layer metrics, " << name << " (" << r.pass_layers.size()
              << " traced passes)\n";
    for (const MetricSpec& spec : layer_metric_specs()) {
      const double value = layers.at(spec.name);
      std::cout << "#   " << std::left << std::setw(30) << spec.name
                << std::right << std::setw(18) << json_number(value) << ' '
                << spec.unit << '\n';
      metrics.push_back({prefix + spec.name, {value, spec.unit}});
    }
    if (!args.trace_out.empty()) {
      std::vector<Span> spans = r.setup_layers.back().spans;
      const std::vector<Span>& last = r.pass_layers.back().spans;
      spans.insert(spans.end(), last.begin(), last.end());
      auto meta = config;
      meta.insert(meta.begin(), {{"workload", name},
                                 {"seed", std::to_string(args.seed)}});
      const std::string path =
          prefixed ? args.trace_out + "." + name + ".json" : args.trace_out;
      std::ofstream out(path);
      write_chrome_trace(out, spans, meta);
      if (!out) {
        std::cerr << "error: could not write " << path << '\n';
        return 2;
      }
      std::cout << "# chrome trace: " << path << '\n';
    }
  }

  if (args.print_pins) return 0;
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value] = metrics[i];
    std::cout << (i > 0 ? ", " : "") << '"' << name << "\": {\"value\": "
              << json_number(value.first) << ", \"unit\": \"" << value.second
              << "\"}";
  }
  std::cout << "}}" << std::endl;
  return failed == 0 ? 0 : 1;
}
