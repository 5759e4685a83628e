// ocd_cli: a command-line front end for the whole library — generate a
// topology, build a workload, pick a heuristic, apply network dynamics,
// and report the run (optionally saving/loading instances).
//
//   $ ./ocd_cli --topology random --n 100 --tokens 64 --policy local
//   $ ./ocd_cli --topology transit-stub --n 200 --files 8 --policy bandwidth
//   $ ./ocd_cli --policy random --staleness 4 --dynamics link-churn
//   $ ./ocd_cli --save my.inst ; ./ocd_cli --load my.inst --policy global
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "ocd/core/bounds.hpp"
#include "ocd/core/compact.hpp"
#include "ocd/core/io.hpp"
#include "ocd/core/prune.hpp"
#include "ocd/core/scenario.hpp"
#include "ocd/dynamics/model.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"
#include "ocd/topology/transit_stub.hpp"
#include "ocd/util/env.hpp"

namespace {

struct CliOptions {
  std::string topology = "random";  // random | transit-stub
  std::int32_t n = 50;
  std::int32_t tokens = 32;
  std::int32_t files = 1;
  double density = 1.0;  // receiver-density threshold
  std::string policy = "local";
  std::int32_t staleness = 0;
  std::string dynamics;  // "", jitter, link-churn, node-churn
  std::uint64_t seed = 1;
  std::string save_path;
  std::string load_path;
  bool post_optimize = false;
};

void usage() {
  std::cout <<
      "ocd_cli — run an overlay content distribution experiment\n"
      "  --topology random|transit-stub   overlay family (default random)\n"
      "  --n <int>                        vertices (default 50)\n"
      "  --tokens <int>                   tokens (default 32)\n"
      "  --files <int>                    subdivide into equal files (default 1)\n"
      "  --density <0..1>                 receiver-density threshold (default 1)\n"
      "  --policy <name>                  round-robin|random|local|bandwidth|global\n"
      "  --staleness <int>                peer knowledge k turns old (default 0)\n"
      "  --dynamics jitter|link-churn|node-churn\n"
      "  --seed <int>\n"
      "  --save <path>                    write the instance and exit\n"
      "  --load <path>                    run on a saved instance\n"
      "  --optimize                       report prune+compact post-pass too\n";
}

/// A receiver density must be a fully consumed, finite number in
/// (0, 1]: atof alone reads "0.5x" as 0.5 and lets "nan" through as a
/// density every threshold test fails.
double parse_density(const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value <= 0.0 ||
      value > 1.0)
    throw ocd::Error(std::string("--density must be a number in (0, 1], "
                                 "got '") +
                     text + "'");
  return value;
}

/// Numeric flags share the strict OCD_* knob parser (bare digits, no
/// sign, no trailing bytes), so "--n 12x" is an error, not n = 12.
/// Throws ocd::Error naming the flag on bad input.
std::optional<CliOptions> parse(int argc, char** argv) {
  using ocd::util::parse_env_int;
  using ocd::util::parse_env_nonneg_int;
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << flag << '\n';
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      usage();
      return std::nullopt;
    } else if (flag == "--topology") {
      opt.topology = value();
    } else if (flag == "--n") {
      opt.n = static_cast<std::int32_t>(parse_env_int(flag, value()));
    } else if (flag == "--tokens") {
      opt.tokens = static_cast<std::int32_t>(parse_env_int(flag, value()));
    } else if (flag == "--files") {
      opt.files = static_cast<std::int32_t>(parse_env_int(flag, value()));
    } else if (flag == "--density") {
      opt.density = parse_density(value());
    } else if (flag == "--policy") {
      opt.policy = value();
    } else if (flag == "--staleness") {
      opt.staleness =
          static_cast<std::int32_t>(parse_env_nonneg_int(flag, value()));
    } else if (flag == "--dynamics") {
      opt.dynamics = value();
    } else if (flag == "--seed") {
      opt.seed = static_cast<std::uint64_t>(parse_env_nonneg_int(
          flag, value(), std::numeric_limits<std::int64_t>::max()));
    } else if (flag == "--save") {
      opt.save_path = value();
    } else if (flag == "--load") {
      opt.load_path = value();
    } else if (flag == "--optimize") {
      opt.post_optimize = true;
    } else {
      std::cerr << "unknown flag " << flag << "\n\n";
      usage();
      std::exit(2);
    }
  }
  return opt;
}

ocd::core::Instance build_instance(const CliOptions& opt, ocd::Rng& rng) {
  using namespace ocd;
  if (!opt.load_path.empty()) return core::load_instance_file(opt.load_path);

  Digraph graph =
      opt.topology == "transit-stub"
          ? topology::transit_stub(
                topology::transit_stub_options_for_size(opt.n), rng)
          : topology::random_overlay(opt.n, rng);

  if (opt.files > 1) {
    return core::subdivided_files(std::move(graph), opt.tokens, opt.files, 0);
  }
  if (opt.density < 1.0) {
    auto built = core::single_source_receiver_density(std::move(graph),
                                                      opt.tokens, 0,
                                                      opt.density, rng);
    return std::move(built.instance);
  }
  return core::single_source_all_receivers(std::move(graph), opt.tokens, 0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ocd;
  std::optional<CliOptions> parsed;
  try {
    parsed = parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  if (!parsed.has_value()) return 0;
  const CliOptions& opt = *parsed;

  try {
    Rng rng(opt.seed);
    const core::Instance instance = build_instance(opt, rng);
    std::cout << "instance: " << instance.summary() << '\n';

    if (!opt.save_path.empty()) {
      core::save_instance_file(instance, opt.save_path);
      std::cout << "saved to " << opt.save_path << '\n';
      return 0;
    }

    std::unique_ptr<dynamics::DynamicsModel> model;
    if (opt.dynamics == "jitter") {
      model = std::make_unique<dynamics::CapacityJitter>(0.5);
    } else if (opt.dynamics == "link-churn") {
      model = std::make_unique<dynamics::LinkChurn>(0.10, 3);
    } else if (opt.dynamics == "node-churn") {
      model = std::make_unique<dynamics::NodeChurn>(0.05, 4);
    } else if (!opt.dynamics.empty()) {
      std::cerr << "unknown dynamics model " << opt.dynamics << '\n';
      return 2;
    }

    auto policy = heuristics::make_policy(opt.policy);
    sim::SimOptions options;
    options.seed = opt.seed;
    options.staleness = opt.staleness;
    options.dynamics = model.get();
    options.max_steps = 1'000'000;
    const auto result = sim::run(instance, *policy, options);

    if (!result.success) {
      std::cout << "run did NOT complete within " << result.steps
                << " steps\n";
      return 1;
    }
    std::cout << "policy " << opt.policy << " completed in " << result.steps
              << " timesteps, " << result.bandwidth << " token-transfers\n"
              << "  useful " << result.stats.useful_moves << ", redundant "
              << result.stats.redundant_moves << ", mean completion "
              << result.stats.mean_completion() << " steps, upload fairness "
              << result.stats.upload_fairness() << '\n'
              << "  bounds: makespan >= " << core::makespan_lower_bound(instance)
              << ", bandwidth >= " << core::bandwidth_lower_bound(instance)
              << '\n';

    if (opt.post_optimize) {
      const auto optimized = core::optimize_schedule(instance, result.schedule);
      std::cout << "  prune+compact post-pass: " << optimized.length()
                << " timesteps, " << optimized.bandwidth()
                << " token-transfers\n";
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
