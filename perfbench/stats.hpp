// Order statistics for the benchmark's reports.
//
// quartiles() reproduces Python's statistics.quantiles(data, n=4) with
// its default 'exclusive' method, so the spread the benchmark prints is
// the spread an external checker computes from the same samples.  A
// tail percentile is only reported when at least kMinBeyond samples lie
// beyond it; otherwise the report says so instead of quoting a value
// that rests on a handful of points.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a percentile before it is reported.
inline constexpr std::size_t kMinBeyond = 10;

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Median of `samples` (mean of the middle pair for even counts);
/// 0 for an empty input.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

/// Smallest of `samples`; 0 for an empty input.
inline double min_of(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : *std::min_element(samples.begin(), samples.end());
}

/// Python statistics.quantiles(samples, n=4, method='exclusive'); a
/// single sample is its own quartiles, an empty input all zeros.
inline Quartiles quartiles(std::vector<double> samples) {
  Quartiles out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const auto ld = static_cast<long>(samples.size());
  if (ld == 1) {
    out.q1 = out.median = out.q3 = samples[0];
    return out;
  }
  const long n = 4;
  const long m = ld + 1;
  std::array<double, 3> cut{};
  for (long i = 1; i < n; ++i) {
    const long j = std::clamp(i * m / n, 1L, ld - 1);
    const long delta = i * m - j * n;
    cut[static_cast<std::size_t>(i - 1)] =
        (samples[static_cast<std::size_t>(j - 1)] *
             static_cast<double>(n - delta) +
         samples[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        static_cast<double>(n);
  }
  out.q1 = cut[0];
  out.median = cut[1];
  out.q3 = cut[2];
  return out;
}

/// Samples strictly above the nearest-rank position of percentile `p`
/// (0 < p < 100) among `count` samples.
inline std::size_t samples_beyond(std::size_t count, double p) {
  // The epsilon keeps p * count / 100 from rounding up past an exact
  // integer (99.9 / 100 * 10000 is 9990.000000000002 in doubles).
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(count) / 100.0 - 1e-9));
  return count - std::min(rank, count);
}

/// The p-th percentile (linear interpolation between closest ranks),
/// or nullopt when fewer than kMinBeyond samples lie beyond it.
inline std::optional<double> percentile(std::vector<double> samples,
                                        double p) {
  if (samples.empty() || samples_beyond(samples.size(), p) < kMinBeyond)
    return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const double pos = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
