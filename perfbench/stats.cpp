#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || lo + 1 >= samples.size()) return samples[lo];
  const double a = samples[lo];
  const double b = samples[lo + 1];
  if (std::isinf(b)) return b;
  return a + (b - a) * frac;
}

double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

std::vector<RateWindow> window_rates(const std::vector<double>& intervals_s,
                                     double window_s) {
  std::vector<RateWindow> out;
  std::size_t first = 0;
  double span = 0.0;
  for (std::size_t i = 0; i < intervals_s.size(); ++i) {
    span += intervals_s[i];
    if (span >= window_s) {
      out.push_back({static_cast<double>(i + 1 - first) / span, first, i});
      first = i + 1;
      span = 0.0;
    }
  }
  if (out.empty() && first < intervals_s.size() && span > 0.0) {
    out.push_back({static_cast<double>(intervals_s.size() - first) / span,
                   first, intervals_s.size() - 1});
  }
  return out;
}

std::string Tail::label() const {
  char buf[96];
  if (qualified) {
    std::snprintf(buf, sizeof(buf), "p%g of %lld (%lld beyond)", percentile,
                  static_cast<long long>(samples),
                  static_cast<long long>(beyond));
  } else {
    std::snprintf(buf, sizeof(buf), "max of %lld",
                  static_cast<long long>(samples));
  }
  return buf;
}

Tail tail(const std::vector<double>& samples, double max_percentile,
          std::int64_t min_beyond) {
  Tail out;
  out.samples = static_cast<std::int64_t>(samples.size());
  if (samples.empty()) return out;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  // Percentiles in tenths so the nearest rank is exact integer math.
  for (const std::int64_t p10 : {999, 990, 950, 900, 750, 500}) {
    if (static_cast<double>(p10) > max_percentile * 10.0 + 1e-9) continue;
    const std::int64_t rank = (p10 * out.samples + 999) / 1000;  // 1-based
    const std::int64_t beyond = out.samples - rank;
    if (rank < 1 || beyond < min_beyond) continue;
    out.percentile = static_cast<double>(p10) / 10.0;
    out.value = sorted[static_cast<std::size_t>(rank - 1)];
    out.beyond = beyond;
    out.qualified = true;
    return out;
  }
  out.percentile = 100.0;
  out.value = sorted.back();
  out.beyond = 0;
  return out;
}

std::vector<double> latency_from_due_ms(
    const std::vector<OpenLoopSample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const OpenLoopSample& s : samples) {
    out.push_back(s.ok ? static_cast<double>(s.done_ns - s.due_ns) * 1e-6
                       : std::numeric_limits<double>::infinity());
  }
  return out;
}

std::vector<double> generator_lag_ms(
    const std::vector<OpenLoopSample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const OpenLoopSample& s : samples) {
    out.push_back(
        static_cast<double>(std::max<std::int64_t>(0, s.sent_ns - s.due_ns)) *
        1e-6);
  }
  return out;
}

double Ratio::value() const {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

std::string Ratio::text() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.6g (%.6g/%.6g)", value(), numerator,
                denominator);
  return buf;
}

}  // namespace perfbench
