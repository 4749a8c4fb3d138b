// Order statistics for the benchmark: medians and quantiles, the tail rule
// (the highest percentile that still has at least ten samples beyond it),
// completion rates over short windows, open-loop latency timed from each
// request's due time, and ratios that carry their base. Kept free of the
// rapid libraries so the tests in stats_test.cpp pin them down in
// isolation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile (q in [0, 1]) of the samples; NaN when
/// empty. Infinite samples (failed requests) sort last.
double quantile(std::vector<double> samples, double q);

double median(const std::vector<double>& samples);

/// Completion rates over consecutive windows: the intervals (s) between
/// successive completions are taken in order and grouped until a group
/// spans at least `window_s`; each group gives count / span, in 1/s, and
/// the index range of its intervals. A short tail group is dropped unless
/// it is the only one. A median over windows is steadier than one count
/// over the whole wall, because a burst of host noise moves only the
/// windows it falls in.
struct RateWindow {
  double rate = 0.0;
  std::size_t first = 0;  // first and last interval of the window
  std::size_t last = 0;
};
std::vector<RateWindow> window_rates(const std::vector<double>& intervals_s,
                                     double window_s);

/// Highest percentile from {99.9, 99, 95, 90, 75, 50} (capped at
/// `max_percentile`) with at least `min_beyond` samples strictly above its
/// rank. When no percentile of the ladder qualifies, the maximum is
/// reported instead (percentile 100) so a run with few samples still names
/// its worst case; `qualified` says which happened.
struct Tail {
  double percentile = 0.0;  // e.g. 99 for p99, 100 for the maximum
  double value = 0.0;
  std::int64_t samples = 0;
  std::int64_t beyond = 0;  // samples above the reported rank
  bool qualified = false;
  std::string label() const;  // "p99 of 7500 (74 beyond)" / "max of 3"
};
Tail tail(const std::vector<double>& samples, double max_percentile = 99.0,
          std::int64_t min_beyond = 10);

/// One open-loop request: when it was due, when the generator actually
/// issued it, and when it reached a terminal state (all ns on one clock).
/// `ok` false means it failed or was shed, rejected or expired: its latency
/// is +infinity, so it misses any limit.
struct OpenLoopSample {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  bool ok = true;
};
/// Latency from the due time, in ms (+inf for failed requests).
std::vector<double> latency_from_due_ms(
    const std::vector<OpenLoopSample>& samples);
/// How late the generator issued each request, in ms (>= 0).
std::vector<double> generator_lag_ms(
    const std::vector<OpenLoopSample>& samples);

/// A ratio printed together with its base, e.g. "0.98 (980/1000)".
struct Ratio {
  double numerator = 0.0;
  double denominator = 0.0;
  double value() const;  // 0 when the base is 0
  std::string text() const;
};

}  // namespace perfbench
