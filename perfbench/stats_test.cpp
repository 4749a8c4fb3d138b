// Tests for stats.hpp. Plain checks (no test framework) so the benchmark
// package builds with the toolchain alone; run with `ctest` in the
// benchmark's build directory or by executing perfbench_stats_test.
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_median_and_quantile() {
  using perfbench::median;
  using perfbench::quantile;
  check(near(median({3, 1, 2}), 2.0), "odd median");
  check(near(median({4, 1, 3, 2}), 2.5), "even median interpolates");
  check(std::isnan(median({})), "empty median is NaN");
  check(near(quantile({0, 10}, 0.25), 2.5), "linear quantile");
  const double inf = std::numeric_limits<double>::infinity();
  check(near(median({1, 2, inf}), 2.0), "failed samples sort last");
  check(std::isinf(quantile({1, inf}, 0.9)), "quantile into a failure");
}

void test_quartiles() {
  using perfbench::quantile;
  const std::vector<double> v = {5, 1, 4, 2, 3};
  check(near(quantile(v, 0.25), 2.0) && near(quantile(v, 0.75), 4.0),
        "quartiles of five samples");
  check(near(quantile({1, 2, 3, 4}, 0.75), 3.25), "q3 interpolates");
}

void test_window_rates() {
  using perfbench::window_rates;
  // Ten completions 1/8 s apart, then eleven 1/16 s apart: 1/4 s windows.
  std::vector<double> dt(10, 0.125);
  dt.insert(dt.end(), 11, 0.0625);
  const auto r = window_rates(dt, 0.25);
  check(r.size() == 7, "full windows only (the short tail is dropped)");
  check(near(r[0].rate, 8.0) && near(r.back().rate, 16.0),
        "count over span per window");
  check(r[0].first == 0 && r[0].last == 1 && r[5].first == 10 &&
            r[6].last == 17,
        "each window names its intervals");
  const auto one = window_rates({2.0, 4.0}, 0.25);
  check(one.size() == 2 && near(one[0].rate, 0.5) &&
            near(one[1].rate, 0.25) && one[1].first == 1,
        "a long interval is a window of its own");
  const auto tail_only = window_rates({0.1}, 0.25);
  check(tail_only.size() == 1 && near(tail_only[0].rate, 10.0),
        "a lone short group is kept");
  check(window_rates({}, 0.25).empty(), "no completions, no rates");
}

void test_tail_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const auto t = perfbench::tail(v);
  check(t.qualified && near(t.percentile, 99.0) && near(t.value, 990.0) &&
            t.beyond == 10 && t.samples == 1000,
        "p99 of 1000 has exactly 10 beyond");
  v.resize(999);
  const auto u = perfbench::tail(v);
  check(u.qualified && near(u.percentile, 95.0) && u.beyond >= 10,
        "999 samples fall back to p95");
  const auto w = perfbench::tail({5, 7, 6});
  check(!w.qualified && near(w.percentile, 100.0) && near(w.value, 7.0) &&
            w.label() == "max of 3",
        "few samples report the maximum");
  const auto capped = perfbench::tail(std::vector<double>(20000, 1.0), 90.0);
  check(near(capped.percentile, 90.0), "max_percentile caps the ladder");
  check(t.label() == "p99 of 1000 (10 beyond)", "tail label");
}

void test_open_loop() {
  std::vector<perfbench::OpenLoopSample> s(3);
  s[0] = {1'000'000, 1'000'000, 3'000'000, true};
  s[1] = {2'000'000, 2'500'000, 4'000'000, true};  // sent 0.5 ms late
  s[2] = {3'000'000, 3'000'000, 0, false};         // shed
  const auto lat = perfbench::latency_from_due_ms(s);
  check(near(lat[0], 2.0), "latency from due");
  check(near(lat[1], 2.0), "generator lag is part of latency");
  check(std::isinf(lat[2]), "failed request misses every limit");
  const auto lag = perfbench::generator_lag_ms(s);
  check(near(lag[0], 0.0) && near(lag[1], 0.5), "generator lag");
}

void test_ratio() {
  const perfbench::Ratio r{980, 1000};
  check(near(r.value(), 0.98), "ratio value");
  check(r.text() == "0.98 (980/1000)", "ratio prints its base");
  check(near(perfbench::Ratio{1, 0}.value(), 0.0), "zero base");
}

}  // namespace

int main() {
  test_median_and_quantile();
  test_quartiles();
  test_window_rates();
  test_tail_rule();
  test_open_loop();
  test_ratio();
  if (failures == 0) std::printf("perfbench_stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
