// The benchmark binary: runs one workload for a fixed time, prints every metric
// it measured with unit, sample count and note, and writes them with the
// provenance to a JSON report. perfbench/run.py builds this binary and
// turns the report into the benchmark's result line.
//
//   perfbench --workload=lu_goodwin|chol_bcsstk24|svc_mix --seed=N
//             --seconds=S --trace=0|1 --report=PATH [--spans=PATH]
//             [--source_id=ID]
//
// Exit codes: 0 clean, 1 a correctness finding, 2 the benchmark could not
// run.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "rapid/num/dispatch.hpp"
#include "rapid/support/check.hpp"
#include "rapid/support/flags.hpp"
#include "rapid/support/json.hpp"
#include "stats.hpp"

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Rank threads one workload keeps busy at once, for the oversubscription
/// tag: 4 ranks for the executor workloads, 2 workers x 2 ranks for svc_mix.
int rank_threads(const std::string& workload) {
  return workload == "svc_mix" ? 2 * 2 : 4;
}

}  // namespace

int main(int argc, char** argv) {
  rapid::Flags flags;
  flags.define("workload", "", "lu_goodwin, chol_bcsstk24 or svc_mix");
  flags.define("seed", "1", "input seed");
  flags.define("seconds", "10", "measured time of the run");
  flags.define("trace", "0", "0: timed pass; 1: traced per-layer pass");
  flags.define("report", "", "write the JSON report here");
  flags.define("spans", "", "traced pass: write the spans here");
  flags.define("source_id", "unknown", "git sha or source digest");
  perfbench::Options o;
  try {
    flags.parse(argc, argv);
    o.workload = flags.get("workload");
    o.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    o.seconds = flags.get_double("seconds");
    o.trace = flags.get_int("trace") != 0;
    o.spans_path = flags.get("spans");
  } catch (const rapid::Error& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (flags.help_requested()) return 0;
#ifndef NDEBUG
  // Debug builds memset every freed MAP region (poison_freed) and keep
  // assertions: their times say nothing about the program.
  std::fprintf(stderr, "perfbench: refusing a build without NDEBUG\n");
  return 2;
#endif

  const int nproc = static_cast<int>(std::thread::hardware_concurrency());

  perfbench::Result result;
  if (!perfbench::reset_rss_peak()) result.tags.push_back("rss_peak_not_reset");
  if (rank_threads(o.workload) > nproc) result.tags.push_back("oversubscribed");
  const perfbench::CpuTicks ticks0 = perfbench::cpu_ticks();
  try {
    if (o.workload == "svc_mix") {
      perfbench::run_service_workload(o, result);
    } else {
      perfbench::run_executor_workload(o, result);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  const perfbench::CpuTicks ticks1 = perfbench::cpu_ticks();
  const perfbench::Ratio steal{ticks1.steal - ticks0.steal,
                               ticks1.total - ticks0.total};
  std::printf("host steal: %.2f%% of CPU time during the run (%s)\n",
              100.0 * steal.value(), steal.text().c_str());

  using rapid::JsonValue;
  JsonValue prov = JsonValue::object();
  prov["cpu"] = cpu_model();
  prov["nproc"] = nproc;
  prov["compiler"] = PERFBENCH_COMPILER;
  prov["build_type"] = PERFBENCH_BUILD_TYPE;
  prov["rapid_native"] = PERFBENCH_NATIVE != 0;
  prov["kernel_level"] =
      rapid::num::kernel_level_name(rapid::num::kernel_level());
  prov["kernels_vectorized"] = rapid::num::kernels_vectorized();
  prov["source_id"] = flags.get("source_id");
  prov["host_steal_pct"] = 100.0 * steal.value();
  prov["seed"] = static_cast<std::int64_t>(o.seed);
  prov["workload"] = o.workload;
  prov["trace"] = o.trace;
  JsonValue tags = JsonValue::array();
  for (const std::string& t : result.tags) tags.push_back(t);
  prov["tags"] = std::move(tags);

  std::printf("\n%-26s %14s %-9s %8s  %s\n", "metric", "value", "unit",
              "samples", "note");
  JsonValue metrics = JsonValue::array();
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("%-26s %14.6g %-9s %8lld  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples),
                m.note.c_str());
    JsonValue j = JsonValue::object();
    j["name"] = m.name;
    // JSON has no infinity; a latency is infinite when requests failed.
    j["value"] = std::isfinite(m.value) ? JsonValue(m.value)
                                        : JsonValue(std::to_string(m.value));
    j["unit"] = m.unit;
    j["samples"] = m.samples;
    metrics.push_back(std::move(j));
  }
  const perfbench::Ratio errors{static_cast<double>(result.failed),
                                static_cast<double>(result.attempted)};
  std::printf("error_frac = %s\n", errors.text().c_str());

  if (!o.spans_path.empty()) {
    if (!result.spans.write_json(o.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   o.spans_path.c_str());
      return 2;
    }
    std::printf("\n%-22s %8s %12s %12s\n", "span", "count", "total ms",
                "self ms");
    for (const auto& [name, t] : result.spans.self_times()) {
      std::printf("%-22s %8lld %12.3f %12.3f\n", name.c_str(),
                  static_cast<long long>(t.count), t.total_ms, t.self_ms);
    }
    std::printf("spans written to %s\n", o.spans_path.c_str());
  }

  JsonValue doc = JsonValue::object();
  doc["provenance"] = std::move(prov);
  doc["metrics"] = std::move(metrics);
  doc["attempted"] = result.attempted;
  doc["failed"] = result.failed;
  JsonValue findings = JsonValue::array();
  for (const std::string& f : result.findings) findings.push_back(f);
  doc["findings"] = std::move(findings);
  const std::string report_path = flags.get("report");
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    out << doc.dump() << "\n";
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   report_path.c_str());
      return 2;
    }
  }
  return result.findings.empty() ? 0 : 1;
}
