// Shared declarations of the benchmark binary: options, the result every
// workload fills in, and the measurements more than one workload takes.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "rapid/obs/trace.hpp"
#include "rapid/rt/plan.hpp"
#include "rapid/rt/report.hpp"
#include "rapid/sched/schedule.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: the timed pass (end-to-end metrics, tracing off). true: the
  /// traced pass (per-layer metrics).
  bool trace = false;
  /// Where the traced pass writes its spans (empty: not written).
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;
  std::string note;  // how it was computed, when not a plain measurement
};

struct Result {
  std::vector<Metric> metrics;
  /// Correctness findings; each also counts one failed operation.
  std::vector<std::string> findings;
  std::vector<std::string> tags;
  /// Operations (solves, service requests, checks) attempted and failed.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  SpanLog spans;

  void metric(std::string name, double value, std::string unit,
              std::int64_t samples, std::string note = {});
  void finding(std::string what);
};

void run_executor_workload(const Options& options, Result& result);
void run_service_workload(const Options& options, Result& result);

/// Process peak RSS (VmHWM) in MiB; 0 when /proc is unavailable.
double rss_peak_mib();
/// Resets VmHWM to the current RSS so the next read covers only what
/// follows. Returns false when the kernel refuses (the report is then
/// tagged rss_peak_not_reset and the peaks include earlier phases).
bool reset_rss_peak();

/// Steal and total ticks of the "cpu" line of /proc/stat (zeros when it
/// cannot be read): on a VM, steal is time the host ran other guests while
/// this one wanted the CPU.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
CpuTicks cpu_ticks();

/// Throughput of rapid::crc32c and of memcpy on buffers of `bytes`, each
/// timed for about `seconds`.
struct CopyCrcRates {
  double crc_gbps = 0.0;
  double copy_gbps = 0.0;
};
CopyCrcRates measure_copy_crc(std::int64_t bytes, double seconds);

/// The planning stages after the app build, each timed from outside:
/// RCP ordering, run plan, liveness and the admission (MAP) replay.
struct Planned {
  rapid::sched::Schedule schedule;
  rapid::rt::RunPlan plan;
  rapid::rt::RunConfig config;
  std::int64_t tot = 0;
  std::int64_t min_mem = 0;
  double order_ms = 0.0;
  double run_plan_ms = 0.0;
  double liveness_ms = 0.0;
  double replay_ms = 0.0;
};

/// Plans `graph` for `procs` ranks under `config`. With tot_fraction >= 0
/// the capacity starts at max(MIN_MEM, tot_fraction x TOT) and grows by 1%
/// of TOT until the replay accepts it; otherwise config's capacity is kept
/// and a plan it cannot run throws. Each stage is added to `spans`.
Planned plan_stages(const rapid::graph::TaskGraph& graph, int procs,
                    rapid::rt::RunConfig config, double tot_fraction,
                    SpanLog& spans, std::int32_t parent);

/// Exact distributions read from a finished run's trace rings.
struct TraceSamples {
  std::vector<double> wait_us;    // every REC span
  std::vector<double> put_bytes;  // every content put
  std::vector<double> task_us;    // every task, begin to end
  std::int64_t events = 0;
  std::int64_t dropped = 0;
};
void reduce_trace(const rapid::obs::Trace& trace, TraceSamples& out);

/// Names of the paper's protocol states, in obs::ProtoState order.
inline constexpr std::array<const char*, 5> kStateNames = {"rec", "exe", "snd",
                                                           "map", "end"};

/// One traced solve or service run, reduced.
struct TracedRun {
  /// Per protocol state (REC, EXE, SND, MAP, END), summed over ranks.
  std::array<double, 5> residency_ms{};
  TraceSamples samples;
  double body_ms = 0.0;  // summed task time
  double flops = 0.0;    // summed Task::flops of the tasks run
  double content_bytes = 0.0;
  std::int64_t parks = 0;
};

/// Residencies, parks and content bytes from the run's report, the exact
/// distributions from its trace; body_ms from the trace's task spans.
TracedRun traced_run(const rapid::rt::RunReport& report,
                     const rapid::obs::Trace& trace);

/// What the model-vs-measured comparison needs from a traced pass.
struct TracedLayers {
  std::array<double, 5> residency_ms{};  // medians over the runs
  double gflops = 0.0;
  double copy_gbps = 0.0;
};

/// The traced per-layer metrics every workload reports: rt.<state>_ms,
/// REC waits, parks, kernels (num.*), crc/copy rates at the p50 put size,
/// snd.crc_ms, and the obs.* guards (a dropped event is a finding).
/// `traced_ms` and `untraced_ms` are the median solve or run times with
/// and without tracing.
TracedLayers report_traced_runs(const std::vector<TracedRun>& runs,
                                double traced_ms, double untraced_ms,
                                Result& result);

/// Transport and memory counters (rt.content_msgs ... rt.maps_avg), the
/// median over the given reports.
void report_counters(const std::vector<const rapid::rt::RunReport*>& reports,
                     Result& result);

}  // namespace perfbench
