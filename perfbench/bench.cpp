#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "rapid/machine/params.hpp"
#include "rapid/obs/metrics.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/sched/mapping.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/support/checksum.hpp"
#include "rapid/support/stopwatch.hpp"
#include "rapid/svc/admission.hpp"
#include "stats.hpp"

namespace perfbench {

void Result::metric(std::string name, double value, std::string unit,
                    std::int64_t samples, std::string note) {
  metrics.push_back(
      {std::move(name), value, std::move(unit), samples, std::move(note)});
}

void Result::finding(std::string what) {
  std::fprintf(stderr, "perfbench: FINDING: %s\n", what.c_str());
  findings.push_back(std::move(what));
  ++failed;
}

double rss_peak_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoll(line.substr(6))) / 1024.0;
    }
  }
  return 0.0;
}

bool reset_rss_peak() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  double v = 0.0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

namespace {
volatile std::uint32_t g_sink = 0;
}  // namespace

CopyCrcRates measure_copy_crc(std::int64_t bytes, double seconds) {
  const auto n = static_cast<std::size_t>(std::max<std::int64_t>(bytes, 8));
  std::vector<std::byte> src(n), dst(n);
  for (std::size_t i = 0; i < n; ++i) {
    src[i] = static_cast<std::byte>((i * 131u) & 0xFFu);
  }
  CopyCrcRates out;
  // Each measurement repeats batches of calls until `seconds` have passed;
  // a batch covers at least 64 KiB so the clock reads stay out of the
  // figure for small puts. The CRC chain and the byte fed back into src
  // keep either loop from being optimized away or hoisted.
  const std::int64_t batch = std::max<std::int64_t>(
      1, (64 << 10) / static_cast<std::int64_t>(n));
  std::uint32_t sink = 0;
  {
    std::int64_t calls = 0;
    rapid::Stopwatch sw;
    do {
      for (std::int64_t i = 0; i < batch; ++i) {
        sink ^= rapid::crc32c(src, sink);
      }
      calls += batch;
    } while (sw.seconds() < seconds);
    out.crc_gbps = static_cast<double>(calls) * static_cast<double>(n) /
                   static_cast<double>(sw.nanos());
  }
  {
    std::int64_t calls = 0;
    rapid::Stopwatch sw;
    do {
      for (std::int64_t i = 0; i < batch; ++i) {
        std::memcpy(dst.data(), src.data(), n);
        src[static_cast<std::size_t>(calls + i) % n] ^= dst[n - 1];
      }
      calls += batch;
    } while (sw.seconds() < seconds);
    out.copy_gbps = static_cast<double>(calls) * static_cast<double>(n) /
                    static_cast<double>(sw.nanos());
  }
  g_sink = sink;
  return out;
}

Planned plan_stages(const rapid::graph::TaskGraph& graph, int procs,
                    rapid::rt::RunConfig config, double tot_fraction,
                    SpanLog& spans, std::int32_t parent) {
  using rapid::now_ns;
  Planned out;
  std::int64_t t[5];
  t[0] = now_ns();
  config.params = rapid::machine::MachineParams::cray_t3d(procs);
  out.schedule = rapid::sched::schedule_rcp(
      graph, rapid::sched::owner_compute_tasks(graph, procs), procs,
      config.params);
  t[1] = now_ns();
  out.plan = rapid::rt::build_run_plan(graph, out.schedule);
  t[2] = now_ns();
  const auto liveness = rapid::sched::analyze_liveness(graph, out.schedule);
  out.tot = liveness.tot_mem();
  out.min_mem = liveness.min_mem();
  t[3] = now_ns();
  // The admission replay is the executor's own MAP arithmetic (8-byte
  // alignment, the run's slab flag), so a capacity it accepts runs.
  if (tot_fraction >= 0.0) {
    config.capacity_per_proc =
        std::max(out.min_mem, static_cast<std::int64_t>(
                                  tot_fraction * static_cast<double>(out.tot)));
  }
  for (;;) {
    const auto demand = rapid::svc::compute_demand(out.plan, config);
    if (demand.executable) break;
    config.capacity_per_proc += std::max<std::int64_t>(out.tot / 100, 8);
    if (tot_fraction < 0.0 || config.capacity_per_proc > 2 * out.tot) {
      throw rapid::Error("plan not executable: " + demand.failure);
    }
  }
  t[4] = now_ns();
  out.config = config;
  const auto ms = [&](int i) {
    return static_cast<double>(t[i + 1] - t[i]) * 1e-6;
  };
  out.order_ms = ms(0);
  out.run_plan_ms = ms(1);
  out.liveness_ms = ms(2);
  out.replay_ms = ms(3);
  const char* names[4] = {"plan.order", "plan.run_plan", "plan.liveness",
                          "plan.replay"};
  for (int i = 0; i < 4; ++i) spans.add(names[i], t[i], t[i + 1], parent);
  return out;
}

void reduce_trace(const rapid::obs::Trace& trace, TraceSamples& out) {
  using rapid::obs::EventKind;
  using rapid::obs::ProtoState;
  for (int p = 0; p < trace.num_procs(); ++p) {
    std::int64_t rec_start = -1;
    std::int64_t task_start = -1;
    for (const rapid::obs::TraceEvent& e : trace.events(p)) {
      switch (e.kind) {
        case EventKind::kStateEnter:
          if (rec_start >= 0) {
            out.wait_us.push_back(static_cast<double>(e.t_ns - rec_start) *
                                  1e-3);
          }
          rec_start = e.a == static_cast<int>(ProtoState::kRec) ? e.t_ns : -1;
          break;
        case EventKind::kTaskBegin:
          task_start = e.t_ns;
          break;
        case EventKind::kTaskEnd:
          if (task_start >= 0) {
            out.task_us.push_back(static_cast<double>(e.t_ns - task_start) *
                                  1e-3);
          }
          task_start = -1;
          break;
        case EventKind::kPut:
          out.put_bytes.push_back(static_cast<double>(e.bytes));
          break;
        default:
          break;
      }
    }
  }
  out.events += trace.total_events();
  out.dropped += trace.total_dropped();
}

TracedRun traced_run(const rapid::rt::RunReport& report,
                     const rapid::obs::Trace& trace) {
  TracedRun out;
  if (const auto& m = report.metrics) {
    for (std::size_t k = 0; k < out.residency_ms.size(); ++k) {
      out.residency_ms[k] = m->state_residency_us[k] * 1e-3;
    }
    out.parks = m->parks;
  }
  out.content_bytes = static_cast<double>(report.content_bytes);
  reduce_trace(trace, out.samples);
  for (double t : out.samples.task_us) out.body_ms += t * 1e-3;
  return out;
}

TracedLayers report_traced_runs(const std::vector<TracedRun>& runs,
                                double traced_ms, double untraced_ms,
                                Result& result) {
  const auto n = static_cast<std::int64_t>(runs.size());
  const auto med = [&](auto f) {
    std::vector<double> v;
    for (const TracedRun& r : runs) v.push_back(static_cast<double>(f(r)));
    return median(v);
  };
  const auto pooled = [&](std::vector<double> TraceSamples::*member) {
    std::vector<double> v;
    for (const TracedRun& r : runs) {
      const auto& src = r.samples.*member;
      v.insert(v.end(), src.begin(), src.end());
    }
    return v;
  };
  TracedLayers out;
  for (std::size_t k = 0; k < out.residency_ms.size(); ++k) {
    out.residency_ms[k] =
        med([&](const TracedRun& r) { return r.residency_ms[k]; });
    result.metric(std::string("rt.") + kStateNames[k] + "_ms",
                  out.residency_ms[k], "ms", n,
                  "rank-ms per traced solve or run, summed over ranks");
  }
  const std::vector<double> waits = pooled(&TraceSamples::wait_us);
  result.metric("rt.wait_us_p50", median(waits), "us",
                static_cast<std::int64_t>(waits.size()), "REC spans");
  const Tail wt = tail(waits);
  result.metric("rt.wait_us_p99", wt.value, "us", wt.samples,
                "REC spans, " + wt.label());
  result.metric("rt.parks", med([](const TracedRun& r) { return r.parks; }),
                "count", n);

  const std::vector<double> task_us = pooled(&TraceSamples::task_us);
  result.metric("num.body_ms",
                med([](const TracedRun& r) { return r.body_ms; }), "ms", n,
                "summed task time per solve or run");
  result.metric("num.task_us_p50", median(task_us), "us",
                static_cast<std::int64_t>(task_us.size()));
  const Tail tt = tail(task_us);
  result.metric("num.task_us_p99", tt.value, "us", tt.samples, tt.label());
  double flops = 0.0, body_ms = 0.0;
  for (const TracedRun& r : runs) {
    flops += r.flops;
    body_ms += r.body_ms;
  }
  const Ratio gflops{flops, body_ms * 1e6};
  out.gflops = gflops.value();
  result.metric("num.gflops", out.gflops, "GFLOP/s", n,
                "sum Task::flops / sum task ns = " + gflops.text());

  const std::vector<double> puts = pooled(&TraceSamples::put_bytes);
  const auto p50_put =
      static_cast<std::int64_t>(puts.empty() ? 8.0 : median(puts));
  const CopyCrcRates rates = measure_copy_crc(p50_put, 0.25);
  out.copy_gbps = rates.copy_gbps;
  const std::string at =
      "at the p50 put size, " + std::to_string(p50_put) + " B";
  result.metric("crc.gbps", rates.crc_gbps, "GB/s", 1, at);
  result.metric("copy.gbps", rates.copy_gbps, "GB/s", 1, at);
  result.metric("snd.crc_ms",
                med([](const TracedRun& r) { return r.content_bytes; }) /
                    (rates.crc_gbps * 1e6),
                "ms", 1, "computed: content bytes / crc.gbps");

  result.metric("obs.trace_overhead_pct",
                100.0 * (traced_ms / untraced_ms - 1.0), "%", n,
                "median traced / median untraced solve or run - 1");
  result.metric("obs.events",
                med([](const TracedRun& r) { return r.samples.events; }),
                "count", n, "per solve or run");
  std::int64_t dropped = 0;
  for (const TracedRun& r : runs) dropped += r.samples.dropped;
  result.metric("obs.dropped", static_cast<double>(dropped), "count", n);
  if (dropped > 0) {
    result.finding("trace rings dropped " + std::to_string(dropped) +
                   " events; the traced metrics are incomplete");
  }
  return out;
}

void report_counters(const std::vector<const rapid::rt::RunReport*>& reports,
                     Result& result) {
  const auto n = static_cast<std::int64_t>(reports.size());
  const auto med = [&](auto f) {
    std::vector<double> v;
    for (const rapid::rt::RunReport* r : reports) {
      v.push_back(static_cast<double>(f(*r)));
    }
    return median(v);
  };
  using R = rapid::rt::RunReport;
  constexpr double kMiB = 1024.0 * 1024.0;
  const double msgs = med([](const R& r) { return r.content_messages; });
  const double batches = med([](const R& r) { return r.put_batches; });
  result.metric("rt.content_msgs", msgs, "count", n);
  result.metric("rt.content_mb",
                med([](const R& r) { return r.content_bytes; }) / kMiB, "MiB",
                n);
  result.metric("rt.put_batches", batches, "count", n);
  const Ratio coalesce{msgs, batches};
  result.metric("rt.coalesce_ratio", coalesce.value(), "msgs/batch", n,
                "content_msgs/put_batches = " + coalesce.text());
  result.metric("rt.flag_msgs", med([](const R& r) { return r.flag_messages; }),
                "count", n);
  result.metric("rt.addr_packages",
                med([](const R& r) { return r.addr_packages; }), "count", n);
  result.metric("rt.suspended_sends",
                med([](const R& r) { return r.suspended_sends; }), "count", n);
  result.metric("rt.maps_avg", med([](const R& r) { return r.avg_maps(); }),
                "count", n, "MAPs per rank");
}

}  // namespace perfbench
