// The two executor workloads: sparse LU on the goodwin stand-in at the
// paper's size (kernel- and bandwidth-bound) and sparse Cholesky on the
// BCSSTK24 stand-in at MIN_MEM (protocol- and latency-bound). Both time
// each layer from outside through its public functions: planning stage by
// stage, then solves from ThreadedExecutor construction to run() return.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "rapid/num/cholesky_app.hpp"
#include "rapid/num/lu_app.hpp"
#include "rapid/num/reference.hpp"
#include "rapid/num/workloads.hpp"
#include "rapid/obs/metrics.hpp"
#include "rapid/obs/trace.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/support/rng.hpp"
#include "rapid/support/stopwatch.hpp"
#include "rapid/verify/auditor.hpp"
#include "rapid/verify/conformance.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using rapid::now_ns;
namespace num = rapid::num;
namespace rt = rapid::rt;
namespace obs = rapid::obs;

constexpr int kProcs = 4;
constexpr rapid::sparse::Index kBlock = 24;
/// After the first (process-cold) planning, planning runs at least this
/// many times more, and until this much time has gone into it; setup_s is
/// the median of those.
constexpr std::size_t kMinSetups = 3;
constexpr double kMinSetupSeconds = 1.0;
/// runs_per_s is the median of solve rates over windows this long.
constexpr double kRateWindowS = 0.25;
constexpr double kResidualBound = 1e-8;
constexpr double kMiB = 1024.0 * 1024.0;

double ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

struct WorkloadDef {
  bool lu = false;
  /// Active-memory capacity as a fraction of TOT; 0 means MIN_MEM.
  double tot_fraction = 0.0;
  /// Trace ring per rank, sized so a traced solve drops nothing.
  std::int32_t trace_events_per_rank = 1 << 16;
};

WorkloadDef workload_def(const std::string& name) {
  if (name == "lu_goodwin") return {true, 0.6, 1 << 16};
  if (name == "chol_bcsstk24") return {false, 0.0, 1 << 15};
  throw rapid::Error("unknown workload " + name);
}

/// The generated input. The seed draws the values, not the pattern: every
/// seed factors the same task graph, so run-to-run spread measures the
/// runtime and not the problem size. A = D_r A0 D_c with seeded diagonals
/// in [0.5, 2) keeps A0's pattern and nonsingularity (for LU, pivots still
/// move with the values); Cholesky uses D_r = D_c, which keeps A SPD.
rapid::sparse::CscMatrix make_input(bool lu, std::uint64_t seed) {
  rapid::sparse::CscMatrix a =
      lu ? num::goodwin_like(1.0).matrix : num::bcsstk24_like(1.0).matrix;
  rapid::Rng rng(seed);
  const auto n = static_cast<std::size_t>(a.n_cols());
  std::vector<double> dr(n);
  for (double& x : dr) x = rng.next_double(0.5, 2.0);
  std::vector<double> dc = dr;
  if (lu) {
    for (double& x : dc) x = rng.next_double(0.5, 2.0);
  }
  for (rapid::sparse::Index j = 0; j < a.n_cols(); ++j) {
    for (auto k = a.pattern.col_ptr[j]; k < a.pattern.col_ptr[j + 1]; ++k) {
      a.values[static_cast<std::size_t>(k)] *=
          dr[static_cast<std::size_t>(a.pattern.row_idx[k])] *
          dc[static_cast<std::size_t>(j)];
    }
  }
  return a;
}

/// Everything from generated input to the first runnable plan.
struct Setup {
  std::unique_ptr<num::LuApp> lu;
  std::unique_ptr<num::CholeskyApp> chol;
  const rapid::graph::TaskGraph* graph = nullptr;
  Planned planned;
  double app_build_ms = 0.0;
  double total_s = 0.0;

  const rt::RunPlan& plan() const { return planned.plan; }
  const rt::RunConfig& config() const { return planned.config; }
  rt::ObjectInit init() const {
    return lu ? lu->make_init() : chol->make_init();
  }
  rt::TaskBody body() const {
    return lu ? lu->make_body() : chol->make_body();
  }
  double residual(const rt::ThreadedExecutor& exec) const {
    if (lu) {
      const auto ex = lu->extract(exec);
      return num::lu_residual(lu->matrix(), ex.lu, ex.piv);
    }
    return num::cholesky_residual(chol->matrix(), chol->extract_l_dense(exec));
  }
};

Setup plan_workload(const WorkloadDef& def,
                    const rapid::sparse::CscMatrix& input, SpanLog& spans) {
  Setup s;
  rapid::sparse::CscMatrix matrix = input;  // the apps take it by value
  const std::int64_t t0 = now_ns();
  const std::int32_t root = spans.add("setup", t0, t0);
  if (def.lu) {
    s.lu = std::make_unique<num::LuApp>(
        num::LuApp::build(std::move(matrix), kBlock, kProcs));
    s.graph = &s.lu->graph();
  } else {
    s.chol = std::make_unique<num::CholeskyApp>(
        num::CholeskyApp::build(std::move(matrix), kBlock, kProcs));
    s.graph = &s.chol->graph();
  }
  const std::int64_t t1 = now_ns();
  spans.add("plan.app_build", t0, t1, root);
  rt::RunConfig config;
  config.active_memory = true;
  config.slab_arena = true;
  s.planned =
      plan_stages(*s.graph, kProcs, config, def.tot_fraction, spans, root);
  const std::int64_t t2 = now_ns();
  spans.set_end(root, t2);
  s.app_build_ms = ms(t1 - t0);
  s.total_s = static_cast<double>(t2 - t0) * 1e-9;
  return s;
}

/// One solve, timed from executor construction to run() return.
struct Solve {
  std::int64_t start_ns = 0;
  std::int64_t ctor_end_ns = 0;
  std::int64_t end_ns = 0;
  rt::RunReport report;
  double wall_ms() const { return ms(end_ns - start_ns); }
  double ctor_ms() const { return ms(ctor_end_ns - start_ns); }
  /// run() wall minus the executor's self-timed parallel_time_us.
  double run_overhead_ms() const {
    return ms(end_ns - ctor_end_ns) - report.parallel_time_us * 1e-3;
  }
};

/// Runs one solve; `after_run` sees the live executor (residual checks,
/// conformance) before it is torn down, outside the timing. Returns false,
/// with a finding, when the solve or a check failed.
template <typename AfterRun>
bool run_solve(const Setup& s, const rt::ObjectInit& init,
               const rt::TaskBody& body, const rt::ThreadedOptions& options,
               Result& result, Solve& out, AfterRun&& after_run) {
  ++result.attempted;
  try {
    out.start_ns = now_ns();
    rt::ThreadedExecutor exec(s.plan(), s.config(), init, body, options);
    out.ctor_end_ns = now_ns();
    out.report = exec.run();
    out.end_ns = now_ns();
    if (!out.report.executable) {
      result.finding("solve not executable: " + out.report.failure);
      return false;
    }
    return after_run(exec);
  } catch (const rapid::Error& e) {
    result.finding(std::string("solve failed: ") + e.what());
    return false;
  }
}

bool check_residual(const Setup& s, const rt::ThreadedExecutor& exec,
                    Result& result, const char* which) {
  const double r = s.residual(exec);
  std::printf("residual (%s solve): %.3e\n", which, r);
  if (!(r < kResidualBound)) {
    result.finding(std::string("residual of the ") + which + " solve is " +
                   std::to_string(r) + ", bound 1e-8");
    return false;
  }
  return true;
}

/// Back-to-back untraced solves until their summed wall reaches `seconds`
/// (at least one). The first and last are checked against the dense
/// reference outside the timing; peak RSS is reset after the first check
/// and read before the last, so it covers the solves and not the reference.
std::vector<Solve> timed_phase(const Setup& s, double seconds, Result& result,
                               double& rss_mib) {
  const rt::ObjectInit init = s.init();
  const rt::TaskBody body = s.body();
  const rt::ThreadedOptions options;
  std::vector<Solve> solves;
  double solved_s = 0.0;
  reset_rss_peak();
  for (;;) {
    Solve sv;
    bool last = false;
    const bool ok = run_solve(
        s, init, body, options, result, sv,
        [&](const rt::ThreadedExecutor& exec) {
          solved_s += sv.wall_ms() * 1e-3;
          last = solved_s >= seconds;
          if (last) rss_mib = rss_peak_mib();
          if (solves.empty() && !check_residual(s, exec, result, "first")) {
            return false;
          }
          return !last || check_residual(s, exec, result, "last");
        });
    if (!ok) break;
    if (solves.empty() && !last) reset_rss_peak();
    solves.push_back(std::move(sv));
    if (last) break;
  }
  return solves;
}

std::vector<double> collect(const std::vector<Solve>& solves,
                            double (Solve::*f)() const) {
  std::vector<double> out;
  for (const Solve& s : solves) out.push_back((s.*f)());
  return out;
}

void report_end_to_end(const std::vector<Solve>& solves,
                       const std::vector<double>& setup_s, double rss_mib,
                       Result& result) {
  const auto n = static_cast<std::int64_t>(solves.size());
  result.metric("setup_s", median(setup_s), "s",
                static_cast<std::int64_t>(setup_s.size()),
                "median planning time: app build, ordering, run plan, "
                "liveness, admission replay");
  const std::vector<double> wall = collect(solves, &Solve::wall_ms);
  result.metric("lat_ms_p50", median(wall), "ms", n,
                "solve_ms_p50: executor construction to run() return; q1 " +
                    std::to_string(quantile(wall, 0.25)) + ", q3 " +
                    std::to_string(quantile(wall, 0.75)));
  // p90 at most: chol_bcsstk24's higher percentiles follow host noise.
  const Tail t = tail(wall, 90.0);
  result.metric("lat_ms_tail", t.value, "ms", n,
                "solve_ms_p90: solve wall, every solve, " + t.label());
  // Solves are grouped into windows of >= kRateWindowS of solve wall (one
  // solve each on lu_goodwin).
  std::vector<double> wall_s;
  for (const double w : wall) wall_s.push_back(w * 1e-3);
  std::vector<double> rates;
  for (const RateWindow& w : window_rates(wall_s, kRateWindowS)) {
    rates.push_back(w.rate);
  }
  result.metric("runs_per_s", median(rates), "1/s",
                static_cast<std::int64_t>(rates.size()),
                "solves/s of solve wall, median over windows of >= 0.25 s");
  double heap = 0.0;
  for (const Solve& s : solves) {
    heap = std::max(heap, static_cast<double>(s.report.peak_bytes()) / kMiB);
  }
  result.metric("heap_peak_mb", heap, "MiB", n,
                "max over ranks of RunReport::peak_bytes_per_proc");
  result.metric("rss_peak_mb", rss_mib, "MiB", 1,
                "VmHWM over the timed solves");
}

/// One traced solve: its timing, its reduced trace, and the summed
/// ObjectInit time.
struct TracedSolve {
  Solve solve;
  TracedRun run;
  double init_ms = 0.0;
};

bool traced_solve(const Setup& s, const WorkloadDef& def,
                  std::int64_t solve_id, Result& result, TracedSolve& out) {
  const auto num_tasks = static_cast<std::size_t>(s.graph->num_tasks());
  std::vector<std::array<std::int64_t, 2>> task_ns(num_tasks);
  std::atomic<std::int64_t> init_ns{0};
  const rt::ObjectInit inner_init = s.init();
  const rt::TaskBody inner_body = s.body();
  // Wrappers time every object init and task body from outside; each task
  // writes only its own slot, read after run() has joined the ranks.
  const rt::ObjectInit init = [&](rt::DataId d, std::span<std::byte> buf) {
    const std::int64_t a = now_ns();
    inner_init(d, buf);
    init_ns.fetch_add(now_ns() - a, std::memory_order_relaxed);
  };
  const rt::TaskBody body = [&](rt::TaskId t, rt::ObjectResolver& r) {
    const std::int64_t a = now_ns();
    inner_body(t, r);
    task_ns[static_cast<std::size_t>(t)] = {a, now_ns()};
  };
  obs::Trace trace(kProcs, obs::TraceConfig{true, def.trace_events_per_rank});
  rt::ThreadedOptions options;
  options.trace = &trace;
  const bool ok = run_solve(
      s, init, body, options, result, out.solve,
      [&](const rt::ThreadedExecutor&) {
        rapid::verify::ConformanceOptions copts;
        copts.capacity_per_proc = s.config().capacity_per_proc;
        copts.active_memory = s.config().active_memory;
        copts.alignment = 8;  // rt::ProcMemory alignment
        copts.slab_arena = s.config().slab_arena;
        copts.report = &out.solve.report;
        const rapid::verify::AuditReport conf =
            rapid::verify::check_conformance(s.plan(), trace, copts);
        if (!conf.clean()) {
          result.finding("conformance on a traced solve: " + conf.summary());
          return false;
        }
        return true;
      });
  if (!ok) return false;
  const Solve& sv = out.solve;
  const std::int32_t root =
      result.spans.add("solve.traced", sv.start_ns, sv.end_ns, -1, solve_id);
  result.spans.add("rt.ctor", sv.start_ns, sv.ctor_end_ns, root, solve_id);
  const std::int32_t run =
      result.spans.add("rt.run", sv.ctor_end_ns, sv.end_ns, root, solve_id);
  out.run = traced_run(sv.report, trace);
  // Task times from the body wrapper rather than the trace events.
  out.run.samples.task_us.clear();
  out.run.body_ms = 0.0;
  for (std::size_t t = 0; t < num_tasks; ++t) {
    const auto [a, b] = task_ns[t];
    // Body spans of the first traced solve only: one solve shows the
    // shape, and chol_bcsstk24 runs hundreds of traced solves.
    if (solve_id == 0) result.spans.add("num.body", a, b, run, solve_id);
    out.run.samples.task_us.push_back(static_cast<double>(b - a) * 1e-3);
    out.run.body_ms += ms(b - a);
    out.run.flops += s.graph->task(static_cast<rt::TaskId>(t)).flops;
  }
  out.init_ms = ms(init_ns.load());
  return true;
}

/// rt::simulate on the same plan, with MachineParams calibrated from the
/// measured kernel rate and copy bandwidth (the T3D values stay for the
/// rest); predicted per-state rank-ms against the traced ones.
void model_vs_measured(const Setup& s, const TracedLayers& traced,
                       double traced_parallel_ms, Result& result) {
  rt::RunConfig config = s.config();
  config.params.flops_per_us = traced.gflops * 1e3;
  config.params.bytes_per_us = traced.copy_gbps * 1e3;
  obs::Trace trace(kProcs, obs::TraceConfig{true, 1 << 16});
  const rt::RunReport sim = rt::simulate(s.plan(), config, &trace);
  const double pred_ms = sim.parallel_time_us * 1e-3;
  const auto err = [](double pred, double meas) {
    return meas > 0.0 ? 100.0 * (pred - meas) / meas : 0.0;
  };
  result.metric("machine.pred_ms", pred_ms, "ms", 1,
                "simulated parallel time, flops_per_us and bytes_per_us "
                "calibrated from num.gflops and copy.gbps");
  result.metric("machine.err_pct", err(pred_ms, traced_parallel_ms), "%", 1,
                "(predicted - traced parallel time) / traced");
  for (std::size_t k = 0; k < kStateNames.size(); ++k) {
    const double pred =
        sim.metrics ? sim.metrics->state_residency_us[k] * 1e-3 : 0.0;
    const std::string st = kStateNames[k];
    result.metric("machine." + st + "_pred_ms", pred, "ms", 1,
                  "predicted " + st + " rank-ms");
    result.metric("machine." + st + "_err_pct",
                  err(pred, traced.residency_ms[k]), "%",
                  1, "(predicted - traced) / traced " + st + " rank-ms");
  }
}

void traced_pass(const Setup& s, const WorkloadDef& def,
                 const std::vector<Solve>& untraced, double seconds,
                 Result& result) {
  std::vector<TracedSolve> traced;
  double solved_s = 0.0;
  do {
    TracedSolve t;
    const auto id = static_cast<std::int64_t>(traced.size());
    if (!traced_solve(s, def, id, result, t)) return;
    solved_s += t.solve.wall_ms() * 1e-3;
    traced.push_back(std::move(t));
  } while (solved_s < seconds);
  const auto n = static_cast<std::int64_t>(traced.size());
  const auto med = [&](auto f) {
    std::vector<double> v;
    for (const TracedSolve& t : traced) v.push_back(f(t));
    return median(v);
  };
  std::vector<TracedRun> runs;
  for (const TracedSolve& t : traced) runs.push_back(t.run);
  const TracedLayers layers = report_traced_runs(
      runs, med([](const TracedSolve& t) { return t.solve.wall_ms(); }),
      median(collect(untraced, &Solve::wall_ms)), result);

  result.metric("rt.init_ms",
                med([](const TracedSolve& t) { return t.init_ms; }), "ms", n,
                "summed ObjectInit time per solve");
  // State residencies plus each rank's share of construction and run()
  // overhead should cover p x the solve wall; the rest is printed.
  const double unaccounted = med([](const TracedSolve& t) {
    const double rank_ms = kProcs * t.solve.wall_ms();
    double acc = kProcs * (t.solve.ctor_ms() + t.solve.run_overhead_ms());
    for (double r : t.run.residency_ms) acc += r;
    return 100.0 * (rank_ms - acc) / rank_ms;
  });
  result.metric("rt.unaccounted_pct", unaccounted, "%", n,
                "(p x wall - state residencies - p x (ctor + run overhead)) "
                "/ (p x wall)");
  model_vs_measured(s, layers, med([](const TracedSolve& t) {
                      return t.solve.report.parallel_time_us * 1e-3;
                    }),
                    result);
}

struct PlanTimes {
  double app_build_ms = 0.0;
  double order_ms = 0.0;
  double run_plan_ms = 0.0;
  double liveness_ms = 0.0;
  double replay_ms = 0.0;
};

void report_planning(const Setup& setup, const std::vector<PlanTimes>& times,
                     Result& result) {
  const auto n = static_cast<std::int64_t>(times.size());
  const auto med = [&](double PlanTimes::*member) {
    std::vector<double> v;
    for (const PlanTimes& t : times) v.push_back(t.*member);
    return median(v);
  };
  result.metric("plan.app_build_ms", med(&PlanTimes::app_build_ms), "ms", n);
  result.metric("plan.order_ms", med(&PlanTimes::order_ms), "ms", n);
  result.metric("plan.run_plan_ms", med(&PlanTimes::run_plan_ms), "ms", n);
  result.metric("plan.liveness_ms", med(&PlanTimes::liveness_ms), "ms", n);
  result.metric("plan.replay_ms", med(&PlanTimes::replay_ms), "ms", n);
  result.metric("plan.tasks", setup.graph->num_tasks(), "count", 1);
  std::int64_t edges = 0;
  for (const auto& e : setup.graph->edges()) edges += e.redundant ? 0 : 1;
  result.metric("plan.edges", static_cast<double>(edges), "count", 1,
                "non-redundant dependence edges");

  rapid::verify::AuditOptions aopts;
  aopts.capacity_per_proc = setup.config().capacity_per_proc;
  aopts.active_memory = setup.config().active_memory;
  aopts.slab_arena = setup.config().slab_arena;
  ++result.attempted;
  const std::int64_t t0 = now_ns();
  const rapid::verify::AuditReport audit = rapid::verify::audit_plan(
      *setup.graph, setup.planned.schedule, setup.plan(), aopts);
  const std::int64_t t1 = now_ns();
  result.spans.add("plan.audit", t0, t1);
  result.metric("plan.audit_ms", ms(t1 - t0), "ms", 1);
  if (!audit.clean()) result.finding("plan audit: " + audit.summary());
}

}  // namespace

void run_executor_workload(const Options& options, Result& result) {
  const WorkloadDef def = workload_def(options.workload);
  const rapid::sparse::CscMatrix input = make_input(def.lu, options.seed);

  // Planning is repeated for a steady setup_s. The first plan is the one
  // kept; its process-cold time is left out of the medians.
  const Setup setup = plan_workload(def, input, result.spans);
  std::vector<PlanTimes> times;
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  while (setup_s.size() < kMinSetups || setup_total_s < kMinSetupSeconds) {
    const Setup s = plan_workload(def, input, result.spans);
    times.push_back({s.app_build_ms, s.planned.order_ms, s.planned.run_plan_ms,
                     s.planned.liveness_ms, s.planned.replay_ms});
    setup_s.push_back(s.total_s);
    setup_total_s += s.total_s;
  }
  const Ratio cap{static_cast<double>(setup.config().capacity_per_proc),
                  static_cast<double>(setup.planned.tot)};
  const Ratio min_mem{static_cast<double>(setup.planned.min_mem),
                      static_cast<double>(setup.planned.tot)};
  std::printf("n = %lld, tasks = %d, capacity/TOT = %s, MIN_MEM/TOT = %s\n",
              static_cast<long long>(input.n_cols()), setup.graph->num_tasks(),
              cap.text().c_str(), min_mem.text().c_str());

  // Warm-up: the first solve pays for cold caches and page faults.
  Solve first;
  if (!run_solve(setup, setup.init(), setup.body(), rt::ThreadedOptions{},
                 result, first,
                 [](const rt::ThreadedExecutor&) { return true; })) {
    return;
  }

  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  double rss_mib = 0.0;
  const std::vector<Solve> solves =
      timed_phase(setup, phase_s, result, rss_mib);
  if (solves.empty()) return;
  report_end_to_end(solves, setup_s, rss_mib, result);
  if (!options.trace) return;

  report_planning(setup, times, result);
  const auto n = static_cast<std::int64_t>(solves.size());
  result.metric("rt.first_solve_ms", first.wall_ms(), "ms", 1,
                "the untimed warm-up solve");
  result.metric("rt.ctor_ms", median(collect(solves, &Solve::ctor_ms)), "ms",
                n);
  result.metric("rt.run_overhead_ms",
                median(collect(solves, &Solve::run_overhead_ms)), "ms", n,
                "run() wall - parallel_time_us");
  std::vector<const rt::RunReport*> reports;
  for (const Solve& sv : solves) reports.push_back(&sv.report);
  report_counters(reports, result);
  traced_pass(setup, def, solves, options.seconds / 2, result);
}

}  // namespace perfbench
