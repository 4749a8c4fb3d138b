#include "rapid/num/shm_workloads.hpp"

#include <cstdlib>
#include <limits>
#include <utility>

#include "rapid/num/cholesky_app.hpp"
#include "rapid/num/grid_app.hpp"
#include "rapid/num/lu_app.hpp"
#include "rapid/num/nbody_app.hpp"
#include "rapid/num/trisolve_app.hpp"
#include "rapid/num/workloads.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/sched/mapping.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/sparse/generators.hpp"
#include "rapid/sparse/ordering.hpp"
#include "rapid/support/check.hpp"
#include "rapid/support/str.hpp"

namespace rapid::num {

namespace {

/// Spec errors come from outside input: a plain message, with no source
/// location or failed expression.
void require(bool ok, const std::string& message) {
  if (!ok) throw Error(message);
}

sparse::CscMatrix nd_grid(sparse::Index s) {
  sparse::CscMatrix a = sparse::grid_laplacian_2d(s, s);
  return a.permuted_symmetric(sparse::nested_dissection_2d(s, s));
}

/// The matrix the factorization and solve apps run on; `spd_only` refuses
/// the unsymmetric instance.
sparse::CscMatrix spec_matrix(const WorkloadSpec& s, const std::string& spec,
                              bool spd_only) {
  if (s.matrix == "nd") return nd_grid(s.grid);
  Workload w = s.matrix == "bcsstk15"   ? bcsstk15_like(s.scale)
               : s.matrix == "bcsstk24" ? bcsstk24_like(s.scale)
               : s.matrix == "bcsstk33" ? bcsstk33_like(s.scale)
               : s.matrix == "goodwin"
                   ? goodwin_like(s.scale)
                   : throw Error(cat("workload spec: matrix must be nd, "
                                     "bcsstk15, bcsstk24, bcsstk33 or goodwin "
                                     "in \"", spec, "\""));
  require(w.spd || !spd_only,
          cat("workload spec: ", s.app, " needs an SPD matrix, but ",
              s.matrix, " is unsymmetric, in \"", spec, "\""));
  return std::move(w.matrix);
}

std::unique_ptr<App> build_app(const WorkloadSpec& s,
                               const std::string& spec) {
  if (s.app == "cholesky") {
    return std::make_unique<CholeskyApp>(
        CholeskyApp::build(spec_matrix(s, spec, true), s.block, s.procs));
  }
  if (s.app == "lu") {
    return std::make_unique<LuApp>(
        LuApp::build(spec_matrix(s, spec, false), s.block, s.procs));
  }
  if (s.app == "trisolve") {
    return std::make_unique<TriSolveApp>(
        TriSolveApp::build(spec_matrix(s, spec, true), s.block, s.procs));
  }
  if (s.app == "grid") {
    return std::make_unique<GridIntApp>(GridIntApp::build(
        s.rows.value_or(8), s.cols.value_or(8), s.procs, s.delay));
  }
  if (s.app == "nbody") {
    NBodyConfig config;
    config.height = s.rows.value_or(config.height);
    config.width = s.cols.value_or(config.width);
    return std::make_unique<NBodyApp>(NBodyApp::build(config, s.procs));
  }
  throw Error(cat("workload spec: unknown app \"", s.app,
                  "\" (want cholesky, lu, trisolve, grid or nbody) in \"",
                  spec, "\""));
}

}  // namespace

WorkloadSpec parse_workload_spec(const std::string& spec) {
  WorkloadSpec p;
  const std::size_t colon = spec.find(':');
  p.app = spec.substr(0, colon);
  const std::string where = cat(" in \"", spec, "\"");
  const std::string rest =
      colon == std::string::npos ? std::string() : spec.substr(colon + 1);
  for (const std::string& kv : split(rest, ',')) {
    if (kv.empty()) continue;
    const std::size_t eq = kv.find('=');
    require(eq != std::string::npos,
            cat("workload spec: expected key=value, got \"", kv, "\"",
                where));
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    // Strict integer in [lo, hi]: no trailing characters, no wraparound.
    const auto integer = [&](std::int64_t lo, std::int64_t hi) {
      const std::int64_t v = parse_int(val, cat("workload spec: ", key), where);
      require(lo <= v && v <= hi, cat("workload spec: ", key, "=", v,
                                      " is outside [", lo, ", ", hi, "]",
                                      where));
      return static_cast<int>(v);
    };
    constexpr int kUnbounded = std::numeric_limits<int>::max();
    if (key == "matrix") {
      p.matrix = val;
    } else if (key == "scale") {
      char* end = nullptr;
      p.scale = std::strtod(val.c_str(), &end);
      require(!val.empty() && *end == '\0' && p.scale > 0.0 &&
                  p.scale <= 1.0,
              cat("workload spec: scale expects a number in (0, 1], got \"",
                  val, "\"", where));
    } else if (key == "grid") {
      p.grid = integer(2, kMaxSpecExtent);
    } else if (key == "block") {
      p.block = integer(1, kUnbounded);
    } else if (key == "procs") {
      p.procs = integer(1, kMaxSpecProcs);
    } else if (key == "sched") {
      require(val == "rcp" || val == "dts" || val == "mpo",
              cat("workload spec: sched must be rcp, dts or mpo", where));
      p.sched = val;
    } else if (key == "rows") {
      p.rows = integer(1, kMaxSpecExtent);
    } else if (key == "cols") {
      p.cols = integer(1, kMaxSpecExtent);
    } else if (key == "delay") {
      p.delay = integer(0, kUnbounded);
    } else {
      throw Error(cat("workload spec: unknown key \"", key, "\"", where));
    }
  }
  return p;
}

PlannedGraph plan_graph(const graph::TaskGraph& graph,
                        const WorkloadSpec& spec) {
  const int procs = spec.procs;
  const auto assignment = sched::owner_compute_tasks(graph, procs);
  const auto params = machine::MachineParams::cray_t3d(procs);
  const sched::Schedule schedule =
      spec.sched == "dts"
          ? sched::schedule_dts(graph, assignment, procs, params)
      : spec.sched == "mpo"
          ? sched::schedule_mpo(graph, assignment, procs, params)
          : sched::schedule_rcp(graph, assignment, procs, params);
  PlannedGraph out;
  out.plan = rt::build_run_plan(graph, schedule);
  const auto liveness = sched::analyze_liveness(graph, schedule);
  out.min_mem = liveness.min_mem();
  out.tot_mem = liveness.tot_mem();
  return out;
}

std::unique_ptr<ShmWorkload> build_shm_workload(const std::string& spec) {
  const WorkloadSpec s = parse_workload_spec(spec);
  auto out = std::make_unique<ShmWorkload>();
  out->app = build_app(s, spec);
  static_cast<PlannedGraph&>(*out) = plan_graph(out->graph(), s);
  return out;
}

}  // namespace rapid::num
