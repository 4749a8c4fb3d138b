// Spec-string workloads: the one way a workload is named. The offline
// tools, the runtime service (its RunRequest plan language) and the shm
// transport all build workloads from these strings. A spawned
// rapid_shm_worker shares no address space with the coordinator, so the
// coordinator writes the spec into the segment header and the worker
// rebuilds the *identical* workload from it, then cross-checks
// rt::plan_fingerprint before touching any shared state.
//
// Grammar (key=value pairs after the app name, any order, all optional):
//   cholesky:matrix=nd,grid=12,scale=1,block=4,procs=4,sched=rcp|dts|mpo
//   lu:      same keys as cholesky
//   trisolve:same keys as cholesky
//   grid:rows=8,cols=8,procs=4,delay=0,sched=rcp
//   nbody:rows=6,cols=6,procs=4,sched=rcp
// `matrix=nd` (the default) is the nested-dissection-ordered grid×grid 2-D
// Laplacian; `matrix=bcsstk15|bcsstk24|bcsstk33|goodwin` names the paper's
// stand-in instances (num/workloads.hpp) at linear `scale` in (0, 1], and
// `grid` does not apply. cholesky and trisolve need an SPD matrix, so they
// refuse goodwin. nbody's rows and cols are its cell grid; the rest of its
// configuration is NBodyConfig's defaults. Integers are parsed strictly and
// the size keys are capped, so a bad spec fails with rapid::Error before
// anything is built.
//
// The pipeline is deterministic (no seeds, no wall-clock; grid's optional
// per-task delay is a stateless hash of the task id), so spec equality
// implies plan equality across processes and machines.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "rapid/num/app.hpp"
#include "rapid/rt/plan.hpp"
#include "rapid/sparse/csc.hpp"

namespace rapid::num {

/// Caps on a spec's size keys: spec lines arrive as service input, and
/// procs is the number of rank threads (or processes) a run starts.
inline constexpr int kMaxSpecProcs = 64;
inline constexpr int kMaxSpecExtent = 64;  // grid, rows, cols

/// A parsed spec string. `app` is not checked here, so a tool can route a
/// name of its own (rapid_verify's graph-only `fig2`) through the grammar.
struct WorkloadSpec {
  std::string app;
  std::string matrix = "nd";
  double scale = 1.0;
  sparse::Index grid = 12;
  sparse::Index block = 4;
  int procs = 4;
  std::string sched = "rcp";
  std::optional<int> rows;  // grid: 8, nbody: 6 when absent
  std::optional<int> cols;
  std::int64_t delay = 0;
};

/// Throws rapid::Error, naming the spec, on a malformed key=value list, an
/// unknown key, a non-numeric or out-of-range value.
WorkloadSpec parse_workload_spec(const std::string& spec);

/// The run plan of a graph ordered by the spec's sched on its procs
/// (owner-compute, Cray T3D parameters; plan.schedule), and its liveness
/// bounds.
struct PlannedGraph {
  rt::RunPlan plan;
  std::int64_t min_mem = 0;
  /// Sum of all live footprints (always executable, even with the threaded
  /// executor's 8-byte alignment padding on top of Def. 5 accounting).
  std::int64_t tot_mem = 0;
};

/// The plan points into `graph`, so keep the graph alive with it.
PlannedGraph plan_graph(const graph::TaskGraph& graph,
                        const WorkloadSpec& spec);

/// A workload rebuilt from a spec string: the app (graph + task bodies) and
/// its schedule, run plan and liveness bounds. The app owns the graph the
/// plan points into, so keep the ShmWorkload alive for the whole run.
struct ShmWorkload : PlannedGraph {
  std::unique_ptr<App> app;

  const graph::TaskGraph& graph() const { return app->graph(); }
};

/// Throws rapid::Error on an unknown app or any parse_workload_spec error.
std::unique_ptr<ShmWorkload> build_shm_workload(const std::string& spec);

}  // namespace rapid::num
