// Ablation: the "special memory allocator" question from the paper's §6.
// Freed volatile space "contains many small pieces and is hard to
// re-utilize" — so how much capacity above MIN_MEM does each placement
// policy actually need before a schedule becomes executable, and how
// fragmented does the arena get?
//
// For each workload we binary-search the executability threshold under
// first-fit and best-fit and report the margin over MIN_MEM (the
// fragmentation tax). Uniform-object workloads (factorizations with equal
// blocks) have no tax; mixed-size ones (triangular solve with vector
// segments + matrix blocks) do.
#include <cstdio>

#include "common.hpp"
#include "rapid/num/trisolve_app.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/sched/mapping.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/sparse/generators.hpp"
#include "rapid/sparse/ordering.hpp"
#include "rapid/support/str.hpp"

using namespace rapid;

namespace {

struct Case {
  std::string name;
  // The run plan points into the app's task graph, so the app must outlive
  // the simulations.
  std::shared_ptr<const num::App> app;
  rt::RunPlan plan;
  std::int64_t min_mem = 0;
};

std::int64_t find_threshold(const rt::RunPlan& plan, std::int64_t min_mem,
                            mem::AllocPolicy policy,
                            const machine::MachineParams& params) {
  // Exponential probe up, then binary search down to 8-byte resolution.
  auto executable = [&](std::int64_t capacity) {
    rt::RunConfig c;
    c.params = params;
    c.capacity_per_proc = capacity;
    c.alloc_policy = policy;
    return rt::simulate(plan, c).executable;
  };
  std::int64_t hi = min_mem;
  while (!executable(hi)) hi += std::max<std::int64_t>(8, min_mem / 64);
  if (hi == min_mem) return hi;
  std::int64_t lo = hi - std::max<std::int64_t>(8, min_mem / 64);  // fails
  while (lo + 1 < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (executable(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("scale", "0.5", "workload scale in (0,1]");
  flags.define("procs", "8", "processor count");
  flags.define("json", "", "also write machine-readable results to this path");
  flags.parse(argc, argv);
  if (flags.help_requested()) return 0;
  const double scale = flags.get_double("scale");
  const int procs = static_cast<int>(flags.get_int("procs"));
  const auto params = machine::MachineParams::cray_t3d(procs);

  bench::print_header(
      "Ablation: volatile-space allocator policy (paper §6)",
      "Cholesky / LU / triangular solve",
      "threshold = smallest executable capacity; margin = threshold/MIN_MEM "
      "- 1 (the fragmentation tax)");

  std::vector<Case> cases;
  {
    auto inst = bench::make_cholesky_instance(num::bcsstk24_like(scale), 16,
                                              procs);
    const auto s = bench::make_schedule(inst, bench::OrderingKind::kMpo);
    Case c;
    c.name = "cholesky (uniform blocks)";
    c.app = inst.app;
    c.plan = rt::build_run_plan(inst.graph(), s);
    c.min_mem = bench::min_mem(inst, s);
    cases.push_back(std::move(c));
  }
  {
    auto inst =
        bench::make_lu_instance(num::goodwin_like(scale * 0.6), 12, procs);
    const auto s = bench::make_schedule(inst, bench::OrderingKind::kMpo);
    Case c;
    c.name = "LU (column blocks)";
    c.app = inst.app;
    c.plan = rt::build_run_plan(inst.graph(), s);
    c.min_mem = bench::min_mem(inst, s);
    cases.push_back(std::move(c));
  }
  {
    const auto side = static_cast<sparse::Index>(24 * scale + 8);
    sparse::CscMatrix a = sparse::grid_laplacian_2d(side, side);
    a = a.permuted_symmetric(sparse::nested_dissection_2d(side, side));
    auto app = std::make_shared<num::TriSolveApp>(
        num::TriSolveApp::build(std::move(a), 6, procs));
    const auto assignment = sched::owner_compute_tasks(app->graph(), procs);
    const auto s =
        sched::schedule_mpo(app->graph(), assignment, procs, params);
    Case c;
    c.name = "trisolve (mixed sizes)";
    c.app = app;
    c.plan = rt::build_run_plan(app->graph(), s);
    c.min_mem = sched::analyze_liveness(app->graph(), s).min_mem();
    cases.push_back(std::move(c));
  }

  TextTable table({"workload", "MIN_MEM", "first-fit margin",
                   "best-fit margin"});
  for (const Case& c : cases) {
    const std::int64_t ff =
        find_threshold(c.plan, c.min_mem, mem::AllocPolicy::kFirstFit, params);
    const std::int64_t bf =
        find_threshold(c.plan, c.min_mem, mem::AllocPolicy::kBestFit, params);
    auto margin = [&](std::int64_t threshold) {
      return fixed(100.0 * (static_cast<double>(threshold) / c.min_mem - 1.0),
                   2) +
             "%";
    };
    table.add_row({c.name, human_bytes(static_cast<double>(c.min_mem)),
                   margin(ff), margin(bf)});
  }
  bench::emit_table(flags, "ablation_allocator", table);
  std::printf(
      "\nexpected shape: ~0%% margin for uniform-size objects; a small but "
      "real margin\nfor mixed sizes — the reason the paper's conclusion "
      "calls for a special allocator.\n");
  return 0;
}
