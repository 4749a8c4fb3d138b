#include <gtest/gtest.h>

#include "rapid/num/trisolve_app.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/sched/mapping.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/sparse/generators.hpp"
#include "rapid/sparse/ordering.hpp"

namespace rapid::num {
namespace {

sparse::CscMatrix nd_grid(sparse::Index s) {
  sparse::CscMatrix a = sparse::grid_laplacian_2d(s, s);
  return a.permuted_symmetric(sparse::nested_dissection_2d(s, s));
}

struct Runner {
  TriSolveApp app;
  sched::Schedule schedule;
  rt::RunPlan plan;
  std::int64_t min_mem = 0;

  Runner(sparse::CscMatrix a, Index block, int procs, bool use_dts = false) {
    app = TriSolveApp::build(std::move(a), block, procs);
    const auto assignment = sched::owner_compute_tasks(app.graph(), procs);
    const auto params = machine::MachineParams::cray_t3d(procs);
    schedule =
        use_dts ? sched::schedule_dts(app.graph(), assignment, procs, params)
                : sched::schedule_mpo(app.graph(), assignment, procs, params);
    plan = rt::build_run_plan(app.graph(), schedule);
    min_mem = sched::analyze_liveness(app.graph(), schedule).min_mem();
  }

  double run_threaded(std::int64_t capacity) {
    rt::RunConfig config;
    config.capacity_per_proc = capacity;
    rt::ThreadedExecutor exec(plan, config, app.make_init(), app.make_body());
    const rt::RunReport report = exec.run();
    if (!report.executable) return -1.0;
    return app.residual(exec);
  }
};

TEST(TriSolveApp, GraphShape) {
  const auto app = TriSolveApp::build(nd_grid(8), 4, 2);
  const auto& g = app.graph();
  EXPECT_NO_THROW(g.topological_order());
  // One forward + one backward solve per block row, plus symmetric update
  // counts in each sweep.
  const Index nb = app.layout().num_blocks;
  int fsol = 0, bsol = 0, fupd = 0, bupd = 0;
  for (graph::TaskId t = 0; t < g.num_tasks(); ++t) {
    switch (app.info(t).kind) {
      case TriSolveApp::TaskInfo::Kind::kForwardSolve: ++fsol; break;
      case TriSolveApp::TaskInfo::Kind::kBackwardSolve: ++bsol; break;
      case TriSolveApp::TaskInfo::Kind::kForwardUpdate: ++fupd; break;
      case TriSolveApp::TaskInfo::Kind::kBackwardUpdate: ++bupd; break;
    }
  }
  EXPECT_EQ(fsol, nb);
  EXPECT_EQ(bsol, nb);
  EXPECT_EQ(fupd, bupd);
  EXPECT_GT(fupd, 0);
}

TEST(TriSolveApp, UpdatesIntoSameSegmentCommute) {
  const auto app = TriSolveApp::build(nd_grid(8), 2, 2);
  const auto& g = app.graph();
  // Two forward updates into the same segment must be unordered.
  for (graph::TaskId a = 0; a < g.num_tasks(); ++a) {
    if (app.info(a).kind != TriSolveApp::TaskInfo::Kind::kForwardUpdate) {
      continue;
    }
    for (graph::TaskId b = a + 1; b < g.num_tasks(); ++b) {
      if (app.info(b).kind != TriSolveApp::TaskInfo::Kind::kForwardUpdate ||
          app.info(a).i != app.info(b).i) {
        continue;
      }
      for (const graph::Edge& e : g.edges()) {
        EXPECT_FALSE((e.src == a && e.dst == b) || (e.src == b && e.dst == a));
      }
      return;
    }
  }
  GTEST_SKIP() << "no commuting pair in this instance";
}

TEST(TriSolveApp, SolvesAtAmpleMemory) {
  Runner r(nd_grid(10), 5, 2);
  EXPECT_LT(r.run_threaded(1 << 22), 1e-9);
  EXPECT_GE(r.run_threaded(1 << 22), 0.0);
}

// Mixed object sizes (vector segments vs L blocks) fragment the arena, so
// unlike the uniform-size workloads the exact MIN_MEM frontier is only
// guaranteed one-sided: below MIN_MEM is always non-executable; at MIN_MEM
// a small fragmentation margin may be needed — the paper's §6 observation.
std::int64_t with_fragmentation_slack(std::int64_t min_mem) {
  return min_mem + min_mem / 8;
}

TEST(TriSolveApp, SolvesNearMinMem) {
  Runner r(nd_grid(10), 5, 2);
  const double err = r.run_threaded(with_fragmentation_slack(r.min_mem));
  EXPECT_GE(err, 0.0) << "non-executable near MIN_MEM";
  EXPECT_LT(err, 1e-9);
}

TEST(TriSolveApp, FourProcessorsDts) {
  Runner r(nd_grid(12), 4, 4, /*use_dts=*/true);
  const double err = r.run_threaded(with_fragmentation_slack(r.min_mem));
  EXPECT_GE(err, 0.0);
  EXPECT_LT(err, 1e-9);
}

TEST(TriSolveApp, SimulatorExecutabilityFrontier) {
  Runner r(nd_grid(10), 5, 2);
  rt::RunConfig c;
  c.capacity_per_proc = with_fragmentation_slack(r.min_mem);
  c.params = machine::MachineParams::cray_t3d(2);
  EXPECT_TRUE(rt::simulate(r.plan, c).executable);
  // Below MIN_MEM is non-executable regardless of allocator behaviour.
  c.capacity_per_proc = r.min_mem - 8;
  EXPECT_FALSE(rt::simulate(r.plan, c).executable);
}

TEST(TriSolveApp, FragmentationMarginIsSmallAndBounded) {
  // Scan upward from MIN_MEM for the true executability threshold; the
  // fragmentation margin must stay under 12.5 % for this workload (it is
  // ~2 % in practice — see the allocator ablation bench).
  Runner r(nd_grid(10), 5, 2);
  rt::RunConfig c;
  c.params = machine::MachineParams::cray_t3d(2);
  std::int64_t threshold = r.min_mem;
  while (true) {
    c.capacity_per_proc = threshold;
    if (rt::simulate(r.plan, c).executable) break;
    threshold += 8;
    ASSERT_LE(threshold, with_fragmentation_slack(r.min_mem));
  }
  EXPECT_GE(threshold, r.min_mem);
}

TEST(TriSolveApp, LBlocksAreReadOnlyVolatiles) {
  // No task writes an L block: every L object has zero writers, and remote
  // readers receive version 0 (initial content) only.
  const auto app = TriSolveApp::build(nd_grid(8), 4, 3);
  const auto& g = app.graph();
  int l_objects = 0;
  for (graph::DataId d = 0; d < g.num_data(); ++d) {
    if (g.data(d).name[0] == 'L') {
      ++l_objects;
      EXPECT_TRUE(g.writers(d).empty());
    }
  }
  EXPECT_GT(l_objects, 0);
}

}  // namespace
}  // namespace rapid::num
