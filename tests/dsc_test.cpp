#include <gtest/gtest.h>

#include "rapid/num/cholesky_app.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/sched/dsc.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/sparse/generators.hpp"
#include "rapid/sparse/ordering.hpp"
#include "rapid/support/rng.hpp"
#include "rapid/support/str.hpp"

namespace rapid::sched {
namespace {

using graph::TaskGraph;

machine::MachineParams params4() { return machine::MachineParams::cray_t3d(4); }

TEST(Dsc, ChainCollapsesToOneCluster) {
  // A pure chain must be zeroed into a single cluster (communication never
  // helps a chain).
  TaskGraph g;
  std::vector<graph::DataId> d;
  for (int i = 0; i < 6; ++i) {
    d.push_back(g.add_data(cat("d", i), 1024));
  }
  g.add_task("T0", {}, {d[0]}, 100.0);
  for (int i = 1; i < 6; ++i) {
    g.add_task(cat("T", i), {d[i - 1]}, {d[i]}, 100.0);
  }
  g.finalize();
  DscStats stats;
  const Clustering c = dsc_clusters(g, params4(), &stats);
  EXPECT_EQ(c.num_clusters, 1);
  for (auto cluster : c.cluster_of_task) EXPECT_EQ(cluster, 0);
}

TEST(Dsc, IndependentTasksStaySeparate) {
  TaskGraph g;
  for (int i = 0; i < 5; ++i) {
    const auto d = g.add_data(cat("d", i), 8);
    g.add_task(cat("T", i), {}, {d}, 100.0);
  }
  g.finalize();
  const Clustering c = dsc_clusters(g, params4());
  EXPECT_EQ(c.num_clusters, 5);
}

TEST(Dsc, ForkJoinMergesCriticalPath) {
  // Fork-join: source feeds two branches, one heavy and one light; the
  // heavy branch must share the source's cluster (its edge zeroed).
  TaskGraph g;
  const auto a = g.add_data("a", 1 << 16);
  const auto heavy_obj = g.add_data("h", 8);
  const auto light_obj = g.add_data("l", 8);
  const auto out = g.add_data("o", 8);
  const auto src = g.add_task("src", {}, {a}, 100.0);
  const auto heavy = g.add_task("heavy", {a}, {heavy_obj}, 10000.0);
  g.add_task("light", {a}, {light_obj}, 10.0);
  g.add_task("join", {heavy_obj, light_obj}, {out}, 10.0);
  g.finalize();
  const Clustering c = dsc_clusters(g, params4());
  EXPECT_EQ(c.cluster_of_task[src], c.cluster_of_task[heavy]);
}

TEST(Dsc, OwnerClosureMergesCoWriters) {
  // Two parallel writers of the same object would land in different DSC
  // clusters; the owner-closure must merge them.
  TaskGraph g;
  const auto x = g.add_data("x", 8);
  const auto y = g.add_data("y", 8);
  const auto shared = g.add_data("s", 8);
  g.add_task("A", {}, {x}, 500.0);
  g.add_task("B", {}, {y}, 500.0);
  const auto w1 = g.add_task("W1", {x}, {shared}, 10.0);
  const auto w2 = g.add_task("W2", {y}, {shared}, 10.0);
  g.finalize();
  DscStats stats;
  const Clustering c = dsc_clusters(g, params4(), &stats);
  EXPECT_EQ(c.cluster_of_task[w1], c.cluster_of_task[w2]);
  EXPECT_LE(stats.closed_clusters, stats.raw_clusters);
}

TEST(Dsc, EstimatedMakespanBeatsAllRemote) {
  // On the Figure-2 graph, DSC's unbounded-processor makespan must be no
  // worse than executing every edge remotely (zeroing only helps).
  TaskGraph g = graph::make_paper_figure2_graph();
  DscStats stats;
  dsc_clusters(g, params4(), &stats);
  // All-remote critical path = max blevel with remote edges everywhere.
  std::vector<graph::ProcId> all_distinct(
      static_cast<std::size_t>(g.num_tasks()));
  for (graph::TaskId t = 0; t < g.num_tasks(); ++t) {
    all_distinct[t] = t;  // every task its own "processor"
  }
  const auto bl = bottom_levels(g, all_distinct, params4());
  const double all_remote = *std::max_element(bl.begin(), bl.end());
  EXPECT_LE(stats.estimated_makespan, all_remote + 1e-9);
}

TEST(Dsc, FullPipelineExecutesAndComputes) {
  // DSC -> LPT mapping -> MPO ordering -> simulator, on a real workload.
  sparse::CscMatrix a = sparse::grid_laplacian_2d(10, 10);
  a = a.permuted_symmetric(sparse::nested_dissection_2d(10, 10));
  auto app = num::CholeskyApp::build(std::move(a), 5, 4);
  auto& g = app.mutable_graph();
  const Clustering clusters = dsc_clusters(g, params4());
  const auto procs = map_clusters_lpt(g, clusters, 4);
  const auto schedule = schedule_mpo(g, procs, 4, params4());
  EXPECT_NO_THROW(schedule.validate(g));
  const rt::RunPlan plan = rt::build_run_plan(g, schedule);
  rt::RunConfig config;
  config.params = params4();
  config.capacity_per_proc = analyze_liveness(g, schedule).min_mem();
  const rt::RunReport report = rt::simulate(plan, config);
  EXPECT_TRUE(report.executable) << report.failure;
  EXPECT_EQ(report.tasks_executed, g.num_tasks());
}

TEST(Dsc, ClusterFlopsAccountEverything) {
  TaskGraph g = graph::make_paper_figure2_graph();
  const Clustering c = dsc_clusters(g, params4());
  double total = 0.0;
  for (double f : c.cluster_flops) total += f;
  EXPECT_DOUBLE_EQ(total, g.total_flops());
}

}  // namespace
}  // namespace rapid::sched
