#include <gtest/gtest.h>

#include <algorithm>

#include "rapid/graph/dcg.hpp"
#include "rapid/support/str.hpp"

namespace rapid::graph {
namespace {

TEST(Dcg, ReaderAssociationRule) {
  // T reads d0 and writes d1: associated with d0 only.
  TaskGraph g;
  const DataId d0 = g.add_data("d0", 1);
  const DataId d1 = g.add_data("d1", 1);
  g.add_task("W", {}, {d0}, 1.0);
  const TaskId t = g.add_task("T", {d0}, {d1}, 1.0);
  g.finalize();
  const Dcg dcg = build_dcg(g);
  ASSERT_EQ(dcg.task_assoc[t].size(), 1u);
  EXPECT_EQ(dcg.task_assoc[t][0], d0);
}

TEST(Dcg, SoleModifierAssociationRule) {
  // T only modifies d (RMW, uses nothing else): associated with d.
  TaskGraph g;
  const DataId d = g.add_data("d", 1);
  const TaskId t = g.add_task("T", {d}, {d}, 1.0);
  g.finalize();
  const Dcg dcg = build_dcg(g);
  ASSERT_EQ(dcg.task_assoc[t].size(), 1u);
  EXPECT_EQ(dcg.task_assoc[t][0], d);
}

TEST(Dcg, MultiAssociationStronglyConnects) {
  // T reads d0, d1 (writes d2): d0 and d1 become mutually connected and
  // land in one slice.
  TaskGraph g;
  const DataId d0 = g.add_data("d0", 1);
  const DataId d1 = g.add_data("d1", 1);
  const DataId d2 = g.add_data("d2", 1);
  g.add_task("W0", {}, {d0}, 1.0);
  g.add_task("W1", {}, {d1}, 1.0);
  g.add_task("T", {d0, d1}, {d2}, 1.0);
  g.finalize();
  const Dcg dcg = build_dcg(g);
  EXPECT_TRUE(std::count(dcg.succ[d0].begin(), dcg.succ[d0].end(), d1) == 1);
  EXPECT_TRUE(std::count(dcg.succ[d1].begin(), dcg.succ[d1].end(), d0) == 1);
  EXPECT_FALSE(dcg_is_acyclic(dcg));
  const SliceDecomposition slices = decompose_slices(g, dcg);
  // d0, d1 share a slice.
  std::int32_t s0 = -1, s1 = -1;
  for (std::size_t s = 0; s < slices.num_slices(); ++s) {
    for (DataId d : slices.slices[s].objects) {
      if (d == d0) s0 = static_cast<std::int32_t>(s);
      if (d == d1) s1 = static_cast<std::int32_t>(s);
    }
  }
  EXPECT_EQ(s0, s1);
  EXPECT_NE(s0, -1);
}

TEST(Dcg, TemporalEdgeFollowsDependence) {
  // R0 reads a (writes b); R1 reads b (writes c). Dependence R0 -> R1 gives
  // DCG edge a -> b.
  TaskGraph g;
  const DataId a = g.add_data("a", 1);
  const DataId b = g.add_data("b", 1);
  const DataId c = g.add_data("c", 1);
  g.add_task("Wa", {}, {a}, 1.0);
  g.add_task("R0", {a}, {b}, 1.0);
  g.add_task("R1", {b}, {c}, 1.0);
  g.finalize();
  const Dcg dcg = build_dcg(g);
  EXPECT_EQ(std::count(dcg.succ[a].begin(), dcg.succ[a].end(), b), 1);
  EXPECT_TRUE(dcg_is_acyclic(dcg));
}

TEST(Dcg, PaperFigure2SlicesAreTopologicallyOrdered) {
  const TaskGraph g = make_paper_figure2_graph();
  const Dcg dcg = build_dcg(g);
  const SliceDecomposition slices = decompose_slices(g, dcg);
  // Every task appears exactly once.
  std::vector<int> seen(static_cast<std::size_t>(g.num_tasks()), 0);
  for (const Slice& s : slices.slices) {
    for (TaskId t : s.tasks) ++seen[t];
  }
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_EQ(seen[t], 1) << g.task(t).name;
    EXPECT_GE(slices.slice_of_task[t], 0);
  }
  // Dependences never point to an earlier slice.
  for (const Edge& e : g.edges()) {
    if (e.redundant) continue;
    EXPECT_LE(slices.slice_of_task[e.src], slices.slice_of_task[e.dst])
        << g.task(e.src).name << " -> " << g.task(e.dst).name;
  }
}

TEST(Dcg, SlicesRespectSccTopologicalOrder) {
  // A cycle between two data nodes merges their slices.
  // T1 reads a writes b; T2 reads b writes a (classic interleaving).
  TaskGraph g;
  const DataId a = g.add_data("a", 1);
  const DataId b = g.add_data("b", 1);
  g.add_task("Wa", {}, {a}, 1.0);
  g.add_task("Wb", {}, {b}, 1.0);
  g.add_task("T1", {a}, {b}, 1.0);
  g.add_task("T2", {b}, {a}, 1.0);
  g.finalize();
  const Dcg dcg = build_dcg(g);
  EXPECT_FALSE(dcg_is_acyclic(dcg));
  const SliceDecomposition slices = decompose_slices(g, dcg);
  // a and b are one SCC, so T1 and T2 share a slice.
  std::int32_t s1 = -1, s2 = -1;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (g.task(t).name == "T1") s1 = slices.slice_of_task[t];
    if (g.task(t).name == "T2") s2 = slices.slice_of_task[t];
  }
  EXPECT_EQ(s1, s2);
}

TEST(Dcg, TasklessSlicesAreDropped) {
  // d1 is written through a read of d0, never read itself: its node has no
  // associated task and its slice disappears.
  TaskGraph g;
  const DataId d0 = g.add_data("d0", 1);
  g.add_data("d1", 1);
  g.add_task("W", {}, {d0}, 1.0);
  const TaskId t = g.add_task("T", {d0}, {1}, 1.0);
  g.finalize();
  const SliceDecomposition slices = compute_slices(g);
  for (const Slice& s : slices.slices) {
    EXPECT_FALSE(s.tasks.empty());
  }
  EXPECT_GE(slices.slice_of_task[t], 0);
}

TEST(Dcg, ChainGraphProducesChainSlices) {
  // Pipeline: W0 -> R01 -> R12 -> R23; slices follow the data chain.
  TaskGraph g;
  std::vector<DataId> d;
  for (int i = 0; i < 4; ++i) d.push_back(g.add_data(cat("d", i), 1));
  g.add_task("W", {}, {d[0]}, 1.0);
  for (int i = 0; i + 1 < 4; ++i) {
    g.add_task(cat("R", i), {d[i]}, {d[i + 1]}, 1.0);
  }
  g.finalize();
  const Dcg dcg = build_dcg(g);
  EXPECT_TRUE(dcg_is_acyclic(dcg));
  const SliceDecomposition slices = decompose_slices(g, dcg);
  EXPECT_EQ(slices.num_slices(), 3u);  // d3 never read -> no slice
  // Slice order must follow the chain.
  for (std::size_t s = 0; s + 1 < slices.num_slices(); ++s) {
    EXPECT_LT(slices.slices[s].objects[0], slices.slices[s + 1].objects[0]);
  }
}

}  // namespace
}  // namespace rapid::graph
