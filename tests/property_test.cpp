// Property tests over randomly generated task programs: the paper's
// correctness claims, checked on hundreds of instances.
//  - Def. 6 at run time: a schedule executes under capacity C iff
//    C >= MIN_MEM (the MAP mechanism is exactly as strong as the bound).
//  - Theorem 1: no deadlock, no data inconsistency — the simulator asserts
//    version consistency internally and the threaded executor's results are
//    compared against a sequential interpretation.
//  - Theorem 2: a DTS schedule fits in max-permanent + max-slice-demand.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "rapid/graph/dcg.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/sched/mapping.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/support/rng.hpp"
#include "rapid/support/str.hpp"

namespace rapid {
namespace {

using graph::DataId;
using graph::TaskGraph;
using graph::TaskId;

/// A random well-formed task program: objects are int64 counters (8 bytes
/// each so the threaded executor's alignment matches Def. 5 accounting);
/// every task writes one owned object and reads a few arbitrary objects;
/// some read-modify-write runs commute.
struct RandomProgram {
  TaskGraph graph;
  int num_procs;

  RandomProgram(std::uint64_t seed, int procs) : num_procs(procs) {
    Rng rng(seed);
    const int num_objects = static_cast<int>(6 + rng.next_below(24));
    const int num_tasks = static_cast<int>(12 + rng.next_below(48));
    for (int d = 0; d < num_objects; ++d) {
      graph.add_data(cat("d", d), 8,
                     static_cast<graph::ProcId>(d % procs));
    }
    for (int t = 0; t < num_tasks; ++t) {
      const auto target =
          static_cast<DataId>(rng.next_below(num_objects));
      std::vector<DataId> reads;
      const int fan = static_cast<int>(rng.next_below(4));
      for (int r = 0; r < fan; ++r) {
        reads.push_back(static_cast<DataId>(rng.next_below(num_objects)));
      }
      if (rng.next_bool(0.5)) reads.push_back(target);  // declared RMW
      const std::int32_t group = rng.next_bool(0.3) ? target : -1;
      graph.add_task(cat("T", t), std::move(reads), {target},
                     1.0 + static_cast<double>(rng.next_below(20)), group);
    }
    graph.finalize();
  }

  /// Sequential reference semantics: additive, so commuting runs are
  /// genuinely order-independent.
  std::vector<std::int64_t> interpret() const {
    std::vector<std::int64_t> value(
        static_cast<std::size_t>(graph.num_data()), 0);
    for (TaskId t = 0; t < graph.num_tasks(); ++t) {
      apply(t, value);
    }
    return value;
  }

  void apply(TaskId t, std::vector<std::int64_t>& value) const {
    const graph::Task& task = graph.task(t);
    std::int64_t acc = t + 1;
    for (DataId d : task.reads) {
      if (d != task.writes.front()) acc += value[d];
    }
    value[task.writes.front()] += acc;
  }

  rt::TaskBody make_body() const {
    return [this](TaskId t, rt::ObjectResolver& resolver) {
      const graph::Task& task = graph.task(t);
      std::int64_t acc = t + 1;
      for (DataId d : task.reads) {
        if (d == task.writes.front()) continue;
        const auto in = resolver.read(d);
        std::int64_t v = 0;
        std::memcpy(&v, in.data(), sizeof(v));
        acc += v;
      }
      auto out = resolver.write(task.writes.front());
      std::int64_t v = 0;
      std::memcpy(&v, out.data(), sizeof(v));
      v += acc;
      std::memcpy(out.data(), &v, sizeof(v));
    };
  }

  static rt::ObjectInit make_init() {
    return [](DataId, std::span<std::byte> buf) {
      std::memset(buf.data(), 0, buf.size());
    };
  }
};

enum class Order { kRcp, kMpo, kDts };

sched::Schedule make_schedule(const RandomProgram& prog, Order order) {
  const auto procs = sched::owner_compute_tasks(prog.graph, prog.num_procs);
  const auto params = machine::MachineParams::cray_t3d(prog.num_procs);
  switch (order) {
    case Order::kRcp:
      return sched::schedule_rcp(prog.graph, procs, prog.num_procs, params);
    case Order::kMpo:
      return sched::schedule_mpo(prog.graph, procs, prog.num_procs, params);
    case Order::kDts:
      return sched::schedule_dts(prog.graph, procs, prog.num_procs, params);
  }
  RAPID_FAIL("unreachable");
}

class RandomProgramTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {
 protected:
  std::uint64_t seed() const { return std::get<0>(GetParam()); }
  int procs() const { return std::get<1>(GetParam()); }
  Order order() const { return static_cast<Order>(std::get<2>(GetParam())); }
};

TEST_P(RandomProgramTest, ScheduleIsValid) {
  RandomProgram prog(seed(), procs());
  const auto schedule = make_schedule(prog, order());
  EXPECT_NO_THROW(schedule.validate(prog.graph));
}

TEST_P(RandomProgramTest, ExecutableExactlyDownToMinMem) {
  RandomProgram prog(seed(), procs());
  const auto schedule = make_schedule(prog, order());
  const rt::RunPlan plan = rt::build_run_plan(prog.graph, schedule);
  const auto min_mem =
      sched::analyze_liveness(prog.graph, schedule).min_mem();
  rt::RunConfig config;
  config.params = machine::MachineParams::cray_t3d(procs());
  config.capacity_per_proc = min_mem;
  const rt::RunReport at = rt::simulate(plan, config);
  EXPECT_TRUE(at.executable) << at.failure;
  EXPECT_EQ(at.tasks_executed, prog.graph.num_tasks());
  config.capacity_per_proc = min_mem - 1;
  EXPECT_FALSE(rt::simulate(plan, config).executable);
}

TEST_P(RandomProgramTest, ThreadedMatchesSequentialAtMinMem) {
  RandomProgram prog(seed(), procs());
  const auto schedule = make_schedule(prog, order());
  const rt::RunPlan plan = rt::build_run_plan(prog.graph, schedule);
  rt::RunConfig config;
  config.capacity_per_proc =
      sched::analyze_liveness(prog.graph, schedule).min_mem();
  rt::ThreadedExecutor exec(plan, config, RandomProgram::make_init(),
                            prog.make_body());
  const rt::RunReport report = exec.run();
  ASSERT_TRUE(report.executable) << report.failure;
  const auto expected = prog.interpret();
  for (DataId d = 0; d < prog.graph.num_data(); ++d) {
    const auto bytes = exec.read_object(d);
    std::int64_t v = 0;
    std::memcpy(&v, bytes.data(), sizeof(v));
    EXPECT_EQ(v, expected[d]) << prog.graph.data(d).name << " seed "
                              << seed();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomProgramTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(0, 1, 2)));

/// Theorem 2, checked as stated: a DTS schedule fits within
/// max-permanent-bytes + max-slice-volatile-demand per processor.
class Theorem2Test : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Theorem2Test, DtsFitsPermPlusSliceDemand) {
  const auto [seed, procs] = GetParam();
  RandomProgram prog(seed, procs);
  const auto assignment = sched::owner_compute_tasks(prog.graph, procs);
  const auto schedule = make_schedule(prog, Order::kDts);
  const auto liveness = sched::analyze_liveness(prog.graph, schedule);
  const auto slices = graph::compute_slices(prog.graph);
  const auto demand =
      sched::slice_volatile_demand(prog.graph, slices, assignment, procs);
  std::int64_t h = 0;
  for (std::int64_t d : demand) h = std::max(h, d);
  std::int64_t max_perm = 0;
  for (const auto& p : liveness.procs) {
    max_perm = std::max(max_perm, p.permanent_bytes);
  }
  EXPECT_LE(liveness.min_mem(), max_perm + h);
  // And the run time achieves it.
  const rt::RunPlan plan = rt::build_run_plan(prog.graph, schedule);
  rt::RunConfig config;
  config.params = machine::MachineParams::cray_t3d(procs);
  config.capacity_per_proc = max_perm + h;
  EXPECT_TRUE(rt::simulate(plan, config).executable);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem2Test,
                         ::testing::Combine(::testing::Range(1, 13),
                                            ::testing::Values(2, 3, 4)));

/// Corollary 1 on random *pipeline* programs (acyclic DCG by construction,
/// unit-size objects): DTS executes with max-perm + 1 object's bytes.
TEST(Corollary1, PipelineProgramsFitPermPlusOneObject) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    TaskGraph g;
    const int stages = static_cast<int>(5 + rng.next_below(10));
    const int procs = 2 + static_cast<int>(rng.next_below(3));
    std::vector<DataId> objs;
    for (int s = 0; s < stages; ++s) {
      objs.push_back(g.add_data(cat("s", s), 8,
                                static_cast<graph::ProcId>(s % procs)));
    }
    g.add_task("W", {}, {objs[0]}, 1.0);
    for (int s = 0; s + 1 < stages; ++s) {
      // A few readers of stage s, the last one produces stage s+1.
      const int readers = static_cast<int>(rng.next_below(3));
      for (int r = 0; r < readers; ++r) {
        g.add_task(cat("R", s, "_", r),
                   {objs[s]}, {objs[s]}, 1.0, /*commute=*/objs[s]);
      }
      g.add_task(cat("P", s), {objs[s]}, {objs[s + 1]}, 1.0);
    }
    g.finalize();
    // Readers of stage s RMW it on its owner; producers write the next.
    const auto dcg = graph::build_dcg(g);
    if (!graph::dcg_is_acyclic(dcg)) continue;  // rare; Corollary needs DAG
    const auto assignment = sched::owner_compute_tasks(g, procs);
    const auto schedule = sched::schedule_dts(
        g, assignment, procs, machine::MachineParams::cray_t3d(procs));
    const auto liveness = sched::analyze_liveness(g, schedule);
    std::int64_t max_perm = 0;
    for (const auto& p : liveness.procs) {
      max_perm = std::max(max_perm, p.permanent_bytes);
    }
    EXPECT_LE(liveness.min_mem(), max_perm + 8) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rapid
