#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "counter_app.hpp"
#include "rapid/rt/stall.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/support/check.hpp"

namespace rapid::rt {
namespace {

using testing::CounterApp;

/// Asserts the executor's final heaps match the sequential interpretation.
void check_results(const CounterApp& app, const ThreadedExecutor& exec) {
  for (graph::DataId d = 0; d < app.graph.num_data(); ++d) {
    const auto bytes = exec.read_object(d);
    std::int64_t v = 0;
    std::memcpy(&v, bytes.data(), sizeof(v));
    EXPECT_EQ(v, app.expected[d]) << app.graph.data(d).name;
  }
}

TEST(ThreadedExecutor, ComputesCorrectResultsWithAmpleMemory) {
  CounterApp app(2);
  ThreadedExecutor exec(app.plan, app.config(1 << 16), app.make_init(),
                        app.make_body());
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  EXPECT_EQ(r.tasks_executed, 20);
  check_results(app, exec);
}

TEST(ThreadedExecutor, ComputesCorrectResultsAtMinMem) {
  CounterApp app(2);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  ThreadedExecutor exec(app.plan, app.config(liveness.min_mem()),
                        app.make_init(), app.make_body());
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  check_results(app, exec);
  EXPECT_GT(r.avg_maps(), 1.0);  // recycling actually happened
  for (std::int64_t peak : r.peak_bytes_per_proc) {
    EXPECT_LE(peak, liveness.min_mem());
  }
}

TEST(ThreadedExecutor, ReportsNonExecutableBelowMinMem) {
  CounterApp app(2);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  ThreadedExecutor exec(app.plan, app.config(liveness.min_mem() - 8),
                        app.make_init(), app.make_body());
  const RunReport r = exec.run();
  EXPECT_FALSE(r.executable);
  EXPECT_FALSE(r.failure.empty());
}

TEST(ThreadedExecutor, BaselineModeMatches) {
  CounterApp app(2);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  ThreadedExecutor exec(app.plan, app.config(liveness.tot_mem(), false),
                        app.make_init(), app.make_body());
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  EXPECT_EQ(r.maps_per_proc[0], 0);
  check_results(app, exec);
}

TEST(ThreadedExecutor, MpoOrderAlsoCorrect) {
  CounterApp app(2, /*mpo=*/true);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  ThreadedExecutor exec(app.plan, app.config(liveness.min_mem()),
                        app.make_init(), app.make_body());
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  check_results(app, exec);
}

TEST(ThreadedExecutor, RepeatedTightRunsStayCorrect) {
  // Hammer the protocol: many runs at the exact memory floor; thread
  // interleavings differ, results must not.
  CounterApp app(2);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  for (int round = 0; round < 25; ++round) {
    ThreadedExecutor exec(app.plan, app.config(liveness.min_mem()),
                          app.make_init(), app.make_body());
    const RunReport r = exec.run();
    ASSERT_TRUE(r.executable) << r.failure;
    check_results(app, exec);
  }
}

TEST(ThreadedExecutor, WatchdogCatchesStalledProtocol) {
  // Fault injection: one task body blocks far beyond the watchdog window,
  // so global progress stops and the watchdog must abort the run with
  // ProtocolDeadlockError instead of hanging forever.
  CounterApp app(2);
  ThreadedOptions options;
  options.watchdog_seconds = 0.2;
  std::atomic<bool> stalled{false};
  ThreadedExecutor exec(
      app.plan, app.config(1 << 16), app.make_init(),
      [&](graph::TaskId t, ObjectResolver& resolver) {
        if (!stalled.exchange(true)) {
          std::this_thread::sleep_for(std::chrono::seconds(2));
        }
        app.make_body()(t, resolver);
      },
      options);
  try {
    exec.run();
    ADD_FAILURE() << "the watchdog did not fire";
  } catch (const ProtocolDeadlockError& e) {
    // One cause, one duration: the headline must not nest the stall
    // report's own "no protocol progress" line under a second one.
    const std::string what = e.what();
    const std::string phrase = "no protocol progress for";
    const std::size_t first = what.find(phrase);
    ASSERT_NE(first, std::string::npos) << what;
    EXPECT_EQ(what.find(phrase, first + 1), std::string::npos) << what;
    EXPECT_EQ(what.rfind("watchdog: ", 0), 0u) << what;
  }
}

TEST(ThreadedExecutor, MultiSlotMailboxesAlsoCorrect) {
  CounterApp app(2);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  auto config = app.config(liveness.min_mem());
  config.mailbox_slots = 4;
  ThreadedExecutor exec(app.plan, config, app.make_init(), app.make_body());
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  check_results(app, exec);
}

TEST(ThreadedExecutor, ReadObjectBeforeRunThrows) {
  CounterApp app(2);
  ThreadedExecutor exec(app.plan, app.config(1 << 16), app.make_init(),
                        app.make_body());
  EXPECT_THROW(exec.read_object(0), Error);
}

TEST(ThreadedExecutor, ReadObjectAfterNonExecutableRunThrows) {
  CounterApp app(2);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  ThreadedExecutor exec(app.plan, app.config(liveness.min_mem() - 8),
                        app.make_init(), app.make_body());
  const RunReport r = exec.run();
  ASSERT_FALSE(r.executable);
  EXPECT_THROW(exec.read_object(0), Error);
}

TEST(ThreadedExecutor, OversubscribedProcsStayCorrect) {
  // More worker threads than objects-per-proc niceties or hardware cores:
  // the spin-then-park backoff must keep the protocol live and correct
  // when every thread fights for the same core.
  CounterApp app(8);
  const auto liveness = sched::analyze_liveness(app.graph, app.schedule);
  ThreadedExecutor exec(app.plan, app.config(liveness.min_mem()),
                        app.make_init(), app.make_body());
  const RunReport r = exec.run();
  ASSERT_TRUE(r.executable) << r.failure;
  check_results(app, exec);
}

TEST(ThreadedExecutor, TaskBodyErrorSurfacesAsExecutionFailed) {
  CounterApp app(2);
  ThreadedExecutor exec(
      app.plan, app.config(1 << 16), app.make_init(),
      [](graph::TaskId, ObjectResolver&) { throw std::runtime_error("bug"); });
  try {
    exec.run();
    FAIL() << "expected ExecutionFailedError";
  } catch (const ExecutionFailedError& e) {
    EXPECT_NE(std::string(e.what()).find("bug"), std::string::npos);
    ASSERT_FALSE(e.errors().empty());
  }
}

TEST(ThreadedExecutor, AllConcurrentFailuresAreRecorded) {
  // Two independent producer tasks, one per processor, rendezvous on a
  // barrier and then both throw, so two failures race into the executor:
  // the report and the exception must carry both, not just whichever
  // thread won.
  graph::TaskGraph g;
  const auto d0 = g.add_data("d0", 8, 0);
  const auto d1 = g.add_data("d1", 8, 1);
  const auto t0 = g.add_task("A0", {}, {d0}, 1.0);
  const auto t1 = g.add_task("A1", {}, {d1}, 1.0);
  g.finalize();
  sched::Schedule s;
  s.num_procs = 2;
  s.order = {{t0}, {t1}};
  s.rebuild_index(g.num_tasks());
  const RunPlan plan = build_run_plan(g, s);
  RunConfig config;
  config.capacity_per_proc = 1 << 10;
  config.active_memory = true;
  config.params = machine::MachineParams::cray_t3d(2);
  std::atomic<int> entered{0};
  ThreadedExecutor exec(
      plan, config, {},
      [&](graph::TaskId t, ObjectResolver&) {
        entered.fetch_add(1);
        // Wait (bounded) until the other processor's task has also
        // started, so neither failure can cancel the other pre-emptively.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (entered.load() < 2 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        throw std::runtime_error("task " + g.task(t).name + " failed");
      });
  try {
    exec.run();
    FAIL() << "expected ExecutionFailedError";
  } catch (const ExecutionFailedError& e) {
    EXPECT_GE(e.errors().size(), 2u) << e.what();
    for (const std::string& err : e.errors()) {
      EXPECT_NE(err.find("failed"), std::string::npos);
    }
  }
}

TEST(ThreadedExecutor, WritingNonOwnedObjectThrows) {
  CounterApp app(2);
  std::atomic<bool> violated{false};
  ThreadedExecutor exec(
      app.plan, app.config(1 << 16), app.make_init(),
      [&](graph::TaskId t, ObjectResolver& resolver) {
        // Try to write an object the task's processor does not own.
        const auto& task = app.graph.task(t);
        if (!task.reads.empty() && task.reads.front() != task.writes.front()) {
          try {
            resolver.write(task.reads.front());
          } catch (const Error&) {
            violated = true;
            throw;
          }
        }
        app.make_body()(t, resolver);
      });
  EXPECT_THROW(exec.run(), ExecutionFailedError);
  EXPECT_TRUE(violated.load());
}

// ---- wait-for graph from light snapshots ------------------------------------

/// Two ranks, three objects: p0 runs A (reads c at its initial version 0,
/// writes a) then Ab (reads b at version 1, writes a); p1 runs Wb (writes
/// b). The snapshots below are built by hand, as the monitor reads them
/// from each rank's light state.
struct StallFixture {
  graph::TaskGraph graph;
  graph::DataId a, b, c;
  graph::TaskId task_a, task_wb, task_ab;
  sched::Schedule schedule;
  RunPlan plan;

  StallFixture() {
    a = graph.add_data("a", 8, 0);
    b = graph.add_data("b", 8, 1);
    c = graph.add_data("c", 8, 1);
    task_a = graph.add_task("A", {c}, {a}, 1.0);
    task_wb = graph.add_task("Wb", {}, {b}, 1.0);
    task_ab = graph.add_task("Ab", {b}, {a}, 1.0);
    graph.finalize();
    schedule = sched::schedule_rcp(graph, sched::owner_compute_tasks(graph, 2),
                                   2, machine::MachineParams::cray_t3d(2));
    plan = build_run_plan(graph, schedule);
  }

  ProcSnapshot rec_blocked(ProcId q, std::int32_t pos, graph::DataId d,
                           std::int32_t version) const {
    ProcSnapshot s = snapshot(q, ProcState::kRecBlocked, pos);
    s.current_task = plan.procs[q].order[pos];
    s.waiting_object = d;
    s.waiting_version = version;
    return s;
  }

  ProcSnapshot snapshot(ProcId q, ProcState state, std::int32_t pos) const {
    ProcSnapshot s;
    s.proc = q;
    s.state = state;
    s.pos = pos;
    s.order_size = static_cast<std::int32_t>(plan.procs[q].order.size());
    return s;
  }
};

std::vector<WaitEdge> addr_edges(const std::vector<WaitEdge>& edges) {
  std::vector<WaitEdge> out;
  for (const WaitEdge& e : edges) {
    if (e.kind == WaitEdge::Kind::kAddrPackage) out.push_back(e);
  }
  return out;
}

TEST(StallDiagnosis, VersionZeroWaitOnABlockedOwnerAwaitsTheAddressPackage) {
  const StallFixture f;
  ASSERT_EQ(f.plan.procs[0].order,
            (std::vector<graph::TaskId>{f.task_a, f.task_ab}));
  ASSERT_EQ(f.plan.procs[1].order, (std::vector<graph::TaskId>{f.task_wb}));
  // p0 waits on c's initial content; p1 drains at END. Version 0 has no
  // producer to pass, so its send can only be suspended on p0's package.
  const std::vector<ProcSnapshot> procs = {
      f.rec_blocked(0, 0, f.c, 0),
      f.snapshot(1, ProcState::kEndDrain, 1)};
  const std::vector<WaitEdge> addr = addr_edges(build_wait_edges(f.plan, procs));
  ASSERT_EQ(addr.size(), 1u);
  EXPECT_EQ(addr[0].from, 1);
  EXPECT_EQ(addr[0].to, 0);
  EXPECT_EQ(addr[0].object, f.c);
  const StallReport report = diagnose_stall(f.plan, procs, 0.6, {});
  EXPECT_TRUE(report.genuine_deadlock);
  EXPECT_EQ(report.cycle.size(), 2u);
}

TEST(StallDiagnosis, AddressPackageEdgeNeedsABlockedOwnerPastTheProducers) {
  const StallFixture f;
  // p1 has run Wb, the producer of b's version 1: the edge holds.
  EXPECT_EQ(addr_edges(build_wait_edges(
                           f.plan, {f.rec_blocked(0, 1, f.b, 1),
                                    f.snapshot(1, ProcState::kEndDrain, 1)}))
                .size(),
            1u);
  // p1 has not run Wb yet: its send of version 1 was never due.
  ProcSnapshot map_blocked = f.snapshot(1, ProcState::kMapBlocked, 0);
  map_blocked.mailbox_full_dest = 0;
  const std::vector<WaitEdge> edges =
      build_wait_edges(f.plan, {f.rec_blocked(0, 1, f.b, 1), map_blocked});
  EXPECT_TRUE(addr_edges(edges).empty());
  EXPECT_EQ(edges.size(), 2u);  // the content wait and the mailbox slot
  // An owner inside a task body is presumed to progress, version 0 or not.
  EXPECT_TRUE(addr_edges(build_wait_edges(
                             f.plan, {f.rec_blocked(0, 0, f.c, 0),
                                      f.snapshot(1, ProcState::kExe, 0)}))
                  .empty());
}

}  // namespace
}  // namespace rapid::rt
