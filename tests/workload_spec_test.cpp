// The workload spec grammar (num/shm_workloads.hpp): strict value parsing,
// the size bounds, the matrix/scale keys, and every app the grammar names
// running end to end through one num::App interface. Parse-only cases build
// no executor and start no threads.
#include <gtest/gtest.h>

#include <string>

#include "rapid/num/shm_workloads.hpp"
#include "rapid/rt/map_engine.hpp"
#include "rapid/rt/shm_transport.hpp"
#include "rapid/rt/threaded_executor.hpp"

namespace rapid::num {
namespace {

/// The message of the rapid::Error that parsing `spec` throws.
std::string parse_error(const std::string& spec) {
  try {
    (void)parse_workload_spec(spec);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "no error for " << spec;
  return {};
}

TEST(WorkloadSpec, DefaultsAndKeys) {
  const WorkloadSpec d = parse_workload_spec("cholesky");
  EXPECT_EQ(d.app, "cholesky");
  EXPECT_EQ(d.matrix, "nd");
  EXPECT_EQ(d.grid, 12);
  EXPECT_EQ(d.block, 4);
  EXPECT_EQ(d.procs, 4);
  EXPECT_EQ(d.sched, "rcp");
  EXPECT_FALSE(d.rows.has_value());

  const WorkloadSpec s = parse_workload_spec(
      "lu:matrix=goodwin,scale=0.25,block=6,procs=3,sched=dts");
  EXPECT_EQ(s.matrix, "goodwin");
  EXPECT_DOUBLE_EQ(s.scale, 0.25);
  EXPECT_EQ(s.block, 6);
  EXPECT_EQ(s.procs, 3);
  EXPECT_EQ(s.sched, "dts");
}

TEST(WorkloadSpec, NonNumericAndTrailingGarbageAreErrors) {
  for (const std::string spec :
       {"cholesky:grid=abc", "cholesky:grid=12x", "grid:rows=",
        "lu:procs=4.0", "grid:delay=1e3", "cholesky:scale=0.5x",
        "cholesky:scale=nan"}) {
    const std::string what = parse_error(spec);
    EXPECT_NE(what.find(spec), std::string::npos) << what;
  }
  EXPECT_NE(parse_error("cholesky:grid=abc").find("expects an integer"),
            std::string::npos);
}

TEST(WorkloadSpec, OutOfRangeValuesAreErrors) {
  for (const std::string spec :
       {"cholesky:grid=99999999999999999999", "grid:procs=0",
        "grid:rows=-3", "grid:delay=-1", "cholesky:grid=1",
        "cholesky:scale=0", "cholesky:scale=1.5"}) {
    EXPECT_NE(parse_error(spec).find(spec), std::string::npos) << spec;
  }
}

TEST(WorkloadSpec, SizeKeysAreBoundedAtParseTime) {
  // Parse only: nothing here builds a plan or starts a rank thread.
  const std::string top = std::to_string(kMaxSpecProcs);
  EXPECT_EQ(parse_workload_spec("grid:procs=" + top).procs, kMaxSpecProcs);
  const std::string over = std::to_string(kMaxSpecProcs + 1);
  EXPECT_NE(parse_error("grid:procs=" + over).find("outside"),
            std::string::npos);
  const std::string big = std::to_string(kMaxSpecExtent + 1);
  for (const std::string key : {"grid", "rows", "cols"}) {
    EXPECT_NE(parse_error("cholesky:" + key + "=" + big).find("outside"),
              std::string::npos)
        << key;
  }
  // The largest values tests, benches and CI name today stay legal.
  EXPECT_GE(kMaxSpecProcs, 32);
  EXPECT_GE(kMaxSpecExtent, 24);
}

TEST(WorkloadSpec, UnknownNamesAreErrors) {
  EXPECT_THROW(parse_workload_spec("cholesky:color=blue"), Error);
  EXPECT_THROW(parse_workload_spec("cholesky:sched=fifo"), Error);
  EXPECT_THROW(parse_workload_spec("cholesky:grid"), Error);
  EXPECT_THROW(build_shm_workload("nosuch:procs=2"), Error);
  EXPECT_THROW(build_shm_workload("cholesky:matrix=nosuch"), Error);
  // Cholesky and the triangular solve need an SPD matrix.
  EXPECT_THROW(build_shm_workload("cholesky:matrix=goodwin,scale=0.1"),
               Error);
  EXPECT_THROW(build_shm_workload("trisolve:matrix=goodwin,scale=0.1"),
               Error);
}

TEST(WorkloadSpec, NamedMatricesBuildAtScale) {
  const auto a = build_shm_workload("lu:matrix=goodwin,scale=0.1,block=8");
  const auto b = build_shm_workload("lu:matrix=goodwin,scale=0.2,block=8");
  EXPECT_LT(a->graph().num_tasks(), b->graph().num_tasks());
  for (const std::string m : {"bcsstk15", "bcsstk24", "bcsstk33"}) {
    const auto w = build_shm_workload("cholesky:matrix=" + m +
                                      ",scale=0.1,block=8,procs=2");
    EXPECT_GT(w->graph().num_tasks(), 0) << m;
  }
  // The default matrix ignores scale; spec equality still implies plan
  // equality.
  const auto plain = build_shm_workload("cholesky:grid=8");
  const auto named = build_shm_workload("cholesky:grid=8,matrix=nd");
  EXPECT_EQ(rt::plan_fingerprint(plain->plan),
            rt::plan_fingerprint(named->plan));
}

TEST(WorkloadSpec, EveryAppRunsThroughTheAppInterface) {
  for (const std::string spec :
       {"cholesky:grid=6,block=3,procs=2", "lu:grid=6,block=3,procs=2",
        "trisolve:grid=6,block=3,procs=2", "grid:rows=4,cols=4,procs=2",
        "nbody:rows=3,cols=3,procs=2"}) {
    const auto w = build_shm_workload(spec);
    rt::RunConfig config;
    config.capacity_per_proc = w->tot_mem;
    rt::ThreadedExecutor exec(w->plan, config, w->app->make_init(),
                              w->app->make_body());
    const rt::RunReport report = exec.run();
    ASSERT_TRUE(report.executable) << spec << ": " << report.failure;
    const double residual = w->app->residual(exec);
    EXPECT_TRUE(w->app->residual_ok(residual))
        << spec << " residual " << residual;
    // Only the integer grid app demands an exact zero.
    EXPECT_EQ(w->app->residual_ok(1e-12), spec.rfind("grid", 0) != 0) << spec;
  }
}

TEST(ReplayMaps, ReportsPeakMapsAndStructuredFailures) {
  const auto w = build_shm_workload("grid:rows=8,cols=8,procs=4");
  const rt::MapReplay ok = rt::replay_maps(w->plan, 0, {w->tot_mem});
  ASSERT_TRUE(ok.ok());
  ASSERT_FALSE(ok.maps.empty());
  EXPECT_EQ(ok.maps.front().pos, 0);
  EXPECT_GE(ok.peak_bytes, ok.maps.back().in_use_after);

  const rt::MapReplay perm = rt::replay_maps(w->plan, 0, {1});
  EXPECT_EQ(perm.failure.kind, rt::ReplayFailureKind::kPerm);
  EXPECT_EQ(perm.failure.needed_bytes, w->plan.procs[0].permanent_bytes);
  EXPECT_NE(perm.failure.message.find("processor 0"), std::string::npos);

  const std::int64_t perm_bytes = w->plan.procs[0].permanent_bytes;
  const rt::MapReplay tot = rt::replay_maps(
      w->plan, 0, {perm_bytes, 1, mem::AllocPolicy::kFirstFit, false, false});
  EXPECT_EQ(tot.failure.kind, rt::ReplayFailureKind::kTot);
  EXPECT_GT(tot.failure.needed_bytes, perm_bytes);
  EXPECT_TRUE(tot.maps.empty());

  const rt::MapReplay map = rt::replay_maps(w->plan, 0, {perm_bytes});
  EXPECT_EQ(map.failure.kind, rt::ReplayFailureKind::kMap);
  ASSERT_GE(map.failure.pos, 0);
  EXPECT_EQ(map.failure.task, w->plan.procs[0].order[map.failure.pos]);
  EXPECT_EQ(map.failure.free_bytes, 0);
  EXPECT_GT(map.failure.needed_bytes, map.failure.free_bytes);
  EXPECT_NE(map.failure.worst, graph::kInvalidData);
}

}  // namespace
}  // namespace rapid::num
