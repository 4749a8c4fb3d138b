// RankProtocol on its own: no threads, no transport, no event queue. The
// rank-level decisions both executors share — epoch countdown, routing and
// suspension, package replay suppression, the CQ drain and the counter
// table — checked one at a time on a three-rank plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "rapid/rt/rank_protocol.hpp"

namespace rapid::rt {
namespace {

using graph::TaskGraph;

/// p0 owns a and b: U1 and U2 commute on a (one epoch, version 1), then W
/// writes b. p1 reads a and b, p2 reads a, so every read is a volatile
/// copy that p1's and p2's first MAP allocates.
struct Fixture {
  TaskGraph graph;
  DataId a = 0, b = 0;
  TaskId u1 = 0, u2 = 0, w = 0;
  RunPlan plan;
  RunConfig config;

  Fixture() {
    a = graph.add_data("a", 8, 0);
    b = graph.add_data("b", 16, 0);
    const DataId y1 = graph.add_data("y1", 8, 1);
    const DataId y2 = graph.add_data("y2", 8, 2);
    u1 = graph.add_task("U1", {a}, {a}, 1.0, 5);
    u2 = graph.add_task("U2", {a}, {a}, 1.0, 5);
    w = graph.add_task("W", {}, {b}, 1.0);
    const TaskId r1 = graph.add_task("R1", {a, b}, {y1}, 1.0);
    const TaskId r2 = graph.add_task("R2", {a}, {y2}, 1.0);
    graph.finalize();
    sched::Schedule s;
    s.num_procs = 3;
    s.order = {{u1, u2, w}, {r1}, {r2}};
    s.rebuild_index(graph.num_tasks());
    plan = build_run_plan(graph, s);
    config.capacity_per_proc = 1024;
    config.active_memory = true;
  }

  RankProtocol rank(ProcId q) const {
    return RankProtocol(plan, q, config, /*alignment=*/1);
  }
};

using Batches = std::vector<std::pair<ProcId, std::vector<ContentSend>>>;

/// A transmit callback that records each batch it is handed.
auto recorder(Batches& out) {
  return [&out](ProcId dest, std::span<const ContentSend> batch) {
    out.emplace_back(dest,
                     std::vector<ContentSend>(batch.begin(), batch.end()));
  };
}

std::vector<DataId> objects(const std::vector<ContentSend>& sends) {
  std::vector<DataId> out;
  for (const ContentSend& s : sends) out.push_back(s.object);
  return out;
}

/// Reader q's address package to owner p0, from its first MAP.
AddrPackage first_package(RankProtocol& reader) {
  EXPECT_TRUE(reader.needs_map());
  const MapResult map = reader.perform_map();
  EXPECT_EQ(map.packages.size(), 1u);
  EXPECT_EQ(map.packages.front().first, 0);
  return reader.stamp_package(0, map.packages.front().second);
}

TEST(RankProtocol, EpochCountdownSendsExactlyWhenAVersionCompletes) {
  Fixture f;
  RankProtocol p0 = f.rank(0);
  EXPECT_EQ(p0.current_task(), f.u1);

  // U1 is half of a's first epoch: nothing is complete yet.
  EXPECT_TRUE(p0.finish_task().empty());
  EXPECT_EQ(p0.current_version(f.a), 0);
  EXPECT_EQ(p0.pos(), 1);

  // U2 completes version 1 of a: one send per reader.
  const std::span<const ContentSend> after_u2 = p0.finish_task();
  ASSERT_EQ(after_u2.size(), 2u);
  EXPECT_EQ(after_u2[0].object, f.a);
  EXPECT_EQ(after_u2[0].version, 1);
  EXPECT_EQ(after_u2[0].dest, 1);
  EXPECT_EQ(after_u2[1].dest, 2);
  EXPECT_EQ(p0.current_version(f.a), 1);

  const std::span<const ContentSend> after_w = p0.finish_task();
  ASSERT_EQ(after_w.size(), 1u);
  EXPECT_EQ(after_w[0].object, f.b);
  EXPECT_EQ(after_w[0].dest, 1);
  EXPECT_TRUE(p0.finished());
  EXPECT_EQ(p0.counter(kCtrTasksExecuted), 3);
}

TEST(RankProtocol, RoutingBatchesKnownAddressesAndSuspendsTheRest) {
  Fixture f;
  RankProtocol p0 = f.rank(0);
  RankProtocol p1 = f.rank(1);
  ASSERT_EQ(p0.install_package(first_package(p1), /*verify_crc=*/true),
            RankProtocol::Install::kInstalled);
  EXPECT_NE(p0.addr(f.a, 1), mem::kNullOffset);
  EXPECT_NE(p0.addr(f.b, 1), mem::kNullOffset);
  EXPECT_EQ(p0.addr(f.a, 2), mem::kNullOffset);

  Batches batches;
  const std::vector<ContentSend> sends = {
      {f.a, 1, 1}, {f.a, 1, 2}, {f.b, 1, 1}};
  p0.route(sends, recorder(batches));
  ASSERT_EQ(batches.size(), 1u);  // one batch for p1, in program order
  EXPECT_EQ(batches[0].first, 1);
  EXPECT_EQ(objects(batches[0].second), (std::vector<DataId>{f.a, f.b}));
  EXPECT_EQ(p0.suspended_count(), 1);
  EXPECT_EQ(p0.suspended_to(2), 1);
  EXPECT_EQ(p0.counter(kCtrPutBatches), 1);
  EXPECT_EQ(p0.counter(kCtrSuspendedSends), 1);

  // Nothing new from p2: the drain neither releases nor re-counts.
  EXPECT_FALSE(p0.drain(recorder(batches)));
  EXPECT_EQ(batches.size(), 1u);
  EXPECT_EQ(p0.counter(kCtrSuspendedSends), 1);
}

TEST(RankProtocol, ReplayedPackageIsSuppressedAndCounted) {
  Fixture f;
  RankProtocol p0 = f.rank(0);
  RankProtocol p1 = f.rank(1);
  const AddrPackage pkg = first_package(p1);
  EXPECT_EQ(pkg.seq, 1u);
  EXPECT_EQ(pkg.crc, pkg.checksum());
  EXPECT_EQ(p0.install_package(pkg, true), RankProtocol::Install::kInstalled);
  const std::uint32_t epoch = p0.addr_epoch()[1];
  EXPECT_EQ(p0.install_package(pkg, true), RankProtocol::Install::kDuplicate);
  EXPECT_EQ(p0.counter(kCtrDupSuppressions), 1);
  EXPECT_EQ(p0.addr_epoch()[1], epoch);  // a replay is not new knowledge

  // A corrupted package is rejected before any entry lands.
  RankProtocol p2 = f.rank(2);
  AddrPackage bad = first_package(p2);
  bad.entries.front().second += 8;
  EXPECT_EQ(p0.install_package(bad, true), RankProtocol::Install::kCorrupt);
  EXPECT_EQ(p0.counter(kCtrChecksumRejections), 1);
  EXPECT_EQ(p0.addr(f.a, 2), mem::kNullOffset);
}

TEST(RankProtocol, DrainReleasesArrivedAddressesInProgramOrder) {
  Fixture f;
  RankProtocol p0 = f.rank(0);
  Batches batches;
  const std::vector<ContentSend> sends = {
      {f.a, 1, 1}, {f.a, 1, 2}, {f.b, 1, 1}};
  p0.route(sends, recorder(batches));
  EXPECT_TRUE(batches.empty());
  EXPECT_EQ(p0.suspended_count(), 3);

  // p2's addresses arrive: only p2's send leaves.
  RankProtocol p2 = f.rank(2);
  p0.install_package(first_package(p2), true);
  EXPECT_TRUE(p0.drain(recorder(batches)));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].first, 2);
  EXPECT_EQ(p0.suspended_to(1), 2);

  // p1's package lists b before a; the batch keeps program order (a, b).
  RankProtocol p1 = f.rank(1);
  AddrPackage pkg = first_package(p1);
  std::reverse(pkg.entries.begin(), pkg.entries.end());
  p0.install_package(pkg, /*verify_crc=*/false);
  EXPECT_TRUE(p0.drain(recorder(batches)));
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[1].first, 1);
  EXPECT_EQ(objects(batches[1].second), (std::vector<DataId>{f.a, f.b}));
  EXPECT_EQ(p0.suspended_count(), 0);
  EXPECT_EQ(p0.counter(kCtrPutBatches), 2);
  EXPECT_EQ(p0.counter(kCtrSuspendedSends), 3);
}

TEST(RankProtocol, CounterTableIsWhatAddCountersReports) {
  Fixture f;
  RankProtocol p0 = f.rank(0);
  RankProtocol p1 = f.rank(1);
  p0.install_package(first_package(p1), true);
  p1.package_sent(AddrPackage{1, {{f.a, 0}, {f.b, 8}}});
  // Run p0 to the end, stamping every put the routing hands out.
  while (!p0.finished()) {
    p0.route(p0.finish_task(), [&p0](ProcId, std::span<const ContentSend> b) {
      for (const ContentSend& s : b) p0.stamp_put(s);
    });
  }
  p0.count(kCtrFlagMessages, 2);

  RunReport report;
  report.maps_per_proc.assign(3, 0);
  report.peak_bytes_per_proc.assign(3, 0);
  add_counters(report, 0, p0.counters());
  add_counters(report, 1, p1.counters());
  const CounterTable c0 = p0.counters();
  const CounterTable c1 = p1.counters();
  EXPECT_EQ(report.tasks_executed, c0[kCtrTasksExecuted]);
  EXPECT_EQ(report.tasks_executed, 3);
  EXPECT_EQ(report.content_messages, c0[kCtrContentMessages]);
  EXPECT_EQ(report.content_messages, 2);  // a and b to p1; a to p2 waits
  EXPECT_EQ(report.content_bytes, 8 + 16);
  EXPECT_EQ(report.put_batches, c0[kCtrPutBatches]);
  EXPECT_EQ(report.suspended_sends, 1);
  EXPECT_EQ(report.flag_messages, 2);
  EXPECT_EQ(report.addr_packages, c1[kCtrAddrPackages]);
  EXPECT_EQ(report.addr_entries, 2);
  EXPECT_EQ(report.maps_per_proc[1], 1);
  EXPECT_EQ(report.maps_per_proc[0], 0);
  EXPECT_EQ(report.peak_bytes_per_proc[0], c0[kCtrPeakBytes]);
  EXPECT_EQ(report.peak_bytes_per_proc[0], 8 + 16);
  EXPECT_EQ(report.peak_bytes_per_proc[1], c1[kCtrPeakBytes]);
  EXPECT_EQ(p0.sent_seq(f.a, 1), 1u);
}

}  // namespace
}  // namespace rapid::rt
