#include "rapid/rt/sim_executor.hpp"

#include <deque>
#include <unordered_set>

#include "rapid/machine/event_queue.hpp"
#include "rapid/obs/metrics.hpp"
#include "rapid/obs/trace.hpp"
#include "rapid/rt/rank_protocol.hpp"
#include "rapid/support/str.hpp"
#include "rapid/verify/auditor.hpp"

namespace rapid::rt {

namespace {

using machine::SimTime;

class Simulator {
 public:
  Simulator(const RunPlan& plan, const RunConfig& config, obs::Trace* trace)
      : plan_(plan),
        config_(config),
        params_(config.params),
        trace_(trace),
        tracing_(trace != nullptr && trace->enabled()) {
    procs_.reserve(static_cast<std::size_t>(plan.num_procs));
    for (ProcId q = 0; q < plan.num_procs; ++q) {
      procs_.emplace_back(plan, q, config);
    }
    if (!config.active_memory) {
      share_baseline_addresses(
          plan, [this](ProcId r) -> RankProtocol& { return procs_[r].proto; });
    }
  }

  RunReport run() {
    RunReport report;
    report.maps_per_proc.assign(static_cast<std::size_t>(plan_.num_procs), 0);
    report.peak_bytes_per_proc.assign(
        static_cast<std::size_t>(plan_.num_procs), 0);
    report_ = &report;
    try {
      for (ProcId q = 0; q < plan_.num_procs; ++q) {
        // Baseline heap samples at t=0 (permanents, plus all volatiles in
        // baseline mode).
        record(q, 0.0, obs::EventKind::kHeapSample, 0, 0, 0,
               procs_[q].proto.memory().in_use_bytes());
        record(q, 0.0, obs::EventKind::kHeapPeak, 0, 0, 0,
               procs_[q].proto.memory().peak_bytes());
        dispatch_sends(q, plan_.procs[q].initial_sends);
        queue_.schedule_at(0.0, [this, q] { advance(q); });
      }
      report.parallel_time_us = queue_.run();
      check_all_finished();
    } catch (const NonExecutableError& e) {
      report.executable = false;
      report.failure = e.what();
    }
    for (ProcId q = 0; q < plan_.num_procs; ++q) {
      add_counters(report, q, procs_[q].proto.counters());
    }
    if (tracing_) {
      report.metrics = std::make_shared<obs::MetricsSummary>(
          obs::derive_metrics(*trace_));
    }
    return report;
  }

 private:
  /// What the simulator adds to a rank's protocol core: modeled busy time,
  /// arrivals, and mailbox slot occupancy.
  struct ProcState {
    ProcState(const RunPlan& plan, ProcId q, const RunConfig& config)
        : proto(plan, q, config, /*alignment=*/1),
          received_version(static_cast<std::size_t>(plan.graph->num_data()),
                           -1),
          received_seq(static_cast<std::size_t>(plan.graph->num_data()), 0),
          mailbox_in_flight(static_cast<std::size_t>(plan.num_procs), 0) {}

    RankProtocol proto;
    SimTime busy_until = 0.0;
    bool executing = false;
    bool in_map = false;

    std::vector<std::int32_t> received_version;  // per object, -1 = nothing
    /// Highest put sequence arrived per object: the stamp of kConsume.
    std::vector<std::uint32_t> received_seq;
    std::unordered_set<TaskId> flags_received;
    std::vector<std::int32_t> mailbox_in_flight;  // per source proc
    std::deque<std::pair<ProcId, AddrPackage>> pending_packages;
    // Delivered address packages not yet consumed: RA runs only at state
    // transitions (paper Figure 3(b)), never mid-task — this is where the
    // scheme's real stalls come from.
    std::deque<std::pair<ProcId, AddrPackage>> inbox;
  };

  /// Modeled-time event recording: SimTime is µs, trace timestamps are ns.
  void record(ProcId q, SimTime t, obs::EventKind kind, std::int32_t a = 0,
              std::int32_t b = 0, std::int32_t c = 0,
              std::int64_t bytes = 0, std::uint16_t d = 0) {
    if (!tracing_) return;
    trace_->record_at(q, static_cast<std::int64_t>(t * 1000.0), kind, a, b,
                      c, bytes, d);
  }

  void trace_state(ProcId q, obs::ProtoState s, SimTime t) {
    if (tracing_ && procs_[q].proto.enter(s)) {
      record(q, t, obs::EventKind::kStateEnter, static_cast<std::int32_t>(s));
    }
  }

  bool task_ready(ProcId q, TaskId t) const {
    const ProcState& ps = procs_[q];
    const TaskRuntimePlan& tp = plan_.tasks[t];
    for (const RemoteRead& rr : tp.remote_reads) {
      if (ps.received_version[rr.object] < rr.version) return false;
    }
    for (TaskId u : tp.remote_sync_preds) {
      if (!ps.flags_received.count(u)) return false;
    }
    return true;
  }

  /// The processor's main state machine; re-entered by wake events.
  void advance(ProcId q) {
    ProcState& ps = procs_[q];
    if (ps.executing) return;
    if (queue_.now() < ps.busy_until) {
      queue_.schedule_at(ps.busy_until, [this, q] { advance(q); });
      return;
    }
    service_ra_cq(q);  // RA then CQ, as in every non-EXE state
    if (queue_.now() < ps.busy_until) {  // CQ dispatches charged time
      queue_.schedule_at(ps.busy_until, [this, q] { advance(q); });
      return;
    }
    // MAP state: start one, or continue draining its address packages.
    if (ps.in_map || ps.proto.needs_map()) {
      if (!ps.in_map) {
        const std::int32_t pos = ps.proto.pos();
        trace_state(q, obs::ProtoState::kMap, queue_.now());
        record(q, queue_.now(), obs::EventKind::kMapBegin, pos);
        const MapResult map = ps.proto.perform_map();  // may throw
        const double cost =
            params_.map_base_us +
            params_.map_per_object_us *
                static_cast<double>(map.freed.size() + map.allocated.size());
        report_->map_us += cost;
        ps.busy_until = queue_.now() + cost;
        if (tracing_) {
          for (DataId d : map.freed) {
            record(q, queue_.now(), obs::EventKind::kMapFree, d, 0, 0,
                   plan_.graph->data(d).size_bytes);
          }
          for (DataId d : map.allocated) {
            record(q, queue_.now(), obs::EventKind::kMapAlloc, d, 0, 0,
                   plan_.graph->data(d).size_bytes);
          }
          record(q, ps.busy_until, obs::EventKind::kMapEnd, pos);
          record(q, ps.busy_until, obs::EventKind::kHeapSample, 0, 0, 0,
                 ps.proto.memory().in_use_bytes());
          record(q, ps.busy_until, obs::EventKind::kHeapPeak, 0, 0, 0,
                 ps.proto.memory().peak_bytes());
        }
        for (auto& pkg : map.packages) ps.pending_packages.push_back(pkg);
        ps.in_map = true;
        queue_.schedule_at(ps.busy_until, [this, q] { advance(q); });
        return;
      }
      // Send the assembled packages sequentially; a full destination slot
      // blocks us here (we are woken by the consumption event).
      while (!ps.pending_packages.empty()) {
        const auto& [dest, pkg] = ps.pending_packages.front();
        if (procs_[dest].mailbox_in_flight[q] >=
            config_.mailbox_slots) {
          return;  // destination slots full: blocked in MAP
        }
        send_addr_package(q, dest, pkg);
        ps.pending_packages.pop_front();
      }
      ps.in_map = false;
      if (queue_.now() < ps.busy_until) {
        queue_.schedule_at(ps.busy_until, [this, q] { advance(q); });
        return;
      }
    }
    if (ps.proto.finished()) {  // END: passive, CQ event-driven
      trace_state(q, obs::ProtoState::kEnd, queue_.now());
      return;
    }
    const TaskId t = ps.proto.current_task();
    trace_state(q, obs::ProtoState::kRec, queue_.now());
    if (!task_ready(q, t)) return;  // REC: woken by arrivals
    // EXE.
    if (tracing_) {
      for (const RemoteRead& rr : plan_.tasks[t].remote_reads) {
        record(q, queue_.now(), obs::EventKind::kConsume, rr.object,
               rr.version, plan_.graph->data(rr.object).owner, 0,
               static_cast<std::uint16_t>(ps.received_seq[rr.object]));
      }
    }
    trace_state(q, obs::ProtoState::kExe, queue_.now());
    record(q, queue_.now(), obs::EventKind::kTaskBegin, t);
    ps.executing = true;
    const double task_time = params_.task_time_us(plan_.graph->task(t).flops);
    report_->compute_us += task_time;
    ps.busy_until = queue_.now() + task_time;
    queue_.schedule_at(ps.busy_until, [this, q] { complete_task(q); });
  }

  void complete_task(ProcId q) {
    ProcState& ps = procs_[q];
    const TaskId t = ps.proto.current_task();
    ps.executing = false;
    record(q, queue_.now(), obs::EventKind::kTaskEnd, t);
    trace_state(q, obs::ProtoState::kSnd, queue_.now());
    const TaskRuntimePlan& tp = plan_.tasks[t];
    // SND: completion flags for kept anti/output edges (zero-byte puts into
    // preallocated control space — never need an address).
    for (ProcId dest : tp.flag_dests) {
      ps.busy_until += params_.send_overhead_us(8);
      report_->send_us += params_.send_overhead_us(8);
      ps.proto.count(kCtrFlagMessages);
      record(q, ps.busy_until, obs::EventKind::kFlagSend, t, 0, dest);
      const SimTime arrive = ps.busy_until + params_.rma_latency_us;
      queue_.schedule_at(arrive, [this, dest, t] {
        procs_[dest].flags_received.insert(t);
        wake(dest);
      });
    }
    // Completed versions trigger content sends.
    dispatch_sends(q, ps.proto.finish_task());
    queue_.schedule_at(std::max(queue_.now(), ps.busy_until),
                       [this, q] { advance(q); });
  }

  /// Routes a SND state's sends. With active memory every send first
  /// costs an address-table lookup: each put right before it goes out, each
  /// suspended send after the batches.
  void dispatch_sends(ProcId q, std::span<const ContentSend> sends) {
    RankProtocol& proto = procs_[q].proto;
    const std::int64_t suspended_before = proto.counter(kCtrSuspendedSends);
    proto.route(sends, [this, q](ProcId, std::span<const ContentSend> b) {
      for (const ContentSend& s : b) {
        charge_lookup(q);
        transmit(q, s);
      }
    });
    for (std::int64_t i = suspended_before;
         i < proto.counter(kCtrSuspendedSends); ++i) {
      charge_lookup(q);
    }
  }

  void charge_lookup(ProcId q) {
    if (!config_.active_memory) return;
    ProcState& ps = procs_[q];
    ps.busy_until =
        std::max(queue_.now(), ps.busy_until) + params_.addr_lookup_us;
    report_->map_us += params_.addr_lookup_us;
  }

  void transmit(ProcId q, const ContentSend& s) {
    ProcState& ps = procs_[q];
    const std::int64_t bytes = plan_.graph->data(s.object).size_bytes;
    const std::uint32_t seq = ps.proto.stamp_put(s);
    record(q, std::max(queue_.now(), ps.busy_until), obs::EventKind::kPut,
           s.object, s.version, s.dest, bytes,
           static_cast<std::uint16_t>(seq));
    ps.busy_until =
        std::max(queue_.now(), ps.busy_until) + params_.send_overhead_us(bytes);
    report_->send_us += params_.send_overhead_us(bytes);
    record(q, ps.busy_until, obs::EventKind::kPutPublish, s.object,
           s.version, s.dest, bytes, static_cast<std::uint16_t>(seq));
    const SimTime arrive = ps.busy_until + params_.rma_latency_us;
    queue_.schedule_at(arrive, [this, s, seq] {
      ProcState& to = procs_[s.dest];
      to.received_version[s.object] =
          std::max(to.received_version[s.object], s.version);
      to.received_seq[s.object] = std::max(to.received_seq[s.object], seq);
      wake(s.dest);
    });
  }

  void send_addr_package(ProcId q, ProcId dest, const AddrPackage& unstamped) {
    ProcState& ps = procs_[q];
    const AddrPackage pkg = ps.proto.stamp_package(dest, unstamped);
    ps.proto.package_sent(pkg);
    ++procs_[dest].mailbox_in_flight[q];
    const double pkg_cost =
        params_.rma_overhead_us +
        params_.addr_entry_us * static_cast<double>(pkg.entries.size());
    ps.busy_until = std::max(queue_.now(), ps.busy_until) + pkg_cost;
    report_->map_us += pkg_cost;
    record(q, ps.busy_until, obs::EventKind::kAddrPkgSend,
           static_cast<std::int32_t>(pkg.entries.size()),
           static_cast<std::int32_t>(pkg.seq), dest);
    const SimTime arrive = ps.busy_until + params_.rma_latency_us;
    queue_.schedule_at(arrive, [this, q, dest, pkg] {
      // Delivery into the destination slot; consumption waits for the
      // destination's next RA service round.
      procs_[dest].inbox.emplace_back(q, pkg);
      wake(dest);
    });
  }

  /// RA: absorb delivered packages, free the slots (waking senders blocked
  /// in MAP), then CQ: dispatch suspended sends with now-known addresses.
  void service_ra_cq(ProcId q) {
    ProcState& ps = procs_[q];
    while (!ps.inbox.empty()) {
      const auto [src, pkg] = ps.inbox.front();
      ps.inbox.pop_front();
      ps.proto.install_package(pkg, /*verify_crc=*/false);
      record(q, queue_.now(), obs::EventKind::kAddrPkgInstall,
             static_cast<std::int32_t>(pkg.entries.size()),
             static_cast<std::int32_t>(pkg.seq), pkg.reader);
      --ps.mailbox_in_flight[src];
      ps.busy_until = std::max(queue_.now(), ps.busy_until) + params_.poll_us;
      queue_.schedule_after(params_.poll_us, [this, s = src] { advance(s); });
    }
    ps.proto.drain([this, q](ProcId, std::span<const ContentSend> b) {
      for (const ContentSend& s : b) transmit(q, s);
    });
  }

  /// Arrival-driven wake-up; the poll charge models one RA+CQ round.
  void wake(ProcId q) {
    queue_.schedule_after(params_.poll_us, [this, q] { advance(q); });
  }

  void check_all_finished() const {
    for (ProcId q = 0; q < plan_.num_procs; ++q) {
      const ProcState& ps = procs_[q];
      if (!ps.proto.finished() || ps.proto.suspended_count() > 0 ||
          !ps.pending_packages.empty()) {
        std::string dump;
        for (ProcId r = 0; r < plan_.num_procs; ++r) {
          const ProcState& rs = procs_[r];
          dump += cat("\n  P", r, ": pos ", rs.proto.pos(), "/",
                      plan_.procs[r].order.size(),
                      rs.in_map ? " [in MAP]" : "", ", suspended ",
                      rs.proto.suspended_count(), ", pending packages ",
                      rs.pending_packages.size());
          if (!rs.proto.finished()) {
            dump += cat(", waiting on ",
                        plan_.graph->task(rs.proto.current_task()).name);
          }
        }
        throw ProtocolDeadlockError(
            cat("protocol stopped with unfinished work:", dump));
      }
    }
  }

  const RunPlan& plan_;
  const RunConfig& config_;
  const machine::MachineParams& params_;
  obs::Trace* const trace_;
  const bool tracing_;
  machine::EventQueue queue_;
  std::vector<ProcState> procs_;
  RunReport* report_ = nullptr;
};

}  // namespace

RunReport simulate(const RunPlan& plan, const RunConfig& config,
                   obs::Trace* trace) {
  try {
    if (config.audit) verify::audit_or_throw(plan, config);
    if (trace != nullptr && trace->enabled()) {
      RAPID_CHECK(trace->num_procs() >= plan.num_procs,
                  "the Trace is sized for fewer processors than the plan");
    }
    Simulator sim(plan, config, trace);
    return sim.run();
  } catch (const NonExecutableError& e) {
    RunReport report;
    report.executable = false;
    report.failure = e.what();
    return report;
  }
}

}  // namespace rapid::rt
