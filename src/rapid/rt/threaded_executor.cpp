#include "rapid/rt/threaded_executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include <signal.h>
#include <unistd.h>

#include "rapid/num/dispatch.hpp"
#include "rapid/obs/metrics.hpp"
#include "rapid/obs/trace.hpp"
#include "rapid/obs/trace_io.hpp"
#include "rapid/rt/proc_failure.hpp"
#include "rapid/rt/rank_protocol.hpp"
#include "rapid/rt/shm_transport.hpp"
#include "rapid/rt/stall.hpp"
#include "rapid/rt/transport.hpp"
#include "rapid/support/backoff.hpp"
#include "rapid/support/checksum.hpp"
#include "rapid/support/log.hpp"
#include "rapid/support/stopwatch.hpp"
#include "rapid/support/str.hpp"
#include "rapid/verify/auditor.hpp"

namespace rapid::rt {

namespace {

void sleep_us(std::int64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

/// After this long without progress the monitor builds the wait-for graph
/// from every rank's light state: a genuine cycle fails the run at once,
/// anything else is slow progress and the run resumes.
constexpr double kStallCheckSeconds = 0.5;
/// Blocked-state backoff: iterations of cheap spinning (cpu_relax, then
/// yield) before a blocked rank parks on the progress doorbell.
constexpr std::int32_t kSpinIters = 64;
/// Park timeout (µs): a doorbell ring normally ends a park; the timeout
/// bounds how stale a parked rank can go.
constexpr std::int64_t kParkTimeoutUs = 2000;

}  // namespace

struct ThreadedExecutor::Impl {
  const RunPlan& plan;
  const RunConfig config;  // by value: callers often pass temporaries
  ObjectInit init;
  TaskBody body;
  ThreadedOptions options;
  /// Copied out of options so every hook site is one `if (faults_on)`
  /// branch on a const member; enabled() false means zero injected work.
  const FaultPlan faults;
  const bool faults_on;
  /// Induced (non-probabilistic) failures only fire on run attempts within
  /// FaultPlan::induced_fault_runs — run_with_recovery's restarted attempts
  /// then run clean.
  const bool induced_on;
  const bool checksum_on;
  const bool recovery_on;
  /// Event tracer. Same pattern as faults_on: `tracing` is a const member
  /// so every record site is one predictable branch when tracing is off.
  obs::Trace* const trace;
  const bool tracing;
  const std::int64_t effective_park_us;
  /// Watchdog budget scaled by the retry policy: an in-flight recovery
  /// (bounded by RetryPolicy::total_wait_us per wait) must never be
  /// misdiagnosed as a watchdog-level deadlock. All monitor and retry
  /// deadlines are steady_clock-based (Stopwatch and WaitTracker), so
  /// wall-clock jumps can neither starve nor spuriously fire them.
  const double effective_watchdog;

  /// Identity + deadline of the wait a processor is currently blocked in
  /// (worker-private). Deadlines are monotonic (now_ns) and grow per the
  /// RetryPolicy; identity changes reset the attempt count (a changed gate
  /// means the previous one was satisfied — progress, not a retry).
  struct WaitTracker {
    bool active = false;
    bool exhausted = false;
    DataId object = graph::kInvalidData;
    std::int32_t version = -1;
    TaskId flag_task = graph::kInvalidTask;
    std::int32_t attempts = 0;
    std::int64_t started_ns = 0;
    std::int64_t deadline_ns = 0;
  };

  /// The first unmet gate of a task, as seen by its processor right now.
  struct GateRef {
    DataId object = graph::kInvalidData;
    std::int32_t version = -1;
    std::int32_t have = -1;
    TaskId flag_task = graph::kInvalidTask;
    /// The version arrived but its checksum was rejected: the wait is for a
    /// resend, and the first re-request goes out without waiting for the
    /// deadline.
    bool rejected = false;
  };

  /// A put that transmit_batch has staged (payload copied, checksummed,
  /// fault hooks applied) but not yet published. The publication pass
  /// replays these in order.
  struct StagedPut {
    DataId object = graph::kInvalidData;
    std::int32_t version = -1;
    std::int64_t size = 0;
    std::uint32_t crc = 0;
    std::uint32_t attempt = 0;
  };

  /// Per-processor private state, touched only by its own thread: the
  /// rank's protocol core plus what only this executor has (verification,
  /// recovery, waits, faults).
  struct Private {
    std::optional<RankProtocol> proto;
    /// The staged-but-not-yet-published puts of the batch in flight.
    std::vector<StagedPut> staged;
    /// Reader-side verification state, per object: the put seq whose
    /// payload last passed (verified) or failed (rejected) its CRC. Gating
    /// recomputation on the seq makes verification race-free against
    /// resends: bytes are only read at a seq the owner has fully published,
    /// and never re-read at a seq already rejected (the owner's next
    /// retransmit bumps the seq past it). Reset by the MAP free hook when
    /// the object's region is recycled.
    std::vector<std::uint32_t> verified_seq;
    std::vector<std::uint32_t> rejected_seq;
    /// A fresh checksum rejection fast-tracks exactly one re-request.
    bool fast_nack = false;
    /// Bounded re-request bookkeeping.
    WaitTracker wait;
    bool counted_quiescent = false;  // END: this rank noted quiescence
    std::int64_t addr_pkgs_sent = 0;  // deterministic per-proc ordinal
    /// Process-kill fault bookkeeping: deterministic per-(rank, phase)
    /// entry ordinals (indexed by FaultPlan::kKillRec..kKillMap), and the
    /// last position whose REC entry was counted (REC counts positions,
    /// not poll iterations).
    std::int64_t kill_ordinals[4] = {0, 0, 0, 0};
    std::int32_t last_rec_pos = -1;
  };

  std::vector<Private> priv;

  /// The one-sided transport behind the data plane: windows, mailboxes,
  /// NACK channels, doorbells, the abort/quiescence/failure control plane,
  /// and the light per-processor status (plus leases, cross-process).
  /// `win` caches the raw window views so the hot path stays devirtualized;
  /// `bell`/`control_bell` alias the transport's bells. owned_tp holds the
  /// in-process backend; shm runs point tp into the session's transport.
  std::unique_ptr<Transport> owned_tp;
  Transport* tp = nullptr;
  std::vector<WindowView> win;
  Bell* bell = nullptr;
  Bell* control_bell = nullptr;
  /// Coordinator-side shm session (segment + worker processes); kept on
  /// the Impl so read_object can still reach the owner heaps after run().
  std::unique_ptr<ShmSession> session;

  std::shared_ptr<const StallReport> stall_report;  // set by the monitor
  bool completed = false;  // run() finished cleanly; gates read_object()
  RunReport last_report;   // filled by run() even on the throwing paths

  /// Cooperative cancellation. cancel() only sets the flag (it may race
  /// run() setup, so it must not touch the transport); the monitor polls it
  /// every heartbeat and performs the actual abort from the thread that
  /// owns the control-plane pointers.
  std::atomic<bool> cancel_requested{false};
  std::mutex cancel_m;
  std::string cancel_reason;
  /// Wall clock of the current attempt, reset at run() entry; the
  /// attempt_deadline_us budget is measured against it.
  Stopwatch since_run_start;

  Impl(const RunPlan& plan_, const RunConfig& config_, ObjectInit init_,
       TaskBody body_, ThreadedOptions options_)
      : plan(plan_),
        config(config_),
        init(std::move(init_)),
        body(std::move(body_)),
        options(options_),
        faults(options_.faults),
        faults_on(options_.faults.enabled()),
        induced_on(faults_on &&
                   options_.run_attempt <= options_.faults.induced_fault_runs),
        checksum_on(options_.checksum),
        recovery_on(options_.retry.enabled()),
        trace(options_.trace),
        tracing(options_.trace != nullptr && options_.trace->enabled()),
        effective_park_us(faults_on && options_.faults.force_park_timeout
                              ? options_.faults.forced_park_timeout_us
                              : kParkTimeoutUs),
        effective_watchdog(
            recovery_on
                ? std::max(options_.watchdog_seconds,
                           4.0 * static_cast<double>(
                                     options_.retry.total_wait_us()) /
                               1e6)
                : options_.watchdog_seconds) {}

  void fail(ProcId q, const std::string& what, FailureKind kind) {
    tp->fail_stop(q, kind, what);
  }

  void bump_progress() { bell->ring(); }

  /// Rank q's recovery totals so far, for an external sampler (recovery
  /// paths only; a no-op in-process).
  void publish_recovery_counters(ProcId q) {
    const RankProtocol& proto = *priv[q].proto;
    tp->publish_recovery(q, proto.counter(kCtrNacksSent),
                         proto.counter(kCtrResends) +
                             proto.counter(kCtrFlagResends));
  }

  /// Publishes q's light protocol state (and, cross-process, refreshes its
  /// heartbeat lease).
  void set_state(ProcId q, ProcState s) {
    tp->beat(q, static_cast<std::uint8_t>(s), priv[q].proto->pos());
  }

  /// Process-kill fault hook: rank q SIGKILLs itself at its nth entry into
  /// `phase`. Real process death only — the in-process backend ignores the
  /// plan (a thread cannot fail independently of the run).
  void maybe_kill(ProcId q, std::int32_t phase) {
    Private& me = priv[q];
    const std::int64_t ordinal = ++me.kill_ordinals[phase];
    if (induced_on && tp->cross_process() &&
        faults.should_kill(q, phase, ordinal)) {
      std::raise(SIGKILL);
    }
  }

  /// Record entry into one of the paper's five protocol states
  /// (change-only: re-entering the current state records nothing).
  void trace_state(ProcId q, obs::ProtoState s) {
    if (tracing && priv[q].proto->enter(s)) {
      trace->record(q, obs::EventKind::kStateEnter,
                    static_cast<std::int32_t>(s));
    }
  }

  /// backoff.pause() with park accounting into the trace: one kPark event
  /// per pause that actually parked (spin-only pauses record nothing).
  void traced_pause(ProcId q, Backoff& backoff, std::uint64_t seen) {
    if (!tracing) {
      backoff.pause(seen);
      return;
    }
    const std::int64_t before = backoff.parks();
    backoff.pause(seen);
    const std::int64_t parked = backoff.parks() - before;
    if (parked > 0) {
      trace->record(q, obs::EventKind::kPark,
                    static_cast<std::int32_t>(parked));
    }
  }

  // ---- owner-side sending ----------------------------------------------

  /// The coalesced RMA put of one batch RankProtocol routed to `dest`: one
  /// staging pass, then one publication pass and a single doorbell ring.
  /// Per put: payload memcpy into the destination heap with no lock held,
  /// then a release publish crc (relaxed) → version (release) → seq
  /// (release) — readiness gates on version, trust on seq, and an acquire
  /// load of seq makes payload, crc and version visible. Publication
  /// replays the staging order, and the owner's thread is the only writer
  /// of the version/crc/seq slots. The put-delay fault stretches the window
  /// between copy and publication (bytes written, visibility withheld) for
  /// the whole batch; the corruption fault flips a destination byte inside
  /// it, which the checksum must catch before the content is trusted.
  void transmit_batch(ProcId q, ProcId dest,
                      std::span<const ContentSend> sends) {
    Private& me = priv[q];
    RankProtocol& proto = *me.proto;
    const WindowView& dst = win[dest];
    const WindowView& mine = win[q];
    auto& staged = me.staged;
    staged.clear();
    std::int64_t delay_us = 0;
    for (const ContentSend& s : sends) {
      RAPID_CHECK(s.dest == dest, "batched send to the wrong destination");
      const std::uint32_t attempt = proto.stamp_put(s);
      const mem::Offset dst_off = proto.addr(s.object, dest);
      const std::int64_t size = plan.graph->data(s.object).size_bytes;
      const mem::Offset src_off = proto.memory().offset_of(s.object);
      if (tracing) {
        trace->record(q, obs::EventKind::kPut, s.object, s.version, dest,
                      size, static_cast<std::uint16_t>(attempt));
      }
      if (size > 0) {
        tp->put(dst, dst_off, mine.heap + src_off, size);
      }
      std::uint32_t crc = 0;
      if (checksum_on) {
        // Digest of the source bytes (stable: the owner is the only writer
        // of its own object and is not inside a task body here).
        crc = crc32c({mine.heap + src_off, static_cast<std::size_t>(size)});
      }
      if (faults_on && size > 0 &&
          faults.corrupt_put(s.object, s.version, dest, attempt)) {
        const auto [site, mask] = faults.corrupt_site(s.object, s.version,
                                                      dest);
        dst.heap[static_cast<std::ptrdiff_t>(dst_off) +
                 static_cast<std::ptrdiff_t>(
                     site % static_cast<std::uint64_t>(size))] ^=
            static_cast<std::byte>(mask);
      }
      if (faults_on) {
        delay_us = std::max(delay_us,
                            faults.put_delay_us(s.object, s.version, dest));
      }
      staged.push_back({s.object, s.version, size, crc, attempt});
    }
    // One delay for the whole batch, stretched to its slowest put: every
    // staged payload stays unpublished through the window, which is exactly
    // the copied-but-invisible state the fault models.
    if (delay_us > 0) sleep_us(delay_us);
    for (const StagedPut& p : staged) {
      // The one publication-order contract (crc relaxed -> version
      // release max-merge -> seq release), defined once on the Transport.
      tp->publish(dst, p.object, p.version, checksum_on, p.crc, p.attempt);
      if (p.attempt > 1) {
        proto.count(kCtrResends);
        publish_recovery_counters(q);
      }
      if (tracing) {
        trace->record(q, p.attempt > 1 ? obs::EventKind::kResend
                                       : obs::EventKind::kPutPublish,
                      p.object, p.version, dest, p.size,
                      static_cast<std::uint16_t>(p.attempt));
      }
    }
    bump_progress();
  }

  /// The callback RankProtocol hands each routed or drained batch to.
  auto transmitter(ProcId q) {
    return [this, q](ProcId dest, std::span<const ContentSend> batch) {
      transmit_batch(q, dest, batch);
    };
  }

  void send_flag(ProcId q, ProcId dest, TaskId t) {
    tp->raise_flag(win[dest], t);
    priv[q].proto->count(kCtrFlagMessages);
    if (tracing) trace->record(q, obs::EventKind::kFlagSend, t, 0, dest);
    bump_progress();
  }

  // ---- re-request (NACK) recovery --------------------------------------

  /// Waiter side: ask the owner to (re)send the message the current wait
  /// is missing. For content waits, the request carries the waiter's own
  /// buffer offset — so a lost address package is healed by the re-request
  /// itself — and the last put sequence the waiter *examined* (verified or
  /// rejected), NOT a fresh load of put_seq: a newer, not-yet-examined put
  /// means the wait is about to resolve, and advertising its sequence
  /// would let the owner retransmit concurrently with this reader's first
  /// CRC pass over those very bytes. With the examined sequence, a resend
  /// can only target a sequence whose bytes this reader is done reading
  /// (rejected copies are never re-read; verified ones are gated by the
  /// WAR anti-edges), which is what makes the resend memcpy race-free.
  void send_nack(ProcId q, const GateRef& gate) {
    Private& me = priv[q];
    NackRequest n;
    n.requester = q;
    ProcId owner;
    if (gate.object != graph::kInvalidData) {
      owner = plan.graph->data(gate.object).owner;
      n.object = gate.object;
      n.version = gate.version;
      n.reader_offset = me.proto->memory().offset_of(gate.object);
      n.observed_seq = std::max(me.verified_seq[gate.object],
                                me.rejected_seq[gate.object]);
    } else {
      owner = plan.schedule.proc_of_task[gate.flag_task];
      n.flag_task = gate.flag_task;
    }
    me.proto->count(kCtrNacksSent);
    publish_recovery_counters(q);
    if (tracing) {
      if (gate.object != graph::kInvalidData) {
        trace->record(q, obs::EventKind::kNack, gate.object, gate.version,
                      owner, 0, static_cast<std::uint16_t>(n.observed_seq));
      } else {
        trace->record(q, obs::EventKind::kNack, -1,
                      static_cast<std::int32_t>(gate.flag_task), owner);
      }
    }
    if (induced_on && faults.drop_nacks) return;  // lost recovery traffic
    tp->push_nack(owner, n);
    bump_progress();  // wake the owner if parked
  }

  /// Owner side: service one re-request idempotently. Replay safety
  /// (docs/PROTOCOL.md): the version/crc/seq slots are single-writer, an
  /// object has one lifetime window per reader (so the slot address is
  /// stable), and a resend is issued only when the request's observed_seq
  /// equals this owner's sent_seq — at most one retransmit per observed
  /// state, and never one that could race the reader's verification of a
  /// newer put. A waiter still needing version v implies (by the WAR
  /// anti-edges of a dependence-complete plan) the owner's current_version
  /// is still v, so retransmitting current content is consistent.
  bool service_nack(ProcId q, const NackRequest& n) {
    RankProtocol& proto = *priv[q].proto;
    if (n.flag_task != graph::kInvalidTask) {
      // Flag stores are idempotent; resend iff the task completed here.
      if (plan.schedule.pos_of_task[n.flag_task] < proto.pos()) {
        send_flag(q, n.requester, n.flag_task);
        proto.count(kCtrFlagResends);
        publish_recovery_counters(q);
        return true;
      }
      return false;  // not yet complete: normal completion will deliver it
    }
    const DataId d = n.object;
    // A lost address package is healed by the re-request (the waiter
    // always knows its own buffer — Fact I); the CQ drain after this one
    // dispatches the suspended send.
    const bool installed = proto.learn_addr(d, n.requester, n.reader_offset);
    if (proto.current_version(d) < n.version) {
      // The epoch producing the needed version has not completed here yet;
      // its completion will send normally. Nothing to resend.
      return installed;
    }
    if (proto.current_version(d) > n.version) {
      // Stale re-request: the waiter was already satisfied (its NACK raced
      // the delivery). WAR anti-edges forbid this while the wait is real.
      proto.count(kCtrDupSuppressions);
      return installed;
    }
    if (const auto s = proto.take_suspended(d, n.version, n.requester)) {
      // The original send never left: it was suspended waiting for the
      // very address this re-request carried (or that arrived late).
      // Dispatch it here, out of the queue, so neither a second queued NACK
      // nor the CQ drain can transmit it again — a double dispatch would
      // memcpy over bytes the waiter may already be CRC-verifying.
      proto.route({&*s, 1}, transmitter(q));
      return true;
    }
    if (installed) return true;  // nothing suspended: completion will send
    if (proto.sent_seq(d, n.requester) != n.observed_seq) {
      // A newer put than the waiter observed is already published (the
      // NACK raced it): replaying now could race the waiter's verification
      // of that put. Suppress — the waiter re-checks before re-requesting.
      proto.count(kCtrDupSuppressions);
      return installed;
    }
    const ContentSend resend{d, n.version, n.requester};
    proto.route({&resend, 1}, transmitter(q));
    return true;
  }

  /// Tracks the wait a blocked processor is in; sends a re-request when the
  /// wait's steady-clock deadline expires, and marks the wait exhausted
  /// when attempts run out. The caller publishes the wait with beat_wait.
  /// A changed gate means the previous one was satisfied, so it starts a
  /// new episode; an exhausted wait that resolves after all (a slow owner,
  /// not a lost message) ends its episode the same way.
  void note_blocked_wait(ProcId q, const GateRef& gate) {
    Private& me = priv[q];
    WaitTracker& w = me.wait;
    const std::int64_t now = now_ns();
    if (!w.active || w.object != gate.object || w.version != gate.version ||
        w.flag_task != gate.flag_task) {
      w = {.active = true,
           .object = gate.object,
           .version = gate.version,
           .flag_task = gate.flag_task,
           .started_ns = now,
           .deadline_ns = sat_add_i64(
               now, sat_mul_i64(options.retry.delay_us(1), 1000))};
    }
    if (w.exhausted) return;
    const bool fast = gate.rejected && me.fast_nack;
    if (!fast && now < w.deadline_ns) return;
    me.fast_nack = false;
    if (w.attempts >= options.retry.max_attempts) {
      w.exhausted = true;
      publish_wait(q, gate);
      control_bell->ring();  // the monitor decides whether to escalate
      return;
    }
    ++w.attempts;
    w.deadline_ns = sat_add_i64(
        now, sat_mul_i64(options.retry.delay_us(w.attempts + 1), 1000));
    send_nack(q, gate);
  }

  /// Publishes the REC wait q is blocked in, with its re-request episode,
  /// to the transport's light state: the monitor's view of this rank.
  void publish_wait(ProcId q, const GateRef& gate) {
    const WaitTracker& w = priv[q].wait;
    tp->beat_wait(q, gate.object, gate.version, gate.flag_task,
                  graph::kInvalidProc, w.attempts, w.exhausted, w.started_ns);
  }

  // ---- RA / CQ -----------------------------------------------------------

  /// RA: consume address packages from my mailbox slots (suppressing
  /// replays by per-source sequence and rejecting corrupted packages before
  /// installing any entry), then drain re-requests, then CQ: dispatch
  /// suspended sends whose addresses became known. Returns whether any
  /// package was consumed, request serviced, or send dispatched (the
  /// caller's backoff resets on progress).
  bool service_ra_cq(ProcId q) {
    RankProtocol& proto = *priv[q].proto;
    bool progressed = false;
    if (tp->addr_packages_pending(q)) {
      std::vector<AddrPackage> consumed;
      tp->drain_addr_packages(q, &consumed);
      for (const AddrPackage& pkg : consumed) {
        const RankProtocol::Install got =
            proto.install_package(pkg, checksum_on);
        if (got == RankProtocol::Install::kDuplicate) continue;
        if (got == RankProtocol::Install::kCorrupt) {
          if (!recovery_on) {
            fail(q,
                 cat("integrity: address package from p", pkg.reader, " to p",
                     q, " failed its checksum"),
                 FailureKind::kIntegrity);
            return progressed;
          }
          continue;
        }
        if (tracing) {
          trace->record(q, obs::EventKind::kAddrPkgInstall,
                        static_cast<std::int32_t>(pkg.entries.size()),
                        static_cast<std::int32_t>(pkg.seq), pkg.reader);
        }
        progressed = true;
        bump_progress();
      }
    }
    if (recovery_on && tp->nacks_pending(q)) {
      std::vector<NackRequest> requests;
      tp->drain_nacks(q, &requests);
      for (const NackRequest& n : requests) {
        if (service_nack(q, n)) progressed = true;
      }
    }
    if (proto.drain(transmitter(q))) progressed = true;
    return progressed;
  }

  /// Blocking send of one address package (MAP state): spins then parks on
  /// the doorbell while the destination slot is full, servicing RA/CQ like
  /// the paper requires. The package is stamped with its per-(sender, dest)
  /// sequence number and CRC at send time. Fault hooks: the package may be
  /// delayed (reordering delivery relative to other sources), dropped
  /// outright — the induced deadlock the stall diagnostics must explain and
  /// the re-request recovery must heal — or duplicated (delivered twice
  /// with the same sequence number, bypassing the slot bound, which the
  /// receiver must suppress).
  bool send_addr_package_blocking(ProcId q, ProcId dest,
                                  const AddrPackage& pkg) {
    Private& me = priv[q];
    std::int64_t ordinal = 0;
    if (faults_on) {
      ordinal = ++me.addr_pkgs_sent;
      if (induced_on && faults.drop_addr_src == q &&
          faults.drop_addr_nth == ordinal) {
        return true;  // swallowed: a lost control message
      }
      const std::int64_t delay = faults.addr_delay_us(q, dest, ordinal);
      if (delay > 0) sleep_us(delay);
    }
    const AddrPackage stamped = me.proto->stamp_package(dest, pkg);
    // Network-level duplication fault: same sequence number, past the slot
    // bound (the bound is a protocol courtesy the fault deliberately
    // violates); the receiver must suppress the replay.
    std::int32_t copies = 1;
    if (faults_on && faults.dup_addr_package(q, dest, ordinal)) copies = 2;
    Backoff backoff(*bell, kSpinIters, effective_park_us);
    while (!tp->aborted()) {
      const std::uint64_t seen = bell->value();
      if (tp->try_send_addr_package(q, dest, stamped, config.mailbox_slots,
                                    copies)) {
        me.proto->package_sent(stamped);
        if (tracing) {
          trace->record(q, obs::EventKind::kAddrPkgSend,
                        static_cast<std::int32_t>(stamped.entries.size()),
                        static_cast<std::int32_t>(stamped.seq), dest);
        }
        bump_progress();
        return true;
      }
      if (service_ra_cq(q)) {
        backoff.reset();
      } else {
        // Publish the blocked-on-mailbox state (with the full destination)
        // before parking: the monitor's wait-for edge, and what names this
        // wait if the destination's process dies.
        set_state(q, ProcState::kMapBlocked);
        tp->beat_wait(q, graph::kInvalidData, -1, graph::kInvalidTask, dest,
                      0, false, 0);
        traced_pause(q, backoff, seen);
      }
    }
    return false;
  }

  // ---- readiness ---------------------------------------------------------

  /// Reader-side trust in the last put of `d` (readiness already checked):
  /// recompute the CRC only at a put sequence not yet verified or rejected.
  /// Gating on the seq is what makes verification race-free against owner
  /// resends — bytes are only read at a fully published seq, and a NACK for
  /// a rejected seq reaches the owner (through the inbox mutex) strictly
  /// after the reader's byte reads, ordering any retransmit's memcpy after
  /// them.
  bool content_trusted(ProcId q, DataId d, GateRef* gate) {
    Private& me = priv[q];
    const WindowView& mine = win[static_cast<std::size_t>(q)];
    const std::uint32_t seq = mine.put_seq[d].load(std::memory_order_acquire);
    if (seq == 0) return false;  // version visible, seq racing: retry soon
    if (me.verified_seq[d] == seq) return true;
    if (me.rejected_seq[d] == seq) {
      if (gate) gate->rejected = true;
      return false;  // known-bad copy: wait for the resend
    }
    const std::int64_t size = plan.graph->data(d).size_bytes;
    const mem::Offset off = me.proto->memory().offset_of(d);
    const std::uint32_t expect =
        mine.received_crc[d].load(std::memory_order_relaxed);
    const std::uint32_t actual =
        crc32c({mine.heap + off, static_cast<std::size_t>(size)});
    if (actual == expect) {
      me.verified_seq[d] = seq;
      return true;
    }
    me.rejected_seq[d] = seq;
    me.fast_nack = true;  // re-request immediately, not at the deadline
    me.proto->count(kCtrChecksumRejections);
    if (!recovery_on) {
      fail(q,
           cat("integrity: checksum mismatch on object ",
               plan.graph->data(d).name, " (put seq ", seq,
               ") received at processor ", q),
           FailureKind::kIntegrity);
    }
    if (gate) gate->rejected = true;
    return false;
  }

  /// Lock-free: acquire loads pair with the senders' release stores, so a
  /// `true` result makes the payload bytes (and the flagged predecessors'
  /// effects) visible to the task body — and, with checksums on, that every
  /// remote input's payload digest matched. On false, `gate` (if given) is
  /// filled with the first unmet gate for wait tracking and diagnosis.
  bool task_ready(ProcId q, TaskId t, GateRef* gate = nullptr) {
    const TaskRuntimePlan& trp = plan.tasks[t];
    const WindowView& mine = win[static_cast<std::size_t>(q)];
    for (const RemoteRead& rr : trp.remote_reads) {
      const std::int32_t have =
          mine.received_version[rr.object].load(std::memory_order_acquire);
      const bool arrived = have >= rr.version;
      if (arrived && (!checksum_on || content_trusted(q, rr.object, gate))) {
        continue;
      }
      if (gate) {
        gate->object = rr.object;
        gate->version = rr.version;
        gate->have = have;
      }
      return false;
    }
    for (TaskId u : trp.remote_sync_preds) {
      if (mine.flags[u].load(std::memory_order_acquire) == 0) {
        if (gate) gate->flag_task = u;
        return false;
      }
    }
    return true;
  }

  // ---- stall snapshots ---------------------------------------------------

  /// Rank q's stall snapshot, from the light state it publishes to the
  /// transport on every state change and blocked wait: the one snapshot
  /// source on both transports, read without q's cooperation. The received
  /// version comes from q's window, and the current wait's re-request
  /// episode is rebuilt from its attempts, exhaustion and start time.
  ProcSnapshot light_snapshot(ProcId q) const {
    const LightState l = tp->light(q);
    ProcSnapshot s;
    s.proc = q;
    s.state = static_cast<ProcState>(l.state);
    s.pos = l.pos;
    s.order_size = static_cast<std::int32_t>(plan.procs[q].order.size());
    if (s.pos >= 0 && s.pos < s.order_size) {
      s.current_task = plan.procs[q].order[s.pos];
    }
    if (s.state == ProcState::kMapBlocked) s.mailbox_full_dest = l.map_dest;
    if (s.state != ProcState::kRecBlocked) return s;
    s.waiting_object = l.waiting_object;
    s.waiting_version = l.waiting_version;
    s.waiting_flag_task = l.waiting_flag;
    if (l.waiting_object != graph::kInvalidData) {
      s.have_version = win[static_cast<std::size_t>(q)]
                           .received_version[l.waiting_object]
                           .load(std::memory_order_acquire);
    }
    s.retry_attempts = l.retry_attempts;
    if (l.retry_attempts > 0) {
      s.retry_history.push_back(
          {l.waiting_object, l.waiting_version, l.waiting_flag,
           l.retry_attempts, (now_ns() - l.wait_started_ns) / 1000,
           l.retries_exhausted});
    }
    return s;
  }

  /// Every rank's stall snapshot, diagnosed. Rings no doorbell: bell.value()
  /// is the progress signal the caller re-checks to know the snapshots
  /// describe one frozen instant.
  StallReport collect_and_diagnose(double stalled_seconds) {
    std::vector<ProcSnapshot> snaps;
    for (ProcId q = 0; q < plan.num_procs; ++q) {
      snaps.push_back(light_snapshot(q));
    }
    StallReport report = diagnose_stall(plan, std::move(snaps),
                                        stalled_seconds, tp->failure_texts());
    report.attempt_deadline_us = options.attempt_deadline_us;
    return report;
  }

  /// Deadline/cancel poll of the monitor. Returns true when it cancelled
  /// the run (workers unwind via the abort).
  bool check_cancelled() {
    if (options.attempt_deadline_us > 0) {
      const std::int64_t elapsed_us = since_run_start.nanos() / 1000;
      if (elapsed_us >= options.attempt_deadline_us) {
        fail(graph::kInvalidProc,
             cat("run cancelled: attempt deadline of ",
                 options.attempt_deadline_us, " us lapsed after ", elapsed_us,
                 " us"),
             FailureKind::kCancelled);
        return true;
      }
    }
    if (cancel_requested.load(std::memory_order_acquire)) {
      std::string reason;
      {
        std::lock_guard<std::mutex> lock(cancel_m);
        reason = cancel_reason;
      }
      fail(graph::kInvalidProc, cat("run cancelled: ", reason),
           FailureKind::kCancelled);
      return true;
    }
    return false;
  }

  /// Heartbeat park bounded by the time left on the attempt deadline, so a
  /// lapse is noticed promptly even when the heartbeat is coarse.
  std::int64_t deadline_clamped(std::int64_t heartbeat_us) const {
    if (options.attempt_deadline_us <= 0) return heartbeat_us;
    const std::int64_t remaining = std::max<std::int64_t>(
        options.attempt_deadline_us - since_run_start.nanos() / 1000, 500);
    return std::min(heartbeat_us, remaining);
  }

  /// Fails the run with its stall diagnosis, headed by the one cause.
  void escalate(std::shared_ptr<StallReport> report, const char* cause,
                FailureKind kind) {
    stall_report = report;
    fail(graph::kInvalidProc, cat(cause, report->summary()), kind);
  }

  bool run_over() const {
    return tp->quiescent_count() >= plan.num_procs || tp->aborted() ||
           (session && session->all_exited());
  }

  /// Whether a waiter ran out of re-requests and is still blocked, as its
  /// light state says. An exhausted wait against a merely slow owner heals
  /// and leaves REC-blocked before the stall window closes.
  bool retries_exhausted() const {
    for (ProcId q = 0; q < plan.num_procs; ++q) {
      const LightState l = tp->light(q);
      if (l.retries_exhausted &&
          static_cast<ProcState>(l.state) == ProcState::kRecBlocked) {
        return true;
      }
    }
    return false;
  }

  /// How a dead rank is detected, shm only (a thread cannot die apart from
  /// the run): waitpid reaps an unclean exit, and a rank whose lease lapsed
  /// outside quiescence (SIGSTOP, livelock; in EXE its heartbeat thread
  /// beats) is killed to make fail-stop true. `since_spawn` times a rank
  /// that never beat.
  std::shared_ptr<ProcFailureReport> dead_rank(const Stopwatch& since_spawn) {
    if (!session) return nullptr;
    ShmTransport& st = session->transport();
    session->poll();
    for (ProcId q = 0; q < plan.num_procs; ++q) {
      ShmSession::Child& c = session->child(q);
      if (!c.exited || c.reported) continue;
      c.reported = true;
      if (c.signal != 0 || (c.exit_code != kShmWorkerClean &&
                            c.exit_code != kShmWorkerAborted &&
                            c.exit_code != kShmWorkerFailed)) {
        return make_proc_failure(q, "waitpid", c.signal, c.exit_code,
                                 st.lease_age_seconds(q));
      }
    }
    if (run_over()) return nullptr;
    for (ProcId q = 0; q < plan.num_procs; ++q) {
      if (session->child(q).exited || st.worker_done(q)) continue;
      const LightState l = tp->light(q);
      const auto ps = static_cast<ProcState>(l.state);
      if (ps == ProcState::kQuiescent || ps == ProcState::kFailed) continue;
      const double age = l.lease_ns == 0 ? since_spawn.seconds()
                                         : st.lease_age_seconds(q);
      if (age > options.lease_timeout_seconds) {
        ::kill(session->child(q).pid, SIGKILL);
        return make_proc_failure(q, "lease", SIGKILL, 0, age);
      }
    }
    return nullptr;
  }

  /// The progress monitor, one for both transports: parked on the control
  /// doorbell, it checks for dead ranks, cancellation and progress on a
  /// heartbeat. After kStallCheckSeconds without progress it builds the
  /// wait-for graph from a snapshot — a genuine cycle (or a wait on a
  /// quiescent processor) fails the run at once with the StallReport;
  /// anything else is slow progress and the run resumes. With recovery on,
  /// a genuine diagnosis is held instead: the re-request layer can heal
  /// waits that are dead under fail-stop rules (one NACK dissolves the
  /// cycle of a dropped address package). The run then fails only when a
  /// waiter exhausted its retries while progress is stopped, or when the
  /// RetryPolicy-scaled watchdog expires. An unchanged bell across the
  /// snapshot window makes the snapshots mutually consistent: every
  /// unblocking event rings it. Returns the dead rank's report if one died.
  std::shared_ptr<ProcFailureReport> monitor() {
    const double stall_after =
        std::min(kStallCheckSeconds, effective_watchdog);
    const std::int64_t heartbeat_us = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(stall_after * 1e6 / 4), 1000, 250000);
    std::uint64_t last = bell->value();
    Stopwatch since_progress;
    const Stopwatch since_spawn;
    bool diagnosed = false;  // already analyzed this bell value
    std::shared_ptr<StallReport> pending;  // slow-progress diagnosis
    for (;;) {
      // Control value read before the exit checks: a ring that lands after
      // the read makes the park return immediately, so run termination is
      // never charged a full heartbeat of latency.
      const std::uint64_t control_seen = control_bell->value();
      if (auto dead = dead_rank(since_spawn)) return dead;
      if (run_over() || check_cancelled()) return nullptr;
      const std::uint64_t now = bell->value();
      if (now != last) {
        last = now;
        since_progress.reset();
        diagnosed = false;
        pending.reset();
      }
      const double stalled = since_progress.seconds();
      if (recovery_on && stalled > stall_after && retries_exhausted()) {
        auto report =
            std::make_shared<StallReport>(collect_and_diagnose(stalled));
        if (bell->value() != now) continue;  // progressed mid-snapshot
        if (retries_exhausted()) {
          report->retries_exhausted = true;
          escalate(report, "recovery retries exhausted: ",
                   FailureKind::kRetriesExhausted);
          return nullptr;
        }
        continue;  // the exhausted wait healed while we were snapshotting
      }
      if (stalled > stall_after && !diagnosed) {
        auto report =
            std::make_shared<StallReport>(collect_and_diagnose(stalled));
        if (bell->value() != now) continue;  // progressed mid-snapshot
        diagnosed = true;
        if (report->genuine_deadlock && !recovery_on) {
          escalate(report, "protocol deadlock: ", FailureKind::kDeadlock);
          return nullptr;
        }
        // Slow progress — or, with recovery on, a diagnosis the re-request
        // layer may yet dissolve: hold for the (scaled) watchdog.
        pending = std::move(report);
      }
      if (stalled > effective_watchdog) {
        if (!pending) {
          pending =
              std::make_shared<StallReport>(collect_and_diagnose(stalled));
        }
        // The diagnosis may date from stall_after; the headline's one
        // duration is the whole stall.
        pending->stalled_seconds = stalled;
        escalate(pending, "watchdog: ", FailureKind::kWatchdog);
        return nullptr;
      }
      control_bell->wait(control_seen, deadline_clamped(heartbeat_us));
    }
  }

  // ---- worker ------------------------------------------------------------

  /// Object d's bytes in rank q's heap.
  std::span<std::byte> bytes_of(ProcId q, DataId d) {
    return {win[static_cast<std::size_t>(q)].heap +
                priv[q].proto->memory().offset_of(d),
            static_cast<std::size_t>(plan.graph->data(d).size_bytes)};
  }

  class Resolver final : public ObjectResolver {
   public:
    Resolver(Impl& impl, ProcId proc) : impl_(impl), proc_(proc) {}

    std::span<const std::byte> read(DataId d) const override {
      return impl_.bytes_of(proc_, d);
    }

    std::span<std::byte> write(DataId d) override {
      RAPID_CHECK(impl_.plan.graph->data(d).owner == proc_,
                  cat("task on processor ", proc_, " writing non-owned ",
                      impl_.plan.graph->data(d).name));
      return impl_.bytes_of(proc_, d);
    }

   private:
    Impl& impl_;
    ProcId proc_;
  };

  /// EXE with bounded re-execution: a TransientTaskError (injected or
  /// thrown by the body for a genuinely transient condition) is retried up
  /// to RetryPolicy::max_attempts times with the policy's backoff. The
  /// poison-fill free hook guarantees a retried body cannot silently read
  /// stale heap through a dangling address — a stale read yields poison,
  /// not plausible content — and the MAP free hook has reset the
  /// verification state of any recycled input region.
  void execute_task(ProcId q, TaskId t, Resolver& resolver) {
    std::int32_t attempt = 1;
    for (;;) {
      try {
        if (faults_on) {
          if (induced_on && t == faults.throw_in_task) {
            throw InjectedFaultError(
                cat("injected fault: task ", plan.graph->task(t).name,
                    " forced to fail"));
          }
          if (induced_on && faults.task_throws_transient(t, attempt)) {
            throw TransientTaskError(
                cat("injected transient fault: task ",
                    plan.graph->task(t).name, " attempt ", attempt));
          }
          const std::int64_t delay = faults.task_delay_us(t);
          if (delay > 0) sleep_us(delay);
        }
        body(t, resolver);  // EXE
        return;
      } catch (const TransientTaskError&) {
        if (!recovery_on || attempt > options.retry.max_attempts ||
            tp->aborted()) {
          throw;
        }
        priv[q].proto->count(kCtrTaskRetries);
        sleep_us(options.retry.delay_us(attempt));
        ++attempt;
      }
    }
  }

  void worker(ProcId q) {
    Private& me = priv[q];
    RankProtocol& proto = *me.proto;
    set_log_thread_proc(q);
    set_log_thread_run(options.run_id);
    // Per-run kernel dispatch: a thread-local override instead of the
    // process-global level, so co-resident service runs with different
    // RunConfig::kernel_dispatch never clobber each other.
    if (config.kernel_dispatch >= 0) {
      num::set_thread_kernel_level(config.kernel_dispatch);
    }
    try {
      const ProcPlan& pp = plan.procs[q];
      // Initialize owned objects, then issue version-0 sends (they suspend
      // in active mode until reader addresses arrive).
      Resolver resolver(*this, q);
      for (DataId d : pp.permanents) {
        if (init) init(d, resolver.write(d));
      }
      proto.route(pp.initial_sends, transmitter(q));

      Backoff backoff(*bell, kSpinIters, effective_park_us);
      while (!tp->aborted()) {
        if (!proto.finished()) {
          if (proto.needs_map()) {
            // MAP state.
            set_state(q, ProcState::kMap);
            trace_state(q, obs::ProtoState::kMap);
            if (tracing) {
              trace->record(q, obs::EventKind::kMapBegin, proto.pos());
            }
            if (faults_on) maybe_kill(q, FaultPlan::kKillMap);
            const MapResult map = proto.perform_map();
            if (tracing) {
              // kMapFree events came from the free hook inside perform_map;
              // close the MAP with its allocations and the heap samples the
              // occupancy timeline is built from. kHeapPeak carries the
              // arena's true peak — tentative allocations rolled back inside
              // perform_map count, so it can exceed every kHeapSample.
              for (DataId d : map.allocated) {
                trace->record(q, obs::EventKind::kMapAlloc, d, 0, 0,
                              plan.graph->data(d).size_bytes);
              }
              trace->record(q, obs::EventKind::kMapEnd, proto.pos());
              trace->record(q, obs::EventKind::kHeapSample, 0, 0, 0,
                            proto.memory().in_use_bytes());
              trace->record(q, obs::EventKind::kHeapPeak, 0, 0, 0,
                            proto.memory().peak_bytes());
            }
            for (const auto& [dest, pkg] : map.packages) {
              if (!send_addr_package_blocking(q, dest, pkg)) return;
            }
            bump_progress();
            backoff.reset();
            continue;
          }
          const TaskId t = proto.current_task();
          // The protocol enters REC before every task (Fig. 3(b)); a ready
          // task just passes through it instantly.
          trace_state(q, obs::ProtoState::kRec);
          if (faults_on && proto.pos() != me.last_rec_pos) {
            // First REC entry at this schedule position (re-entries after a
            // blocked pause are the same protocol state, not a new one).
            me.last_rec_pos = proto.pos();
            maybe_kill(q, FaultPlan::kKillRec);
          }
          // Doorbell value read BEFORE the readiness check: an input that
          // arrives between the check and the park moves the bell past
          // `seen`, so the park returns immediately instead of sleeping
          // through the wakeup.
          const std::uint64_t seen = bell->value();
          GateRef gate;
          if (task_ready(q, t, &gate)) {
            me.wait = WaitTracker{};
            if (tracing) {
              // The task's remote inputs are now all trusted: close the
              // put→publish→consume flows on the reader side. The stamp is
              // a fresh acquire load of the published put sequence — a real
              // release/acquire pair with the owner's publication, so the
              // conformance checker's publish→consume edge is a genuine
              // happens-before edge, not a timestamp heuristic.
              for (const RemoteRead& rr : plan.tasks[t].remote_reads) {
                const std::uint32_t seq =
                    win[static_cast<std::size_t>(q)].put_seq[rr.object].load(
                        std::memory_order_acquire);
                trace->record(q, obs::EventKind::kConsume, rr.object,
                              rr.version,
                              plan.graph->data(rr.object).owner, 0,
                              static_cast<std::uint16_t>(seq));
              }
            }
            set_state(q, ProcState::kExe);
            trace_state(q, obs::ProtoState::kExe);
            if (faults_on) maybe_kill(q, FaultPlan::kKillExe);
            if (tracing) trace->record(q, obs::EventKind::kTaskBegin, t);
            execute_task(q, t, resolver);
            if (tracing) trace->record(q, obs::EventKind::kTaskEnd, t);
            const std::span<const ContentSend> sends = proto.finish_task();
            set_state(q, ProcState::kExe);
            if (faults_on) maybe_kill(q, FaultPlan::kKillSnd);
            // SND: completion flags, then the content sends of every
            // version the task completed.
            trace_state(q, obs::ProtoState::kSnd);
            for (ProcId dest : plan.tasks[t].flag_dests) send_flag(q, dest, t);
            proto.route(sends, transmitter(q));
            bump_progress();
            backoff.reset();
          } else if (service_ra_cq(q)) {  // REC
            backoff.reset();
          } else {
            set_state(q, ProcState::kRecBlocked);
            if (recovery_on) note_blocked_wait(q, gate);
            publish_wait(q, gate);
            traced_pause(q, backoff, seen);
          }
          continue;
        }
        // END: drain, then wait for global quiescence.
        trace_state(q, obs::ProtoState::kEnd);
        const std::uint64_t seen = bell->value();
        const bool progressed = service_ra_cq(q);
        if (!me.counted_quiescent && proto.suspended_count() == 0) {
          me.counted_quiescent = true;
          set_state(q, ProcState::kQuiescent);
          if (tp->note_quiescent(q) == plan.num_procs) {
            control_bell->ring();  // the run is over: wake the monitor
          }
          bump_progress();  // and any peers parked waiting for quiescence
        } else if (!me.counted_quiescent) {
          set_state(q, ProcState::kEndDrain);
        }
        if (tp->quiescent_count() == plan.num_procs) {
          return;
        }
        if (progressed) {
          backoff.reset();
        } else {
          traced_pause(q, backoff, seen);
        }
      }
    } catch (const NonExecutableError& e) {
      set_state(q, ProcState::kFailed);
      fail(q, e.what(), FailureKind::kNonExecutable);
    } catch (const InjectedFaultError& e) {
      set_state(q, ProcState::kFailed);
      fail(q, cat("processor ", q, ": ", e.what()),
           FailureKind::kInjectedFault);
    } catch (const std::exception& e) {
      set_state(q, ProcState::kFailed);
      fail(q, cat("processor ", q, ": ", e.what()), FailureKind::kTaskError);
    }
  }

  // ---- run orchestration -------------------------------------------------

  /// Per-run state reset plus the plan-derived index tables (run() and
  /// shm_worker_run).
  void reset_run_state() {
    completed = false;
    priv.clear();
    priv.resize(static_cast<std::size_t>(plan.num_procs));
    win.clear();
    stall_report.reset();
  }

  /// Rank q's protocol core (deterministic MAP offsets: every process
  /// derives the same addresses) and verification tables. The free hook
  /// pokes q's window, so only a process playing q installs it. Requires
  /// `win`. Throws NonExecutableError.
  void setup_proc_state(ProcId q, bool install_free_hook) {
    Private& pr = priv[q];
    pr.proto.emplace(plan, q, config, /*alignment=*/8);
    if (install_free_hook &&
        (options.poison_freed || checksum_on || tracing)) {
      // Poison-fill freed volatile regions so a read through a stale
      // address (use-after-free across MAP reuse) yields garbage that the
      // numeric checks catch, not stale-but-plausible content — and reset
      // the freed object's verification state so a recycled region is
      // never trusted on the strength of a previous lifetime's checksum.
      // The hook fires between a MAP's frees and its reallocations, and
      // the protocol guarantees no put is in flight to a dead region (see
      // docs/RUNTIME.md), so neither the memset nor the reset can race a
      // sender. impl.priv is sized once before the workers start, so the
      // captured pointers stay valid.
      std::byte* heap = win[static_cast<std::size_t>(q)].heap;
      Private* mine = &pr;
      const bool poison = options.poison_freed;
      Impl* self = this;
      pr.proto->memory().set_free_hook(
          [heap, mine, poison, self, q](DataId d, mem::Offset off,
                                        std::int64_t size) {
            if (poison && size > 0) {
              std::memset(heap + off, 0xA5, static_cast<std::size_t>(size));
            }
            mine->verified_seq[d] = 0;
            mine->rejected_seq[d] = 0;
            // The hook fires on the owning worker's thread inside its
            // MAP, so recording here obeys the single-writer ring rule.
            if (self->tracing) {
              self->trace->record(q, obs::EventKind::kMapFree, d, 0, 0,
                                  size);
            }
          });
    }
    pr.verified_seq.assign(static_cast<std::size_t>(plan.graph->num_data()),
                           0);
    pr.rejected_seq.assign(static_cast<std::size_t>(plan.graph->num_data()),
                           0);
  }

  /// The one attach-and-set-up step of every process in a run: windows,
  /// bells, every rank's protocol core (offsets are deterministic, so all
  /// processes agree), baseline prefill and heap samples.
  /// Only the ranks this process plays get the free hook and the samples:
  /// every rank in-process, `rank` in a worker process, none in the shm
  /// coordinator (graph::kInvalidProc). Throws NonExecutableError.
  void attach(Transport& t, ProcId rank) {
    tp = &t;
    bell = &t.data_bell();
    control_bell = &t.control_bell();
    for (ProcId q = 0; q < plan.num_procs; ++q) win.push_back(t.window(q));
    const auto plays = [&](ProcId q) {
      return !t.cross_process() || q == rank;
    };
    for (ProcId q = 0; q < plan.num_procs; ++q) setup_proc_state(q, plays(q));
    if (!config.active_memory) {
      share_baseline_addresses(
          plan, [this](ProcId r) -> RankProtocol& { return *priv[r].proto; });
    }
    if (!tracing) return;
    // Baseline heap samples (permanents, plus preallocated volatiles in
    // baseline mode), recorded before the workers exist so the
    // single-writer ring rule holds via the thread-creation edge.
    for (ProcId q = 0; q < plan.num_procs; ++q) {
      if (!plays(q)) continue;
      trace->record(q, obs::EventKind::kHeapSample, 0, 0, 0,
                    priv[q].proto->memory().in_use_bytes());
      trace->record(q, obs::EventKind::kHeapPeak, 0, 0, 0,
                    priv[q].proto->memory().peak_bytes());
    }
  }

  /// The one failure disposition: records the failure, then reports the
  /// "∞" kNonExecutable channel and throws every other kind.
  RunReport dispose(RunReport& report, FailureKind kind, std::string failure,
                    std::vector<std::string> errors) {
    report.failure_kind = kind;
    report.failure = std::move(failure);
    report.errors = std::move(errors);
    if (kind == FailureKind::kNonExecutable) report.executable = false;
    last_report = report;
    switch (kind) {
      case FailureKind::kNonExecutable:
        return report;
      case FailureKind::kDeadlock:
      case FailureKind::kWatchdog:
      case FailureKind::kRetriesExhausted:
        throw ProtocolDeadlockError(report.failure, stall_report);
      case FailureKind::kProcFailure:
        throw ProcFailureError(report.failure, report.proc_failure);
      case FailureKind::kCancelled:
        throw RunCancelledError(report.failure,
                                std::make_shared<RunReport>(report));
      default:
        throw ExecutionFailedError(report.failure, report.errors);
    }
  }

  /// How ranks start: one thread per rank in-process, one worker process
  /// per rank on shm.
  void start_ranks(std::vector<std::thread>& threads) {
    if (!session) {
      threads.reserve(static_cast<std::size_t>(plan.num_procs));
      for (ProcId q = 0; q < plan.num_procs; ++q) {
        threads.emplace_back([this, q] { worker(q); });
      }
    } else if (options.shm_launch == ThreadedOptions::ShmLaunch::kSpawn) {
      RAPID_CHECK(!options.shm_worker_path.empty(),
                  "shm spawn mode needs ThreadedOptions::shm_worker_path");
      RAPID_CHECK(!options.workload_spec.empty(),
                  "shm spawn mode needs ThreadedOptions::workload_spec so "
                  "rapid_shm_worker can rebuild the plan");
      session->spawn_exec(options.shm_worker_path);
    } else {
      ShmTransport* st = &session->transport();
      session->spawn_fork([this, st](ProcId) {
        // spawn_fork already switched the transport's rank.
        return shm_worker_run(*st, plan, init, body);
      });
    }
  }

  /// How ranks stop: they end on quiescence or the abort, which every
  /// other way out of the monitor has requested; no child may outlive the
  /// run.
  void stop_ranks(std::vector<std::thread>& threads) {
    for (auto& th : threads) th.join();
    if (!session) return;
    if (!session->wait_all(
            std::max(2.0, 2.0 * options.lease_timeout_seconds))) {
      session->kill_all(SIGKILL);
      session->wait_all(5.0);
    }
  }

  RunReport run() {
    RunReport report;
    report.run_id = options.run_id;
    report.attempt_deadline_us = options.attempt_deadline_us;
    report.transport = to_string(options.transport);
    report.maps_per_proc.assign(static_cast<std::size_t>(plan.num_procs), 0);
    report.peak_bytes_per_proc.assign(
        static_cast<std::size_t>(plan.num_procs), 0);
    reset_run_state();
    since_run_start.reset();
    set_log_thread_run(options.run_id);
    const bool shm = options.transport == TransportKind::kShm;

    // Shm workers dump their trace rings into a throwaway directory under
    // the system temp dir, merged and removed after the run.
    const bool shm_trace = shm && tracing;
    std::string trace_dir;
    if (tracing) {
      RAPID_CHECK(trace->num_procs() >= plan.num_procs,
                  "the Trace is sized for fewer processors than the plan");
      // Tag the trace with its owning run before any worker writes a
      // record, so multi-tenant Chrome traces split per run.
      if (options.run_id > 0) trace->set_run_id(options.run_id);
      if (shm_trace) {
        trace_dir = (std::filesystem::temp_directory_path() /
                     cat("rapid-trace-", ::getpid(), "-",
                         now_ns() & 0xffffff))
                        .string();
        std::filesystem::create_directories(trace_dir);
      }
    }

    try {
      if (config.audit) verify::audit_or_throw(plan, config);
      if (shm) {
        session = ShmSession::create(
            {plan.num_procs, plan.graph->num_data(), plan.graph->num_tasks(),
             config.capacity_per_proc},
            build_shm_spec(trace_dir));
      } else {
        owned_tp = make_inproc_transport(
            plan.num_procs, plan.graph->num_data(), plan.graph->num_tasks(),
            config.capacity_per_proc);
      }
      attach(shm ? session->transport() : *owned_tp, graph::kInvalidProc);
    } catch (const NonExecutableError& e) {
      session.reset();
      return dispose(report, FailureKind::kNonExecutable, e.what(),
                     {e.what()});
    }

    Stopwatch wall;
    std::vector<std::thread> threads;
    start_ranks(threads);
    const std::shared_ptr<ProcFailureReport> proc_failure = monitor();
    stop_ranks(threads);
    report.parallel_time_us = wall.seconds() * 1e6;
    // Where counters are read from: each rank's own table, after its
    // thread joined in-process, or as its shm process published it at exit.
    for (ProcId q = 0; q < plan.num_procs; ++q) {
      if (!session) {
        add_counters(report, q, priv[q].proto->counters());
      } else if (session->transport().worker_done(q)) {
        add_counters(report, q, session->transport().worker_counters(q));
      }
    }
    if (shm_trace) {
      merge_worker_traces(trace_dir);
      std::error_code ec;
      std::filesystem::remove_all(trace_dir, ec);
    }
    if (tracing) {
      report.metrics = std::make_shared<obs::MetricsSummary>(
          obs::derive_metrics(*trace));
    }

    if (proc_failure) {
      report.proc_failure = proc_failure;
      return dispose(report, FailureKind::kProcFailure,
                     proc_failure->summary(), tp->failure_texts());
    }
    if (tp->any_failure()) {
      std::vector<std::string> texts = tp->failure_texts();
      std::string first = texts.empty() ? "unknown failure" : texts.front();
      return dispose(report, tp->first_failure_kind(), std::move(first),
                     std::move(texts));
    }
    if (session && tp->quiescent_count() < plan.num_procs) {
      // Every worker process exited without quiescence or any recorded
      // failure — should be impossible; surface it (with each child's exit
      // status and last beat) rather than return a bogus clean report.
      std::string detail = cat("shm run ended without quiescence or a "
                               "recorded failure (quiescent ",
                               tp->quiescent_count(), "/", plan.num_procs,
                               ")");
      for (ProcId q = 0; q < plan.num_procs; ++q) {
        const ShmSession::Child& c = session->child(q);
        const LightState l = tp->light(q);
        detail += cat("; p", q, ": ",
                      c.exited
                          ? (c.signal != 0 ? cat("signal ", c.signal)
                                           : cat("exit ", c.exit_code))
                          : std::string("running"),
                      " state ", static_cast<int>(l.state), " pos ", l.pos);
      }
      return dispose(report, FailureKind::kWatchdog, detail, {detail});
    }
    completed = report.executable;
    last_report = report;
    return report;
  }

  // ---- shm coordinator ---------------------------------------------------

  ShmRunSpec build_shm_spec(const std::string& trace_dir) const {
    ShmRunSpec spec;
    spec.config = config;
    spec.run_id = options.run_id;
    spec.watchdog_seconds = options.watchdog_seconds;
    spec.poison_freed = options.poison_freed ? 1 : 0;
    spec.checksum = options.checksum ? 1 : 0;
    spec.retry = options.retry;
    spec.run_attempt = options.run_attempt;
    spec.faults = faults;
    spec.lease_timeout_seconds = options.lease_timeout_seconds;
    spec.trace_enabled = tracing ? 1 : 0;
    std::strncpy(spec.trace_dir, trace_dir.c_str(),
                 sizeof(spec.trace_dir) - 1);
    std::strncpy(spec.workload_spec, options.workload_spec.c_str(),
                 sizeof(spec.workload_spec) - 1);
    spec.plan_fingerprint = rt::plan_fingerprint(plan);
    return spec;
  }

  /// Structured diagnosis of rank `dead`'s death, including every
  /// survivor's wait that only the corpse could have satisfied. Also
  /// records the failure into the control segment (coordinator slot) and
  /// requests the abort so survivors unwind.
  std::shared_ptr<ProcFailureReport> make_proc_failure(
      ProcId dead, const char* detected_by, int sig, int code,
      double lease_age) {
    auto r = std::make_shared<ProcFailureReport>();
    r->dead_rank = dead;
    r->signal = sig;
    r->exit_code = code;
    r->detected_by = detected_by;
    r->lease_age_seconds = lease_age;
    const LightState dl = tp->light(dead);
    r->state_at_death = dl.state;
    r->pos_at_death = dl.pos;
    for (ProcId q = 0; q < plan.num_procs; ++q) {
      if (q == dead || session->child(q).exited) continue;
      const LightState l = tp->light(q);
      const auto st = static_cast<ProcState>(l.state);
      if (st == ProcState::kRecBlocked) {
        if (l.waiting_object != graph::kInvalidData &&
            plan.graph->data(l.waiting_object).owner == dead) {
          r->orphaned.push_back({.waiter = q,
                                 .object = l.waiting_object,
                                 .version = l.waiting_version});
        } else if (l.waiting_flag != graph::kInvalidTask &&
                   plan.schedule.proc_of_task[l.waiting_flag] == dead) {
          r->orphaned.push_back({.waiter = q, .flag_task = l.waiting_flag});
        }
      } else if (st == ProcState::kMapBlocked && l.map_dest == dead) {
        r->orphaned.push_back({.waiter = q, .map_blocked = true});
      }
    }
    fail(graph::kInvalidProc, r->summary(), FailureKind::kProcFailure);
    return r;
  }

  /// Merges the per-rank trace dumps the workers left in `dir` into the
  /// session Trace (epoch-rebased; see obs/trace_io.hpp).
  void merge_worker_traces(const std::string& dir) {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec) {
      RAPID_WARN("shm trace merge: cannot read " << dir << ": "
                                                 << ec.message());
      return;
    }
    for (const auto& entry : it) {
      if (!entry.is_regular_file()) continue;
      const std::string name = entry.path().filename().string();
      if (name.size() < 11 || name[0] != 'p' ||
          name.rfind(".trace.bin") != name.size() - 10) {
        continue;
      }
      try {
        const obs::LoadedProcTrace lt =
            obs::load_proc_trace(entry.path().string());
        if (lt.proc >= 0 && lt.proc < trace->num_procs()) {
          obs::merge_proc_trace(trace, lt);
        }
      } catch (const Error& e) {
        RAPID_WARN("shm trace merge: skipping " << name << ": " << e.what());
      }
    }
  }
};

ThreadedExecutor::ThreadedExecutor(const RunPlan& plan, const RunConfig& config,
                                   ObjectInit init, TaskBody body,
                                   ThreadedOptions options)
    : impl_(std::make_unique<Impl>(plan, config, std::move(init),
                                   std::move(body), options)) {}

ThreadedExecutor::~ThreadedExecutor() = default;

RunReport ThreadedExecutor::run() { return impl_->run(); }

std::vector<std::byte> ThreadedExecutor::read_object(DataId d) const {
  RAPID_CHECK(impl_->completed,
              "ThreadedExecutor::read_object called before a successful "
              "run() — the owner heaps hold no defined content yet");
  const auto bytes = impl_->bytes_of(impl_->plan.graph->data(d).owner, d);
  return {bytes.begin(), bytes.end()};
}

// One rank's worker run against an shm transport: rebuild the run
// parameters from the segment header (so fork children and exec'd
// rapid_shm_worker processes execute identically), run the unchanged
// protocol loop on the calling thread, then publish counters and dump the
// trace ring for the coordinator to merge.
int shm_worker_run(ShmTransport& transport, const RunPlan& plan,
                   const ObjectInit& init, const TaskBody& body) {
  const ProcId q = transport.local_rank();
  // A lambda so the catch below can turn *anything* escaping the worker
  // loop into a structured failure in the segment, never a silent nonzero
  // exit. (A plain helper function would lose Impl friendship.)
  auto inner = [&]() -> int {
  const ShmRunSpec& spec = transport.spec();
  RunConfig config = spec.config;
  config.audit = false;  // the coordinator audited before spawning
  ThreadedOptions options;
  options.run_id = spec.run_id;
  options.watchdog_seconds = spec.watchdog_seconds;
  options.poison_freed = spec.poison_freed != 0;
  options.checksum = spec.checksum != 0;
  options.retry = spec.retry;
  options.run_attempt = spec.run_attempt;
  options.faults = spec.faults;
  options.transport = TransportKind::kShm;
  options.lease_timeout_seconds = spec.lease_timeout_seconds;
  obs::TraceConfig tc;
  tc.enabled = spec.trace_enabled != 0;
  tc.events_per_proc = spec.trace_events_per_proc;
  obs::Trace local_trace(plan.num_procs, tc);
  if (spec.trace_enabled != 0) options.trace = &local_trace;

  ThreadedExecutor::Impl impl(plan, config, init, body, options);
  impl.reset_run_state();
  set_log_thread_proc(q);
  try {
    impl.attach(transport, q);
  } catch (const std::exception& e) {
    transport.fail_stop(q, FailureKind::kNonExecutable, e.what());
    return kShmWorkerFailed;
  }
  transport.beat(q, static_cast<std::uint8_t>(ProcState::kStart), 0);

  {
    // Task bodies do not beat, so this thread refreshes the lease while the
    // rank is in EXE. SIGSTOP freezes it with the rest of the process, so
    // the coordinator polices the lease in EXE as in every other state.
    std::jthread heartbeat([&](std::stop_token stop) {
      const std::chrono::duration<double> period(
          options.lease_timeout_seconds / 4);
      std::mutex m;
      std::condition_variable_any cv;
      std::unique_lock<std::mutex> lock(m);
      while (!cv.wait_for(lock, stop, period, [] { return false; }) &&
             !stop.stop_requested()) {
        transport.beat_if(q, static_cast<std::uint8_t>(ProcState::kExe));
      }
    });
    impl.worker(q);  // the full REC/EXE/SND/MAP/END loop, on this thread
  }

  int rc = kShmWorkerClean;
  if (transport.rank_failed(q)) {
    rc = kShmWorkerFailed;
  } else if (transport.aborted() &&
             transport.quiescent_count() < plan.num_procs) {
    rc = kShmWorkerAborted;
  }
  transport.publish_worker_done(q, impl.priv[q].proto->counters());
  if (impl.tracing && spec.trace_dir[0] != '\0') {
    const std::string path =
        cat(spec.trace_dir, "/p", q, ".pid", ::getpid(), ".trace.bin");
    if (!obs::save_proc_trace(*impl.trace, q, path)) {
      RAPID_WARN("shm worker p" << q << ": failed to dump trace to "
                                << path);
    }
  }
  return rc;
  };
  try {
    return inner();
  } catch (const std::exception& e) {
    transport.fail_stop(q, FailureKind::kTaskError,
                        cat("shm worker p", q, ": ", e.what()));
    return kShmWorkerFailed;
  }
}

const RunReport& ThreadedExecutor::last_report() const {
  return impl_->last_report;
}

void ThreadedExecutor::cancel(std::string reason) {
  Impl& impl = *impl_;
  {
    std::lock_guard<std::mutex> lock(impl.cancel_m);
    impl.cancel_reason = std::move(reason);
  }
  // Release store pairs with the monitor's acquire poll. Only the flag is
  // touched here: the control-plane pointers (bells, transport) are owned
  // by the run() thread and may not even exist yet; the monitor performs
  // the actual abort within one heartbeat.
  impl.cancel_requested.store(true, std::memory_order_release);
}

}  // namespace rapid::rt
