// Execution-conformance checker: closes the loop between the static plan
// auditor (what MAY execute, verify/auditor.hpp) and the obs trace plane
// (what DID execute, obs/trace.hpp). Given a run's trace and the plan it
// was launched from, replays the trace through the vector-clock
// happens-before engine (verify/hb.hpp) and reports structured findings
// with the auditor's rule-id discipline:
//
//   HB-RACE    a task read of object version v is not happens-after its
//              publication, or not happens-before the MAP free of its
//              region (use-after-free across volatile heap reuse)
//   CONF-STATE a processor's traced REC/EXE/SND/MAP/END sequence diverges
//              from its scheduled positions (Fig. 3(b))
//   CONF-MSG   traced puts/installs do not match the plan's send set 1:1
//              modulo idempotent sequence-gated resends; or the recovery
//              counters do not reconcile with the traced NACK/resend events
//   CONF-CAP   traced per-processor alloc/free byte deltas diverge from the
//              symbolic MAP replay (rt::replay_maps, as the auditor uses)
//   CONF-TRUNCATED (info) a trace ring overflowed: findings that rely on
//              the complete history are downgraded to warnings, because an
//              "absent" event may simply have been overwritten
//
// Both executors share the trace vocabulary, so one checker covers the
// simulator (modeled time) and the threaded runtime (real concurrency).
#pragma once

#include <cstdint>

#include "rapid/mem/arena.hpp"
#include "rapid/rt/plan.hpp"
#include "rapid/rt/report.hpp"
#include "rapid/verify/auditor.hpp"
#include "rapid/verify/hb.hpp"

namespace rapid::verify {

struct ConformanceOptions {
  /// Capacity the checked run executed under; drives the symbolic CAP
  /// replay (CONF-CAP) and the exact expected MAP positions for
  /// CONF-STATE. <= 0 skips CONF-CAP and derives MAP positions from the
  /// trace itself (structural checking only).
  std::int64_t capacity_per_proc = 0;
  /// Must match the run: MAP placement depends on them byte-for-byte.
  bool active_memory = true;
  mem::AllocPolicy alloc_policy = mem::AllocPolicy::kFirstFit;
  /// Whether the run used the slab-backed arena fast path (RunConfig::
  /// slab_arena). Placement can differ from the plain coalescing arena, so
  /// the CAP replay must be constructed with the same flag.
  bool slab_arena = false;
  /// Arena alignment of the checked executor: 1 for the simulator, 8 for
  /// the threaded runtime (see rt::ProcMemory).
  std::int64_t alignment = 1;
  /// When set, the run's counters are reconciled against the traced
  /// events: kPutPublish+kResend vs content_messages, kResend vs
  /// recovery.resends, kNack vs recovery.nacks_sent, kFlagSend vs
  /// flag_messages, kAddrPkgSend vs addr_packages. Skipped when any ring
  /// overflowed (the traced counts are then lower bounds).
  const rt::RunReport* report = nullptr;
  /// Findings reported per rule before the rest are summarized away
  /// (AUDIT-TRUNCATED info notes, same discipline as the auditor).
  std::int32_t max_findings_per_rule = 25;
};

/// Checks a finished run's trace against its plan. Never throws on
/// violations — they become findings; throws rapid::Error only when the
/// inputs are malformed (trace sized for fewer processors than the plan).
AuditReport check_conformance(const rt::RunPlan& plan, const TraceView& view,
                              const ConformanceOptions& options = {});

/// Convenience overload snapshotting the trace first (post-run only).
AuditReport check_conformance(const rt::RunPlan& plan,
                              const obs::Trace& trace,
                              const ConformanceOptions& options = {});

}  // namespace rapid::verify
