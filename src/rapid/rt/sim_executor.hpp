// Discrete-event executor: runs the active-memory-management protocol on a
// modeled distributed-memory machine (rapid::machine) and reports modeled
// parallel time, MAP counts, peak memory and message traffic. This is the
// instrument behind every timing table in the paper reproduction. Each
// processor's protocol decisions and counters come from the RankProtocol
// (rt/rank_protocol.hpp) the threaded executor drives too; the simulator
// adds the event queue, MachineParams charges, arrivals and mailbox slots.
//
// Protocol states map onto the paper's Figure 3(b):
//   REC — a processor whose next task's remote inputs have not arrived is
//         idle; arrival events wake it (the DES equivalent of polling, a
//         poll_us charge models the RA/CQ service round).
//   EXE — a busy interval ending in a completion event.
//   SND — completion handlers charge the sender for flag and content puts
//         (one address-table lookup per send with active memory); content
//         sends without a known remote address join the suspended queue
//         (released by CQ when the address package is consumed).
//   MAP — perform_map() plus sequential address-package sends; a full
//         destination mailbox slot blocks the sender until the consumption
//         event frees it.
//   END — a processor past its last task stays passive; its remaining
//         suspended sends are dispatched by arrival-driven CQ service.
#pragma once

#include "rapid/rt/plan.hpp"
#include "rapid/rt/report.hpp"

namespace rapid::obs {
class Trace;  // obs/trace.hpp — per-processor ring-buffer event tracer
}

namespace rapid::rt {

/// Runs the plan under the config on the simulated machine. Never throws
/// for capacity exhaustion — that is reported via RunReport::executable.
/// Throws ProtocolDeadlockError if the protocol wedges (Theorem 1 says it
/// cannot on valid inputs). An optional Trace records the same event
/// vocabulary as the threaded executor, stamped with modeled time
/// (SimTime µs → ns), and attaches derived metrics to the report.
RunReport simulate(const RunPlan& plan, const RunConfig& config,
                   obs::Trace* trace = nullptr);

}  // namespace rapid::rt
