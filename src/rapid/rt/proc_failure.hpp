// Structured diagnosis of a dead worker process in a multi-process (shm)
// run: which rank died, how the coordinator noticed (waitpid reaping vs
// lease lapse in the control segment), what protocol state the rank last
// published, and which survivors were left waiting on messages only the
// corpse could have sent. The coordinator fail-stops the run with this
// report instead of hanging; run_with_recovery treats the resulting
// ProcFailureError like any other failed attempt and restarts the run with
// a respawned rank.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rapid/graph/ids.hpp"
#include "rapid/support/check.hpp"
#include "rapid/support/json.hpp"

namespace rapid::rt {

using graph::DataId;
using graph::ProcId;
using graph::TaskId;

/// A survivor's wait that the dead rank can never satisfy: the content,
/// flag, or mailbox slot it was blocked on is owned by the corpse.
struct OrphanedWait {
  ProcId waiter = graph::kInvalidProc;
  /// Content wait: object + minimum version (object != kInvalidData).
  DataId object = graph::kInvalidData;
  std::int32_t version = -1;
  /// Flag wait: the uncompleted task whose flag was needed.
  TaskId flag_task = graph::kInvalidTask;
  /// MAP wait: the waiter was blocked sending an address package to the
  /// dead rank's mailbox.
  bool map_blocked = false;
};

struct ProcFailureReport {
  ProcId dead_rank = graph::kInvalidProc;
  /// Termination cause when reaped: the signal (SIGKILL, SIGSEGV, ...) or,
  /// for a plain exit, the unexpected exit code. signal == 0 means exit.
  std::int32_t signal = 0;
  std::int32_t exit_code = 0;
  /// "waitpid" (reaped by the coordinator) or "lease" (still running but
  /// its heartbeat lapsed — SIGSTOPped or livelocked; the coordinator
  /// kills it to make fail-stop true).
  std::string detected_by = "waitpid";
  double lease_age_seconds = 0.0;
  /// Last state/position the rank beat into its control slot.
  std::uint8_t state_at_death = 0;
  std::int32_t pos_at_death = 0;
  /// Survivors' waits targeting the dead rank at detection time.
  std::vector<OrphanedWait> orphaned;

  std::string summary() const;
  JsonValue to_json() const;
};

/// Thrown by the shm coordinator when a worker process dies. An Error, so
/// run_with_recovery's restart loop catches it like any failed attempt.
class ProcFailureError : public Error {
 public:
  ProcFailureError(std::string what,
                   std::shared_ptr<const ProcFailureReport> report)
      : Error(std::move(what)), report_(std::move(report)) {}

  const ProcFailureReport* report() const { return report_.get(); }

 private:
  std::shared_ptr<const ProcFailureReport> report_;
};

}  // namespace rapid::rt
