#include "rapid/svc/admission.hpp"

#include "rapid/rt/map_engine.hpp"
#include "rapid/support/str.hpp"

namespace rapid::svc {

RunDemand compute_demand(const rt::RunPlan& plan,
                         const rt::RunConfig& config) {
  RunDemand demand;
  demand.peak_bytes_per_proc.reserve(
      static_cast<std::size_t>(plan.num_procs));
  // Alignment 8 matches the threaded executor's arenas, so the replayed
  // peaks are the bytes the real run will touch, not the Def. 5 lower bound.
  const rt::ReplayOptions options{config.capacity_per_proc, 8,
                                  config.alloc_policy, config.slab_arena,
                                  config.active_memory};
  for (rt::ProcId p = 0; p < plan.num_procs; ++p) {
    const rt::MapReplay replay = rt::replay_maps(plan, p, options);
    demand.maps += static_cast<std::int64_t>(replay.maps.size());
    if (!replay.ok()) {
      demand.executable = false;
      demand.failure = replay.failure.message;  // names processor/position
      return demand;
    }
    demand.peak_bytes_per_proc.push_back(replay.peak_bytes);
    demand.total_bytes += replay.peak_bytes;
  }
  return demand;
}

const char* to_string(AdmissionVerdict verdict) {
  switch (verdict) {
    case AdmissionVerdict::kAdmitted:
      return "admitted";
    case AdmissionVerdict::kQueued:
      return "queued";
    case AdmissionVerdict::kRejected:
      return "rejected";
    case AdmissionVerdict::kShed:
      return "shed";
  }
  return "?";
}

JsonValue AdmissionReport::to_json() const {
  JsonValue doc = JsonValue::object();
  doc["verdict"] = to_string(verdict);
  doc["run_id"] = run_id;
  doc["spec"] = spec;
  doc["need_bytes"] = need_bytes;
  doc["budget_bytes"] = budget_bytes;
  doc["reserved_bytes"] = reserved_bytes;
  doc["shortfall_bytes"] = shortfall_bytes;
  doc["queue_depth"] = queue_depth;
  doc["reason"] = reason;
  return doc;
}

}  // namespace rapid::svc
