// rapid_verify: audit a workload's schedule + run plan before anyone
// executes it. Builds the requested workload(s) from their specs, runs the
// static plan auditor (Theorem 1 preconditions + the Def. 6 capacity
// replay), prints the findings, and exits non-zero iff any ERROR finding
// survives — the inspector-stage gate the paper's runtime trusts implicitly.
//
//   ./rapid_verify                         # all four seed workloads
//   ./rapid_verify --workload=lu:matrix=goodwin,scale=0.25 --capacity-frac=0.6
//   ./rapid_verify --workload=fig2:sched=rcp --capacity-frac=0
//
// --workload takes any num/shm_workloads.hpp spec, or `fig2` (the paper's
// Figure 2 graph, which has no task bodies and so is the one target built
// outside the grammar's apps; its procs and sched keys still apply).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "rapid/num/shm_workloads.hpp"
#include "rapid/support/exit_codes.hpp"
#include "rapid/support/flags.hpp"
#include "rapid/support/str.hpp"
#include "rapid/verify/auditor.hpp"

namespace {

using namespace rapid;

/// `all`: the seed workloads at scale 0.25, block 6, 4 processors, MPO.
const std::vector<std::string> kSeedSpecs = {
    "cholesky:matrix=bcsstk24,scale=0.25,block=6,procs=4,sched=mpo",
    "lu:matrix=goodwin,scale=0.25,block=6,procs=4,sched=mpo",
    "trisolve:matrix=bcsstk24,scale=0.25,block=6,procs=4,sched=mpo",
    "nbody:procs=4,sched=mpo",
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("workload", "all",
               "workload spec (num/shm_workloads.hpp grammar), fig2, or all "
               "(the four seed workloads)");
  flags.define("capacity-frac", "0",
               "per-proc capacity as a fraction of TOT (the paper's §5.1 "
               "sweep axis); 0 audits at the executability threshold "
               "MIN_MEM + MIN_MEM/8 (the first-fit fragmentation slack the "
               "test suite uses), negative skips the capacity replay");
  flags.define("mailbox-slots", "1", "address-package slots per pair");
  flags.define("strict", "false",
               "exit non-zero on warnings too (MBX-CROSS/REC-CROSS and "
               "friends), for CI lanes that want advisory findings to "
               "block");
  flags.define("verbose", "false", "print the full report even when clean");
  try {
    flags.parse(argc, argv);
  } catch (const rapid::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return kExitInfraError;
  }
  if (flags.help_requested()) return kExitOk;

  const std::vector<std::string> specs =
      flags.get("workload") == "all"
          ? kSeedSpecs
          : std::vector<std::string>{flags.get("workload")};
  const double capacity_frac = flags.get_double("capacity-frac");

  int total_errors = 0;
  int total_warnings = 0;
  for (const std::string& spec : specs) {
    try {
      const num::WorkloadSpec parsed = num::parse_workload_spec(spec);
      std::unique_ptr<num::ShmWorkload> workload;
      graph::TaskGraph fig2;
      num::PlannedGraph fig2_plan;
      if (parsed.app == "fig2") {
        fig2 = graph::make_paper_figure2_graph();
        fig2_plan = num::plan_graph(fig2, parsed);
      } else {
        workload = num::build_shm_workload(spec);
      }
      const graph::TaskGraph& graph = workload ? workload->graph() : fig2;
      const num::PlannedGraph& planned = workload ? *workload : fig2_plan;

      verify::AuditOptions options;
      options.mailbox_slots =
          static_cast<std::int32_t>(flags.get_int("mailbox-slots"));
      if (capacity_frac < 0) {
        options.capacity_per_proc = 0;  // skip the replay
      } else if (capacity_frac == 0) {
        // MIN_MEM is the Def. 6 bound for an ideal allocator; first-fit
        // placement can fragment just above it (the paper's §6 "special
        // memory allocator" question). Audit at the same slacked threshold
        // the repo's executability tests use.
        options.capacity_per_proc = planned.min_mem + planned.min_mem / 8;
      } else {
        options.capacity_per_proc = static_cast<std::int64_t>(
            capacity_frac * static_cast<double>(planned.tot_mem));
      }

      const verify::AuditReport report =
          verify::audit_plan(graph, planned.plan.schedule, planned.plan,
                             options);
      std::printf("%s  %s  (%d tasks, %d objects, %d procs, capacity %lld "
                  "bytes, MIN_MEM %lld, TOT %lld)\n",
                  spec.c_str(), report.summary().c_str(), graph.num_tasks(),
                  graph.num_data(), parsed.procs,
                  static_cast<long long>(options.capacity_per_proc),
                  static_cast<long long>(planned.min_mem),
                  static_cast<long long>(planned.tot_mem));
      if (!report.clean() || flags.get_bool("verbose")) {
        std::printf("%s", report.to_string().c_str());
      }
      total_errors += report.errors();
      total_warnings += report.warnings();
    } catch (const rapid::Error& e) {
      std::fprintf(stderr, "%s: audit failed to run: %s\n", spec.c_str(),
                   e.what());
      return kExitInfraError;
    }
  }
  if (total_errors > 0) return kExitFindings;
  if (flags.get_bool("strict") && total_warnings > 0) return kExitFindings;
  return kExitOk;
}
