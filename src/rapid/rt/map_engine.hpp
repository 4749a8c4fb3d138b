// Per-processor memory state plus the Memory Allocation Point procedure
// (paper §3.3), shared verbatim by the simulator and the threaded executor:
//   1. free volatile objects that are dead at the current position,
//   2. allocate volatile space forward along the execution chain, stopping
//      before the first task whose objects no longer fit (that position is
//      the next MAP),
//   3. assemble address packages for the owners of the newly allocated
//      volatiles.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "rapid/mem/arena.hpp"
#include "rapid/rt/plan.hpp"
#include "rapid/rt/report.hpp"

namespace rapid::rt {

/// One address package: (object, offset in the reader's arena) entries for
/// a single owner processor. The integrity plane stamps each package with a
/// per-(sender → owner) sequence number and a CRC32C at send time: the
/// receiver suppresses replays by sequence and rejects corrupted packages
/// before installing any entry.
struct AddrPackage {
  ProcId reader = graph::kInvalidProc;  // who allocated the buffers
  std::vector<std::pair<DataId, mem::Offset>> entries;
  /// 1-based per-(sender, owner) sequence number; 0 = unstamped (never sent).
  std::uint32_t seq = 0;
  /// CRC32C over (reader, seq, entries), folded field by field so struct
  /// padding never enters the digest. Computed by checksum() at send time.
  std::uint32_t crc = 0;

  /// Digest of the package's logical content (everything but `crc`).
  std::uint32_t checksum() const;
};

struct MapResult {
  std::vector<DataId> freed;
  std::vector<DataId> allocated;
  /// Address packages grouped by destination owner processor.
  std::vector<std::pair<ProcId, AddrPackage>> packages;
  /// Tasks [0, alloc_upto) now have all volatile inputs allocated; the next
  /// MAP fires when execution reaches alloc_upto.
  std::int32_t alloc_upto = 0;
};

class ProcMemory {
 public:
  /// Allocates all permanent objects up front; throws NonExecutableError if
  /// they alone exceed the capacity. `alignment` is 1 by default so that
  /// capacity semantics match Def. 5 byte-for-byte (the simulator's mode);
  /// the threaded executor passes 8 because its buffers hold doubles — all
  /// of its objects have sizes that are multiples of 8, so accounting is
  /// unchanged.
  ///
  /// `slab_arena` enables the arena's size-class slab fast path, with the
  /// classes derived deterministically from this processor's planned
  /// volatile sizes (the MAP alloc/free population) — so a conformance or
  /// audit replay constructed from the same plan and flag reproduces the
  /// executor's MAP placements exactly. Byte accounting (peak_bytes,
  /// in_use_bytes) is identical either way.
  ProcMemory(const RunPlan& plan, ProcId proc, std::int64_t capacity,
             std::int64_t alignment = 1,
             mem::AllocPolicy policy = mem::AllocPolicy::kFirstFit,
             bool slab_arena = false);

  /// The slab classes `slab_arena = true` installs: the dominant rounded
  /// volatile sizes of this processor's plan (up to 8 classes, each backing
  /// at least 4 planned objects). Exposed so tests and replays can assert
  /// the derivation is deterministic.
  static mem::SlabConfig derive_slab_config(const RunPlan& plan, ProcId proc,
                                            std::int64_t alignment);

  /// True when execution at `pos` has crossed the allocated prefix, i.e. a
  /// MAP must run before the task at `pos` starts.
  bool needs_map(std::int32_t pos) const;

  /// Runs the MAP at `pos`. Throws NonExecutableError if even the current
  /// task's objects cannot be allocated after freeing every dead volatile
  /// (the schedule is non-executable under this capacity, Def. 6).
  MapResult perform_map(std::int32_t pos);

  /// Baseline (original RAPID) mode: allocates every volatile object at
  /// once; throws NonExecutableError if the total does not fit.
  void preallocate_all();

  /// Arena offset of a live object (permanent or allocated volatile).
  mem::Offset offset_of(DataId d) const;
  bool is_allocated(DataId d) const;

  /// Called for every volatile freed by a MAP, with its (offset, size)
  /// region — after the deallocation and strictly before any reallocation
  /// in the same MAP. The threaded executor uses it to poison freed heap
  /// regions in debug builds so use-after-free across MAP reuse reads as
  /// garbage instead of stale-but-plausible content, and to reset the
  /// object's reader-side verification state so a recycled region is never
  /// trusted on the strength of a previous lifetime's checksum (the
  /// resend-safety contract: a region freed here has no put in flight to
  /// it, so clearing per-object state here is race-free).
  using FreeHook = std::function<void(DataId, mem::Offset, std::int64_t)>;
  void set_free_hook(FreeHook hook) { free_hook_ = std::move(hook); }

  std::int64_t peak_bytes() const { return arena_.stats().peak_in_use; }
  /// Bytes currently allocated (permanents + live volatiles). The tracer
  /// samples this after each MAP for the occupancy timeline.
  std::int64_t in_use_bytes() const { return arena_.stats().in_use; }
  const mem::Arena& arena() const { return arena_; }

 private:
  enum class VolState : std::uint8_t { kUnallocated, kAllocated, kFreed };

  const RunPlan& plan_;
  const ProcId proc_;
  mem::Arena arena_;

  std::unordered_map<DataId, mem::Offset> offsets_;  // live objects
  std::unordered_map<DataId, std::int32_t> vol_index_;  // -> plan volatiles
  std::vector<VolState> vol_state_;   // parallel to plan volatiles
  std::multimap<std::int32_t, DataId> allocated_by_last_pos_;
  std::int32_t alloc_upto_ = 0;
  FreeHook free_hook_;
};

/// Arena settings of a symbolic MAP replay; match the run's RunConfig.
struct ReplayOptions {
  std::int64_t capacity = 0;
  std::int64_t alignment = 1;  // 8 for the threaded executor's arenas
  mem::AllocPolicy policy = mem::AllocPolicy::kFirstFit;
  bool slab = false;
  bool active = true;  // false: baseline preallocation, no MAPs
};

/// One MAP as the replay performed it.
struct ReplayedMap {
  std::int32_t pos = 0;
  std::int64_t freed_bytes = 0;
  std::int64_t alloc_bytes = 0;
  std::vector<DataId> allocated;
  std::int32_t alloc_upto = 0;
  std::vector<ProcId> package_dests;  // one per address package
  std::int64_t in_use_after = 0;      // arena bytes right after the MAP
};

enum class ReplayFailureKind : std::uint8_t {
  kNone,
  kPerm,  // permanent objects alone exceed the capacity
  kTot,   // baseline mode: preallocated volatiles do not fit
  kMap,   // a MAP cannot allocate its task's volatiles (Def. 6)
};

/// Where and why a replay stopped. For kMap the arena figures are taken
/// after the MAP freed every dead volatile and rolled back the failing
/// task's partial allocations; pos, task and worst are kMap only.
struct ReplayFailure {
  ReplayFailureKind kind = ReplayFailureKind::kNone;
  std::int32_t pos = -1;
  TaskId task = graph::kInvalidTask;
  /// Permanent bytes (kPerm), permanent + volatile bytes (kTot), or the
  /// failing task's unallocated volatile bytes (kMap).
  std::int64_t needed_bytes = 0;
  std::int64_t free_bytes = 0;
  std::int64_t largest_free_block = 0;
  DataId worst = graph::kInvalidData;  // largest unallocated volatile
  std::string message;  // the NonExecutableError text
};

struct MapReplay {
  std::vector<ReplayedMap> maps;  // the MAPs that succeeded, in order
  std::int64_t peak_bytes = 0;
  ReplayFailure failure;

  bool ok() const { return failure.kind == ReplayFailureKind::kNone; }
};

/// Replays processor `proc`'s MAP procedure on ProcMemory without running
/// any task: the one replay that admission, the auditor's CAP-* rules and
/// the conformance checker's CONF-CAP reference read. Capacity failures
/// come back in `failure`, never as exceptions.
MapReplay replay_maps(const RunPlan& plan, ProcId proc,
                      const ReplayOptions& options);

/// The first max(floor, frac · tot), frac = start_frac + 0.1 k, at which
/// replay_maps succeeds on every processor: the executors drive the same
/// ProcMemory, so a run there executes. Throws once a failing frac >= 1.5.
std::int64_t first_executable_capacity(const RunPlan& plan, std::int64_t floor,
                                       std::int64_t tot, double start_frac,
                                       ReplayOptions options);

}  // namespace rapid::rt
