// One rank's share of the five-state protocol (paper Fig. 3(b)), driven by
// both executors: MAPs, epoch countdown, address table and put stamps,
// routing, suspended queues and the CQ drain, address packages, counters.
// Like Theorem 1 it argues one processor at a time — no threads, transport
// or clock — and every call runs on the rank's own thread, so the counters
// are plain integers the driver reads after the rank stopped.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "rapid/obs/trace.hpp"
#include "rapid/rt/map_engine.hpp"
#include "rapid/rt/plan.hpp"
#include "rapid/rt/report.hpp"

namespace rapid::rt {

class RankProtocol {
 public:
  /// Builds the MAP engine (`alignment` 1 in the simulator, 8 in the
  /// threaded executor; baseline mode preallocates every volatile), the
  /// epoch counters and the address table. Throws NonExecutableError.
  RankProtocol(const RunPlan& plan, ProcId rank, const RunConfig& config,
               std::int64_t alignment);

  ProcMemory& memory() { return *memory_; }
  /// Schedule position: the index of the next task in the rank's order.
  std::int32_t pos() const { return pos_; }
  bool finished() const { return pos_ >= std::ssize(order_); }
  TaskId current_task() const { return order_[pos_]; }
  /// Moves the rank into protocol state `s`; whether that is a change (the
  /// tracers record state entries change-only).
  bool enter(obs::ProtoState s) { return std::exchange(state_, s) != s; }
  /// A MAP must run before the task at pos() (active memory only).
  bool needs_map() const { return active_ && memory_->needs_map(pos_); }
  /// The MAP at pos(); its packages come back unstamped. Throws
  /// NonExecutableError (paper Def. 6).
  MapResult perform_map();

  /// SND of the task at pos(): advances pos(), counts down the task's
  /// epochs and returns the content sends of every version that completed
  /// (valid until the next call).
  std::span<const ContentSend> finish_task();
  /// Latest completed version of owned object d (0 = initial content).
  std::int32_t current_version(DataId d) const {
    return current_version_[owned(d)];
  }

  /// Offset of owned object d in reader's heap; kNullOffset = unknown.
  mem::Offset addr(DataId d, ProcId reader) const {
    return known_addrs_[slot(d, reader)];
  }
  /// Learns an address outside a package (a re-request carries the
  /// reader's buffer; baseline mode knows them all). Returns whether it
  /// was unknown.
  bool learn_addr(DataId d, ProcId reader, mem::Offset offset);
  /// Puts issued into (d, reader)'s slot so far, resends included.
  std::uint32_t sent_seq(DataId d, ProcId reader) const {
    return sent_seq_[slot(d, reader)];
  }
  /// Stamps one put and counts its message and bytes; checks that its
  /// address is known and that no later write overtook its version
  /// (Theorem 1). Returns the put's 1-based sequence number.
  std::uint32_t stamp_put(const ContentSend& s);

  // Each `transmit(dest, batch)` call below is one coalesced put round to
  // `dest`, counted as one put batch; the driver stamps each put in it.

  /// Sends with a known address go out as one batch per destination, in
  /// program order; the rest are suspended, each counted once.
  template <class Transmit>
  void route(std::span<const ContentSend> sends, Transmit&& transmit);
  /// CQ: each destination whose addresses advanced since its last scan
  /// releases its now-addressable suspended sends, in program order, as one
  /// batch. Returns whether anything was released.
  template <class Transmit>
  bool drain(Transmit&& transmit);
  /// Removes the suspended send of (d, version) to dest, if queued.
  std::optional<ContentSend> take_suspended(DataId d, std::int32_t version,
                                            ProcId dest);
  std::int64_t suspended_count() const { return suspended_count_; }
  std::int64_t suspended_to(ProcId dest) const {
    return std::ssize(suspended_[dest]);
  }
  /// Per reader: how many times its addresses advanced.
  const std::vector<std::uint32_t>& addr_epoch() const { return addr_epoch_; }

  /// An outgoing package with its per-destination sequence number and CRC.
  AddrPackage stamp_package(ProcId dest, AddrPackage pkg);
  /// Counts a package, and its entries, that left the rank.
  void package_sent(const AddrPackage& pkg);
  enum class Install : std::uint8_t { kInstalled, kDuplicate, kCorrupt };
  /// RA for one package: a replayed sequence number is suppressed, a bad
  /// CRC (when `verify_crc`) rejected before any entry lands — both
  /// counted — otherwise every entry is installed.
  Install install_package(const AddrPackage& pkg, bool verify_crc);

  void count(Counter c, std::int64_t n = 1) { counters_[c] += n; }
  std::int64_t counter(Counter c) const { return counters_[c]; }
  /// The rank's table, its MAP count and heap peak filled in.
  CounterTable counters() const;

 private:
  std::size_t owned(DataId d) const {
    return static_cast<std::size_t>(owned_index_[d]);
  }
  std::size_t slot(DataId d, ProcId reader) const {
    return owned(d) * num_procs_ + static_cast<std::size_t>(reader);
  }
  void suspend(const ContentSend& s);

  const RunPlan& plan_;
  const bool active_;
  const std::size_t num_procs_;
  const std::vector<TaskId>& order_;
  std::unique_ptr<ProcMemory> memory_;
  std::int32_t pos_ = 0;
  std::int32_t maps_ = 0;
  obs::ProtoState state_ = obs::ProtoState::kCount;  // none yet

  /// Per owned object (dense index among the rank's permanents, -1 for
  /// other ranks' objects): latest version, and where its epoch counters
  /// start (epoch v at base + v - 1).
  std::vector<std::int32_t> owned_index_;
  std::vector<std::int32_t> current_version_;
  std::vector<std::size_t> epoch_base_;
  std::vector<std::int32_t> epoch_remaining_;
  std::vector<ContentSend> completed_sends_;  // finish_task's result

  /// Flat at [owned(d) * num_procs + reader]. One lifetime window per
  /// (object, reader) keeps a slot's address stable, so its put sequence
  /// spans original puts and resends alike.
  std::vector<mem::Offset> known_addrs_;
  std::vector<std::uint32_t> sent_seq_;

  /// Suspended sends per destination; a queue is rescanned only when its
  /// destination's addresses advanced (addr_epoch_ past scanned_epoch_).
  std::vector<std::deque<ContentSend>> suspended_;
  std::vector<std::uint32_t> addr_epoch_;
  std::vector<std::uint32_t> scanned_epoch_;
  std::int64_t suspended_count_ = 0;
  std::vector<std::vector<ContentSend>> batch_by_dest_;  // routing scratch

  std::vector<std::uint32_t> pkg_seq_sent_;  // per destination
  std::vector<std::uint32_t> pkg_seq_seen_;  // per source: replay filter

  CounterTable counters_{};
};

/// Baseline mode: every owner learns every reader address before any rank
/// starts. `rank_of(q)` is rank q's RankProtocol.
template <class RankOf>
void share_baseline_addresses(const RunPlan& plan, RankOf&& rank_of) {
  for (ProcId reader = 0; reader < plan.num_procs; ++reader) {
    for (const sched::VolatileLifetime& v : plan.procs[reader].volatiles) {
      rank_of(plan.graph->data(v.object).owner)
          .learn_addr(v.object, reader,
                      rank_of(reader).memory().offset_of(v.object));
    }
  }
}

template <class Transmit>
void RankProtocol::route(std::span<const ContentSend> sends,
                         Transmit&& transmit) {
  for (const ContentSend& s : sends) {
    if (addr(s.object, s.dest) != mem::kNullOffset) {
      batch_by_dest_[s.dest].push_back(s);
    } else {
      suspend(s);
    }
  }
  for (std::size_t r = 0; r < num_procs_; ++r) {
    auto& batch = batch_by_dest_[r];
    if (batch.empty()) continue;
    count(kCtrPutBatches);
    transmit(static_cast<ProcId>(r), std::span<const ContentSend>(batch));
    batch.clear();
  }
}

template <class Transmit>
bool RankProtocol::drain(Transmit&& transmit) {
  if (suspended_count_ == 0) return false;
  bool released = false;
  for (std::size_t r = 0; r < num_procs_; ++r) {
    auto& queue = suspended_[r];
    if (queue.empty() || scanned_epoch_[r] == addr_epoch_[r]) continue;
    scanned_epoch_[r] = addr_epoch_[r];
    const auto addressable = [this](const ContentSend& s) {
      return addr(s.object, s.dest) != mem::kNullOffset;
    };
    auto& batch = batch_by_dest_[r];
    std::copy_if(queue.begin(), queue.end(), std::back_inserter(batch),
                 addressable);
    suspended_count_ -= static_cast<std::int64_t>(
        std::erase_if(queue, addressable));
    if (batch.empty()) continue;
    count(kCtrPutBatches);
    transmit(static_cast<ProcId>(r), std::span<const ContentSend>(batch));
    batch.clear();
    released = true;
  }
  return released;
}

}  // namespace rapid::rt
