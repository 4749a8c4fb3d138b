#include "rapid/rt/rank_protocol.hpp"

#include "rapid/support/str.hpp"

namespace rapid::rt {

RankProtocol::RankProtocol(const RunPlan& plan, ProcId rank,
                           const RunConfig& config, std::int64_t alignment)
    : plan_(plan),
      active_(config.active_memory),
      num_procs_(static_cast<std::size_t>(plan.num_procs)),
      order_(plan.procs[rank].order),
      memory_(std::make_unique<ProcMemory>(plan, rank,
                                           config.capacity_per_proc, alignment,
                                           config.alloc_policy,
                                           config.slab_arena)) {
  if (!active_) memory_->preallocate_all();
  const std::vector<DataId>& permanents = plan.procs[rank].permanents;
  owned_index_.assign(static_cast<std::size_t>(plan.graph->num_data()), -1);
  current_version_.assign(permanents.size(), 0);
  for (std::size_t i = 0; i < permanents.size(); ++i) {
    const DataId d = permanents[i];
    owned_index_[d] = static_cast<std::int32_t>(i);
    epoch_base_.push_back(epoch_remaining_.size());
    for (const std::vector<TaskId>& epoch : plan.objects[d].epochs) {
      epoch_remaining_.push_back(static_cast<std::int32_t>(epoch.size()));
    }
  }
  known_addrs_.assign(permanents.size() * num_procs_, mem::kNullOffset);
  sent_seq_.assign(known_addrs_.size(), 0);
  suspended_.resize(num_procs_);
  batch_by_dest_.resize(num_procs_);
  addr_epoch_.assign(num_procs_, 0);
  scanned_epoch_.assign(num_procs_, 0);
  pkg_seq_sent_.assign(num_procs_, 0);
  pkg_seq_seen_.assign(num_procs_, 0);
}

MapResult RankProtocol::perform_map() {
  MapResult map = memory_->perform_map(pos_);
  ++maps_;
  return map;
}

std::span<const ContentSend> RankProtocol::finish_task() {
  const TaskId t = order_[pos_];
  ++pos_;
  count(kCtrTasksExecuted);
  completed_sends_.clear();
  for (const auto& [d, v] : plan_.tasks[t].epoch_memberships) {
    const std::size_t i = owned(d);
    if (--epoch_remaining_[epoch_base_[i] + v - 1] != 0) continue;
    RAPID_CHECK(current_version_[i] == v - 1,
                "versions completed out of order");
    current_version_[i] = v;
    for (ProcId dest :
         plan_.objects[d].sends_by_version[static_cast<std::size_t>(v)]) {
      completed_sends_.push_back(ContentSend{d, v, dest});
    }
  }
  return completed_sends_;
}

bool RankProtocol::learn_addr(DataId d, ProcId reader, mem::Offset offset) {
  mem::Offset& known = known_addrs_[slot(d, reader)];
  if (known != mem::kNullOffset) return false;
  known = offset;
  ++addr_epoch_[reader];
  return true;
}

std::uint32_t RankProtocol::stamp_put(const ContentSend& s) {
  RAPID_CHECK(current_version(s.object) == s.version,
              cat("object ", plan_.graph->data(s.object).name,
                  " overwritten before version ", s.version, " was sent"));
  const std::size_t i = slot(s.object, s.dest);
  RAPID_CHECK(known_addrs_[i] != mem::kNullOffset, "put without address");
  count(kCtrContentMessages);
  count(kCtrContentBytes, plan_.graph->data(s.object).size_bytes);
  return ++sent_seq_[i];
}

void RankProtocol::suspend(const ContentSend& s) {
  RAPID_CHECK(active_, "baseline must know every address");
  suspended_[s.dest].push_back(s);
  ++suspended_count_;
  count(kCtrSuspendedSends);
}

std::optional<ContentSend> RankProtocol::take_suspended(DataId d,
                                                        std::int32_t version,
                                                        ProcId dest) {
  auto& queue = suspended_[dest];
  const auto it = std::find_if(queue.begin(), queue.end(), [&](auto& s) {
    return s.object == d && s.version == version;
  });
  if (it == queue.end()) return std::nullopt;
  const ContentSend s = *it;
  queue.erase(it);
  --suspended_count_;
  return s;
}

AddrPackage RankProtocol::stamp_package(ProcId dest, AddrPackage pkg) {
  pkg.seq = ++pkg_seq_sent_[dest];
  pkg.crc = pkg.checksum();
  return pkg;
}

void RankProtocol::package_sent(const AddrPackage& pkg) {
  count(kCtrAddrPackages);
  count(kCtrAddrEntries, static_cast<std::int64_t>(pkg.entries.size()));
}

RankProtocol::Install RankProtocol::install_package(const AddrPackage& pkg,
                                                    bool verify_crc) {
  if (pkg.seq != 0) {
    std::uint32_t& last_seen = pkg_seq_seen_[pkg.reader];
    if (pkg.seq <= last_seen) {
      // Installed already; one lifetime window per object keeps the
      // offsets identical, so only the count matters.
      count(kCtrDupSuppressions);
      return Install::kDuplicate;
    }
    if (verify_crc && pkg.crc != pkg.checksum()) {
      // last_seen stays: the waiter's re-request carries the same
      // addresses and heals the loss.
      count(kCtrChecksumRejections);
      return Install::kCorrupt;
    }
    last_seen = pkg.seq;
  }
  for (const auto& [d, offset] : pkg.entries) {
    known_addrs_[slot(d, pkg.reader)] = offset;
  }
  ++addr_epoch_[pkg.reader];
  return Install::kInstalled;
}

CounterTable RankProtocol::counters() const {
  CounterTable c = counters_;
  c[kCtrMaps] = maps_;
  c[kCtrPeakBytes] = memory_->peak_bytes();
  return c;
}

}  // namespace rapid::rt
