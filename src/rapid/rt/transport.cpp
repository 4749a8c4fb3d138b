#include "rapid/rt/transport.hpp"

#include <deque>
#include <mutex>

#include "rapid/support/check.hpp"
#include "rapid/support/str.hpp"

namespace rapid::rt {

const char* to_string(TransportKind k) {
  switch (k) {
    case TransportKind::kInProc: return "inproc";
    case TransportKind::kShm: return "shm";
  }
  return "?";
}

TransportKind transport_from_string(const std::string& s) {
  if (s == "inproc") return TransportKind::kInProc;
  if (s == "shm") return TransportKind::kShm;
  throw Error(cat("unknown transport '", s, "' (want inproc|shm)"));
}

namespace {

/// The threads-in-one-address-space backend: exactly the pre-transport
/// executor's data plane. Windows are heap slabs plus per-slot atomic
/// arrays; the mailbox is a mutex-guarded deque per (dest, src); the NACK
/// inbox a mutex-guarded deque per dest; bells are condvar Doorbells. The
/// drain orders, lock scopes, and memory orderings below are
/// line-for-line the ones the executor used before the seam existed —
/// that identity is what transport_test's counter-reconciliation checks.
class InProcTransport final : public Transport {
 public:
  InProcTransport(std::int32_t num_procs, std::int64_t num_data,
                  std::int64_t num_tasks, std::int64_t heap_bytes)
      : num_procs_(num_procs) {
    procs_.reserve(static_cast<std::size_t>(num_procs));
    for (std::int32_t q = 0; q < num_procs; ++q) {
      auto p = std::make_unique<PerProc>();
      const auto nd = static_cast<std::size_t>(num_data);
      const auto nt = static_cast<std::size_t>(num_tasks);
      p->heap.resize(static_cast<std::size_t>(heap_bytes));
      p->received_version = std::make_unique<std::atomic<std::int32_t>[]>(nd);
      p->received_crc = std::make_unique<std::atomic<std::uint32_t>[]>(nd);
      p->put_seq = std::make_unique<std::atomic<std::uint32_t>[]>(nd);
      for (std::size_t d = 0; d < nd; ++d) {
        p->received_version[d].store(-1, std::memory_order_relaxed);
        p->received_crc[d].store(0, std::memory_order_relaxed);
        p->put_seq[d].store(0, std::memory_order_relaxed);
      }
      p->flags = std::make_unique<std::atomic<std::uint8_t>[]>(nt);
      for (std::size_t t = 0; t < nt; ++t) {
        p->flags[t].store(0, std::memory_order_relaxed);
      }
      p->mailbox.resize(static_cast<std::size_t>(num_procs));
      procs_.push_back(std::move(p));
    }
    status_ = std::make_unique<LightStatus[]>(
        static_cast<std::size_t>(num_procs));
  }

  TransportKind kind() const override { return TransportKind::kInProc; }
  bool cross_process() const override { return false; }
  std::int32_t num_procs() const override { return num_procs_; }

  WindowView window(ProcId q) override {
    PerProc& p = *procs_[static_cast<std::size_t>(q)];
    WindowView v;
    v.heap = p.heap.data();
    v.received_version = p.received_version.get();
    v.received_crc = p.received_crc.get();
    v.put_seq = p.put_seq.get();
    v.flags = p.flags.get();
    return v;
  }

  bool try_send_addr_package(ProcId from, ProcId dest, const AddrPackage& pkg,
                             std::int32_t slot_bound,
                             std::int32_t copies) override {
    PerProc& dst = *procs_[static_cast<std::size_t>(dest)];
    std::lock_guard<std::mutex> lock(dst.mailbox_m);
    auto& slot = dst.mailbox[static_cast<std::size_t>(from)];
    if (static_cast<std::int32_t>(slot.size()) >= slot_bound) return false;
    for (std::int32_t c = 0; c < copies; ++c) slot.push_back(pkg);
    dst.mailbox_pending.fetch_add(copies, std::memory_order_release);
    return true;
  }

  bool addr_packages_pending(ProcId me) const override {
    return procs_[static_cast<std::size_t>(me)]->mailbox_pending.load(
               std::memory_order_acquire) != 0;
  }

  void drain_addr_packages(ProcId me, std::vector<AddrPackage>* out) override {
    PerProc& mine = *procs_[static_cast<std::size_t>(me)];
    std::lock_guard<std::mutex> lock(mine.mailbox_m);
    for (auto& slot : mine.mailbox) {
      while (!slot.empty()) {
        out->push_back(std::move(slot.front()));
        slot.pop_front();
      }
    }
    mine.mailbox_pending.store(0, std::memory_order_relaxed);
  }

  void push_nack(ProcId dest, const NackRequest& n) override {
    PerProc& dst = *procs_[static_cast<std::size_t>(dest)];
    {
      std::lock_guard<std::mutex> lock(dst.nack_m);
      dst.nacks.push_back(n);
    }
    dst.nack_pending.fetch_add(1, std::memory_order_release);
  }

  bool nacks_pending(ProcId me) const override {
    return procs_[static_cast<std::size_t>(me)]->nack_pending.load(
               std::memory_order_acquire) != 0;
  }

  void drain_nacks(ProcId me, std::vector<NackRequest>* out) override {
    PerProc& mine = *procs_[static_cast<std::size_t>(me)];
    {
      std::lock_guard<std::mutex> lock(mine.nack_m);
      out->assign(mine.nacks.begin(), mine.nacks.end());
      mine.nacks.clear();
    }
    mine.nack_pending.store(0, std::memory_order_release);
  }

  Bell& data_bell() override { return bell_; }
  Bell& control_bell() override { return control_bell_; }

  void request_abort() override {
    abort_.store(true, std::memory_order_release);
  }
  bool aborted() const override {
    return abort_.load(std::memory_order_acquire);
  }

  std::int32_t note_quiescent(ProcId) override {
    return quiescent_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  std::int32_t quiescent_count() const override {
    return quiescent_.load(std::memory_order_acquire);
  }

  void report_failure(ProcId, FailureKind kind,
                      const std::string& text) override {
    std::lock_guard<std::mutex> lock(error_m_);
    errors_.push_back(text);
    if (first_text_.empty()) {
      first_text_ = text;
      first_kind_ = kind;
    }
  }
  bool any_failure() const override {
    std::lock_guard<std::mutex> lock(error_m_);
    return !first_text_.empty();
  }
  FailureKind first_failure_kind() const override {
    std::lock_guard<std::mutex> lock(error_m_);
    return first_kind_;
  }
  std::vector<std::string> failure_texts() const override {
    std::lock_guard<std::mutex> lock(error_m_);
    return errors_;
  }

  void beat(ProcId q, std::uint8_t state, std::int32_t pos) override {
    LightStatus& s = status_[static_cast<std::size_t>(q)];
    s.state.store(state, std::memory_order_release);
    s.pos.store(pos, std::memory_order_release);
  }

  // The same store/load orders as the shm control slots: the wait fields
  // relaxed, then the exhaustion flag with release.
  void beat_wait(ProcId q, DataId object, std::int32_t version, TaskId flag,
                 ProcId map_dest, std::int32_t retry_attempts, bool exhausted,
                 std::int64_t wait_started_ns) override {
    LightStatus& s = status_[static_cast<std::size_t>(q)];
    s.wait_obj.store(object, std::memory_order_relaxed);
    s.wait_ver.store(version, std::memory_order_relaxed);
    s.wait_flag.store(flag, std::memory_order_relaxed);
    s.wait_map_dest.store(map_dest, std::memory_order_relaxed);
    s.wait_retries.store(retry_attempts, std::memory_order_relaxed);
    s.wait_started_ns.store(wait_started_ns, std::memory_order_relaxed);
    s.wait_exhausted.store(exhausted, std::memory_order_release);
  }

  LightState light(ProcId q) const override {
    const LightStatus& s = status_[static_cast<std::size_t>(q)];
    LightState out;
    out.state = s.state.load(std::memory_order_acquire);
    out.pos = s.pos.load(std::memory_order_acquire);
    out.retries_exhausted = s.wait_exhausted.load(std::memory_order_acquire);
    out.waiting_object = s.wait_obj.load(std::memory_order_relaxed);
    out.waiting_version = s.wait_ver.load(std::memory_order_relaxed);
    out.waiting_flag = s.wait_flag.load(std::memory_order_relaxed);
    out.map_dest = s.wait_map_dest.load(std::memory_order_relaxed);
    out.retry_attempts = s.wait_retries.load(std::memory_order_relaxed);
    out.wait_started_ns = s.wait_started_ns.load(std::memory_order_relaxed);
    return out;
  }

 private:
  struct PerProc {
    std::vector<std::byte> heap;
    std::unique_ptr<std::atomic<std::int32_t>[]> received_version;
    std::unique_ptr<std::atomic<std::uint8_t>[]> flags;
    std::unique_ptr<std::atomic<std::uint32_t>[]> received_crc;
    std::unique_ptr<std::atomic<std::uint32_t>[]> put_seq;

    std::mutex mailbox_m;
    std::vector<std::deque<AddrPackage>> mailbox;  // per source proc
    std::atomic<std::int32_t> mailbox_pending{0};

    std::mutex nack_m;
    std::deque<NackRequest> nacks;
    std::atomic<std::int32_t> nack_pending{0};
  };

  struct alignas(64) LightStatus {
    std::atomic<std::uint8_t> state{0};
    std::atomic<std::int32_t> pos{0};
    std::atomic<DataId> wait_obj{graph::kInvalidData};
    std::atomic<std::int32_t> wait_ver{-1};
    std::atomic<TaskId> wait_flag{graph::kInvalidTask};
    std::atomic<ProcId> wait_map_dest{graph::kInvalidProc};
    std::atomic<std::int32_t> wait_retries{0};
    std::atomic<bool> wait_exhausted{false};
    std::atomic<std::int64_t> wait_started_ns{0};
  };

  const std::int32_t num_procs_;
  std::vector<std::unique_ptr<PerProc>> procs_;
  std::unique_ptr<LightStatus[]> status_;

  Doorbell bell_;
  Doorbell control_bell_;
  std::atomic<bool> abort_{false};
  std::atomic<std::int32_t> quiescent_{0};

  mutable std::mutex error_m_;
  std::string first_text_;
  std::vector<std::string> errors_;
  FailureKind first_kind_ = FailureKind::kNone;
};

}  // namespace

std::unique_ptr<Transport> make_inproc_transport(
    std::int32_t num_procs, std::int64_t num_data, std::int64_t num_tasks,
    std::int64_t heap_bytes_per_proc) {
  return std::make_unique<InProcTransport>(num_procs, num_data, num_tasks,
                                           heap_bytes_per_proc);
}

}  // namespace rapid::rt
