// svc_mix: the multi-tenant RuntimeService under a seeded mix of small
// specs, where per-run overhead dominates and kernels do almost nothing.
// One phase is an open loop at a fixed rate, timed by the client from each
// request's due time to its observed completion; the other a closed loop
// (four clients, each waiting for its reply) that measures capacity. About
// 2% of requests name a grid shape the service has not seen, so the
// plan-cache miss path runs in steady state.
#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <malloc.h>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "rapid/num/grid_app.hpp"
#include "rapid/num/shm_workloads.hpp"
#include "rapid/support/rng.hpp"
#include "rapid/support/stopwatch.hpp"
#include "rapid/svc/service.hpp"
#include "rapid/verify/auditor.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using rapid::now_ns;
namespace rt = rapid::rt;
namespace svc = rapid::svc;
namespace obs = rapid::obs;

constexpr int kWorkers = 2;
constexpr int kRanks = 2;    // procs=2 in every spec
/// Closed-loop requests outstanding: twice the workers, so a worker that
/// finishes finds the next request queued instead of waiting for a client
/// to wake up and submit it; with one per worker the figure measured that
/// wake-up chain more than the service's capacity.
constexpr int kClients = 2 * kWorkers;
/// Open-loop arrivals per second: about a ninth of the closed-loop
/// capacity (about 4,300/s on a 4-vCPU host), so the queue stays stable
/// when host steal takes most of it away. At 1,000/s a run at 33% steal
/// (capacity ~840/s) built a backlog and its p50 rose from 0.5 ms to 3 s.
constexpr double kOpenLoopRate = 500.0;
/// Open-loop client threads that wait for replies, each on the oldest
/// request no other waiter holds.
constexpr int kWaiters = 4;
/// runs_per_s is the median of completion rates over windows of the
/// closed loop this long.
constexpr double kRateWindowS = 0.25;
/// After the first (process-cold) start, the service is started and warmed
/// at least this many times more, and until this much time has gone into
/// it; setup_s is the median of those.
constexpr std::size_t kMinSetups = 3;
constexpr double kMinSetupSeconds = 1.0;
constexpr std::int64_t kCapacity = 1 << 20;
constexpr std::int64_t kDeadlineUs = 10'000'000;
constexpr double kColdShare = 0.02;
constexpr int kColdMin = 3;
constexpr int kColdMax = 24;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::array<const char*, 4> kHotSpecs = {
    "grid:rows=8,cols=8,procs=2", "grid:rows=6,cols=10,procs=2",
    "cholesky:grid=8,block=4,procs=2", "lu:grid=8,block=4,procs=2"};

std::string grid_spec(int rows, int cols) {
  return "grid:rows=" + std::to_string(rows) + ",cols=" + std::to_string(cols) +
         ",procs=2";
}

svc::RunRequest make_request(std::string spec, std::int32_t priority) {
  svc::RunRequest req;
  req.spec = std::move(spec);
  req.priority = priority;
  req.config.capacity_per_proc = kCapacity;
  req.config.active_memory = true;
  req.deadline_us = kDeadlineUs;
  return req;
}

/// The seeded request stream shared by all clients: a spec and a priority
/// per request. Cold requests walk a seeded shuffle of grid shapes other
/// than the hot ones, so each is new to the plan cache.
class RequestStream {
 public:
  explicit RequestStream(std::uint64_t seed) : rng_(seed) {
    for (int r = kColdMin; r <= kColdMax; ++r) {
      for (int c = kColdMin; c <= kColdMax; ++c) {
        if ((r == 8 && c == 8) || (r == 6 && c == 10)) continue;
        cold_.emplace_back(r, c);
      }
    }
    for (std::size_t i = cold_.size() - 1; i > 0; --i) {
      std::swap(cold_[i], cold_[rng_.next_below(i + 1)]);
    }
  }

  svc::RunRequest next() {
    std::lock_guard<std::mutex> lock(m_);
    std::string spec;
    if (rng_.next_double() < kColdShare) {
      const auto [r, c] = cold_[next_cold_++ % cold_.size()];
      spec = grid_spec(r, c);
    } else {
      spec = kHotSpecs[rng_.next_below(kHotSpecs.size())];
    }
    return make_request(std::move(spec),
                        static_cast<std::int32_t>(rng_.next_below(4)));
  }

  /// A cold shape that the stream hands out only after every other one.
  std::pair<int, int> spare_cold_shape(std::size_t i) const {
    return cold_[cold_.size() - 1 - i % cold_.size()];
  }

 private:
  std::mutex m_;
  rapid::Rng rng_;
  std::vector<std::pair<int, int>> cold_;
  std::size_t next_cold_ = 0;
};

/// Counts a finished record against the run; returns true when it
/// completed with correct numerics.
bool account(const svc::RunRecord& rec, Result& result) {
  ++result.attempted;
  if (rec.state == svc::RunState::kCompleted && rec.numerics_ok) return true;
  if (rec.state == svc::RunState::kCompleted ||
      rec.state == svc::RunState::kFailed ||
      rec.state == svc::RunState::kRejected) {
    result.finding("service run " + std::to_string(rec.run_id) + " (" +
                   rec.spec + ") " + svc::to_string(rec.state) +
                   ", residual " + std::to_string(rec.residual) + ": " +
                   rec.reason);
  } else {
    ++result.failed;  // shed or expired: no wrong output, but a miss
  }
  return false;
}

/// Starts a service and warms its plan cache with the hot specs. The
/// warm-up requests are fixed, not drawn from the seeded stream, so the
/// measured phases see the same requests however many starts ran.
/// `seconds` is the set-up time: construction and the warm-up submit()
/// calls, each of which builds and admits its plan on the calling thread,
/// so the plans are runnable when the last one returns. The warm-up runs
/// are waited for outside it: their wall followed the host's steal and
/// more than doubled the set-up's spread between runs.
std::unique_ptr<svc::RuntimeService> start_service(Result& result,
                                                   double& seconds) {
  const std::int64_t t0 = now_ns();
  svc::ServiceOptions opts;
  opts.workers = kWorkers;
  // Generous, so the fixed open-loop rate never sheds on a healthy host.
  opts.queue_limit = 1024;
  auto service = std::make_unique<svc::RuntimeService>(opts);
  std::vector<std::int64_t> ids;
  for (const char* spec : kHotSpecs) {
    ids.push_back(service->submit(make_request(spec, 0)));
  }
  const std::int64_t t1 = now_ns();
  result.spans.add("svc.setup", t0, t1);
  seconds = static_cast<double>(t1 - t0) * 1e-9;
  for (const std::int64_t id : ids) account(service->wait(id), result);
  return service;
}

/// Per-request client-side view of a closed-loop run.
struct ClosedSample {
  const svc::RunRecord* record = nullptr;
  std::int64_t submit_ns = 0;
  std::int64_t submitted_ns = 0;
  std::int64_t done_ns = 0;
  TracedRun traced;  // traced, completed runs only
};

struct ClosedLoop {
  std::vector<ClosedSample> samples;
  /// Completions/s per window of kRateWindowS, from the loop's start.
  std::vector<RateWindow> windows;
  /// Completed requests in completion order: when the client saw the
  /// reply, and its latency from the submit() call.
  std::vector<std::int64_t> done_ns;
  std::vector<double> latency_ms;
};

/// One closed-loop client: submits, waits for the reply, repeats until
/// `end_ns`. A traced request gets its own trace, alive until its reply.
void client_loop(svc::RuntimeService& service, RequestStream& stream,
                 std::int64_t end_ns, bool traced,
                 std::vector<ClosedSample>& out) {
  while (now_ns() < end_ns) {
    svc::RunRequest req = stream.next();
    std::unique_ptr<obs::Trace> trace;
    if (traced) {
      trace = std::make_unique<obs::Trace>(kRanks,
                                           obs::TraceConfig{true, 1 << 14});
      req.options.trace = trace.get();
    }
    ClosedSample s;
    s.submit_ns = now_ns();
    const std::int64_t id = service.submit(std::move(req));
    s.submitted_ns = now_ns();
    s.record = &service.wait(id);
    s.done_ns = now_ns();
    if (trace && s.record->state == svc::RunState::kCompleted) {
      s.traced = traced_run(s.record->outcome.report, *trace);
    }
    out.push_back(std::move(s));
  }
}

ClosedLoop closed_loop(svc::RuntimeService& service, RequestStream& stream,
                       double seconds, bool traced) {
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::array<std::vector<ClosedSample>, kClients> per_client;
  std::array<std::exception_ptr, kClients> errors;
  std::vector<std::thread> clients;
  for (int k = 0; k < kClients; ++k) {
    clients.emplace_back([&, k] {
      try {
        client_loop(service, stream, end, traced,
                    per_client[static_cast<std::size_t>(k)]);
      } catch (...) {
        errors[static_cast<std::size_t>(k)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  ClosedLoop out;
  std::vector<std::pair<std::int64_t, double>> completed;
  for (auto& v : per_client) {
    for (ClosedSample& s : v) {
      if (s.record->state == svc::RunState::kCompleted) {
        completed.emplace_back(
            s.done_ns, static_cast<double>(s.done_ns - s.submit_ns) * 1e-6);
      }
      out.samples.push_back(std::move(s));
    }
  }
  std::sort(completed.begin(), completed.end());
  for (const auto& [done, latency] : completed) {
    out.done_ns.push_back(done);
    out.latency_ms.push_back(latency);
  }
  std::vector<double> intervals_s;
  std::int64_t prev = start;
  for (const std::int64_t t : out.done_ns) {
    intervals_s.push_back(static_cast<double>(t - prev) * 1e-9);
    prev = t;
  }
  out.windows = window_rates(intervals_s, kRateWindowS);
  return out;
}

struct OpenLoop {
  std::vector<OpenLoopSample> samples;
  std::vector<std::int64_t> returned_ns;  // when submit() returned
  std::vector<const svc::RunRecord*> records;
};

/// Requests due every 1/kOpenLoopRate s for `seconds`, issued on schedule
/// whatever the backlog. A request is done when a waiter thread sees
/// wait() return for it; the waiters take requests in submit order, so one
/// that finishes while every waiter holds an older request is seen late.
OpenLoop open_loop(svc::RuntimeService& service, RequestStream& stream,
                   double seconds) {
  OpenLoop out;
  const auto count = static_cast<std::size_t>(seconds * kOpenLoopRate);
  out.samples.resize(count);
  out.returned_ns.resize(count);
  out.records.resize(count);
  std::vector<std::int64_t> ids(count);
  std::mutex m;
  std::condition_variable issued_cv;
  std::size_t issued = 0;  // requests submitted so far
  std::size_t claimed = 0;  // requests a waiter has taken
  std::array<std::exception_ptr, kWaiters> errors;
  std::vector<std::thread> waiters;
  for (int k = 0; k < kWaiters; ++k) {
    waiters.emplace_back([&, k] {
      try {
        for (;;) {
          std::size_t i = 0;
          std::int64_t id = 0;
          {
            std::unique_lock<std::mutex> lock(m);
            issued_cv.wait(lock, [&] {
              return claimed < issued || claimed == count;
            });
            if (claimed == count) return;
            i = claimed++;
            id = ids[i];
          }
          const svc::RunRecord& rec = service.wait(id);
          const std::int64_t done = now_ns();
          std::lock_guard<std::mutex> lock(m);
          out.samples[i].done_ns = done;
          out.samples[i].ok =
              rec.state == svc::RunState::kCompleted && rec.numerics_ok;
          out.records[i] = &rec;
        }
      } catch (...) {
        errors[static_cast<std::size_t>(k)] = std::current_exception();
      }
    });
  }
  const std::int64_t t0 = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t due =
        t0 + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 /
                                       kOpenLoopRate);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    svc::RunRequest req = stream.next();
    const std::int64_t sent = now_ns();
    const std::int64_t id = service.submit(std::move(req));
    const std::int64_t returned = now_ns();
    {
      std::lock_guard<std::mutex> lock(m);
      ids[i] = id;
      out.samples[i].due_ns = due;
      out.samples[i].sent_ns = sent;
      out.returned_ns[i] = returned;
      ++issued;
    }
    issued_cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(m);
    issued_cv.notify_all();  // count reached: idle waiters exit
  }
  for (std::thread& t : waiters) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return out;
}

/// Open-loop latency as the service's own timers put it (submit() return
/// plus RunRecord::wait_us and exec_us, from the due time), printed beside
/// the client-observed figure as a cross-check.
std::vector<double> service_timed_latency_ms(const OpenLoop& open) {
  std::vector<double> out;
  for (std::size_t i = 0; i < open.records.size(); ++i) {
    const svc::RunRecord& r = *open.records[i];
    const std::int64_t due_to_return_ns =
        open.returned_ns[i] - open.samples[i].due_ns;
    out.push_back(static_cast<double>(due_to_return_ns) * 1e-6 +
                  static_cast<double>(r.wait_us + r.exec_us) * 1e-3);
  }
  return out;
}

/// submit, queue-wait and exec spans of one request under a request span;
/// the last two come from the service's own RunRecord times.
void add_request_spans(const svc::RunRecord& rec, std::int64_t submit_ns,
                       std::int64_t submitted_ns, SpanLog& spans) {
  const std::int64_t dispatch = submitted_ns + rec.wait_us * 1000;
  const std::int64_t end = dispatch + rec.exec_us * 1000;
  const std::int32_t root =
      spans.add("svc.request", submit_ns, end, -1, rec.run_id);
  spans.add("svc.submit", submit_ns, submitted_ns, root, rec.run_id);
  spans.add("svc.queue_wait", submitted_ns, dispatch, root, rec.run_id);
  spans.add("svc.exec", dispatch, end, root, rec.run_id);
}

std::vector<double> exec_ms(const std::vector<const svc::RunRecord*>& recs) {
  std::vector<double> v;
  for (const svc::RunRecord* r : recs) {
    if (r->state == svc::RunState::kCompleted) {
      v.push_back(static_cast<double>(r->exec_us) * 1e-3);
    }
  }
  return v;
}

std::vector<const svc::RunRecord*> records_of(const ClosedLoop& loop) {
  std::vector<const svc::RunRecord*> v;
  for (const ClosedSample& s : loop.samples) v.push_back(s.record);
  return v;
}

/// Planning of cold shapes, stage by stage, as a cache miss runs it.
void report_planning(const RequestStream& stream, Result& result) {
  constexpr int kShapes = 5;
  std::vector<double> build, order, run_plan, liveness, replay, audit, tasks,
      edges;
  for (int i = 0; i < kShapes; ++i) {
    const auto [rows, cols] =
        stream.spare_cold_shape(static_cast<std::size_t>(i));
    const std::int64_t t0 = now_ns();
    const std::int32_t root = result.spans.add("plan.cold_miss", t0, t0);
    const auto app = rapid::num::GridIntApp::build(rows, cols, kRanks);
    const std::int64_t t1 = now_ns();
    result.spans.add("plan.app_build", t0, t1, root);
    rt::RunConfig config;
    config.capacity_per_proc = kCapacity;
    const Planned p =
        plan_stages(app.graph(), kRanks, config, -1.0, result.spans, root);
    result.spans.set_end(root, now_ns());
    rapid::verify::AuditOptions aopts;
    aopts.capacity_per_proc = kCapacity;
    ++result.attempted;
    const std::int64_t a0 = now_ns();
    const auto rep =
        rapid::verify::audit_plan(app.graph(), p.schedule, p.plan, aopts);
    audit.push_back(static_cast<double>(now_ns() - a0) * 1e-6);
    if (!rep.clean()) result.finding("plan audit: " + rep.summary());
    build.push_back(static_cast<double>(t1 - t0) * 1e-6);
    order.push_back(p.order_ms);
    run_plan.push_back(p.run_plan_ms);
    liveness.push_back(p.liveness_ms);
    replay.push_back(p.replay_ms);
    tasks.push_back(app.graph().num_tasks());
    std::int64_t e = 0;
    for (const auto& edge : app.graph().edges()) e += edge.redundant ? 0 : 1;
    edges.push_back(static_cast<double>(e));
  }
  const std::string note = "cold grid shapes, as a plan-cache miss builds them";
  result.metric("plan.app_build_ms", median(build), "ms", kShapes, note);
  result.metric("plan.order_ms", median(order), "ms", kShapes, note);
  result.metric("plan.run_plan_ms", median(run_plan), "ms", kShapes, note);
  result.metric("plan.liveness_ms", median(liveness), "ms", kShapes, note);
  result.metric("plan.replay_ms", median(replay), "ms", kShapes, note);
  result.metric("plan.audit_ms", median(audit), "ms", kShapes, note);
  result.metric("plan.tasks", median(tasks), "count", kShapes, note);
  result.metric("plan.edges", median(edges), "count", kShapes, note);
}

void report_traced(const ClosedLoop& traced, double untraced_exec_p50,
                   Result& result) {
  std::map<std::string, double> flops_of;
  std::vector<TracedRun> runs;
  for (const ClosedSample& s : traced.samples) {
    if (s.record->state != svc::RunState::kCompleted) continue;
    auto it = flops_of.find(s.record->spec);
    if (it == flops_of.end()) {
      const auto w = rapid::num::build_shm_workload(s.record->spec);
      it = flops_of.emplace(s.record->spec, w->graph().total_flops()).first;
    }
    runs.push_back(s.traced);
    runs.back().flops = it->second;
  }
  report_traced_runs(runs, median(exec_ms(records_of(traced))),
                     untraced_exec_p50, result);
}

void report_service_layers(svc::RuntimeService& service,
                           const ClosedLoop& closed, const OpenLoop& open,
                           Result& result) {
  std::vector<double> submit_us;
  for (const ClosedSample& s : closed.samples) {
    submit_us.push_back(
        static_cast<double>(s.submitted_ns - s.submit_ns) * 1e-3);
  }
  const auto ns = static_cast<std::int64_t>(submit_us.size());
  result.metric("svc.submit_us_p50", median(submit_us), "us", ns,
                "submit() call, closed loop");
  const Tail st = tail(submit_us);
  result.metric("svc.submit_us_p99", st.value, "us", ns, st.label());
  std::vector<double> queue_ms, overhead_us;
  for (const svc::RunRecord* r : open.records) {
    queue_ms.push_back(static_cast<double>(r->wait_us) * 1e-3);
  }
  const auto nq = static_cast<std::int64_t>(queue_ms.size());
  result.metric("svc.queue_wait_ms_p50", median(queue_ms), "ms", nq,
                "open loop, RunRecord::wait_us");
  const Tail qt = tail(queue_ms);
  result.metric("svc.queue_wait_ms_p99", qt.value, "ms", nq, qt.label());
  std::vector<const svc::RunRecord*> all = records_of(closed);
  all.insert(all.end(), open.records.begin(), open.records.end());
  const std::vector<double> exec = exec_ms(all);
  result.metric("svc.exec_ms_p50", median(exec), "ms",
                static_cast<std::int64_t>(exec.size()),
                "RunRecord::exec_us (executor, run and residual check)");
  std::vector<const rt::RunReport*> reports;
  for (const svc::RunRecord* r : all) {
    if (r->state != svc::RunState::kCompleted) continue;
    overhead_us.push_back(static_cast<double>(r->exec_us) -
                          r->outcome.report.parallel_time_us);
    reports.push_back(&r->outcome.report);
  }
  result.metric("svc.run_overhead_us_p50", median(overhead_us), "us",
                static_cast<std::int64_t>(overhead_us.size()),
                "exec_us - parallel_time_us");
  report_counters(reports, result);
  const svc::ServiceReport rep = service.report();
  const Ratio hits{static_cast<double>(rep.cache_hits),
                   static_cast<double>(rep.cache_hits + rep.cache_misses)};
  result.metric("svc.cache_hit_frac", hits.value(), "fraction",
                rep.cache_hits + rep.cache_misses,
                "hits/lookups = " + hits.text());
  result.metric("svc.shed", static_cast<double>(rep.shed), "count",
                rep.submitted);
  result.metric("svc.rejected", static_cast<double>(rep.rejected), "count",
                rep.submitted);
  result.metric("svc.expired", static_cast<double>(rep.expired), "count",
                rep.submitted);
  result.metric("svc.peak_queue", rep.peak_queue_depth, "count", rep.submitted);
  const std::vector<double> lag = generator_lag_ms(open.samples);
  const Tail lt = tail(lag);
  result.metric("gen.lag_ms_p99", lt.value, "ms", lt.samples, lt.label());
}

}  // namespace

void run_service_workload(const Options& options, Result& result) {
  RequestStream stream(options.seed);
  std::vector<double> setup_s;
  double cold_s = 0.0;
  std::unique_ptr<svc::RuntimeService> service = start_service(result, cold_s);
  double setup_total_s = 0.0;
  while (setup_s.size() < kMinSetups || setup_total_s < kMinSetupSeconds) {
    service.reset();
    double s = 0.0;
    service = start_service(result, s);
    setup_s.push_back(s);
    setup_total_s += s;
  }
  const double phase_s = options.seconds / (options.trace ? 3 : 2);
  // The service keeps every record, so RSS grows with requests served: it
  // is read after the open loop, whose request count is fixed, and before
  // the closed loop, whose count is the measured capacity. The memory the
  // discarded set-up services freed is handed back first, so the window
  // starts from the live set as a freshly started service would: left in
  // the allocator, it moved the starting RSS by up to 50% between runs.
  malloc_trim(0);
  reset_rss_peak();
  const OpenLoop open = open_loop(*service, stream, phase_s);
  const double rss_mib = rss_peak_mib();
  const ClosedLoop closed = closed_loop(*service, stream, phase_s, false);
  ClosedLoop traced;
  if (options.trace) traced = closed_loop(*service, stream, phase_s, true);
  service->wait_all();

  double heap = 0.0;
  for (const std::vector<const svc::RunRecord*>& recs :
       {records_of(closed), open.records, records_of(traced)}) {
    for (const svc::RunRecord* r : recs) {
      if (account(*r, result) && r->has_outcome) {
        heap = std::max(
            heap, static_cast<double>(r->outcome.report.peak_bytes()) / kMiB);
      }
    }
  }
  if (options.trace) {
    for (const ClosedLoop* loop : {&closed, &std::as_const(traced)}) {
      for (const ClosedSample& s : loop->samples) {
        add_request_spans(*s.record, s.submit_ns, s.submitted_ns,
                          result.spans);
      }
    }
    for (std::size_t i = 0; i < open.records.size(); ++i) {
      add_request_spans(*open.records[i], open.samples[i].sent_ns,
                        open.returned_ns[i], result.spans);
    }
  }
  std::printf("service runs: closed loop %zu, open loop %zu at %.0f/s\n",
              closed.samples.size(), open.samples.size(), kOpenLoopRate);

  result.metric("setup_s", median(setup_s), "s",
                static_cast<std::int64_t>(setup_s.size()),
                "median of service construction plus the plan-cache "
                "warm-up submits (plans built and admitted), the "
                "process-cold start (" +
                    std::to_string(cold_s) + " s) left out");
  result.metric("lat_ms_p50", median(closed.latency_ms), "ms",
                static_cast<std::int64_t>(closed.latency_ms.size()),
                "closed loop, submit() to the reply the client sees; q1 " +
                    std::to_string(quantile(closed.latency_ms, 0.25)) +
                    ", q3 " +
                    std::to_string(quantile(closed.latency_ms, 0.75)));
  std::vector<double> rates;
  for (const RateWindow& w : closed.windows) rates.push_back(w.rate);
  result.metric("runs_per_s", median(rates), "1/s",
                static_cast<std::int64_t>(rates.size()),
                "svc_runs_per_s: closed loop, 4 requests outstanding; "
                "completions/s, median over windows of >= 0.25 s; " +
                    std::to_string(closed.samples.size()) + " requests");
  const std::vector<double> lat = latency_from_due_ms(open.samples);
  const auto n = static_cast<std::int64_t>(lat.size());
  result.metric("svc.open_lat_ms_p50", median(lat), "ms", n,
                "svc_lat_ms_p50: open loop, due time to the completion the "
                "client sees; service-timed p50 " +
                    std::to_string(median(service_timed_latency_ms(open))));
  const Tail t = tail(lat);
  result.metric("lat_ms_tail", t.value, "ms", n,
                "svc_lat_ms_p99: open loop, due time to the completion the "
                "client sees, " + t.label());
  result.metric("heap_peak_mb", heap, "MiB",
                static_cast<std::int64_t>(result.attempted),
                "max over service runs of RunReport::peak_bytes()");
  result.metric("rss_peak_mb", rss_mib, "MiB", 1, "VmHWM over the open loop");
  if (!options.trace) return;
  report_planning(stream, result);
  report_service_layers(*service, closed, open, result);
  report_traced(traced, median(exec_ms(records_of(closed))), result);
}

}  // namespace perfbench
