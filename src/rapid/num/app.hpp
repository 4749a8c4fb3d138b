// The one interface every numeric workload implements: a finalized task
// graph, the threaded executor's init and body callbacks, and a residual
// that checks a finished run against the app's own reference. Tools, the
// service, the shm worker and the benches hold an App and never branch on
// which workload it is.
#pragma once

#include "rapid/graph/task_graph.hpp"
#include "rapid/rt/threaded_executor.hpp"

namespace rapid::num {

class App {
 public:
  static constexpr double kResidualTolerance = 1e-10;

  virtual ~App() = default;

  virtual const graph::TaskGraph& graph() const = 0;
  /// Callbacks for the threaded executor. The app must outlive the run.
  virtual rt::ObjectInit make_init() const = 0;
  virtual rt::TaskBody make_body() const = 0;

  /// Numeric error of a successful run, read from the owners' heaps.
  virtual double residual(const rt::ThreadedExecutor& exec) const = 0;
  /// A completed run's acceptance test: below kResidualTolerance, or
  /// exactly 0 for an app computing in integers, where anything else is a
  /// protocol bug, not roundoff.
  virtual bool residual_ok(double residual) const {
    return residual < kResidualTolerance;
  }

 protected:
  App() = default;
  App(const App&) = default;
  App(App&&) = default;
  App& operator=(const App&) = default;
  App& operator=(App&&) = default;
};

}  // namespace rapid::num
