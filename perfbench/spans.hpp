// Spans recorded by the benchmark's traced pass around each call into a
// layer: plan stages, executor construction, run(), every task body and
// every service request. Kept in memory and written out once at the end.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   // index into the log, -1 for a root
  std::int64_t request = -1;  // solve or service-run id, -1 for none
};

struct SelfTime {
  double self_ms = 0.0;
  double total_ms = 0.0;
  std::int64_t count = 0;
};

class SpanLog {
 public:
  /// Appends a finished span and returns its index (usable as a parent).
  std::int32_t add(std::string name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent = -1,
                   std::int64_t request = -1);

  /// Closes a span added before its children (e.g. added with end = start).
  void set_end(std::int32_t id, std::int64_t end_ns) {
    spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: summed duration, and summed self time — each span's
  /// duration minus the part of its interval that its children cover.
  std::map<std::string, SelfTime> self_times() const;

  /// Writes {"spans": [...]} with times relative to the first span.
  /// Returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
