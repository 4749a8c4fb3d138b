#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::int32_t SpanLog::add(std::string name, std::int64_t start_ns,
                          std::int64_t end_ns, std::int32_t parent,
                          std::int64_t request) {
  spans_.push_back({std::move(name), start_ns, end_ns, parent, request});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::map<std::string, SelfTime> SpanLog::self_times() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = -1;
    bool open = false;
    for (const auto& [lo0, hi0] : kids) {
      const std::int64_t lo = std::max(lo0, s.start_ns);
      const std::int64_t hi = std::min(hi0, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    SelfTime& t = out[s.name];
    const std::int64_t dur = s.end_ns - s.start_ns;
    t.total_ms += static_cast<double>(dur) * 1e-6;
    t.self_ms += static_cast<double>(dur - covered) * 1e-6;
    ++t.count;
  }
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t epoch = 0;
  for (const Span& s : spans_) {
    epoch = epoch == 0 ? s.start_ns : std::min(epoch, s.start_ns);
  }
  std::fputs("{\"spans\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %d, \"request\": %lld}%s\n",
                 i, s.name.c_str(),
                 static_cast<double>(s.start_ns - epoch) * 1e-3,
                 static_cast<double>(s.end_ns - epoch) * 1e-3, s.parent,
                 static_cast<long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
