#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

namespace perfbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

int64_t Tracer::add(const std::string& name, double start, double end,
                    int64_t parent, int64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, end, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t Tracer::open(const std::string& name, int64_t parent, int64_t request) {
  const double t = now_s();
  return add(name, t, t, parent, request);
}

void Tracer::close(int64_t id) {
  if (id < 0) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = t;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, SelfTime> Tracer::self_times() const {
  return compute_self_times(spans());
}

std::map<std::string, SelfTime> compute_self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.parent < static_cast<int64_t>(spans.size())) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0.0, run_start = 0.0, run_end = 0.0;
    bool open_run = false;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start);
      b = std::min(b, s.end);
      if (b <= a) continue;
      if (open_run && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open_run) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      open_run = true;
    }
    if (open_run) covered += run_end - run_start;
    SelfTime& st = out[s.name];
    st.total_ms += (s.end - s.start) * 1e3;
    st.self_ms += (s.end - s.start - covered) * 1e3;
    ++st.count;
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f.precision(9);
  const std::vector<Span> all = spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    f << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_s\":"
      << s.start << ",\"end_s\":" << s.end << ",\"parent\":" << s.parent
      << ",\"request\":" << s.request << "}\n";
  }
  return static_cast<bool>(f);
}

}  // namespace perfbench
