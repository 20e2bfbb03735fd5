#pragma once

// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around calls into the library; they stay in memory
// until the run ends and are then written out as JSON lines.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int64_t parent = -1;   ///< id of the span that caused this one, -1 = root
  int64_t request = -1;  ///< request id shared by one request's spans
};

/// Self time of one span name: summed over its spans, each span's duration
/// minus the part of its interval covered by its children.
struct SelfTime {
  double total_ms = 0.0;
  double self_ms = 0.0;
  int64_t count = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (-1 when disabled).
  int64_t add(const std::string& name, double start, double end,
              int64_t parent = -1, int64_t request = -1);
  /// Opens a span ending at the matching close(); returns its id.
  int64_t open(const std::string& name, int64_t parent = -1,
               int64_t request = -1);
  void close(int64_t id);

  std::vector<Span> spans() const;
  std::map<std::string, SelfTime> self_times() const;
  /// Writes one JSON object per span; returns false on an I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self-time table over a span list (exposed for the self-test).
std::map<std::string, SelfTime> compute_self_times(const std::vector<Span>& spans);

}  // namespace perfbench
