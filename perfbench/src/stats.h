#pragma once

// Order statistics and per-operation accounting shared by every workload.
// Header-only so the self-test exercises exactly the code the workloads run.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of the p-th percentile (0 < p <= 100) among n
/// samples: the smallest rank r with r/n >= p/100. Integer arithmetic on
/// p in hundredths keeps p99 of 1000 samples at rank 990, not 991.
inline int64_t nearest_rank(int64_t n, double p) {
  const auto p_hundredths = static_cast<int64_t>(std::llround(p * 100.0));
  const int64_t num = p_hundredths * n;
  int64_t r = num / 10000 + (num % 10000 != 0 ? 1 : 0);
  return std::clamp<int64_t>(r, 1, std::max<int64_t>(n, 1));
}

/// Nearest-rank percentile; 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const int64_t n = static_cast<int64_t>(v.size());
  return v[static_cast<size_t>(nearest_rank(n, p) - 1)];
}

inline double median(const std::vector<double>& v) { return percentile(v, 50.0); }

/// Samples strictly above the p-th percentile's rank.
inline int64_t samples_beyond(int64_t n, double p) {
  return n <= 0 ? 0 : n - nearest_rank(n, p);
}

/// Highest of the given percentiles that has at least `beyond` samples past
/// it among n; 0 when none has.
inline double highest_reportable(int64_t n, const std::vector<double>& ps,
                                 int64_t beyond = 10) {
  double best = 0.0;
  for (double p : ps) {
    if (samples_beyond(n, p) >= beyond) best = std::max(best, p);
  }
  return best;
}

/// The correctness oracle's comparison: same length and the same bits.
inline bool same_bits(const float* got, int64_t n_got, const float* want,
                      int64_t n_want) {
  return n_got == n_want &&
         std::memcmp(got, want, static_cast<size_t>(n_got) * sizeof(float)) == 0;
}

/// How one attempted operation ended.
enum class Outcome {
  kCorrect,  ///< completed and passed the correctness check
  kShed,     ///< refused at submission (admission control)
  kFailed,   ///< completed with an error (future threw, non-finite loss)
  kWrong,    ///< completed, but the output differs from the oracle
};

/// One attempted operation. Times are seconds on one steady clock. `due` is
/// when an open-loop schedule wanted it sent; closed loops set due = sent.
struct OpRecord {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  Outcome outcome = Outcome::kCorrect;
};

/// Accounts attempted operations: success counts, latency from the due time
/// (so a stalled generator charges its delay to every request it held up),
/// generator lateness, and attainment of a latency limit.
class Ledger {
 public:
  void add(const OpRecord& r) { ops_.push_back(r); }

  int64_t attempted() const { return static_cast<int64_t>(ops_.size()); }
  int64_t count(Outcome o) const {
    return std::count_if(ops_.begin(), ops_.end(),
                         [o](const OpRecord& r) { return r.outcome == o; });
  }
  int64_t correct() const { return count(Outcome::kCorrect); }
  int64_t failed() const { return attempted() - correct(); }

  /// Correct over attempted; a shed, failed or wrong operation counts
  /// against it. 0 when nothing was attempted.
  double success_rate() const {
    return ops_.empty() ? 0.0
                        : static_cast<double>(correct()) /
                              static_cast<double>(attempted());
  }

  /// Latency (ms, due -> done) of every correct operation.
  std::vector<double> latencies_ms() const {
    std::vector<double> out;
    for (const OpRecord& r : ops_) {
      if (r.outcome == Outcome::kCorrect) out.push_back((r.done - r.due) * 1e3);
    }
    return out;
  }

  /// How late (ms, due -> sent) the generator sent each attempted operation.
  std::vector<double> lateness_ms() const {
    std::vector<double> out;
    out.reserve(ops_.size());
    for (const OpRecord& r : ops_) out.push_back((r.sent - r.due) * 1e3);
    return out;
  }

  /// Share of attempted operations that were correct within limit_ms of
  /// their due time. Failures miss the limit by definition.
  double attainment(double limit_ms) const {
    if (ops_.empty()) return 0.0;
    int64_t ok = 0;
    for (const OpRecord& r : ops_) {
      if (r.outcome == Outcome::kCorrect && (r.done - r.due) * 1e3 <= limit_ms) ++ok;
    }
    return static_cast<double>(ok) / static_cast<double>(ops_.size());
  }

  /// Correct operations per second over [first due, last done].
  double correct_per_second() const {
    if (ops_.empty()) return 0.0;
    double start = ops_.front().due, end = ops_.front().done;
    for (const OpRecord& r : ops_) {
      start = std::min(start, r.due);
      end = std::max(end, r.done);
    }
    return end > start ? static_cast<double>(correct()) / (end - start) : 0.0;
  }

 private:
  std::vector<OpRecord> ops_;
};

}  // namespace perfbench
