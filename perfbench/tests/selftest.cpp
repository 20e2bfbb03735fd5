// Self-test of the benchmark's own accounting: nearest-rank percentiles and
// the sample counts tail percentiles need, due-time latency and generator
// lateness, success accounting, the bitwise oracle, and span self times.
//
//   .bench_build/perfbench_selftest   (exit 0 = all checks pass)

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define CHECK(cond)                                              \
  do {                                                           \
    if (!(cond)) {                                               \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                \
    }                                                            \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace perfbench;

void percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  CHECK(nearest_rank(1000, 99) == 990);
  CHECK(nearest_rank(999, 99) == 990);
  CHECK(nearest_rank(100, 90) == 90);
  CHECK(nearest_rank(1, 50) == 1);
  CHECK(near(percentile(v, 50), 500));
  CHECK(near(percentile(v, 99), 990));
  CHECK(near(percentile(v, 100), 1000));
  CHECK(near(percentile({3.0, 1.0, 2.0}, 50), 2.0));
  CHECK(near(percentile({}, 50), 0.0));
  // A tail percentile is reportable once >= 10 samples lie beyond it.
  CHECK(samples_beyond(1000, 99) == 10);
  CHECK(samples_beyond(999, 99) == 9);
  // So p99 needs 1000 samples, p90 needs 100 and p50 needs 20.
  CHECK(samples_beyond(100, 90) == 10);
  CHECK(samples_beyond(99, 90) == 9);
  CHECK(samples_beyond(20, 50) == 10);
  CHECK(samples_beyond(19, 50) == 9);
  CHECK(near(highest_reportable(600, {50, 90, 99}), 90));
  CHECK(near(highest_reportable(1000, {50, 90, 99}), 99));
  CHECK(near(highest_reportable(19, {50, 90, 99}), 0));
}

void due_time_latency() {
  // An open loop due every 25 ms whose generator stalled 30 ms before the
  // second send: that request's latency includes the stall.
  Ledger l;
  l.add({0.000, 0.000, 0.011, Outcome::kCorrect});
  l.add({0.025, 0.055, 0.066, Outcome::kCorrect});
  l.add({0.050, 0.0555, 0.070, Outcome::kCorrect});
  const std::vector<double> lat = l.latencies_ms();
  CHECK(lat.size() == 3);
  CHECK(near(lat[0], 11.0));
  CHECK(near(lat[1], 41.0));
  CHECK(near(lat[2], 20.0));
  const std::vector<double> late = l.lateness_ms();
  CHECK(near(late[0], 0.0));
  CHECK(near(late[1], 30.0));
  CHECK(near(late[2], 5.5));
  CHECK(near(l.attainment(25.0), 2.0 / 3.0));
  CHECK(near(l.correct_per_second(), 3.0 / 0.070));
}

void success_accounting() {
  Ledger l;
  l.add({0.0, 0.0, 0.010, Outcome::kCorrect});
  l.add({0.0, 0.0, 0.000, Outcome::kShed});
  l.add({0.0, 0.0, 0.020, Outcome::kFailed});
  l.add({0.0, 0.0, 0.005, Outcome::kWrong});
  CHECK(l.attempted() == 4);
  CHECK(l.correct() == 1);
  CHECK(l.failed() == 3);
  CHECK(l.count(Outcome::kShed) == 1);
  CHECK(near(l.success_rate(), 0.25));
  // Only correct operations have a latency; the others all miss the limit.
  CHECK(l.latencies_ms().size() == 1);
  CHECK(near(l.attainment(1000.0), 0.25));
  CHECK(near(Ledger().success_rate(), 0.0));
}

void perturbed_reference() {
  std::vector<float> out = {0.5F, -1.25F, 3.0F, 0.0F};
  std::vector<float> ref = out;
  CHECK(same_bits(out.data(), 4, ref.data(), 4));
  CHECK(!same_bits(out.data(), 4, ref.data(), 3));
  ref[2] = std::nextafter(ref[2], 4.0F);  // one ulp off
  CHECK(!same_bits(out.data(), 4, ref.data(), 4));
  // -0.0 == 0.0 numerically, but not bitwise.
  std::vector<float> neg = out;
  neg[3] = -0.0F;
  CHECK(!same_bits(out.data(), 4, neg.data(), 4));
  Ledger l;
  for (int i = 0; i < 10; ++i) {
    const bool ok = same_bits(out.data(), 4, (i == 3 ? ref : out).data(), 4);
    l.add({0.0, 0.0, 0.001, ok ? Outcome::kCorrect : Outcome::kWrong});
  }
  CHECK(near(l.success_rate(), 0.9));
}

void self_times() {
  // request [0,10] with children [1,3] and [2,5] (overlapping) and [8,12]
  // (clipped to [8,10]): covered = 4 + 2 = 6, self = 4.
  std::vector<Span> spans = {
      {"request", 0.0, 10.0, -1, 1},
      {"submit", 1.0, 3.0, 0, 1},
      {"submit", 2.0, 5.0, 0, 1},
      {"late", 8.0, 12.0, 0, 1},
  };
  const auto st = compute_self_times(spans);
  CHECK(near(st.at("request").total_ms, 10000.0));
  CHECK(near(st.at("request").self_ms, 4000.0));
  CHECK(st.at("submit").count == 2);
  CHECK(near(st.at("submit").self_ms, 5000.0));
  Tracer off(false);
  CHECK(off.add("x", 0.0, 1.0) == -1);
  CHECK(off.spans().empty());
}

}  // namespace

int main() {
  percentiles();
  due_time_latency();
  success_accounting();
  perturbed_reference();
  self_times();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
