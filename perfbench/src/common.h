#pragma once

// Pieces shared by the serving and training workloads: command-line
// arguments, the baseline model configuration, host readings and the result
// line that perfbench/run.py parses.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "snn/scenario.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
  /// Self-test hook: moves one reference output by one ulp, so the oracle
  /// must reject every response to that request.
  bool perturb_reference = false;
};

/// What a workload hands back: operation accounting, the metrics of the
/// mode it ran in, and free-form facts for the run record.
struct WorkloadResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> record;
};

/// The baseline model: MS-ResNet18 on 32x32 synthetic images, base width
/// 16, T = 4, batch 16, PTT at rank_fraction 0.4 unless tt_mode is "none".
/// The data derives from `seed`; the weights do not.
ttsnn::ScenarioConfig baseline_config(uint64_t seed, const std::string& tt_mode);

/// Maximum resident set size of this process so far, in MiB.
double peak_rss_mib();

/// Wall time (ms) of a fixed floating-point loop that uses no library code:
/// a reading of how fast the host runs right now, taken at the start and end
/// of every run so host drift can be told apart from a program change.
double host_probe_ms();

/// Sets the per-layer metrics that a workload family does not exercise to
/// 0, so every traced run reports the full per-layer set.
void fill_bypassed(std::map<std::string, double>& metrics,
                   const std::vector<std::string>& names);

/// Per-layer metric names of each family (for fill_bypassed).
const std::vector<std::string>& serve_layer_metrics();
const std::vector<std::string>& train_layer_metrics();

/// Runs a complete set-up at least 3 times, and again while the set-ups so
/// far took under 2 s in total (at most 25), so that setup_s is a median even
/// when one set-up takes milliseconds. Earlier states are destroyed before the
/// next is built; `state` keeps the last. Returns every set-up's seconds and
/// lists them in the run record.
template <typename State, typename SetUp>
std::vector<double> repeat_setup(std::unique_ptr<State>& state, SetUp set_up,
                                 WorkloadResult& out) {
  std::vector<double> seconds;
  double total = 0.0;
  while (seconds.size() < 3 || (total < 2.0 && seconds.size() < 25)) {
    state.reset();
    const double t0 = now_s();
    state = set_up();
    seconds.push_back(now_s() - t0);
    total += seconds.back();
  }
  std::string list;
  for (double s : seconds) list += (list.empty() ? "" : ",") + std::to_string(s);
  out.record["setups_s"] = list;
  return seconds;
}

/// Prints the self-time table of a traced run.
void print_self_times(const Tracer& tracer);

int run_serve(const Args& args, WorkloadResult& out);
int run_train(const Args& args, WorkloadResult& out);

}  // namespace perfbench
