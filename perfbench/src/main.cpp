// Runs one benchmark workload in this process and prints its result.
//
//   perfbench_workload --workload serve_steady --seed 3 --seconds 20 --trace 0
//
// The last line of stdout is `result {json}` with the operation accounting
// and the metrics of the mode (end-to-end with --trace 0, per-layer with
// --trace 1); the line before it is `run_record {json}`. perfbench/run.py
// builds this program, runs it and attaches the units.

#include <cmath>
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "common.h"
#include "tensor/simd.h"
#include "util/thread_pool.h"

namespace {

bool parse_args(int argc, char** argv, perfbench::Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--perturb-reference") {
      args.perturb_reference = value == "1";
    } else {
      std::cerr << "unknown flag " << key << "\n";
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench_workload --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH]\n";
    return 2;
  }
  perfbench::now_s();  // pin the clock epoch at process start
  const double probe_start = perfbench::host_probe_ms();

  perfbench::WorkloadResult result;
  int rc = 0;
  try {
    if (args.workload.rfind("serve_", 0) == 0) {
      rc = perfbench::run_serve(args, result);
    } else if (args.workload.rfind("train_", 0) == 0) {
      rc = perfbench::run_train(args, result);
    } else {
      std::cerr << "unknown workload " << args.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "workload " << args.workload << " threw: " << e.what() << "\n";
    return 1;
  }
  if (rc != 0) return rc;

  const double probe_end = perfbench::host_probe_ms();
  if (args.trace) {
    result.metrics["host.probe_ms"] = probe_start;
    result.metrics["host.probe_end_ms"] = probe_end;
  }

  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10);
  std::cout << "run_record {\"workload\":" << json_string(args.workload)
            << ",\"seed\":" << args.seed << ",\"seconds\":" << args.seconds
            << ",\"trace\":" << (args.trace ? 1 : 0)
            << ",\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"pool_workers\":" << ttsnn::ThreadPool::instance().workers()
            << ",\"simd\":"
            << json_string(ttsnn::simd::level_name(ttsnn::simd::active_level()))
            << ",\"host_probe_start_ms\":" << probe_start
            << ",\"host_probe_end_ms\":" << probe_end;
  for (const auto& [k, v] : result.record) {
    std::cout << "," << json_string(k) << ":" << json_string(v);
  }
  std::cout << "}\n";

  std::cout << "result {\"correct\":" << (result.correct ? "true" : "false")
            << ",\"attempted\":" << result.attempted
            << ",\"failed\":" << result.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : result.metrics) {
    std::cout << (first ? "" : ",") << json_string(name) << ":";
    if (std::isfinite(value)) {
      std::cout << value;
    } else {
      std::cout << "null";  // run.py rejects it
    }
    first = false;
  }
  std::cout << "}}" << std::endl;
  return result.correct ? 0 : 3;
}
