#include "common.h"

#include <sys/resource.h>

#include <iomanip>
#include <iostream>

namespace perfbench {
namespace {
volatile float probe_sink = 0.0F;  ///< keeps the probe loop from being folded
}  // namespace

ttsnn::ScenarioConfig baseline_config(uint64_t seed, const std::string& tt_mode) {
  ttsnn::ScenarioConfig cfg;
  cfg.dataset = "image";
  cfg.classes = 4;
  cfg.image_size = 32;
  cfg.model = "resnet18";
  cfg.base_width = 16;
  cfg.timesteps = 4;
  cfg.batch_size = 16;
  cfg.tt_mode = tt_mode;
  cfg.vbmf = false;
  cfg.rank_fraction = 0.4;
  // The model is the system under test, so its weights are the same on
  // every run; only the inputs (images, request order) follow the seed.
  cfg.data_seed = seed * 2654435761ULL + 11;
  cfg.seed = 7;
  return cfg;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double host_probe_ms() {
  // 96x96 single-precision matrix products, repeated.
  constexpr int n = 96;
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (int i = 0; i < n * n; ++i) {
    a[static_cast<size_t>(i)] = static_cast<float>(i % 7) * 0.25F;
    b[static_cast<size_t>(i)] = static_cast<float>(i % 5) * 0.5F;
  }
  const double t0 = now_s();
  for (int rep = 0; rep < 100; ++rep) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        float acc = 0.0F;
        for (int k = 0; k < n; ++k) {
          acc += a[static_cast<size_t>(i * n + k)] * b[static_cast<size_t>(k * n + j)];
        }
        c[static_cast<size_t>(i * n + j)] = acc;
      }
    }
    a[static_cast<size_t>(rep)] = c[static_cast<size_t>(rep * 7)] * 1e-6F;
  }
  const double ms = (now_s() - t0) * 1e3;
  probe_sink = c[static_cast<size_t>(n + 1)];
  return ms;
}

void fill_bypassed(std::map<std::string, double>& metrics,
                   const std::vector<std::string>& names) {
  for (const std::string& name : names) metrics.emplace(name, 0.0);
}

const std::vector<std::string>& serve_layer_metrics() {
  static const std::vector<std::string> names = {
      "router.queue_wait_ms", "router.submit_us", "router.mean_batch",
      "router.batches", "router.steals", "router.latency_p90_ms",
      "router.latency_p99_ms", "gen.late_p90_ms", "engine.run_b1_ms",
      "engine.run_b8_ms", "engine.workspace_b1_bytes",
      "engine.workspace_b8_bytes", "engine.weight_bytes", "engine.num_ops",
      "compile.ms", "plan_cache.first_run_ms", "plan_cache.hits",
      "plan_cache.misses"};
  return names;
}

const std::vector<std::string>& train_layer_metrics() {
  static const std::vector<std::string> names = {
      "train.fwd.ttconv_ms", "train.bwd.ttconv_ms", "train.fwd.conv_ms",
      "train.bwd.conv_ms",   "train.fwd.lif_ms",    "train.bwd.lif_ms",
      "train.fwd.bn_ms",     "train.bwd.bn_ms",     "train.fwd.other_ms",
      "train.bwd.other_ms",  "trainer.self_ms",     "trainer.data_wait_ms",
      "arena.misses_per_step"};
  return names;
}

void print_self_times(const Tracer& tracer) {
  std::cout << "self time per span (traced phase):\n"
            << "  " << std::left << std::setw(28) << "span" << std::right
            << std::setw(8) << "count" << std::setw(14) << "total_ms"
            << std::setw(14) << "self_ms" << std::setw(14) << "self_ms/op" << "\n";
  for (const auto& [name, st] : tracer.self_times()) {
    std::cout << "  " << std::left << std::setw(28) << name << std::right
              << std::setw(8) << st.count << std::fixed << std::setprecision(3)
              << std::setw(14) << st.total_ms << std::setw(14) << st.self_ms
              << std::setw(14)
              << (st.count > 0 ? st.self_ms / static_cast<double>(st.count) : 0.0)
              << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
}

}  // namespace perfbench
