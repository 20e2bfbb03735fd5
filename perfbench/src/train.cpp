// Training workloads: Trainer::run_epoch over a fixed two-step schedule on
// 32x32 synthetic images, batch 16.
//
//  train_ptt    the PTT-factorized model (TTConv2d forward/backward + BPTT)
//  train_dense  the same model with tt_mode none (dense Conv2d im2col+GEMM)
//
// An episode restores the weights and BN statistics captured at set-up and
// runs one epoch of the fixed steps with a fresh Trainer, so every episode
// of a run must end on the same loss, bit for bit. Episodes repeat until the
// run's time is used.

#include <cmath>
#include <cstring>
#include <iostream>
#include <set>

#include "common.h"
#include "core/factorize.h"
#include "core/flops.h"
#include "snn/trainer.h"
#include "tensor/arena.h"

namespace perfbench {
namespace {

using ttsnn::Module;
using ttsnn::ModulePtr;
using ttsnn::Tensor;

constexpr int64_t kSteps = 2;   ///< fixed steps per episode
constexpr int kMinEpisodes = 2; ///< two same-seed episodes at least

/// Latency limit of slo_attainment: the time one training step may take.
double slo_limit_ms(const std::string& workload) {
  return workload == "train_ptt" ? 2500.0 : 8000.0;
}

bool all_finite(const Tensor& t) {
  const float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

/// Layer family of a leaf module, as the per-layer metrics name it.
std::string family(const Module& m) {
  const std::string n = m.name();
  if (n == "TTConv2d") return "ttconv";
  if (n == "Conv2d") return "conv";
  if (n == "LIF") return "lif";
  if (n == "BatchNorm") return "bn";
  return "other";
}

/// Forward/backward time per layer family, plus the spans of the traced
/// phase. `step_span` is the span every module call is attributed to.
struct LayerClock {
  Tracer* tracer = nullptr;
  int64_t step_span = -1;
  std::map<std::string, double> ms;  ///< "fwd.conv" -> total ms

  void record(const std::string& key, double t0, double t1) {
    ms[key] += (t1 - t0) * 1e3;
    tracer->add(key, t0, t1, step_span);
  }
  double total() const {
    double sum = 0.0;
    for (const auto& [k, v] : ms) sum += v;
    return sum;
  }
};

/// Times one leaf module. Parameters, buffers and mode changes reach the
/// wrapped module through its child slot.
class TimedLeaf : public Module {
 public:
  TimedLeaf(ModulePtr inner, LayerClock& clock)
      : inner_(std::move(inner)),
        fwd_("fwd." + family(*inner_)),
        bwd_("bwd." + family(*inner_)),
        clock_(clock) {}

  Tensor forward(const Tensor& x) override {
    const double t0 = now_s();
    Tensor y = inner_->forward(x);
    clock_.record(fwd_, t0, now_s());
    return y;
  }
  Tensor backward(const Tensor& g) override {
    const double t0 = now_s();
    Tensor dx = inner_->backward(g);
    clock_.record(bwd_, t0, now_s());
    return dx;
  }
  std::vector<ModulePtr*> child_slots() override { return {&inner_}; }
  void describe(ttsnn::ShapeState& s, std::vector<ttsnn::LayerDesc>& out) const override {
    inner_->describe(s, out);
  }
  void clear_cache() override { inner_->clear_cache(); }
  std::string name() const override { return inner_->name(); }

 private:
  ModulePtr inner_;
  std::string fwd_, bwd_;
  LayerClock& clock_;
};

/// The module the Trainer drives: forwards to the network, timestamps every
/// step (a step runs from one forward call to the next) and checks that the
/// logits and the loss gradient of every step are finite.
class StepProbe : public Module {
 public:
  explicit StepProbe(ModulePtr net) : net_(std::move(net)) {}

  Tensor forward(const Tensor& x) override {
    const double t = now_s();
    step_starts.push_back(t);
    if (clock != nullptr) {
      if (clock->step_span >= 0) clock->tracer->close(clock->step_span);
      clock->step_span = clock->tracer->open("step", epoch_span);
    }
    Tensor y = net_->forward(x);
    finite = finite && all_finite(y);
    return y;
  }
  Tensor backward(const Tensor& g) override {
    finite = finite && all_finite(g);
    return net_->backward(g);
  }
  std::vector<ModulePtr*> child_slots() override { return {&net_}; }
  void describe(ttsnn::ShapeState& s, std::vector<ttsnn::LayerDesc>& out) const override {
    net_->describe(s, out);
  }
  void clear_cache() override { net_->clear_cache(); }
  std::string name() const override { return "StepProbe"; }

  Module& net() { return *net_; }

  std::vector<double> step_starts;
  bool finite = true;
  LayerClock* clock = nullptr;  ///< set in the traced phase
  int64_t epoch_span = -1;

 private:
  ModulePtr net_;
};

struct TrainState {
  ttsnn::ScenarioConfig cfg;
  std::unique_ptr<ttsnn::Dataset> train, test;
  std::unique_ptr<StepProbe> probe;
  std::vector<Tensor> snapshot;  ///< parameter values, then BN buffers
  double factorize_ms = 0.0;
  ttsnn::ModelStats stats;
};

std::vector<Tensor*> state_tensors(Module& m) {
  std::vector<Tensor*> out;
  for (ttsnn::Parameter* p : m.parameters()) out.push_back(&p->value);
  for (ttsnn::BufferRef& b : m.buffers()) out.push_back(b.value);
  return out;
}

std::unique_ptr<TrainState> set_up(const Args& args, Tracer& tr) {
  auto s = std::make_unique<TrainState>();
  const int64_t root = tr.open("setup");

  int64_t span = tr.open("setup.data", root);
  s->cfg = baseline_config(args.seed, args.workload == "train_ptt" ? "ptt" : "none");
  s->cfg.train_per_class = kSteps * s->cfg.batch_size / s->cfg.classes;
  s->cfg.test_per_class = 1;
  s->train = ttsnn::make_scenario_dataset(s->cfg, /*train=*/true);
  s->test = ttsnn::make_scenario_dataset(s->cfg, /*train=*/false);
  tr.close(span);

  span = tr.open("setup.model", root);
  ttsnn::Rng rng(s->cfg.seed);
  ModulePtr net = ttsnn::build_scenario_model(s->cfg, s->train->channels(), rng);
  tr.close(span);

  if (s->cfg.tt_mode != "none") {
    span = tr.open("setup.factorize", root);
    const double t = now_s();
    ttsnn::factorize_network(*net, ttsnn::scenario_factorize_options(s->cfg), rng);
    s->factorize_ms = (now_s() - t) * 1e3;
    tr.close(span);
  }
  s->stats = ttsnn::analyze_model(*net, s->train->channels(), s->cfg.image_size,
                                  s->cfg.image_size);
  s->probe = std::make_unique<StepProbe>(std::move(net));

  span = tr.open("setup.snapshot", root);
  for (Tensor* t : state_tensors(s->probe->net())) s->snapshot.push_back(t->clone());
  tr.close(span);

  tr.close(root);
  return s;
}

/// Restores the set-up weights and BN statistics; zeroes the gradients.
void restore(TrainState& s) {
  std::vector<Tensor*> live = state_tensors(s.probe->net());
  for (size_t i = 0; i < live.size(); ++i) {
    std::memcpy(live[i]->data(), s.snapshot[i].data(),
                static_cast<size_t>(live[i]->numel()) * sizeof(float));
  }
  for (ttsnn::Parameter* p : s.probe->net().parameters()) p->grad.zero_();
}

ttsnn::TrainConfig train_config(const ttsnn::ScenarioConfig& cfg) {
  ttsnn::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = cfg.batch_size;
  tc.timesteps = cfg.timesteps;
  tc.lr = cfg.lr;
  tc.prefetch = cfg.prefetch;
  tc.seed = cfg.seed;
  return tc;
}

/// One episode: restore, then run_epoch over the fixed steps.
struct Episode {
  ttsnn::EpochStats stats;
  std::vector<double> step_start;  ///< steady-clock seconds
  std::vector<double> step_ms;
  bool finite = true;
  double wall_s = 0.0;
};

Episode run_episode(TrainState& s, Tracer& tr) {
  restore(s);
  StepProbe& probe = *s.probe;
  probe.step_starts.clear();
  probe.finite = true;
  ttsnn::Trainer trainer(probe, *s.train, *s.test, train_config(s.cfg));
  Episode ep;
  const double t0 = now_s();
  probe.epoch_span = tr.open("epoch");
  ep.stats = trainer.run_epoch(0);
  const double t1 = now_s();
  if (probe.clock != nullptr && probe.clock->step_span >= 0) {
    tr.close(probe.clock->step_span);
    probe.clock->step_span = -1;
  }
  tr.close(probe.epoch_span);
  ep.wall_s = t1 - t0;
  for (size_t i = 0; i < probe.step_starts.size(); ++i) {
    const double end = i + 1 < probe.step_starts.size() ? probe.step_starts[i + 1] : t1;
    ep.step_start.push_back(probe.step_starts[i]);
    ep.step_ms.push_back((end - probe.step_starts[i]) * 1e3);
  }
  ep.finite = probe.finite && std::isfinite(ep.stats.loss);
  return ep;
}

/// Episodes until `seconds` would be exceeded (at least kMinEpisodes), each
/// accounted as kSteps operations in `ledger`.
std::vector<Episode> run_episodes(TrainState& s, Tracer& tr, double seconds,
                                  Ledger& ledger, const double* want_loss,
                                  bool* same_loss) {
  std::vector<Episode> eps;
  const double start = now_s();
  while (true) {
    Episode ep = run_episode(s, tr);
    const bool repeat_ok =
        want_loss == nullptr ? eps.empty() || ep.stats.loss == eps.front().stats.loss
                             : ep.stats.loss == *want_loss;
    *same_loss = *same_loss && repeat_ok;
    const Outcome outcome = !ep.finite  ? Outcome::kFailed
                            : !repeat_ok ? Outcome::kWrong
                                         : Outcome::kCorrect;
    for (size_t i = 0; i < ep.step_ms.size(); ++i) {
      const double t = ep.step_start[i];
      ledger.add({t, t, t + ep.step_ms[i] * 1e-3, outcome});
    }
    const double per_episode = ep.wall_s;
    eps.push_back(std::move(ep));
    const double elapsed = now_s() - start;
    if (static_cast<int>(eps.size()) >= kMinEpisodes && elapsed + per_episode > seconds) {
      break;
    }
  }
  return eps;
}

double samples_per_s(const std::vector<Episode>& eps, int64_t batch) {
  std::vector<double> v;
  for (const Episode& ep : eps) {
    const auto samples = static_cast<double>(batch * static_cast<int64_t>(ep.step_ms.size()));
    v.push_back(samples / ep.stats.compute_seconds);
  }
  return median(v);
}

std::vector<double> all_steps(const std::vector<Episode>& eps) {
  std::vector<double> v;
  for (const Episode& ep : eps) v.insert(v.end(), ep.step_ms.begin(), ep.step_ms.end());
  return v;
}

}  // namespace

int run_train(const Args& args, WorkloadResult& out) {
  if (args.workload != "train_ptt" && args.workload != "train_dense") {
    std::cerr << "unknown training workload " << args.workload << "\n";
    return 2;
  }
  Tracer tr(args.trace);
  std::unique_ptr<TrainState> s;
  const std::vector<double> setup_s =
      repeat_setup(s, [&] { return set_up(args, tr); }, out);

  Tracer off(false);
  Ledger plain;
  bool same_loss = true;
  const std::vector<Episode> eps = run_episodes(
      *s, off, args.trace ? args.seconds / 2.0 : args.seconds, plain, nullptr, &same_loss);
  const double loss = eps.front().stats.loss;
  const std::vector<double> plain_steps = all_steps(eps);
  std::cout << "episodes=" << eps.size() << " steps/episode=" << kSteps
            << " loss=" << loss << " step p50=" << median(plain_steps)
            << " ms samples/s=" << samples_per_s(eps, s->cfg.batch_size) << "\n";
  out.attempted = plain.attempted();
  out.failed = plain.failed();
  out.correct = same_loss && plain.failed() == 0;

  if (!args.trace) {
    auto& m = out.metrics;
    m["setup_s"] = median(setup_s);
    m["success_rate"] = plain.success_rate();
    m["latency_p50_ms"] = median(plain_steps);
    m["throughput_per_s"] = samples_per_s(eps, s->cfg.batch_size);
    m["slo_attainment"] = plain.attainment(slo_limit_ms(args.workload));
    m["loss_nats"] = loss;
    m["peak_rss_mb"] = peak_rss_mib();
    return 0;
  }

  // Traced half: every leaf module wrapped in a timer.
  LayerClock clock;
  clock.tracer = &tr;
  std::set<const Module*> wrapped;
  ttsnn::visit_module_slots(s->probe->net(), [&](ModulePtr& slot) {
    if (!slot->child_slots().empty() || wrapped.count(slot.get()) > 0) return;
    wrapped.insert(slot.get());
    slot = std::make_unique<TimedLeaf>(std::move(slot), clock);
  });
  s->probe->clock = &clock;
  Ledger traced;
  const ttsnn::ArenaStats arena0 = ttsnn::Arena::instance().stats();
  const std::vector<Episode> teps =
      run_episodes(*s, tr, args.seconds / 2.0, traced, &loss, &same_loss);
  const ttsnn::ArenaStats arena1 = ttsnn::Arena::instance().stats();
  out.attempted += traced.attempted();
  out.failed += traced.failed();
  out.correct = same_loss && out.failed == 0;

  const std::vector<double> traced_steps = all_steps(teps);
  const auto steps = static_cast<double>(traced_steps.size());
  double compute_ms = 0.0, wait_ms = 0.0;
  for (const Episode& ep : teps) {
    compute_ms += ep.stats.compute_seconds * 1e3;
    wait_ms += ep.stats.data_wait_seconds * 1e3;
  }
  auto& m = out.metrics;
  for (const char* dir : {"fwd", "bwd"}) {
    for (const char* fam : {"ttconv", "conv", "lif", "bn", "other"}) {
      const std::string key = std::string(dir) + "." + fam;
      m["train." + key + "_ms"] = clock.ms[key] / steps;
    }
  }
  m["trainer.self_ms"] = (compute_ms - clock.total()) / steps;
  m["trainer.data_wait_ms"] = wait_ms / steps;
  m["arena.misses_per_step"] = static_cast<double>(arena1.misses - arena0.misses) / steps;
  m["factorize.ms"] = s->factorize_ms;
  m["model.params"] = static_cast<double>(s->stats.total_params);
  m["model.mflops"] =
      s->stats.macs_per_step * static_cast<double>(s->cfg.timesteps) / 1e6;
  const double p50 = median(traced_steps), p50_plain = median(plain_steps);
  m["trace.overhead_pct"] = p50_plain > 0.0 ? (p50 - p50_plain) / p50_plain * 100.0 : 0.0;
  m["trace.spans"] = static_cast<double>(tr.spans().size());
  fill_bypassed(m, serve_layer_metrics());

  print_self_times(tr);
  if (!args.trace_out.empty() && !tr.write_jsonl(args.trace_out)) {
    std::cerr << "could not write " << args.trace_out << "\n";
    return 1;
  }
  return 0;
}

}  // namespace perfbench
