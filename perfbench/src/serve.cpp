// Serving workloads over the f32 exact-TT plan behind a default Router.
//
//  serve_steady  open loop: one single-sample request every 25 ms (40 req/s),
//                latency timed from each request's due time.
//  serve_batch   closed loop: 8 clients with one request outstanding each,
//                latency timed from each request's send time.
//
// One generator thread both sends and collects. Every response is compared
// bitwise to eval-mode Module::forward of the same request tensor, computed
// during set-up.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common.h"
#include "core/flops.h"
#include "infer/analysis.h"
#include "infer/engine.h"
#include "infer/plan_cache.h"
#include "infer/router.h"
#include "snn/loss.h"

namespace perfbench {
namespace {

using ttsnn::Tensor;

constexpr int64_t kPoolSize = 32;       ///< distinct request tensors
constexpr double kIntervalMs = 25.0;    ///< serve_steady arrival interval
/// serve_batch clients, one request outstanding each. The two shards form
/// batches of 4. With 16 clients (batches of 8), the run-to-run spread of
/// latency_p50_ms was 0.14-0.26 on the shared 4-core host; with 8 it is a
/// few percent.
constexpr uint64_t kOutstanding = 8;
constexpr double kPollS = 1e-3;         ///< completion polling grain

/// Latency limit of slo_attainment per workload: serve_steady answers within
/// the arrival interval, so no request still runs when the next one is due.
double slo_limit_ms(const std::string& workload) {
  return workload == "serve_steady" ? kIntervalMs : 250.0;
}

/// Everything one set-up builds: the request pool with its reference
/// outputs, the model, the compiled exact plan and the Router over it.
struct ServeState {
  ttsnn::ScenarioConfig cfg;
  ttsnn::Shape sample_shape;           ///< [T, C, H, W]
  std::vector<Tensor> pool;            ///< request tensors, [T, C, H, W]
  std::vector<int64_t> labels;
  std::vector<Tensor> reference;       ///< eval forward, [T, 1, classes]
  ttsnn::ModulePtr model;
  std::optional<ttsnn::infer::Engine> engine;
  std::unique_ptr<ttsnn::infer::Router> router;  ///< destroyed first: drains
  double factorize_ms = 0.0;
  double compile_ms = 0.0;
  double first_run_ms = 0.0;
  bool warmup_correct = true;
};

ttsnn::Shape batched(const ttsnn::Shape& sample, int64_t n) {
  return {sample[0], n, sample[1], sample[2], sample[3]};
}

bool same_bits(const Tensor& got, const Tensor& want) {
  return perfbench::same_bits(got.data(), got.numel(), want.data(), want.numel());
}

/// Stacks pool[0..n) into one [T, n, C, H, W] batch.
Tensor stack_pool(const ServeState& s, int64_t n) {
  const ttsnn::Shape& sh = s.sample_shape;
  const int64_t plane = sh[1] * sh[2] * sh[3];
  Tensor out = Tensor::empty(batched(sh, n));
  for (int64_t t = 0; t < sh[0]; ++t) {
    for (int64_t i = 0; i < n; ++i) {
      std::memcpy(out.data() + (t * n + i) * plane,
                  s.pool[static_cast<size_t>(i)].data() + t * plane,
                  static_cast<size_t>(plane) * sizeof(float));
    }
  }
  return out;
}

std::unique_ptr<ServeState> set_up(const Args& args, Tracer& tr) {
  const uint64_t seed = args.seed;
  auto s = std::make_unique<ServeState>();
  const int64_t root = tr.open("setup");

  int64_t span = tr.open("setup.data", root);
  s->cfg = baseline_config(seed, "ptt");
  s->cfg.test_per_class = kPoolSize / s->cfg.classes;
  std::unique_ptr<ttsnn::Dataset> data =
      ttsnn::make_scenario_dataset(s->cfg, /*train=*/false);
  for (int64_t i = 0; i < data->size(); ++i) {
    ttsnn::Batch b = data->get_batch({i}, s->cfg.timesteps);
    const ttsnn::Shape& in = b.input.shape();  // [T, 1, C, H, W]
    s->sample_shape = {in[0], in[2], in[3], in[4]};
    s->pool.push_back(b.input.reshape(s->sample_shape));
    s->labels.push_back(b.labels[0]);
  }
  tr.close(span);

  span = tr.open("setup.model", root);
  ttsnn::Rng rng(s->cfg.seed);
  s->model = ttsnn::build_scenario_model(s->cfg, data->channels(), rng);
  tr.close(span);

  span = tr.open("setup.factorize", root);
  double t = now_s();
  ttsnn::factorize_network(*s->model, ttsnn::scenario_factorize_options(s->cfg), rng);
  s->factorize_ms = (now_s() - t) * 1e3;
  s->model->set_training(false);
  tr.close(span);

  span = tr.open("setup.compile", root);
  t = now_s();
  s->engine.emplace(ttsnn::infer::compile(
      *s->model, {.merge_tt = false, .fold_batchnorm = false}));
  s->compile_ms = (now_s() - t) * 1e3;
  tr.close(span);

  span = tr.open("setup.reference", root);
  for (const Tensor& x : s->pool) {
    s->reference.push_back(
        s->model->forward(x.reshape(batched(s->sample_shape, 1))).clone());
  }
  if (args.perturb_reference) {
    float& v = s->reference[0].data()[0];
    v = std::nextafter(v, v + 1.0F);
  }
  tr.close(span);

  // Warm-up: the first run at batch 1 compiles its program (a cache miss),
  // programs for every batch size the Router can form are compiled before
  // timing, and one round of the pool goes through the Router.
  span = tr.open("setup.warmup", root);
  t = now_s();
  Tensor first = s->engine->run(s->pool[0].reshape(batched(s->sample_shape, 1)));
  s->first_run_ms = (now_s() - t) * 1e3;
  s->warmup_correct = same_bits(first, s->reference[0]);
  ttsnn::infer::RouterOptions ropts;
  for (int64_t n = 2; n <= ropts.max_batch; ++n) {
    s->engine->program(batched(s->sample_shape, n));
  }
  s->router = std::make_unique<ttsnn::infer::Router>(*s->engine, ropts);
  std::vector<std::future<Tensor>> futs;
  for (const Tensor& x : s->pool) futs.push_back(s->router->submit(x));
  for (size_t i = 0; i < futs.size(); ++i) {
    s->warmup_correct = same_bits(futs[i].get(), s->reference[i]) && s->warmup_correct;
  }
  tr.close(span);

  tr.close(root);
  return s;
}

/// A request in flight.
struct Pending {
  int64_t id = 0;
  size_t pool_index = 0;
  double due = 0.0;
  double sent = 0.0;
  double submit_end = 0.0;
  uint64_t session = 0;
  std::future<Tensor> fut;
};

/// One measured phase of load against the Router, with its accounting.
struct Phase {
  Ledger ledger;
  std::vector<double> submit_us;
  std::vector<bool> pool_served;
  std::vector<double> pool_loss;  ///< CE of the first correct response
};

class Generator {
 public:
  Generator(ServeState& s, Tracer& tr, Phase& ph, uint64_t seed)
      : s_(s), tr_(tr), ph_(ph), pick_(seed * 7919ULL + 3) {
    ph_.pool_served.assign(s_.pool.size(), false);
    ph_.pool_loss.assign(s_.pool.size(), 0.0);
    order_.resize(s_.pool.size());
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  }

  /// Sends the next request now (due = `due`) under a client's session key.
  void send(double due, uint64_t session) {
    Pending p;
    p.id = next_id_++;
    p.pool_index = next_pool_index();
    p.due = due;
    p.session = session;
    p.sent = now_s();
    try {
      p.fut = s_.router->submit(s_.pool[p.pool_index], session);
      p.submit_end = now_s();
    } catch (const ttsnn::infer::AdmissionError&) {
      finish(p, now_s(), Outcome::kShed);
      return;
    } catch (const std::exception&) {
      finish(p, now_s(), Outcome::kFailed);
      return;
    }
    ph_.submit_us.push_back((p.submit_end - p.sent) * 1e6);
    pending_.push_back(std::move(p));
  }

  /// Collects finished requests until `until` (steady-clock seconds) or, for
  /// until < 0, until at least one completes. Returns the session keys of
  /// every request that finished since the last call, refused ones included.
  std::vector<uint64_t> collect(double until) {
    int done = 0;
    while (true) {
      if (pending_.empty()) {
        const double wait = until - now_s();
        if (wait > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        return std::exchange(finished_, {});
      }
      const double left = until < 0.0 ? kPollS : std::min(kPollS, until - now_s());
      if (left > 0.0) {
        pending_.front().fut.wait_for(std::chrono::duration<double>(left));
      }
      const double now = now_s();
      for (auto it = pending_.begin(); it != pending_.end();) {
        if (it->fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
          settle(*it, now);
          it = pending_.erase(it);
          ++done;
        } else {
          ++it;
        }
      }
      if ((until < 0.0 && done > 0) || (until >= 0.0 && now_s() >= until)) {
        return std::exchange(finished_, {});
      }
    }
  }

  void drain() {
    while (!pending_.empty()) collect(-1.0);
  }

 private:
  size_t next_pool_index() {
    // Each pass over the pool is a fresh seeded permutation, so every
    // request tensor is served and the order differs between passes.
    if (cursor_ == 0) {
      for (size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[static_cast<size_t>(
                                     pick_.index(static_cast<int64_t>(i)))]);
      }
    }
    const size_t idx = order_[cursor_];
    cursor_ = (cursor_ + 1) % order_.size();
    return idx;
  }

  void settle(Pending& p, double done) {
    try {
      Tensor out = p.fut.get();
      const bool ok = same_bits(out, s_.reference[p.pool_index]);
      if (ok && !ph_.pool_served[p.pool_index]) {
        ph_.pool_served[p.pool_index] = true;
        ph_.pool_loss[p.pool_index] =
            ttsnn::cross_entropy_sum_loss(
                out.reshape(s_.reference[p.pool_index].shape()),
                {s_.labels[p.pool_index]})
                .value;
      }
      finish(p, done, ok ? Outcome::kCorrect : Outcome::kWrong);
    } catch (const std::exception&) {
      finish(p, done, Outcome::kFailed);
    }
  }

  void finish(const Pending& p, double done, Outcome outcome) {
    ph_.ledger.add({p.due, p.sent, done, outcome});
    finished_.push_back(p.session);
    if (tr_.enabled()) {
      const int64_t rid = tr_.add("request", p.due, done, -1, p.id);
      if (p.sent > p.due) tr_.add("gen.late", p.due, p.sent, rid, p.id);
      if (p.submit_end > 0.0) tr_.add("router.submit", p.sent, p.submit_end, rid, p.id);
    }
  }

  ServeState& s_;
  Tracer& tr_;
  Phase& ph_;
  ttsnn::Rng pick_;
  std::vector<size_t> order_;
  size_t cursor_ = 0;
  int64_t next_id_ = 0;
  std::deque<Pending> pending_;
  std::vector<uint64_t> finished_;
};

void run_open_loop(ServeState& s, Tracer& tr, Phase& ph, uint64_t seed,
                   double seconds) {
  Generator gen(s, tr, ph, seed);
  const double start = now_s() + 0.005;
  const double interval = kIntervalMs * 1e-3;
  const auto count = static_cast<int64_t>(std::floor(seconds / interval));
  for (int64_t i = 0; i < count; ++i) {
    const double due = start + static_cast<double>(i) * interval;
    gen.collect(due);
    gen.send(due, 0);
  }
  gen.drain();
}

void run_closed_loop(ServeState& s, Tracer& tr, Phase& ph, uint64_t seed,
                     double seconds) {
  Generator gen(s, tr, ph, seed);
  const double end = now_s() + seconds;
  // Each outstanding request is one client with its own session key, so the
  // Router's (shape, session) hash spreads the clients over its shards.
  for (uint64_t client = 0; client < kOutstanding; ++client) gen.send(now_s(), client);
  while (now_s() < end) {
    for (uint64_t client : gen.collect(-1.0)) {
      if (now_s() < end) gen.send(now_s(), client);
    }
  }
  gen.drain();
}

void run_phase(const Args& args, ServeState& s, Tracer& tr, Phase& ph,
               double seconds) {
  if (args.workload == "serve_steady") {
    run_open_loop(s, tr, ph, args.seed, seconds);
  } else {
    run_closed_loop(s, tr, ph, args.seed, seconds);
  }
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void print_latency(const char* label, const Ledger& ledger) {
  const std::vector<double> lat = ledger.latencies_ms();
  const auto n = static_cast<int64_t>(lat.size());
  std::cout << label << ": n=" << n << " p50=" << percentile(lat, 50)
            << " ms p90=" << percentile(lat, 90) << " ms ("
            << samples_beyond(n, 90) << " beyond) p99=" << percentile(lat, 99)
            << " ms (" << samples_beyond(n, 99)
            << " beyond); highest percentile with >=10 beyond: p"
            << highest_reportable(n, {50, 90, 99, 99.9}) << "\n";
}

/// Direct Engine::run timing at batch n over `reps` calls; every output is
/// checked against the reference.
double time_engine(ServeState& s, Tracer& tr, int64_t n, int reps, bool* correct) {
  const Tensor x = stack_pool(s, n);
  const int64_t classes = s.reference[0].numel() / s.sample_shape[0];
  std::vector<double> ms;
  Tensor ws;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    Tensor out = s.engine->run(x, ws);
    const double t1 = now_s();
    tr.add("engine.run.b" + std::to_string(n), t0, t1);
    ms.push_back((t1 - t0) * 1e3);
    for (int64_t t = 0; t < s.sample_shape[0]; ++t) {
      for (int64_t i = 0; i < n; ++i) {
        const float* want = s.reference[static_cast<size_t>(i)].data() + t * classes;
        const float* got = out.data() + (t * n + i) * classes;
        if (!perfbench::same_bits(got, classes, want, classes)) *correct = false;
      }
    }
  }
  return median(ms);
}

}  // namespace

int run_serve(const Args& args, WorkloadResult& out) {
  if (args.workload != "serve_steady" && args.workload != "serve_batch") {
    std::cerr << "unknown serving workload " << args.workload << "\n";
    return 2;
  }
  Tracer tr(args.trace);
  std::unique_ptr<ServeState> s;
  bool warmup_correct = true;
  const std::vector<double> setup_s = repeat_setup(s, [&] {
    auto state = set_up(args, tr);
    warmup_correct = warmup_correct && state->warmup_correct;
    return state;
  }, out);
  out.correct = warmup_correct;
  const double slo_ms = slo_limit_ms(args.workload);

  // The untraced phase is the whole run in the measured mode and the first
  // half of the traced run; its numbers are the base of the trace overhead.
  Tracer off(false);
  Phase plain;
  const ttsnn::infer::RouterStats plain_before = s->router->stats();
  const double plain_seconds = args.trace ? args.seconds / 2.0 : args.seconds;
  run_phase(args, *s, off, plain, plain_seconds);
  print_latency("latency (untraced)", plain.ledger);
  const ttsnn::infer::RouterStats plain_after = s->router->stats();
  std::cout << "router (untraced): batches=" << plain_after.batches - plain_before.batches
            << " requests=" << plain_after.requests - plain_before.requests
            << " steals=" << plain_after.steals - plain_before.steals << "\n";
  std::cout << "generator lateness p50=" << percentile(plain.ledger.lateness_ms(), 50)
            << " ms p90=" << percentile(plain.ledger.lateness_ms(), 90) << " ms\n";

  const bool pool_covered =
      std::all_of(plain.pool_served.begin(), plain.pool_served.end(),
                  [](bool b) { return b; });
  out.correct = out.correct && pool_covered && plain.ledger.failed() == 0;
  out.attempted = plain.ledger.attempted();
  out.failed = plain.ledger.failed();

  if (!args.trace) {
    auto& m = out.metrics;
    m["setup_s"] = median(setup_s);
    m["success_rate"] = plain.ledger.success_rate();
    m["latency_p50_ms"] = median(plain.ledger.latencies_ms());
    m["throughput_per_s"] = plain.ledger.correct_per_second();
    m["slo_attainment"] = plain.ledger.attainment(slo_ms);
    m["loss_nats"] = mean(plain.pool_loss);
    m["peak_rss_mb"] = peak_rss_mib();
    return 0;
  }

  // Traced half: same load, spans on.
  Phase traced;
  const ttsnn::infer::RouterStats before = s->router->stats();
  run_phase(args, *s, tr, traced, args.seconds / 2.0);
  const ttsnn::infer::RouterStats after = s->router->stats();
  print_latency("latency (traced)", traced.ledger);
  out.attempted += traced.ledger.attempted();
  out.failed += traced.ledger.failed();
  out.correct = out.correct && traced.ledger.failed() == 0;

  bool engine_correct = true;
  const double b1 = time_engine(*s, tr, 1, 40, &engine_correct);
  const double b8 = time_engine(*s, tr, 8, 10, &engine_correct);
  // Queue wait is the latency beyond a direct run at the batch size formed.
  const int64_t formed = std::clamp<int64_t>(
      std::llround(static_cast<double>(after.requests - before.requests) /
                   static_cast<double>(std::max<int64_t>(after.batches - before.batches, 1))),
      1, 8);
  const double b_formed = formed == 1   ? b1
                          : formed == 8 ? b8
                                        : time_engine(*s, tr, formed, 10, &engine_correct);
  out.correct = out.correct && engine_correct;

  const ttsnn::infer::ProgramCacheStats cache = s->engine->cache_stats();
  // Every distinct input shape compiles exactly once.
  out.correct = out.correct && cache.misses == cache.entries + cache.evictions;

  const ttsnn::ModelStats stats = ttsnn::analyze_model(
      *s->model, s->sample_shape[1], s->sample_shape[2], s->sample_shape[3]);

  auto& m = out.metrics;
  const double p50 = median(traced.ledger.latencies_ms());
  const double p50_plain = median(plain.ledger.latencies_ms());
  m["router.queue_wait_ms"] = p50 - b_formed;
  m["router.submit_us"] = median(traced.submit_us);
  const int64_t batches = after.batches - before.batches;
  m["router.batches"] = static_cast<double>(batches);
  m["router.mean_batch"] =
      batches > 0 ? static_cast<double>(after.requests - before.requests) /
                        static_cast<double>(batches)
                  : 0.0;
  m["router.steals"] = static_cast<double>(after.steals - before.steals);
  m["router.latency_p90_ms"] = percentile(traced.ledger.latencies_ms(), 90);
  m["router.latency_p99_ms"] = percentile(traced.ledger.latencies_ms(), 99);
  m["gen.late_p90_ms"] = percentile(traced.ledger.lateness_ms(), 90);
  m["engine.run_b1_ms"] = b1;
  m["engine.run_b8_ms"] = b8;
  m["engine.workspace_b1_bytes"] = static_cast<double>(
      s->engine->memory_plan(batched(s->sample_shape, 1))->total_floats * 4);
  m["engine.workspace_b8_bytes"] = static_cast<double>(
      s->engine->memory_plan(batched(s->sample_shape, 8))->total_floats * 4);
  m["engine.weight_bytes"] = static_cast<double>(s->engine->weight_bytes());
  m["engine.num_ops"] = static_cast<double>(s->engine->num_ops());
  m["compile.ms"] = s->compile_ms;
  m["plan_cache.first_run_ms"] = s->first_run_ms;
  m["plan_cache.hits"] = static_cast<double>(cache.hits);
  m["plan_cache.misses"] = static_cast<double>(cache.misses);
  m["factorize.ms"] = s->factorize_ms;
  m["model.params"] = static_cast<double>(stats.total_params);
  m["model.mflops"] = stats.macs_per_step * static_cast<double>(s->cfg.timesteps) / 1e6;
  m["trace.overhead_pct"] = p50_plain > 0.0 ? (p50 - p50_plain) / p50_plain * 100.0 : 0.0;
  m["trace.spans"] = static_cast<double>(tr.spans().size());
  fill_bypassed(m, train_layer_metrics());

  print_self_times(tr);
  if (!args.trace_out.empty() && !tr.write_jsonl(args.trace_out)) {
    std::cerr << "could not write " << args.trace_out << "\n";
    return 1;
  }
  return 0;
}

}  // namespace perfbench
