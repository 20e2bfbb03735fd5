#pragma once

/// \file model_gen.h
/// Shared seeded random module-tree generator for the fuzz/property suites.
///
/// One seed fully determines one sample: architecture depth, channel widths,
/// strides, residual vs plain blocks, pool placement, BN flavor (per-step /
/// tdBN / TEBN), LIF reset mode, head style, and the TT decomposition
/// (none / STT / PTT / HTT with a random schedule). The sample comes back
/// trained for two steps (so the BN running statistics are non-trivial) and
/// frozen in eval mode — exactly the state infer::compile consumes.
///
/// Replay protocol, honored by every suite that includes this header:
///  - TTSNN_TEST_SEED=<n> pins the whole suite to that single seed; on any
///    randomized failure the suite prints the exact line to re-export.
///  - TTSNN_FUZZ_ITERS=<n> bounds sample counts (sanitizer CI jobs run a
///    reduced sweep; the default count is the suite's own).

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/factorize.h"
#include "core/models.h"
#include "nn/batchnorm.h"
#include "nn/containers.h"
#include "nn/conv2d.h"
#include "nn/lif.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "tensor/ops.h"
#include "util/common.h"

namespace ttsnn::testgen {

/// True when TTSNN_TEST_SEED is exported — the suite should then run ONLY
/// that seed (the replay of one failing sample), not its whole sweep.
inline bool seed_pinned() {
  const char* env = std::getenv("TTSNN_TEST_SEED");
  return env != nullptr && *env != '\0';
}

/// The suite's base seed: TTSNN_TEST_SEED when exported, else `fallback`.
inline uint64_t suite_seed(uint64_t fallback) {
  const char* env = std::getenv("TTSNN_TEST_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return fallback;
}

/// Sample budget for randomized sweeps: TTSNN_FUZZ_ITERS when exported (and
/// positive), else `fallback`. A pinned seed always means exactly one sample.
inline int iteration_budget(int fallback) {
  const char* env = std::getenv("TTSNN_FUZZ_ITERS");
  if (env != nullptr && *env != '\0') {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<int>(v);
  }
  return fallback;
}

/// The exact environment line that replays one failing sample. Printed via
/// SCOPED_TRACE / assertion messages so a CI failure is reproducible with a
/// copy-paste.
inline std::string seed_line(uint64_t seed) {
  std::ostringstream oss;
  oss << "replay: TTSNN_TEST_SEED=" << seed << " <this test binary>";
  return oss.str();
}

/// TT decomposition applied to a generated sample; kNone keeps every conv
/// dense.
enum class GenTT { kNone, kStt, kPtt, kHtt };

inline const char* gen_tt_name(GenTT m) {
  switch (m) {
    case GenTT::kNone:
      return "none";
    case GenTT::kStt:
      return "stt";
    case GenTT::kPtt:
      return "ptt";
    case GenTT::kHtt:
      return "htt";
  }
  return "?";
}

struct GeneratedModel {
  ModulePtr net;
  int64_t timesteps = 1;
  Shape input;       ///< a valid concrete [T, N, C, H, W] for this sample
  std::string desc;  ///< one-line sample summary for failure messages
};

/// Builds, briefly trains (two forwards move the BN running statistics away
/// from their init) and eval-freezes one random sample. Every knob derives
/// from `seed` alone, so a failing sample replays bit-exactly.
inline GeneratedModel random_model(uint64_t seed) {
  Rng rng(seed);
  GeneratedModel gm;

  gm.timesteps = 1 + rng.index(4);                  // T in [1, 4]
  const int64_t n = 1 + rng.index(2);               // N in [1, 2]
  const int64_t in_c = rng.bernoulli(0.5F) ? 3 : 2;
  const int64_t h0 = 8 + 4 * rng.index(2);          // 8 or 12
  const int64_t width = 8LL << rng.index(2);        // 8 or 16
  const int64_t classes = 2 + rng.index(4);
  const GenTT mode = static_cast<GenTT>(rng.index(4));

  BatchNorm::Mode bn_mode = BatchNorm::Mode::kPerStep;
  switch (rng.index(3)) {
    case 1:
      bn_mode = BatchNorm::Mode::kTdBn;
      break;
    case 2:
      bn_mode = BatchNorm::Mode::kTebn;
      break;
    default:
      break;
  }
  LIFNeuron::Options lif;
  lif.reset = rng.bernoulli(0.3F) ? ResetMode::kSubtract : ResetMode::kZero;
  const auto bn = [&](int64_t channels) {
    return BatchNorm::Options{
        .channels = channels,
        .mode = bn_mode,
        .alpha_vth = bn_mode == BatchNorm::Mode::kTdBn ? lif.v_th : 1.0F,
        .timesteps = gm.timesteps};
  };

  auto net = std::make_unique<Sequential>();
  // Stem: dense conv + BN (never decomposed — small input channel count).
  net->emplace<Conv2d>(
      Conv2d::Options{.in_channels = in_c, .out_channels = width}, rng);
  net->emplace<BatchNorm>(bn(width));

  std::ostringstream desc;
  desc << "seed=" << seed << " T=" << gm.timesteps << " N=" << n
       << " C=" << in_c << " HW=" << h0 << " width=" << width
       << " tt=" << gen_tt_name(mode) << " bn="
       << (bn_mode == BatchNorm::Mode::kTebn
               ? "tebn"
               : bn_mode == BatchNorm::Mode::kTdBn ? "tdbn" : "perstep")
       << " reset=" << (lif.reset == ResetMode::kZero ? "zero" : "sub")
       << " blocks=";

  int64_t c = width;
  int64_t h = h0;  // "same" 3x3 convs keep H; stride 2 halves it (k=3, p=1)
  const int depth = 1 + static_cast<int>(rng.index(3));  // 1..3 blocks
  for (int i = 0; i < depth; ++i) {
    const bool residual = rng.bernoulli(0.5F);
    const int64_t out_c = rng.bernoulli(0.3F) ? c * 2 : c;
    const int64_t stride = (h >= 8 && rng.bernoulli(0.3F)) ? 2 : 1;
    if (residual) {
      // MS-ResNet basic block: pre-activation body, membrane shortcut (the
      // residual sum is on post-BN values).
      auto body = std::make_unique<Sequential>();
      body->emplace<LIFNeuron>(lif);
      body->emplace<Conv2d>(Conv2d::Options{.in_channels = c,
                                            .out_channels = out_c,
                                            .stride = stride},
                            rng);
      body->emplace<BatchNorm>(bn(out_c));
      body->emplace<LIFNeuron>(lif);
      body->emplace<Conv2d>(
          Conv2d::Options{.in_channels = out_c, .out_channels = out_c}, rng);
      body->emplace<BatchNorm>(bn(out_c));
      ModulePtr shortcut;
      if (stride != 1 || c != out_c) {
        auto sc = std::make_unique<Sequential>();
        sc->emplace<Conv2d>(Conv2d::Options{.in_channels = c,
                                            .out_channels = out_c,
                                            .kernel_h = 1,
                                            .kernel_w = 1,
                                            .stride = stride},
                            rng);
        sc->emplace<BatchNorm>(bn(out_c));
        shortcut = std::move(sc);
      }
      net->add(std::make_unique<Residual>(std::move(body), std::move(shortcut)));
      desc << "R";
    } else {
      net->emplace<LIFNeuron>(lif);
      net->emplace<Conv2d>(Conv2d::Options{.in_channels = c,
                                           .out_channels = out_c,
                                           .stride = stride},
                           rng);
      net->emplace<BatchNorm>(bn(out_c));
      desc << "P";
    }
    c = out_c;
    if (stride == 2) h = (h - 1) / 2 + 1;
    desc << "(c" << out_c << ",s" << stride;
    // Pool placement knob: sometimes between blocks, on the real-valued
    // post-BN features (needs an even spatial extent to stay legal).
    if (h % 2 == 0 && h >= 4 && rng.bernoulli(0.25F)) {
      net->emplace<AvgPool2d>(2);
      h /= 2;
      desc << ",pool";
    }
    desc << ")";
  }

  // Head: spike then either global-pool or flatten classification.
  net->emplace<LIFNeuron>(lif);
  if (rng.bernoulli(0.5F)) {
    net->emplace<GlobalAvgPool>();
    net->emplace<Linear>(c, classes, rng);
    desc << " head=gpool";
  } else {
    net->emplace<Flatten>();
    net->emplace<Linear>(c * h * h, classes, rng);
    desc << " head=flatten";
  }

  if (mode != GenTT::kNone) {
    FactorizeOptions fo;
    fo.mode = mode == GenTT::kStt
                  ? TTMode::kSTT
                  : mode == GenTT::kPtt ? TTMode::kPTT : TTMode::kHTT;
    fo.use_vbmf = false;
    fo.rank_fraction = 0.25 + 0.25 * static_cast<double>(rng.index(3));
    if (mode == GenTT::kHtt) {
      fo.htt_schedule.resize(static_cast<size_t>(gm.timesteps));
      for (size_t t = 0; t < fo.htt_schedule.size(); ++t) {
        fo.htt_schedule[t] = rng.bernoulli(0.5F);
      }
    }
    factorize_network(*net, fo, rng);
  }

  gm.input = {gm.timesteps, n, in_c, h0, h0};
  net->set_training(true);
  for (int i = 0; i < 2; ++i) {
    net->forward(Tensor::uniform(gm.input, rng));
  }
  net->clear_cache();
  net->set_training(false);

  gm.net = std::move(net);
  gm.desc = desc.str();
  return gm;
}

/// Deterministic factorized MS-ResNet18 with moved BN statistics — the shared
/// replacement for the hand-rolled "trained model" fixtures the infer suites
/// used to duplicate. Exercises residuals, flatten, pooling, and every TT op.
inline ModulePtr trained_resnet18(TTMode mode, Rng& rng,
                                  int64_t timesteps = 4) {
  ModelConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 4;
  cfg.base_width = 8;
  cfg.timesteps = timesteps;
  ModulePtr net = make_ms_resnet18(cfg, rng);
  FactorizeOptions fopts;
  fopts.mode = mode;
  fopts.use_vbmf = false;
  fopts.rank_fraction = 0.5;
  if (mode == TTMode::kHTT) {
    fopts.htt_schedule = {true, false, true, false};
    fopts.htt_schedule.resize(static_cast<size_t>(timesteps));
  }
  factorize_network(*net, fopts, rng);
  net->set_training(true);
  for (int i = 0; i < 2; ++i) {
    net->forward(Tensor::uniform({timesteps, 2, 3, 8, 8}, rng));
  }
  net->clear_cache();
  net->set_training(false);
  return net;
}

}  // namespace ttsnn::testgen
