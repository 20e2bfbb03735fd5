#pragma once

/// \file ttconv.h
/// TTConv2d — the paper's primary contribution. A K x K convolution factored
/// into four TT sub-convolutions, executed in one of three pipelines:
///
///  - STT (Fig. 1b): sequential chain w1 -> w2 -> w3 -> w4. Stride-s layers
///    place stride (s,1) on the vertical core and (1,s) on the horizontal
///    core so the chain composes to a stride-s convolution.
///  - PTT (Fig. 1c, Eq. 5): w2 and w3 both consume the w1 output and run in
///    parallel (two pool tasks — the CPU analog of the paper's GPU streams);
///    their sum feeds w4. The effective kernel is the K x K cross (no
///    corners). Stride-s layers stride both branches by (s,s).
///  - HTT (Fig. 2): a per-timestep schedule; "full" steps run the PTT path,
///    "half" steps skip the strips and run w1 -> w4 only (with the stride
///    moved onto w4 so output shapes agree across steps).
///
/// Merged inference kernels (Algorithm 1 lines 20-22) are exposed via
/// merged_kernel() / merged_half_kernel(); see also merge_network() in
/// factorize.h.

#include "nn/conv2d.h"
#include "nn/module.h"
#include "tt/tt_cores.h"

namespace ttsnn {

enum class TTMode { kSTT, kPTT, kHTT };

std::string tt_mode_name(TTMode mode);

class TTConv2d : public Module {
 public:
  struct Options {
    int64_t in_channels = 0;
    int64_t out_channels = 0;
    int64_t kernel = 3;
    int64_t stride = 1;
    int64_t rank = 0;
    TTMode mode = TTMode::kPTT;
    /// HTT schedule: full_step[t] == true runs the full (PTT) path at step t.
    /// Empty means "all steps full". Ignored for STT/PTT.
    std::vector<bool> full_step;
    /// Run the PTT/HTT strip branches as two concurrent pool tasks. Either
    /// way each core's convolution spreads its samples over the pool
    /// (conv2d_forward / conv2d_backward), with bit-identical results.
    bool parallel_branches = true;
  };

  /// Randomly initialized cores (Kaiming fan-in per sub-convolution).
  TTConv2d(Options opts, Rng& rng);
  /// Cores from a TT-SVD of a pretrained dense weight (Algorithm 1 line 4).
  TTConv2d(Options opts, const TTCores& cores);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void describe(ShapeState& s, std::vector<LayerDesc>& out) const override;
  void clear_cache() override;
  std::string name() const override { return "TTConv2d"; }

  const Options& options() const { return opts_; }
  /// Snapshot of the current core weights.
  TTCores cores() const;
  /// Merged dense kernel for spike-based inference: full K x K for STT,
  /// cross-shaped for PTT/HTT full steps (Eq. 6).
  Tensor merged_kernel() const;
  /// Merged pointwise kernel for HTT half steps.
  Tensor merged_half_kernel() const;
  /// Fraction of schedule steps executing the full path (1.0 unless HTT).
  double full_step_fraction() const;

  Parameter& w1() { return w1_; }
  Parameter& w2() { return w2_; }
  Parameter& w3() { return w3_; }
  Parameter& w4() { return w4_; }
  const Parameter& w1() const { return w1_; }
  const Parameter& w2() const { return w2_; }
  const Parameter& w3() const { return w3_; }
  const Parameter& w4() const { return w4_; }

  // Sub-convolution option builders, public so the inference lowering pass
  // can reproduce the training pipeline's exact geometry.
  Conv2d::Options opt_w1() const;
  Conv2d::Options opt_w2(bool parallel_mode) const;
  Conv2d::Options opt_w3(bool parallel_mode) const;
  Conv2d::Options opt_w4(bool strided_half) const;

 private:
  Tensor forward_stt(const Tensor& o1);
  Tensor backward_stt(const Tensor& grad);
  /// PTT path over the given tensor (any leading layout); caches branch
  /// intermediates for the matching backward when training.
  Tensor forward_ptt_path(const Tensor& x);
  Tensor backward_ptt_path(const Tensor& grad);
  Tensor forward_htt(const Tensor& o1);
  Tensor backward_htt(const Tensor& grad);

  /// True at HTT step t.
  bool is_full_step(int64_t t) const;
  /// Input tensor the PTT path consumed in the last forward.
  const Tensor& cached_path_input() const;

  Options opts_;
  Parameter w1_, w2_, w3_, w4_;

  // Caches (which subset is populated depends on the mode).
  Tensor in_x_;        // layer input
  Tensor o1_;          // w1 output
  Tensor stt_z2_;      // STT: w2 output
  Tensor stt_z3_;      // STT: w3 output
  Tensor ptt_sum_;     // PTT: branch sum (w4 input)
  Tensor htt_full_x_;  // HTT: gathered full-step w1 outputs
  Tensor htt_half_x_;  // HTT: gathered half-step w1 outputs
  std::vector<int64_t> full_idx_, half_idx_;
};

}  // namespace ttsnn
