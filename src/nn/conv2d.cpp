#include "nn/conv2d.h"

#include <algorithm>

#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "tensor/simd.h"
#include "util/thread_pool.h"

namespace ttsnn {

namespace {

/// Folds all leading dims of x ([..., C, H, W]) into a batch extent.
int64_t folded_batch(const Tensor& x, int64_t c, const char* who) {
  TTSNN_CHECK(x.dim() >= 3, who << ": input must be at least [C, H, W], got "
                                << shape_str(x.shape()));
  TTSNN_CHECK(x.size(-3) == c, who << ": channel mismatch, expected " << c
                                   << " in " << shape_str(x.shape()));
  const int64_t chw = x.size(-3) * x.size(-2) * x.size(-1);
  return x.numel() / chw;
}

/// Samples per lane slot in one wave of the fanned-out weight gradient: the
/// wave's partials cost kWaveDepth * lanes weight-sized buffers, and each
/// wave ends in one pool barrier.
constexpr int64_t kWaveDepth = 2;

Shape output_shape(const Tensor& x, int64_t out_c, int64_t oh, int64_t ow) {
  Shape s = x.shape();
  s[s.size() - 3] = out_c;
  s[s.size() - 2] = oh;
  s[s.size() - 1] = ow;
  return s;
}

}  // namespace

Conv2d::Conv2d(Options opts, Rng& rng) : opts_(opts) {
  TTSNN_CHECK(opts_.in_channels > 0 && opts_.out_channels > 0,
              "Conv2d channels must be positive");
  const int64_t fan_in = opts_.in_channels * opts_.kernel_h * opts_.kernel_w;
  weight_ = Parameter(
      "conv.weight",
      kaiming_normal({opts_.out_channels, opts_.in_channels, opts_.kernel_h,
                      opts_.kernel_w},
                     fan_in, rng));
  if (opts_.bias) {
    bias_ = Parameter("conv.bias", Tensor::zeros({opts_.out_channels}));
  }
}

Conv2d::Conv2d(Options opts, Tensor weight) : opts_(opts) {
  TTSNN_CHECK(weight.shape() == (Shape{opts_.out_channels, opts_.in_channels,
                                       opts_.kernel_h, opts_.kernel_w}),
              "Conv2d explicit weight shape " << shape_str(weight.shape())
                                              << " does not match options");
  weight_ = Parameter("conv.weight", std::move(weight));
  if (opts_.bias) {
    bias_ = Parameter("conv.bias", Tensor::zeros({opts_.out_channels}));
  }
}

ConvGeometry Conv2d::geometry(int64_t in_h, int64_t in_w) const {
  return conv_geometry(opts_, in_h, in_w);
}

ConvGeometry conv_geometry(const Conv2d::Options& opts, int64_t in_h,
                           int64_t in_w) {
  return ConvGeometry{.in_channels = opts.in_channels,
                      .in_h = in_h,
                      .in_w = in_w,
                      .kernel_h = opts.kernel_h,
                      .kernel_w = opts.kernel_w,
                      .stride_h = opts.resolved_stride_h(),
                      .stride_w = opts.resolved_stride_w(),
                      .pad_h = opts.resolved_pad_h(),
                      .pad_w = opts.resolved_pad_w()};
}

// Both functions run one sample at a time: an im2col into a column matrix
// (skipped for pointwise stride-1 convolutions — the TT w1/w4 cores, half the
// factorized pipeline — whose column matrix would be an identity copy of the
// input plane, so gemm reads the plane in place; the inference engine applies
// the same skip) and one small gemm per product. The folded batch spreads
// over the shared pool as sample_lanes() decides; every per-sample gemm keeps
// its serial arguments, so results are bit-identical for any lane count.
// Per-slot scratch is carved here, on the calling thread, and chunk
// `begin / grain` owns slot `begin / grain`.

Tensor conv2d_forward(const Tensor& x, const Tensor& weight,
                      const Conv2d::Options& opts) {
  const int64_t batch = folded_batch(x, opts.in_channels, "conv2d_forward");
  const ConvGeometry g = conv_geometry(opts, x.size(-2), x.size(-1));
  const int64_t oh = g.out_h();
  const int64_t ow = g.out_w();
  TTSNN_CHECK(oh > 0 && ow > 0, "conv2d output would be empty for input "
                                    << shape_str(x.shape()));
  // Both buffers are fully overwritten (im2col writes every column entry,
  // the gemm runs with beta = 0), so skip the zero-fill.
  Tensor out = Tensor::empty(output_shape(x, opts.out_channels, oh, ow));
  const bool pointwise = g.pointwise();
  const int64_t col_len = pointwise ? 0 : g.col_rows() * g.col_cols();
  const SampleLanes lanes = sample_lanes(batch);
  Tensor col = pointwise ? Tensor() : Tensor::empty({lanes.slots, col_len});
  const int64_t in_stride = opts.in_channels * g.in_h * g.in_w;
  const int64_t out_stride = opts.out_channels * oh * ow;
  const float* xd = x.data();
  float* yd = out.data();
  parallel_for(
      batch,
      [&](int64_t begin, int64_t end) {
        float* cb = pointwise ? nullptr
                              : col.data() + (begin / lanes.grain) * col_len;
        for (int64_t b = begin; b < end; ++b) {
          const float* lowered = xd + b * in_stride;
          if (!pointwise) {
            im2col(lowered, g, cb);
            lowered = cb;
          }
          // out_b [O, oh*ow] = W [O, C*kh*kw] * col
          gemm(false, false, opts.out_channels, g.col_cols(), g.col_rows(),
               1.0F, weight.data(), lowered, 0.0F, yd + b * out_stride);
        }
      },
      lanes.grain);
  return out;
}

Tensor conv2d_backward(const Tensor& x, const Tensor& weight,
                       const Conv2d::Options& opts, const Tensor& grad_out,
                       Tensor& weight_grad) {
  const int64_t batch = folded_batch(x, opts.in_channels, "conv2d_backward");
  const ConvGeometry g = conv_geometry(opts, x.size(-2), x.size(-1));
  const int64_t oh = g.out_h();
  const int64_t ow = g.out_w();
  const int64_t in_stride = opts.in_channels * g.in_h * g.in_w;
  const int64_t out_stride = opts.out_channels * oh * ow;
  TTSNN_CHECK(grad_out.dim() >= 3 && grad_out.size(-3) == opts.out_channels &&
                  grad_out.size(-2) == oh && grad_out.size(-1) == ow,
              "conv2d_backward grad shape " << shape_str(grad_out.shape())
                                            << " mismatch");
  TTSNN_CHECK(grad_out.numel() == batch * out_stride,
              "conv2d_backward: grad_out " << shape_str(grad_out.shape())
                                           << " folds to "
                                           << grad_out.numel() / out_stride
                                           << " samples, input "
                                           << shape_str(x.shape()) << " to "
                                           << batch);
  TTSNN_CHECK(weight_grad.shape() == weight.shape(),
              "conv2d_backward: weight_grad shape "
                  << shape_str(weight_grad.shape()) << " differs from weight "
                  << shape_str(weight.shape()));
  // Every sample writes its whole grad_in plane: the lowered path zeroes it
  // for col2im to accumulate into, in the sample's own lane. Pointwise
  // stride-1 case: im2col is an identity copy and col2im an identity
  // accumulate, so dW reads the input plane in place and dcol is written
  // straight into the grad_in plane with beta=0 — the same products
  // accumulate in the same order, so the bits match the lowered path.
  Tensor grad_in = Tensor::empty(x.shape());
  const bool pointwise = g.pointwise();
  const int64_t col_len = pointwise ? 0 : g.col_rows() * g.col_cols();
  const float* xd = x.data();
  const float* gd = grad_out.data();
  float* gid = grad_in.data();
  // dW must keep the serial ascending-sample accumulation
  // dW = ((dW + P_0) + P_1) + ..., where P_b = float(dot_b) is what the NT
  // gemm adds for sample b (every NT kernel does c += alpha * float(dot)
  // once per call, alpha = 1 here). So samples run in waves of kWaveDepth
  // per lane slot; each writes P_b into its own partial, pre-filled with
  // -0.0 (the exact additive identity, so P_b keeps the sign of a zero dot),
  // and after the wave the partials are added into weight_grad in ascending
  // sample order. Scratch is O(lanes), never O(batch).
  const SampleLanes lanes = sample_lanes(batch);
  const int64_t w_len = weight_grad.numel();
  const int64_t wave = lanes.slots * kWaveDepth;
  Tensor partials = Tensor::empty({wave, w_len});
  // Per slot: col | dcol.
  Tensor cols =
      pointwise ? Tensor() : Tensor::empty({lanes.slots, 2 * col_len});
  for (int64_t w0 = 0; w0 < batch; w0 += wave) {
    const int64_t n = std::min(wave, batch - w0);
    parallel_for(
        n,
        [&](int64_t begin, int64_t end) {
          float* cb = pointwise ? nullptr
                                : cols.data() +
                                      (begin / kWaveDepth) * 2 * col_len;
          float* dcb = pointwise ? nullptr : cb + col_len;
          for (int64_t s = begin; s < end; ++s) {
            const int64_t b = w0 + s;
            const float* gout = gd + b * out_stride;
            const float* lowered = xd + b * in_stride;
            if (!pointwise) {
              im2col(lowered, g, cb);
              lowered = cb;
            }
            // P_b = g_b [O, ohw] * col_b^T -> [O, C*kh*kw]
            float* dw = partials.data() + s * w_len;
            std::fill(dw, dw + w_len, -0.0F);
            gemm(false, true, opts.out_channels, g.col_rows(), g.col_cols(),
                 1.0F, gout, lowered, 1.0F, dw);
            // dcol = W^T [Ckk, O] * g_b [O, ohw]
            float* gin = gid + b * in_stride;
            if (pointwise) {
              gemm(true, false, g.col_rows(), g.col_cols(), opts.out_channels,
                   1.0F, weight.data(), gout, 0.0F, gin);
            } else {
              gemm(true, false, g.col_rows(), g.col_cols(), opts.out_channels,
                   1.0F, weight.data(), gout, 0.0F, dcb);
              std::fill(gin, gin + in_stride, 0.0F);
              col2im(dcb, g, gin);
            }
          }
        },
        kWaveDepth);
    for (int64_t s = 0; s < n; ++s) {
      simd::axpy(w_len, 1.0F, partials.data() + s * w_len, weight_grad.data());
    }
  }
  return grad_in;
}

Tensor Conv2d::forward(const Tensor& x) {
  // Only the backward pass consumes the cached input; eval-mode forwards
  // (and any stale cache from a previous training step) keep nothing alive.
  cached_input_ = training_ ? x : Tensor();
  Tensor out = conv2d_forward(x, weight_.value, opts_);
  if (opts_.bias) {
    // Bias broadcasts over the folded batch; reuse the NCHW helper by viewing
    // output as [B, O, oh, ow].
    const int64_t b = out.numel() / (out.size(-3) * out.size(-2) * out.size(-1));
    Tensor flat = out.reshape({b, out.size(-3), out.size(-2), out.size(-1)});
    out = add_channel_bias(flat, bias_.value).reshape(out.shape());
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  TTSNN_CHECK(cached_input_.defined(), "Conv2d::backward before forward");
  if (opts_.bias) {
    const int64_t b = grad_out.numel() /
                      (grad_out.size(-3) * grad_out.size(-2) * grad_out.size(-1));
    Tensor flat = grad_out.reshape(
        {b, grad_out.size(-3), grad_out.size(-2), grad_out.size(-1)});
    bias_.grad.add_(sum_nhw(flat));
  }
  return conv2d_backward(cached_input_, weight_.value, opts_, grad_out,
                         weight_.grad);
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (opts_.bias) out.push_back(&bias_);
}

void Conv2d::describe(ShapeState& s, std::vector<LayerDesc>& out) const {
  ConvGeometry g = geometry(s.h, s.w);
  LayerDesc d;
  d.kind = "conv";
  d.in_c = opts_.in_channels;
  d.out_c = opts_.out_channels;
  d.kernel_h = opts_.kernel_h;
  d.kernel_w = opts_.kernel_w;
  d.stride = opts_.stride;
  d.in_h = s.h;
  d.in_w = s.w;
  d.out_h = g.out_h();
  d.out_w = g.out_w();
  d.params = opts_.out_channels * opts_.in_channels * opts_.kernel_h *
                 opts_.kernel_w +
             (opts_.bias ? opts_.out_channels : 0);
  d.macs = d.out_c * d.out_h * d.out_w * opts_.in_channels * opts_.kernel_h *
           opts_.kernel_w;
  out.push_back(d);
  s.c = d.out_c;
  s.h = d.out_h;
  s.w = d.out_w;
}

}  // namespace ttsnn
