#pragma once

/// \file gemm.h
/// Small blocked single-precision GEMM for packed row-major matrices.
/// C = alpha * op(A) * op(B) + beta * C, with op controlled by trans flags.
/// Matrices are densely packed: op(A) is [m, k], op(B) is [k, n], C is [m, n].
///
/// Large problems can be row-partitioned across the shared ThreadPool. The
/// same pool runs coarser work one level up (the exact inference TT op's
/// per-sample chains, the training convolutions' per-sample loop and the
/// training PTT branches; see docs/ARCHITECTURE.md "Threading model"), so
/// GEMM keeps its own fan-out at one row strip by default to avoid
/// oversubscription. The NN and
/// TN paths additionally switch to a cache-blocked inner kernel above a size
/// threshold. Both kernels accumulate each C element in ascending-k order, so
/// results are bit-identical across kernels and thread counts.

#include <cstdint>

namespace ttsnn {

void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, const float* b, float beta, float* c);

/// Number of row partitions GEMM may fan out across the shared pool
/// (defaults to 1). No library code raises it: training and serving both
/// spread samples over the pool one level up, where the per-sample GEMMs are
/// too small to split by row. Benchmarks and tests raise it under a guard.
void set_gemm_threads(int threads);
int gemm_threads();

/// Restores the previous gemm thread count on scope exit, so a benchmark or
/// test that raises it cannot leak the setting into later code.
class GemmThreadsGuard {
 public:
  explicit GemmThreadsGuard(int threads);
  ~GemmThreadsGuard();
  GemmThreadsGuard(const GemmThreadsGuard&) = delete;
  GemmThreadsGuard& operator=(const GemmThreadsGuard&) = delete;

 private:
  int prev_ = 0;
};

/// Inner-kernel selection. kAuto dispatches per call:
///   - spike-sparse binary B (NN / NT) -> the SpikePlane spmm path, which
///     replaces inner products with gathered accumulation;
///   - large dense problems -> the AVX2 kernel when the CPU has it (kSimd),
///     else the scalar cache-blocked kernel (kBlocked);
///   - everything else -> the naive loops (kNaive).
/// The explicit values pin one tier for tests and benchmarks. kSimd degrades
/// to kBlocked on CPUs without AVX2 (or under simd::LevelGuard(kScalar));
/// kSparse degrades to kNaive when B is not a binary matrix. Every tier
/// returns bit-identical results on finite inputs — the AVX2 kernels use
/// unfused multiply+add in scalar order, and the spmm path's skipped zeros
/// would have contributed exact ±0.0 terms — so selection is a pure
/// performance decision.
enum class GemmKernel { kAuto, kNaive, kBlocked, kSimd, kSparse };

void set_gemm_kernel(GemmKernel kernel);
GemmKernel gemm_kernel();

/// Same RAII idea as GemmThreadsGuard, for the kernel override.
class GemmKernelGuard {
 public:
  explicit GemmKernelGuard(GemmKernel kernel);
  ~GemmKernelGuard();
  GemmKernelGuard(const GemmKernelGuard&) = delete;
  GemmKernelGuard& operator=(const GemmKernelGuard&) = delete;

 private:
  GemmKernel prev_;
};

}  // namespace ttsnn
