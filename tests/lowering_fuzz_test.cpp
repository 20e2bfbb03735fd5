// Fuzz harness for the inference lowerings (infer/compile.cpp): seeded
// random module trees — depth, channels, TT mode (none/stt/ptt/htt), stride,
// BN flavor (incl. TEBN), pool placement — each compiled in the exact and
// the merged lowering. The exact plan must be BIT-identical to eval-mode
// Module::forward. The merged plan (BN kept as a standalone affine) must be
// bit-identical to eval forward of the same model after merge_network() for
// tt=none/stt/ptt; HTT, where merge_network is lossy on half steps, is held
// to MergedEngineCloseToEvalModule's tolerance against the unmerged model.
// One seed in four runs at a batch wide enough for the exact TT op to fan
// its sample chains out. Any failure prints the exact TTSNN_TEST_SEED line
// that replays the sample plus the plan summary.
//
// Environment:
//  - TTSNN_TEST_SEED=<n>  replay exactly one sample
//  - TTSNN_FUZZ_ITERS=<n> bound the sweep (sanitizer CI jobs)

#include <string>

#include <gtest/gtest.h>

#include "core/factorize.h"
#include "infer/engine.h"
#include "model_gen.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace ttsnn {
namespace {

/// One sample: ground truth from eval Module::forward at `input` (the
/// generated shape, or the same with a wider batch), then the exact and the
/// merged engine against their oracles.
void check_sample(uint64_t seed, const testgen::GeneratedModel& gm,
                  const Shape& input) {
  SCOPED_TRACE(testgen::seed_line(seed));
  SCOPED_TRACE(gm.desc + " input=" + shape_str(input));

  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);  // input stream independent of gen
  Tensor x = Tensor::uniform(input, rng);
  Tensor want = gm.net->forward(x);
  gm.net->clear_cache();

  infer::Engine exact = infer::compile(
      *gm.net, {.merge_tt = false, .fold_batchnorm = false});
  Tensor y = exact.run(x);
  EXPECT_EQ(y.shape(), want.shape());
  EXPECT_EQ(max_abs_diff(y, want), 0.0)
      << "exact lowering drifted from Module::forward\n"
      << exact.summary();

  infer::Engine merged =
      infer::compile(*gm.net, {.merge_tt = true, .fold_batchnorm = false});
  Tensor z = merged.run(x);
  EXPECT_EQ(z.shape(), want.shape());
  if (gm.desc.find("tt=htt") != std::string::npos) {
    // Merged kernels re-associate float contractions: numeric slack only.
    EXPECT_LT(max_abs_diff(z, want), 2e-2)
        << "merged HTT lowering left the tolerance\n"
        << merged.summary();
    return;
  }
  // The same sample regenerated from its seed, with every TTConv2d replaced
  // by its merged dense kernel: the merged plan must match it bit-for-bit.
  const testgen::GeneratedModel twin = testgen::random_model(seed);
  merge_network(*twin.net);
  twin.net->set_training(false);
  Tensor want_merged = twin.net->forward(x);
  EXPECT_EQ(max_abs_diff(z, want_merged), 0.0)
      << "merged lowering drifted from merge_network()'s Module::forward\n"
      << merged.summary();
}

TEST(LoweringFuzzTest, RandomModelsBitIdenticalToTheirEvalForward) {
  const uint64_t base = testgen::suite_seed(0x77f5a11);
  const int iters =
      testgen::seed_pinned() ? 1 : testgen::iteration_budget(200);
  int fanned_tt = 0;
  bool saw_mode[4] = {false, false, false, false};
  const int64_t lanes = ThreadPool::instance().workers() + 1;
  for (int i = 0; i < iters; ++i) {
    const uint64_t seed = base + static_cast<uint64_t>(i);
    const testgen::GeneratedModel gm = testgen::random_model(seed);
    // One seed in four widens its batch past the exact plan's fan-out rule
    // (T*N >= 2 * lanes), +0..2 so the last chunk is sometimes short. Keyed
    // on the seed, not the index, so a pinned-seed replay gets the same input.
    Shape input = gm.input;
    if (seed % 4 == 0) {
      input[1] = (2 * lanes + input[0] - 1) / input[0] +
                 static_cast<int64_t>(seed / 4 % 3);
    }
    check_sample(seed, gm, input);
    if (gm.desc.find("tt=none") == std::string::npos &&
        sample_lanes(input[0] * input[1]).slots > 1) {
      ++fanned_tt;
    }
    if (::testing::Test::HasFailure()) {
      // One failing sample is enough; its seed line is already in the trace.
      ADD_FAILURE() << "stopping the sweep after the first failing sample; "
                    << testgen::seed_line(seed);
      return;
    }
    const char* names[4] = {"tt=none", "tt=stt", "tt=ptt", "tt=htt"};
    for (int m = 0; m < 4; ++m) {
      if (gm.desc.find(names[m]) != std::string::npos) saw_mode[m] = true;
    }
  }
  if (!testgen::seed_pinned() && iters >= 100) {
    // The seeded generator must exercise every TT mode across a full sweep.
    EXPECT_TRUE(saw_mode[0] && saw_mode[1] && saw_mode[2] && saw_mode[3])
        << "generator failed to cover all TT modes in " << iters << " samples";
    if (lanes > 1) {
      EXPECT_GT(fanned_tt, 0) << "no exact TT sample fanned out over "
                              << lanes << " lanes";
    }
  }
}

}  // namespace
}  // namespace ttsnn
