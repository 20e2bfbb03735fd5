// Tests for the static-analysis pass pipeline over the plan IR
// (infer/analysis.h): the verifier must reject hand-built malformed plans
// with a diagnostic naming the offending op; the liveness/alias pass must
// mark kFlatten views and in-place-safe ops; the memory planner must catch
// concrete-shape geometry errors before any kernel runs; and the planner
// oracle: no two storage groups live at the same op share a workspace float,
// a run into a NaN-poisoned reused workspace is bitwise equal to a fresh
// one, the exact plan is bit-identical to eval Module::forward in every TT
// mode, and a caller reusing its workspace pays one allocation per call.

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "infer/analysis.h"
#include "infer/engine.h"
#include "model_gen.h"
#include "nn/containers.h"
#include "nn/linear.h"
#include "tensor/arena.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace ttsnn {
namespace {

using infer::Op;

Op conv_op(int in, int out, int64_t in_c, int64_t out_c, int64_t k = 3) {
  Op op;
  op.kind = Op::Kind::kConv;
  op.in = in;
  op.out = out;
  op.conv.in_channels = in_c;
  op.conv.out_channels = out_c;
  op.conv.kernel_h = k;
  op.conv.kernel_w = k;
  op.weight = Tensor::zeros({out_c, in_c, k, k});
  return op;
}

/// Runs the verifier on a hand-built plan and returns the diagnostic ("" when
/// the plan verifies).
std::string verify_error(const std::vector<Op>& ops, int num_regs,
                         int result_reg) {
  try {
    infer::analyze_plan(ops, num_regs, result_reg);
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

void expect_contains(const std::string& msg, const std::string& needle) {
  EXPECT_NE(msg.find(needle), std::string::npos)
      << "diagnostic was: \"" << msg << "\", expected to contain \"" << needle
      << "\"";
}

TEST(PlanVerifierTest, AcceptsAWellFormedPlan) {
  std::vector<Op> ops;
  ops.push_back(conv_op(0, 1, 3, 4));
  ops.push_back(conv_op(1, 2, 4, 4));
  EXPECT_EQ(verify_error(ops, 3, 2), "");
}

TEST(PlanVerifierTest, RejectsUseBeforeDef) {
  std::vector<Op> ops;
  ops.push_back(conv_op(1, 2, 4, 4));  // r1 is never written before this read
  ops.push_back(conv_op(0, 1, 3, 4));
  const std::string msg = verify_error(ops, 3, 2);
  expect_contains(msg, "op 0");
  expect_contains(msg, "before it is written");
}

TEST(PlanVerifierTest, RejectsOutOfRangeRegister) {
  std::vector<Op> ops;
  ops.push_back(conv_op(7, 1, 3, 4));
  expect_contains(verify_error(ops, 2, 1), "out of range");
  ops.clear();
  ops.push_back(conv_op(0, 9, 3, 4));
  expect_contains(verify_error(ops, 2, 1), "out of range");
}

TEST(PlanVerifierTest, RejectsASecondWriterPerRegister) {
  std::vector<Op> ops;
  Op a = conv_op(0, 1, 3, 4);
  a.label = "first-writer";
  Op b = conv_op(0, 1, 3, 4);
  b.label = "second-writer";
  ops.push_back(a);
  ops.push_back(b);
  const std::string msg = verify_error(ops, 2, 1);
  expect_contains(msg, "already written");
  expect_contains(msg, "second-writer");  // diagnostics carry the op label
}

TEST(PlanVerifierTest, RejectsWritingTheInputRegister) {
  std::vector<Op> ops;
  ops.push_back(conv_op(0, 0, 3, 3));
  expect_contains(verify_error(ops, 1, 0), "r0 is the input");
}

TEST(PlanVerifierTest, RejectsANeverReadOutput) {
  std::vector<Op> ops;
  ops.push_back(conv_op(0, 1, 3, 4));  // r1 is dead: never read, not result
  ops.push_back(conv_op(0, 2, 3, 4));
  expect_contains(verify_error(ops, 3, 2), "never read");
}

TEST(PlanVerifierTest, RejectsANeverWrittenRegister) {
  std::vector<Op> ops;
  ops.push_back(conv_op(0, 1, 3, 4));
  expect_contains(verify_error(ops, 3, 1), "never written");
}

TEST(PlanVerifierTest, RejectsSecondInputOnNonAddOps) {
  std::vector<Op> ops;
  ops.push_back(conv_op(0, 1, 3, 4));
  ops.back().in2 = 0;
  expect_contains(verify_error(ops, 2, 1), "second input");
}

TEST(PlanVerifierTest, RejectsMissingHttHalfKernel) {
  Op op;
  op.kind = Op::Kind::kTTHtt;
  op.in = 0;
  op.out = 1;
  op.tt.mode = TTMode::kHTT;
  op.tt.full_step = {true, false};
  op.conv.in_channels = 4;
  op.conv.out_channels = 8;
  op.conv.kernel_h = 3;
  op.conv.kernel_w = 3;
  op.full_kernel = Tensor::zeros({8, 4, 3, 3});
  op.half_conv.in_channels = 4;
  op.half_conv.out_channels = 8;
  op.half_conv.kernel_h = 1;
  op.half_conv.kernel_w = 1;
  op.label = "layer2.htt";
  // half_kernel deliberately left undefined.
  const std::string msg = verify_error({op}, 2, 1);
  expect_contains(msg, "missing its merged half-step kernel");
  expect_contains(msg, "layer2.htt");
}

TEST(PlanVerifierTest, RejectsIncompleteAffineFieldGroup) {
  Op op;
  op.kind = Op::Kind::kAffine;
  op.in = 0;
  op.out = 1;
  op.bn_gamma = Tensor::zeros({4});
  op.bn_beta = Tensor::zeros({4});
  op.bn_mean = Tensor::zeros({4});
  // bn_inv_std deliberately left undefined.
  expect_contains(verify_error({op}, 2, 1), "missing bn_inv_std");
}

TEST(PlanVerifierTest, RejectsChannelMismatchBetweenProducerAndConsumer) {
  std::vector<Op> ops;
  ops.push_back(conv_op(0, 1, 3, 4));
  ops.push_back(conv_op(1, 2, 8, 4));  // expects 8 channels, gets 4
  const std::string msg = verify_error(ops, 3, 2);
  expect_contains(msg, "op 1");
  expect_contains(msg, "channels mismatch");
}

TEST(PlanVerifierTest, RejectsRankMismatchedResidualOperands) {
  std::vector<Op> ops;
  ops.push_back(conv_op(0, 1, 3, 4));
  Op flat;
  flat.kind = Op::Kind::kFlatten;
  flat.in = 1;
  flat.out = 2;
  ops.push_back(flat);
  Op add;
  add.kind = Op::Kind::kAdd;
  add.in = 1;
  add.in2 = 2;
  add.out = 3;
  ops.push_back(add);  // [T,N,C,H,W] + [T,N,F]: rank mismatch
  expect_contains(verify_error(ops, 4, 3), "rank mismatch");
}

TEST(PlanVerifierTest, RejectsConvWeightShapeMismatch) {
  Op op = conv_op(0, 1, 3, 4);
  op.weight = Tensor::zeros({4, 3, 5, 5});  // geometry says 3x3
  expect_contains(verify_error({op}, 2, 1), "does not match geometry");
}

// ---- concrete-shape (plan_memory) diagnostics ------------------------------

TEST(MemoryPlanTest, RejectsIndivisiblePoolAtPlanTime) {
  Op pool;
  pool.kind = Op::Kind::kAvgPool;
  pool.pool_kernel = 2;
  pool.in = 0;
  pool.out = 1;
  const infer::PlanAnalysis an = infer::analyze_plan({pool}, 2, 1);
  EXPECT_THROW(infer::plan_memory({pool}, an, {2, 1, 3, 7, 7}), Error);
  EXPECT_NO_THROW(infer::plan_memory({pool}, an, {2, 1, 3, 8, 8}));
}

TEST(MemoryPlanTest, RejectsWrongTebnTimestepsAtPlanTime) {
  Op aff;
  aff.kind = Op::Kind::kAffine;
  aff.in = 0;
  aff.out = 1;
  aff.bn_mode = BatchNorm::Mode::kTebn;
  aff.bn_timesteps = 4;
  aff.bn_gamma = Tensor::zeros({3});
  aff.bn_beta = Tensor::zeros({3});
  aff.bn_mean = Tensor::zeros({3});
  aff.bn_inv_std = Tensor::zeros({3});
  aff.bn_step_scale = Tensor::zeros({4});
  const infer::PlanAnalysis an = infer::analyze_plan({aff}, 2, 1);
  EXPECT_THROW(infer::plan_memory({aff}, an, {2, 1, 3, 8, 8}), Error);
  EXPECT_NO_THROW(infer::plan_memory({aff}, an, {4, 1, 3, 8, 8}));
}

TEST(MemoryPlanTest, RejectsShortHttScheduleAtPlanTime) {
  Op op;
  op.kind = Op::Kind::kTTHtt;
  op.in = 0;
  op.out = 1;
  op.tt.mode = TTMode::kHTT;
  op.tt.full_step = {true, false};
  op.conv.in_channels = 3;
  op.conv.out_channels = 4;
  op.conv.kernel_h = 3;
  op.conv.kernel_w = 3;
  op.full_kernel = Tensor::zeros({4, 3, 3, 3});
  op.half_conv.in_channels = 3;
  op.half_conv.out_channels = 4;
  op.half_conv.kernel_h = 1;
  op.half_conv.kernel_w = 1;
  op.half_kernel = Tensor::zeros({4, 3, 1, 1});
  const infer::PlanAnalysis an = infer::analyze_plan({op}, 2, 1);
  EXPECT_THROW(infer::plan_memory({op}, an, {4, 1, 3, 8, 8}), Error);
  EXPECT_NO_THROW(infer::plan_memory({op}, an, {2, 1, 3, 8, 8}));
}

// ---- liveness / alias / in-place -------------------------------------------

TEST(PlanAnalysisTest, MarksLifInPlaceWhenItsInputDies) {
  Rng rng(41);
  Sequential net;
  net.emplace<Conv2d>(Conv2d::Options{.in_channels = 3, .out_channels = 4},
                      rng);
  net.emplace<LIFNeuron>();
  net.emplace<Conv2d>(Conv2d::Options{.in_channels = 4, .out_channels = 4},
                      rng);
  net.set_training(false);
  infer::Engine engine = infer::compile(net);
  ASSERT_EQ(engine.num_ops(), 3U);
  const infer::PlanAnalysis& an = engine.analysis();
  EXPECT_FALSE(an.is_inplace[0]);  // conv is never in-place
  EXPECT_TRUE(an.is_inplace[1]);   // LIF overwrites the conv output
  // In-place output shares its input's storage group, so the group's
  // workspace region is charged once.
  EXPECT_EQ(an.root[2], an.root[1]);
}

TEST(PlanAnalysisTest, LiveRangesMatchTheDataflow) {
  std::vector<Op> ops;
  ops.push_back(conv_op(0, 1, 3, 4));
  ops.push_back(conv_op(1, 2, 4, 4));
  ops.push_back(conv_op(2, 3, 4, 4));
  const infer::PlanAnalysis an = infer::analyze_plan(ops, 4, 3);
  EXPECT_EQ(an.live[0].def, -1);  // the input has no writer
  EXPECT_EQ(an.live[0].last_use, 0);
  EXPECT_EQ(an.live[1].def, 0);
  EXPECT_EQ(an.live[1].last_use, 1);
  EXPECT_EQ(an.live[3].def, 2);
  EXPECT_EQ(an.live[3].last_use, -1);  // the result is read by the caller
}

// ---- planner oracle ---------------------------------------------------------
// Eval Module::forward is the reference for every lowering's arithmetic; what
// the executor adds on top of the shared kernels is where each buffer lives.
// These checks pin that placement directly.

/// Workspace extent and live interval of one storage group.
struct GroupSpan {
  int64_t off = -1;
  int64_t size = 0;
  int start = std::numeric_limits<int>::max();
  int end = std::numeric_limits<int>::min();
};

bool overlaps(int64_t a_off, int64_t a_size, int64_t b_off, int64_t b_size) {
  return a_size > 0 && b_size > 0 && a_off < b_off + b_size &&
         b_off < a_off + a_size;
}

/// The layout property, re-derived from the analysis and the plan rather
/// than from the planner's bookkeeping: two storage groups live at the same
/// op never share a workspace float, no register region overlaps the col or
/// scratch region (nor do those two overlap), and everything fits inside
/// total_floats.
void expect_layout_sound(const infer::Engine& engine, const Shape& input) {
  SCOPED_TRACE("layout at " + shape_str(input));
  const infer::PlanAnalysis& an = engine.analysis();
  const auto plan = engine.memory_plan(input);
  const size_t n = static_cast<size_t>(an.num_regs);
  std::vector<GroupSpan> groups(n);
  for (size_t r = 1; r < n; ++r) {
    const size_t g = static_cast<size_t>(an.root[r]);
    if (static_cast<int>(r) == an.result_reg || g == 0) {
      // The owning result tensor and views of the caller's input live
      // outside the workspace.
      EXPECT_EQ(plan->offset[r], -1) << "r" << r;
      continue;
    }
    EXPECT_EQ(plan->offset[r], plan->offset[g]) << "r" << r
                                                << " left its group";
    GroupSpan& s = groups[g];
    s.off = plan->offset[g];
    s.size = std::max(s.size, plan->floats[r]);
    s.start = std::min(s.start, an.live[r].def);
    s.end = std::max(s.end, an.live[r].last_use);
  }
  EXPECT_FALSE(overlaps(plan->col_offset, plan->col_floats,
                        plan->scratch_offset, plan->scratch_floats));
  EXPECT_LE(plan->col_offset + plan->col_floats, plan->total_floats);
  EXPECT_LE(plan->scratch_offset + plan->scratch_floats, plan->total_floats);
  for (size_t a = 1; a < n; ++a) {
    const GroupSpan& x = groups[a];
    if (x.off < 0) continue;
    EXPECT_LE(x.off + x.size, plan->total_floats) << "group r" << a;
    EXPECT_FALSE(overlaps(x.off, x.size, plan->col_offset, plan->col_floats))
        << "group r" << a << " overlaps the col region";
    EXPECT_FALSE(overlaps(x.off, x.size, plan->scratch_offset,
                          plan->scratch_floats))
        << "group r" << a << " overlaps the scratch region";
    for (size_t b = a + 1; b < n; ++b) {
      const GroupSpan& y = groups[b];
      if (y.off < 0 || x.end < y.start || y.end < x.start) continue;
      EXPECT_FALSE(overlaps(x.off, x.size, y.off, y.size))
          << "groups r" << a << " [" << x.start << ", " << x.end << "] and r"
          << b << " [" << y.start << ", " << y.end
          << "] are live at the same op and share workspace floats";
    }
  }
}

/// Runs `x` into a fresh workspace and into a reused one pre-filled with
/// NaN: any kernel reading a float it did not write in this call would leak
/// NaN (or stale data) into the result, so the two must be bitwise equal.
void expect_poison_proof(const infer::Engine& engine, const Tensor& x) {
  SCOPED_TRACE("poisoned workspace at " + shape_str(x.shape()));
  const Tensor fresh = engine.run(x);
  Tensor ws = Tensor::full({engine.memory_plan(x.shape())->total_floats},
                           std::numeric_limits<float>::quiet_NaN());
  const Tensor poisoned = engine.run(x, ws);
  ASSERT_EQ(poisoned.shape(), fresh.shape());
  EXPECT_EQ(std::memcmp(poisoned.data(), fresh.data(),
                        static_cast<size_t>(fresh.numel()) * sizeof(float)),
            0);
}

TEST(PlannerOracleTest, RandomPlansLayoutSoundAndPoisonProof) {
  // Seeded sweep (TTSNN_TEST_SEED / TTSNN_FUZZ_ITERS): merged and exact
  // lowerings of random models, each at the generated shape and at a wider
  // batch, so two cached programs per plan are checked.
  const uint64_t base = testgen::suite_seed(0x1a40e7);
  const int iters = testgen::seed_pinned() ? 1 : testgen::iteration_budget(24);
  for (int i = 0; i < iters; ++i) {
    const uint64_t seed = base + static_cast<uint64_t>(i);
    SCOPED_TRACE(testgen::seed_line(seed));
    const testgen::GeneratedModel gm = testgen::random_model(seed);
    SCOPED_TRACE(gm.desc);
    Shape wide = gm.input;
    wide[1] += 3;
    for (const bool merge : {true, false}) {
      const infer::Engine engine = infer::compile(
          *gm.net, {.merge_tt = merge, .fold_batchnorm = merge});
      for (const Shape& s : {gm.input, wide}) {
        expect_layout_sound(engine, s);
        Rng rng(seed ^ 0x5eed);
        expect_poison_proof(engine, Tensor::uniform(s, rng));
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
}

// The hand-rolled "trained model" fixture this suite used to carry moved to
// the shared tests/model_gen.h (testgen::trained_resnet18), which the fuzz
// and property suites reuse.

class PlannedModeTest : public ::testing::TestWithParam<TTMode> {};

const Shape kOracleShapes[] = {{4, 2, 3, 8, 8}, {4, 1, 3, 12, 12}};

TEST_P(PlannedModeTest, ExactPlanBitIdenticalToEvalForward) {
  Rng rng(42);
  ModulePtr net = testgen::trained_resnet18(GetParam(), rng);
  const infer::Engine exact =
      infer::compile(*net, {.merge_tt = false, .fold_batchnorm = false});
  // Two shapes through the same engine: the plan cache must lay out (and
  // execute) each one correctly.
  for (const Shape& s : kOracleShapes) {
    Tensor x = Tensor::uniform(s, rng);
    Tensor want = net->forward(x);
    net->clear_cache();
    Tensor got = exact.run(x);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(max_abs_diff(got, want), 0.0)
        << tt_mode_name(GetParam()) << " " << shape_str(s);
  }
}

// Merged and exact f32 plans, plus the bf16/int8 plans whose kernels carve
// dequant buffers and u8 spike tiles from plan scratch.
TEST_P(PlannedModeTest, LayoutSoundAndPoisonedWorkspaceRunBitIdentical) {
  Rng rng(42);
  ModulePtr net = testgen::trained_resnet18(GetParam(), rng);
  const infer::CompileOptions configs[] = {
      {},
      {.merge_tt = false, .fold_batchnorm = false},
      {.weight_dtype = WeightDtype::kBf16},
      {.weight_dtype = WeightDtype::kInt8},
  };
  for (const infer::CompileOptions& opts : configs) {
    SCOPED_TRACE(std::string(opts.merge_tt ? "merged " : "exact ") +
                 weight_dtype_name(opts.weight_dtype));
    const infer::Engine engine = infer::compile(*net, opts);
    for (const Shape& s : kOracleShapes) {
      expect_layout_sound(engine, s);
      expect_poison_proof(engine, Tensor::uniform(s, rng));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, PlannedModeTest,
                         ::testing::Values(TTMode::kSTT, TTMode::kPTT,
                                           TTMode::kHTT),
                         [](const auto& info) {
                           return tt_mode_name(info.param);
                         });

// TEBN keeps a standalone kAffine op (per-timestep scale); the planned
// executor must run it — possibly in place — with identical bits.
TEST(PlannedRunTest, TebnAffineBitIdentical) {
  Rng rng(43);
  ModelConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 4;
  cfg.base_width = 8;
  cfg.timesteps = 4;
  cfg.bn_mode = BatchNorm::Mode::kTebn;
  ModulePtr net = make_vgg9(cfg, rng);
  net->set_training(true);
  net->forward(Tensor::uniform({4, 2, 3, 8, 8}, rng));
  net->clear_cache();
  net->set_training(false);

  Tensor x = Tensor::uniform({4, 2, 3, 8, 8}, rng);
  Tensor y_ref = net->forward(x);
  infer::Engine planned = infer::compile(*net);
  EXPECT_EQ(max_abs_diff(planned.run(x), y_ref), 0.0);
}

TEST(PlannedRunTest, WorkspaceReuseIsBitIdenticalAndSingleAllocation) {
  Rng rng(44);
  ModulePtr net = testgen::trained_resnet18(TTMode::kPTT, rng);
  infer::Engine engine = infer::compile(*net);
  Tensor x = Tensor::uniform({4, 2, 3, 8, 8}, rng);
  Tensor golden = engine.run(x);

  Tensor ws;
  Tensor y1 = engine.run(x, ws);  // lays out the plan, allocates ws
  ASSERT_TRUE(ws.defined());
  EXPECT_EQ(ws.numel(), engine.memory_plan(x.shape())->total_floats);

  // Steady state: the workspace is reused, so the only storage acquisition
  // left is the caller-owned result tensor.
  Arena::instance().reset_stats();
  Tensor y2 = engine.run(x, ws);
  const ArenaStats stats = Arena::instance().stats();
  EXPECT_EQ(stats.hits + stats.misses, 1);

  EXPECT_EQ(max_abs_diff(y1, golden), 0.0);
  EXPECT_EQ(max_abs_diff(y2, golden), 0.0);
}

TEST(PlannedRunTest, EngineCopiesShareThePlanCache) {
  Rng rng(45);
  ModulePtr net = testgen::trained_resnet18(TTMode::kSTT, rng);
  infer::Engine engine = infer::compile(*net);
  infer::Engine replica = engine;  // what Router shards do
  const Shape s{4, 1, 3, 8, 8};
  EXPECT_EQ(engine.memory_plan(s).get(), replica.memory_plan(s).get());

  Tensor x = Tensor::uniform(s, rng);
  EXPECT_EQ(max_abs_diff(engine.run(x), replica.run(x)), 0.0);
}

TEST(PlannedRunTest, PlanPacksBelowTheUnplannedFootprint) {
  Rng rng(46);
  ModulePtr net = testgen::trained_resnet18(TTMode::kHTT, rng);
  infer::Engine engine = infer::compile(*net);
  const Shape s{4, 2, 3, 8, 8};
  const auto plan = engine.memory_plan(s);
  EXPECT_GT(plan->total_floats, 0);
  // Liveness-aware packing must beat one buffer per op output on any
  // multi-layer plan.
  EXPECT_LT(plan->total_floats, plan->unplanned_floats);
  // The report renders and carries the totals.
  const std::string report = engine.summary(s);
  EXPECT_NE(report.find("workspace:"), std::string::npos);
}

// ---- sample-parallel exact TT op: lane-slot scratch ------------------------

/// The fan-out rule (sample_lanes), restated: fan out only when each of the
/// pool's lanes (workers + caller) gets >= 2 samples, then one slot per chunk.
int64_t expected_slots(int64_t samples) {
  const int64_t lanes = ThreadPool::instance().workers() + 1;
  if (samples < 2 * lanes) return 1;
  const int64_t grain = (samples + lanes - 1) / lanes;
  return (samples + grain - 1) / grain;
}

TEST(TTExactScratchTest, ScratchIsLaneSlotsNotFullTensors) {
  Rng rng(48);
  ModulePtr net = testgen::trained_resnet18(TTMode::kPTT, rng);
  infer::Engine engine = infer::compile(
      *net, {.merge_tt = false, .fold_batchnorm = false});
  auto align = [](int64_t n) { return infer::plan_align_up(n); };
  auto col = [](const ConvGeometry& g) {
    return g.pointwise() ? 0 : g.col_rows() * g.col_cols();
  };
  // T*N = 32 fans out on any pool; T*N = 4 stays on the caller (one slot)
  // whenever the pool has >= 3 lanes, e.g. every 4-core host.
  for (const Shape& s : {Shape{4, 8, 3, 8, 8}, Shape{4, 1, 3, 8, 8}}) {
    const int64_t samples = s[0] * s[1];
    const auto plan = engine.memory_plan(s);
    int tt_ops = 0;
    for (const Op& op : engine.ops()) {
      if (op.kind != Op::Kind::kTTExact) continue;
      ++tt_ops;
      const Shape& in = plan->shape[static_cast<size_t>(op.in)];
      // One PTT sample: o1 = w1(x), a = w2(o1), b = w3(o1), y = w4(a).
      const ConvGeometry g1 = conv_geometry(op.tt_w1_opts, in[3], in[4]);
      const ConvGeometry g2 = conv_geometry(op.tt_w2_opts, g1.out_h(), g1.out_w());
      const ConvGeometry g3 = conv_geometry(op.tt_w3_opts, g1.out_h(), g1.out_w());
      const ConvGeometry g4 = conv_geometry(op.tt_w4_opts, g2.out_h(), g2.out_w());
      const int64_t o1 = op.tt_w1_opts.out_channels * g1.out_h() * g1.out_w();
      const int64_t a = op.tt_w2_opts.out_channels * g2.out_h() * g2.out_w();
      const int64_t b = op.tt_w3_opts.out_channels * g3.out_h() * g3.out_w();
      const int64_t lane_col =
          std::max({col(g1), col(g2), col(g3), col(g4)});
      const int64_t chain = align(o1) + align(a) + align(b);
      const int64_t scratch = infer::op_scratch_floats(op, in);
      EXPECT_EQ(scratch, expected_slots(samples) * (chain + align(lane_col)))
          << op.label << " at " << shape_str(s);
      // Today's charge: full [T, N, r, H, W] o1 + a + b plus a shared col.
      EXPECT_LT(scratch, align(samples * o1) + align(samples * a) +
                             align(samples * b))
          << op.label << " at " << shape_str(s);
      EXPECT_EQ(infer::op_col_floats(op, in), 0) << "lanes own their col";
    }
    EXPECT_GT(tt_ops, 0);
  }
}

TEST(PlannedRunTest, FlattenLowersToAnAliasAndStaysBitIdentical) {
  Rng rng(47);
  Sequential net;
  net.emplace<Conv2d>(Conv2d::Options{.in_channels = 3, .out_channels = 4},
                      rng);
  net.emplace<LIFNeuron>();
  net.emplace<Flatten>();
  net.emplace<Linear>(4 * 6 * 6, 5, rng);
  net.set_training(false);
  infer::Engine engine = infer::compile(net);

  const infer::PlanAnalysis& an = engine.analysis();
  const auto& ops = engine.ops();
  bool saw_alias = false;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == infer::Op::Kind::kFlatten) {
      EXPECT_TRUE(an.is_alias[i]);  // a view, not a copy
      saw_alias = true;
    }
  }
  EXPECT_TRUE(saw_alias);

  Tensor x = Tensor::uniform({2, 2, 3, 6, 6}, rng);
  Tensor y_ref = net.forward(x);
  EXPECT_EQ(max_abs_diff(engine.run(x), y_ref), 0.0);
}

}  // namespace
}  // namespace ttsnn
