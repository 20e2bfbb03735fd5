// ttsnn_plan_lint — static-analysis report for compiled inference plans.
//
// Builds the scenario's model architecture (optionally loading a trained
// checkpoint), lowers it through infer::compile, and prints the
// verifier-backed plan: one line per op with register dataflow, live range
// and alias/in-place marks, followed by the static memory plan for one input
// shape — workspace offsets, the packed workspace total, and the unpacked
// and peak-live footprints it is judged against. compile() runs the verifier
// on every lowering, so a malformed plan fails the run with an op-level
// diagnostic instead of printing a report.
//
//   ./build/ttsnn_plan_lint --config=configs/tiny_htt.cfg
//   ./build/ttsnn_plan_lint --config=... --checkpoint=model.ckpt --batch=8
//
// Without --checkpoint the tool lints every TT mode (stt, ptt, htt — plan
// structure does not depend on trained weight values) plus the dense
// baseline; with one, it lints exactly the config's own architecture, so a
// serving rollout can verify the plan it is about to run.
//
// flags:
//   --config=FILE      scenario config (model / tt / timesteps); required
//   --checkpoint=PATH  load trained weights (must match the architecture)
//   --batch=N          batch extent of the planned input shape (default 1;
//                      a whole decimal integer >= 1, anything else is an error)
//   --exact            lint the unmerged (bit-exact) lowering instead of the
//                      merged one
//   --weight-dtype=D   lint the D-quantized lowering (f32 | bf16 | int8).
//                      The printed summary carries the per-layer quantization
//                      census; for bf16/int8 the tool fails unless at least
//                      one op actually quantized (fallback-only would mean
//                      the pass silently did nothing for this architecture)

#include <cstdio>
#include <string>
#include <vector>

#include "core/factorize.h"
#include "infer/analysis.h"
#include "infer/engine.h"
#include "snn/scenario.h"

namespace {

void print_help() {
  std::printf(
      "ttsnn_plan_lint: verify + report the static plan of a compiled model\n"
      "\n"
      "  --config=FILE      scenario config naming the architecture (required)\n"
      "  --checkpoint=PATH  lint a trained checkpoint (config's tt_mode only)\n"
      "  --batch=N          planned input batch extent (default 1)\n"
      "  --exact            lint the unmerged bit-exact lowering\n"
      "  --weight-dtype=D   quantize weights (f32|bf16|int8) and print the\n"
      "                     per-layer quantization census\n"
      "  --help             this text\n");
}

struct LintFlags {
  std::string config;
  std::string checkpoint;
  int64_t batch = 1;
  bool exact = false;
  ttsnn::WeightDtype weight_dtype = ttsnn::WeightDtype::kF32;
};

/// Whole-string integer parse: trailing junk ("8x"), an empty value and
/// out-of-range values are labelled errors, not a silent prefix or a bare
/// std::stoll exception.
int64_t parse_int_flag(const std::string& key, const std::string& value) {
  size_t pos = 0;
  int64_t v = 0;
  try {
    v = std::stoll(value, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  TTSNN_CHECK(pos == value.size() && !value.empty(),
              "ttsnn_plan_lint: " << key << " wants an integer, got '" << value
                                  << "'");
  return v;
}

LintFlags parse_flags(const std::vector<std::string>& args) {
  LintFlags f;
  for (const std::string& a : args) {
    const size_t eq = a.find('=');
    const std::string key = a.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : a.substr(eq + 1);
    if (key == "--config") {
      f.config = value;
    } else if (key == "--checkpoint") {
      f.checkpoint = value;
    } else if (key == "--batch") {
      f.batch = parse_int_flag(key, value);
    } else if (key == "--exact") {
      f.exact = true;
    } else if (key == "--weight-dtype") {
      f.weight_dtype = ttsnn::parse_weight_dtype(value);
    } else {
      TTSNN_CHECK(false, "ttsnn_plan_lint: unknown flag '" << a << "'");
    }
  }
  TTSNN_CHECK(!f.config.empty(), "ttsnn_plan_lint: --config=FILE is required");
  TTSNN_CHECK(f.batch >= 1, "ttsnn_plan_lint: --batch must be >= 1");
  return f;
}

/// Compiles one architecture variant and prints its verified plan + memory
/// layout.
void lint_one(const ttsnn::ScenarioConfig& cfg, const LintFlags& flags,
             int64_t in_channels) {
  ttsnn::Rng rng(cfg.seed);
  ttsnn::ModulePtr net =
      ttsnn::build_scenario_model(cfg, in_channels, rng);
  if (cfg.tt_mode != "none") {
    ttsnn::factorize_network(*net,
                             ttsnn::scenario_factorize_options(cfg), rng);
  }
  net->set_training(false);

  ttsnn::infer::CompileOptions copts;
  copts.weight_dtype = flags.weight_dtype;
  if (flags.exact) {
    copts.merge_tt = false;
    copts.fold_batchnorm = false;
  }
  ttsnn::infer::Engine engine =
      flags.checkpoint.empty()
          ? ttsnn::infer::compile(*net, copts)
          : ttsnn::infer::compile_checkpoint(*net, flags.checkpoint, copts);

  const ttsnn::Shape input{cfg.timesteps, flags.batch, in_channels,
                           cfg.image_size, cfg.image_size};
  std::printf("== %s / %s / %s lowering ==\n", cfg.model.c_str(),
              cfg.tt_mode.c_str(), flags.exact ? "exact" : "merged");
  std::printf("plan verified: %zu ops, %d registers\n", engine.num_ops(),
              engine.num_regs());
  std::printf("%s\n", engine.summary(input).c_str());

  if (flags.weight_dtype != ttsnn::WeightDtype::kF32 && !flags.exact) {
    // The exact lowering keeps everything f32 by design (TT cores are pinned
    // to the bit-exact path); for the merged one, a census with zero
    // quantized ops means the requested dtype silently did nothing.
    int quantized = 0;
    for (const ttsnn::infer::Op& op : engine.ops()) {
      quantized += (op.plane.quantized() || op.half_plane.quantized()) ? 1 : 0;
    }
    TTSNN_CHECK(quantized > 0,
                "ttsnn_plan_lint: --weight-dtype="
                    << ttsnn::weight_dtype_name(flags.weight_dtype)
                    << ", but the " << cfg.tt_mode
                    << " lowering quantized zero ops");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  for (const std::string& a : args) {
    if (a == "--help" || a == "-h") {
      print_help();
      return 0;
    }
  }
  try {
    const LintFlags flags = parse_flags(args);
    ttsnn::ScenarioConfig cfg = ttsnn::load_scenario_file(flags.config);
    const int64_t in_c =
        ttsnn::make_scenario_dataset(cfg, /*train=*/false)->channels();

    if (!flags.checkpoint.empty()) {
      // Trained weights constrain the architecture: lint exactly the config.
      lint_one(cfg, flags, in_c);
    } else {
      // Plan structure is weight-value independent: lint every mode.
      for (const char* mode : {"stt", "ptt", "htt", "none"}) {
        cfg.tt_mode = mode;
        lint_one(cfg, flags, in_c);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ttsnn_plan_lint: %s\n", e.what());
    return 1;
  }
  return 0;
}
