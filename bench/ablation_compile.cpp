// Deploy-time compiler ablation: what each pass of src/compile buys on a
// conv-heavy network, against the passes-off plan (fuse = false,
// specialize = false, strategy = kForceDirect): indexed gather inside the
// MAC loop, one step per layer, the generic padded-tap branch — the
// unoptimized batched kernel shape, with only the prebuilt weight and
// gather tables every plan carries.
//
// Two phases:
//  1. correctness — the compiled plan's logits must be bit-identical to
//     the reference AcceleratorExecutor::run() on the same deployment
//     image, for the passes-off baseline, the full pipeline AND every
//     ablated variant (fusion off, specialization off, strategy forced both
//     ways). Fusion / im2col / specialization only reorder exact integer
//     arithmetic, so any diff is a bug;
//  2. throughput — single-core batch throughput (min-of-repeats wall time)
//     of each variant vs the passes-off plan on the same thread. The full
//     pipeline must reach >= 1.15x; the per-pass rows quantify where the win
//     comes from (the ablation knobs of CompileOptions /
//     DeployConfig.compile).
//
// Emits a JSON fragment (path = argv[1], default ./BENCH_compile.json);
// scripts/run_bench.sh folds it into BENCH_serve.json next to the git SHA.
// Exits nonzero when bit-identity or the speedup floor fails. MFDFP_QUICK=1
// shrinks batch size and repeat count.
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "compile/passes.hpp"
#include "compile/plan_executor.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace mfdfp;
using tensor::Shape;
using tensor::Tensor;

constexpr std::size_t kInC = 3, kInH = 32, kInW = 32;

/// Conv-heavy deployment image: the paper's CIFAR-10 topology at full width
/// on 3x32x32 inputs (untrained weights — throughput and bit-identity do
/// not care about accuracy).
hw::QNetDesc make_qnet(std::uint64_t seed) {
  util::Rng rng{seed};
  nn::ZooConfig config;
  config.in_channels = kInC;
  config.in_h = kInH;
  config.in_w = kInW;
  config.num_classes = 10;
  config.width_multiplier = 1.0f;
  nn::Network net = nn::make_cifar10_net(config, rng);
  Tensor calibration{Shape{8, kInC, kInH, kInW}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return hw::extract_qnet(net, spec, "cifar10");
}

struct Variant {
  std::string name;
  std::string json_key;
  compile::CompileOptions options;
};

std::vector<Variant> make_variants() {
  std::vector<Variant> variants;
  // Row 0 is the throughput baseline: every optimizing pass off.
  Variant off{"passes off", "passes_off", {}};
  off.options.fuse = false;
  off.options.specialize = false;
  off.options.strategy = compile::ConvStrategy::kForceDirect;
  variants.push_back(off);
  variants.push_back({"full pipeline", "compiled", {}});
  Variant no_fuse{"fusion off", "fusion_off", {}};
  no_fuse.options.fuse = false;
  variants.push_back(no_fuse);
  Variant no_spec{"specialization off", "specialize_off", {}};
  no_spec.options.specialize = false;
  variants.push_back(no_spec);
  Variant im2col{"strategy forced im2col", "force_im2col", {}};
  im2col.options.strategy = compile::ConvStrategy::kForceIm2col;
  variants.push_back(im2col);
  Variant direct{"strategy forced direct", "force_direct", {}};
  direct.options.strategy = compile::ConvStrategy::kForceDirect;
  variants.push_back(direct);
  return variants;
}

/// Min-of-repeats single-thread wall time for one callable, seconds.
template <typename Fn>
double min_seconds(std::size_t repeats, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < repeats; ++r) {
    util::Stopwatch watch;
    fn();
    best = std::min(best, watch.seconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc > 1 ? argv[1] : "BENCH_compile.json";
  const std::size_t batch = bench::quick_mode() ? 8 : 32;
  const std::size_t repeats = bench::quick_mode() ? 3 : 7;

  const hw::QNetDesc desc = make_qnet(117);
  util::Rng rng{118};
  Tensor images{Shape{batch, kInC, kInH, kInW}};
  images.fill_uniform(rng, -1.0f, 1.0f);

  // ---- Phase 1: bit-identity of every variant -----------------------------
  const Tensor reference = hw::AcceleratorExecutor(desc).run(images);
  bool bit_identical = true;

  const std::vector<Variant> variants = make_variants();
  std::vector<std::shared_ptr<const compile::CompiledPlan>> plans;
  for (const Variant& variant : variants) {
    plans.push_back(
        compile::compile_qnet(desc, kInC, kInH, kInW, variant.options));
    hw::ExecScratch scratch;
    const Tensor logits = compile::run_plan_batch(*plans.back(), images,
                                                  scratch);
    const float diff = tensor::max_abs_diff(logits, reference);
    if (diff != 0.0f) {
      bit_identical = false;
      std::printf("DIVERGED: %s (max|diff| %g)\n", variant.name.c_str(),
                  diff);
    }
  }
  std::printf("phase 1: compiled logits bit-identical to run() across %zu "
              "variants: %s\n",
              variants.size(), bit_identical ? "yes" : "NO");

  // ---- Phase 2: single-core batch throughput ------------------------------
  // Warm (weights/tables already resident), one thread, min over repeats.
  std::vector<double> rps;
  for (const auto& plan : plans) {
    const double seconds = min_seconds(repeats, [&] {
      hw::ExecScratch scratch;
      (void)compile::run_plan_batch(*plan, images, scratch);
    });
    rps.push_back(static_cast<double>(batch) / seconds);
  }
  const double baseline_rps = rps.front();  // passes-off row

  util::TablePrinter table("Compiled-plan batch throughput, one core (" +
                           std::to_string(batch) + "-sample batch, min of " +
                           std::to_string(repeats) + " repeats)");
  table.set_header({"variant", "steps", "fused", "im2col",
                    "throughput (samples/s)", "speedup vs passes off"});
  std::vector<double> speedups;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const auto& plan = *plans[v];
    speedups.push_back(rps[v] / baseline_rps);
    table.add_row(
        {variants[v].name, std::to_string(plan.stats.steps),
         std::to_string(plan.stats.fused_relu + plan.stats.fused_pool),
         std::to_string(plan.stats.im2col), util::fmt_fixed(rps[v], 1),
         util::fmt_fixed(speedups.back(), 2) + "x"});
  }
  table.print();

  const double compiled_speedup = speedups[1];  // full pipeline row

  // ---- Report + acceptance ------------------------------------------------
  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"ablation_compile\",\n"
       << "  \"batch\": " << batch << ",\n"
       << "  \"repeats\": " << repeats << ",\n"
       << "  \"bit_identical\": " << (bit_identical ? "true" : "false")
       << ",\n"
       << "  \"rps_passes_off\": " << baseline_rps;
  for (std::size_t v = 1; v < variants.size(); ++v) {
    json << ",\n  \"speedup_" << variants[v].json_key << "\": " << speedups[v];
  }
  json << "\n}\n";
  json.flush();
  if (!json) {
    std::fprintf(stderr, "error: could not write %s\n", json_path);
    return 1;
  }
  std::printf("wrote %s\n", json_path);

  if (!bit_identical) {
    std::printf("FAIL: a compiled variant diverged from run()\n");
    return 1;
  }
  if (compiled_speedup < 1.15) {
    std::printf("FAIL: full pipeline reached %.2fx single-core batch "
                "throughput over the passes-off plan, need >= 1.15x\n",
                compiled_speedup);
    return 1;
  }
  std::printf("PASS (%.2fx)\n", compiled_speedup);
  return 0;
}
