// The kernel layer's profile: the paper's cuda-convnet CIFAR-10 topology
// at full width on 3x32x32 inputs (about 12.3M MACs per sample, the
// ablation_compile image), compiled and run on one thread. One-step
// sub-plans are timed through run_plan_codes, each fed the codes the
// earlier steps produced, and summed per source MAC layer. Every traced
// run reports it: it is a property of the kernels, not of a workload's
// traffic.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "compile/passes.hpp"
#include "compile/plan_executor.hpp"
#include "hw/executor.hpp"
#include "nn/zoo.hpp"
#include "quant/quantizer.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace compile = mfdfp::compile;
namespace hw = mfdfp::hw;
using tensor::Shape;
using tensor::Tensor;

constexpr std::size_t kInC = 3, kInH = 32, kInW = 32;
constexpr std::size_t kBatch = 8;

/// The ablation_compile deployment image: untrained weights (throughput
/// and bit-exactness do not depend on accuracy), fixed seed.
hw::QNetDesc make_cifar_qnet() {
  mfdfp::util::Rng rng{117};
  mfdfp::nn::ZooConfig config;
  config.in_channels = kInC;
  config.in_h = kInH;
  config.in_w = kInW;
  config.num_classes = 10;
  config.width_multiplier = 1.0f;
  mfdfp::nn::Network net = mfdfp::nn::make_cifar10_net(config, rng);
  Tensor calibration{Shape{8, kInC, kInH, kInW}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const mfdfp::quant::QuantSpec spec =
      mfdfp::quant::quantize_network(net, calibration);
  return hw::extract_qnet(net, spec, "cifar10");
}

/// One kernel block: a MAC layer's step plus the steps up to the next MAC
/// layer (its pool/ReLU/flatten, fused or not), so names survive fusion.
struct KernelBlock {
  std::string name;
  std::string span;  // trace span name
  std::vector<std::size_t> steps;
  double macs_per_sample = 0.0;  // computed from step geometry
};

std::vector<KernelBlock> kernel_blocks(const compile::CompiledPlan& plan) {
  std::vector<KernelBlock> blocks;
  std::size_t convs = 0;
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    const compile::PlanStep& s = plan.steps[i];
    if (s.kind == compile::StepKind::kConv) {
      blocks.push_back({"conv" + std::to_string(++convs), "", {}, 0.0});
      blocks.back().macs_per_sample = static_cast<double>(
          s.out_c * s.out_h * s.out_w * s.in_c * s.kernel * s.kernel);
    } else if (s.kind == compile::StepKind::kFullyConnected) {
      blocks.push_back({"fc", "", {}, 0.0});
      blocks.back().macs_per_sample =
          static_cast<double>(s.in_features * s.out_features);
    } else if (blocks.empty()) {
      blocks.push_back({"pre", "", {}, 0.0});
    }
    blocks.back().steps.push_back(i);
  }
  for (KernelBlock& b : blocks) b.span = "block." + b.name;
  return blocks;
}

/// Per-block kernel profile, batch 8 on one thread. Each round runs the
/// one-step sub-plans in order on one scratch (every step consumes the
/// codes the earlier ones produced), then the whole plan, then run() on
/// one sample, so all three see the same host conditions. The stepped
/// logits must equal the whole plan's, and their first row run()'s.
void profile_kernels(const hw::QNetDesc& desc, const Tensor& batch,
                     double seconds, WorkloadResult& out) {
  const auto plan = compile::compile_qnet(desc, kInC, kInH, kInW);
  std::vector<KernelBlock> blocks = kernel_blocks(*plan);
  std::vector<compile::CompiledPlan> sub(plan->steps.size());
  for (std::size_t i = 0; i < plan->steps.size(); ++i) {
    sub[i].model = plan->model;
    sub[i].input_frac = plan->input_frac;
    sub[i].in_c = plan->in_c;
    sub[i].in_h = plan->in_h;
    sub[i].in_w = plan->in_w;
    sub[i].out_features = plan->out_features;
    sub[i].options = plan->options;
    sub[i].steps = {plan->steps[i]};
  }
  const hw::AcceleratorExecutor oracle(desc);
  const Tensor one = tensor::slice_outer(batch, 0, 1);
  const double n = static_cast<double>(batch.shape().n());

  hw::ExecScratch stepped, whole;
  std::vector<std::vector<double>> block_ns(blocks.size());
  std::vector<double> whole_ns, oracle_ns;
  const std::int64_t stop = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (whole_ns.size() < 5 || now_ns() < stop) {
    hw::CodeTensor::encode_into(batch, plan->input_frac, stepped.input);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      Span span(blocks[b].span.c_str());
      for (const std::size_t i : blocks[b].steps) {
        compile::run_plan_codes(sub[i], stepped);
      }
      block_ns[b].push_back(span.end() * 1e6);
    }
    const Tensor stepped_logits = stepped.input.decode();
    hw::CodeTensor::encode_into(batch, plan->input_frac, whole.input);
    {
      Span span("plan");
      compile::run_plan_codes(*plan, whole);
      whole_ns.push_back(span.end() * 1e6);
    }
    Tensor oracle_logits;
    {
      Span span("oracle.run");
      oracle_logits = oracle.run(one);
      oracle_ns.push_back(span.end() * 1e6);
    }
    if (!stepped_logits.equals(whole.input.decode()) ||
        !tensor::slice_outer(stepped_logits, 0, 1).equals(oracle_logits)) {
      std::printf("CHECK FAILED: stepped sub-plans diverge from the plan or "
                  "from run()\n");
      out.checks_passed = false;
    }
  }

  double block_sum = 0.0;
  std::vector<double> medians;
  for (const auto& times : block_ns) {
    medians.push_back(median(times));
    block_sum += medians.back();
  }
  const double whole_median = median(whole_ns);
  Layers& layers = out.layers;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const double ns = medians[b] / n;
    layers.blocks.push_back({blocks[b].name, ns,
                             blocks[b].macs_per_sample / ns,
                             medians[b] / block_sum});
  }
  layers.kernel_plan_sps = n / (whole_median / 1e9);
  layers.kernel_vs_oracle = median(oracle_ns) / (whole_median / n);
  layers.kernel_block_sum_ratio = block_sum / whole_median;
  // Stepping adds one call per step; anything beyond 15% means the blocks
  // no longer account for the plan's time.
  constexpr double kReconcileTolerance = 0.15;
  const bool reconciles =
      std::abs(layers.kernel_block_sum_ratio - 1.0) <= kReconcileTolerance;
  std::printf("kernel blocks: %zu rounds, block sum %.3f ms vs whole plan "
              "%.3f ms (ratio %.3f, tolerance %.0f%%): %s\n",
              whole_ns.size(), block_sum / 1e6, whole_median / 1e6,
              layers.kernel_block_sum_ratio, kReconcileTolerance * 100.0,
              reconciles ? "reconciles" : "DOES NOT RECONCILE");
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    std::printf("  %-6s %10.0f ns/sample %8.3f GMAC/s (MACs computed from "
                "step geometry: %.0f/sample) share %.3f\n",
                blocks[b].name.c_str(), layers.blocks[b].ns_per_sample,
                layers.blocks[b].gmacs, blocks[b].macs_per_sample,
                layers.blocks[b].share);
  }
  if (!reconciles) out.checks_passed = false;
}

}  // namespace

void profile_cifar_kernels(const Options& options, WorkloadResult& out) {
  mfdfp::util::Rng rng{options.seed};
  Tensor batch{Shape{kBatch, kInC, kInH, kInW}};
  batch.fill_uniform(rng, -1.0f, 1.0f);
  profile_kernels(make_cifar_qnet(), batch, 0.2 * options.seconds, out);
}

}  // namespace perfbench
