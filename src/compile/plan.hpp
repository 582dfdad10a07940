// CompiledPlan: the immutable deploy-time artifact a QNet lowers into.
//
// The paper's accelerator wins because every structural decision — pow2/DFP
// decode, gather layout, kernel shape — is fixed in silicon before the first
// sample arrives. The serving stack mirrors that: at deploy() time a
// PassPipeline (compile/passes.hpp) lowers the QNetDesc into an ordered list
// of PlanSteps with pre-resolved kernel variants, predecoded +/-2^(7+e)
// integer weights, prebuilt gather/im2col index tables, and fused
// conv→ReLU(→pool) steps — so the per-batch layer loop re-makes none of
// those decisions. Plans are shared immutably (shared_ptr<const CompiledPlan>
// out of compile/plan_cache.hpp): N replicas and shared-PU tenants execute
// one artifact, and an in-flight request keeps its plan alive across cache
// eviction or hot redeploy.
//
// Execution of a plan (compile/plan_executor.hpp) is bit-identical to
// AcceleratorExecutor::run() on the source desc: every lossy
// stage goes through the shared hw/kernels.hpp implementations, and the
// integer dot products are exact under any association, so fusion and
// im2col only reorder exact arithmetic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/qnet.hpp"

namespace mfdfp::compile {

/// What a lowered step executes. Conv/FC steps may carry fused stages.
enum class StepKind : std::uint8_t {
  kConv,
  kFullyConnected,
  kPool,
  kRelu,
  kFlatten,
};

/// Per-layer conv execution strategy, chosen by the strategy pass.
enum class ConvAlgo : std::uint8_t {
  /// Indexed gather inside the MAC loop. No patch materialization; each
  /// output channel re-walks the gather table.
  kDirect,
  /// Materialize each (sample, pixel) patch once into a contiguous int8
  /// buffer, then run a dense branch-free dot per output channel — the
  /// gather is amortized over out_c.
  kIm2col,
};

/// Strategy-pass override knob (ablation: force one algo everywhere).
enum class ConvStrategy : std::uint8_t { kAuto, kForceIm2col, kForceDirect };

/// Deploy-time compilation knobs (DeployConfig.compile). Each pass can be
/// ablated independently; `bench/ablation_compile` measures every row.
struct CompileOptions {
  /// Fusion pass: collapse conv→ReLU(→pool) / fc→ReLU chains into one step.
  bool fuse = true;
  /// Geometry-specialization pass: select the no-padding fast kernel
  /// variant when SupportsGeometry says every gather tap is in-bounds.
  bool specialize = true;
  /// Strategy pass: im2col vs direct per conv layer (kAuto = cost model).
  ConvStrategy strategy = ConvStrategy::kAuto;
  /// Numeric static analysis pass (src/analysis): prove the accumulator /
  /// int32 fast path / radix chain safe for the deployed geometry, and
  /// reject the plan (analysis::PlanRejectedError) otherwise. On by
  /// default; off only for ablation and for tests that build plans the
  /// analyzer would (correctly) refuse.
  bool analyze = true;
};

/// One lowered, pre-resolved execution step.
struct PlanStep {
  StepKind kind = StepKind::kConv;
  /// Human-readable kernel identity, e.g. "conv5x5s1p2+relu+avgpool·im2col".
  std::string label;
  /// QNetDesc layer indices folded into this step (in execution order) —
  /// the profiler attributes a fused step's host time back to these.
  std::vector<std::size_t> source_layers;

  // --- Geometry (spatial steps; FC uses the feature fields) ---
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t out_c = 0, out_h = 0, out_w = 0;  ///< core-op output map
  std::size_t kernel = 0, stride = 1, pad = 0;
  std::size_t in_features = 0, out_features = 0;

  // --- Radix chain ---
  int in_frac = 0;   ///< m: radix of the step's input codes
  int out_frac = 0;  ///< n: radix the core op routes into

  // --- Fused stages (conv/fc steps only) ---
  bool fused_relu = false;
  int relu_frac = 0;  ///< radix the fused ReLU refracs into
  bool fused_pool = false;
  hw::QPool pool{};  ///< fused trailing pool, or the pool of a kPool step
  std::size_t pool_oh = 0, pool_ow = 0;

  // --- Strategy / specialization (conv steps) ---
  ConvAlgo algo = ConvAlgo::kDirect;
  /// SupportsGeometry result: true = every gather tap is in-bounds, the
  /// padded-tap branch is compiled out of the inner loop.
  bool no_pad = false;

  // --- Lowered payload (built by the table pass) ---
  /// Weights predecoded to plain +/-2^(7+e) integer multipliers, row-major
  /// [out_c or out_features][patch or in_features].
  std::vector<std::int32_t> weights;
  std::vector<std::int8_t> bias;  ///< bias codes, format <8, out_frac>
  /// Prebuilt per-output-pixel patch gather table (conv steps): oh*ow rows
  /// of in_c*k*k taps, relative to a sample's image base; SIZE_MAX = padded.
  std::vector<std::size_t> gather;

  /// Radix of this step's final output (after any fused stages).
  [[nodiscard]] int result_frac() const noexcept {
    if (fused_pool) return pool.out_frac;
    if (fused_relu) return relu_frac;
    return out_frac;
  }
};

/// What the passes did — one row per knob in the ablation bench.
struct PlanStats {
  std::size_t steps = 0;
  std::size_t fused_relu = 0;
  std::size_t fused_pool = 0;
  std::size_t specialized = 0;  ///< no-padding fast-variant conv steps
  std::size_t im2col = 0;
  std::size_t direct_conv = 0;
};

/// The immutable deploy-time artifact. Mutated only inside the pass
/// pipeline; everything downstream holds shared_ptr<const CompiledPlan>.
struct CompiledPlan {
  std::string model;
  int input_frac = 0;
  std::size_t in_c = 0, in_h = 0, in_w = 0;  ///< input geometry
  std::size_t out_features = 0;              ///< logits per sample
  std::vector<PlanStep> steps;
  CompileOptions options;
  /// FNV-1a over the source desc's topology + weight/bias streams (name
  /// excluded: identical models share a plan).
  std::uint64_t content_hash = 0;
  std::vector<std::string> passes_run;
  PlanStats stats;

  /// One line per step: kind, label, geometry, strategy — for logs/tests.
  [[nodiscard]] std::string describe() const;
};

/// Content identity of a deployment image: FNV-1a 64 over input_frac and
/// every layer's kind, geometry, radix, packed weights, and bias codes.
/// The model *name* is excluded so renamed-but-identical models share.
[[nodiscard]] std::uint64_t qnet_content_hash(const hw::QNetDesc& desc);

}  // namespace mfdfp::compile
