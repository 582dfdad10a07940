#include "compile/plan_executor.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <utility>

#include "hw/kernels.hpp"
#include "hw/layer_profile.hpp"

namespace mfdfp::compile {

namespace {

using hw::CodeTensor;
using tensor::Shape;

/// Applies the step's fused ReLU (if any) to one routed output code —
/// exactly apply_relu's arithmetic on a single element: rectify the stored
/// 8-bit code at the conv's output radix, then convert_code into the ReLU's.
inline std::int8_t finish_code(std::int32_t routed, const PlanStep& s) {
  std::int8_t code = static_cast<std::int8_t>(routed);
  if (s.fused_relu) {
    const std::int32_t rectified = std::max<std::int32_t>(0, code);
    code = static_cast<std::int8_t>(
        hw::convert_code(rectified, s.out_frac, s.relu_frac));
  }
  return code;
}

void run_conv_step(const PlanStep& s, const CodeTensor& input, CodeTensor& out,
                   std::vector<std::int8_t>& patchbuf) {
  if (input.shape.rank() != 4 || input.shape.c() != s.in_c ||
      input.shape.h() != s.in_h || input.shape.w() != s.in_w) {
    throw std::invalid_argument("run_plan: conv input shape mismatch");
  }
  const std::size_t batch = input.shape.n();
  const std::size_t pixels = s.out_h * s.out_w;
  const std::size_t patch = s.in_c * s.kernel * s.kernel;
  const std::size_t image = s.in_c * s.in_h * s.in_w;

  out.shape = Shape{batch, s.out_c, s.out_h, s.out_w};
  out.frac = s.fused_relu ? s.relu_frac : s.out_frac;
  out.codes.resize(out.shape.size());

  if (s.algo == ConvAlgo::kIm2col) {
    // Materialize each (sample, pixel) patch once into a contiguous int8
    // buffer, then run a dense branch-free dot per output channel — the
    // gather cost is amortized over out_c instead of paid per channel.
    patchbuf.resize(patch);
    const bool i32 = patch <= kI32SafePatch;
    for (std::size_t n = 0; n < batch; ++n) {
      const std::int8_t* codes = input.codes.data() + n * image;
      for (std::size_t pixel = 0; pixel < pixels; ++pixel) {
        const std::size_t* row = s.gather.data() + pixel * patch;
        if (s.no_pad) {
          for (std::size_t k = 0; k < patch; ++k) patchbuf[k] = codes[row[k]];
        } else {
          for (std::size_t k = 0; k < patch; ++k) {
            patchbuf[k] = row[k] == SIZE_MAX ? std::int8_t{0} : codes[row[k]];
          }
        }
        std::int8_t* dst = out.codes.data() + n * s.out_c * pixels + pixel;
        for (std::size_t oc = 0; oc < s.out_c; ++oc) {
          const std::int32_t* wrow = s.weights.data() + oc * patch;
          std::int64_t sum;
          if (i32) {
            std::int32_t acc = 0;
            for (std::size_t k = 0; k < patch; ++k) {
              acc += static_cast<std::int32_t>(patchbuf[k]) * wrow[k];
            }
            sum = acc;
          } else {
            std::int64_t acc = 0;
            for (std::size_t k = 0; k < patch; ++k) {
              acc += static_cast<std::int64_t>(patchbuf[k]) * wrow[k];
            }
            sum = acc;
          }
          dst[oc * pixels] = finish_code(
              hw::route_sum(sum, s.in_frac, s.out_frac, s.bias[oc]), s);
        }
      }
    }
  } else {
    // Direct: indexed gather inside the MAC loop against the plan's prebuilt
    // table; the no-pad specialization compiles the padded-tap branch out.
    for (std::size_t n = 0; n < batch; ++n) {
      const std::int8_t* codes = input.codes.data() + n * image;
      for (std::size_t pixel = 0; pixel < pixels; ++pixel) {
        const std::size_t* row = s.gather.data() + pixel * patch;
        std::int8_t* dst = out.codes.data() + n * s.out_c * pixels + pixel;
        for (std::size_t oc = 0; oc < s.out_c; ++oc) {
          const std::int32_t* wrow = s.weights.data() + oc * patch;
          std::int64_t sum = 0;
          if (s.no_pad) {
            for (std::size_t k = 0; k < patch; ++k) {
              sum += static_cast<std::int64_t>(codes[row[k]]) * wrow[k];
            }
          } else {
            for (std::size_t k = 0; k < patch; ++k) {
              if (row[k] == SIZE_MAX) continue;  // padded tap -> zero input
              sum += static_cast<std::int64_t>(codes[row[k]]) * wrow[k];
            }
          }
          dst[oc * pixels] = finish_code(
              hw::route_sum(sum, s.in_frac, s.out_frac, s.bias[oc]), s);
        }
      }
    }
  }
}

void run_fc_step(const PlanStep& s, const CodeTensor& input, CodeTensor& out) {
  if (input.shape.rank() != 2 || input.shape.dim(1) != s.in_features) {
    throw std::invalid_argument("run_plan: fc input shape mismatch");
  }
  const std::size_t batch = input.shape.dim(0);
  out.shape = Shape{batch, s.out_features};
  out.frac = s.fused_relu ? s.relu_frac : s.out_frac;
  out.codes.resize(out.shape.size());
  const bool i32 = s.in_features <= kI32SafePatch;
  for (std::size_t n = 0; n < batch; ++n) {
    const std::int8_t* row = input.codes.data() + n * s.in_features;
    for (std::size_t o = 0; o < s.out_features; ++o) {
      const std::int32_t* wrow = s.weights.data() + o * s.in_features;
      std::int64_t sum;
      if (i32) {
        std::int32_t acc = 0;
        for (std::size_t k = 0; k < s.in_features; ++k) {
          acc += static_cast<std::int32_t>(row[k]) * wrow[k];
        }
        sum = acc;
      } else {
        std::int64_t acc = 0;
        for (std::size_t k = 0; k < s.in_features; ++k) {
          acc += static_cast<std::int64_t>(row[k]) * wrow[k];
        }
        sum = acc;
      }
      out.codes[n * s.out_features + o] = finish_code(
          hw::route_sum(sum, s.in_frac, s.out_frac, s.bias[o]), s);
    }
  }
}

}  // namespace

void run_plan_codes(const CompiledPlan& plan, hw::ExecScratch& scratch,
                    hw::LayerProfiler* profiler) {
  using clock = std::chrono::steady_clock;
  const bool profiled = profiler != nullptr;
  for (const PlanStep& s : plan.steps) {
    const clock::time_point step_start =
        profiled ? clock::now() : clock::time_point{};
    switch (s.kind) {
      case StepKind::kConv:
        run_conv_step(s, scratch.input, scratch.output, scratch.patch);
        if (s.fused_pool) {
          // Fused trailing pool reads the conv(+relu) map straight back
          // into the ping buffer — no swap, no third buffer.
          hw::pool_forward(s.pool, scratch.output, scratch.input);
        } else {
          std::swap(scratch.input, scratch.output);
        }
        break;
      case StepKind::kFullyConnected:
        run_fc_step(s, scratch.input, scratch.output);
        std::swap(scratch.input, scratch.output);
        break;
      case StepKind::kPool:
        hw::pool_forward(s.pool, scratch.input, scratch.output);
        std::swap(scratch.input, scratch.output);
        break;
      case StepKind::kRelu:
        hw::apply_relu(scratch.input, s.out_frac);
        break;
      case StepKind::kFlatten:
        hw::apply_flatten(scratch.input, s.out_frac);
        break;
    }
    if (profiled) {
      profiler->record_fused_host_ns(
          s.source_layers,
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  clock::now() - step_start)
                  .count()));
    }
  }
}

tensor::Tensor run_plan_batch(const CompiledPlan& plan,
                              const tensor::Tensor& images,
                              hw::ExecScratch& scratch,
                              hw::LayerProfiler* profiler) {
  CodeTensor::encode_into(images, plan.input_frac, scratch.input);
  run_plan_codes(plan, scratch, profiler);
  if (profiler != nullptr) profiler->record_pass(images.shape().n());
  return scratch.input.decode();
}

}  // namespace mfdfp::compile
