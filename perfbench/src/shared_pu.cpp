// The two shared-PU workloads: two different models on one paced
// serve::SharedDevice, with the ablation_shared_pu constants (400 us of
// modeled compute per sample, a 1000 us weight reload on every model
// switch, passes of at most 32 samples). Modeled device time dominates
// wall time, so host kernel speed predicts no change here; pass
// formation, co-batching, chunking, joins and preemption set the numbers.
//
// shared_pu_duel: preemptible passes (preempt_granularity_us 4000). Tenant
//   b floods kBatch work in a closed loop; tenant a sends kInteractive
//   probe bursts of 4 at fixed rates. Latency metrics cover the probes,
//   throughput counts every sample, and the latency limit is the probe
//   bound the capacity analyzer proves at deploy() for the traffic of
//   bench/envelopes/shared_pu_preempt.envelope.
// shared_pu_cobatch: default monolithic passes with co-batching; two kBatch
//   tenants in a closed loop, then at fixed aggregate rates split evenly.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/capacity.hpp"
#include "common.hpp"
#include "compile/passes.hpp"
#include "hw/executor.hpp"
#include "nn/zoo.hpp"
#include "quant/quantizer.hpp"
#include "serve/server.hpp"
#include "serve/shared_device.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace compile = mfdfp::compile;
namespace hw = mfdfp::hw;
namespace analysis = mfdfp::analysis;
using tensor::Shape;
using tensor::Tensor;

constexpr std::size_t kInC = 3, kInH = 16, kInW = 16;
constexpr std::size_t kPool = 64;
constexpr double kTargetSampleUs = 400.0;
constexpr double kSwitchUs = 1000.0;
constexpr std::size_t kMaxPassSamples = 32;
constexpr std::size_t kEngineMaxBatch = 4;
constexpr std::int64_t kEngineMaxWaitUs = 200;
constexpr double kPreemptGranularityUs = 4000.0;
constexpr std::size_t kProbeBurst = 4;
constexpr std::size_t kFloodOutstanding = 64;
constexpr std::size_t kColdDeploys = 21;
constexpr double kRungSamples = 4000.0;

/// Probe rates of the duel (requests/s, bursts of 4), and the ladder.
constexpr double kDuelLow = 300.0, kDuelNominal = 600.0, kDuelHigh = 1000.0;
constexpr double kDuelLadder[] = {1500, 1600, 1700, 1800, 1900, 2000, 2100,
                                  2200, 2300, 2400, 2500, 2600, 2700};
/// Aggregate rates of the co-batching workload (requests/s), the ladder,
/// and its latency limit: three maximal passes (32 samples plus both
/// tenants' reloads) -- the pass in flight, the sample's own, and one
/// more of queueing.
constexpr double kCobLow = 500.0, kCobNominal = 1000.0, kCobHigh = 1500.0;
constexpr double kCobLadder[] = {1800, 1900, 2000, 2100, 2200, 2300, 2400,
                                 2500, 2600, 2700, 2800, 2900, 3000};
constexpr double kCobLimitMs =
    3.0 * (2.0 * kSwitchUs + kMaxPassSamples * kTargetSampleUs) / 1e3;

hw::QNetDesc make_mlp_qnet(std::uint64_t seed, const std::string& name) {
  mfdfp::util::Rng rng{seed};
  mfdfp::nn::ZooConfig config;
  config.in_channels = kInC;
  config.in_h = kInH;
  config.in_w = kInW;
  config.num_classes = 5;
  config.width_multiplier = 0.2f;
  mfdfp::nn::Network net = mfdfp::nn::make_mlp(config, 12, rng);
  Tensor calibration{Shape{8, kInC, kInH, kInW}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const mfdfp::quant::QuantSpec spec =
      mfdfp::quant::quantize_network(net, calibration);
  return hw::extract_qnet(net, spec, name);
}

/// The accelerator clock that makes one sample cost kTargetSampleUs.
hw::AcceleratorConfig paced_accel(const hw::QNetDesc& desc) {
  hw::AcceleratorConfig accel;
  serve::ModelServer probe;
  serve::DeployConfig config;
  config.in_c = kInC;
  config.in_h = kInH;
  config.in_w = kInW;
  probe.deploy("probe", {desc}, config);
  accel.clock_hz *= probe.engine("probe")->simulated_sample_us() /
                    kTargetSampleUs;
  probe.shutdown();
  return accel;
}

std::shared_ptr<serve::SharedDevice> make_pu(bool duel) {
  serve::SharedDeviceConfig config;
  config.max_pass_samples = kMaxPassSamples;
  config.cobatch = true;
  config.paced = true;
  config.model_switch_us = kSwitchUs;
  config.preempt_granularity_us = duel ? kPreemptGranularityUs : 0.0;
  return serve::SharedDevice::create({}, config);
}

/// The traffic bench/envelopes/shared_pu_preempt.envelope declares.
analysis::TrafficEnvelope duel_envelope(bool probe_tenant) {
  analysis::TrafficEnvelope envelope;
  if (probe_tenant) {
    envelope.arrival_rps = 40.0;
    envelope.interactive_fraction = 1.0;
    envelope.interactive_burst = kProbeBurst;
    envelope.interactive_deadline_us = 20000.0;
  } else {
    envelope.arrival_rps = 100.0;
    envelope.interactive_fraction = 0.0;
  }
  return envelope;
}

serve::DeployConfig tenant_config(
    const std::shared_ptr<serve::SharedDevice>& pu,
    const hw::AcceleratorConfig& accel,
    const analysis::TrafficEnvelope& envelope) {
  serve::DeployConfig config;
  config.in_c = kInC;
  config.in_h = kInH;
  config.in_w = kInW;
  config.workers = 4;
  config.max_batch = kEngineMaxBatch;
  config.max_wait_us = kEngineMaxWaitUs;
  config.queue_capacity = 8192;
  config.placement = {serve::DeviceSpec::on(pu)};
  config.accel = accel;
  config.envelope = envelope;
  return config;
}

/// PU counter deltas summed over the closed-phase windows.
void fill_pu_layers(
    const std::vector<std::pair<serve::SharedDeviceSnapshot,
                                serve::SharedDeviceSnapshot>>& windows,
    Layers& layers) {
  double samples = 0, passes = 0, cobatched = 0, switches = 0, chunks = 0;
  double joined = 0, preemptions = 0, busy_us = 0, switch_us = 0, wall_s = 0;
  for (const auto& [a, b] : windows) {
    for (const serve::SharedTenantRow& row : b.tenants) samples += row.samples;
    for (const serve::SharedTenantRow& row : a.tenants) samples -= row.samples;
    passes += static_cast<double>(b.passes - a.passes);
    cobatched += static_cast<double>(b.cobatched_passes - a.cobatched_passes);
    switches += static_cast<double>(b.model_switches - a.model_switches);
    chunks += static_cast<double>(b.chunks - a.chunks);
    joined += static_cast<double>(b.joined_jobs - a.joined_jobs);
    preemptions += static_cast<double>(b.preemptions - a.preemptions);
    busy_us += b.busy_us - a.busy_us;
    switch_us += b.switch_us - a.switch_us;
    wall_s += b.wall_seconds - a.wall_seconds;
  }
  if (passes == 0 || samples == 0 || busy_us == 0) return;
  layers.pu_samples_per_pass = samples / passes;
  layers.pu_cobatched_share = cobatched / passes;
  layers.pu_switches_per_ksample = 1e3 * switches / samples;
  layers.pu_switch_share = switch_us / busy_us;
  layers.pu_utilization = busy_us / (wall_s * 1e6);
  layers.pu_chunks_per_pass = chunks / passes;
  layers.pu_joined_jobs = joined;
  layers.pu_preemptions = preemptions;
}

}  // namespace

WorkloadResult run_shared_pu(const Options& options, bool duel) {
  WorkloadResult out;
  const double S = options.seconds;
  const std::vector<hw::QNetDesc> descs{make_mlp_qnet(95, "mlp-a"),
                                        make_mlp_qnet(96, "mlp-b")};
  const hw::AcceleratorConfig accel = paced_accel(descs[0]);
  const analysis::TrafficEnvelope no_envelope;
  const auto envelope = [&](std::size_t tenant) {
    return duel ? duel_envelope(tenant == 0) : no_envelope;
  };

  mfdfp::util::Rng rng{options.seed};
  Tensor pool{Shape{kPool, kInC, kInH, kInW}};
  pool.fill_uniform(rng, -1.0f, 1.0f);
  LoadContext ctx;
  ctx.tenants = {{"a", {}}, {"b", {}}};
  for (std::size_t i = 0; i < kPool; ++i) {
    ctx.images.push_back(tensor::slice_outer(pool, i, i + 1));
  }
  for (std::size_t t = 0; t < 2; ++t) {
    const hw::AcceleratorExecutor oracle(descs[t]);
    for (const Tensor& image : ctx.images) {
      ctx.tenants[t].expected.push_back(oracle.run(image));
    }
  }

  // ---- set-up: a fresh PU and server, both tenants deployed (through the
  // capacity analyzer on the duel), through both first correct responses.
  std::vector<double> setup_s, deploy_ms, compile_ms;
  for (std::size_t k = 0; k < kColdDeploys; ++k) {
    {
      Span span("compile_qnet");
      for (const hw::QNetDesc& desc : descs) {
        (void)compile::compile_qnet(desc, kInC, kInH, kInW);
      }
      compile_ms.push_back(span.end());
    }
    const auto pu = make_pu(duel);
    serve::ModelServer server;
    const std::size_t image = k % kPool;
    Span setup("setup");
    {
      Span span("deploy", setup.id());
      for (std::size_t t = 0; t < 2; ++t) {
        server.deploy(ctx.tenants[t].model, {descs[t]},
                      tenant_config(pu, accel, envelope(t)));
      }
      deploy_ms.push_back(span.end());
    }
    std::future<serve::Response> first[2] = {
        server.submit("a", ctx.images[image]),
        server.submit("b", ctx.images[image])};
    bool ok = true;
    for (std::size_t t = 0; t < 2; ++t) {
      const serve::Response r = first[t].get();
      ok = ok && serve::ok(r.status) &&
           r.logits.equals(ctx.tenants[t].expected[image]);
    }
    setup_s.push_back(setup.end() / 1e3);
    out.sent += 2;
    (ok ? out.ok : out.failed) += 2;
  }
  out.e2e.setup_s = median(setup_s);
  out.layers.serve_deploy_ms = median(deploy_ms);
  out.layers.compile_plan_ms = median(compile_ms);

  // ---- the serving deployment -------------------------------------------
  const auto pu = make_pu(duel);
  serve::ModelServer server;
  for (std::size_t t = 0; t < 2; ++t) {
    server.deploy(ctx.tenants[t].model, {descs[t]},
                  tenant_config(pu, accel, envelope(t)));
  }
  ctx.server = &server;

  const analysis::CapacityReport report =
      time_capacity_analysis(server, out.layers);
  double limit_ms = kCobLimitMs;
  if (duel) {
    limit_ms = 0.0;
    for (const analysis::Finding& f : report.findings) {
      if (f.proof == analysis::ProofKind::kInteractiveLatency &&
          f.model == "a" && f.verdict == analysis::Verdict::kProven) {
        limit_ms = f.worst_case_us / 1e3;
      }
    }
    std::printf("probe latency limit (proven by the capacity analyzer): "
                "%.3f ms\n", limit_ms);
    if (limit_ms <= 0.0) {
      std::printf("CHECK FAILED: no proven interactive bound for a\n");
      out.checks_passed = false;
      limit_ms = 20.0;  // the envelope's deadline, so the run can finish
    }
  }

  // The duel: b's flood (never measured) plus a's probe bursts, and the
  // closed phase runs the nominal probe rate. Co-batching: both tenants,
  // measured alike, closed loops in the closed phase.
  const Source flood{1, serve::Priority::kBatch, kFloodOutstanding, 0.0, 1,
                     false};
  TrafficPlan plan;
  if (duel) {
    plan.open = [&](double rate) {
      return std::vector<Source>{
          flood,
          {0, serve::Priority::kInteractive, 0, rate, kProbeBurst, true}};
    };
    plan.closed = plan.open(kDuelNominal);
    plan.closed_is_nominal = true;
    plan.low_rps = kDuelLow;
    plan.nominal_rps = kDuelNominal;
    plan.high_rps = kDuelHigh;
    plan.ladder.assign(std::begin(kDuelLadder), std::end(kDuelLadder));
  } else {
    plan.open = [](double rate) {
      return std::vector<Source>{
          {0, serve::Priority::kBatch, 0, rate / 2.0, 1, true},
          {1, serve::Priority::kBatch, 0, rate / 2.0, 1, true}};
    };
    plan.closed = {
        {0, serve::Priority::kBatch, kFloodOutstanding, 0.0, 1, true},
        {1, serve::Priority::kBatch, kFloodOutstanding, 0.0, 1, true}};
    plan.low_rps = kCobLow;
    plan.nominal_rps = kCobNominal;
    plan.high_rps = kCobHigh;
    plan.ladder.assign(std::begin(kCobLadder), std::end(kCobLadder));
  }
  const double nominal_s =
      std::max(0.05 * S, 1.1 * kTailSamples / (plan.rounds * plan.nominal_rps));
  plan.closed_s = duel ? std::max(0.09 * S, nominal_s) : 0.05 * S;
  plan.nominal_s = nominal_s;
  plan.low_s = duel ? 0.04 * S : 0.02 * S;
  plan.high_s = duel ? 0.04 * S : 0.03 * S;
  plan.rung_s = 0.03 * S;
  plan.rung_samples = kRungSamples;
  plan.limit_ms = limit_ms;
  std::vector<std::pair<serve::SharedDeviceSnapshot,
                        serve::SharedDeviceSnapshot>> windows;
  plan.closed_hook = [&](bool start) {
    if (start) {
      windows.emplace_back(pu->snapshot(), serve::SharedDeviceSnapshot{});
    } else {
      windows.back().second = pu->snapshot();
    }
  };
  std::uint64_t seed = options.seed * 7919;
  out.add(run_phase(ctx, "warmup", plan.closed, 1.0, ++seed));
  run_traffic(ctx, plan, seed, out);
  fill_pu_layers(windows, out.layers);
  if (duel) out.layers.analysis_headroom = limit_ms / out.e2e.p99.value;

  if (options.trace) measure_trace_overhead(ctx, plan.closed, S, seed, out);
  server.shutdown();
  if (options.trace) profile_cifar_kernels(options, out);
  return out;
}

}  // namespace perfbench
