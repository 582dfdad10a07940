// perfbench: the repository benchmark's measuring binary (perfbench/run.py
// builds and runs it).
//
//   perfbench --workload <shared_pu_duel|shared_pu_cobatch>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Prints the phases as they run, then every metric by name with its unit,
// and as the last line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// (from the span-timed traced run, whose spans go to --trace-out) with
// --trace 1. Exits 1 when any response differs from the
// AcceleratorExecutor::run() oracle or a structural check fails, and 2 on
// bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--trace-out") {
      options.trace_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() && options.seconds > 0.0;
}

void end_to_end(const WorkloadResult& r, Report& report) {
  const EndToEnd& e = r.e2e;
  report.add("setup_s", e.setup_s, "s");
  report.add("throughput_sps", e.throughput_sps, "samples/s");
  report.add("p50_ms", e.p50_ms, "ms");
  report.add("p99_ms", e.p99.value, "ms");
  report.add("p50_ms.low", e.p50_low_ms, "ms");
  report.add("p50_ms.high", e.p50_high_ms, "ms");
  report.add("max_rate_rps", e.max_rate_rps, "1/s");
  report.add("ok_ratio",
             r.sent > 0 ? static_cast<double>(r.ok) /
                              static_cast<double>(r.sent)
                        : 0.0,
             "ratio");
  std::printf("p99_ms is the p%.1f of %zu nominal-rate samples (the highest "
              "percentile with at least 10 samples beyond it)\n",
              e.p99.pct, e.p99.n);
}

void per_layer(const Layers& l, Report& report) {
  report.add("compile.plan_ms", l.compile_plan_ms, "ms");
  report.add("analysis.capacity_ms", l.analysis_capacity_ms, "ms");
  report.add("analysis.headroom", l.analysis_headroom, "ratio");
  report.add("serve.deploy_ms", l.serve_deploy_ms, "ms");
  static const char* const kBlocks[] = {"conv1", "conv2", "conv3", "fc"};
  for (const char* name : kBlocks) {
    Layers::Block block{name};
    for (const Layers::Block& b : l.blocks) {
      if (b.name == name) block = b;
    }
    const std::string prefix = std::string("kernel.") + name;
    report.add(prefix + ".ns_per_sample", block.ns_per_sample, "ns");
    report.add(prefix + ".gmacs", block.gmacs, "GMAC/s");
    report.add(prefix + ".share", block.share, "ratio");
  }
  report.add("kernel.plan_sps", l.kernel_plan_sps, "samples/s");
  report.add("kernel.vs_oracle", l.kernel_vs_oracle, "ratio");
  report.add("kernel.block_sum_ratio", l.kernel_block_sum_ratio, "ratio");
  report.add("engine.queue_ms.p50", l.engine_queue_p50_ms, "ms");
  report.add("engine.queue_ms.p99", l.engine_queue_p99_ms, "ms");
  report.add("engine.service_ms.p50", l.engine_service_p50_ms, "ms");
  report.add("engine.batch_mean", l.engine_batch_mean, "samples");
  report.add("server.submit_us.p50", l.server_submit_p50_us, "us");
  report.add("server.submit_us.p99", l.server_submit_p99_us, "us");
  report.add("server.outside_ms.p50", l.server_outside_p50_ms, "ms");
  report.add("pu.samples_per_pass", l.pu_samples_per_pass, "samples");
  report.add("pu.cobatched_share", l.pu_cobatched_share, "ratio");
  report.add("pu.switches_per_ksample", l.pu_switches_per_ksample, "count");
  report.add("pu.switch_share", l.pu_switch_share, "ratio");
  report.add("pu.utilization", l.pu_utilization, "ratio");
  report.add("pu.chunks_per_pass", l.pu_chunks_per_pass, "ratio");
  report.add("pu.joined_jobs", l.pu_joined_jobs, "count");
  report.add("pu.preemptions", l.pu_preemptions, "count");
  report.add("pu.lane_wait_ms.p99", l.pu_lane_wait_p99_ms, "ms");
  report.add("gen.late_ms.p99", l.gen_late_p99_ms, "ms");
  report.add("obs.trace_overhead", l.trace_overhead, "ratio");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    if (!parse(argc, argv, options)) throw std::invalid_argument("usage");
  } catch (const std::exception&) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  tracer().enable(options.trace);

  WorkloadResult result;
  if (options.workload == "shared_pu_duel") {
    result = run_shared_pu(options, /*duel=*/true);
  } else if (options.workload == "shared_pu_cobatch") {
    result = run_shared_pu(options, /*duel=*/false);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }

  Report report;
  if (options.trace) {
    per_layer(result.layers, report);
    if (!options.trace_path.empty()) {
      if (!tracer().write_chrome_json(options.trace_path)) {
        std::fprintf(stderr, "could not write %s\n",
                     options.trace_path.c_str());
        return 1;
      }
      std::printf("wrote %zu spans to %s\n", tracer().size(),
                  options.trace_path.c_str());
    }
  } else {
    end_to_end(result, report);
  }
  const bool correct = result.failed == 0 && result.checks_passed;
  std::printf("%s sent %llu ok %llu failed %llu, oracle checks %s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(result.sent),
              static_cast<unsigned long long>(result.ok),
              static_cast<unsigned long long>(result.failed),
              correct ? "passed" : "FAILED");
  report.print();
  std::printf("%s\n", report.json(correct, result.sent, result.failed).c_str());
  return correct ? 0 : 1;
}
