// Shared machinery of the repository benchmark: command-line options,
// order statistics, the in-memory span tracer, the metric report, and the
// load generator every workload drives the ModelServer with.
//
// The load generator uses at most two threads: a submitter that sends the
// open-loop (scheduled) sources at their due times, and a collector (the
// calling thread) that resolves every future, checks its logits against
// the AcceleratorExecutor::run() oracle, and keeps the closed-loop sources
// topped up. Open-loop latency runs from a request's due time to the
// return of its future.get(), so a late generator or a stalled server
// shows in the numbers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/capacity.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

namespace serve = mfdfp::serve;
namespace tensor = mfdfp::tensor;

/// Monotonic nanoseconds (steady_clock, arbitrary epoch).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string trace_path;
};

// ---- order statistics -----------------------------------------------------

/// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// The highest of a fixed set of percentiles that still has at least ten
/// samples beyond it, with the count it was taken over.
struct Tail {
  double pct = 0.0;
  double value = 0.0;
  std::size_t n = 0;
};
[[nodiscard]] Tail tail_of(const std::vector<double>& values);

// ---- tracing --------------------------------------------------------------

/// In-memory span recorder. Off by default; when on, every Span records
/// (name, start, end, id, parent, request) and the whole set is written as
/// Chrome trace-event JSON at exit.
class Tracer {
 public:
  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool enabled() const { return on_; }
  /// A fresh span id (0 when tracing is off).
  [[nodiscard]] std::uint64_t reserve_id();
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t id, std::uint64_t parent, std::uint64_t request);
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Writes every span; false when the file cannot be written.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  struct Record {
    std::string name;  // owned: a span's name may not outlive the run
    std::int64_t start_ns, end_ns;
    std::uint64_t id, parent, request;
  };
  bool on_ = false;
  std::uint64_t next_id_ = 1;
  std::vector<Record> spans_;
};

/// The process-wide tracer. Spans are recorded only from the collector /
/// main thread, so the tracer needs no lock.
Tracer& tracer();

/// Times one call into a layer. Always measures (the untraced run needs
/// the durations too); records a span only while tracing is on.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t parent = 0)
      : name_(name),
        parent_(parent),
        id_(tracer().reserve_id()),
        start_(now_ns()) {}
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  /// Ends the span (idempotent) and returns its length, milliseconds.
  double end();

 private:
  const char* name_;
  std::uint64_t parent_, id_;
  std::int64_t start_, end_ = 0;
};

// ---- metric report --------------------------------------------------------

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const;
  /// One aligned "name value unit" line per metric.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// ---- load generation ------------------------------------------------------

/// One deployed model the generator targets: its name on the server and
/// the oracle logits (AcceleratorExecutor::run()) for every pool image.
struct Tenant {
  std::string model;
  std::vector<tensor::Tensor> expected;
};

/// One traffic source of a phase. outstanding > 0 makes it a closed loop
/// (that many requests kept in flight); otherwise it sends seeded Poisson
/// bursts of `burst` requests at rate_rps requests per second.
struct Source {
  std::size_t tenant = 0;
  serve::Priority priority = serve::Priority::kInteractive;
  std::size_t outstanding = 0;
  double rate_rps = 0.0;
  std::size_t burst = 1;
  /// Whether this source's latencies are the phase's latency sample.
  bool measured = true;
};

/// One resolved request, as the client saw it.
struct Sample {
  std::uint16_t source = 0;
  bool ok = false;
  std::int64_t due_ns = 0;     ///< scheduled send (closed loop: send)
  std::int64_t done_ns = 0;    ///< future.get() returned
  double e2e_ms = 0.0;         ///< due -> get() return
  double late_ms = 0.0;        ///< send - due (open loop)
  double submit_us = 0.0;      ///< time inside ModelServer::submit()
  double outside_ms = 0.0;     ///< (send -> get) - Response.e2e_us
  double queue_ms = 0.0;       ///< Response.queue_wait_us
  double service_ms = 0.0;     ///< Response.service_us
  double lane_wait_ms = 0.0;   ///< service_us - sim_accel_us
  std::size_t batch_size = 0;  ///< Response.batch_size
};

struct PhaseResult {
  std::string name;
  std::vector<Source> sources;
  std::int64_t start_ns = 0, end_ns = 0;  ///< the send window
  std::vector<Sample> samples;
  std::uint64_t sent = 0, ok = 0, failed = 0;

  /// Client latencies (ms) of the measured sources' OK requests.
  [[nodiscard]] std::vector<double> latencies() const;
  /// Any per-sample field of the measured sources' OK requests.
  [[nodiscard]] std::vector<double> field(double Sample::* member) const;
  /// Completions per second within the send window, timed from the
  /// first of them to the last.
  [[nodiscard]] double throughput_sps() const;
  /// Median latency of the measured requests due in the window's last
  /// tenth: above the limit when the backlog grew through the phase.
  [[nodiscard]] double end_p50_ms() const;
  /// Per-batch mean batch size of every OK request, measured or not (the
  /// duel's flood is most of its closed-phase traffic).
  [[nodiscard]] double batch_mean() const;
};

struct LoadContext {
  serve::ModelServer* server = nullptr;
  /// The input pool, one {1, C, H, W} tensor per image.
  std::vector<tensor::Tensor> images;
  std::vector<Tenant> tenants;
};

/// Runs one phase: sends for `seconds`, then drains every request and
/// checks each response bit-exactly against its tenant's oracle logits.
[[nodiscard]] PhaseResult run_phase(const LoadContext& ctx,
                                    const std::string& name,
                                    const std::vector<Source>& sources,
                                    double seconds, std::uint64_t seed);

/// Prints one "phase sent ok failed ..." line.
void print_phase(const PhaseResult& phase);

/// The traffic every workload runs, after its set-up. First `rounds`
/// rounds of four segments -- the closed loop, then open-loop arrivals at
/// the low, nominal and high rates -- so host noise spreads over all four
/// phases alike; each phase's segments are pooled. Then a fixed
/// absolute-rate ladder: each rung runs open(rate) for rung_s, and at
/// least long enough to send rung_samples requests. A rung is met when
/// nothing failed, its p75 is within limit_ms, and its backlog did not
/// grow (end_p50_ms() within limit_ms too). The p75 is the same percentile
/// on every rung; near the knee a rung's p90 or p99 moves by more than a
/// rung from run to run. The ladder stops after two missed rungs in a
/// row; max_rate_rps is the highest met rung.
struct TrafficPlan {
  std::vector<Source> closed;
  std::function<std::vector<Source>(double)> open;
  double low_rps = 0.0, nominal_rps = 0.0, high_rps = 0.0;
  /// The closed phase already carries the nominal open-loop traffic (the
  /// duel's flood plus probes), so no separate nominal segment runs.
  bool closed_is_nominal = false;
  int rounds = 4;
  double closed_s = 0.0, low_s = 0.0, nominal_s = 0.0, high_s = 0.0;
  std::vector<double> ladder;
  double rung_s = 0.0, rung_samples = 0.0;
  double limit_ms = 0.0;
  /// Called with true before and false after every closed segment.
  std::function<void(bool)> closed_hook;
};
inline constexpr double kRungPct = 75.0;
/// Nominal-rate samples a run needs for a p99 with ten samples beyond it.
inline constexpr std::size_t kTailSamples = 1000;

// ---- results shared by all workloads --------------------------------------

/// The eight end-to-end metrics every workload reports (untraced run).
struct EndToEnd {
  double setup_s = 0.0;
  double throughput_sps = 0.0;
  double p50_ms = 0.0;
  Tail p99;  ///< the highest percentile the nominal phase supports
  double p50_low_ms = 0.0, p50_high_ms = 0.0;
  double max_rate_rps = 0.0;
};

/// The per-layer metrics (traced run). A layer a workload does not have
/// (no proven bound without an envelope) reads 0; the README lists which
/// apply where.
struct Layers {
  double compile_plan_ms = 0.0;
  double analysis_capacity_ms = 0.0;
  double analysis_headroom = 0.0;
  double serve_deploy_ms = 0.0;
  struct Block {
    std::string name;  ///< conv1, conv2, conv3, fc
    double ns_per_sample = 0.0;
    double gmacs = 0.0;
    double share = 0.0;
  };
  std::vector<Block> blocks;
  double kernel_plan_sps = 0.0;
  double kernel_vs_oracle = 0.0;
  double kernel_block_sum_ratio = 0.0;
  double engine_queue_p50_ms = 0.0, engine_queue_p99_ms = 0.0;
  double engine_service_p50_ms = 0.0;
  double engine_batch_mean = 0.0;
  double server_submit_p50_us = 0.0, server_submit_p99_us = 0.0;
  double server_outside_p50_ms = 0.0;
  double pu_samples_per_pass = 0.0, pu_cobatched_share = 0.0;
  double pu_switches_per_ksample = 0.0, pu_switch_share = 0.0;
  double pu_utilization = 0.0;
  double pu_chunks_per_pass = 0.0, pu_joined_jobs = 0.0;
  double pu_preemptions = 0.0, pu_lane_wait_p99_ms = 0.0;
  double gen_late_p99_ms = 0.0;
  double trace_overhead = 0.0;
};

/// What one workload run produced.
struct WorkloadResult {
  std::uint64_t sent = 0, ok = 0, failed = 0;
  /// Every structural check held (oracle, reconciliation, proofs).
  bool checks_passed = true;
  EndToEnd e2e;
  Layers layers;
  void add(const PhaseResult& phase) {
    sent += phase.sent;
    ok += phase.ok;
    failed += phase.failed;
  }
};

/// Runs the plan's traffic. Fills result.e2e (all but setup_s), the
/// engine / front-door / generator layers, and the sent / ok / failed
/// counts.
void run_traffic(const LoadContext& ctx, const TrafficPlan& plan,
                 std::uint64_t seed, WorkloadResult& result);

/// Workload entry point (shared_pu.cpp).
WorkloadResult run_shared_pu(const Options& options, bool duel);

/// The kernel layer's profile (cifar_kernels.cpp): the CIFAR-10 plan's
/// blocks, one thread, a batch of 8 drawn from the seed, for a fifth of
/// the run's seconds. Every traced run reports it: it is a property of
/// the kernels, not of a workload's traffic.
void profile_cifar_kernels(const Options& options, WorkloadResult& out);

/// Times analyze_capacity() on the live deployment's facts (the median of
/// 51 calls, into layers.analysis_capacity_ms) and returns its report.
mfdfp::analysis::CapacityReport time_capacity_analysis(
    const serve::ModelServer& server, Layers& layers);

/// Tracing cost for the traced run: closed-loop throughput with the tracer
/// off and on, interleaved twice, each segment 4% of run_seconds.
void measure_trace_overhead(const LoadContext& ctx,
                            const std::vector<Source>& closed,
                            double run_seconds, std::uint64_t seed,
                            WorkloadResult& out);

}  // namespace perfbench
