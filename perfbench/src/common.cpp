#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>

#include "util/rng.hpp"

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

Tail tail_of(const std::vector<double>& values) {
  static constexpr double kPercentiles[] = {99.9, 99.0, 98.0, 95.0,
                                            90.0, 75.0, 50.0};
  Tail tail;
  tail.n = values.size();
  for (const double pct : kPercentiles) {
    const double beyond =
        static_cast<double>(values.size()) * (1.0 - pct / 100.0);
    if (beyond >= 10.0 - 1e-9 || pct == 50.0) {
      tail.pct = pct;
      tail.value = percentile(values, pct);
      return tail;
    }
  }
  return tail;
}

// ---- tracing --------------------------------------------------------------

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::uint64_t Tracer::reserve_id() { return on_ ? next_id_++ : 0; }

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t id,
                    std::uint64_t parent, std::uint64_t request) {
  if (!on_) return;
  spans_.push_back({name, start_ns, end_ns, id, parent, request});
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    char line[320];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"request\":%llu}}%s\n",
                  s.name.c_str(),
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  out.flush();
  return static_cast<bool>(out);
}

double Span::end() {
  if (end_ == 0) {
    end_ = now_ns();
    tracer().record(name_, start_, end_, id_, parent_, 0);
  }
  return static_cast<double>(end_ - start_) / 1e6;
}

// ---- report ---------------------------------------------------------------

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // Metrics are finite by construction; guard anyway so the line stays
    // valid JSON.
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    char number[64];
    std::snprintf(number, sizeof number, "%.10g", value);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + number +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void Report::print() const {
  for (const Metric& m : metrics_) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// ---- phase results ----------------------------------------------------------

std::vector<double> PhaseResult::latencies() const {
  return field(&Sample::e2e_ms);
}

std::vector<double> PhaseResult::field(double Sample::* member) const {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const Sample& s : samples) {
    if (s.ok && sources[s.source].measured) values.push_back(s.*member);
  }
  return values;
}

double PhaseResult::throughput_sps() const {
  // Completions per second between the first and the last completion of
  // the window: a count over the whole window would only take the few
  // values a paced device allows.
  std::size_t done = 0;
  std::int64_t first = end_ns, last = start_ns;
  for (const Sample& s : samples) {
    if (s.ok && s.done_ns <= end_ns) {
      ++done;
      first = std::min(first, s.done_ns);
      last = std::max(last, s.done_ns);
    }
  }
  if (done < 2 || last <= first) return 0.0;
  return static_cast<double>(done - 1) /
         (static_cast<double>(last - first) / 1e9);
}

double PhaseResult::end_p50_ms() const {
  const std::int64_t from = end_ns - (end_ns - start_ns) / 10;
  std::vector<double> values;
  for (const Sample& s : samples) {
    if (s.ok && sources[s.source].measured && s.due_ns >= from) {
      values.push_back(s.e2e_ms);
    }
  }
  return median(values);
}

double PhaseResult::batch_mean() const {
  // Each request of a batch of b carries b; summing 1/b counts batches.
  double batches = 0.0;
  std::size_t requests = 0;
  for (const Sample& s : samples) {
    if (!s.ok || s.batch_size == 0) continue;
    batches += 1.0 / static_cast<double>(s.batch_size);
    ++requests;
  }
  return batches > 0.0 ? static_cast<double>(requests) / batches : 0.0;
}

void print_phase(const PhaseResult& phase) {
  const std::vector<double> lat = phase.latencies();
  const Tail tail = tail_of(lat);
  std::printf(
      "phase %-14s sent %6llu ok %6llu failed %3llu | %7.1f sps | p50 %7.3f "
      "p90 %7.3f p%.1f %8.3f ms (n=%zu) | late p99 %.3f | end p50 %.3f ms\n",
      phase.name.c_str(), static_cast<unsigned long long>(phase.sent),
      static_cast<unsigned long long>(phase.ok),
      static_cast<unsigned long long>(phase.failed), phase.throughput_sps(),
      median(lat), percentile(lat, 90.0), tail.pct, tail.value, tail.n,
      percentile(phase.field(&Sample::late_ms), 99.0), phase.end_p50_ms());
  std::fflush(stdout);
}

// ---- the generator ----------------------------------------------------------

namespace {

struct InFlight {
  std::uint16_t source = 0;
  std::uint32_t image = 0;
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;
  std::int64_t sent_ns = 0;  ///< submit() returned
  std::future<serve::Response> future;
};

struct Due {
  std::int64_t due_ns;
  std::uint16_t source;
  std::uint32_t image;
};

serve::SubmitOptions submit_options(const Source& source) {
  serve::SubmitOptions options;
  options.priority = source.priority;
  options.deadline_us = 0;  // no deadline: nothing is shed or expires
  return options;
}

InFlight send(const LoadContext& ctx, const Source& source,
              std::uint16_t index, std::uint32_t image, std::int64_t due_ns) {
  InFlight f;
  f.source = index;
  f.image = image;
  f.due_ns = due_ns;
  f.send_ns = now_ns();
  f.future = ctx.server->submit(ctx.tenants[source.tenant].model,
                                ctx.images[image], submit_options(source));
  f.sent_ns = now_ns();
  return f;
}

}  // namespace

PhaseResult run_phase(const LoadContext& ctx, const std::string& name,
                      const std::vector<Source>& sources, double seconds,
                      std::uint64_t seed) {
  PhaseResult result;
  result.name = name;
  result.sources = sources;
  mfdfp::util::Rng rng{seed};
  const auto pool = static_cast<std::uint32_t>(ctx.images.size());
  const auto window_ns = static_cast<std::int64_t>(seconds * 1e9);

  // The open-loop schedule, drawn before the clock starts: seeded Poisson
  // burst arrivals per source, merged in due order (offsets from start).
  std::vector<Due> schedule;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const Source& src = sources[s];
    if (src.outstanding > 0 || src.rate_rps <= 0.0) continue;
    const double burst_rate = src.rate_rps / static_cast<double>(src.burst);
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng.uniform()) / burst_rate;
      if (t >= seconds) break;
      for (std::size_t b = 0; b < src.burst; ++b) {
        schedule.push_back({static_cast<std::int64_t>(t * 1e9),
                            static_cast<std::uint16_t>(s),
                            static_cast<std::uint32_t>(rng.next_u64() % pool)});
      }
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Due& a, const Due& b) {
                     return a.due_ns < b.due_ns;
                   });

  std::mutex inbox_mutex;
  std::vector<InFlight> inbox;
  std::vector<InFlight> live;
  result.start_ns = now_ns();
  result.end_ns = result.start_ns + window_ns;

  for (std::size_t s = 0; s < sources.size(); ++s) {
    for (std::size_t i = 0; i < sources[s].outstanding; ++i) {
      live.push_back(send(ctx, sources[s], static_cast<std::uint16_t>(s),
                          static_cast<std::uint32_t>(rng.next_u64() % pool),
                          now_ns()));
      ++result.sent;
    }
  }
  std::atomic<bool> submitter_done{schedule.empty()};
  std::jthread submitter;  // joins on every exit path
  if (!schedule.empty()) {
    submitter = std::jthread([&] {
      const auto origin = std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(result.start_ns));
      for (const Due& d : schedule) {
        std::this_thread::sleep_until(origin +
                                      std::chrono::nanoseconds(d.due_ns));
        InFlight f = send(ctx, sources[d.source], d.source, d.image,
                          result.start_ns + d.due_ns);
        const std::lock_guard<std::mutex> lock(inbox_mutex);
        inbox.push_back(std::move(f));
      }
      submitter_done.store(true, std::memory_order_release);
    });
  }

  // The collector: resolve whatever is ready, check it, refill closed loops.
  std::vector<InFlight> refill;
  while (true) {
    {
      const std::lock_guard<std::mutex> lock(inbox_mutex);
      for (InFlight& f : inbox) live.push_back(std::move(f));
      result.sent += inbox.size();
      inbox.clear();
    }
    bool progressed = false;
    refill.clear();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      InFlight& f = live[i];
      if (f.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        if (kept != i) live[kept] = std::move(f);
        ++kept;
        continue;
      }
      const serve::Response response = f.future.get();
      const std::int64_t done = now_ns();
      progressed = true;
      const Source& src = sources[f.source];
      Sample s;
      s.source = f.source;
      s.ok = serve::ok(response.status) &&
             response.logits.equals(
                 ctx.tenants[src.tenant].expected[f.image]);
      s.due_ns = f.due_ns;
      s.done_ns = done;
      s.e2e_ms = static_cast<double>(done - f.due_ns) / 1e6;
      s.late_ms = static_cast<double>(f.send_ns - f.due_ns) / 1e6;
      s.submit_us = static_cast<double>(f.sent_ns - f.send_ns) / 1e3;
      s.outside_ms = static_cast<double>(done - f.send_ns) / 1e6 -
                     static_cast<double>(response.e2e_us) / 1e3;
      s.queue_ms = static_cast<double>(response.queue_wait_us) / 1e3;
      s.service_ms = static_cast<double>(response.service_us) / 1e3;
      s.lane_wait_ms = (static_cast<double>(response.service_us) -
                        response.sim_accel_us) / 1e3;
      s.batch_size = response.batch_size;
      if (s.ok) {
        ++result.ok;
      } else {
        ++result.failed;
      }
      if (tracer().enabled()) {
        const std::uint64_t request = tracer().reserve_id();
        tracer().record("request", f.due_ns, done, request, 0, request);
        tracer().record("submit", f.send_ns, f.sent_ns, tracer().reserve_id(),
                        request, request);
        tracer().record("wait", f.sent_ns, done, tracer().reserve_id(),
                        request, request);
      }
      result.samples.push_back(s);
      if (src.outstanding > 0 && done < result.end_ns) {
        refill.push_back(send(ctx, src, f.source,
                              static_cast<std::uint32_t>(rng.next_u64() % pool),
                              now_ns()));
        ++result.sent;
      }
    }
    live.resize(kept);
    for (InFlight& f : refill) live.push_back(std::move(f));

    if (live.empty() && submitter_done.load(std::memory_order_acquire)) {
      const std::lock_guard<std::mutex> lock(inbox_mutex);
      if (inbox.empty()) break;
    }
    if (!progressed) {
      if (!live.empty()) {
        (void)live.front().future.wait_for(std::chrono::microseconds(100));
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }
  if (submitter.joinable()) submitter.join();
  return result;
}

}  // namespace perfbench

namespace perfbench {
namespace {

/// One phase's segments as one sample (their throughputs stay per segment).
PhaseResult pooled(const std::vector<PhaseResult>& segments) {
  PhaseResult all = segments.front();
  for (std::size_t i = 1; i < segments.size(); ++i) {
    const PhaseResult& s = segments[i];
    all.samples.insert(all.samples.end(), s.samples.begin(), s.samples.end());
    all.sent += s.sent;
    all.ok += s.ok;
    all.failed += s.failed;
  }
  return all;
}

}  // namespace

void run_traffic(const LoadContext& ctx, const TrafficPlan& plan,
                 std::uint64_t seed, WorkloadResult& result) {
  std::vector<PhaseResult> closed, low, nominal, high;
  const auto segment = [&](std::vector<PhaseResult>& into, const char* name,
                           const std::vector<Source>& sources,
                           double seconds) {
    into.push_back(run_phase(
        ctx, std::string(name) + "#" + std::to_string(into.size() + 1),
        sources, seconds, ++seed));
    print_phase(into.back());
    result.add(into.back());
  };
  for (int r = 0; r < plan.rounds; ++r) {
    if (plan.closed_hook) plan.closed_hook(true);
    segment(closed, "closed", plan.closed, plan.closed_s);
    if (plan.closed_hook) plan.closed_hook(false);
    segment(low, "low", plan.open(plan.low_rps), plan.low_s);
    if (!plan.closed_is_nominal) {
      segment(nominal, "nominal", plan.open(plan.nominal_rps),
              plan.nominal_s);
    }
    segment(high, "high", plan.open(plan.high_rps), plan.high_s);
  }

  std::size_t misses_in_row = 0;
  std::vector<double> late;
  for (std::size_t i = 0; i < plan.ladder.size() && misses_in_row < 2; ++i) {
    const double rate = plan.ladder[i];
    const PhaseResult rung = run_phase(
        ctx, "ladder@" + std::to_string(static_cast<int>(rate)),
        plan.open(rate), std::max(plan.rung_s, plan.rung_samples / rate),
        ++seed);
    result.add(rung);
    const double tail = percentile(rung.latencies(), kRungPct);
    const bool met = rung.failed == 0 && tail <= plan.limit_ms &&
                     rung.end_p50_ms() <= plan.limit_ms;
    print_phase(rung);
    std::printf("  rung %s: p%.0f %.3f ms vs limit %.3f ms\n",
                met ? "met" : "MISSED", kRungPct, tail, plan.limit_ms);
    misses_in_row = met ? 0 : misses_in_row + 1;
    if (met) result.e2e.max_rate_rps = rate;
    const std::vector<double> l = rung.field(&Sample::late_ms);
    late.insert(late.end(), l.begin(), l.end());
  }

  std::vector<double> closed_sps;
  for (const PhaseResult& s : closed) closed_sps.push_back(s.throughput_sps());
  const PhaseResult all_closed = pooled(closed);
  const PhaseResult all_low = pooled(low);
  const PhaseResult all_nominal =
      plan.closed_is_nominal ? all_closed : pooled(nominal);
  const PhaseResult all_high = pooled(high);

  EndToEnd& e = result.e2e;
  e.throughput_sps = median(closed_sps);
  e.p50_ms = median(all_nominal.latencies());
  e.p99 = tail_of(all_nominal.latencies());
  e.p50_low_ms = median(all_low.latencies());
  e.p50_high_ms = median(all_high.latencies());

  Layers& layers = result.layers;
  const std::vector<double> queue = all_nominal.field(&Sample::queue_ms);
  const std::vector<double> submit = all_nominal.field(&Sample::submit_us);
  layers.engine_queue_p50_ms = median(queue);
  layers.engine_queue_p99_ms = tail_of(queue).value;
  layers.engine_service_p50_ms = median(all_nominal.field(&Sample::service_ms));
  layers.engine_batch_mean = all_closed.batch_mean();
  layers.server_submit_p50_us = median(submit);
  layers.server_submit_p99_us = tail_of(submit).value;
  layers.server_outside_p50_ms =
      median(all_nominal.field(&Sample::outside_ms));
  layers.pu_lane_wait_p99_ms =
      tail_of(all_nominal.field(&Sample::lane_wait_ms)).value;
  for (const PhaseResult* p : {&all_low, &all_nominal, &all_high}) {
    const std::vector<double> l = p->field(&Sample::late_ms);
    late.insert(late.end(), l.begin(), l.end());
  }
  layers.gen_late_p99_ms = tail_of(late).value;
  std::printf("throughput: median of %zu closed segments; p99_ms: the "
              "p%.1f of %zu pooled nominal samples\n",
              closed_sps.size(), e.p99.pct, e.p99.n);
}

void measure_trace_overhead(const LoadContext& ctx,
                            const std::vector<Source>& closed,
                            double run_seconds, std::uint64_t seed,
                            WorkloadResult& out) {
  std::vector<double> off, on;
  for (int i = 0; i < 2; ++i) {
    for (const bool traced : {false, true}) {
      tracer().enable(traced);
      const PhaseResult p = run_phase(ctx, traced ? "trace-on" : "trace-off",
                                      closed, 0.04 * run_seconds,
                                      seed + 1000 + 2 * i + traced);
      (traced ? on : off).push_back(p.throughput_sps());
      out.add(p);
    }
  }
  out.layers.trace_overhead = median(off) / median(on);
}

mfdfp::analysis::CapacityReport time_capacity_analysis(
    const serve::ModelServer& server, Layers& layers) {
  std::vector<mfdfp::analysis::ModelFacts> facts;
  for (const serve::ModelHandle& handle : server.models()) {
    facts.push_back(server.replica_set(handle.name)->capacity_facts());
  }
  std::vector<double> ms;
  mfdfp::analysis::CapacityReport report;
  for (int i = 0; i < 51; ++i) {
    Span span("analyze_capacity");
    report = mfdfp::analysis::analyze_capacity(facts);
    ms.push_back(span.end());
  }
  layers.analysis_capacity_ms = median(ms);
  return report;
}

}  // namespace perfbench
