#include "serve/shared_device.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <iterator>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "util/table.hpp"

namespace mfdfp::serve {

namespace {
/// Windows shorter than this report zero utilization instead of dividing by
/// a near-zero wall time (same guard as ServerStats).
constexpr double kMinWindowSeconds = 1e-6;

constexpr std::size_t kInteractiveLane =
    static_cast<std::size_t>(Priority::kInteractive);
constexpr std::size_t kBatchLane = static_cast<std::size_t>(Priority::kBatch);
}  // namespace

SharedDevice::SharedDevice(DeviceSpec spec, SharedDeviceConfig config)
    : spec_(std::move(spec)), config_(std::move(config)) {
  if (config_.max_pass_samples == 0) config_.max_pass_samples = 1;
  if (config_.preempt_granularity_us < 0.0) config_.preempt_granularity_us = 0;
  dispatcher_ = std::thread([this] { dispatch_main(); });
}

std::shared_ptr<SharedDevice> SharedDevice::create(DeviceSpec spec,
                                                   SharedDeviceConfig config) {
  if (spec.shared != nullptr) {
    throw std::invalid_argument(
        "SharedDevice: spec.shared must be empty (a shared device cannot "
        "itself be placed on another shared device)");
  }
  if (spec.speed_factor <= 0.0) {
    throw std::invalid_argument("SharedDevice: speed_factor <= 0");
  }
  if (spec.name.empty()) spec.name = "shared-pu";
  // No make_shared: the constructor is private, and only attach() needs
  // shared_from_this(), which create() guarantees is well-formed.
  return std::shared_ptr<SharedDevice>(
      new SharedDevice(std::move(spec), std::move(config)));
}

SharedDevice::~SharedDevice() {
  // Runs only after every tenant backend (and thus every engine worker that
  // could block in execute()) released its handle, so all lanes are empty
  // and the dispatcher is parked in work_ready_.
  {
    util::MutexLock lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  dispatcher_.join();
}

std::int64_t SharedDevice::now_device_us() const {
  return config_.now_us ? config_.now_us() : util::Stopwatch::now_us();
}

void SharedDevice::sleep_device_us(std::int64_t duration_us) const {
  if (duration_us <= 0) return;
  if (config_.sleep_us) {
    config_.sleep_us(duration_us);
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(duration_us));
  }
}

std::shared_ptr<const SharedDeviceBackend> SharedDevice::attach(
    std::vector<hw::QNetDesc> members, const DeployConfig& config,
    DeviceSpec resolved) {
  // The tenant's compiled plans and per-sample pricing are exactly a dedicated
  // simulated backend on this PU's provisioning; the shared device adds the
  // queue, pass scheduling, and switch costs on top.
  auto tenant = std::make_unique<Tenant>();
  tenant->sim = std::make_unique<SimulatedAcceleratorBackend>(
      std::move(members), config.accel, spec_, config.in_c, config.in_h,
      config.in_w, config.compile, config.plan_cache);
  tenant->in_c = config.in_c;
  tenant->in_h = config.in_h;
  tenant->in_w = config.in_w;
  tenant->model = config.model_name.empty() ? "model" : config.model_name;
  tenant->trace_model = obs::trace().intern(tenant->model);
  tenant->label = tenant->model + "@" +
                  std::to_string(config.model_version) + "/r" +
                  std::to_string(config.replica_index);
  if (config_.model_switch_us > 0.0) {
    tenant->switch_us = config_.model_switch_us;
  } else {
    // Weight working set over the modeled DMA bandwidth. batch_dma_bytes(0)
    // is the weights-only term (activations scale with the sample count).
    const double bytes_per_us = std::max(config_.dma_gbps, 1e-9) * 1e3;
    tenant->switch_us = tenant->sim->batch_dma_bytes(0) / bytes_per_us;
  }

  Tenant* raw = tenant.get();
  {
    util::MutexLock lock(mutex_);
    tenants_.push_back(std::move(tenant));
    active_.push_back(raw);
  }
  return std::make_shared<SharedDeviceBackend>(shared_from_this(), raw,
                                               std::move(resolved));
}

std::size_t SharedDevice::tenant_count() const {
  util::MutexLock lock(mutex_);
  return tenants_.size();
}

double SharedDevice::backlog_us() const {
  return backlog_excluding_us(nullptr);
}

double SharedDevice::backlog_excluding_us(const Tenant* excluded) const {
  util::MutexLock lock(mutex_);
  double total = 0.0;
  for (const Tenant* tenant : active_) {
    if (tenant == excluded) continue;
    total += tenant->load_provider ? tenant->load_provider()
                                   : tenant->pending_us;
  }
  return total;
}

void SharedDevice::bind_tenant_load(const SharedDeviceBackend& backend,
                                    std::function<double()> outstanding_us) {
  util::MutexLock lock(mutex_);
  backend.tenant_->load_provider = std::move(outstanding_us);
}

void SharedDevice::release_tenant(Tenant* tenant) {
  util::MutexLock lock(mutex_);
  // The owning engine drained before its backend died, so nothing of this
  // tenant is queued or executing; drop its pins on the compiled plans
  // (predecoded weights, gather tables) and its profilers so redeploy
  // churn cannot accumulate dead models' working sets. The accounting row
  // (label, counters) stays for snapshots, and switch_us stays valid in
  // case resident_ still points here.
  tenant->lanes[kInteractiveLane].clear();
  tenant->lanes[kBatchLane].clear();
  tenant->load_provider = nullptr;
  tenant->pending_us = 0.0;
  tenant->sim.reset();
  active_.erase(std::remove(active_.begin(), active_.end(), tenant),
                active_.end());
}

void SharedDevice::submit_and_wait(Job& job) {
  util::MutexLock lock(mutex_);
  if (stop_) {
    // Unreachable by construction: the destructor (the only stop_ writer)
    // cannot run while a backend — and therefore an engine worker calling
    // execute() — still holds the device. Fail loudly rather than hang.
    throw std::logic_error("SharedDevice: submit after destruction began");
  }
  // Conservative backlog estimate: compute plus a potential weight reload.
  job.est_cost_us = job.owner->sim->batch_us(job.samples) +
                    job.owner->switch_us;
  job.owner->pending_us += job.est_cost_us;
  job.owner->lanes[job.interactive ? kInteractiveLane : kBatchLane]
      .push_back(&job);
  work_ready_.notify_one();
  pass_retired_.wait(mutex_, [this, &job]() REQUIRES(mutex_) {
    return job.done;
  });
}

std::vector<SharedDevice::Job*> SharedDevice::next_pass_locked(
    bool interactive_only) {
  std::vector<Job*> pass;
  const std::size_t count = active_.size();
  if (count == 0) return pass;

  // Round-robin scan for the lead tenant, starting at the fairness cursor.
  // Within a tenant the interactive lane drains strictly first.
  std::size_t lead = count;
  for (std::size_t step = 0; step < count; ++step) {
    const std::size_t index = (next_tenant_ + step) % count;
    const Tenant& tenant = *active_[index];
    if (!tenant.lanes[kInteractiveLane].empty() ||
        (!interactive_only && !tenant.lanes[kBatchLane].empty())) {
      lead = index;
      break;
    }
  }
  if (lead == count) return pass;
  next_tenant_ = (lead + 1) % count;

  Tenant& lead_tenant = *active_[lead];
  {
    std::deque<Job*>& lane = !lead_tenant.lanes[kInteractiveLane].empty()
                                 ? lead_tenant.lanes[kInteractiveLane]
                                 : lead_tenant.lanes[kBatchLane];
    pass.push_back(lane.front());
    lane.pop_front();
  }
  if (!config_.cobatch) return pass;  // time-sliced: one sub-batch per pass

  // Coalesce more sub-batches, one per tenant per round-robin sweep so no
  // tenant monopolizes the pass, as long as geometries align and the
  // sample cap holds. Each sweep starts behind the lead, whose first
  // sub-batch is already in: the lead's next one comes last. Tenants whose
  // shapes don't align simply wait for their own (serialized per-model)
  // pass on a later round.
  std::size_t total = pass.front()->samples;
  bool progressed = true;
  while (progressed && total < config_.max_pass_samples) {
    progressed = false;
    for (std::size_t step = 1;
         step <= count && total < config_.max_pass_samples; ++step) {
      Tenant& tenant = *active_[(lead + step) % count];
      if (tenant.in_c != lead_tenant.in_c ||
          tenant.in_h != lead_tenant.in_h ||
          tenant.in_w != lead_tenant.in_w) {
        continue;
      }
      std::deque<Job*>* lane = nullptr;
      if (!tenant.lanes[kInteractiveLane].empty()) {
        lane = &tenant.lanes[kInteractiveLane];
      } else if (!interactive_only && !tenant.lanes[kBatchLane].empty()) {
        lane = &tenant.lanes[kBatchLane];
      }
      if (lane == nullptr) continue;
      Job* job = lane->front();
      if (total + job->samples > config_.max_pass_samples) continue;
      lane->pop_front();
      pass.push_back(job);
      total += job->samples;
      progressed = true;
    }
  }

  // Interactive sub-batches lead the pass — on a chunked device they ride
  // the first chunks instead of waiting out every batch tenant's run —
  // then group by tenant so each model's weights are loaded at most once
  // per contiguous run (stable: preserves per-tenant FIFO order). Each
  // section puts the model resident when it starts first and the rest in
  // attach order: the interactive groups start on resident_, the batch
  // groups on whatever the last interactive group left loaded. So each
  // pass starts where the last one ended: back-to-back co-batched passes
  // alternate ends (A B | B A | A B) and pay one reload each, not one per
  // model.
  const std::vector<const Tenant*> attach_order(active_.begin(),
                                                active_.end());
  const auto group_by_tenant = [&attach_order](
                                   std::vector<Job*>::iterator begin,
                                   std::vector<Job*>::iterator end,
                                   const Tenant* resident) {
    const auto rank = [&](const Tenant* tenant) -> std::ptrdiff_t {
      if (tenant == resident) return -1;
      return std::find(attach_order.begin(), attach_order.end(), tenant) -
             attach_order.begin();
    };
    std::stable_sort(begin, end, [&rank](const Job* a, const Job* b) {
      return rank(a->owner) < rank(b->owner);
    });
  };
  const auto batch =
      std::stable_partition(pass.begin(), pass.end(),
                            [](const Job* job) { return job->interactive; });
  group_by_tenant(pass.begin(), batch, resident_);
  group_by_tenant(batch, pass.end(),
                  batch == pass.begin() ? resident_
                                        : (*std::prev(batch))->owner);
  return pass;
}

std::size_t SharedDevice::pending_samples_locked() const {
  std::size_t samples = 0;
  for (const Tenant* tenant : active_) {
    for (const std::deque<Job*>& lane : tenant->lanes) {
      for (const Job* job : lane) samples += job->samples;
    }
  }
  return samples;
}

bool SharedDevice::interactive_pending_locked() const {
  for (const Tenant* tenant : active_) {
    if (!tenant->lanes[kInteractiveLane].empty()) return true;
  }
  return false;
}

void SharedDevice::wait_for_work_locked() {
  work_ready_.wait(mutex_, [this]() REQUIRES(mutex_) {
    return stop_ || pending_samples_locked() > 0;
  });
  if (!config_.cobatch || config_.coalesce_window_us <= 0 || stop_) return;
  // On a preemptible device probes never wait on pass formation: a pending
  // interactive sub-batch cuts the coalesce window, and late batch work
  // can join the in-flight pass instead of needing the window. This is the
  // implementation guarantee that lets the capacity analyzer drop the
  // window term from the interactive bound of chunked placements.
  const bool probes_cut = config_.preempt_granularity_us > 0.0;
  if (probes_cut && interactive_pending_locked()) return;
  // Give just-woken engine workers a bounded beat to refill the lanes,
  // so passes form full instead of racing the resubmission (see
  // SharedDeviceConfig::coalesce_window_us). The window ends early
  // both when a full pass is pending and when a whole slice elapses
  // with no new arrivals — resubmission after a pass retires takes
  // microseconds, so one quiet slice means the refill burst is over
  // and waiting longer would only stall deployments whose engines
  // cannot fill max_pass_samples at all.
  const auto slice = std::chrono::microseconds(
      std::min<std::int64_t>(config_.coalesce_window_us, 100));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(config_.coalesce_window_us);
  std::size_t seen = pending_samples_locked();
  while (!stop_ && seen < config_.max_pass_samples &&
         std::chrono::steady_clock::now() < deadline) {
    const bool timed_out =
        work_ready_.wait_for(mutex_, slice) == std::cv_status::timeout;
    if (probes_cut && interactive_pending_locked()) return;
    const std::size_t now_pending = pending_samples_locked();
    if (timed_out && now_pending == seen) break;  // refill went quiet
    seen = now_pending;
  }
}

// ---- Pass execution: the chunk loop -----------------------------------------

SharedDevice::ActivePass SharedDevice::start_pass_locked(
    bool interactive_only) {
  ActivePass pass;
  pass.jobs = next_pass_locked(interactive_only);
  if (pass.jobs.empty()) return pass;
  const Tenant& lead = *pass.jobs.front()->owner;
  pass.in_c = lead.in_c;
  pass.in_h = lead.in_h;
  pass.in_w = lead.in_w;
  for (const Job* job : pass.jobs) pass.planned_samples += job->samples;
  pass.seq = ++pass_seq_;
  pass.interactive = interactive_only;
  return pass;
}

void SharedDevice::admit_joiners_locked(ActivePass& pass) {
  if (!config_.cobatch || !config_.join_inflight) return;
  const std::size_t count = active_.size();
  if (count == 0) return;
  // Earliest position a joiner can take: right behind the cursor, but
  // never inside the partially-executed sub-batch sitting on it.
  std::size_t probe_at = pass.next_job + (pass.next_sample > 0 ? 1 : 0);
  bool progressed = true;
  while (progressed && pass.planned_samples < config_.max_pass_samples) {
    progressed = false;
    for (std::size_t step = 0;
         step < count && pass.planned_samples < config_.max_pass_samples;
         ++step) {
      Tenant& tenant = *active_[(next_tenant_ + step) % count];
      if (tenant.in_c != pass.in_c || tenant.in_h != pass.in_h ||
          tenant.in_w != pass.in_w) {
        continue;
      }
      std::deque<Job*>* lane = nullptr;
      if (!tenant.lanes[kInteractiveLane].empty()) {
        lane = &tenant.lanes[kInteractiveLane];
      } else if (!pass.interactive && !tenant.lanes[kBatchLane].empty()) {
        // A preemption pass serves probes exclusively: batch work waits for
        // the suspended pass to resume rather than jumping its line.
        lane = &tenant.lanes[kBatchLane];
      }
      if (lane == nullptr) continue;
      Job* job = lane->front();
      if (pass.planned_samples + job->samples > config_.max_pass_samples) {
        continue;
      }
      lane->pop_front();
      if (job->interactive) {
        // Probes ride the very next chunks.
        pass.jobs.insert(
            pass.jobs.begin() + static_cast<std::ptrdiff_t>(probe_at), job);
        ++probe_at;
      } else {
        // Keep batch joiners grouped behind their tenant's last unexecuted
        // sub-batch so chunk boundaries pay the fewest reloads; tenants
        // not in the pass yet append at the tail.
        std::size_t at = pass.jobs.size();
        for (std::size_t i = pass.jobs.size(); i > probe_at;) {
          --i;
          if (pass.jobs[i]->owner == &tenant) {
            at = i + 1;
            break;
          }
        }
        pass.jobs.insert(pass.jobs.begin() + static_cast<std::ptrdiff_t>(at),
                         job);
      }
      pass.planned_samples += job->samples;
      ++pass.joined;
      ++joined_jobs_;
      obs::TraceRecorder& rec = obs::trace();
      if (rec.enabled()) {
        rec.record_instant("join", "pu", now_device_us(), 0, "samples",
                           static_cast<std::int64_t>(job->samples),
                           tenant.trace_model);
      }
      progressed = true;
    }
  }
}

SharedDevice::Chunk SharedDevice::plan_chunk_locked(ActivePass& pass) {
  Chunk chunk;
  Tenant* tenant = pass.jobs[pass.next_job]->owner;
  chunk.tenant = tenant;
  if (resident_ != tenant) {
    chunk.switch_us = tenant->switch_us;
    resident_ = tenant;
  }
  if (!pass.overhead_paid) {
    chunk.overhead_us = config_.pass_overhead_us;
    pass.overhead_paid = true;
  }
  // Fill the chunk with whole samples of this tenant until the modeled
  // compute budget is spent (always at least one sample, so a granularity
  // below one sample degrades to per-sample chunks, never to zero
  // progress) or the tenant's contiguous run ends — a chunk never mixes
  // tenants, so it pays at most the one reload above. Granularity 0 is an
  // unbounded budget: the chunk is the tenant's whole contiguous group.
  const double per_sample_us = tenant->sim->sample_us();
  const double budget_us = config_.preempt_granularity_us > 0.0
                               ? config_.preempt_granularity_us
                               : std::numeric_limits<double>::infinity();
  double used_us = 0.0;
  std::size_t j = pass.next_job;
  std::size_t s = pass.next_sample;
  while (j < pass.jobs.size() && pass.jobs[j]->owner == tenant) {
    const std::size_t limit = pass.jobs[j]->samples;
    while (s < limit) {
      if (chunk.samples > 0 && used_us + per_sample_us > budget_us) {
        chunk.end_job = j;
        chunk.end_sample = s;
        return chunk;
      }
      used_us += per_sample_us;
      ++chunk.samples;
      ++s;
    }
    ++j;
    s = 0;
  }
  chunk.end_job = j;
  chunk.end_sample = 0;
  return chunk;
}

void SharedDevice::execute_chunk(ActivePass& pass, Chunk& chunk,
                                 hw::ExecScratch& scratch,
                                 bool& thread_labeled) {
  obs::TraceRecorder& rec = obs::trace();
  const bool tracing = rec.enabled();
  if (tracing && !thread_labeled) {
    rec.set_thread_label(rec.intern("pu/" + spec_.name));
    thread_labeled = true;
  }

  chunk.start_us = now_device_us();
  if (pass.chunks == 0) pass.start_us = chunk.start_us;
  if (pass.rebase) {
    pass.timeline_base_us = chunk.start_us;
    pass.timeline_us = 0.0;
    pass.rebase = false;
  }
  if (tracing && chunk.switch_us > 0.0) {
    rec.record_instant("weight_reload", "pu", chunk.start_us, 0, "switch_us",
                       static_cast<std::int64_t>(chunk.switch_us),
                       chunk.tenant->trace_model);
  }

  // Execute the chunk's sample range through the tenant's bit-accurate
  // compiled plans. Sub-batches fully inside the chunk take the ordinary
  // whole-tensor path; a sub-batch split by the chunk boundary executes as
  // sample slices — per-sample identical arithmetic, so the staged logits
  // are bit-identical to an unsplit execution.
  double compute_us = 0.0;
  for (std::size_t j = pass.next_job;
       j < chunk.end_job || (j == chunk.end_job && chunk.end_sample > 0);
       ++j) {
    Job* job = pass.jobs[j];
    const std::size_t s0 = j == pass.next_job ? pass.next_sample : 0;
    const std::size_t s1 = j < chunk.end_job ? job->samples : chunk.end_sample;
    if (s0 == 0 && s1 == job->samples) {
      job->result = job->owner->sim->execute(*job->stacked, scratch);
      job->exec_us += job->result.sim_accel_us;
      compute_us += job->result.sim_accel_us;
    } else {
      const tensor::Tensor part = tensor::slice_outer(*job->stacked, s0, s1);
      const BatchResult result = job->owner->sim->execute(part, scratch);
      const std::size_t classes = result.logits.shape().dim(1);
      if (job->result.logits.size() == 0) {
        job->result.logits =
            tensor::Tensor{tensor::Shape{job->samples, classes}};
      }
      std::copy(result.logits.data().begin(), result.logits.data().end(),
                job->result.logits.data().begin() +
                    static_cast<std::ptrdiff_t>(s0 * classes));
      job->exec_us += result.sim_accel_us;
      compute_us += result.sim_accel_us;
    }
    job->executed += s1 - s0;
  }

  chunk.cost_us = chunk.overhead_us + chunk.switch_us + compute_us;

  if (config_.paced) {
    // Pace per chunk, so a chunk's riders retire (and a suspension takes
    // effect) at the modeled chunk boundary instead of after a whole
    // modeled pass. The target is on the pass's own timeline — its base
    // plus every chunk's modeled cost since, truncated once — so host sleep
    // overshoot is paid once per pass, not once per chunk.
    pass.timeline_us += chunk.cost_us;
    const std::int64_t target_us =
        pass.timeline_base_us + static_cast<std::int64_t>(pass.timeline_us);
    sleep_device_us(target_us - now_device_us());
  }

  if (tracing) {
    rec.record_span("chunk", "pu", chunk.start_us,
                    now_device_us() - chunk.start_us, 0, "samples",
                    static_cast<std::int64_t>(chunk.samples),
                    chunk.tenant->trace_model);
  }
}

void SharedDevice::retire_chunk_locked(ActivePass& pass, Chunk& chunk) {
  ++chunks_;
  ++pass.chunks;
  if (chunk.switch_us > 0.0) ++model_switches_;
  busy_us_ += chunk.cost_us;
  switch_busy_us_ += chunk.switch_us;
  pass.cost_us += chunk.cost_us;
  pass.switch_total_us += chunk.switch_us;
  pass.done_samples += chunk.samples;

  bool seen_model = false;
  for (const std::string& model : pass.models) {
    if (model == chunk.tenant->model) {
      seen_model = true;
      break;
    }
  }
  if (!seen_model) pass.models.push_back(chunk.tenant->model);

  // The chunk's reload + overhead ride its lead sub-batch whole (not
  // split): reloads only ever happen at tenant boundaries, so each tenant
  // pays exactly the reloads its groups caused, and the device/tenant busy
  // sums stay exactly equal.
  Job* lead = pass.jobs[pass.next_job];
  lead->extra_us += chunk.switch_us + chunk.overhead_us;
  if (chunk.switch_us > 0.0) {
    lead->extra_dma_bytes += chunk.tenant->sim->batch_dma_bytes(0);
  }

  // Retire every sub-batch the cursor passed: its blocked submitter wakes
  // as soon as the dispatcher drops the mutex and notifies — continuous
  // batching's service point, mid-pass instead of end-of-pass.
  for (std::size_t j = pass.next_job; j < chunk.end_job; ++j) {
    retire_job_locked(*pass.jobs[j]);
  }
  pass.next_job = chunk.end_job;
  pass.next_sample = chunk.end_sample;
}

void SharedDevice::retire_job_locked(Job& job) {
  Tenant& tenant = *job.owner;
  const double attributed_us = job.exec_us + job.extra_us;
  // DMA: activations always stream; weight bytes accumulated only for the
  // reloads this job actually led (extra_dma_bytes).
  const double weight_bytes = tenant.sim->batch_dma_bytes(0);
  const double act_bytes =
      tenant.sim->batch_dma_bytes(job.samples) - weight_bytes;
  job.result.sim_accel_us = attributed_us;
  job.result.sim_dma_bytes = act_bytes + job.extra_dma_bytes;

  tenant.sub_batches += 1;
  tenant.samples += job.samples;
  tenant.busy_us += attributed_us;
  tenant.pending_us = std::max(0.0, tenant.pending_us - job.est_cost_us);
  job.done = true;
}

void SharedDevice::finish_pass_locked(ActivePass& pass) {
  ++passes_;
  if (pass.models.size() > 1) ++cobatched_passes_;
  if (pass.joined > 0) ++joined_passes_;
  obs::TraceRecorder& rec = obs::trace();
  if (rec.enabled()) {
    if (pass.models.size() > 1) {
      rec.record_instant("cobatched_pass", "pu", pass.start_us, 0, "models",
                         static_cast<std::int64_t>(pass.models.size()));
    }
    // The pass's wall span — includes any suspensions it absorbed.
    rec.record_span("pu_pass", "pu", pass.start_us,
                    now_device_us() - pass.start_us, 0, "samples",
                    static_cast<std::int64_t>(pass.done_samples));
  }
}

bool SharedDevice::should_preempt_locked(const ActivePass& pass) const {
  for (const Tenant* tenant : active_) {
    for (const Job* job : tenant->lanes[kInteractiveLane]) {
      const bool joinable =
          config_.cobatch && config_.join_inflight &&
          tenant->in_c == pass.in_c && tenant->in_h == pass.in_h &&
          tenant->in_w == pass.in_w &&
          pass.planned_samples + job->samples <= config_.max_pass_samples;
      if (!joinable) return true;
    }
  }
  return false;
}

void SharedDevice::run_pass_chunked(ActivePass pass, hw::ExecScratch& scratch,
                                    bool& thread_labeled, int depth) {
  obs::TraceRecorder& rec = obs::trace();
  // Granularity 0 plans one chunk per contiguous tenant group and never
  // joins, suspends or calls the hook: a monolithic pass whose groups each
  // retire at their own modeled end.
  const bool preemptible = config_.preempt_granularity_us > 0.0;
  for (;;) {
    Chunk chunk;
    {
      util::MutexLock lock(mutex_);
      if (preemptible) admit_joiners_locked(pass);
      chunk = plan_chunk_locked(pass);
    }
    execute_chunk(pass, chunk, scratch, thread_labeled);

    bool finished = false;
    bool preempt = false;
    SharedDeviceChunkEvent event;
    {
      util::MutexLock lock(mutex_);
      retire_chunk_locked(pass, chunk);
      finished = pass.next_job == pass.jobs.size();
      if (finished) {
        finish_pass_locked(pass);
      } else if (preemptible && depth == 0) {
        // Only outermost passes suspend: a preemption pass is already the
        // most urgent work the device has, so nesting stays depth <= 1.
        preempt = should_preempt_locked(pass);
        if (preempt) {
          ++preemptions_;
          if (rec.enabled()) {
            rec.record_instant(
                "preempt", "pu", now_device_us(), 0, "remaining_samples",
                static_cast<std::int64_t>(pass.planned_samples -
                                          pass.done_samples),
                chunk.tenant->trace_model);
          }
        }
      }
      event.pass = pass.seq;
      event.chunk = pass.chunks - 1;
      event.model = chunk.tenant->model;
      event.chunk_samples = chunk.samples;
      event.remaining_samples = pass.planned_samples - pass.done_samples;
      event.interactive_pass = pass.interactive;
      event.preempting = preempt;
    }
    pass_retired_.notify_all();
    if (preemptible && config_.chunk_hook) {
      config_.chunk_hook(event);
      pass.rebase = true;  // the hook may hold the dispatcher arbitrarily
    }
    if (finished) return;
    if (preempt) {
      // Serve every pending probe pass now (several geometry classes need
      // several passes); the suspended pass resumes right after, on a
      // timeline re-based to the resume point.
      for (;;) {
        ActivePass probe;
        {
          util::MutexLock lock(mutex_);
          probe = start_pass_locked(/*interactive_only=*/true);
        }
        if (probe.jobs.empty()) break;
        run_pass_chunked(std::move(probe), scratch, thread_labeled,
                         depth + 1);
      }
      pass.rebase = true;
    }
  }
}

void SharedDevice::dispatch_main() {
  hw::ExecScratch scratch;
  bool thread_labeled = false;
  for (;;) {
    ActivePass pass;
    {
      util::MutexLock lock(mutex_);
      wait_for_work_locked();
      pass = start_pass_locked(/*interactive_only=*/false);
      if (pass.jobs.empty()) {
        if (stop_) return;
        continue;
      }
    }
    run_pass_chunked(std::move(pass), scratch, thread_labeled, 0);
  }
}

SharedDeviceSnapshot SharedDevice::snapshot() const {
  util::MutexLock lock(mutex_);
  SharedDeviceSnapshot s;
  s.device = spec_.name;
  s.speed_factor = spec_.speed_factor;
  s.passes = passes_;
  s.cobatched_passes = cobatched_passes_;
  s.model_switches = model_switches_;
  s.chunks = chunks_;
  s.preemptions = preemptions_;
  s.joined_jobs = joined_jobs_;
  s.joined_passes = joined_passes_;
  s.busy_us = busy_us_;
  s.switch_us = switch_busy_us_;
  s.wall_seconds = window_.seconds();
  s.utilization = s.wall_seconds >= kMinWindowSeconds
                      ? busy_us_ / (s.wall_seconds * 1e6)
                      : 0.0;
  s.tenants.reserve(tenants_.size());
  for (const auto& tenant : tenants_) {
    SharedTenantRow row;
    row.tenant = tenant->label;
    row.model = tenant->model;
    row.sub_batches = tenant->sub_batches;
    row.samples = tenant->samples;
    row.busy_us = tenant->busy_us;
    // Same source as backlog_us(): the engine-side provider when bound
    // (queued + executing), lane-only pending otherwise — the tenant table
    // must agree with what admission control is shedding against.
    row.pending_us = tenant->load_provider ? tenant->load_provider()
                                           : tenant->pending_us;
    // Device-lane truth, unlike pending_us which may reflect the engine's
    // wider queue: sub-batches sitting in this tenant's lanes right now.
    row.queued_jobs = tenant->lanes[kInteractiveLane].size() +
                      tenant->lanes[kBatchLane].size();
    s.tenants.push_back(std::move(row));
  }
  return s;
}

std::string SharedDevice::stats_table(const std::string& title) const {
  const SharedDeviceSnapshot s = snapshot();
  util::TablePrinter device(title + " — shared device " + s.device);
  device.set_header({"metric", "value"});
  device.add_row({"speed", util::fmt_fixed(s.speed_factor, 2) + "x"});
  device.add_row({"passes", std::to_string(s.passes)});
  device.add_row({"co-batched passes", std::to_string(s.cobatched_passes)});
  device.add_row({"model switches", std::to_string(s.model_switches)});
  device.add_row({"chunks", std::to_string(s.chunks)});
  device.add_row({"preemptions", std::to_string(s.preemptions)});
  device.add_row({"joined sub-batches", std::to_string(s.joined_jobs)});
  device.add_row({"busy (us)", util::fmt_fixed(s.busy_us, 1)});
  device.add_row({"switch busy (us)", util::fmt_fixed(s.switch_us, 1)});
  device.add_row({"utilization (%)", util::fmt_percent(s.utilization, 2)});

  util::TablePrinter tenants(title + " — tenants on " + s.device);
  tenants.set_header({"tenant", "model", "sub-batches", "samples",
                      "busy (us)", "busy share (%)"});
  for (const SharedTenantRow& row : s.tenants) {
    const double share = s.busy_us > 0.0 ? row.busy_us / s.busy_us : 0.0;
    tenants.add_row({row.tenant, row.model, std::to_string(row.sub_batches),
                     std::to_string(row.samples),
                     util::fmt_fixed(row.busy_us, 1),
                     util::fmt_percent(share, 2)});
  }
  return device.to_string() + "\n" + tenants.to_string();
}

// ---- SharedDeviceBackend ----------------------------------------------------

SharedDeviceBackend::SharedDeviceBackend(std::shared_ptr<SharedDevice> device,
                                         SharedDevice::Tenant* tenant,
                                         DeviceSpec resolved)
    : device_(std::move(device)), tenant_(tenant),
      resolved_(std::move(resolved)) {}

SharedDeviceBackend::~SharedDeviceBackend() {
  device_->release_tenant(tenant_);
}

BatchResult SharedDeviceBackend::execute(const tensor::Tensor& stacked,
                                         hw::ExecScratch& scratch) const {
  return execute(stacked, scratch, ExecHints{});
}

BatchResult SharedDeviceBackend::execute(const tensor::Tensor& stacked,
                                         hw::ExecScratch& /*scratch*/,
                                         const ExecHints& hints) const {
  // The dispatch thread executes with its own scratch; the caller's is
  // unused (the caller stays blocked here until its sub-batch retires).
  SharedDevice::Job job;
  job.owner = tenant_;
  job.stacked = &stacked;
  job.samples = stacked.shape().n();
  job.interactive = hints.interactive;
  device_->submit_and_wait(job);
  return std::move(job.result);
}

double SharedDeviceBackend::sample_us() const noexcept {
  return tenant_->sim->sample_us();
}

double SharedDeviceBackend::batch_us(std::size_t batch_size) const {
  return tenant_->sim->batch_us(batch_size);
}

double SharedDeviceBackend::batch_dma_bytes(std::size_t batch_size) const {
  return tenant_->sim->batch_dma_bytes(batch_size);
}

std::size_t SharedDeviceBackend::member_count() const noexcept {
  return tenant_->sim->member_count();
}

double SharedDeviceBackend::cross_tenant_backlog_us() const noexcept {
  return device_->backlog_excluding_us(tenant_);
}

void SharedDeviceBackend::bind_load_provider(
    std::function<double()> outstanding_us) const {
  device_->bind_tenant_load(*this, std::move(outstanding_us));
}

std::vector<hw::LayerProfile> SharedDeviceBackend::layer_profiles() const {
  // tenant_->sim is released only by ~SharedDeviceBackend, so it is alive
  // for the lifetime of every caller holding this backend.
  return tenant_->sim ? tenant_->sim->layer_profiles()
                      : std::vector<hw::LayerProfile>{};
}

}  // namespace mfdfp::serve
