// SharedDevice + SharedDeviceBackend: one physical PU serving many models.
//
// The paper's multiplier-free accelerator is a single cheap fixed-function
// processing unit — cheap enough that a deployment rarely justifies a
// private one per engine replica. A SharedDevice models that one physical
// PU: it owns the device-side batch queue and the single dispatch thread
// that drains it, and any number of InferenceEngines (across any number of
// deployed models) attach to it through the ordinary ExecutionBackend seam.
// `DeviceSpec::on(pu)` in a DeployConfig.placement is all it takes — the
// engine code is unchanged, exactly what the seam was designed for.
//
// Scheduling: every tenant's prepared sub-batches land in per-tenant FIFO
// lanes on the device — one lane per priority class, interactive drained
// first. Each device pass, the dispatcher coalesces pending sub-batches —
// round-robin across tenants for fairness — into one pass of up to
// `max_pass_samples` samples, provided the tenants' input geometries
// align; geometry-incompatible work falls back to serialized per-model
// passes. The pass executes grouped by model, interactive sub-batches
// first, then *resident first*: the model whose weights are already loaded
// (for the batch groups: the model the last interactive group left
// loaded) runs before the others, which follow in attach order. A pass's
// last group is the next pass's resident-first group, so back-to-back
// co-batched passes alternate ends (A B | B A | ...) and pay one weight
// reload each instead of one per model. Like the modeled PU, which writes
// one model's outputs back before it reloads for the next, each group
// retires at its own modeled end: a pass's first model never waits out the
// second's reload and compute. With `cobatch = false` the device
// degrades to classic time-sliced serialization (one sub-batch per pass,
// strict round-robin over tenants) — the ablation baseline of
// bench/ablation_shared_pu.
//
// Preemption + continuous batching (`preempt_granularity_us > 0`): instead
// of executing a pass as one non-preemptible unit, the dispatcher splits it
// into same-tenant *chunks* whose modeled cost is at most the granularity
// (never below one sample), and between chunks it
//   - admits late-arriving geometry-compatible sub-batches into the
//     in-flight pass ("joins": the weight reload is already paid, so a
//     joiner rides the current pass instead of waiting out a coalesce
//     window — continuous batching), and
//   - suspends the pass when an interactive probe is pending that *cannot*
//     join (geometry mismatch, pass at capacity, or joins disabled): the
//     probe gets its own pass immediately, then the suspended pass resumes.
// Worst-case interactive blocking shrinks from one maximal pass to one
// maximal chunk plus a reload — the tightened term
// `analysis::analyze_capacity` proves and `bench/ablation_shared_pu`
// enforces. Chunking slices sub-batch tensors on sample boundaries and runs
// them through the same bit-accurate compiled plans, so it can never change
// any logit — only when a sub-batch completes. The default granularity 0
// is the unbounded budget: every contiguous tenant group is one chunk, and
// the pass never admits joiners, never suspends and never calls the chunk
// hook. There is one pass loop; a monolithic pass is a chunked pass with
// unbounded granularity.
//
// Cost model: a pass pays
//   - `pass_overhead_us` once (pipeline fill/drain + dispatch), plus
//   - a weight-reload penalty each time the pass switches the PU to a model
//     whose weights are not resident (the incoming model's weight working
//     set over `dma_gbps`, or the fixed `model_switch_us` override), plus
//   - each sub-batch's compute (its tenant's cycle-model latency on this
//     device, exactly as a dedicated SimulatedAcceleratorBackend prices it).
// A chunk boundary never splits a reload: each chunk covers one tenant and
// pays at most one reload, entering it. A suspended pass whose tenant was
// evicted by the preempting probe pays the reload again on resume — that
// cost is real on the modeled hardware and is priced by the analyzer's
// preemption overhead term. Weights stay resident across passes until
// another model evicts them, so co-batching's throughput win — amortizing
// reloads and per-pass overhead over more samples — is the same
// statistical-multiplexing effect a real shared accelerator sees. Logits
// are computed by each tenant's own bit-accurate plans regardless of
// pass composition, so co-batching can never change *what* a batch
// computes, only *when* it completes.
//
// Pacing: with `paced = true` (default) the dispatch thread itself holds
// each chunk until its modeled completion time before resolving the
// execute() calls that chunk finishes. Chunk k is held until the pass's
// base time plus the modeled cost of chunks 1..k, so host sleep overshoot
// does not accumulate chunk by chunk into modeled time; the base moves to
// the wall clock only after a suspension or a chunk_hook call. The device
// is the single pacing authority, so N tenant engines can never pace N
// devices' worth of work out of one PU. Tenant engines must leave
// DeployConfig.paced_execution off; their backend->paces_execution() tells
// them so.
//
// Thread-safety: attach() and every accessor may be called from any thread;
// execute() blocks the calling engine worker until its sub-batch retires.
// All shared state is guarded by one device mutex; sub-batch tensors are
// borrowed from the (blocked) caller for the duration of the call, never
// retained. The chunk loop only touches its pass between chunks *under the
// device mutex*, so joiners admitted by the dispatcher itself are the only
// writers of an in-flight pass.
//
// Lifetime: create() returns a shared_ptr; every attached backend holds one,
// and engines hold their backend — so the device (and its dispatch thread)
// outlives every tenant. The destructor therefore only runs once no tenant
// can submit: it closes the queue and joins an idle dispatcher. Detaching a
// tenant (undeploy / redeploy) is just draining its engine: its in-flight
// sub-batches retire in order, other tenants' lanes are untouched, and its
// accounting rows stay readable in the device snapshot.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/device.hpp"
#include "serve/request.hpp"
#include "util/mutex.hpp"
#include "util/stopwatch.hpp"

namespace mfdfp::serve {

struct DeployConfig;  // serve/engine.hpp
class SharedDeviceBackend;

/// One chunk boundary of a preemptible pass, as reported to the
/// SharedDeviceConfig::chunk_hook test seam right after the chunk retired
/// (outside the device mutex, before the next chunk is planned). Lets the
/// deterministic scheduler harness (tests/serve_test_util.hpp) park the
/// dispatcher at exact chunk boundaries and script joins/preemptions.
struct SharedDeviceChunkEvent {
  std::uint64_t pass = 0;   ///< pass sequence number, 1-based
  std::uint64_t chunk = 0;  ///< chunk index within its pass, 0-based
  std::string model;        ///< model the chunk executed
  std::size_t chunk_samples = 0;      ///< samples this chunk executed
  std::size_t remaining_samples = 0;  ///< planned samples still unexecuted
  bool interactive_pass = false;  ///< pass was formed to serve a preemption
  bool preempting = false;  ///< the pass suspends for a probe after this chunk
};

/// Provisioning of one shared PU (see file comment for the cost model).
struct SharedDeviceConfig {
  /// Max samples coalesced into one device pass. Bounds how long a pass —
  /// and therefore any tenant's wait for the *next* pass — can run, which
  /// is what keeps interactive latency bounded under cross-model
  /// interference.
  std::size_t max_pass_samples = 32;

  /// Coalesce compatible sub-batches from different models into one pass
  /// (true) vs time-sliced serialization — one sub-batch per pass, strict
  /// round-robin over tenants (false; the ablation baseline).
  bool cobatch = true;

  /// How long the dispatcher may hold pass formation waiting for more
  /// sub-batches once at least one is pending, microseconds. At a pass
  /// boundary every rider's engine worker wakes at once and resubmits
  /// within microseconds; without a window the dispatcher would race them
  /// and form a degenerate one-sub-batch pass. The window ends as soon as
  /// a full pass is pending *or* a ~100us slice passes with no new
  /// arrivals (the refill burst is over), so deployments whose engines
  /// cannot fill max_pass_samples pay at most one quiet slice, not the
  /// whole window. Keep it well under a full pass's modeled cost — it is
  /// host-side formation latency. Ignored when cobatch is off (time
  /// slicing serves one sub-batch per pass regardless). With
  /// preempt_granularity_us > 0 a pending interactive sub-batch cuts the
  /// window short — probes never wait on pass formation, and late batch
  /// work joins in-flight passes instead of needing the window.
  std::int64_t coalesce_window_us = 500;

  /// Hold each pass until its modeled completion time before resolving the
  /// tenants' execute() calls, so wall-clock behaviour tracks the device's
  /// cycle model (the shared-device analogue of
  /// DeployConfig.paced_execution — central, one pacing thread per PU).
  /// Passes pace chunk by chunk (one chunk per tenant group when
  /// preempt_granularity_us is 0), so a group's riders retire and a
  /// suspension takes effect at the modeled chunk boundary, not after a
  /// whole modeled pass.
  bool paced = true;

  /// Modeled DMA bandwidth for weight reloads when the PU switches models,
  /// GB/s. A model's switch penalty is its weight working set over this
  /// bandwidth.
  double dma_gbps = 8.0;

  /// Fixed per-model switch penalty override, microseconds; > 0 replaces
  /// the dma_gbps-derived reload time (benches pin it for determinism).
  double model_switch_us = 0.0;

  /// Fixed per-pass overhead (pipeline fill/drain + dispatch), us.
  double pass_overhead_us = 0.0;

  /// Preemption granularity, microseconds. > 0 makes passes preemptible:
  /// each is executed as same-tenant chunks of at most this much modeled
  /// compute (never less than one sample), and between chunks the
  /// dispatcher admits joiners and serves pending interactive probes that
  /// cannot join (see file comment). 0 (default) makes passes
  /// non-preemptible: one chunk per contiguous tenant group, no joins, no
  /// suspensions.
  double preempt_granularity_us = 0.0;

  /// Let geometry-compatible sub-batches arriving mid-pass join the pass
  /// at the next chunk boundary until max_pass_samples is reached
  /// (continuous batching). Effective only with cobatch and
  /// preempt_granularity_us > 0.
  bool join_inflight = true;

  /// Test seam: the microsecond clock the dispatcher paces against; null =
  /// util::Stopwatch::now_us (the host monotonic clock). Lets the
  /// deterministic scheduler harness replay paced schedules in virtual
  /// time. Must be monotone; called without the device mutex only.
  std::function<std::int64_t()> now_us;

  /// Test seam: how the dispatcher sleeps while pacing; null =
  /// std::this_thread::sleep_for. A virtual-time harness advances its
  /// clock here instead of blocking.
  std::function<void(std::int64_t)> sleep_us;

  /// Test seam: called (without the device mutex) after every chunk of a
  /// preemptible pass retires. Never called when preempt_granularity_us is
  /// 0. The hook may block — the deterministic harness uses that to hold
  /// the dispatcher at a chunk boundary — but must not deadlock against
  /// device shutdown (release it before the last tenant detaches).
  std::function<void(const SharedDeviceChunkEvent&)> chunk_hook;
};

/// Per-tenant view of a shared device's accounting, one row per attached
/// engine (tenant rows are append-only; a detached tenant's row freezes).
struct SharedTenantRow {
  std::string tenant;         ///< "model@version/r<replica>"
  std::string model;          ///< model name alone
  std::uint64_t sub_batches = 0;  ///< executed sub-batches of this tenant
  std::uint64_t samples = 0;      ///< samples served for this tenant
  double busy_us = 0.0;       ///< modeled device time attributed to tenant
  double pending_us = 0.0;    ///< queued + executing modeled work right now
  std::uint64_t queued_jobs = 0;  ///< sub-batches waiting in the device
                                  ///< lanes (excludes engine-side queues)
};

/// Consistent view of one shared device (SharedDevice::snapshot()).
struct SharedDeviceSnapshot {
  std::string device;
  double speed_factor = 1.0;
  std::uint64_t passes = 0;           ///< device passes executed
  std::uint64_t cobatched_passes = 0; ///< passes mixing >= 2 models
  std::uint64_t model_switches = 0;   ///< weight reloads paid
  std::uint64_t chunks = 0;       ///< execution chunks (one per tenant
                                  ///< group when preemption is off)
  std::uint64_t preemptions = 0;  ///< passes suspended for a probe
  std::uint64_t joined_jobs = 0;  ///< sub-batches that joined in-flight
                                  ///< passes (continuous batching)
  std::uint64_t joined_passes = 0;  ///< passes at least one job joined
  double busy_us = 0.0;               ///< total modeled busy time
  double switch_us = 0.0;             ///< busy time spent reloading weights
  double wall_seconds = 0.0;          ///< observation window
  double utilization = 0.0;           ///< busy / wall, [0, 1] when paced
  std::vector<SharedTenantRow> tenants;
};

class SharedDevice : public std::enable_shared_from_this<SharedDevice> {
 public:
  /// Creates one physical PU with the given identity/provisioning and
  /// starts its dispatch thread. `spec.shared` must be empty (a shared
  /// device cannot itself be placed on another shared device) and
  /// `spec.speed_factor` must be > 0; throws std::invalid_argument
  /// otherwise. An empty name becomes "shared-pu".
  [[nodiscard]] static std::shared_ptr<SharedDevice> create(
      DeviceSpec spec = {}, SharedDeviceConfig config = {});

  /// Joins the dispatch thread. Runs only after every tenant backend (and
  /// thus every engine) released its handle, so the queue is empty.
  ~SharedDevice();

  SharedDevice(const SharedDevice&) = delete;
  SharedDevice& operator=(const SharedDevice&) = delete;

  /// Attaches one tenant engine: compiles the bit-accurate plans for
  /// `members` priced on this device's spec, registers a tenant lane, and
  /// returns the ExecutionBackend the engine submits through. Called by
  /// ReplicaSet for every replica whose placement entry carries this
  /// device's handle; `config` supplies geometry and identity
  /// (model_name/version/replica_index), `resolved` the merged DeviceSpec
  /// the backend reports (PU name + speed, tenant scheduling overrides).
  /// Throws std::invalid_argument on an empty member list.
  [[nodiscard]] std::shared_ptr<const SharedDeviceBackend> attach(
      std::vector<hw::QNetDesc> members, const DeployConfig& config,
      DeviceSpec resolved);

  /// Binds the engine-side outstanding-work provider of the tenant behind
  /// `backend` (returned by attach()). When bound, the device prices that
  /// tenant's share of the aggregate backlog as the provider's value — the
  /// engine's full committed work, queued *and* executing — instead of only
  /// the sub-batches already sitting in the device lane, so a neighbour's
  /// deep engine queue is visible to other tenants' admission control and
  /// routing. The provider is called under the device mutex from any
  /// thread; it must be lock-free on its side, and it must never be (or
  /// become) the last owner of anything whose destructor re-enters this
  /// device — a weak_ptr-locking provider must be unbound (pass nullptr)
  /// *before* the last engine reference can drop, or the provider's
  /// temporary shared_ptr could run ~InferenceEngine ->
  /// ~SharedDeviceBackend -> release_tenant under the already-held device
  /// mutex. ReplicaSet::stop() performs exactly that unbind; unbinding
  /// serializes on the device mutex against in-flight provider calls.
  void bind_tenant_load(const SharedDeviceBackend& backend,
                        std::function<double()> outstanding_us)
      EXCLUDES(mutex_);

  [[nodiscard]] const DeviceSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const SharedDeviceConfig& config() const noexcept {
    return config_;
  }

  /// Engines ever attached (detached tenants still count — their
  /// accounting rows persist).
  [[nodiscard]] std::size_t tenant_count() const EXCLUDES(mutex_);

  /// Modeled microseconds of queued + executing work across all tenants.
  [[nodiscard]] double backlog_us() const EXCLUDES(mutex_);

  /// Consistent accounting snapshot (see SharedDeviceSnapshot).
  [[nodiscard]] SharedDeviceSnapshot snapshot() const EXCLUDES(mutex_);

  /// The snapshot rendered as device + per-tenant tables, ready to print.
  [[nodiscard]] std::string stats_table(const std::string& title) const;

 private:
  friend class SharedDeviceBackend;

  struct Tenant;

  /// One engine sub-batch waiting for (or riding in) a device pass. Lives
  /// on the blocked execute() caller's stack; the device only keeps a
  /// pointer while the job is queued or executing, and never touches it
  /// again once `done` is set under the mutex.
  struct Job {
    Tenant* owner = nullptr;
    const tensor::Tensor* stacked = nullptr;  ///< borrowed from the caller
    std::size_t samples = 0;
    bool interactive = false;  ///< carried an interactive rider (ExecHints)
    double est_cost_us = 0.0;  ///< backlog contribution until retired
    BatchResult result;
    bool done = false;
    // Chunked-execution accounting (preemptible passes only): a job can
    // execute across several chunks, so its exact attribution accumulates
    // here until it retires.
    std::size_t executed = 0;   ///< samples executed so far
    double exec_us = 0.0;       ///< accumulated modeled compute
    double extra_us = 0.0;      ///< reloads + pass overhead it carried
    double extra_dma_bytes = 0.0;  ///< weight bytes for reloads it carried
  };

  /// One attached engine: its plans, switch pricing, lanes, accounting.
  /// Heap-allocated and never destroyed before the device, so Tenant*
  /// stays valid across concurrent attach() reallocation of tenants_;
  /// everything but the accounting/lane fields is immutable after attach.
  /// When the tenant's backend is destroyed (undeploy/redeploy), `sim` —
  /// the heavy part: compiled plans and profilers — is released and the
  /// row freezes; churning redeploys on a long-lived PU must not
  /// accumulate dead models' working sets.
  struct Tenant {
    std::string label;
    std::string model;
    /// Interned model tag for trace events (stable; set at attach).
    const char* trace_model = nullptr;
    std::unique_ptr<SimulatedAcceleratorBackend> sim;  ///< null once detached
    std::size_t in_c = 0, in_h = 0, in_w = 0;
    double switch_us = 0.0;  ///< weight-reload penalty for this model
    /// One FIFO lane per priority class, interactive drained first —
    /// indexed by Priority (guarded by mutex_). The interactive lane is
    /// what the dispatcher re-checks between chunks of a preemptible pass.
    std::deque<Job*> lanes[kPriorityClasses];
    /// Engine-side committed work, bound by bind_tenant_load(); when unset
    /// the device falls back to the lane's own pending_us.
    std::function<double()> load_provider;
    // Accounting (guarded by mutex_).
    std::uint64_t sub_batches = 0;
    std::uint64_t samples = 0;
    double busy_us = 0.0;
    double pending_us = 0.0;
  };

  /// One live device pass: jobs in execution order with a cursor; retired
  /// jobs fall off in front of the cursor, joiners (preemptible devices
  /// only) are inserted behind it. Owned by the dispatch thread; mutated
  /// only under mutex_ between chunks.
  struct ActivePass {
    std::vector<Job*> jobs;
    std::size_t next_job = 0;     ///< first not-fully-executed job
    std::size_t next_sample = 0;  ///< executed samples within jobs[next_job]
    std::size_t planned_samples = 0;  ///< total samples of all jobs, ever
    std::size_t done_samples = 0;
    std::size_t in_c = 0, in_h = 0, in_w = 0;  ///< pass geometry (lead's)
    std::uint64_t seq = 0;     ///< pass sequence number, 1-based
    std::uint64_t chunks = 0;  ///< chunks executed so far
    std::size_t joined = 0;    ///< jobs admitted after the pass started
    double cost_us = 0.0;
    double switch_total_us = 0.0;
    std::int64_t start_us = 0;
    bool interactive = false;  ///< formed by a preemption, for probes only
    bool overhead_paid = false;  ///< pass_overhead_us charged yet?
    /// Pacing timeline: each chunk is held until timeline_base_us plus the
    /// modeled cost of every chunk since the base (timeline_us, summed as
    /// a double and truncated once per target). `rebase` moves the base to
    /// the next chunk's start — set for the first chunk, after a suspension
    /// and after a chunk_hook call, whose wall time is not modeled time.
    std::int64_t timeline_base_us = 0;
    double timeline_us = 0.0;
    bool rebase = true;
    /// Distinct model names seen (co-batch accounting; small by
    /// construction — a pass rarely mixes more than a few models).
    std::vector<std::string> models;
  };

  /// One planned chunk of an ActivePass: a contiguous same-tenant sample
  /// range starting at the pass cursor (the tenant's whole contiguous
  /// group when preempt_granularity_us is 0), plus the reload it pays
  /// entering it. `end_*` is the cursor after the chunk (end_sample > 0 means
  /// jobs[end_job] is split mid-sub-batch).
  struct Chunk {
    Tenant* tenant = nullptr;
    std::size_t end_job = 0;
    std::size_t end_sample = 0;
    std::size_t samples = 0;
    double switch_us = 0.0;    ///< reload paid entering this chunk
    double overhead_us = 0.0;  ///< pass overhead (first chunk only)
    /// Filled by execute_chunk: modeled cost and wall start time.
    double cost_us = 0.0;
    std::int64_t start_us = 0;
  };

  SharedDevice(DeviceSpec spec, SharedDeviceConfig config);

  /// The microsecond clock / sleep the dispatcher paces with — the
  /// config's test seams when set, the host monotonic clock otherwise.
  [[nodiscard]] std::int64_t now_device_us() const;
  void sleep_device_us(std::int64_t duration_us) const;

  /// Enqueues `job` into its tenant's lane for `job.interactive` and
  /// blocks until it retires (the execute() implementation of
  /// SharedDeviceBackend).
  void submit_and_wait(Job& job) EXCLUDES(mutex_);

  /// Called by ~SharedDeviceBackend: frees the tenant's plans and load
  /// provider (its engine has drained, so the lanes are empty) while
  /// keeping the accounting row readable in snapshots.
  void release_tenant(Tenant* tenant) EXCLUDES(mutex_);

  /// Aggregate pending work minus `tenant`'s own contribution.
  [[nodiscard]] double backlog_excluding_us(const Tenant* tenant) const
      EXCLUDES(mutex_);

  /// The dispatch thread's loop: {wait for work, start pass} under mutex_,
  /// then run_pass_chunked, whose plan/execute/retire cycle runs per
  /// *chunk* — {plan} under mutex_, execute/pace unlocked, {retire} under
  /// mutex_. Every locked phase is a REQUIRES-annotated helper, so the
  /// whole loop stays inside the static analysis (no opt-out).
  void dispatch_main() EXCLUDES(mutex_);

  /// Samples currently queued across all active tenant lanes.
  [[nodiscard]] std::size_t pending_samples_locked() const REQUIRES(mutex_);

  /// Any interactive sub-batch queued on an active tenant?
  [[nodiscard]] bool interactive_pending_locked() const REQUIRES(mutex_);

  /// Blocks until work is pending (or stop), then holds pass formation for
  /// the coalesce window so just-woken engine workers can refill the lanes
  /// (see SharedDeviceConfig::coalesce_window_us). On preemptible devices
  /// a pending interactive sub-batch cuts the window short.
  void wait_for_work_locked() REQUIRES(mutex_);

  /// Pops the next pass from the tenant lanes: strict round-robin one
  /// sub-batch per pass when cobatch is off; otherwise round-robin across
  /// geometry-compatible tenants up to max_pass_samples. Returned grouped
  /// by tenant, so weight reloads are paid at most once per model per
  /// pass, in execution order: interactive sub-batches first, then the
  /// resident tenant's (its weights need no reload), then the rest in
  /// attach order (position in active_). With `interactive_only` only
  /// interactive lanes are drawn from (preemption passes serve probes
  /// exclusively).
  [[nodiscard]] std::vector<Job*> next_pass_locked(bool interactive_only)
      REQUIRES(mutex_);

  // ---- Pass execution: the chunk loop ----

  /// Plans a new pass: pops jobs (next_pass_locked), fixes the
  /// pass geometry to the lead tenant's, assigns the sequence number.
  /// Returns an empty-jobs pass when no (matching) work is pending.
  [[nodiscard]] ActivePass start_pass_locked(bool interactive_only)
      REQUIRES(mutex_);

  /// Admits pending geometry-compatible sub-batches into the in-flight
  /// pass up to max_pass_samples (continuous batching; preemptible devices
  /// only): batch joiners are
  /// inserted next to their tenant's unexecuted jobs (grouping minimizes
  /// reloads) or appended; interactive joiners are inserted at the
  /// earliest unexecuted position so they ride the very next chunks.
  void admit_joiners_locked(ActivePass& pass) REQUIRES(mutex_);

  /// Plans the next chunk: a same-tenant sample range from the pass cursor
  /// whose modeled compute is at most preempt_granularity_us (at least one
  /// sample; unbounded at granularity 0), the reload iff the tenant is not
  /// resident (updates resident_), and the pass overhead on the first
  /// chunk.
  [[nodiscard]] Chunk plan_chunk_locked(ActivePass& pass) REQUIRES(mutex_);

  /// Executes a planned chunk through the tenant's bit-accurate executors
  /// (slicing sub-batches on sample boundaries when the chunk splits one),
  /// records the chunk trace span, and (when paced) holds it until its
  /// modeled completion on the pass's timeline. Touches no lane/accounting
  /// state — runs unlocked.
  void execute_chunk(ActivePass& pass, Chunk& chunk, hw::ExecScratch& scratch,
                     bool& thread_labeled) EXCLUDES(mutex_);

  /// Retires an executed chunk: advances the pass cursor, bumps device and
  /// chunk counters, attributes the chunk's reload/overhead to its lead
  /// job, and retires every job the cursor passed (exact accounting —
  /// see retire_job_locked).
  void retire_chunk_locked(ActivePass& pass, Chunk& chunk) REQUIRES(mutex_);

  /// Marks one fully-executed job done and attributes its exact cost:
  /// its own accumulated compute plus the reloads/overhead it carried, so
  /// per-tenant busy sums to device busy across preemption boundaries.
  void retire_job_locked(Job& job) REQUIRES(mutex_);

  /// Bumps pass-level counters once a pass fully retires and
  /// records its pu_pass span / cobatched_pass instant.
  void finish_pass_locked(ActivePass& pass) REQUIRES(mutex_);

  /// True when an interactive sub-batch is pending that could not join
  /// `pass` at the next chunk boundary (geometry mismatch, pass at
  /// capacity, or joining disabled) — the suspend-this-pass trigger.
  [[nodiscard]] bool should_preempt_locked(const ActivePass& pass) const
      REQUIRES(mutex_);

  /// Runs one pass to completion: per chunk, {admit joiners, plan chunk}
  /// under mutex_, execute unlocked, {retire} under mutex_; between chunks
  /// of a preemptible pass, suspends for interactive-only passes when
  /// should_preempt_locked fires. `depth` bounds the suspension nesting:
  /// interactive passes (depth 1) never suspend. At granularity 0 there
  /// are no joins, suspensions or hook calls — every contiguous tenant
  /// group is one chunk, retired at its own modeled end.
  void run_pass_chunked(ActivePass pass, hw::ExecScratch& scratch,
                        bool& thread_labeled, int depth) EXCLUDES(mutex_);

  DeviceSpec spec_;
  SharedDeviceConfig config_;

  mutable util::Mutex mutex_;
  util::CondVar work_ready_;    ///< dispatcher waits for jobs
  util::CondVar pass_retired_;  ///< execute() callers wait for done
  std::vector<std::unique_ptr<Tenant>> tenants_ GUARDED_BY(mutex_);
  /// Attached-and-not-released tenants — what the dispatcher and the
  /// backlog/admission paths iterate. Released tenants stay in tenants_
  /// (their rows and Tenant* stability outlive them) but leave this list,
  /// so redeploy churn cannot grow the per-submit scan without bound.
  std::vector<Tenant*> active_ GUARDED_BY(mutex_);
  /// Round-robin cursor over active_.
  std::size_t next_tenant_ GUARDED_BY(mutex_) = 0;
  /// Tenant whose weights are resident in the PU's weight buffer; null
  /// before the first pass. Tenants share residency only with themselves —
  /// conservative for two replicas of one model, and a redeployed version
  /// legitimately reloads.
  const Tenant* resident_ GUARDED_BY(mutex_) = nullptr;
  bool stop_ GUARDED_BY(mutex_) = false;

  // Accounting.
  std::uint64_t passes_ GUARDED_BY(mutex_) = 0;
  std::uint64_t cobatched_passes_ GUARDED_BY(mutex_) = 0;
  std::uint64_t model_switches_ GUARDED_BY(mutex_) = 0;
  std::uint64_t chunks_ GUARDED_BY(mutex_) = 0;
  std::uint64_t preemptions_ GUARDED_BY(mutex_) = 0;
  std::uint64_t joined_jobs_ GUARDED_BY(mutex_) = 0;
  std::uint64_t joined_passes_ GUARDED_BY(mutex_) = 0;
  std::uint64_t pass_seq_ GUARDED_BY(mutex_) = 0;
  double busy_us_ GUARDED_BY(mutex_) = 0.0;
  double switch_busy_us_ GUARDED_BY(mutex_) = 0.0;
  /// Started at construction, only ever read — needs no guard.
  util::Stopwatch window_;

  std::thread dispatcher_;
};

/// The per-tenant ExecutionBackend facade a SharedDevice hands each engine:
/// execute() forwards the prepared batch into the device queue and blocks
/// until the dispatch thread retires its sub-batch (paced to the modeled
/// device when SharedDeviceConfig.paced). Cost accessors report the
/// tenant's own per-sample cost on the shared PU; cross_tenant_backlog_us()
/// reports the other tenants' queued work so engine admission and
/// ReplicaSet routing price the device's aggregate load.
///
/// Thread-safety: as ExecutionBackend requires — all methods safe from any
/// number of engine worker / submit threads. Lifetime: holds the
/// SharedDevice alive; destroyed only after its engine drained, so no
/// execute() can be in flight.
class SharedDeviceBackend final : public ExecutionBackend {
 public:
  SharedDeviceBackend(std::shared_ptr<SharedDevice> device,
                      SharedDevice::Tenant* tenant, DeviceSpec resolved);

  /// Releases the tenant's device-side executors (see
  /// SharedDevice::release_tenant). Runs only after the owning engine
  /// drained, so no execute() is in flight and the lanes are empty.
  ~SharedDeviceBackend() override;

  SharedDeviceBackend(const SharedDeviceBackend&) = delete;
  SharedDeviceBackend& operator=(const SharedDeviceBackend&) = delete;

  [[nodiscard]] BatchResult execute(const tensor::Tensor& stacked,
                                    hw::ExecScratch& scratch) const override;
  /// The hinted overload the engine calls: `hints.interactive` routes the
  /// sub-batch into the tenant's interactive lane, which preemptible
  /// passes re-check between chunks.
  [[nodiscard]] BatchResult execute(const tensor::Tensor& stacked,
                                    hw::ExecScratch& scratch,
                                    const ExecHints& hints) const override;
  [[nodiscard]] const DeviceSpec& device() const noexcept override {
    return resolved_;
  }
  [[nodiscard]] double sample_us() const noexcept override;
  [[nodiscard]] double batch_us(std::size_t batch_size) const override;
  [[nodiscard]] double batch_dma_bytes(std::size_t batch_size) const override;
  [[nodiscard]] std::size_t member_count() const noexcept override;
  [[nodiscard]] bool paces_execution() const noexcept override {
    return device_->config().paced;
  }
  [[nodiscard]] double cross_tenant_backlog_us() const noexcept override;
  /// This tenant's weight-reload penalty on the shared PU, microseconds
  /// (priced once at attach; the blocking term the deploy-time capacity
  /// analyzer and ReplicaSet::capacity_facts() build bounds from).
  [[nodiscard]] double switch_us() const noexcept {
    return tenant_->switch_us;
  }
  /// Forwards to SharedDevice::bind_tenant_load for this tenant.
  void bind_load_provider(
      std::function<double()> outstanding_us) const override;
  /// This tenant's member profiles on the shared PU (empty after the
  /// tenant's executors were released — i.e. never while the owning engine
  /// is alive).
  [[nodiscard]] std::vector<hw::LayerProfile> layer_profiles() const override;

  [[nodiscard]] const std::shared_ptr<SharedDevice>& shared_device()
      const noexcept {
    return device_;
  }

 private:
  friend class SharedDevice;  // bind_tenant_load resolves tenant_

  std::shared_ptr<SharedDevice> device_;
  /// Stable pointer into device_->tenants_ (Tenants live as long as the
  /// device; immutable fields are read lock-free by the cost accessors).
  SharedDevice::Tenant* tenant_;
  DeviceSpec resolved_;
};

}  // namespace mfdfp::serve
