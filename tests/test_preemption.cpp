// Preemptible shared-PU passes + continuous batching
// (SharedDeviceConfig::preempt_granularity_us), driven through the
// deterministic scheduler harness (tests/serve_test_util.hpp): the chunk
// loop splits passes without changing a single logit, late-arriving
// compatible work joins in-flight passes, geometry-mismatched interactive
// probes suspend a pass between chunks, the final-chunk race neither
// deadlocks nor double-dispatches, RequestQueue edges (capacity-1 queue,
// interactive reserve floor) compose with preemption, and a seeded fuzz
// over randomized arrival schedules proves conservation: no sample lost,
// duplicated, or mis-attributed — per-tenant busy_us sums exactly to the
// device's across preemption boundaries. The whole file must run clean
// under ThreadSanitizer and ASan+UBSan (see ci.yml).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hpp"
#include "serve/shared_device.hpp"
#include "serve_test_util.hpp"

namespace mfdfp::serve {
namespace {

using tensor::Tensor;
using testing::ChunkGate;
using testing::make_preempt_qnet;
using testing::preempt_image;
using testing::VirtualClock;

DeployConfig tenant_config(std::shared_ptr<SharedDevice> pu,
                           std::size_t hw_dim = 16) {
  DeployConfig config;
  config.in_c = 3;
  config.in_h = config.in_w = hw_dim;
  config.max_batch = 4;
  config.max_wait_us = 0;  // form sub-batches immediately: deterministic
  config.workers = 2;
  config.placement = {DeviceSpec::on(std::move(pu))};
  return config;
}

SubmitOptions batch_options() {
  SubmitOptions options;
  options.priority = Priority::kBatch;
  return options;
}

/// Per-tenant row sums out of a snapshot, keyed by model name.
std::map<std::string, std::uint64_t> samples_by_model(
    const SharedDeviceSnapshot& snapshot) {
  std::map<std::string, std::uint64_t> by_model;
  for (const SharedTenantRow& row : snapshot.tenants) {
    by_model[row.model] += row.samples;
  }
  return by_model;
}

// ---- granularity 0: monolithic passes, one chunk per tenant group ----------

TEST(Preemption, LegacyMonolithicPathUnchanged) {
  const hw::QNetDesc qnet = make_preempt_qnet(910);
  SharedDeviceConfig pu_config;
  pu_config.paced = false;
  ASSERT_DOUBLE_EQ(pu_config.preempt_granularity_us, 0.0) << "default off";
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  server.deploy("a", {qnet}, tenant_config(pu));
  util::Rng rng{911};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(server.submit("a", preempt_image(rng)));
  }
  for (auto& f : futures) ASSERT_TRUE(ok(f.get().status));
  server.shutdown();

  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_EQ(snapshot.chunks, snapshot.passes)
      << "a one-tenant monolithic pass is exactly one chunk";
  EXPECT_EQ(snapshot.preemptions, 0u);
  EXPECT_EQ(snapshot.joined_jobs, 0u);
  EXPECT_EQ(snapshot.joined_passes, 0u);

  // Two tenants: a pass runs one chunk per tenant group, and still never
  // joins, suspends or calls the chunk hook.
  const hw::QNetDesc qnet_b = make_preempt_qnet(912);
  std::atomic<int> hook_calls{0};
  SharedDeviceConfig two_config;
  two_config.paced = false;
  two_config.chunk_hook = [&hook_calls](const SharedDeviceChunkEvent&) {
    hook_calls.fetch_add(1, std::memory_order_relaxed);
  };
  auto two_pu = SharedDevice::create({}, two_config);
  ModelServer two;
  two.deploy("a", {qnet}, tenant_config(two_pu));
  two.deploy("b", {qnet_b}, tenant_config(two_pu));
  futures.clear();
  for (int i = 0; i < 16; ++i) {
    futures.push_back(two.submit("a", preempt_image(rng)));
    futures.push_back(two.submit("b", preempt_image(rng)));
  }
  for (auto& f : futures) ASSERT_TRUE(ok(f.get().status));
  two.shutdown();

  const SharedDeviceSnapshot two_snapshot = two_pu->snapshot();
  // Every request has one priority, so a pass holds one group per model:
  // two groups when co-batched, one otherwise.
  EXPECT_EQ(two_snapshot.chunks,
            two_snapshot.passes + two_snapshot.cobatched_passes);
  EXPECT_EQ(two_snapshot.preemptions, 0u);
  EXPECT_EQ(two_snapshot.joined_jobs, 0u);
  EXPECT_EQ(two_snapshot.joined_passes, 0u);
  EXPECT_EQ(hook_calls.load(), 0);
}

// ---- chunking preserves logits bit-for-bit ----------------------------------

TEST(Preemption, ChunkLoopSplitsPassesAndPreservesLogits) {
  const hw::QNetDesc qnet_a = make_preempt_qnet(920);
  const hw::QNetDesc qnet_b = make_preempt_qnet(921);
  const hw::AcceleratorExecutor ref_a(qnet_a);
  const hw::AcceleratorExecutor ref_b(qnet_b);

  SharedDeviceConfig pu_config;
  pu_config.paced = false;
  // Granularity below one sample's modeled cost: every chunk is exactly
  // one sample — the maximum number of chunk boundaries (and sub-batch
  // splits) the scheduler can produce.
  pu_config.preempt_granularity_us = 0.4;
  // Park the dispatcher at its first chunk boundary until every request
  // below is queued: later pass formation always sees a deep backlog, so
  // multi-sample sub-batches — and the chunk splits this test asserts on —
  // happen regardless of how fast this machine drains single samples.
  ChunkGate gate;
  gate.bind(pu_config);
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  server.deploy("a", {qnet_a}, tenant_config(pu));
  server.deploy("b", {qnet_b}, tenant_config(pu));

  util::Rng rng{922};
  std::vector<Tensor> images;
  for (int i = 0; i < 24; ++i) images.push_back(preempt_image(rng));
  std::vector<std::future<Response>> futures_a, futures_b;
  for (const Tensor& image : images) {
    futures_a.push_back(server.submit("a", image));
    futures_b.push_back(server.submit("b", image));
  }
  ASSERT_TRUE(gate.next_for(std::chrono::seconds(20)).has_value())
      << "dispatcher never reached a chunk boundary";
  gate.open();
  for (std::size_t i = 0; i < images.size(); ++i) {
    const Response ra = futures_a[i].get();
    const Response rb = futures_b[i].get();
    ASSERT_TRUE(ok(ra.status)) << ra.detail;
    ASSERT_TRUE(ok(rb.status)) << rb.detail;
    // Chunk boundaries slice sub-batches mid-tensor; the logits must be
    // bit-identical to an unchunked execution anyway.
    EXPECT_EQ(tensor::max_abs_diff(ra.logits, ref_a.run(images[i])), 0.0f);
    EXPECT_EQ(tensor::max_abs_diff(rb.logits, ref_b.run(images[i])), 0.0f);
  }
  server.shutdown();

  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_GT(snapshot.chunks, snapshot.passes)
      << "per-sample granularity must split multi-sample passes";
  EXPECT_EQ(samples_by_model(snapshot)["a"], 24u);
  EXPECT_EQ(samples_by_model(snapshot)["b"], 24u);
}

// ---- virtual-time pacing replays deterministically --------------------------

TEST(Preemption, PacedScheduleReplaysOnVirtualClock) {
  const hw::QNetDesc qnet = make_preempt_qnet(930);
  const auto run_once = [&qnet]() {
    VirtualClock clock;
    SharedDeviceConfig pu_config;
    pu_config.paced = true;  // pacing sleeps advance the virtual clock
    pu_config.preempt_granularity_us = 1.0;
    // The tiny test net's modeled compute is sub-microsecond per chunk and
    // pacing sleeps truncate to whole microseconds, so give the reload a
    // cost the virtual clock can observe.
    pu_config.model_switch_us = 25.0;
    clock.bind(pu_config);
    auto pu = SharedDevice::create({}, pu_config);

    ModelServer server;
    DeployConfig config = tenant_config(pu);
    config.workers = 1;  // sequential sub-batches: one deterministic order
    server.deploy("a", {qnet}, config);
    util::Rng rng{931};
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(ok(server.submit("a", preempt_image(rng)).get().status));
    }
    server.shutdown();
    const SharedDeviceSnapshot snapshot = pu->snapshot();
    EXPECT_GT(clock.now(), 0) << "pacing must consume virtual time";
    return std::make_pair(snapshot.busy_us, snapshot.chunks);
  };

  const auto first = run_once();
  const auto second = run_once();
  // Same seed, same virtual clock: the modeled schedule replays exactly —
  // no wall-clock jitter can leak into the accounting.
  EXPECT_DOUBLE_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

// ---- continuous batching: a probe joins the in-flight pass ------------------

TEST(Preemption, ProbeJoinsInFlightPass) {
  const hw::QNetDesc qnet_a = make_preempt_qnet(940);
  const hw::QNetDesc qnet_b = make_preempt_qnet(941);
  const hw::AcceleratorExecutor ref_b(qnet_b);

  ChunkGate gate;
  SharedDeviceConfig pu_config;
  pu_config.paced = false;
  pu_config.preempt_granularity_us = 1.0;  // a boundary every <= 4 samples
  pu_config.max_pass_samples = 64;  // room for joiners
  gate.bind(pu_config);
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  server.deploy("a", {qnet_a}, tenant_config(pu));
  server.deploy("b", {qnet_b}, tenant_config(pu));  // same geometry: joinable

  // How many samples a pass holds depends on what a's two engine workers
  // find queued (max_wait_us = 0), so a slow or contended host could
  // drain the flood one short pass at a time and never park mid-pass.
  // Instead, every pass boundary is held until both workers have a
  // sub-batch in the device lane (the parked dispatcher drains nothing).
  const auto both_workers_queued = [&pu]() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    for (;;) {
      if (testing::queued_jobs(*pu, "a") >= 2) return true;
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  // A one-sample warm-up pass parks at its only chunk boundary while the
  // flood queues up behind it, so the next pass carries both workers'
  // sub-batches. Once the backlog is deep each worker takes a full
  // max_batch of 4, so from the pass after that on every pass spans more
  // than one chunk (a chunk here holds at most 4 samples of this net).
  util::Rng rng{942};
  std::future<Response> warm_up =
      server.submit("a", preempt_image(rng), batch_options());
  ASSERT_TRUE(gate.next_for(std::chrono::seconds(20)).has_value())
      << "warm-up pass never reached a chunk boundary";

  // Flood the batch lane of `a`; its workers keep resubmitting as jobs
  // retire mid-pass, so the pass stays in flight while we inject.
  std::vector<std::future<Response>> flood;
  for (int i = 0; i < 40; ++i) {
    flood.push_back(server.submit("a", preempt_image(rng), batch_options()));
  }
  ASSERT_TRUE(both_workers_queued()) << "flood never reached the device lane";
  gate.release();
  ASSERT_TRUE(ok(warm_up.get().status));

  // Walk chunk boundaries until the dispatcher is parked MID-pass (samples
  // of the flood pass still remaining). The dispatcher is frozen in the
  // hook, so we can inject the probe and wait until b's engine worker has
  // it queued in the device lane (visible as pending work in the
  // snapshot). Releasing then forces the next chunk plan to see the queued
  // joiner while its pass is still in flight.
  std::uint64_t target_pass = 0;
  bool parked_mid_pass = false;
  for (int boundary = 0; boundary < 400; ++boundary) {
    const auto event = gate.next_for(std::chrono::seconds(20));
    ASSERT_TRUE(event.has_value()) << "flood drained before a mid-pass park";
    ASSERT_EQ(event->model, "a");
    if (event->remaining_samples > 0) {
      target_pass = event->pass;
      parked_mid_pass = true;
      break;
    }
    ASSERT_TRUE(both_workers_queued())
        << "flood drained before a mid-pass park";
    gate.release();
  }
  ASSERT_TRUE(parked_mid_pass);

  const Tensor probe_image = preempt_image(rng);
  std::future<Response> probe = server.submit("b", probe_image);
  const auto lane_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    const SharedDeviceSnapshot mid = pu->snapshot();
    bool queued = false;
    for (const SharedTenantRow& row : mid.tenants) {
      if (row.model == "b" && row.queued_jobs > 0) queued = true;
    }
    if (queued) break;
    ASSERT_LT(std::chrono::steady_clock::now(), lane_deadline)
        << "probe never reached the device lane";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The probe joined iff its model executes inside the SAME pass (same
  // sequence number), not an interactive preemption pass of its own.
  bool joined_in_flight = false;
  gate.release();
  for (int boundary = 0; boundary < 400 && !joined_in_flight; ++boundary) {
    const auto event = gate.next_for(std::chrono::seconds(20));
    ASSERT_TRUE(event.has_value()) << "device drained before the probe joined";
    if (event->pass == target_pass && event->model == "b" &&
        !event->interactive_pass) {
      joined_in_flight = true;
    }
    gate.release();
  }
  gate.open();

  const Response response = probe.get();
  ASSERT_TRUE(ok(response.status)) << response.detail;
  EXPECT_EQ(tensor::max_abs_diff(response.logits, ref_b.run(probe_image)),
            0.0f)
      << "joining a pass must not change the probe's logits";
  EXPECT_TRUE(joined_in_flight)
      << "the compatible probe must ride the in-flight pass, not wait for "
         "the next one";
  for (auto& f : flood) ASSERT_TRUE(ok(f.get().status));
  server.shutdown();

  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_GE(snapshot.joined_jobs, 1u);
  EXPECT_GE(snapshot.joined_passes, 1u);
}

// ---- preemption: a mismatched probe suspends the pass -----------------------

TEST(Preemption, MismatchedProbeSuspendsPassBetweenChunks) {
  const hw::QNetDesc qnet_a = make_preempt_qnet(950);          // 16x16
  const hw::QNetDesc qnet_b = make_preempt_qnet(951, 8);       // 8x8: no join
  const hw::AcceleratorExecutor ref_b(qnet_b);

  ChunkGate gate;
  SharedDeviceConfig pu_config;
  pu_config.paced = false;
  // Below one sample's modeled cost: every chunk is a single sample, so a
  // 4-sample job alone gives several boundaries to suspend at.
  pu_config.preempt_granularity_us = 0.4;
  pu_config.max_pass_samples = 64;
  gate.bind(pu_config);
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  server.deploy("a", {qnet_a}, tenant_config(pu));
  server.deploy("b", {qnet_b}, tenant_config(pu, 8));

  util::Rng rng{952};
  std::vector<std::future<Response>> flood;
  for (int i = 0; i < 40; ++i) {
    flood.push_back(server.submit("a", preempt_image(rng), batch_options()));
  }

  // Park the dispatcher mid-pass (flood samples still remaining), inject
  // the geometry-incompatible probe, and wait — dispatcher frozen — until
  // b's engine worker has it queued in the device lane. Releasing then
  // forces the suspend decision at the very next boundary: the probe
  // cannot join, so the pass must preempt and run it as its own
  // interactive pass.
  bool parked_mid_pass = false;
  for (int boundary = 0; boundary < 400; ++boundary) {
    const auto event = gate.next_for(std::chrono::seconds(20));
    ASSERT_TRUE(event.has_value()) << "flood drained before a mid-pass park";
    EXPECT_FALSE(event->interactive_pass);
    if (event->remaining_samples > 1) {
      parked_mid_pass = true;
      break;
    }
    gate.release();
  }
  ASSERT_TRUE(parked_mid_pass);

  const Tensor probe_image = preempt_image(rng, 8);
  std::future<Response> probe = server.submit("b", probe_image);
  const auto lane_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    const SharedDeviceSnapshot mid = pu->snapshot();
    bool queued = false;
    for (const SharedTenantRow& row : mid.tenants) {
      if (row.model == "b" && row.queued_jobs > 0) queued = true;
    }
    if (queued) break;
    ASSERT_LT(std::chrono::steady_clock::now(), lane_deadline)
        << "probe never reached the device lane";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  bool saw_preempt = false;
  bool probe_ran_as_interactive_pass = false;
  gate.release();
  for (int boundary = 0; boundary < 400; ++boundary) {
    const auto event = gate.next_for(std::chrono::seconds(20));
    ASSERT_TRUE(event.has_value()) << "device drained before the preemption";
    if (event->preempting) {
      saw_preempt = true;
      EXPECT_GT(event->remaining_samples, 0u)
          << "a preempting pass suspends with work left, by definition";
    }
    if (event->interactive_pass) {
      EXPECT_EQ(event->model, "b");
      probe_ran_as_interactive_pass = true;
    }
    if (probe_ran_as_interactive_pass &&
        probe.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
      break;
    }
    gate.release();
  }
  gate.open();

  const Response response = probe.get();
  ASSERT_TRUE(ok(response.status)) << response.detail;
  EXPECT_EQ(tensor::max_abs_diff(response.logits, ref_b.run(probe_image)),
            0.0f);
  EXPECT_TRUE(saw_preempt);
  EXPECT_TRUE(probe_ran_as_interactive_pass)
      << "a geometry-mismatched probe must get its own pass mid-flood";
  for (auto& f : flood) ASSERT_TRUE(ok(f.get().status));
  server.shutdown();

  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_GE(snapshot.preemptions, 1u);
  // The suspended pass resumed and finished: nothing lost or duplicated.
  EXPECT_EQ(samples_by_model(snapshot)["a"], 40u);
  EXPECT_EQ(samples_by_model(snapshot)["b"], 1u);
}

// ---- the final-chunk race ---------------------------------------------------

TEST(Preemption, ProbeDuringFinalChunkNoDeadlockNoDoubleDispatch) {
  const hw::QNetDesc qnet = make_preempt_qnet(960);
  const hw::AcceleratorExecutor ref(qnet);

  ChunkGate gate;
  SharedDeviceConfig pu_config;
  pu_config.paced = false;
  pu_config.preempt_granularity_us = 1.0;
  gate.bind(pu_config);
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  DeployConfig config = tenant_config(pu);
  config.workers = 1;  // exactly one 4-sample sub-batch -> one 4-chunk pass
  server.deploy("a", {qnet}, config);

  util::Rng rng{961};
  std::vector<std::future<Response>> flood;
  for (int i = 0; i < 4; ++i) {
    flood.push_back(server.submit("a", preempt_image(rng), batch_options()));
  }

  // Walk to the FINAL chunk boundary of the pass (remaining 0): the
  // dispatcher is parked in the hook after the pass fully retired. A probe
  // arriving exactly now must be picked up by the next pass — not lost
  // (deadlock) and not dispatched into the dead pass (double-dispatch).
  auto event = gate.next_for(std::chrono::seconds(20));
  ASSERT_TRUE(event.has_value());
  while (event->remaining_samples > 0) {
    gate.release();
    event = gate.next_for(std::chrono::seconds(20));
    ASSERT_TRUE(event.has_value());
  }
  const Tensor probe_image = preempt_image(rng);
  std::future<Response> probe = server.submit("a", probe_image);
  gate.open();

  ASSERT_EQ(probe.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "probe arriving during the final chunk must not deadlock dispatch";
  const Response response = probe.get();
  ASSERT_TRUE(ok(response.status)) << response.detail;
  EXPECT_EQ(tensor::max_abs_diff(response.logits, ref.run(probe_image)), 0.0f);
  for (auto& f : flood) ASSERT_TRUE(ok(f.get().status));
  server.shutdown();

  // Exactly 5 samples served once each — a double-dispatch would inflate
  // the device-side totals even where futures look fine.
  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_EQ(samples_by_model(snapshot)["a"], 5u);
}

// ---- RequestQueue edges x preemption ----------------------------------------

TEST(Preemption, CapacityOneQueueComposesWithPreemption) {
  const hw::QNetDesc qnet = make_preempt_qnet(970);
  SharedDeviceConfig pu_config;
  pu_config.paced = false;
  pu_config.preempt_granularity_us = 1.0;
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  DeployConfig config = tenant_config(pu);
  config.workers = 1;
  config.max_batch = 1;
  config.queue_capacity = 1;  // the smallest legal queue: no reserve below 2
  server.deploy("a", {qnet}, config);

  // Hammer the 1-slot queue from two threads with mixed priorities: every
  // submission must resolve (served or cleanly rejected) — no deadlock, no
  // lost future — and the served count must match the device-side samples.
  std::vector<std::future<Response>> futures(40);
  std::thread interactive_thread([&] {
    util::Rng rng{971};
    for (int i = 0; i < 20; ++i) {
      futures[static_cast<std::size_t>(i)] =
          server.submit("a", preempt_image(rng));
    }
  });
  std::thread batch_thread([&] {
    util::Rng rng{972};
    for (int i = 20; i < 40; ++i) {
      futures[static_cast<std::size_t>(i)] =
          server.submit("a", preempt_image(rng), batch_options());
    }
  });
  interactive_thread.join();
  batch_thread.join();

  std::size_t served = 0;
  for (auto& f : futures) {
    const Response r = f.get();
    if (ok(r.status)) {
      ++served;
    } else {
      EXPECT_TRUE(r.status == StatusCode::kQueueFull ||
                  r.status == StatusCode::kShedded)
          << "unexpected failure: " << r.detail;
    }
  }
  EXPECT_GE(served, 1u);
  server.shutdown();
  EXPECT_EQ(samples_by_model(pu->snapshot())["a"], served)
      << "served responses and device-side samples must agree exactly";
}

TEST(Preemption, InteractiveReserveFloorHoldsUnderBatchFlood) {
  const hw::QNetDesc qnet = make_preempt_qnet(980);
  SharedDeviceConfig pu_config;
  pu_config.paced = false;
  pu_config.preempt_granularity_us = 1.0;
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  DeployConfig config = tenant_config(pu);
  config.workers = 1;
  config.max_batch = 1;
  // Capacity 2 rounds capacity/8 to 0; the reserve floor must still hold
  // one slot only kInteractive may occupy, so a batch flood can never
  // occupy the whole queue.
  config.queue_capacity = 2;
  server.deploy("a", {qnet}, config);

  util::Rng rng{981};
  std::vector<std::future<Response>> batch_futures;
  for (int i = 0; i < 30; ++i) {
    batch_futures.push_back(
        server.submit("a", preempt_image(rng), batch_options()));
  }
  std::size_t interactive_served = 0;
  for (int i = 0; i < 10; ++i) {
    const Response r = server.submit("a", preempt_image(rng)).get();
    if (ok(r.status)) ++interactive_served;
  }
  // The reserved slot guarantees probes keep landing mid-flood.
  EXPECT_GE(interactive_served, 1u);
  for (auto& f : batch_futures) (void)f.get();
  server.shutdown();
}

// ---- seeded fuzz over randomized arrival schedules --------------------------

// Conservation properties across ~600 requests per seed, three tenants
// (two joinable geometries plus one mismatched), random priorities and
// random inter-arrival jitter from three submitter threads:
//   1. every response is served with logits bit-identical to its model's
//      reference executor (nothing lost, duplicated, or cross-wired);
//   2. device-side per-tenant sample counts equal the submitted counts;
//   3. per-tenant busy_us sums to the device's busy_us exactly (modulo
//      float summation order) across every preemption/join boundary;
//   4. chunked scheduling really ran (chunks >= passes).
TEST(Preemption, FuzzSeededSchedulesConserveSamplesAndAttribution) {
  for (const std::uint64_t seed : {3101ull, 3202ull, 3303ull}) {
    const hw::QNetDesc qnet_a = make_preempt_qnet(seed);
    const hw::QNetDesc qnet_b = make_preempt_qnet(seed + 7);
    const hw::QNetDesc qnet_c = make_preempt_qnet(seed + 13, 8);
    const hw::AcceleratorExecutor ref_a(qnet_a);
    const hw::AcceleratorExecutor ref_b(qnet_b);
    const hw::AcceleratorExecutor ref_c(qnet_c);

    SharedDeviceConfig pu_config;
    pu_config.paced = false;
    pu_config.preempt_granularity_us = 1.0;
    auto pu = SharedDevice::create({}, pu_config);

    ModelServer server;
    server.deploy("a", {qnet_a}, tenant_config(pu));
    server.deploy("b", {qnet_b}, tenant_config(pu));
    server.deploy("c", {qnet_c}, tenant_config(pu, 8));

    constexpr int kPerThread = 200;
    struct Submitted {
      std::string model;
      Tensor image;
      std::future<Response> future;
    };
    std::vector<std::vector<Submitted>> per_thread(3);
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < 3; ++t) {
      submitters.emplace_back([&, t] {
        util::Rng rng{seed * 97 + t};
        auto& out = per_thread[t];
        out.reserve(kPerThread);
        for (int i = 0; i < kPerThread; ++i) {
          const std::uint64_t pick = rng.next_u64() % 3;
          const std::string model = pick == 0 ? "a" : pick == 1 ? "b" : "c";
          const std::size_t dim = model == "c" ? 8 : 16;
          SubmitOptions options;
          options.priority = (rng.next_u64() % 4 == 0) ? Priority::kInteractive
                                                   : Priority::kBatch;
          Submitted s;
          s.model = model;
          s.image = preempt_image(rng, dim);
          s.future = server.submit(model, s.image, options);
          out.push_back(std::move(s));
          if (rng.next_u64() % 8 == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }
      });
    }
    for (auto& t : submitters) t.join();

    std::map<std::string, std::uint64_t> submitted;
    for (auto& thread_batch : per_thread) {
      for (Submitted& s : thread_batch) {
        const Response r = s.future.get();
        ASSERT_TRUE(ok(r.status)) << s.model << ": " << r.detail;
        const hw::AcceleratorExecutor& ref =
            s.model == "a" ? ref_a : s.model == "b" ? ref_b : ref_c;
        ASSERT_EQ(tensor::max_abs_diff(r.logits, ref.run(s.image)), 0.0f)
            << "seed " << seed << " model " << s.model;
        ++submitted[s.model];
      }
    }
    server.shutdown();

    const SharedDeviceSnapshot snapshot = pu->snapshot();
    const auto served = samples_by_model(snapshot);
    for (const auto& [model, count] : submitted) {
      EXPECT_EQ(served.at(model), count)
          << "seed " << seed << ": lost/duplicated samples for " << model;
    }
    double tenant_busy_sum = 0.0;
    for (const SharedTenantRow& row : snapshot.tenants) {
      tenant_busy_sum += row.busy_us;
    }
    EXPECT_NEAR(tenant_busy_sum, snapshot.busy_us,
                1e-6 * std::max(1.0, snapshot.busy_us))
        << "seed " << seed
        << ": attribution must stay exact across preemption boundaries";
    EXPECT_GE(snapshot.chunks, snapshot.passes);
    EXPECT_GT(snapshot.chunks, 0u);
  }
}

}  // namespace
}  // namespace mfdfp::serve
