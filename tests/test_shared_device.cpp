// Shared-device backend: one physical PU (SharedDevice) serving several
// models through per-tenant SharedDeviceBackends — creation/validation,
// cross-model co-batching with bit-identical logits, resident-first pass
// order (one weight reload per co-batched pass), pass formation (one
// sub-batch per tenant per coalescing sweep), per-group retirement at each
// tenant group's modeled end, timeline pacing, geometry-mismatch
// serialization, the time-sliced baseline, aggregate-backlog admission and
// routing, merged per-device stats rows, and tenant lifecycle storms
// (undeploy of one model while another keeps submitting). The whole file
// must run clean under ThreadSanitizer and ASan+UBSan (see ci.yml).
#include "serve/shared_device.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "nn/zoo.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"

namespace mfdfp::serve {
namespace {

using tensor::Shape;
using tensor::Tensor;

hw::QNetDesc make_test_qnet(std::uint64_t seed, std::size_t hw_dim = 16) {
  util::Rng rng{seed};
  nn::ZooConfig config;
  config.in_channels = 3;
  config.in_h = config.in_w = hw_dim;
  config.num_classes = 5;
  config.width_multiplier = 0.2f;
  nn::Network net = nn::make_mlp(config, 12, rng);
  Tensor calibration{Shape{6, 3, hw_dim, hw_dim}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return hw::extract_qnet(net, spec, "test");
}

DeployConfig small_config(std::size_t hw_dim = 16) {
  DeployConfig config;
  config.in_c = 3;
  config.in_h = config.in_w = hw_dim;
  config.max_batch = 4;
  config.max_wait_us = 500;
  config.workers = 2;
  return config;
}

SharedDeviceConfig paced_config(bool paced) {
  SharedDeviceConfig config;
  config.paced = paced;
  return config;
}

Tensor random_image(util::Rng& rng, std::size_t hw_dim = 16) {
  Tensor image{Shape{1, 3, hw_dim, hw_dim}};
  image.fill_uniform(rng, -1.0f, 1.0f);
  return image;
}

// ---- creation / validation --------------------------------------------------

TEST(SharedDevice, CreateValidatesAndAutoNames) {
  DeviceSpec bad;
  bad.speed_factor = 0.0;
  EXPECT_THROW(SharedDevice::create(bad), std::invalid_argument);

  auto pu = SharedDevice::create();
  EXPECT_EQ(pu->spec().name, "shared-pu");
  EXPECT_EQ(pu->tenant_count(), 0u);

  // A shared device cannot itself be placed on another shared device.
  EXPECT_THROW(SharedDevice::create(DeviceSpec::on(pu)),
               std::invalid_argument);
}

TEST(SharedDevice, AttachRejectsEmptyMemberList) {
  auto pu = SharedDevice::create();
  DeployConfig config = small_config();
  EXPECT_THROW(
      (void)pu->attach({}, config, pu->spec()), std::invalid_argument);
}

// ---- cross-model co-batching ------------------------------------------------

TEST(SharedDevice, TwoModelsOnOnePuBitIdenticalLogits) {
  const hw::QNetDesc qnet_a = make_test_qnet(501);
  const hw::QNetDesc qnet_b = make_test_qnet(502);
  const hw::AcceleratorExecutor ref_a(qnet_a);
  const hw::AcceleratorExecutor ref_b(qnet_b);

  SharedDeviceConfig pu_config;
  pu_config.paced = false;  // correctness only; keep it fast
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  DeployConfig config = small_config();
  config.placement = {DeviceSpec::on(pu)};
  server.deploy("a", {qnet_a}, config);
  server.deploy("b", {qnet_b}, config);
  EXPECT_EQ(pu->tenant_count(), 2u);

  util::Rng rng{503};
  std::vector<Tensor> images;
  std::vector<std::future<Response>> futures_a, futures_b;
  for (int i = 0; i < 24; ++i) {
    images.push_back(random_image(rng));
    futures_a.push_back(server.submit("a", images.back()));
    futures_b.push_back(server.submit("b", images.back()));
  }
  for (std::size_t i = 0; i < images.size(); ++i) {
    const Response ra = futures_a[i].get();
    const Response rb = futures_b[i].get();
    ASSERT_TRUE(ok(ra.status)) << ra.detail;
    ASSERT_TRUE(ok(rb.status)) << rb.detail;
    EXPECT_EQ(ra.device, "shared-pu");
    EXPECT_EQ(rb.device, "shared-pu");
    // Pass composition must never change what a batch computes.
    EXPECT_EQ(tensor::max_abs_diff(ra.logits, ref_a.run(images[i])), 0.0f);
    EXPECT_EQ(tensor::max_abs_diff(rb.logits, ref_b.run(images[i])), 0.0f);
  }
  server.shutdown();
  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_GT(snapshot.passes, 0u);
  ASSERT_EQ(snapshot.tenants.size(), 2u);
  EXPECT_EQ(snapshot.tenants[0].model, "a");
  EXPECT_EQ(snapshot.tenants[1].model, "b");
  EXPECT_EQ(snapshot.tenants[0].samples + snapshot.tenants[1].samples, 48u);
}

TEST(SharedDevice, CoBatchesAcrossModelsWhilePaced) {
  const hw::QNetDesc qnet_a = make_test_qnet(511);
  const hw::QNetDesc qnet_b = make_test_qnet(512);

  // The first pass, one request of `a`, is held in its pacing sleep until
  // both models have sub-batches queued behind it, so the second pass must
  // coalesce both models — deterministically, since the single dispatcher
  // cannot form it before the first pass retires. Held or not, every pass
  // then sleeps out its modeled cost on the wall clock.
  class HeldPacing : public testing::DispatcherGate<std::int64_t> {
   public:
    void bind(SharedDeviceConfig& config) {
      config.sleep_us = [this](std::int64_t us) {
        park(us);
        std::this_thread::sleep_for(std::chrono::microseconds(us));
      };
    }
  } gate;
  SharedDeviceConfig pu_config;
  pu_config.paced = true;
  pu_config.pass_overhead_us = 20'000;
  gate.bind(pu_config);
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  DeployConfig config = small_config();
  config.placement = {DeviceSpec::on(pu)};
  server.deploy("a", {qnet_a}, config);
  server.deploy("b", {qnet_b}, config);

  util::Rng rng{513};
  std::vector<std::future<Response>> futures;
  futures.push_back(server.submit("a", random_image(rng)));
  ASSERT_TRUE(gate.next_for(std::chrono::seconds(20)).has_value())
      << "first pass never paced";
  for (int i = 0; i < 6; ++i) {
    if (i > 0) futures.push_back(server.submit("a", random_image(rng)));
    futures.push_back(server.submit("b", random_image(rng)));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((testing::queued_jobs(*pu, "a") == 0 ||
          testing::queued_jobs(*pu, "b") == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.open();
  for (auto& future : futures) {
    ASSERT_TRUE(ok(future.get().status));
  }
  server.shutdown();
  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_GE(snapshot.cobatched_passes, 1u)
      << "no pass ever mixed the two models";
  // Paced utilization can never exceed the wall window.
  EXPECT_LE(snapshot.utilization, 1.05);
}

/// Sub-batches submitted straight to tenant backends (no engine), each
/// blocked in execute() on its own thread, so a test decides exactly which
/// sub-batches sit in the device lanes when a pass forms. The destructor
/// runs `unblock` (opens the test's gate) before the futures are joined,
/// so a failing assertion still lets every blocked submitter drain.
class DirectSubmitter {
 public:
  struct SubBatch {
    Tensor images;
    const hw::AcceleratorExecutor* ref = nullptr;
    std::future<BatchResult> result;
  };

  DirectSubmitter(std::uint64_t seed, std::function<void()> unblock)
      : rng_(seed), unblock_(std::move(unblock)) {}
  ~DirectSubmitter() { unblock_(); }
  DirectSubmitter(const DirectSubmitter&) = delete;
  DirectSubmitter& operator=(const DirectSubmitter&) = delete;

  SubBatch& submit(const std::shared_ptr<const SharedDeviceBackend>& backend,
                   const hw::AcceleratorExecutor& ref, std::size_t samples,
                   bool interactive = false) {
    SubBatch& sub = sub_batches_.emplace_back();  // stable: execute() borrows
    sub.images = Tensor{Shape{samples, 3, 16, 16}};
    sub.images.fill_uniform(rng_, -1.0f, 1.0f);
    sub.ref = &ref;
    sub.result = std::async(std::launch::async, [backend, &sub, interactive] {
      hw::ExecScratch scratch;
      ExecHints hints;
      hints.interactive = interactive;
      return backend->execute(sub.images, scratch, hints);
    });
    return sub;
  }

  /// Every submitted sub-batch's logits match its model's oracle.
  void expect_oracle_exact() {
    for (SubBatch& sub : sub_batches_) {
      const BatchResult result = sub.result.get();
      // Pass order decides when a sub-batch completes, never what it
      // computes.
      EXPECT_EQ(tensor::max_abs_diff(result.logits, sub.ref->run(sub.images)),
                0.0f);
    }
  }

 private:
  util::Rng rng_;
  std::function<void()> unblock_;
  std::deque<SubBatch> sub_batches_;
};

/// Waits until the device lanes hold `a_jobs` sub-batches of model "a" and
/// `b_jobs` of model "b"; false after 20 s.
bool lanes_hold(const SharedDevice& pu, std::uint64_t a_jobs,
                std::uint64_t b_jobs) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (testing::queued_jobs(pu, "a") != a_jobs ||
         testing::queued_jobs(pu, "b") != b_jobs) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// A paced device on a PacingGate's virtual clock: every reload costs
/// 1000 us and every pass 50 us of overhead, so every chunk sleeps and
/// parks.
SharedDeviceConfig gated_config(testing::PacingGate& gate) {
  SharedDeviceConfig pu_config;
  pu_config.paced = true;
  pu_config.model_switch_us = 1000.0;
  pu_config.pass_overhead_us = 50.0;
  pu_config.coalesce_window_us = 0;
  gate.bind(pu_config);
  return pu_config;
}

TEST(SharedDevice, CoBatchedPassesStartOnTheResidentModel) {
  const hw::QNetDesc qnet_a = make_test_qnet(541);
  const hw::QNetDesc qnet_b = make_test_qnet(542);
  const hw::AcceleratorExecutor ref_a(qnet_a);
  const hw::AcceleratorExecutor ref_b(qnet_b);
  constexpr std::size_t kCoBatchedPasses = 6;

  // Paced on a virtual clock and parked in every chunk's pacing sleep. A
  // co-batched pass runs one chunk per model, so it parks twice; each
  // pass's sub-batches are queued while the previous pass is held at its
  // last park, so pass k+1 is formed from exactly {a_k+1, b_k+1} — no
  // wall-clock race decides what rides together.
  testing::PacingGate gate;
  auto pu = SharedDevice::create({}, gated_config(gate));
  DeployConfig config = small_config();
  config.model_name = "a";
  const auto backend_a = pu->attach({qnet_a}, config, pu->spec());
  config.model_name = "b";
  const auto backend_b = pu->attach({qnet_b}, config, pu->spec());
  DirectSubmitter submitter(543, [&gate] { gate.open(); });

  // A cold warm-up pass of `a` alone pays the first reload; after it `a`
  // is resident.
  submitter.submit(backend_a, ref_a, 2);
  ASSERT_TRUE(gate.next_for(std::chrono::seconds(20)).has_value())
      << "warm-up pass never paced";
  for (std::size_t pass = 0; pass < kCoBatchedPasses; ++pass) {
    submitter.submit(backend_a, ref_a, 2);
    submitter.submit(backend_b, ref_b, 2);
    ASSERT_TRUE(lanes_hold(*pu, 1, 1))
        << "sub-batches never reached the device lanes";
    gate.release();
    ASSERT_TRUE(gate.next_for(std::chrono::seconds(20)).has_value())
        << "co-batched pass " << pass << " never paced its first group";
    gate.release();
    ASSERT_TRUE(gate.next_for(std::chrono::seconds(20)).has_value())
        << "co-batched pass " << pass << " never paced its last group";
  }
  gate.open();

  submitter.expect_oracle_exact();
  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_EQ(snapshot.passes, kCoBatchedPasses + 1);
  EXPECT_EQ(snapshot.cobatched_passes, kCoBatchedPasses);
  // Each pass starts on the model its predecessor ended on (A | A B | B A
  // | ...), so the warm-up and every co-batched pass pay one reload each.
  // A fixed tenant order pays both models' reloads on every co-batched
  // pass after the first.
  EXPECT_EQ(snapshot.model_switches, snapshot.passes);
}

TEST(SharedDevice, MonolithicPassRetiresEachTenantGroupAtItsModeledEnd) {
  const hw::QNetDesc qnet_a = make_test_qnet(591);
  const hw::QNetDesc qnet_b = make_test_qnet(592);
  const hw::AcceleratorExecutor ref_a(qnet_a);
  const hw::AcceleratorExecutor ref_b(qnet_b);

  testing::PacingGate gate;
  auto pu = SharedDevice::create({}, gated_config(gate));
  DeployConfig config = small_config();
  config.model_name = "a";
  const auto backend_a = pu->attach({qnet_a}, config, pu->spec());
  config.model_name = "b";
  const auto backend_b = pu->attach({qnet_b}, config, pu->spec());
  DirectSubmitter submitter(593, [&gate] { gate.open(); });

  // Warm-up: `a` resident, cursor on `b`; the clock reads its modeled end.
  submitter.submit(backend_a, ref_a, 2);
  ASSERT_TRUE(gate.next_for(std::chrono::seconds(20)).has_value())
      << "warm-up pass never paced";
  const std::int64_t pass_start_us = gate.now();
  DirectSubmitter::SubBatch& sub_a = submitter.submit(backend_a, ref_a, 2);
  DirectSubmitter::SubBatch& sub_b = submitter.submit(backend_b, ref_b, 2);
  ASSERT_TRUE(lanes_hold(*pu, 1, 1))
      << "sub-batches never reached the device lanes";
  gate.release();

  // The co-batched pass {a, b} runs a first (resident, pays the pass
  // overhead), then reloads for b.
  ASSERT_TRUE(gate.next_for(std::chrono::seconds(20)).has_value())
      << "a's group never paced";
  const std::int64_t a_end_us = gate.now();
  gate.release();
  ASSERT_TRUE(gate.next_for(std::chrono::seconds(20)).has_value())
      << "b's group never paced on its own: the pass held a until its end";
  const std::int64_t b_end_us = gate.now();

  // Parked in b's group sleep: a already retired at its own modeled end
  // (its riders do not wait out b's reload), b is still held.
  ASSERT_EQ(sub_a.result.wait_for(std::chrono::seconds(20)),
            std::future_status::ready)
      << "a's execute() must return before b's group retires";
  const BatchResult result_a = sub_a.result.get();
  EXPECT_EQ(tensor::max_abs_diff(result_a.logits, ref_a.run(sub_a.images)),
            0.0f);
  EXPECT_EQ(a_end_us,
            pass_start_us + static_cast<std::int64_t>(result_a.sim_accel_us));
  EXPECT_EQ(sub_b.result.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);

  gate.open();
  const BatchResult result_b = sub_b.result.get();
  EXPECT_EQ(tensor::max_abs_diff(result_b.logits, ref_b.run(sub_b.images)),
            0.0f);
  // The pass as a whole still ends where its summed modeled cost puts it.
  EXPECT_EQ(b_end_us, pass_start_us + static_cast<std::int64_t>(
                                          result_a.sim_accel_us +
                                          result_b.sim_accel_us));
  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_EQ(snapshot.passes, 2u);
  EXPECT_EQ(snapshot.cobatched_passes, 1u);
  EXPECT_EQ(snapshot.chunks, 3u) << "one chunk per tenant group";
  EXPECT_EQ(snapshot.model_switches, 2u);
}

TEST(SharedDevice, CoalescingSweepReachesOtherTenantsBeforeTheLeadsSecond) {
  const hw::QNetDesc qnet_a = make_test_qnet(594);
  const hw::QNetDesc qnet_b = make_test_qnet(595);
  const hw::AcceleratorExecutor ref_a(qnet_a);
  const hw::AcceleratorExecutor ref_b(qnet_b);

  testing::PacingGate gate;
  SharedDeviceConfig pu_config = gated_config(gate);
  pu_config.max_pass_samples = 8;
  auto pu = SharedDevice::create({}, pu_config);
  DeployConfig config = small_config();
  config.model_name = "a";
  const auto backend_a = pu->attach({qnet_a}, config, pu->spec());
  config.model_name = "b";
  const auto backend_b = pu->attach({qnet_b}, config, pu->spec());
  DirectSubmitter submitter(596, [&gate] { gate.open(); });

  // Warm-up of `b`: b resident, the round-robin cursor on `a`.
  submitter.submit(backend_b, ref_b, 1);
  ASSERT_TRUE(gate.next_for(std::chrono::seconds(20)).has_value())
      << "warm-up pass never paced";
  submitter.submit(backend_a, ref_a, 4);
  submitter.submit(backend_a, ref_a, 4);
  submitter.submit(backend_b, ref_b, 4);
  ASSERT_TRUE(lanes_hold(*pu, 2, 1))
      << "sub-batches never reached the device lanes";
  gate.open();

  submitter.expect_oracle_exact();
  // a leads with a1; one sub-batch per tenant per sweep gives b1 the
  // pass's second slot: {b1, a1} (b resident, one reload) then {a2} (a
  // resident). Sweeping from the lead itself would form {a1, a2} then {b1}
  // and pay a reload for each.
  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_EQ(snapshot.passes, 3u);
  EXPECT_EQ(snapshot.cobatched_passes, 1u);
  EXPECT_EQ(snapshot.model_switches, 2u) << "warm-up b, then a once";
}

TEST(SharedDevice, BatchGroupsStartOnTheModelInteractiveGroupsLeaveLoaded) {
  const hw::QNetDesc qnet_a = make_test_qnet(597);
  const hw::QNetDesc qnet_b = make_test_qnet(598);
  const hw::AcceleratorExecutor ref_a(qnet_a);
  const hw::AcceleratorExecutor ref_b(qnet_b);

  testing::PacingGate gate;
  auto pu = SharedDevice::create({}, gated_config(gate));
  DeployConfig config = small_config();
  config.model_name = "a";
  const auto backend_a = pu->attach({qnet_a}, config, pu->spec());
  config.model_name = "b";
  const auto backend_b = pu->attach({qnet_b}, config, pu->spec());
  DirectSubmitter submitter(599, [&gate] { gate.open(); });

  // Warm-up: `a` resident.
  submitter.submit(backend_a, ref_a, 1);
  ASSERT_TRUE(gate.next_for(std::chrono::seconds(20)).has_value())
      << "warm-up pass never paced";
  submitter.submit(backend_b, ref_b, 2, /*interactive=*/true);
  submitter.submit(backend_a, ref_a, 2);
  submitter.submit(backend_b, ref_b, 2);
  ASSERT_TRUE(lanes_hold(*pu, 1, 2))
      << "sub-batches never reached the device lanes";
  gate.open();

  submitter.expect_oracle_exact();
  // b's probe runs first and leaves b loaded, so the batch groups start on
  // b: b, b, a pays 2 reloads. Ranking them against the model resident
  // when the pass formed (a) would run b, a, b and pay 3.
  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_EQ(snapshot.passes, 2u);
  EXPECT_EQ(snapshot.model_switches, 1u + 2u) << "warm-up a, then b and a";
}

TEST(SharedDevice, PacingOvershootIsPaidOncePerPassNotPerChunk) {
  const hw::QNetDesc qnet = make_test_qnet(601);
  const hw::AcceleratorExecutor ref(qnet);
  DeployConfig config = small_config();
  // Scale the modeled clock so one sample costs ~1 ms on the PU.
  {
    auto probe = SharedDevice::create({}, paced_config(false));
    const double native_us =
        probe->attach({qnet}, config, probe->spec())->sample_us();
    config.accel.clock_hz *= native_us / 1000.0;
  }

  // Every pacing sleep overshoots its request by a fixed 300 us, as a
  // host sleep does; one-sample chunks make a 4-sample pass 4 chunks.
  constexpr std::int64_t kOvershootUs = 300;
  testing::VirtualClock clock;
  SharedDeviceConfig pu_config;
  pu_config.paced = true;
  pu_config.preempt_granularity_us = 1000.0;
  pu_config.now_us = [&clock] { return clock.now(); };
  pu_config.sleep_us = [&clock](std::int64_t us) {
    clock.advance(us + kOvershootUs);
  };
  auto pu = SharedDevice::create({}, pu_config);
  const auto backend = pu->attach({qnet}, config, pu->spec());

  util::Rng rng{602};
  Tensor images{Shape{4, 3, 16, 16}};
  images.fill_uniform(rng, -1.0f, 1.0f);
  hw::ExecScratch scratch;
  const BatchResult result = backend->execute(images, scratch);
  EXPECT_EQ(tensor::max_abs_diff(result.logits, ref.run(images)), 0.0f);

  const SharedDeviceSnapshot snapshot = pu->snapshot();
  ASSERT_EQ(snapshot.chunks, 4u);
  // The pass started at virtual 0 and each chunk paced against the pass's
  // own timeline, so only the last sleep's overshoot lands past the
  // modeled end — not one overshoot per chunk.
  EXPECT_EQ(clock.now(),
            static_cast<std::int64_t>(snapshot.busy_us) + kOvershootUs);
}

TEST(SharedDevice, GeometryMismatchFallsBackToSerializedPasses) {
  const hw::QNetDesc qnet_a = make_test_qnet(521, 16);
  const hw::QNetDesc qnet_b = make_test_qnet(522, 8);

  SharedDeviceConfig pu_config;
  pu_config.paced = true;
  pu_config.pass_overhead_us = 10'000;
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  DeployConfig config_a = small_config(16);
  config_a.placement = {DeviceSpec::on(pu)};
  DeployConfig config_b = small_config(8);
  config_b.placement = {DeviceSpec::on(pu)};
  server.deploy("a", {qnet_a}, config_a);
  server.deploy("b", {qnet_b}, config_b);

  util::Rng rng{523};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(server.submit("a", random_image(rng, 16)));
    futures.push_back(server.submit("b", random_image(rng, 8)));
  }
  for (auto& future : futures) {
    ASSERT_TRUE(ok(future.get().status));
  }
  server.shutdown();
  // Shapes never aligned, so no pass may mix the models.
  EXPECT_EQ(pu->snapshot().cobatched_passes, 0u);
}

TEST(SharedDevice, TimeSlicedBaselineRunsOneSubBatchPerPass) {
  const hw::QNetDesc qnet_a = make_test_qnet(531);
  const hw::QNetDesc qnet_b = make_test_qnet(532);

  SharedDeviceConfig pu_config;
  pu_config.cobatch = false;  // the ablation baseline
  pu_config.paced = false;
  pu_config.model_switch_us = 50.0;
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  DeployConfig config = small_config();
  config.placement = {DeviceSpec::on(pu)};
  server.deploy("a", {qnet_a}, config);
  server.deploy("b", {qnet_b}, config);

  util::Rng rng{533};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(server.submit("a", random_image(rng)));
    futures.push_back(server.submit("b", random_image(rng)));
  }
  for (auto& future : futures) {
    ASSERT_TRUE(ok(future.get().status));
  }
  server.shutdown();
  const SharedDeviceSnapshot snapshot = pu->snapshot();
  EXPECT_EQ(snapshot.cobatched_passes, 0u);
  ASSERT_EQ(snapshot.tenants.size(), 2u);
  // One sub-batch per pass, by definition of time slicing.
  EXPECT_EQ(snapshot.passes, snapshot.tenants[0].sub_batches +
                                 snapshot.tenants[1].sub_batches);
  // Interleaved tenants force weight reloads; the switch accounting must
  // see them.
  EXPECT_GE(snapshot.model_switches, 2u);
  EXPECT_GT(snapshot.switch_us, 0.0);
}

// ---- aggregate backlog: admission + routing ---------------------------------

TEST(SharedDevice, NeighbourBacklogShedsIdleTenantsBatchWork) {
  const hw::QNetDesc qnet_a = make_test_qnet(541);
  const hw::QNetDesc qnet_b = make_test_qnet(542);

  SharedDeviceConfig pu_config;
  pu_config.paced = true;
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  DeployConfig config = small_config();
  config.placement = {DeviceSpec::on(pu)};
  // Scale the modeled clock so one sample costs ~1ms on the PU: the flood
  // below then represents tens of milliseconds of committed device time.
  {
    ModelServer probe;
    DeployConfig probe_config = small_config();
    probe.deploy("p", {qnet_a}, probe_config);
    const double native_us = probe.engine("p")->simulated_sample_us();
    probe.shutdown();
    config.accel.clock_hz *= native_us / 1000.0;
  }
  server.deploy("a", {qnet_a}, config);
  server.deploy("b", {qnet_b}, config);

  // Flood model B with deadline-less batch work (never shed, admits all).
  util::Rng rng{543};
  SubmitOptions flood;
  flood.priority = Priority::kBatch;
  flood.deadline_us = 0;
  std::vector<std::future<Response>> backlog;
  for (int i = 0; i < 48; ++i) {
    backlog.push_back(server.submit("b", random_image(rng), flood));
  }

  // Model A is idle, but its device is not: estimated delay must count B's
  // committed work, and a tight-budget kBatch submit to A must shed.
  EXPECT_GT(server.engine("a")->estimated_queue_delay_us(), 10'000.0);
  SubmitOptions tight;
  tight.priority = Priority::kBatch;
  tight.deadline_us = util::Stopwatch::now_us() + 5'000;
  const Response shed = server.submit("a", random_image(rng), tight).get();
  EXPECT_EQ(shed.status, StatusCode::kShedded);

  // Interactive traffic is never shed, even on a contended device.
  const Response served = server.submit("a", random_image(rng)).get();
  EXPECT_TRUE(ok(served.status));

  for (auto& future : backlog) EXPECT_TRUE(ok(future.get().status));
  server.shutdown();
}

// ---- stats rows -------------------------------------------------------------

TEST(SharedDevice, CoLocatedReplicaRowsMergePerPhysicalDevice) {
  const hw::QNetDesc qnet = make_test_qnet(551);
  SharedDeviceConfig pu_config;
  pu_config.paced = false;
  auto pu = SharedDevice::create({}, pu_config);

  ModelServer server;
  DeployConfig config = small_config();
  // Two replicas of one model, both tenants of the same PU.
  config.placement = {DeviceSpec::on(pu), DeviceSpec::on(pu)};
  server.deploy("m", {qnet}, config);
  EXPECT_EQ(pu->tenant_count(), 2u);

  util::Rng rng{552};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(server.submit("m", random_image(rng)));
  }
  for (auto& future : futures) ASSERT_TRUE(ok(future.get().status));

  const StatsSnapshot snapshot = server.stats("m");
  // One *physical* device -> one row, with both replicas merged; the row's
  // busy time is the device's, so utilization cannot read 2 x 100%.
  ASSERT_EQ(snapshot.devices.size(), 1u);
  EXPECT_EQ(snapshot.devices[0].device, "shared-pu");
  EXPECT_EQ(snapshot.devices[0].model, "m");
  EXPECT_TRUE(snapshot.devices[0].shared);
  EXPECT_EQ(snapshot.devices[0].merged_replicas, 2u);
  EXPECT_EQ(snapshot.devices[0].completed, 24u);
  const std::string table = server.stats_table("m");
  EXPECT_NE(table.find("(shared)"), std::string::npos);

  // The set's provisioning counts the PU once, not per tenant.
  EXPECT_DOUBLE_EQ(server.replica_set("m")->total_speed(), 1.0);
  server.shutdown();

  // The device's own cross-model snapshot has one row per tenant.
  const SharedDeviceSnapshot device = pu->snapshot();
  ASSERT_EQ(device.tenants.size(), 2u);
  EXPECT_EQ(device.tenants[0].samples + device.tenants[1].samples, 24u);
}

TEST(SharedDevice, MixedPlacementKeepsDedicatedRowsSeparate) {
  const hw::QNetDesc qnet = make_test_qnet(561);
  auto pu = SharedDevice::create({}, paced_config(false));

  ModelServer server;
  DeployConfig config = small_config();
  DeviceSpec dedicated;
  dedicated.name = "npu-private";
  dedicated.speed_factor = 2.0;
  config.placement = {DeviceSpec::on(pu), dedicated};
  server.deploy("m", {qnet}, config);

  util::Rng rng{562};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(server.submit("m", random_image(rng)));
  }
  for (auto& future : futures) ASSERT_TRUE(ok(future.get().status));

  const StatsSnapshot snapshot = server.stats("m");
  ASSERT_EQ(snapshot.devices.size(), 2u);
  EXPECT_TRUE(snapshot.devices[0].shared);
  EXPECT_EQ(snapshot.devices[0].merged_replicas, 1u);
  EXPECT_FALSE(snapshot.devices[1].shared);
  EXPECT_EQ(snapshot.devices[1].device, "npu-private");
  // {shared 1x, dedicated 2x} provisions 3 baseline devices' worth.
  EXPECT_DOUBLE_EQ(server.replica_set("m")->total_speed(), 3.0);
  server.shutdown();
}

TEST(SharedDevice, BackendReportsCentralPacing) {
  const hw::QNetDesc qnet = make_test_qnet(571);
  auto paced_pu = SharedDevice::create({}, paced_config(true));
  auto free_pu = SharedDevice::create({}, paced_config(false));

  ModelServer server;
  DeployConfig config = small_config();
  config.placement = {DeviceSpec::on(paced_pu)};
  server.deploy("paced", {qnet}, config);
  config.placement = {DeviceSpec::on(free_pu)};
  server.deploy("free", {qnet}, config);

  EXPECT_TRUE(server.engine("paced")->backend().paces_execution());
  EXPECT_FALSE(server.engine("free")->backend().paces_execution());
  server.shutdown();
}

// ---- tenant lifecycle storms ------------------------------------------------

TEST(SharedDevice, UndeployOneTenantWhileAnotherKeepsSubmitting) {
  const hw::QNetDesc qnet_a = make_test_qnet(581);
  const hw::QNetDesc qnet_b = make_test_qnet(582);
  auto pu = SharedDevice::create({}, paced_config(false));

  ModelServer server;
  DeployConfig config = small_config();
  config.placement = {DeviceSpec::on(pu)};
  server.deploy("stayer", {qnet_a}, config);

  // The staying tenant submits continuously from its own thread; every one
  // of its requests must be served, before, during, and after the
  // neighbour's churn.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> stayer_ok{0};
  std::thread stayer([&] {
    util::Rng rng{583};
    while (!stop.load(std::memory_order_acquire)) {
      const Response response =
          server.submit("stayer", random_image(rng)).get();
      EXPECT_TRUE(ok(response.status)) << response.detail;
      stayer_ok.fetch_add(1, std::memory_order_relaxed);
    }
  });

  util::Rng rng{584};
  for (int round = 0; round < 4; ++round) {
    server.deploy("churner", {qnet_b}, config);
    std::vector<std::future<Response>> in_flight;
    for (int i = 0; i < 12; ++i) {
      in_flight.push_back(server.submit("churner", random_image(rng)));
    }
    // Undeploy concurrently with the submissions still in flight: only the
    // churner's batches drain; the stayer must never observe a failure.
    std::thread undeployer([&] { server.undeploy("churner"); });
    std::vector<std::future<Response>> racing;
    for (int i = 0; i < 12; ++i) {
      racing.push_back(server.submit("churner", random_image(rng)));
    }
    undeployer.join();
    for (auto& future : in_flight) {
      const Response response = future.get();
      // Accepted before the undeploy: the drain serves it.
      EXPECT_TRUE(ok(response.status)) << status_name(response.status);
    }
    for (auto& future : racing) {
      const Response response = future.get();
      // Racing the undeploy: served, or cleanly refused — never hung,
      // never a crash.
      EXPECT_TRUE(ok(response.status) ||
                  response.status == StatusCode::kModelNotFound ||
                  response.status == StatusCode::kShuttingDown)
          << status_name(response.status);
    }
  }

  stop.store(true, std::memory_order_release);
  stayer.join();
  EXPECT_GT(stayer_ok.load(), 0u);
  // One stayer + 4 churner generations attached over the device's life.
  EXPECT_EQ(pu->tenant_count(), 5u);

  // The stayer still serves after all the churn.
  const Response after = server.submit("stayer", random_image(rng)).get();
  EXPECT_TRUE(ok(after.status));
  server.shutdown();
}

}  // namespace
}  // namespace mfdfp::serve
