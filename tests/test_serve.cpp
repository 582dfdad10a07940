// Serving-engine properties: batcher coalescing bounds, FIFO fairness under
// producer contention, priority-lane draining, clean worker-pool shutdown,
// typed status codes on every failure path, and the load-bearing invariant
// that the batched fast path is bit-identical to per-sample run().
#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "core/ensemble.hpp"
#include "nn/zoo.hpp"
#include "serve/batcher.hpp"
#include "serve/request_queue.hpp"
#include "serve/worker_pool.hpp"
#include "util/stopwatch.hpp"

namespace mfdfp::serve {
namespace {

using tensor::Shape;
using tensor::Tensor;

Request make_request(RequestId id, std::int64_t deadline_us = 0,
                     Priority priority = Priority::kInteractive) {
  Request request;
  request.id = id;
  request.priority = priority;
  request.enqueue_us = util::Stopwatch::now_us();
  request.deadline_us = deadline_us;
  return request;
}

/// Builds a small quantized deployment image the way the executor tests do.
hw::QNetDesc make_test_qnet(std::uint64_t seed, bool conv_net) {
  util::Rng rng{seed};
  nn::ZooConfig config;
  config.in_channels = 3;
  config.in_h = config.in_w = 16;
  config.num_classes = 5;
  config.width_multiplier = 0.2f;
  nn::Network net = conv_net ? nn::make_cifar10_net(config, rng)
                             : nn::make_mlp(config, 12, rng);
  Tensor calibration{Shape{6, 3, 16, 16}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return hw::extract_qnet(net, spec, "test");
}

DeployConfig small_deploy_config() {
  DeployConfig config;
  config.in_c = 3;
  config.in_h = config.in_w = 16;
  config.max_batch = 5;
  config.max_wait_us = 2000;
  config.workers = 2;
  return config;
}

// ---- batcher ---------------------------------------------------------------

TEST(DynamicBatcher, NeverExceedsMaxBatch) {
  RequestQueue queue(256);
  DynamicBatcher batcher(queue, BatcherConfig{4, 0});
  for (RequestId id = 0; id < 11; ++id) {
    ASSERT_TRUE(queue.push(make_request(id)));
  }
  queue.close();

  std::vector<Request> batch, expired;
  std::vector<std::size_t> batch_sizes;
  RequestId next_expected = 0;
  while (batcher.next_batch(batch, expired)) {
    EXPECT_LE(batch.size(), 4u);
    EXPECT_TRUE(expired.empty());
    for (const Request& request : batch) {
      EXPECT_EQ(request.id, next_expected++) << "dequeue must be FIFO";
    }
    batch_sizes.push_back(batch.size());
  }
  EXPECT_EQ(next_expected, 11u);
  // A full backlog coalesces into full batches: 4+4+3.
  ASSERT_EQ(batch_sizes.size(), 3u);
  EXPECT_EQ(batch_sizes[0], 4u);
  EXPECT_EQ(batch_sizes[1], 4u);
  EXPECT_EQ(batch_sizes[2], 3u);
}

TEST(DynamicBatcher, LoneRequestReleasedAfterMaxWait) {
  RequestQueue queue(16);
  DynamicBatcher batcher(queue, BatcherConfig{8, 20'000});
  ASSERT_TRUE(queue.push(make_request(1)));

  util::Stopwatch watch;
  std::vector<Request> batch, expired;
  ASSERT_TRUE(batcher.next_batch(batch, expired));
  // The lone request must not wait for a full batch forever — it is
  // released within max_wait (plus generous scheduling slack).
  EXPECT_LT(watch.micros(), 2'000'000);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front().id, 1u);
  queue.close();
}

TEST(DynamicBatcher, FailsExpiredRequestsInsteadOfServingThem) {
  RequestQueue queue(16);
  DynamicBatcher batcher(queue, BatcherConfig{4, 0});
  const std::int64_t now = util::Stopwatch::now_us();
  ASSERT_TRUE(queue.push(make_request(1, now - 10)));  // already expired
  ASSERT_TRUE(queue.push(make_request(2)));            // no deadline
  ASSERT_TRUE(queue.push(make_request(3, now - 10)));  // also expired

  std::vector<Request> batch, expired;
  ASSERT_TRUE(batcher.next_batch(batch, expired));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front().id, 2u);
  ASSERT_EQ(expired.size(), 2u);
  for (Request& request : expired) {
    const Response response = request.promise.get_future().get();
    EXPECT_FALSE(ok(response.status));
    EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
  }
  queue.close();
}

// ---- queue fairness --------------------------------------------------------

TEST(RequestQueue, PerProducerFifoUnderContention) {
  RequestQueue queue(4096);
  constexpr std::size_t kProducers = 4;
  constexpr RequestId kPerProducer = 200;

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (RequestId i = 0; i < kPerProducer; ++i) {
        // id encodes (producer, sequence).
        ASSERT_TRUE(queue.push(make_request(p * 1'000'000 + i)));
      }
    });
  }
  for (std::thread& thread : producers) thread.join();
  queue.close();

  std::vector<RequestId> next_seq(kProducers, 0);
  Request popped;
  std::size_t total = 0;
  while (queue.pop(popped)) {
    const std::size_t producer = popped.id / 1'000'000;
    const RequestId seq = popped.id % 1'000'000;
    EXPECT_EQ(seq, next_seq[producer])
        << "per-producer order violated for producer " << producer;
    ++next_seq[producer];
    ++total;
  }
  EXPECT_EQ(total, kProducers * kPerProducer);
}

TEST(RequestQueue, RejectsWhenFullOrClosed) {
  RequestQueue queue(2);
  EXPECT_TRUE(queue.push(make_request(1)));
  EXPECT_TRUE(queue.push(make_request(2)));
  EXPECT_FALSE(queue.push(make_request(3)));  // full
  queue.close();
  EXPECT_FALSE(queue.push(make_request(4)));  // closed
  // Drain still works after close.
  Request out;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_TRUE(queue.pop(out));
  EXPECT_FALSE(queue.pop(out));
}

// ---- queue edge cases ------------------------------------------------------

TEST(RequestQueue, PushAtCapacityLeavesPromiseUsable) {
  RequestQueue queue(1);
  ASSERT_TRUE(queue.push(make_request(1)));

  // The rejected request must come back intact: the caller still owns the
  // promise and can resolve the client's future with a typed failure.
  Request rejected = make_request(2);
  std::future<Response> future = rejected.promise.get_future();
  ASSERT_FALSE(queue.push(std::move(rejected)));
  fail_request(rejected, StatusCode::kQueueFull, "queue at capacity");
  const Response response = future.get();
  EXPECT_EQ(response.status, StatusCode::kQueueFull);
  queue.close();
}

TEST(RequestQueue, WaitForItemsWakesOnClose) {
  RequestQueue queue(16);
  const std::int64_t far_deadline = util::Stopwatch::now_us() + 60'000'000;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    // Asks for more items than will ever arrive; only close() can wake it
    // before the (minute-long) deadline.
    queue.wait_for_items(8, far_deadline);
    woke.store(true);
  });
  // Give the waiter a moment to block, then close.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  queue.close();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

TEST(RequestQueue, FifoPreservedAcrossPartialTryPopN) {
  RequestQueue queue(16);
  for (RequestId id = 0; id < 7; ++id) {
    ASSERT_TRUE(queue.push(make_request(id)));
  }
  std::vector<Request> popped;
  EXPECT_EQ(queue.try_pop_n(popped, 3), 3u);  // partial pop
  EXPECT_EQ(queue.try_pop_n(popped, 2), 2u);  // partial pop
  EXPECT_EQ(queue.try_pop_n(popped, 5), 2u);  // drains the remainder
  ASSERT_EQ(popped.size(), 7u);
  for (RequestId id = 0; id < 7; ++id) {
    EXPECT_EQ(popped[id].id, id) << "FIFO broken across partial pops";
  }
  EXPECT_EQ(queue.try_pop_n(popped, 1), 0u);  // empty
  queue.close();
}

// ---- priority lanes --------------------------------------------------------

TEST(RequestQueue, StrictPriorityDrainsInteractiveFirst) {
  RequestQueue queue(16, /*priority_aware=*/true);
  ASSERT_TRUE(queue.push(make_request(100, 0, Priority::kBatch)));
  ASSERT_TRUE(queue.push(make_request(101, 0, Priority::kBatch)));
  ASSERT_TRUE(queue.push(make_request(1, 0, Priority::kInteractive)));
  ASSERT_TRUE(queue.push(make_request(102, 0, Priority::kBatch)));
  ASSERT_TRUE(queue.push(make_request(2, 0, Priority::kInteractive)));
  EXPECT_EQ(queue.size(), 5u);
  EXPECT_EQ(queue.size(Priority::kInteractive), 2u);
  EXPECT_EQ(queue.size(Priority::kBatch), 3u);

  // Interactive lane drains first (FIFO within it), then batch (FIFO).
  std::vector<Request> popped;
  EXPECT_EQ(queue.try_pop_n(popped, 3), 3u);
  ASSERT_EQ(popped.size(), 3u);
  EXPECT_EQ(popped[0].id, 1u);
  EXPECT_EQ(popped[1].id, 2u);
  EXPECT_EQ(popped[2].id, 100u);
  Request next;
  ASSERT_TRUE(queue.pop(next));
  EXPECT_EQ(next.id, 101u);
  ASSERT_TRUE(queue.pop(next));
  EXPECT_EQ(next.id, 102u);
  queue.close();
}

TEST(RequestQueue, BatchCannotUseInteractiveReservedHeadroom) {
  RequestQueue queue(16, /*priority_aware=*/true);
  EXPECT_EQ(queue.interactive_reserve(), 2u);  // capacity / 8
  // A deadline-less batch flood stops at capacity - reserve...
  for (RequestId id = 0; id < 14; ++id) {
    ASSERT_TRUE(queue.push(make_request(id, 0, Priority::kBatch)));
  }
  EXPECT_FALSE(queue.push(make_request(99, 0, Priority::kBatch)));
  // ...while interactive traffic still gets the reserved slots.
  EXPECT_TRUE(queue.push(make_request(1000, 0, Priority::kInteractive)));
  EXPECT_TRUE(queue.push(make_request(1001, 0, Priority::kInteractive)));
  EXPECT_FALSE(queue.push(make_request(1002, 0, Priority::kInteractive)));
  EXPECT_EQ(queue.size(), 16u);
  queue.close();
}

TEST(RequestQueue, SmallCapacityKeepsMinimumInteractiveReserve) {
  // Regression: capacity / 8 rounds to 0 below 8, which used to leave small
  // priority-aware queues with no interactive reserve at all — a kBatch
  // flood could occupy every slot and starve interactive traffic at the
  // door. The reserve now has an explicit floor of one slot.
  RequestQueue queue(4, /*priority_aware=*/true);
  EXPECT_EQ(queue.interactive_reserve(), 1u);
  for (RequestId id = 0; id < 3; ++id) {
    ASSERT_TRUE(queue.push(make_request(id, 0, Priority::kBatch)));
  }
  EXPECT_FALSE(queue.push(make_request(99, 0, Priority::kBatch)))
      << "batch must not take the last (reserved) slot";
  EXPECT_TRUE(queue.push(make_request(1000, 0, Priority::kInteractive)));
  EXPECT_EQ(queue.size(), 4u);
  queue.close();

  // Degenerate single-slot queue: reserving would leave kBatch no slot at
  // all, so the reserve stays 0 and the lone slot is first-come.
  RequestQueue tiny(1, /*priority_aware=*/true);
  EXPECT_EQ(tiny.interactive_reserve(), 0u);
  EXPECT_TRUE(tiny.push(make_request(0, 0, Priority::kBatch)));
  EXPECT_FALSE(tiny.push(make_request(1, 0, Priority::kInteractive)));
  tiny.close();

  // FIFO mode never reserves, whatever the capacity.
  RequestQueue fifo(4, /*priority_aware=*/false);
  EXPECT_EQ(fifo.interactive_reserve(), 0u);
  for (RequestId id = 0; id < 4; ++id) {
    ASSERT_TRUE(fifo.push(make_request(id, 0, Priority::kBatch)));
  }
  EXPECT_FALSE(fifo.push(make_request(99, 0, Priority::kInteractive)));
  fifo.close();
}

TEST(RequestQueue, FifoModeIgnoresPriority) {
  RequestQueue queue(16, /*priority_aware=*/false);
  ASSERT_TRUE(queue.push(make_request(100, 0, Priority::kBatch)));
  ASSERT_TRUE(queue.push(make_request(1, 0, Priority::kInteractive)));
  Request out;
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(out.id, 100u) << "FIFO mode must not reorder by priority";
  queue.close();
}

// ---- engine ----------------------------------------------------------------

TEST(InferenceEngine, ResponsesMatchDirectExecution) {
  const hw::QNetDesc desc = make_test_qnet(41, true);
  const hw::AcceleratorExecutor reference(desc);
  InferenceEngine engine({desc}, small_deploy_config());

  util::Rng rng{42};
  Tensor images{Shape{16, 3, 16, 16}};
  images.fill_uniform(rng, -1.0f, 1.0f);

  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < images.shape().n(); ++i) {
    futures.push_back(engine.submit(tensor::slice_outer(images, i, i + 1)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    Response response = futures[i].get();
    ASSERT_TRUE(ok(response.status)) << response.detail;
    const Tensor expected =
        reference.run(tensor::slice_outer(images, i, i + 1));
    EXPECT_EQ(tensor::max_abs_diff(response.logits, expected), 0.0f)
        << "request " << i;
    EXPECT_EQ(response.predicted_class,
              static_cast<int>(expected.argmax()));
    EXPECT_GE(response.batch_size, 1u);
    EXPECT_LE(response.batch_size, engine.config().max_batch);
    EXPECT_GT(response.sim_accel_us, 0.0);
    EXPECT_GT(response.sim_dma_bytes, 0.0);
    EXPECT_GE(response.e2e_us, response.queue_wait_us);
  }

  const StatsSnapshot stats = engine.stats().snapshot();
  EXPECT_EQ(stats.completed, 16u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GE(stats.batches, (16u + 4u) / 5u);  // max_batch = 5
  EXPECT_GT(stats.sim_accel_busy_us, 0.0);
}

TEST(InferenceEngine, EnsembleAveragingMatchesRunEnsemble) {
  const hw::QNetDesc desc_a = make_test_qnet(51, false);
  const hw::QNetDesc desc_b = make_test_qnet(52, false);
  const hw::AcceleratorExecutor exec_a(desc_a), exec_b(desc_b);
  const std::vector<const hw::AcceleratorExecutor*> members{&exec_a, &exec_b};

  InferenceEngine engine({desc_a, desc_b}, small_deploy_config());
  EXPECT_EQ(engine.member_count(), 2u);

  util::Rng rng{53};
  Tensor image{Shape{1, 3, 16, 16}};
  image.fill_uniform(rng, -1.0f, 1.0f);

  Response response = engine.submit(image).get();
  ASSERT_TRUE(ok(response.status)) << response.detail;
  const Tensor expected = hw::run_ensemble(members, image);
  EXPECT_EQ(tensor::max_abs_diff(response.logits, expected), 0.0f);
}

TEST(InferenceEngine, RejectsBadShapesWithInvalidInput) {
  const hw::QNetDesc desc = make_test_qnet(61, false);
  InferenceEngine engine({desc}, small_deploy_config());

  Tensor wrong{Shape{2, 3, 16, 16}};  // batch of 2 in one request
  Response response = engine.submit(std::move(wrong)).get();
  EXPECT_EQ(response.status, StatusCode::kInvalidInput);
  EXPECT_NE(response.detail.find("bad input shape"), std::string::npos);

  Tensor wrong_size{Shape{3, 8, 8}};
  response = engine.submit(std::move(wrong_size)).get();
  EXPECT_EQ(response.status, StatusCode::kInvalidInput);

  // Same element count, permuted layout: must be rejected, not served as
  // scrambled data.
  Tensor permuted{Shape{16, 3, 16}};
  response = engine.submit(std::move(permuted)).get();
  EXPECT_EQ(response.status, StatusCode::kInvalidInput);

  Tensor rank2{Shape{3, 256}};
  response = engine.submit(std::move(rank2)).get();
  EXPECT_EQ(response.status, StatusCode::kInvalidInput);

  EXPECT_EQ(engine.stats().snapshot().rejected, 4u);
}

TEST(InferenceEngine, ExpiredAtSubmitFailsImmediatelyAsTimedOut) {
  const hw::QNetDesc desc = make_test_qnet(62, false);
  DeployConfig config = small_deploy_config();
  // Park the workers in a long coalescing wait so a queued request would
  // sit for a while — the expired request must not reach the queue at all.
  config.max_batch = 64;
  config.max_wait_us = 500'000;
  InferenceEngine engine({desc}, config);

  util::Rng rng{63};
  Tensor image{Shape{1, 3, 16, 16}};
  image.fill_uniform(rng, -1.0f, 1.0f);

  SubmitOptions expired_options;
  expired_options.deadline_us = util::Stopwatch::now_us() - 1;
  util::Stopwatch watch;
  const Response response =
      engine.submit(std::move(image), expired_options).get();
  EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
  // Resolved at submit, not after the 500 ms batcher wait.
  EXPECT_LT(watch.micros(), 400'000);
  EXPECT_EQ(engine.queue_depth(), 0u) << "expired request took a queue slot";

  const StatsSnapshot stats = engine.stats().snapshot();
  EXPECT_EQ(stats.timed_out, 1u) << "expiry at submit counts as timed_out";
  EXPECT_EQ(stats.rejected, 0u) << "expiry at submit is not a rejection";
}

TEST(InferenceEngine, StopDrainsPendingWorkWithoutDeadlock) {
  const hw::QNetDesc desc = make_test_qnet(71, false);
  DeployConfig config = small_deploy_config();
  // Park requests in the coalescing wait so stop() races batch formation.
  config.max_batch = 64;
  config.max_wait_us = 500'000;
  config.workers = 3;
  InferenceEngine engine({desc}, config);

  util::Rng rng{72};
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 10; ++i) {
    Tensor image{Shape{1, 3, 16, 16}};
    image.fill_uniform(rng, -1.0f, 1.0f);
    futures.push_back(engine.submit(std::move(image)));
  }
  engine.stop();  // must drain: every future resolves, no deadlock

  std::size_t completed = 0;
  for (auto& future : futures) {
    const Response response = future.get();
    if (ok(response.status)) ++completed;
  }
  EXPECT_EQ(completed, 10u) << "drained shutdown must complete queued work";

  // Idempotent stop and post-stop rejection.
  engine.stop();
  Tensor image{Shape{1, 3, 16, 16}};
  image.fill_uniform(rng, -1.0f, 1.0f);
  const Response rejected = engine.submit(std::move(image)).get();
  EXPECT_EQ(rejected.status, StatusCode::kShuttingDown);
}

TEST(InferenceEngine, ManyConcurrentClients) {
  const hw::QNetDesc desc = make_test_qnet(81, false);
  DeployConfig config = small_deploy_config();
  config.max_batch = 8;
  config.workers = 4;
  InferenceEngine engine({desc}, config);

  constexpr int kClients = 6;
  constexpr int kPerClient = 25;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&engine, &ok_count, c] {
      util::Rng rng{static_cast<std::uint64_t>(100 + c)};
      // Half the clients submit batch-priority traffic: mixed classes must
      // all complete when there is no overload.
      SubmitOptions options;
      options.priority = c % 2 == 0 ? Priority::kInteractive
                                    : Priority::kBatch;
      for (int i = 0; i < kPerClient; ++i) {
        Tensor image{Shape{1, 3, 16, 16}};
        image.fill_uniform(rng, -1.0f, 1.0f);
        if (ok(engine.submit(std::move(image), options).get().status)) {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(ok_count.load(), kClients * kPerClient);
  const StatsSnapshot stats = engine.stats().snapshot();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kClients) * kPerClient);
  EXPECT_GT(stats.mean_batch_size, 0.99);
  const std::size_t interactive =
      static_cast<std::size_t>(Priority::kInteractive);
  const std::size_t batch = static_cast<std::size_t>(Priority::kBatch);
  EXPECT_EQ(stats.completed_by_class[interactive] +
                stats.completed_by_class[batch],
            stats.completed);
  EXPECT_GT(stats.completed_by_class[interactive], 0u);
  EXPECT_GT(stats.completed_by_class[batch], 0u);
}

TEST(InferenceEngine, ThrowsOnEmptyModelList) {
  EXPECT_THROW(InferenceEngine(std::vector<hw::QNetDesc>{},
                               small_deploy_config()),
               std::invalid_argument);
}

TEST(InferenceEngine, CapacityOneQueueStillServesBatchTraffic) {
  // Regression for the capacity-1 edge of the interactive reserve: with the
  // 1/8-of-capacity reserve floored at one slot, a naive floor would claim
  // the *only* slot of a capacity-1 queue for kInteractive and silently
  // reject every kBatch submission with kQueueFull. The intended behavior
  // (documented on RequestQueue::interactive_reserve) is that capacities
  // below 2 reserve nothing — the lone slot is first-come for either class.
  // This exercises it end to end through the engine, not just the queue.
  const hw::QNetDesc qnet = make_test_qnet(61, false);
  DeployConfig config = small_deploy_config();
  config.queue_capacity = 1;
  config.max_batch = 1;
  config.workers = 1;
  InferenceEngine engine({qnet}, config);
  EXPECT_EQ(engine.config().queue_capacity, 1u);

  util::Rng rng{62};
  SubmitOptions batch_options;
  batch_options.priority = Priority::kBatch;
  batch_options.deadline_us = 0;
  std::vector<std::future<Response>> futures;
  // Sequential closed loop: each kBatch request must be admitted (the queue
  // drains between submissions), never rejected by a phantom reserve.
  for (int i = 0; i < 8; ++i) {
    Tensor image{Shape{1, 3, 16, 16}};
    image.fill_uniform(rng, -1.0f, 1.0f);
    const Response response =
        engine.submit(std::move(image), batch_options).get();
    EXPECT_TRUE(ok(response.status))
        << "kBatch starved on a capacity-1 queue: " << response.detail;
  }
  engine.stop();
  EXPECT_EQ(engine.stats().snapshot().completed, 8u);
}

// ---- stats aggregation edge cases ------------------------------------------

TEST(ServerStatsAggregate, EmptyPartListYieldsZeroSnapshotWithoutNans) {
  const StatsSnapshot empty = ServerStats::aggregate({});
  EXPECT_EQ(empty.completed, 0u);
  EXPECT_EQ(empty.batches, 0u);
  EXPECT_EQ(empty.e2e_p99_us, 0);
  // Degenerate windows must report zero rates, not divide by ~0.
  EXPECT_EQ(empty.throughput_rps, 0.0);
  EXPECT_EQ(empty.sim_accel_utilization, 0.0);
  EXPECT_EQ(empty.mean_batch_size, 0.0);
  EXPECT_TRUE(empty.devices.empty());
}

TEST(ServerStatsAggregate, ZeroWindowPartsReportZeroRates) {
  // Freshly-constructed collectors have a near-zero observation window; the
  // aggregate must hit the same min-window guard snapshot() has and report
  // finite zero rates instead of inf/NaN.
  ServerStats a, b;
  const StatsSnapshot merged = ServerStats::aggregate({&a, &b});
  EXPECT_EQ(merged.completed, 0u);
  EXPECT_TRUE(std::isfinite(merged.throughput_rps));
  EXPECT_TRUE(std::isfinite(merged.sim_accel_utilization));
}

TEST(ServerStatsAggregate, SkipsNullPartsAndMergesMixedDevices) {
  // Two collectors shaped like differently-provisioned devices: different
  // batch-size mixes (histogram vectors of different lengths) and
  // different per-batch modeled costs. The merge must be exact — counters
  // sum, histograms add bucket-by-bucket — and null entries must be
  // skipped, not dereferenced.
  ServerStats slow, fast;
  slow.record_batch(2, 800.0, 64.0);
  slow.record_response(900, 100, Priority::kInteractive);
  slow.record_response(1100, 150, Priority::kInteractive);
  fast.record_batch(8, 800.0, 256.0);  // 4x device: bigger batch, same time
  for (int i = 0; i < 8; ++i) {
    fast.record_response(250, 50, Priority::kBatch);
  }

  std::vector<ServerStats::PartTotals> totals;
  const StatsSnapshot merged =
      ServerStats::aggregate({&slow, nullptr, &fast, nullptr}, &totals);
  // Per-part totals are read in the same locked pass as the merge:
  // index-aligned with the inputs, zeroed for null entries, summing to the
  // aggregate.
  ASSERT_EQ(totals.size(), 4u);
  EXPECT_EQ(totals[0].completed, 2u);
  EXPECT_EQ(totals[1].completed, 0u);
  EXPECT_EQ(totals[2].completed, 8u);
  EXPECT_DOUBLE_EQ(totals[0].sim_accel_busy_us, 800.0);
  EXPECT_DOUBLE_EQ(totals[1].sim_accel_busy_us, 0.0);
  EXPECT_EQ(totals[0].completed + totals[2].completed, merged.completed);
  EXPECT_EQ(merged.completed, 10u);
  EXPECT_EQ(merged.batches, 2u);
  EXPECT_DOUBLE_EQ(merged.mean_batch_size, 5.0);
  EXPECT_DOUBLE_EQ(merged.sim_accel_busy_us, 1600.0);
  EXPECT_DOUBLE_EQ(merged.sim_dma_bytes, 320.0);
  ASSERT_GE(merged.batch_size_histogram.size(), 9u);
  EXPECT_EQ(merged.batch_size_histogram[2], 1u);
  EXPECT_EQ(merged.batch_size_histogram[8], 1u);
  EXPECT_EQ(merged.completed_by_class[static_cast<std::size_t>(
                Priority::kInteractive)],
            2u);
  EXPECT_EQ(
      merged.completed_by_class[static_cast<std::size_t>(Priority::kBatch)],
      8u);
  // The merged e2e histogram spans both devices' latency ranges.
  EXPECT_LE(merged.e2e_p50_us, 300);
  EXPECT_GE(merged.e2e_max_us, 1100);
}

// Regression (caught by -Wthread-safety, reproduced under TSan): two
// threads racing WorkerPool::join() — reachable in production as
// ~InferenceEngine racing ReplicaSet::stop — used to race on the thread
// vector, and the loser could return while pool threads were still
// running. The contract now: *every* join() caller blocks until all pool
// threads have exited.
TEST(WorkerPoolTest, ConcurrentJoinWaitsForAllWorkers) {
  for (int iteration = 0; iteration < 100; ++iteration) {
    WorkerPool pool;
    std::atomic<int> running{0};
    std::atomic<bool> release{false};
    pool.start(4, [&](std::size_t) {
      running.fetch_add(1, std::memory_order_relaxed);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      running.fetch_sub(1, std::memory_order_relaxed);
    });

    std::atomic<bool> go{false};
    std::vector<std::thread> joiners;
    for (int j = 0; j < 3; ++j) {
      joiners.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        pool.join();
        // The postcondition every caller relies on (the engine destructor
        // must not return while a worker can still touch the engine).
        EXPECT_EQ(running.load(std::memory_order_relaxed), 0);
      });
    }
    release.store(true, std::memory_order_release);
    go.store(true, std::memory_order_release);
    for (std::thread& joiner : joiners) joiner.join();
    EXPECT_EQ(pool.size(), 0u);
    // join() after the pool is drained is a no-op, not a hang.
    pool.join();
  }
}

}  // namespace
}  // namespace mfdfp::serve
