// Deterministic scheduler-test harness for SharedDevice suites.
//
// Preemption and continuous batching are interleaving-heavy: a test that
// sleeps wall-clock and hopes the probe lands mid-pass is flaky by
// construction. This header gives tests the seams
// SharedDeviceConfig exposes instead:
//
//   VirtualClock  — a monotone microsecond clock the device paces against.
//                   Pacing "sleeps" advance the clock instantly, so a paced
//                   schedule replays in virtual time: same submissions in,
//                   same modeled timeline out, at memory speed.
//   ChunkGate     — parks the dispatch thread at every chunk boundary (the
//                   chunk_hook seam, called outside the device mutex) until
//                   the test releases it. Tests single-step the chunk loop:
//                   hold the boundary, inject a probe or a joiner, release,
//                   observe the event stream. The destructor opens the gate
//                   so a failing test can still shut the server down.
//   PacingGate    — the same hold on the sleep_us seam of a paced device,
//                   over a VirtualClock: parks every pass (monolithic or
//                   chunked) after it executed, before it retires, so a
//                   test decides exactly what the next pass is formed from.
//   make_preempt_qnet / preempt_image — the same tiny quantized MLP zoo
//                   entries the shared-device suite uses (seeded, so
//                   schedules replay from a seed).
//
// Used by tests/test_preemption.cpp and tests/test_shared_device.cpp; any
// future SharedDevice scheduling test should build on these seams rather
// than wall-clock sleeps.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "nn/zoo.hpp"
#include "serve/shared_device.hpp"
#include "util/mutex.hpp"

namespace mfdfp::serve::testing {

/// Seeded tiny quantized MLP (3 x dim x dim in, 5 classes) — one cheap,
/// bit-reproducible tenant model per seed. Distinct `hw_dim`s give
/// geometry-incompatible tenants (the can't-join, must-preempt case).
inline hw::QNetDesc make_preempt_qnet(std::uint64_t seed,
                                      std::size_t hw_dim = 16) {
  util::Rng rng{seed};
  nn::ZooConfig config;
  config.in_channels = 3;
  config.in_h = config.in_w = hw_dim;
  config.num_classes = 5;
  config.width_multiplier = 0.2f;
  nn::Network net = nn::make_mlp(config, 12, rng);
  tensor::Tensor calibration{tensor::Shape{6, 3, hw_dim, hw_dim}};
  calibration.fill_uniform(rng, -1.0f, 1.0f);
  const quant::QuantSpec spec = quant::quantize_network(net, calibration);
  return hw::extract_qnet(net, spec, "test");
}

inline tensor::Tensor preempt_image(util::Rng& rng, std::size_t hw_dim = 16) {
  tensor::Tensor image{tensor::Shape{1, 3, hw_dim, hw_dim}};
  image.fill_uniform(rng, -1.0f, 1.0f);
  return image;
}

/// Sub-batches of `model` waiting in the device lanes right now, summed
/// over its tenants (replicas).
inline std::uint64_t queued_jobs(const SharedDevice& pu,
                                 const std::string& model) {
  std::uint64_t queued = 0;
  for (const SharedTenantRow& row : pu.snapshot().tenants) {
    if (row.model == model) queued += row.queued_jobs;
  }
  return queued;
}

/// Virtual microsecond clock for the SharedDeviceConfig::now_us/sleep_us
/// seams: monotone, advanced by pacing sleeps (instantly) and by tests.
/// Safe from any thread. The clock outlives the device it is bound to —
/// bind() captures `this`.
class VirtualClock {
 public:
  [[nodiscard]] std::int64_t now() const noexcept {
    return now_us_.load(std::memory_order_relaxed);
  }

  void advance(std::int64_t us) noexcept {
    now_us_.fetch_add(us, std::memory_order_relaxed);
  }

  /// Wires this clock into a device config: the dispatcher reads virtual
  /// time and its pacing sleeps become instant clock advances, so
  /// `paced = true` schedules replay deterministically with no wall delay.
  void bind(SharedDeviceConfig& config) {
    config.now_us = [this] { return now(); };
    config.sleep_us = [this](std::int64_t us) { advance(us); };
  }

 private:
  std::atomic<std::int64_t> now_us_{0};
};

/// Parks the dispatch thread at one of the device's seams until the test
/// releases it. Protocol (ChunkGate / PacingGate supply bind()):
///   gate.bind(config);            // before SharedDevice::create
///   auto e = gate.next();         // wait for a park (dispatcher held)
///   ... inject probes/joiners ... // dispatcher cannot move on
///   gate.release();               // let exactly one park pass
///   gate.open();                  // stop gating (always before shutdown)
template <typename Event>
class DispatcherGate {
 public:
  ~DispatcherGate() { open(); }

  /// Blocks until the dispatcher parks and returns the park's event. The
  /// dispatcher stays parked until release()/open().
  [[nodiscard]] Event next() {
    util::MutexLock lock(mutex_);
    arrived_.wait(mutex_, [this]() REQUIRES(mutex_) {
      return !events_.empty();
    });
    Event event = events_.front();
    events_.pop_front();
    return event;
  }

  /// next() with a deadline, so test loops stay hang-proof: returns
  /// std::nullopt if no park arrives within `timeout` (e.g. the device
  /// drained and there is nothing left to gate).
  [[nodiscard]] std::optional<Event> next_for(
      std::chrono::milliseconds timeout) {
    util::MutexLock lock(mutex_);
    if (!arrived_.wait_for(mutex_, timeout, [this]() REQUIRES(mutex_) {
          return !events_.empty();
        })) {
      return std::nullopt;
    }
    Event event = events_.front();
    events_.pop_front();
    return event;
  }

  /// Grants `n` permits: the parked dispatcher (and the next n-1 parks)
  /// proceed without further holds.
  void release(std::size_t n = 1) {
    {
      util::MutexLock lock(mutex_);
      permits_ += n;
    }
    released_.notify_all();
  }

  /// Stops gating permanently: the parked dispatcher and every later park
  /// proceed immediately. Call before server shutdown — a gated dispatcher
  /// cannot drain.
  void open() {
    {
      util::MutexLock lock(mutex_);
      open_ = true;
    }
    released_.notify_all();
  }

 protected:
  /// Called on the dispatch thread at the seam: records the event, then
  /// blocks until a permit (or open()) lets it continue.
  void park(const Event& event) {
    util::MutexLock lock(mutex_);
    events_.push_back(event);
    arrived_.notify_all();
    released_.wait(mutex_, [this]() REQUIRES(mutex_) {
      return open_ || permits_ > 0;
    });
    if (!open_) --permits_;
  }

 private:
  util::Mutex mutex_;
  util::CondVar arrived_;
  util::CondVar released_;
  std::deque<Event> events_ GUARDED_BY(mutex_);
  std::size_t permits_ GUARDED_BY(mutex_) = 0;
  bool open_ GUARDED_BY(mutex_) = false;
};

/// Parks the dispatcher at every chunk boundary of a preemptible pass (the
/// chunk_hook seam, called outside the device mutex).
class ChunkGate : public DispatcherGate<SharedDeviceChunkEvent> {
 public:
  void bind(SharedDeviceConfig& config) {
    config.chunk_hook = [this](const SharedDeviceChunkEvent& event) {
      park(event);
    };
  }
};

/// Parks the dispatcher in the pacing sleep of a paced device (the
/// sleep_us seam: once per monolithic pass, after it executed and before
/// it retires; once per chunk when preemptible; never for a pass whose
/// modeled cost truncates to 0 us), on a VirtualClock the sleep advances
/// first. The event is the modeled sleep, microseconds.
/// While parked, the pass's riders are still blocked and the next pass
/// is not formed yet, so a test can queue exactly that pass's work.
class PacingGate : public DispatcherGate<std::int64_t> {
 public:
  void bind(SharedDeviceConfig& config) {
    config.now_us = [this] { return clock_.now(); };
    config.sleep_us = [this](std::int64_t us) {
      clock_.advance(us);
      park(us);
    };
  }

 private:
  VirtualClock clock_;
};

}  // namespace mfdfp::serve::testing
