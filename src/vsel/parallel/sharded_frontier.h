// Sharded work frontier for the parallel search strategies.
//
// Items live in per-shard deques addressed by a caller-provided hint (the
// engines use the state fingerprint's low bits, so a state's frontier home
// is deterministic). A worker pops a batch from its home shard first and
// steals from the others when its home is dry, which keeps lock traffic at
// one shard mutex per batch in the common case.
//
// Termination is cooperative: `pending` counts items that were pushed but
// whose processing has not been confirmed via TaskDone(). PopBatch returns
// 0 only when the frontier has quiesced (no items anywhere and nothing in
// flight, so nothing can be pushed anymore) or the search was cancelled —
// exactly the two ways a strategy's expansion loop ends.
#ifndef RDFVIEWS_VSEL_PARALLEL_SHARDED_FRONTIER_H_
#define RDFVIEWS_VSEL_PARALLEL_SHARDED_FRONTIER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/telemetry/metrics.h"

namespace rdfviews::vsel::parallel {

/// Live metric sinks for a frontier. All pointers are optional; when set
/// they are updated incrementally as events happen (not at run retirement),
/// so a concurrent TelemetrySnapshot() observes mid-run steal counts and
/// starvation gauges.
struct FrontierMetrics {
  telemetry::Counter* steals = nullptr;          // +1 per stolen batch
  telemetry::Gauge* waiting_workers = nullptr;   // workers blocked in PopBatch
};

template <typename T>
class ShardedFrontier {
 public:
  /// `num_shards` is rounded up to a power of two.
  explicit ShardedFrontier(size_t num_shards, FrontierMetrics metrics = {})
      : metrics_(metrics) {
    size_t n = 1;
    while (n < num_shards) n <<= 1;
    mask_ = n - 1;
    shards_ = std::make_unique<Shard[]>(n);
  }

  void Push(size_t shard_hint, T item) {
    // Count before publishing: if the item became visible first, a racing
    // consumer could pop and TaskDone it before this increment, driving
    // `pending` to zero with work still outstanding and releasing sleeping
    // workers early.
    pending_.fetch_add(1, std::memory_order_acq_rel);
    queued_.fetch_add(1, std::memory_order_relaxed);
    Shard& sh = shards_[shard_hint & mask_];
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      sh.items.push_back(std::move(item));
    }
    wake_.notify_one();
  }

  /// Pops up to `max_batch` items, preferring the shard `home & mask`.
  /// Blocks until items arrive, the frontier quiesces, or `cancelled`
  /// returns true; returns the number of items appended to `out` (0 means
  /// "done"). Cancellation is checked before any item is handed out, so a
  /// cancelled search stops draining a frontier that still holds work.
  /// The caller must invoke TaskDone() once per popped item after
  /// processing it (including any Pushes its processing performs).
  size_t PopBatch(size_t home, size_t max_batch, std::vector<T>* out,
                  const std::function<bool()>& cancelled) {
    for (;;) {
      if (cancelled()) return 0;
      for (size_t i = 0; i <= mask_; ++i) {
        Shard& sh = shards_[(home + i) & mask_];
        std::lock_guard<std::mutex> lock(sh.mu);
        size_t got = 0;
        while (got < max_batch && !sh.items.empty()) {
          out->push_back(std::move(sh.items.front()));
          sh.items.pop_front();
          ++got;
        }
        if (got > 0) {
          queued_.fetch_sub(got, std::memory_order_relaxed);
          if (i > 0) {
            steals_.fetch_add(1, std::memory_order_relaxed);
            if (metrics_.steals != nullptr) metrics_.steals->Add(1);
          }
          return got;
        }
      }
      if (pending_.load(std::memory_order_acquire) == 0) return 0;
      // Nothing visible but work is in flight: its processor may push more.
      // Sleep briefly; Push wakes us early, the timeout re-checks
      // cancellation (budget exhaustion is latched by processing workers).
      // While asleep this worker counts as waiting — the signal producers
      // consult (via Starving()) to decide whether to donate subtrees.
      const size_t waiting_now =
          waiting_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (metrics_.waiting_workers != nullptr) {
        metrics_.waiting_workers->Set(static_cast<int64_t>(waiting_now));
      }
      {
        std::unique_lock<std::mutex> lock(wake_mu_);
        wake_.wait_for(lock, std::chrono::milliseconds(1));
      }
      const size_t waiting_after =
          waiting_.fetch_sub(1, std::memory_order_relaxed) - 1;
      if (metrics_.waiting_workers != nullptr) {
        metrics_.waiting_workers->Set(static_cast<int64_t>(waiting_after));
      }
    }
  }

  /// Confirms the completion of `n` popped items. When the last in-flight
  /// item completes without having pushed successors, the frontier has
  /// quiesced and every sleeping worker is woken to exit.
  void TaskDone(size_t n = 1) {
    if (pending_.fetch_sub(n, std::memory_order_acq_rel) == n) {
      wake_.notify_all();
    }
  }

  /// Batches served from a non-home shard (work stealing events).
  uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }

  /// True when at least one worker is blocked waiting for work and no
  /// queued item could feed it. Producers deep in a serial recursion use
  /// this as the donation trigger: a relaxed heuristic read — it may be
  /// stale by the time the donor pushes, which only costs one extra (or one
  /// missed) donation, never correctness.
  bool Starving() const {
    return waiting_.load(std::memory_order_relaxed) > 0 &&
           queued_.load(std::memory_order_relaxed) == 0;
  }

  /// Items currently queued in shards (pushed, not yet popped).
  size_t queued() const { return queued_.load(std::memory_order_relaxed); }

 private:
  struct alignas(64) Shard {
    std::mutex mu;
    std::deque<T> items;
  };

  std::unique_ptr<Shard[]> shards_;
  size_t mask_ = 0;
  FrontierMetrics metrics_;
  std::atomic<size_t> pending_{0};
  std::atomic<size_t> queued_{0};
  std::atomic<size_t> waiting_{0};
  std::atomic<uint64_t> steals_{0};
  std::mutex wake_mu_;
  std::condition_variable wake_;
};

}  // namespace rdfviews::vsel::parallel

#endif  // RDFVIEWS_VSEL_PARALLEL_SHARDED_FRONTIER_H_
