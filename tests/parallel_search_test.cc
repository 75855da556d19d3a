// The parallel search subsystem:
//  - serial-vs-parallel equivalence: on workloads the search exhausts, the
//    best state's (cost, fingerprint) is identical for num_threads in
//    {1, 2, 8}, for every strategy and seed (num_threads=1 is the serial
//    engine; >1 the worker-pool frontier engines);
//  - thread-safety stress for the sharded building blocks: the concurrent
//    fingerprint-keyed seen-set (insert/reopen semantics under contention)
//    and the sharded view interner (one consistent value per key, counter
//    accounting);
//  - budget accounting: no work after a pre-run stop, and elapsed_sec
//    covering the engine's teardown;
//  - the thread pool and the serial fallback of the [21] competitors.
#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/stop_token.h"
#include "common/timer.h"
#include "common/telemetry/metrics.h"
#include "common/thread_pool.h"
#include "rdf/statistics.h"
#include "rdfviews.h"  // umbrella header: must compile standalone
#include "test_util.h"
#include "vsel/parallel/concurrent_seen.h"
#include "vsel/parallel/sharded_frontier.h"

namespace rdfviews::vsel {
namespace {

using rdfviews::testing::RandomQuery;
using rdfviews::testing::RandomStore;

// ---- Serial-vs-parallel equivalence --------------------------------------

class ParallelEquivalenceTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUpWorkload(int seed) {
    store_ = RandomStore(&dict_, 80, 10, 4, static_cast<uint64_t>(seed));
    Rng rng(static_cast<uint64_t>(seed) * 13 + 5);
    workload_.clear();
    for (int i = 0; i < 2; ++i) {
      // 2 atoms keeps exhaustive search small enough to terminate.
      workload_.push_back(RandomQuery(store_, 2, 2, rng.raw()));
      workload_.back().set_name("q" + std::to_string(i));
    }
    stats_ = std::make_unique<rdf::Statistics>(&store_);
  }

  SearchResult Run(StrategyKind kind, bool avf, size_t num_threads) {
    // A fresh model per run: interner contents must not leak between the
    // serial and parallel runs being compared.
    CostModel model(stats_.get(), CostWeights{});
    State s0 = *MakeInitialState(workload_);
    HeuristicOptions heur;
    heur.avf = avf;
    SearchLimits limits;
    limits.time_budget_sec = 60;
    limits.num_threads = num_threads;
    auto r = RunSearch(kind, s0, model, heur, limits);
    if (!r.ok()) {
      ADD_FAILURE() << StrategyName(kind) << " threads=" << num_threads
                    << ": " << r.status().ToString();
      return SearchResult{};
    }
    EXPECT_TRUE(r->stats.completed);
    return *r;
  }

  rdf::Dictionary dict_;
  rdf::TripleStore store_;
  std::vector<cq::ConjunctiveQuery> workload_;
  std::unique_ptr<rdf::Statistics> stats_;
};

TEST_P(ParallelEquivalenceTest, BestStateIdenticalAcrossThreadCounts) {
  SetUpWorkload(GetParam());
  for (StrategyKind kind : {StrategyKind::kExNaive, StrategyKind::kExStr,
                            StrategyKind::kDfs, StrategyKind::kGstr}) {
    for (bool avf : {false, true}) {
      SearchResult serial = Run(kind, avf, 1);
      for (size_t threads : {size_t{2}, size_t{8}}) {
        SearchResult par = Run(kind, avf, threads);
        EXPECT_DOUBLE_EQ(serial.stats.best_cost, par.stats.best_cost)
            << StrategyName(kind) << " avf=" << avf << " threads=" << threads;
        EXPECT_EQ(serial.best.fingerprint(), par.best.fingerprint())
            << StrategyName(kind) << " avf=" << avf << " threads=" << threads;
      }
    }
  }
}

TEST_P(ParallelEquivalenceTest, ParallelExhaustiveAdmitsTheSerialStateSet) {
  SetUpWorkload(GetParam());
  // EXNAIVE has no stratum re-opening, so even the duplicate-adjusted
  // distinct count must match the serial engine exactly.
  SearchResult serial = Run(StrategyKind::kExNaive, false, 1);
  SearchResult par = Run(StrategyKind::kExNaive, false, 8);
  EXPECT_EQ(serial.stats.created - serial.stats.duplicates -
                serial.stats.discarded,
            par.stats.created - par.stats.duplicates - par.stats.discarded);
}

TEST_P(ParallelEquivalenceTest, CompetitorsFallBackToSerialUnderThreads) {
  SetUpWorkload(GetParam());
  SearchResult serial = Run(StrategyKind::kGreedy21, false, 1);
  SearchResult par = Run(StrategyKind::kGreedy21, false, 8);
  EXPECT_DOUBLE_EQ(serial.stats.best_cost, par.stats.best_cost);
  EXPECT_EQ(serial.best.fingerprint(), par.best.fingerprint());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEquivalenceTest,
                         ::testing::Values(401, 402, 403, 404));

// ---- Budget checks ahead of work -----------------------------------------

TEST(ParallelBudgetTest, StopBeforeRunAppliesAndEnumeratesNothing) {
  // A stop requested before the run must keep the exhaustive frontier
  // engines from popping, enumerating or applying anything: workers check
  // cancellation before PopBatch hands out an item and before an entry's
  // first enumeration. Counted in work, so no clock is involved.
  rdf::Dictionary dict;
  rdf::TripleStore store = RandomStore(&dict, 80, 10, 4, 401);
  Rng rng(401);
  std::vector<cq::ConjunctiveQuery> workload;
  for (int i = 0; i < 2; ++i) {
    workload.push_back(RandomQuery(store, 3, 2, rng.raw()));
    workload.back().set_name("q" + std::to_string(i));
  }
  rdf::Statistics stats(&store);
  telemetry::Counter* enumerated =
      telemetry::MetricsRegistry::Default()->GetCounter(
          "vsel_transitions_enumerated_total");
  for (StrategyKind kind : {StrategyKind::kExNaive, StrategyKind::kExStr}) {
    CostModel model(&stats, CostWeights{});
    State s0 = *MakeInitialState(workload);
    HeuristicOptions heur;  // no AVF: Init enumerates nothing either
    StopSource source;
    source.RequestStop();
    SearchLimits limits;
    limits.time_budget_sec = 0;
    limits.num_threads = 2;
    limits.stop = source.token();
    const uint64_t enumerated_before = enumerated->Value();
    auto r = RunSearch(kind, s0, model, heur, limits);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->stats.cancelled) << StrategyName(kind);
    EXPECT_FALSE(r->stats.completed) << StrategyName(kind);
    EXPECT_EQ(r->stats.transitions_applied, 0u) << StrategyName(kind);
    EXPECT_EQ(r->stats.explored, 0u) << StrategyName(kind);
    EXPECT_EQ(enumerated->Value(), enumerated_before) << StrategyName(kind);
  }
}

TEST(ParallelBudgetTest, ElapsedCoversEngineTeardown) {
  // stats.elapsed_sec is stamped after the engine's context, seen-set,
  // frontier and arena are destroyed, so a caller timing RunSearch sees
  // (almost) exactly the reported figure. A state cap, not a clock, sizes
  // the run.
  rdf::Dictionary dict;
  rdf::TripleStore store = RandomStore(&dict, 80, 10, 4, 402);
  Rng rng(402);
  std::vector<cq::ConjunctiveQuery> workload;
  for (int i = 0; i < 3; ++i) {
    workload.push_back(RandomQuery(store, 3, 2, rng.raw()));
    workload.back().set_name("q" + std::to_string(i));
  }
  rdf::Statistics stats(&store);
  for (StrategyKind kind :
       {StrategyKind::kExStr, StrategyKind::kGstr, StrategyKind::kDfs}) {
    for (size_t threads : {size_t{1}, size_t{2}}) {
      CostModel model(&stats, CostWeights{});
      State s0 = *MakeInitialState(workload);
      SearchLimits limits;
      limits.time_budget_sec = 0;
      limits.max_states = 3000;
      limits.num_threads = threads;
      const Stopwatch watch;
      auto r = RunSearch(kind, s0, model, HeuristicOptions{}, limits);
      const double wall = watch.ElapsedSeconds();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_LE(r->stats.elapsed_sec, wall);
      EXPECT_LE(wall - r->stats.elapsed_sec, std::max(0.005, 0.05 * wall))
          << StrategyName(kind) << " threads=" << threads << " wall=" << wall
          << " elapsed=" << r->stats.elapsed_sec;
    }
  }
}

// ---- Concurrent seen-set stress ------------------------------------------

TEST(ParallelSeenSetTest, InsertReopenSemantics) {
  parallel::ConcurrentSeenSet seen(8);
  StateFingerprint fp{1, 2};
  EXPECT_EQ(seen.AdmitAtPhase(fp, 2),
            parallel::ConcurrentSeenSet::Outcome::kInserted);
  EXPECT_EQ(seen.AdmitAtPhase(fp, 2),
            parallel::ConcurrentSeenSet::Outcome::kRejected);
  EXPECT_EQ(seen.AdmitAtPhase(fp, 3),
            parallel::ConcurrentSeenSet::Outcome::kRejected);
  EXPECT_EQ(seen.AdmitAtPhase(fp, 1),
            parallel::ConcurrentSeenSet::Outcome::kReopened);
  EXPECT_EQ(seen.AdmitAtPhase(fp, 1),
            parallel::ConcurrentSeenSet::Outcome::kRejected);
  EXPECT_EQ(seen.size(), 1u);
  seen.Insert(fp, 0);  // keeps the existing entry
  EXPECT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen.AdmitAtPhase(fp, 1),
            parallel::ConcurrentSeenSet::Outcome::kRejected);
}

TEST(ParallelSeenSetTest, StressExactDistinctCountUnderContention) {
  constexpr size_t kThreads = 8;
  constexpr uint64_t kDistinct = 2000;
  parallel::ConcurrentSeenSet seen(64);
  std::atomic<uint64_t> inserted{0};
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&seen, &inserted, w] {
      // Every thread walks the same fingerprint universe in a different
      // order, racing on every key.
      for (uint64_t i = 0; i < kDistinct; ++i) {
        uint64_t k = (i * (2 * w + 1)) % kDistinct;
        StateFingerprint fp{Mix64(k), Mix64(k + 1)};
        seen.AdmitAtPhase(fp, static_cast<int>(w % 4));
        StateFingerprint fresh{Mix64(w * kDistinct + i + 1000000), 7};
        if (seen.AdmitAtPhase(fresh, 0) ==
            parallel::ConcurrentSeenSet::Outcome::kInserted) {
          ++inserted;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // The shared universe contributes exactly kDistinct entries; the
  // per-thread fresh keys were each inserted exactly once.
  EXPECT_EQ(seen.size(), kDistinct + inserted.load());
  EXPECT_EQ(inserted.load(), kThreads * kDistinct);
  // After the dust settles the lowest offered phase (0) wins everywhere.
  for (uint64_t i = 0; i < kDistinct; ++i) {
    StateFingerprint fp{Mix64(i), Mix64(i + 1)};
    EXPECT_EQ(seen.AdmitAtPhase(fp, 0),
              parallel::ConcurrentSeenSet::Outcome::kRejected);
  }
}

// ---- Sharded interner stress ---------------------------------------------

TEST(ParallelInternerTest, StressConsistentValuesAndCounters) {
  rdf::Dictionary dict;
  rdf::TripleStore store = RandomStore(&dict, 60, 8, 4, 99);
  rdf::Statistics stats(&store);
  CostModel model(&stats, CostWeights{});

  // A pool of distinct views (distinct cost hashes) shared by all threads.
  std::vector<ViewPtr> views;
  for (int i = 0; i < 32; ++i) {
    cq::ConjunctiveQuery q = RandomQuery(store, 2, 2, 1000 + i);
    View v;
    v.id = static_cast<uint32_t>(i);
    v.def = std::move(q);
    views.push_back(MakeView(std::move(v)));
  }

  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 400;
  std::vector<std::thread> threads;
  std::vector<std::vector<double>> bytes(kThreads,
                                         std::vector<double>(views.size()));
  for (size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < views.size(); ++i) {
          size_t pick = (i + w * 5 + round) % views.size();
          double b = model.CachedViewBytes(*views[pick]);
          double c = model.CachedViewCardinality(*views[pick]);
          auto g = model.interner().Graph(*views[pick], [&] {
            return BuildViewGraph(*views[pick], 0);
          });
          if (round == 0) bytes[w][pick] = b;
          // Every thread must observe the one interned value and graph.
          if (b != bytes[w][pick]) ADD_FAILURE();
          if (c < 0) ADD_FAILURE();
          if (g == nullptr) ADD_FAILURE();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // All threads agree on every view's interned estimate.
  for (size_t w = 1; w < kThreads; ++w) {
    for (size_t i = 0; i < views.size(); ++i) {
      EXPECT_EQ(bytes[0][i], bytes[w][i]) << "view " << i;
    }
  }
  // Random queries may collide up to isomorphism; the interner keys on the
  // cost hash, so the expected distinct count is over those.
  std::unordered_set<Hash128, Hash128Hasher> distinct;
  for (const ViewPtr& v : views) distinct.insert(v->CostHash());
  EXPECT_EQ(model.interner().NumDistinctViews(), distinct.size());
  const ViewInterner::Counters& c = model.interner().counters();
  const uint64_t calls = kThreads * kRounds * views.size();
  // Racing first sights may compute a key more than once, but every call is
  // accounted as exactly one hit or one compute, and computes can never
  // exceed one per (thread, key).
  EXPECT_EQ(c.bytes_hits + c.bytes_computed, calls);
  EXPECT_GE(c.bytes_computed, distinct.size());
  EXPECT_LE(c.bytes_computed, kThreads * distinct.size());
}

// ---- Sharded frontier + thread pool --------------------------------------

TEST(ParallelThreadPoolTest, RunsAllTasksAndWaitsIdle) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { ++done; });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 100);
  // The pool is reusable after WaitIdle (the GSTR stratum barrier pattern).
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&done] { ++done; });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 150);
}

TEST(ParallelFrontierTest, DrainsEverythingAndQuiesces) {
  parallel::ShardedFrontier<uint64_t> frontier(16);
  constexpr uint64_t kSeeds = 64;
  // Each item < kSeeds * 8 spawns two children; counts the full binary
  // closure, exercising push-while-popping and the quiescence detection.
  std::atomic<uint64_t> processed{0};
  for (uint64_t i = 0; i < kSeeds; ++i) frontier.Push(i, i);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < 8; ++w) {
    threads.emplace_back([&frontier, &processed, w] {
      std::vector<uint64_t> batch;
      for (;;) {
        batch.clear();
        size_t n =
            frontier.PopBatch(w, 4, &batch, [] { return false; });
        if (n == 0) return;
        for (uint64_t item : batch) {
          ++processed;
          if (item < kSeeds * 8) {
            frontier.Push(item, item * 2 + kSeeds);
            frontier.Push(item + 1, item * 2 + kSeeds + 1);
          }
        }
        frontier.TaskDone(n);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Quiescence implies every pushed item was processed; the exact count is
  // the closure size, which is deterministic.
  uint64_t expected = 0;
  std::vector<uint64_t> stack;
  for (uint64_t i = 0; i < kSeeds; ++i) stack.push_back(i);
  while (!stack.empty()) {
    uint64_t item = stack.back();
    stack.pop_back();
    ++expected;
    if (item < kSeeds * 8) {
      stack.push_back(item * 2 + kSeeds);
      stack.push_back(item * 2 + kSeeds + 1);
    }
  }
  EXPECT_EQ(processed.load(), expected);
}

// ---- Statistics snapshot / precompute ------------------------------------

TEST(ParallelStatisticsTest, PrecomputeSnapshotWarm) {
  rdf::Dictionary dict;
  rdf::TripleStore store = RandomStore(&dict, 100, 10, 4, 7);
  rdf::Statistics stats(&store);
  EXPECT_EQ(stats.cache_size(), 0u);

  cq::ConjunctiveQuery q = RandomQuery(store, 3, 2, 11);
  std::vector<rdf::Pattern> patterns;
  for (const cq::Atom& a : q.atoms()) patterns.push_back(a.ToPattern());
  stats.Precompute(patterns);
  const size_t warm = stats.cache_size();
  EXPECT_GT(warm, 0u);

  // The snapshot replays into a fresh instance without rescanning: counts
  // are identical and the cache starts warm.
  rdf::StatisticsSnapshot snap = stats.Snapshot();
  EXPECT_EQ(snap.size(), warm);
  rdf::Statistics fresh(&store);
  fresh.Warm(snap);
  EXPECT_EQ(fresh.cache_size(), warm);
  for (const rdf::Pattern& p : patterns) {
    EXPECT_EQ(fresh.CountPattern(p), stats.CountPattern(p));
  }

  // Concurrent counting over a shared instance settles on the same values.
  rdf::Statistics shared(&store);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < 8; ++w) {
    threads.emplace_back([&shared, &patterns] {
      for (int round = 0; round < 50; ++round) {
        for (const rdf::Pattern& p : patterns) shared.CountPattern(p);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const rdf::Pattern& p : patterns) {
    EXPECT_EQ(shared.CountPattern(p), stats.CountPattern(p));
  }
}

}  // namespace
}  // namespace rdfviews::vsel
