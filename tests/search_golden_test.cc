// Golden pin of the search's observable outcome on one seeded Fig. 7
// instance (post-reformulation over a Barton store with its RDFS schema,
// AVF + stop_var on): the best cost and best-state fingerprint, and the
// counters that do not depend on when the stop test runs — duplicate
// sightings, transitions applied, and live states (created - duplicates -
// discarded). Any change to transition application, stop-condition
// filtering or AVF that alters which states the search admits, or in which
// order, moves one of these numbers. They were recorded while the stop test
// still ran on the fully built, AVF-closed successor; moving it ahead of
// successor construction and AVF must leave every one of them unchanged.
#include <gtest/gtest.h>

#include "vsel/selector.h"
#include "workload/barton.h"
#include "workload/generator.h"

namespace rdfviews::vsel {
namespace {

struct Golden {
  double best_cost;
  uint64_t fp_lo;
  uint64_t fp_hi;
  uint64_t duplicates;
  uint64_t transitions_applied;
  uint64_t live;
};

void ExpectGolden(const Golden& got, const Golden& want) {
  EXPECT_EQ(got.best_cost, want.best_cost);  // bit-identical
  EXPECT_EQ(got.fp_lo, want.fp_lo);
  EXPECT_EQ(got.fp_hi, want.fp_hi);
  EXPECT_EQ(got.duplicates, want.duplicates);
  EXPECT_EQ(got.transitions_applied, want.transitions_applied);
  EXPECT_EQ(got.live, want.live);
}

class SearchGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    barton_ = workload::BuildBartonSchema(&dict_);
    workload::BartonDataOptions data;
    data.num_triples = 4000;
    data.seed = 7;
    store_ = workload::GenerateBartonData(barton_, &dict_, data);
  }

  std::vector<cq::ConjunctiveQuery> Queries(size_t n, size_t atoms) {
    workload::WorkloadSpec spec;
    spec.num_queries = n;
    spec.atoms_per_query = atoms;
    spec.shape = workload::QueryShape::kMixed;
    spec.commonality = workload::Commonality::kHigh;
    spec.seed = 7;
    return workload::GenerateSatisfiableWorkload(spec, store_, &dict_);
  }

  Golden Run(const std::vector<cq::ConjunctiveQuery>& queries,
             StrategyKind strategy, size_t threads, size_t max_states) {
    TuningConfig options;
    options.strategy = strategy;
    options.entailment = EntailmentMode::kPostReformulate;
    options.partition.enabled = false;  // one search over the workload
    options.limits.time_budget_sec = 0;
    options.limits.max_states = max_states;
    options.limits.num_threads = threads;
    ViewSelector selector(&store_, &dict_, &barton_.schema);
    Result<Recommendation> rec = selector.Recommend(queries, options);
    EXPECT_TRUE(rec.ok()) << rec.status().ToString();
    if (!rec.ok()) return Golden{};
    const SearchStats& s = rec->stats;
    const StateFingerprint& fp = rec->best_state.fingerprint();
    return Golden{s.best_cost,
                  fp.lo,
                  fp.hi,
                  s.duplicates,
                  s.transitions_applied,
                  s.created - s.duplicates - s.discarded};
  }

  rdf::Dictionary dict_;
  workload::BartonSchema barton_;
  rdf::TripleStore store_;
};

TEST_F(SearchGoldenTest, CappedSerialDfs) {
  std::vector<cq::ConjunctiveQuery> q = Queries(3, 5);
  ASSERT_EQ(q.size(), 3u);
  ExpectGolden(Run(q, StrategyKind::kDfs, 1, 3000),
               {45.550513486690349, 0xf28310666e61b3bbull,
                0x17c5689e26bd27a0ull, 6641, 26701, 2999});
}

// Uncapped, so the frontier engine's run completes and its counters do not
// depend on the schedule.
TEST_F(SearchGoldenTest, TwoThreadGstr) {
  std::vector<cq::ConjunctiveQuery> q = Queries(2, 4);
  ASSERT_EQ(q.size(), 2u);
  ExpectGolden(Run(q, StrategyKind::kGstr, 2, 0),
               {32.692131196465326, 0x9232ea0a49417eafull,
                0xa39183185cd8ad39ull, 10366, 13742, 2875});
}

}  // namespace
}  // namespace rdfviews::vsel
