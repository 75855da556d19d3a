#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <unordered_map>

#include "engine/executor.h"
#include "common/logging.h"
#include "engine/materializer.h"
#include "test_util.h"
#include "vsel/transitions.h"

namespace rdfviews::vsel {
namespace {

using rdfviews::testing::MustParse;
using rdfviews::testing::PaintersFixture;
using rdfviews::testing::RandomQuery;
using rdfviews::testing::RandomStore;

void ExpectStateAnswersWorkload(
    const State& state, const std::vector<cq::ConjunctiveQuery>& workload,
    const rdf::TripleStore& store, const std::string& context) {
  std::map<uint32_t, engine::Relation> mats;
  for (const View& v : state.views()) {
    mats[v.id] = engine::MaterializeView(v.def, v.Columns(), store);
  }
  auto resolver = [&](uint32_t id) -> const engine::Relation& {
    return mats.at(id);
  };
  for (size_t i = 0; i < workload.size(); ++i) {
    engine::Relation got = engine::Execute(*state.rewritings()[i], resolver);
    got.DedupRows();
    engine::Relation expected = engine::EvaluateQuery(workload[i], store);
    EXPECT_TRUE(expected.SameRowsAs(got))
        << context << "\nquery " << i << ": " << workload[i].ToString()
        << "\nstate:\n"
        << state.ToString();
  }
}

// ----------------------------------------------------------- Selection Cut

TEST(TransitionTest, SelectionCutAddsHeadVarAndSelection) {
  rdf::Dictionary dict;
  auto workload = std::vector<cq::ConjunctiveQuery>{
      MustParse("q(X) :- t(X, hasPainted, starryNight)", &dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  std::vector<Transition> scs =
      EnumerateTransitions(s0, TransitionKind::kSC, topts);
  ASSERT_EQ(scs.size(), 2u);  // property + object constants
  // Cut the object constant.
  State s1 = ApplyTransition(s0, scs[1]);
  ASSERT_EQ(s1.views().size(), 1u);
  EXPECT_EQ(s1.views()[0].def.head().size(), 2u);
  EXPECT_EQ(s1.views()[0].def.NumConstants(), 1u);
}

TEST(TransitionTest, SelectionCutPreservesAnswers) {
  PaintersFixture fx;
  auto workload = std::vector<cq::ConjunctiveQuery>{MustParse(
      "q(X) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y)",
      &fx.dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  for (const Transition& t :
       EnumerateTransitions(s0, TransitionKind::kSC, topts)) {
    State s1 = ApplyTransition(s0, t);
    ExpectStateAnswersWorkload(s1, workload, fx.store, t.ToString());
  }
}

// ----------------------------------------------------------------- Join Cut

TEST(TransitionTest, JoinCutSplitsDisconnectedView) {
  rdf::Dictionary dict;
  auto workload = std::vector<cq::ConjunctiveQuery>{
      MustParse("q(Y, Z) :- t(X, Y, c1), t(X, Z, c2)", &dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  std::vector<Transition> jcs =
      EnumerateTransitions(s0, TransitionKind::kJC, topts);
  ASSERT_EQ(jcs.size(), 2u);  // one edge, two orientations
  State s1 = ApplyTransition(s0, jcs[0]);
  EXPECT_EQ(s1.views().size(), 2u);  // the view split (Figure 3, V1)
  for (const View& v : s1.views()) {
    EXPECT_EQ(v.def.len(), 1u);
    EXPECT_EQ(v.def.head().size(), 2u);
  }
}

TEST(TransitionTest, JoinCutKeepsConnectedViewWithSelection) {
  rdf::Dictionary dict;
  // Triangle: cutting one edge leaves the view connected.
  auto workload = std::vector<cq::ConjunctiveQuery>{MustParse(
      "q(X) :- t(X, p1, Y), t(Y, p2, Z), t(Z, p3, X)", &dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  std::vector<Transition> jcs =
      EnumerateTransitions(s0, TransitionKind::kJC, topts);
  EXPECT_EQ(jcs.size(), 6u);  // 3 edges x 2 orientations
  State s1 = ApplyTransition(s0, jcs[0]);
  EXPECT_EQ(s1.views().size(), 1u);
  // The fresh variable joined the head along with the cut variable.
  EXPECT_GE(s1.views()[0].def.head().size(), 3u);
}

TEST(TransitionTest, JoinCutPreservesAnswersBothCases) {
  PaintersFixture fx;
  auto workload = std::vector<cq::ConjunctiveQuery>{
      MustParse("q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)",
                &fx.dict),
      MustParse("q2(X) :- t(X, hasPainted, Y), t(X, isParentOf, Z)",
                &fx.dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  for (const Transition& t :
       EnumerateTransitions(s0, TransitionKind::kJC, topts)) {
    State s1 = ApplyTransition(s0, t);
    ExpectStateAnswersWorkload(s1, workload, fx.store, t.ToString());
  }
}

TEST(TransitionTest, JoinCutOnIntraAtomEdge) {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  rdf::TermId p = dict.Intern("p");
  store.Add(dict.Intern("a"), p, dict.Intern("a"));
  store.Add(dict.Intern("b"), p, dict.Intern("c"));
  store.Build(&dict);
  auto workload = std::vector<cq::ConjunctiveQuery>{
      MustParse("q(X) :- t(X, p, X)", &dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  std::vector<Transition> jcs =
      EnumerateTransitions(s0, TransitionKind::kJC, topts);
  ASSERT_EQ(jcs.size(), 2u);
  for (const Transition& t : jcs) {
    State s1 = ApplyTransition(s0, t);
    EXPECT_EQ(s1.views().size(), 1u);
    ExpectStateAnswersWorkload(s1, workload, store, t.ToString());
  }
}

// --------------------------------------------------------------- View Break

TEST(TransitionTest, ViewBreakRequiresThreeAtoms) {
  rdf::Dictionary dict;
  auto workload = std::vector<cq::ConjunctiveQuery>{
      MustParse("q(X, Z) :- t(X, p, Y), t(Y, q, Z)", &dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  EXPECT_TRUE(EnumerateTransitions(s0, TransitionKind::kVB, topts).empty());
}

TEST(TransitionTest, ViewBreakPartitionsAndOverlaps) {
  rdf::Dictionary dict;
  auto workload = std::vector<cq::ConjunctiveQuery>{MustParse(
      "q(X, Z) :- t(X, p1, Y), t(Y, p2, Z), t(Z, p3, W)", &dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions partition_only;
  partition_only.vb_overlap = 0;
  std::vector<Transition> parts =
      EnumerateTransitions(s0, TransitionKind::kVB, partition_only);
  // Chain of 3: {0}/{1,2} and {0,1}/{2} are the connected partitions.
  EXPECT_EQ(parts.size(), 2u);
  TransitionOptions with_overlap;  // default overlap 1
  std::vector<Transition> all =
      EnumerateTransitions(s0, TransitionKind::kVB, with_overlap);
  EXPECT_GT(all.size(), parts.size());
}

TEST(TransitionTest, ViewBreakPreservesAnswers) {
  PaintersFixture fx;
  auto workload = std::vector<cq::ConjunctiveQuery>{MustParse(
      "q1(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), "
      "t(Y, hasPainted, Z)",
      &fx.dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  std::vector<Transition> vbs =
      EnumerateTransitions(s0, TransitionKind::kVB, topts);
  EXPECT_GT(vbs.size(), 0u);
  for (const Transition& t : vbs) {
    State s1 = ApplyTransition(s0, t);
    EXPECT_EQ(s1.views().size(), 2u);
    ExpectStateAnswersWorkload(s1, workload, fx.store, t.ToString());
  }
}

// --------------------------------------------------------------- View Fusion

TEST(TransitionTest, ViewFusionMergesIsomorphicBodies) {
  rdf::Dictionary dict;
  auto workload = std::vector<cq::ConjunctiveQuery>{
      MustParse("q1(X) :- t(X, p, Y)", &dict),
      MustParse("q2(B) :- t(A, p, B)", &dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  std::vector<Transition> vfs =
      EnumerateTransitions(s0, TransitionKind::kVF, topts);
  ASSERT_EQ(vfs.size(), 1u);
  State s1 = ApplyTransition(s0, vfs[0]);
  EXPECT_EQ(s1.views().size(), 1u);
  // Fused head covers both original heads: subject (q1) and object (q2).
  EXPECT_EQ(s1.views()[0].def.head().size(), 2u);
}

TEST(TransitionTest, ViewFusionPreservesAnswers) {
  PaintersFixture fx;
  auto workload = std::vector<cq::ConjunctiveQuery>{
      MustParse("q1(X) :- t(X, hasPainted, Y)", &fx.dict),
      MustParse("q2(B) :- t(A, hasPainted, B)", &fx.dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  std::vector<Transition> vfs =
      EnumerateTransitions(s0, TransitionKind::kVF, topts);
  ASSERT_EQ(vfs.size(), 1u);
  State s1 = ApplyTransition(s0, vfs[0]);
  ExpectStateAnswersWorkload(s1, workload, fx.store, "VF");
}

TEST(TransitionTest, NoFusionForDifferentConstants) {
  rdf::Dictionary dict;
  auto workload = std::vector<cq::ConjunctiveQuery>{
      MustParse("q1(X) :- t(X, p, c1)", &dict),
      MustParse("q2(X) :- t(X, p, c2)", &dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  EXPECT_TRUE(EnumerateTransitions(s0, TransitionKind::kVF, topts).empty());
}

TEST(TransitionTest, AvfClosureFusesAll) {
  rdf::Dictionary dict;
  auto workload = std::vector<cq::ConjunctiveQuery>{
      MustParse("q1(X) :- t(X, p, Y)", &dict),
      MustParse("q2(X) :- t(X, p, Y)", &dict),
      MustParse("q3(Y) :- t(X, p, Y)", &dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;
  size_t steps = 0;
  State closed = AvfClosure(s0, topts, &steps);
  EXPECT_EQ(closed.views().size(), 1u);
  EXPECT_EQ(steps, 2u);
  EXPECT_EQ(closed.rewritings().size(), 3u);
}

// ------------------------------------------------ Figure 1 walkthrough

TEST(TransitionTest, Figure1Walkthrough) {
  PaintersFixture fx;
  auto workload = std::vector<cq::ConjunctiveQuery>{MustParse(
      "q1(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), "
      "t(Y, hasPainted, Z)",
      &fx.dict)};
  State s0 = *MakeInitialState(workload);
  TransitionOptions topts;

  // S0 -> S1: overlapping view break v2 = {n1, n2}, v3 = {n2, n3}.
  Transition vb;
  vb.kind = TransitionKind::kVB;
  vb.view_idx = 0;
  vb.vb_mask_a = 0b011;
  vb.vb_mask_b = 0b110;
  State s1 = ApplyTransition(s0, vb);
  ASSERT_EQ(s1.views().size(), 2u);
  ExpectStateAnswersWorkload(s1, workload, fx.store, "S1");

  // S1 -> S2: selection cut on the starryNight constant of v2.
  std::vector<Transition> scs =
      EnumerateTransitions(s1, TransitionKind::kSC, topts);
  rdf::TermId starry = *fx.dict.Find("starryNight");
  Transition sc;
  bool found = false;
  for (const Transition& t : scs) {
    const View& v = s1.views()[t.view_idx];
    cq::Term term =
        v.def.atoms()[t.sc_occurrence.atom].at(t.sc_occurrence.column);
    if (term.is_const() && term.constant() == starry) {
      sc = t;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  State s2 = ApplyTransition(s1, sc);
  ExpectStateAnswersWorkload(s2, workload, fx.store, "S2");

  // S2 -> S3: two join cuts split both 2-atom views into 4 single-atom
  // views (v5, v6, v7, v8 in the paper).
  State s3 = s2;
  for (int round = 0; round < 2; ++round) {
    std::vector<Transition> jcs =
        EnumerateTransitions(s3, TransitionKind::kJC, topts);
    bool applied = false;
    for (const Transition& t : jcs) {
      if (s3.views()[t.view_idx].def.len() == 2) {
        s3 = ApplyTransition(s3, t);
        applied = true;
        break;
      }
    }
    ASSERT_TRUE(applied);
  }
  ASSERT_EQ(s3.views().size(), 4u);
  ExpectStateAnswersWorkload(s3, workload, fx.store, "S3");

  // S3 -> S4: two view fusions (v5~v8 hasPainted, v6~v7 isParentOf).
  size_t steps = 0;
  State s4 = AvfClosure(s3, topts, &steps);
  EXPECT_EQ(steps, 2u);
  EXPECT_EQ(s4.views().size(), 2u);
  ExpectStateAnswersWorkload(s4, workload, fx.store, "S4");
}

// ---------------------------- Random-walk equivalence (the key invariant)

/// A random transition walk from a random two-query workload: S0 and up to
/// ten successors, each made by one transition drawn uniformly from all the
/// applicable ones.
struct RandomWalk {
  explicit RandomWalk(int seed) {
    store = RandomStore(&dict, 60, 10, 4, seed);
    Rng rng(seed * 7 + 3);
    for (int i = 0; i < 2; ++i) {
      workload.push_back(RandomQuery(store, 2 + rng.Below(3), 2, rng.raw()));
      workload.back().set_name("q" + std::to_string(i));
    }
    Result<State> s0 = MakeInitialState(workload);
    RDFVIEWS_CHECK_MSG(s0.ok(), s0.status().ToString());
    states.push_back(*s0);
    for (int step = 0; step < 10; ++step) {
      std::vector<Transition> all = AllTransitions(states.back());
      if (all.empty()) break;
      const Transition& t = all[rng.Below(all.size())];
      states.push_back(ApplyTransition(states.back(), t));
      labels.push_back("step " + std::to_string(step) + " " + t.ToString());
    }
  }

  static std::vector<Transition> AllTransitions(const State& s) {
    std::vector<Transition> all;
    for (TransitionKind kind :
         {TransitionKind::kVB, TransitionKind::kSC, TransitionKind::kJC,
          TransitionKind::kVF}) {
      std::vector<Transition> ts =
          EnumerateTransitions(s, kind, TransitionOptions{});
      all.insert(all.end(), ts.begin(), ts.end());
    }
    return all;
  }

  rdf::Dictionary dict;
  rdf::TripleStore store;
  std::vector<cq::ConjunctiveQuery> workload;
  std::vector<State> states;       // S0 first
  std::vector<std::string> labels;  // labels[i] made states[i + 1]
};

/// The VF enumeration as it was before the body-hash pre-check: every state
/// buckets its views by body string.
std::vector<Transition> StringBucketVf(const State& state) {
  std::vector<Transition> out;
  std::unordered_map<std::string, std::vector<uint32_t>> by_body;
  for (uint32_t vi = 0; vi < state.views().size(); ++vi) {
    by_body[state.views()[vi].BodyKey()].push_back(vi);
  }
  for (const auto& [body, group] : by_body) {
    for (size_t i = 0; i < group.size(); ++i) {
      for (size_t j = i + 1; j < group.size(); ++j) {
        Transition t;
        t.kind = TransitionKind::kVF;
        t.view_idx = group[i];
        t.view_idx2 = group[j];
        out.push_back(t);
      }
    }
  }
  return out;
}

constexpr StopConditions kStopVar{.stop_var = true};
constexpr StopConditions kStopTt{.stop_tt = true};
constexpr StopConditions kStopBoth{.stop_var = true, .stop_tt = true};

class TransitionWalkTest : public ::testing::TestWithParam<int> {};

TEST_P(TransitionWalkTest, RandomTransitionWalksPreserveEquivalence) {
  RandomWalk walk(GetParam());
  for (size_t i = 1; i < walk.states.size(); ++i) {
    ExpectStateAnswersWorkload(walk.states[i], walk.workload, walk.store,
                               walk.labels[i - 1]);
  }
}

TEST_P(TransitionWalkTest, PreApplyStopTestMatchesTheFullStateTest) {
  // From any state that passes a set of stop conditions, an SC/JC/VB
  // transition is rejected before the successor is built exactly when the
  // built successor fails the full-state test; an admitted successor is
  // the one ApplyTransition builds.
  RandomWalk walk(GetParam());
  size_t checked = 0;
  size_t rejected = 0;
  for (const State& s : walk.states) {
    for (const StopConditions& stop : {kStopVar, kStopTt, kStopBoth}) {
      if (stop.Rejects(s)) continue;  // searches only expand passing states
      for (const Transition& t : RandomWalk::AllTransitions(s)) {
        if (t.kind == TransitionKind::kVF) continue;
        State full = ApplyTransition(s, t);
        std::optional<State> pre = TryApplyTransition(s, t, stop);
        EXPECT_EQ(!pre.has_value(), stop.Rejects(full)) << t.ToString();
        if (!pre.has_value()) ++rejected;
        if (pre.has_value()) {
          EXPECT_EQ(pre->fingerprint(), full.fingerprint()) << t.ToString();
          EXPECT_EQ(pre->ToString(), full.ToString()) << t.ToString();
        }
        ++checked;
      }
    }
  }
  // Both verdicts occur on every seed's walk.
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, checked);
}

TEST_P(TransitionWalkTest, AvfClosurePreservesBothStopPredicates) {
  // The stop test may run before AVF: fusing views keeps every view body
  // up to isomorphism, and both predicates read only the body.
  RandomWalk walk(GetParam());
  for (const State& s : walk.states) {
    for (const Transition& t : RandomWalk::AllTransitions(s)) {
      State next = ApplyTransition(s, t);
      size_t steps = 0;
      State closed = AvfClosure(next, TransitionOptions{}, &steps);
      EXPECT_EQ(kStopVar.Rejects(next), kStopVar.Rejects(closed))
          << t.ToString() << ", " << steps << " fusions";
      EXPECT_EQ(kStopTt.Rejects(next), kStopTt.Rejects(closed))
          << t.ToString() << ", " << steps << " fusions";
    }
  }
}

TEST_P(TransitionWalkTest, VfScanMatchesTheStringBucketScan) {
  RandomWalk walk(GetParam());
  auto expect_same = [](const State& s, const std::string& context) {
    std::vector<Transition> got =
        EnumerateTransitions(s, TransitionKind::kVF, TransitionOptions{});
    std::vector<Transition> want = StringBucketVf(s);
    ASSERT_EQ(got.size(), want.size()) << context;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].view_idx, want[i].view_idx) << context << " #" << i;
      EXPECT_EQ(got[i].view_idx2, want[i].view_idx2) << context << " #" << i;
    }
  };
  for (const State& s : walk.states) {
    expect_same(s, "walk state");
    for (const Transition& t : RandomWalk::AllTransitions(s)) {
      expect_same(ApplyTransition(s, t), t.ToString());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransitionWalkTest,
                         ::testing::Values(21, 42, 63, 84, 105, 126, 147,
                                           168));

}  // namespace
}  // namespace rdfviews::vsel
