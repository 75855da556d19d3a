// Shared search-bookkeeping context used by the strategies and the [21]
// competitor re-implementations. Internal header.
#ifndef RDFVIEWS_VSEL_SEARCH_INTERNAL_H_
#define RDFVIEWS_VSEL_SEARCH_INTERNAL_H_

#include <optional>
#include <unordered_map>

#include "common/arena.h"
#include "common/hash.h"
#include "common/timer.h"
#include "vsel/cost_model.h"
#include "vsel/options.h"
#include "vsel/state.h"
#include "vsel/transitions.h"

namespace rdfviews::vsel {

struct SearchResult;

namespace internal {

extern const int kNumPhases;

/// The deterministic better-than order on (cost, fingerprint) pairs used by
/// every strategy (serial and parallel) to track the running best: lower
/// cost wins, equal costs are broken by the fixed fingerprint order. The
/// best of a fully explored space is therefore a function of the explored
/// *set*, not of the exploration schedule — the property the parallel
/// engine relies on to report identical bests at every thread count.
inline bool BetterState(double cost, const StateFingerprint& fp,
                        double best_cost, const StateFingerprint& best_fp) {
  return cost < best_cost ||
         (cost == best_cost && Hash128Less(fp, best_fp));
}

/// Arms the stop_var / stop_tt conditions the heuristics enable; a
/// condition already violated by S0 itself is disabled (Sec. 5.2). S0 (and
/// hence its AVF closure) therefore passes the armed conditions, and so does
/// every state a search admits from it.
inline StopConditions ArmStopConditions(const State& s0,
                                        const HeuristicOptions& heur) {
  StopConditions armed;
  armed.stop_var = heur.stop_var;
  armed.stop_tt = heur.stop_tt;
  constexpr StopConditions kVar{.stop_var = true};
  constexpr StopConditions kTt{.stop_tt = true};
  for (const View& v : s0.views()) {
    if (kVar.Rejects(v.def)) armed.stop_var = false;
    if (kTt.Rejects(v.def)) armed.stop_tt = false;
  }
  return armed;
}

/// Revisit rank for the DFS seen-set. Without a VB cap the stratum alone
/// orders revisits (rank == kind). With limits.max_vb_depth set, two DFS
/// visits of the same state also differ in power by the VB budget left
/// along their paths: a VB-stratum visit at depth d explores view breaks
/// capped at (max - d) and then every later stratum, and a VB-stratum
/// visit at d >= max skips straight to SC — behaviorally a stratum-1
/// visit. Collapsing (kind, vb_depth) onto this total order (reopen on a
/// strictly smaller rank) makes the reopening fixpoint — and therefore a
/// capped DFS's reachable set and best — independent of arrival order, so
/// serial and parallel capped runs that exhaust their space report the
/// same best at every thread count. `vb_depth` is the depth at which the
/// admitted state's own subtree will be explored (the child's depth, not
/// the parent's).
inline int DfsDedupRank(const SearchLimits& limits, int kind,
                        size_t vb_depth) {
  if (limits.max_vb_depth == 0) return kind;
  const int cap = static_cast<int>(limits.max_vb_depth);
  if (kind == static_cast<int>(TransitionKind::kVB)) {
    return vb_depth < limits.max_vb_depth ? static_cast<int>(vb_depth) : cap;
  }
  return cap - 1 + kind;
}

/// Bookkeeping shared by all strategies: duplicate detection (by the
/// incrementally maintained 128-bit state fingerprint, with stratum
/// re-opening), AVF closure, stop conditions, best state tracking and
/// budget enforcement.
class SearchContext {
 public:
  SearchContext(const CostModel* cost_model,
                const HeuristicOptions& heuristics,
                const SearchLimits& limits);

  void Init(const State& s0);

  /// True once the time or state budget is exceeded or a cooperative stop
  /// was requested (and records which).
  bool OutOfBudget();

  /// Records a best-cost improvement in the stats trace and forwards it to
  /// the limits.on_progress observer, if any.
  void NotifyBest(double cost);

  struct Admitted {
    State state;
    double cost;
  };

  /// Applies `t` to `parent` (an admitted state) and processes the
  /// successor, in this order: the stop test on the transition's new
  /// views, before the successor is built; AVF closure; duplicate
  /// detection; cost and best tracking. `phase` is the stratum (transition
  /// kind) that produced the state.
  std::optional<Admitted> Admit(const State& parent, const Transition& t,
                                int phase);

  SearchResult Finish(bool completed);

  const CostModel* cost;
  HeuristicOptions heur;
  SearchLimits limits;
  TransitionOptions topts;
  Deadline deadline;
  SearchStats stats;
  /// Backs the flat storage of every state this context's run creates
  /// (TryApplyTransition / AvfClosure route through it). Single-threaded by
  /// construction — one SearchContext per serial run. States escaping the
  /// run (the best) stay valid past the context: arena blocks are
  /// reference counted by the spans that live in them.
  Arena arena;
  // fingerprint -> min stratum at which the state was reached
  std::unordered_map<StateFingerprint, int, Hash128Hasher> seen;
  State best;
  /// The state the strategies explore from: S0, or its AVF closure when
  /// aggressive view fusion is on (VF only ever improves the cost, so the
  /// fused state dominates S0 and shrinks the space).
  State start;
  double best_cost = 0;
  /// Armed by Init against S0.
  StopConditions armed_stop;
};

}  // namespace internal
}  // namespace rdfviews::vsel

#endif  // RDFVIEWS_VSEL_SEARCH_INTERNAL_H_
