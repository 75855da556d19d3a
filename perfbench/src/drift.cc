// session_drift: one TuningSession over a persistent directory cache while
// the workload drifts family by family (the ROADMAP's primary end-to-end,
// TuningSession::Update).
//
// Phases: a cold full tune of kInitialFamilies constant-disjoint 3-query
// families; kUpdates updates, each adding one fresh family and dropping the
// oldest; warm starts (fresh sessions over the same directory replaying the
// final workload); materialize-and-answer over the final views; a second
// cold tune of the initial workload in a fresh session. Every
// partition search is exhaustive (no time budget, no state cap), so each
// run does identical work.
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cq/containment.h"
#include "engine/evaluator.h"
#include "ledger.h"
#include "rdf/statistics.h"
#include "vsel/pipeline/pipeline.h"
#include "vsel/search.h"
#include "vsel/selector.h"
#include "vsel/session/session.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using namespace rdfviews;

constexpr size_t kFamilySize = 3;
constexpr size_t kInitialFamilies = 100;
constexpr size_t kUpdates = 200;
constexpr size_t kSetupRepeats = 10;
constexpr size_t kMinWarmStarts = 10;
constexpr size_t kMinAnswers = 5;
constexpr size_t kThreads = 2;
/// Families whose S0 the traced run also searches through vsel::RunSearch.
constexpr size_t kDirectSearches = 20;

struct DriftEnv {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  /// kInitialFamilies + kUpdates families of kFamilySize queries each; any
  /// two families share no constant, so each is its own partition.
  std::vector<std::vector<cq::ConjunctiveQuery>> families;
};

std::unique_ptr<DriftEnv> BuildEnv(uint64_t seed) {
  auto env = std::make_unique<DriftEnv>();
  const size_t num_families = kInitialFamilies + kUpdates;
  workload::WorkloadSpec spec;
  spec.num_queries = num_families * kFamilySize;
  spec.atoms_per_query = 3;
  spec.shape = workload::QueryShape::kMixed;
  spec.commonality = workload::Commonality::kHigh;
  spec.partition_groups = num_families;
  spec.seed = seed;
  std::vector<cq::ConjunctiveQuery> all =
      workload::GenerateWorkload(spec, &env->dict);
  const size_t live_queries = kInitialFamilies * kFamilySize;
  env->store = workload::GenerateStoreForWorkload(
      all, &env->dict, all.size() * 40, seed, live_queries * 8);
  for (size_t f = 0; f < num_families; ++f) {
    env->families.emplace_back(all.begin() + f * kFamilySize,
                               all.begin() + (f + 1) * kFamilySize);
  }
  return env;
}

vsel::TuningConfig Options(const std::string& cache_dir, bool trace) {
  vsel::TuningConfig options;
  options.strategy = vsel::StrategyKind::kGstr;
  options.limits.time_budget_sec = 0;
  options.limits.max_states = 0;
  options.limits.num_threads = kThreads;
  options.auto_calibrate_cm = false;
  options.cache.cache_dir = cache_dir;
  options.telemetry.trace = trace;
  return options;
}

std::vector<cq::ConjunctiveQuery> InitialWorkload(const DriftEnv& env) {
  std::vector<cq::ConjunctiveQuery> out;
  for (size_t f = 0; f < kInitialFamilies; ++f) {
    out.insert(out.end(), env.families[f].begin(), env.families[f].end());
  }
  return out;
}

std::vector<std::string> Names(const std::vector<cq::ConjunctiveQuery>& qs) {
  std::vector<std::string> names;
  for (const auto& q : qs) names.push_back(q.name());
  return names;
}

/// What one session observed over the drift.
struct SessionRun {
  double tune_sec = 0;
  std::vector<double> update_sec;
  std::unique_ptr<vsel::TuningSession> session;
  vsel::Recommendation cold;
  vsel::Recommendation final_rec;
};

/// Per-update readings of the traced session.
struct TracedUpdate {
  double session_update = 0;
  double ingest = 0, partition = 0, search = 0, merge = 0;
  double cache_get = 0, cache_put = 0, encode = 0, decode = 0;
  double searched = 0, reused = 0;
  uint64_t states = 0, transitions = 0, heap_blocks = 0, arena_blocks = 0;
  uint64_t steals = 0, donations = 0, serialize_bytes = 0;
  double partition_search = 0;
};

/// Checks that an update's recommendation is complete and consistent.
void CheckRec(const Result<vsel::Recommendation>& rec, const char* phase,
              Ledger* ledger) {
  if (!ledger->Check(rec.ok(), std::string(phase) + ": " +
                                   (rec.ok() ? "" : rec.status().ToString()))) {
    return;
  }
  ledger->Check(rec->pipeline.partitions_failed == 0 && rec->stats.completed,
                std::string(phase) + ": degraded or incomplete search");
}

}  // namespace

void RunSessionDrift(const Args& args, Ledger* ledger) {
  // --- Set-up: generate store and workload, several times. -----------------
  std::vector<double> setup_sec;
  std::unique_ptr<DriftEnv> env;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    env.reset();
    const auto start = Clock::now();
    env = BuildEnv(args.seed);
    setup_sec.push_back(SecondsSince(start));
  }
  const std::vector<cq::ConjunctiveQuery> initial = InitialWorkload(*env);
  const std::string root = args.workdir + "/drift";
  std::filesystem::remove_all(root);

  // The untraced session always runs; the traced run adds a traced twin in
  // lockstep (own cache directory) so both see the same drift and the
  // tracing overhead is measured on identical work.
  std::vector<std::unique_ptr<SessionRun>> runs;
  runs.push_back(std::make_unique<SessionRun>());
  if (args.trace) runs.push_back(std::make_unique<SessionRun>());
  auto cache_dir = [&](size_t r) { return root + "/cache" + std::to_string(r); };

  for (size_t r = 0; r < runs.size(); ++r) {
    const bool traced = r == 1;
    runs[r]->session = std::make_unique<vsel::TuningSession>(
        &env->store, &env->dict, Options(cache_dir(r), traced));
    const auto start = Clock::now();
    Result<vsel::Recommendation> rec = runs[r]->session->Update(initial);
    runs[r]->tune_sec = SecondsSince(start);
    CheckRec(rec, "cold tune", ledger);
    if (!rec.ok()) return;
    ledger->Check(rec->pipeline.partitions_searched ==
                      rec->pipeline.num_partitions,
                  "cold tune served partitions from a cold cache");
    runs[r]->cold = std::move(*rec);
  }

  // --- Drift: add one family, drop the oldest. ------------------------------
  std::vector<TracedUpdate> traced_updates;
  std::vector<double> minimize_sec;
  for (size_t u = 0; u < kUpdates; ++u) {
    const auto& add = env->families[kInitialFamilies + u];
    const std::vector<std::string> drop = Names(env->families[u]);
    for (size_t k = 0; k < runs.size(); ++k) {
      // Alternate which twin goes first so neither always runs on a cache
      // the other just warmed.
      const size_t r = (u % 2 == 0) ? k : runs.size() - 1 - k;
      const bool traced = r == 1;
      std::unique_ptr<RegistryDelta> delta;
      if (traced) delta = std::make_unique<RegistryDelta>();
      const auto start = Clock::now();
      Result<vsel::Recommendation> rec = runs[r]->session->Update(add, drop);
      runs[r]->update_sec.push_back(SecondsSince(start));
      CheckRec(rec, "update", ledger);
      if (!rec.ok()) return;
      if (traced) {
        TracedUpdate t;
        t.states = delta->Counter("vsel_states_created_total");
        t.transitions = delta->Counter("vsel_transitions_enumerated_total");
        t.heap_blocks = delta->Counter("vsel_state_alloc_heap_blocks_total");
        t.arena_blocks = delta->Counter("vsel_arena_blocks_total");
        t.steals = delta->Counter("vsel_frontier_steals_total");
        t.donations = delta->Counter("vsel_dfs_donations_total");
        t.serialize_bytes =
            delta->HistogramSumDelta("vsel_serialize_bytes", "op=\"encode\"") +
            delta->HistogramSumDelta("vsel_serialize_bytes", "op=\"decode\"");
        const auto& tel = rec->pipeline.telemetry;
        if (ledger->Check(tel != nullptr, "traced update has telemetry")) {
          const auto& spans = tel->spans;
          t.session_update = SpanSeconds(spans, "session.update");
          t.ingest = SpanSeconds(spans, "pipeline.ingest");
          t.partition = SpanSeconds(spans, "pipeline.partition");
          t.search = SpanSeconds(spans, "pipeline.search");
          t.merge = SpanSeconds(spans, "pipeline.merge");
          t.cache_get = SpanSeconds(spans, "cache.get");
          t.cache_put = SpanSeconds(spans, "cache.put");
          t.encode = SpanSeconds(spans, "serialize.encode");
          t.decode = SpanSeconds(spans, "serialize.decode");
          t.partition_search = SpanSeconds(spans, "partition.search");
          ledger->Check(SpanCount(spans, "session.update") == 1 &&
                            t.ingest + t.partition + t.search + t.merge <=
                                t.session_update,
                        "stage spans of an update exceed its session.update");
        }
        t.searched = static_cast<double>(rec->pipeline.partitions_searched);
        t.reused = static_cast<double>(rec->pipeline.partitions_reused);
        traced_updates.push_back(t);
        const auto mstart = Clock::now();
        for (const auto& q : add) (void)cq::Minimize(q);
        minimize_sec.push_back(SecondsSince(mstart));
      }
      ledger->Check(rec->pipeline.partitions_searched >= 1 &&
                        rec->pipeline.partitions_searched <= kFamilySize,
                    "update searched only the delta's partitions");
      runs[r]->final_rec = std::move(*rec);
    }
  }
  ledger->Check(runs[0]->final_rec.stats.best_cost ==
                    runs.back()->final_rec.stats.best_cost,
                "traced and untraced sessions agree on the final cost");
  const vsel::Recommendation& final_rec = runs[0]->final_rec;
  const std::vector<cq::ConjunctiveQuery> final_workload =
      runs[0]->session->workload();

  // --- Warm starts: a fresh session replays the final workload from disk. ---
  // Flush the cache files written so far, so background writeback does not
  // overlap the timed replays.
  ::sync();
  std::vector<double> warm_sec;
  const double warm_floor = 0.05 * args.seconds;
  const auto warm_start = Clock::now();
  while (warm_sec.size() < kMinWarmStarts ||
         SecondsSince(warm_start) < warm_floor) {
    vsel::TuningSession fresh(&env->store, &env->dict,
                              Options(cache_dir(0), false));
    const auto start = Clock::now();
    Result<vsel::Recommendation> rec = fresh.Update(final_workload);
    warm_sec.push_back(SecondsSince(start));
    CheckRec(rec, "warm start", ledger);
    if (!rec.ok()) return;
    ledger->Check(rec->pipeline.partitions_searched == 0,
                  "warm start searched " +
                      std::to_string(rec->pipeline.partitions_searched) +
                      " partitions");
    ledger->Check(fresh.cache_backend().counters().rehydration_rejected == 0,
                  "warm start rejected a rehydrated entry");
    ledger->Check(rec->stats.best_cost == final_rec.stats.best_cost,
                  "warm start reproduces the final cost exactly");
  }

  // --- Materialize the final views and answer every query. ------------------
  std::vector<double> materialize_sec, rewrite_sec;
  size_t view_bytes = 0;
  const auto answer_phase = Clock::now();
  // Untraced runs answer once, for the correctness check; the traced run
  // repeats for the engine's per-layer timings.
  while (materialize_sec.empty() ||
         (args.trace && (materialize_sec.size() < kMinAnswers ||
                         SecondsSince(answer_phase) < 0.05 * args.seconds))) {
    const auto start = Clock::now();
    vsel::MaterializedViews views = vsel::Materialize(final_rec);
    materialize_sec.push_back(SecondsSince(start));
    std::vector<engine::Relation> answers;
    const auto rstart = Clock::now();
    for (size_t q = 0; q < final_workload.size(); ++q) {
      answers.push_back(vsel::AnswerQuery(final_rec, views, q));
    }
    rewrite_sec.push_back(SecondsSince(rstart));
    view_bytes = views.TotalBytes();
    if (materialize_sec.size() == 1) {
      for (size_t q = 0; q < final_workload.size(); ++q) {
        ledger->Check(engine::EvaluateQuery(final_workload[q], env->store)
                          .SameRowsAs(answers[q]),
                      "rewriting of " + final_workload[q].name() +
                          " returns the direct answer");
      }
    }
  }

  const SessionRun& plain = *runs[0];
  if (!args.trace) {
    // A second cold tune at the end of the run, in a fresh session over a
    // fresh directory: tune_s is the mean of both, so one slow stretch of
    // the machine weighs less, and the two must agree exactly.
    const std::string again = root + "/cold_again";
    vsel::TuningSession session(&env->store, &env->dict, Options(again, false));
    const auto start = Clock::now();
    Result<vsel::Recommendation> rec = session.Update(initial);
    const double second_tune = SecondsSince(start);
    CheckRec(rec, "second cold tune", ledger);
    if (!rec.ok()) return;
    ledger->Check(rec->stats.best_cost == plain.cold.stats.best_cost,
                  "cold tunes agree on the cost exactly");
    Describe("drift update", plain.update_sec);
    Describe("drift warm", warm_sec);

    double update_total = 0;
    for (double s : plain.update_sec) update_total += s;
    ledger->Set("setup_s", Median(setup_sec), "s");
    ledger->Set("tune_s", 0.5 * (plain.tune_sec + second_tune), "s");
    ledger->Set("update_p50_s", Median(plain.update_sec), "s");
    ledger->Check(SamplesBeyond(plain.update_sec, 90) >= 10,
                  "at least ten update samples beyond p90");
    ledger->Set("update_p90_s", Percentile(plain.update_sec, 90), "s");
    ledger->Set("tunes_per_s", Ratio(kUpdates, update_total), "1/s");
    ledger->Set("rec_cost",
                Ratio(final_rec.stats.best_cost, final_rec.stats.initial_cost),
                "ratio");
    return;
  }

  // --- Per-layer ledger from the traced twin. -------------------------------
  const SessionRun& traced = *runs[1];
  auto median_of = [&](double TracedUpdate::*field) {
    std::vector<double> v;
    for (const TracedUpdate& t : traced_updates) v.push_back(t.*field);
    return Median(v);
  };
  uint64_t states = 0, transitions = 0, heap = 0, arena = 0, steals = 0,
           donations = 0, bytes = 0;
  double partition_search = 0;
  for (const TracedUpdate& t : traced_updates) {
    states += t.states;
    transitions += t.transitions;
    heap += t.heap_blocks;
    arena += t.arena_blocks;
    steals += t.steals;
    donations += t.donations;
    bytes += t.serialize_bytes;
    partition_search += t.partition_search;
  }
  const vsel::Recommendation& last = traced.final_rec;
  const vsel::Recommendation& cold = traced.cold;
  ledger->Set("session.update_s", median_of(&TracedUpdate::session_update), "s");
  ledger->Set("session.warm_start_s", Median(warm_sec), "s");
  ledger->Set("pipeline.ingest_s", median_of(&TracedUpdate::ingest), "s");
  ledger->Set("pipeline.partition_s", median_of(&TracedUpdate::partition), "s");
  ledger->Set("pipeline.search_s", median_of(&TracedUpdate::search), "s");
  ledger->Set("pipeline.merge_s", median_of(&TracedUpdate::merge), "s");
  ledger->Set("pipeline.partitions_searched",
              median_of(&TracedUpdate::searched), "count");
  ledger->Set("pipeline.partitions_reused", median_of(&TracedUpdate::reused),
              "count");
  ledger->Set("cq.minimize_s", Median(minimize_sec), "s");
  ledger->Set("cache.get_s", median_of(&TracedUpdate::cache_get), "s");
  ledger->Set("cache.put_s", median_of(&TracedUpdate::cache_put), "s");
  ledger->Set("serialize.encode_s", median_of(&TracedUpdate::encode), "s");
  ledger->Set("serialize.decode_s", median_of(&TracedUpdate::decode), "s");
  ledger->Set("serialize.bytes", static_cast<double>(bytes) / kUpdates,
              "bytes");
  const auto counters = traced.session->cache_backend().counters();
  ledger->Set("cache.gets", static_cast<double>(counters.hits + counters.misses),
              "count");
  ledger->Set("cache.puts", static_cast<double>(counters.stored), "count");
  ledger->Set("cache.hit_ratio",
              Ratio(static_cast<double>(counters.hits),
                    static_cast<double>(counters.hits + counters.misses)),
              "ratio");
  ledger->Set("cache.rehydration_rejected",
              static_cast<double>(counters.rehydration_rejected), "count");

  ledger->Set("search.states_created", static_cast<double>(states), "count");
  ledger->Set("search.transitions_enumerated",
              static_cast<double>(transitions), "count");
  ledger->Set("search.states_per_s",
              Ratio(static_cast<double>(states), partition_search), "1/s");
  ledger->Set("common.mallocs_per_state",
              Ratio(static_cast<double>(heap + arena),
                    static_cast<double>(states)),
              "ratio");
  ledger->Set("common.arena_blocks", static_cast<double>(arena), "count");
  const auto& cc = last.cost_counters;
  const auto& c0 = cold.cost_counters;
  const double card = static_cast<double>(cc.card_raw - c0.card_raw);
  const double vt_reused =
      static_cast<double>(cc.view_terms_reused - c0.view_terms_reused);
  const double vt_computed =
      static_cast<double>(cc.view_terms_computed - c0.view_terms_computed);
  const double rec_reused = static_cast<double>(cc.rec_reused - c0.rec_reused);
  const double rec_computed =
      static_cast<double>(cc.rec_computed - c0.rec_computed);
  ledger->Set("cost.card_estimations", card, "count");
  ledger->Set("cost.view_term_reuse_ratio",
              Ratio(vt_reused, vt_reused + vt_computed), "ratio");
  ledger->Set("cost.rec_reuse_ratio",
              Ratio(rec_reused, rec_reused + rec_computed), "ratio");
  const auto& ic = last.cost_cache_counters;
  const auto& i0 = cold.cost_cache_counters;
  const double card_hits = static_cast<double>(ic.card_hits - i0.card_hits);
  const double card_computed =
      static_cast<double>(ic.card_computed - i0.card_computed);
  ledger->Set("interner.card_hit_ratio",
              Ratio(card_hits, card_hits + card_computed), "ratio");
  ledger->Set("parallel.frontier_steals", static_cast<double>(steals),
              "count");
  ledger->Set("parallel.dfs_donations", static_cast<double>(donations),
              "count");
  if (cold.pipeline.telemetry != nullptr) {
    const auto& spans = cold.pipeline.telemetry->spans;
    ledger->Set("parallel.fanout_busy_ratio",
                Ratio(SpanSeconds(spans, "partition.search"),
                      kThreads * SpanSeconds(spans, "pipeline.search")),
                "ratio");
  }
  ledger->Set("trace.overhead_ratio",
              Ratio(Median(traced.update_sec), Median(plain.update_sec)),
              "ratio");
  ledger->Set("engine.materialize_s", Median(materialize_sec), "s");
  ledger->Set("engine.rewrite_answer_s", Median(rewrite_sec), "s");
  ledger->Set("engine.view_bytes", static_cast<double>(view_bytes), "bytes");
  {
    const auto start = Clock::now();
    for (const auto& q : final_workload) {
      (void)engine::EvaluateQuery(q, env->store);
    }
    ledger->Set("engine.direct_eval_s", SecondsSince(start), "s");
  }

  // The public pipeline stages, called one by one on the final workload
  // from scratch: the merged cost must equal the incremental session's.
  {
    const vsel::TuningConfig options = Options("", true);
    auto start = Clock::now();
    Result<vsel::pipeline::IngestResult> ingest = vsel::pipeline::Ingest(
        &env->store, &env->dict, nullptr, final_workload, options);
    ledger->Set("stages.ingest_s", SecondsSince(start), "s");
    if (!ledger->Check(ingest.ok(), "pipeline::Ingest")) return;
    start = Clock::now();
    const vsel::pipeline::PartitionPlan plan =
        vsel::pipeline::PartitionWorkload(*ingest, options);
    ledger->Set("stages.partition_s", SecondsSince(start), "s");
    vsel::CostModel model(ingest->stats, options.weights);
    start = Clock::now();
    Result<std::vector<vsel::pipeline::PartitionOutcome>> outcomes =
        vsel::pipeline::SearchPartitions(*ingest, plan, &model, options);
    ledger->Set("stages.search_s", SecondsSince(start), "s");
    if (!ledger->Check(outcomes.ok(), "pipeline::SearchPartitions")) return;
    start = Clock::now();
    Result<vsel::Recommendation> merged = vsel::pipeline::MergePartitions(
        *ingest, plan, std::move(*outcomes), &model, options);
    ledger->Set("stages.merge_s", SecondsSince(start), "s");
    if (!ledger->Check(merged.ok(), "pipeline::MergePartitions")) return;
    const double expect = final_rec.stats.best_cost;
    ledger->Check(std::abs(merged->stats.best_cost - expect) <=
                      1e-6 * (1.0 + std::abs(expect)),
                  "from-scratch stages match the incremental cost");
  }

  // Direct vsel::RunSearch on single-family S0s, as the frontier engine
  // sees a dirty partition: duplicate share and caller-visible teardown.
  rdf::Statistics stats(&env->store);
  vsel::CostModel model(&stats, vsel::CostWeights{});
  std::vector<double> teardown;
  uint64_t created = 0, duplicates = 0;
  for (size_t f = 0; f < kDirectSearches; ++f) {
    Result<vsel::State> s0 =
        vsel::MakeInitialState(env->families[kInitialFamilies + f]);
    if (!ledger->Check(s0.ok(), "MakeInitialState on a drift family")) return;
    vsel::TuningConfig options = Options("", true);
    const auto start = Clock::now();
    Result<vsel::SearchResult> r =
        vsel::RunSearch(options.strategy, *s0, model, options.heuristics,
                        options.limits);
    const double wall = SecondsSince(start);
    if (!ledger->Check(r.ok(), "RunSearch on a drift family")) return;
    teardown.push_back(wall - r->stats.elapsed_sec);
    created += r->stats.created;
    duplicates += r->stats.duplicates;
  }
  ledger->Set("search.duplicate_ratio",
              Ratio(static_cast<double>(duplicates),
                    static_cast<double>(created)),
              "ratio");
  ledger->Set("search.teardown_s", Median(teardown), "s");
}

}  // namespace perfbench
