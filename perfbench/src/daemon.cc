// daemon_mixed: an in-process vseld::Daemon over AF_UNIX with a shared
// tiered partition cache, driven by kTenants closed-loop tenants. Each
// tenant session is open -> Update(wait) -> fetch -> close; its delta is
// kHotPerSession hot families (pre-warmed at set-up, so cache hits) plus
// one private fresh family (one miss, one search, one put), so the work of
// every session is fixed whatever the interleaving. Each tenant draws its
// hot families from its own seeded generator before any thread starts.
//
// After the tenant phase: a parity session (its canonical recommendation
// must be byte-identical to an in-process TuningSession over the same
// delta), warm sessions whose families are all cached, and the offline
// client path over every tenant session's fetched recommendation
// (deserialize, materialize, answer; answers compared with direct
// evaluation).
//
// Set-up pre-warms the hot pool through the daemon on kTenants search
// threads; the measured phases never run more than kTenants searches.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cq/containment.h"
#include "cq/parser.h"
#include "engine/evaluator.h"
#include "ledger.h"
#include "vsel/serialize/serialize.h"
#include "vsel/serialize/tiered_cache.h"
#include "vsel/session/session.h"
#include "vseld/client.h"
#include "vseld/server.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using namespace rdfviews;

constexpr size_t kTenants = 2;
constexpr size_t kSessionsPerTenant = 200;
constexpr size_t kFamilySize = 3;
constexpr size_t kHotPool = 30;
constexpr size_t kHotPerSession = 3;
/// Paired daemon / in-process updates of the traced run.
constexpr size_t kOverheadPairs = 20;
constexpr size_t kMinWarmSessions = 20;
constexpr size_t kMinAnswers = 3;
constexpr size_t kSetupRepeats = 3;
/// Fresh families: one per tenant session, one for the parity session,
/// one per overhead pair.
constexpr size_t kFreshFamilies =
    kTenants * kSessionsPerTenant + 1 + kOverheadPairs;
constexpr const char* kStoreTag = "bench";

/// One session's workload delta: datalog texts, unique names per session.
using Delta = std::vector<std::string>;

struct DaemonEnv {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  /// Per family, its queries rendered as datalog text: kHotPool hot
  /// families, then kFreshFamilies fresh ones, pairwise constant-disjoint.
  std::vector<std::vector<std::string>> texts;
  std::unique_ptr<vseld::Daemon> daemon;
  std::string socket;
};

vsel::TuningConfig Options(bool trace, size_t threads = 1) {
  vsel::TuningConfig options;
  options.strategy = vsel::StrategyKind::kGstr;
  options.limits.time_budget_sec = 0;
  options.limits.max_states = 0;
  options.limits.num_threads = threads;
  options.auto_calibrate_cm = false;
  options.telemetry.trace = trace;
  return options;
}

Delta MakeDelta(const DaemonEnv& env, const std::vector<size_t>& families) {
  Delta d;
  for (size_t f : families) {
    d.insert(d.end(), env.texts[f].begin(), env.texts[f].end());
  }
  return d;
}

/// kHotPerSession distinct hot families drawn from `rng`, plus `fresh`.
Delta DrawDelta(const DaemonEnv& env, std::mt19937_64* rng, size_t fresh) {
  std::vector<size_t> pool(kHotPool);
  for (size_t i = 0; i < kHotPool; ++i) pool[i] = i;
  std::vector<size_t> families;
  for (size_t i = 0; i < kHotPerSession; ++i) {
    std::uniform_int_distribution<size_t> pick(i, kHotPool - 1);
    std::swap(pool[i], pool[pick(*rng)]);
    families.push_back(pool[i]);
  }
  if (fresh != SIZE_MAX) families.push_back(kHotPool + fresh);
  return MakeDelta(env, families);
}

/// Timings of one open -> update -> fetch -> close session.
struct SessionTiming {
  double open = 0, update = 0, fetch = 0, close = 0, total = 0;
  bool traced = false;
  std::string blob;
};

/// Runs one session; every verb must succeed. Fetches the canonical form
/// when `canonical`.
bool RunSession(vseld::Client* client, const vsel::TuningConfig& options,
                const Delta& delta, bool canonical, SessionTiming* out,
                std::string* error) {
  const auto start = Clock::now();
  Result<uint64_t> id = client->OpenSession(kStoreTag, options);
  out->open = SecondsSince(start);
  if (!id.ok()) {
    *error = "open: " + id.status().ToString();
    return false;
  }
  auto t = Clock::now();
  Result<vsel::TuningProgress> progress =
      client->Update(*id, delta, {}, /*wait=*/true);
  out->update = SecondsSince(t);
  bool ok = progress.ok() && progress->done &&
            progress->partitions_failed == 0 &&
            progress->partitions_done == progress->partitions_total;
  if (!ok) {
    *error = "update: " + (progress.ok() ? std::string("incomplete")
                                         : progress.status().ToString());
  }
  t = Clock::now();
  Result<vseld::Client::FetchedRecommendation> fetched =
      client->FetchRecommendation(*id, canonical, /*wait=*/true);
  out->fetch = SecondsSince(t);
  if (fetched.ok()) {
    out->blob = std::move(fetched->blob);
  } else if (ok) {
    *error = "fetch: " + fetched.status().ToString();
    ok = false;
  }
  t = Clock::now();
  Status closed = client->CloseSession(*id);
  out->close = SecondsSince(t);
  out->total = SecondsSince(start);
  if (!closed.ok() && ok) {
    *error = "close: " + closed.ToString();
    ok = false;
  }
  return ok;
}

/// Builds the store and workload, starts the daemon and pre-warms the hot
/// families through it.
std::unique_ptr<DaemonEnv> BuildEnv(uint64_t seed, const std::string& dir,
                                    Ledger* ledger) {
  auto env = std::make_unique<DaemonEnv>();
  const size_t num_families = kHotPool + kFreshFamilies;
  workload::WorkloadSpec spec;
  spec.num_queries = num_families * kFamilySize;
  spec.atoms_per_query = 3;
  spec.shape = workload::QueryShape::kMixed;
  spec.commonality = workload::Commonality::kHigh;
  spec.partition_groups = num_families;
  spec.seed = seed;
  std::vector<cq::ConjunctiveQuery> all =
      workload::GenerateWorkload(spec, &env->dict);
  // Same density as session_drift's store (its 300 live queries x 8
  // resources), so a family search costs about the same in both.
  env->store = workload::GenerateStoreForWorkload(all, &env->dict,
                                                  all.size() * 40, seed, 2400);
  for (size_t f = 0; f < num_families; ++f) {
    std::vector<std::string> texts;
    for (size_t j = 0; j < kFamilySize; ++j) {
      cq::ConjunctiveQuery q = all[f * kFamilySize + j];
      q.set_name("f" + std::to_string(f) + "_" + std::to_string(j));
      texts.push_back(q.ToString(&env->dict));
    }
    env->texts.push_back(std::move(texts));
  }

  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  vseld::DaemonOptions options;
  options.socket_path = dir + "/vseld.sock";
  options.cache_dir = dir + "/cache";
  options.max_connections = kTenants + 2;
  env->socket = options.socket_path;
  env->daemon = std::make_unique<vseld::Daemon>(options);
  env->daemon->RegisterStore(kStoreTag, &env->store, &env->dict);
  Status started = env->daemon->Start();
  if (!ledger->Check(started.ok(), "daemon start: " + started.ToString())) {
    return nullptr;
  }
  Result<vseld::Client> client = vseld::Client::Connect(env->socket, "warmup");
  if (!ledger->Check(client.ok(), "warm-up connect")) return nullptr;
  std::vector<size_t> hot(kHotPool);
  for (size_t i = 0; i < kHotPool; ++i) hot[i] = i;
  SessionTiming timing;
  std::string error;
  if (!ledger->Check(RunSession(&*client, Options(false, kTenants),
                                MakeDelta(*env, hot), false, &timing, &error),
                     "warm-up session: " + error)) {
    return nullptr;
  }
  return env;
}

std::vector<cq::ConjunctiveQuery> ParseDelta(const Delta& delta,
                                             rdf::Dictionary* dict,
                                             Ledger* ledger) {
  std::vector<cq::ConjunctiveQuery> out;
  for (const std::string& text : delta) {
    Result<cq::ConjunctiveQuery> q = cq::ParseDatalog(text, dict);
    if (ledger->Check(q.ok(), "parse " + text)) out.push_back(std::move(*q));
  }
  return out;
}

}  // namespace

void RunDaemonMixed(const Args& args, Ledger* ledger) {
  std::vector<double> setup_sec;
  std::unique_ptr<DaemonEnv> env;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    env.reset();  // stops the previous daemon
    const auto start = Clock::now();
    env = BuildEnv(args.seed, args.workdir + "/daemon", ledger);
    setup_sec.push_back(SecondsSince(start));
    if (env == nullptr) return;
  }

  // Every session's delta is fixed before any tenant starts.
  std::vector<std::vector<Delta>> deltas(kTenants);
  for (size_t t = 0; t < kTenants; ++t) {
    std::mt19937_64 rng(args.seed * 7919 + t + 1);
    for (size_t i = 0; i < kSessionsPerTenant; ++i) {
      deltas[t].push_back(DrawDelta(*env, &rng, t * kSessionsPerTenant + i));
    }
  }

  // --- Tenant phase. ---------------------------------------------------------
  std::vector<std::vector<SessionTiming>> timings(kTenants);
  std::vector<std::string> errors(kTenants);
  std::vector<size_t> failures(kTenants, 0);
  RegistryDelta tenant_delta;
  const auto phase = Clock::now();
  {
    std::vector<std::thread> tenants;
    for (size_t t = 0; t < kTenants; ++t) {
      tenants.emplace_back([&, t] {
        Result<vseld::Client> client = vseld::Client::Connect(
            env->socket, "tenant" + std::to_string(t));
        if (!client.ok()) {
          failures[t] = kSessionsPerTenant;
          errors[t] = "connect: " + client.status().ToString();
          return;
        }
        for (size_t i = 0; i < kSessionsPerTenant; ++i) {
          SessionTiming timing;
          // The traced run alternates traced and untraced sessions, so the
          // overhead ratio compares sessions under the same load.
          timing.traced = args.trace && (i % 2 == 1);
          std::string error;
          if (!RunSession(&*client, Options(timing.traced), deltas[t][i],
                          false, &timing, &error)) {
            ++failures[t];
            errors[t] = error;
          }
          timings[t].push_back(std::move(timing));
        }
      });
    }
    for (std::thread& t : tenants) t.join();
  }
  const double phase_sec = SecondsSince(phase);
  for (size_t t = 0; t < kTenants; ++t) {
    for (size_t i = 0; i < kSessionsPerTenant; ++i) {
      ledger->Check(i >= failures[t],
                    "tenant " + std::to_string(t) + " session: " + errors[t]);
    }
  }
  const uint64_t hits = tenant_delta.Counter("vsel_cache_hits_total",
                                             "backend=\"tiered\"");
  const uint64_t gets = tenant_delta.Counter("vsel_cache_gets_total",
                                             "backend=\"tiered\"");
  const uint64_t puts = tenant_delta.Counter("vsel_cache_stored_total",
                                             "backend=\"tiered\"");
  const uint64_t rejected = tenant_delta.Counter(
      "vsel_cache_rehydration_rejected_total", "backend=\"tiered\"");
  const uint64_t front_hits =
      tenant_delta.Counter("vsel_tiered_front_hits_total");
  const uint64_t states = tenant_delta.Counter("vsel_states_created_total");
  const uint64_t transitions =
      tenant_delta.Counter("vsel_transitions_enumerated_total");
  const uint64_t heap =
      tenant_delta.Counter("vsel_state_alloc_heap_blocks_total");
  const uint64_t arena = tenant_delta.Counter("vsel_arena_blocks_total");
  const uint64_t steals = tenant_delta.Counter("vsel_frontier_steals_total");
  const uint64_t donations = tenant_delta.Counter("vsel_dfs_donations_total");
  const uint64_t frames = tenant_delta.CounterAnyLabels("vseld_frames_total");
  const double get_ns =
      static_cast<double>(tenant_delta.HistogramSumDelta("vsel_cache_op_ns",
                                                         "op=\"get\""));
  const double put_ns =
      static_cast<double>(tenant_delta.HistogramSumDelta("vsel_cache_op_ns",
                                                         "op=\"put\""));
  const double bytes = static_cast<double>(
      tenant_delta.HistogramSumDelta("vsel_serialize_bytes", "op=\"encode\"") +
      tenant_delta.HistogramSumDelta("vsel_serialize_bytes", "op=\"decode\""));
  const size_t sessions = kTenants * kSessionsPerTenant;
  ledger->Check(hits >= kHotPerSession * sessions,
                "hot families are cache hits: " + std::to_string(hits) +
                    " hits over " + std::to_string(sessions) + " sessions");
  ledger->Check(rejected == 0, "shared cache rejected a rehydrated entry");

  // Every fetched recommendation: its cost ratio and search statistics.
  const vsel::serialize::CacheIdentity identity =
      vsel::serialize::ComputeCacheIdentity(env->store, Options(false));
  std::vector<double> rec_costs;
  double search_elapsed = 0;
  uint64_t created = 0, duplicates = 0;
  std::vector<double> update_all, update_plain, update_traced, open_sec,
      fetch_sec, close_sec, session_sec;
  for (const auto& tenant : timings) {
    for (const SessionTiming& s : tenant) {
      update_all.push_back(s.update);
      (s.traced ? update_traced : update_plain).push_back(s.update);
      open_sec.push_back(s.open);
      fetch_sec.push_back(s.fetch);
      close_sec.push_back(s.close);
      session_sec.push_back(s.total);
      Result<vsel::Recommendation> rec =
          vsel::serialize::DeserializeRecommendation(s.blob, identity);
      if (!ledger->Check(rec.ok(), "fetched recommendation decodes")) continue;
      rec_costs.push_back(Ratio(rec->stats.best_cost, rec->stats.initial_cost));
      search_elapsed += rec->stats.elapsed_sec;
      created += rec->stats.created;
      duplicates += rec->stats.duplicates;
    }
  }

  // --- Parity: daemon against an in-process session, same delta. -----------
  Result<vseld::Client> client = vseld::Client::Connect(env->socket, "probe");
  if (!ledger->Check(client.ok(), "probe connect")) return;
  std::mt19937_64 probe_rng(args.seed * 7919);
  const Delta parity_delta =
      DrawDelta(*env, &probe_rng, kTenants * kSessionsPerTenant);
  SessionTiming parity;
  std::string error;
  ledger->Check(RunSession(&*client, Options(false), parity_delta, true,
                           &parity, &error),
                "parity session: " + error);
  const std::vector<cq::ConjunctiveQuery> parity_queries =
      ParseDelta(parity_delta, &env->dict, ledger);
  {
    vsel::TuningSession reference(&env->store, &env->dict, Options(false));
    Result<vsel::Recommendation> rec = reference.Update(parity_queries);
    if (ledger->Check(rec.ok(), "in-process parity session")) {
      ledger->Check(vsel::serialize::SerializeRecommendationCanonical(
                        *rec, identity) == parity.blob,
                    "daemon recommendation is byte-identical to in-process");
    }
  }

  // --- Warm sessions: the whole hot pool, all in the shared cache. ---------
  std::vector<size_t> hot(kHotPool);
  for (size_t i = 0; i < kHotPool; ++i) hot[i] = i;
  const Delta hot_delta = MakeDelta(*env, hot);
  std::vector<double> warm_sec;
  const auto warm_phase = Clock::now();
  while (warm_sec.size() < kMinWarmSessions ||
         SecondsSince(warm_phase) < 0.05 * args.seconds) {
    SessionTiming timing;
    if (!ledger->Check(RunSession(&*client, Options(false), hot_delta, false,
                                  &timing, &error),
                       "warm session: " + error)) {
      break;
    }
    warm_sec.push_back(timing.total);
  }

  // --- Offline client: every tenant session's fetched recommendation is
  // decoded against the store, materialized and answered. ----------------
  std::shared_ptr<const rdf::TripleStore> store_ref(
      &env->store, [](const rdf::TripleStore*) {});
  struct Offline {
    vsel::Recommendation rec;
    std::vector<cq::ConjunctiveQuery> queries;
  };
  std::vector<Offline> offline;
  for (size_t t = 0; t < kTenants; ++t) {
    for (size_t i = 0; i < timings[t].size(); ++i) {
      Result<vsel::Recommendation> rec =
          vsel::serialize::DeserializeRecommendation(timings[t][i].blob,
                                                     identity, store_ref);
      if (!ledger->Check(rec.ok(), "offline recommendation decodes")) continue;
      offline.push_back({std::move(*rec),
                         ParseDelta(deltas[t][i], &env->dict, ledger)});
    }
  }
  // Per recommendation, samples over passes; the first pass also runs the
  // direct evaluations and is not a sample. The engine timings are medians
  // over recommendations of their medians: view sizes are heavy-tailed.
  std::vector<std::vector<double>> materialize_sec(offline.size()),
      rewrite_sec(offline.size());
  size_t view_bytes = 0;
  const auto answer_phase = Clock::now();
  // Untraced runs make only the checking pass; the traced run repeats for
  // the engine's per-layer timings.
  for (size_t pass = 0;
       pass == 0 || (args.trace && (pass <= kMinAnswers ||
                                    SecondsSince(answer_phase) <
                                        0.1 * args.seconds));
       ++pass) {
    view_bytes = 0;
    for (size_t k = 0; k < offline.size(); ++k) {
      const Offline& o = offline[k];
      const auto start = Clock::now();
      vsel::MaterializedViews views = vsel::Materialize(o.rec);
      const double materialize = SecondsSince(start);
      view_bytes += views.TotalBytes();
      const auto rstart = Clock::now();
      std::vector<engine::Relation> answers;
      for (size_t q = 0; q < o.queries.size(); ++q) {
        answers.push_back(vsel::AnswerQuery(o.rec, views, q));
      }
      const double rewrite = SecondsSince(rstart);
      if (pass > 0) {
        materialize_sec[k].push_back(materialize);
        rewrite_sec[k].push_back(rewrite);
        continue;
      }
      for (size_t q = 0; q < o.queries.size(); ++q) {
        ledger->Check(engine::EvaluateQuery(o.queries[q], env->store)
                          .SameRowsAs(answers[q]),
                      "offline rewriting of " + o.queries[q].name() +
                          " returns the direct answer");
      }
    }
  }

  const uint64_t rejections =
      tenant_delta.CounterAnyLabels("vseld_rejected_total");
  ledger->Check(rejections == 0, "the daemon rejected a request");

  Describe("daemon update", update_all);
  Describe("daemon session", session_sec);
  Describe("daemon warm", warm_sec);

  if (!args.trace) {
    ledger->Set("setup_s", Median(setup_sec), "s");
    ledger->Set("tune_s", Median(session_sec), "s");
    ledger->Set("update_p50_s", Median(update_all), "s");
    ledger->Check(SamplesBeyond(update_all, 90) >= 10,
                  "at least ten update samples beyond p90");
    ledger->Set("update_p90_s", Percentile(update_all, 90), "s");
    ledger->Set("tunes_per_s", Ratio(sessions, phase_sec), "1/s");
    ledger->Set("rec_cost", Median(rec_costs), "ratio");
    env->daemon->Stop();
    return;
  }

  // --- Traced run: the same deltas through the daemon and in process. -------
  // The in-process side gets its own tiered cache over its own directory,
  // pre-warmed with the hot families like the daemon's, so both paths do a
  // hot-hit, fresh-miss update.
  const std::string local_dir = args.workdir + "/daemon/local_cache";
  std::filesystem::remove_all(local_dir);
  auto local_backend = std::make_shared<vsel::serialize::TieredCacheBackend>(
      std::make_shared<vsel::serialize::DirCacheBackend>(local_dir, identity));
  {
    vsel::TuningSession warmup(&env->store, &env->dict, Options(true, kTenants),
                               nullptr, local_backend);
    ledger->Check(warmup.Update(ParseDelta(hot_delta, &env->dict, ledger)).ok(),
                  "in-process warm-up");
  }
  std::vector<double> overhead, parse_sec, minimize_sec, session_update,
      ingest, partition, search, merge, encode, decode, searched, reused,
      fanout;
  double card = 0, vt_reused = 0, vt_computed = 0, rec_reused = 0,
         rec_computed = 0, card_hits = 0, card_computed = 0;
  for (size_t p = 0; p < kOverheadPairs; ++p) {
    const Delta delta = DrawDelta(
        *env, &probe_rng, kTenants * kSessionsPerTenant + 1 + p);
    SessionTiming remote;
    if (!ledger->Check(RunSession(&*client, Options(true), delta, false,
                                  &remote, &error),
                       "overhead session: " + error)) {
      break;
    }
    rdf::Dictionary parse_dict;
    auto pstart = Clock::now();
    for (const std::string& text : delta) {
      (void)cq::ParseDatalog(text, &parse_dict);
    }
    parse_sec.push_back(SecondsSince(pstart));
    const std::vector<cq::ConjunctiveQuery> queries =
        ParseDelta(delta, &env->dict, ledger);
    pstart = Clock::now();
    for (const auto& q : queries) (void)cq::Minimize(q);
    minimize_sec.push_back(SecondsSince(pstart));
    vsel::TuningSession local(&env->store, &env->dict, Options(true), nullptr,
                              local_backend);
    const auto start = Clock::now();
    Result<vsel::Recommendation> rec = local.Update(queries);
    const double local_sec = SecondsSince(start);
    if (!ledger->Check(rec.ok() && rec->pipeline.telemetry != nullptr,
                       "in-process overhead update")) {
      break;
    }
    overhead.push_back(remote.update - local_sec);
    const auto& spans = rec->pipeline.telemetry->spans;
    session_update.push_back(SpanSeconds(spans, "session.update"));
    ingest.push_back(SpanSeconds(spans, "pipeline.ingest"));
    partition.push_back(SpanSeconds(spans, "pipeline.partition"));
    search.push_back(SpanSeconds(spans, "pipeline.search"));
    merge.push_back(SpanSeconds(spans, "pipeline.merge"));
    encode.push_back(SpanSeconds(spans, "serialize.encode"));
    decode.push_back(SpanSeconds(spans, "serialize.decode"));
    fanout.push_back(Ratio(SpanSeconds(spans, "partition.search"),
                           SpanSeconds(spans, "pipeline.search")));
    searched.push_back(static_cast<double>(rec->pipeline.partitions_searched));
    reused.push_back(static_cast<double>(rec->pipeline.partitions_reused));
    const auto& cc = rec->cost_counters;
    card += static_cast<double>(cc.card_raw);
    vt_reused += static_cast<double>(cc.view_terms_reused);
    vt_computed += static_cast<double>(cc.view_terms_computed);
    rec_reused += static_cast<double>(cc.rec_reused);
    rec_computed += static_cast<double>(cc.rec_computed);
    card_hits += static_cast<double>(rec->cost_cache_counters.card_hits);
    card_computed +=
        static_cast<double>(rec->cost_cache_counters.card_computed);
  }
  env->daemon->Stop();

  const double n = static_cast<double>(sessions);
  ledger->Set("vseld.open_p50_s", Median(open_sec), "s");
  ledger->Set("vseld.fetch_p50_s", Median(fetch_sec), "s");
  ledger->Set("vseld.close_p50_s", Median(close_sec), "s");
  ledger->Set("vseld.frames", static_cast<double>(frames), "count");
  ledger->Set("vseld.admission_rejections", static_cast<double>(rejections),
              "count");
  ledger->Set("vseld.overhead_p50_s", Median(overhead), "s");
  ledger->Set("cq.parse_s", Median(parse_sec), "s");
  ledger->Set("cq.minimize_s", Median(minimize_sec), "s");
  ledger->Set("trace.overhead_ratio",
              Ratio(Median(update_traced), Median(update_plain)), "ratio");

  ledger->Set("cache.gets", static_cast<double>(gets), "count");
  ledger->Set("cache.puts", static_cast<double>(puts), "count");
  ledger->Set("cache.hit_ratio",
              Ratio(static_cast<double>(hits), static_cast<double>(gets)),
              "ratio");
  ledger->Set("cache.rehydration_rejected", static_cast<double>(rejected),
              "count");
  ledger->Set("cache.tiered_front_hits", static_cast<double>(front_hits),
              "count");
  ledger->Set("cache.get_s", get_ns * 1e-9 / n, "s");
  ledger->Set("cache.put_s", put_ns * 1e-9 / n, "s");
  ledger->Set("serialize.bytes", bytes / n, "bytes");
  ledger->Set("serialize.encode_s", Median(encode), "s");
  ledger->Set("serialize.decode_s", Median(decode), "s");

  ledger->Set("session.update_s", Median(session_update), "s");
  ledger->Set("session.warm_start_s", Median(warm_sec), "s");
  ledger->Set("pipeline.ingest_s", Median(ingest), "s");
  ledger->Set("pipeline.partition_s", Median(partition), "s");
  ledger->Set("pipeline.search_s", Median(search), "s");
  ledger->Set("pipeline.merge_s", Median(merge), "s");
  ledger->Set("pipeline.partitions_searched", Median(searched), "count");
  ledger->Set("pipeline.partitions_reused", Median(reused), "count");
  ledger->Set("parallel.fanout_busy_ratio", Median(fanout), "ratio");
  ledger->Set("parallel.frontier_steals", static_cast<double>(steals),
              "count");
  ledger->Set("parallel.dfs_donations", static_cast<double>(donations),
              "count");

  ledger->Set("search.states_created", static_cast<double>(states), "count");
  ledger->Set("search.transitions_enumerated",
              static_cast<double>(transitions), "count");
  ledger->Set("search.states_per_s",
              Ratio(static_cast<double>(created), search_elapsed), "1/s");
  ledger->Set("search.duplicate_ratio",
              Ratio(static_cast<double>(duplicates),
                    static_cast<double>(created)),
              "ratio");
  ledger->Set("common.mallocs_per_state",
              Ratio(static_cast<double>(heap + arena),
                    static_cast<double>(states)),
              "ratio");
  ledger->Set("common.arena_blocks", static_cast<double>(arena), "count");
  ledger->Set("cost.card_estimations", card, "count");
  ledger->Set("cost.view_term_reuse_ratio",
              Ratio(vt_reused, vt_reused + vt_computed), "ratio");
  ledger->Set("cost.rec_reuse_ratio",
              Ratio(rec_reused, rec_reused + rec_computed), "ratio");
  ledger->Set("interner.card_hit_ratio",
              Ratio(card_hits, card_hits + card_computed), "ratio");

  ledger->Set("engine.materialize_s", Median(PerUnitMedians(materialize_sec)),
              "s");
  ledger->Set("engine.rewrite_answer_s", Median(PerUnitMedians(rewrite_sec)),
              "s");
  ledger->Set("engine.view_bytes", static_cast<double>(view_bytes), "bytes");
  const auto start = Clock::now();
  for (const Offline& o : offline) {
    for (const auto& q : o.queries) (void)engine::EvaluateQuery(q, env->store);
  }
  ledger->Set("engine.direct_eval_s", SecondsSince(start), "s");
}

}  // namespace perfbench
