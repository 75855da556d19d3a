// vseld: the tuning-as-a-service daemon executable.
//
// Loads (or generates) a store, registers it under a tag, listens on an
// AF_UNIX socket, and serves tuning sessions until SIGINT / SIGTERM or a
// client's shutdown verb; either way it drains gracefully (in-flight
// updates are cancelled through the anytime contract and every session is
// reaped) before exiting.
//
//   vseld --socket=/tmp/vseld.sock --store-tag=default
//         [--ntriples=data.nt]                  # load a real dataset
//         [--synthetic-queries=20 --synthetic-triples=4000 --seed=7]
//         [--cache-dir=/var/cache/vseld]        # shared tiered cache
//         [--max-connections=64 --max-sessions=64 --max-sessions-per-client=8]
//         [--aggregate-max-states=0 --aggregate-time-budget-sec=0]
//         [--max-queries-per-update=256]
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "rdf/dictionary.h"
#include "rdf/ntriples.h"
#include "rdf/triple_store.h"
#include "vseld/server.h"
#include "workload/generator.h"

namespace {

// Signal handlers may only touch lock-free state; the main loop polls it.
volatile std::sig_atomic_t g_signalled = 0;

void OnSignal(int) { g_signalled = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace rdfviews;
  bench::Flags flags(argc, argv);

  const std::string socket_path =
      flags.GetString("socket", "/tmp/vseld.sock");
  const std::string store_tag = flags.GetString("store-tag", "default");
  const std::string ntriples = flags.GetString("ntriples", "");

  rdf::Dictionary dict;
  rdf::TripleStore store;
  if (!ntriples.empty()) {
    Result<size_t> loaded = rdf::LoadNTriplesFile(ntriples, &dict, &store);
    if (!loaded.ok()) {
      std::fprintf(stderr, "vseld: loading %s: %s\n", ntriples.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    store.Build(&dict);
    std::fprintf(stderr, "vseld: loaded %zu triples from %s\n", *loaded,
                 ntriples.c_str());
  } else {
    // No dataset given: serve a synthetic store shaped after a generated
    // workload, the same environment the benchmarks tune against.
    workload::WorkloadSpec spec;
    spec.num_queries =
        static_cast<size_t>(flags.GetInt("synthetic-queries", 20));
    spec.atoms_per_query = 4;
    spec.commonality = workload::Commonality::kHigh;
    spec.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
    std::vector<cq::ConjunctiveQuery> shape =
        workload::GenerateWorkload(spec, &dict);
    store = workload::GenerateStoreForWorkload(
        shape, &dict,
        static_cast<size_t>(flags.GetInt("synthetic-triples", 4000)),
        spec.seed);
    store.Build(&dict);
    std::fprintf(stderr, "vseld: serving synthetic store (%zu triples)\n",
                 store.size());
  }

  vseld::DaemonOptions options;
  options.socket_path = socket_path;
  options.max_connections =
      static_cast<size_t>(flags.GetInt("max-connections", 64));
  options.cache_dir = flags.GetString("cache-dir", "");
  options.quota.max_sessions =
      static_cast<size_t>(flags.GetInt("max-sessions", 64));
  options.quota.max_sessions_per_client =
      static_cast<size_t>(flags.GetInt("max-sessions-per-client", 8));
  options.quota.max_queries_per_update =
      static_cast<size_t>(flags.GetInt("max-queries-per-update", 256));
  options.quota.aggregate_max_states =
      static_cast<size_t>(flags.GetInt("aggregate-max-states", 0));
  options.quota.aggregate_time_budget_sec =
      flags.GetDouble("aggregate-time-budget-sec", 0);

  vseld::Daemon daemon(options);
  daemon.RegisterStore(store_tag, &store, &dict);
  Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "vseld: %s\n", started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "vseld: listening on %s (store tag '%s')\n",
               socket_path.c_str(), store_tag.c_str());

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  // Wake every 200ms: WaitShutdownRequested observes the shutdown verb,
  // the poll observes signals.
  while (g_signalled == 0) {
    if (daemon.WaitShutdownRequested(0.2)) break;
  }
  std::fprintf(stderr, "vseld: draining...\n");
  daemon.Stop();
  std::fprintf(stderr,
               "vseld: drained (%llu sessions reaped); bye\n",
               static_cast<unsigned long long>(daemon.drained_sessions()));
  return 0;
}
