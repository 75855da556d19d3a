// Deterministic, seed-driven fault injection for robustness testing.
//
// Production code marks its failure-prone operations with *named fault
// sites*:
//
//     Status injected = fault::Maybe(fault::sites::kDirCachePutRename);
//     if (!injected.ok()) { /* behave exactly as if rename(2) failed */ }
//
// Disarmed (the default, and the only state production ever sees), Maybe is
// a single relaxed atomic load returning OK — no registration, no string
// hashing, no locks. Tests arm the injector with a FaultPlan mapping site
// names to SiteSpecs: an action (fail / throw / bad_alloc / hang) and a
// trigger (fire on the nth evaluation for a window of `count` hits, or
// per-evaluation with probability p drawn from a deterministic per-site
// stream derived from the plan seed). Hit and injection counters are
// thread-safe, so chaos tests can assert exactly which sites fired.
//
// Hangs are *cooperative*: an injected hang blocks until the ambient stop
// token (installed by the enclosing containment boundary via
// ScopedHangToken — e.g. the per-partition watchdog token in pipeline
// stage 3) fires, the injector is disarmed, or the spec's safety cap
// elapses; it then returns TimedOut. This makes "a partition wedged on a
// flaky filesystem" reproducible and lets tests prove the watchdog bounds
// it.
//
// The canonical site list lives in fault::sites (with kAll for chaos tests
// that must cover every registered site). Sites are evaluated at most a few
// times per partition / cache operation — never inside search hot loops.
#ifndef RDFVIEWS_COMMON_FAULT_H_
#define RDFVIEWS_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"
#include "common/stop_token.h"

namespace rdfviews::fault {

namespace sites {
// DirCacheBackend (vsel/serialize/partition_cache.cc): I/O failures that
// must degrade to counted cache misses / store failures.
inline constexpr const char kDirCacheGetOpen[] = "dircache.get.open";
inline constexpr const char kDirCacheGetRead[] = "dircache.get.read";
inline constexpr const char kDirCachePutWrite[] = "dircache.put.write";
inline constexpr const char kDirCachePutRename[] = "dircache.put.rename";
// rdf::LoadSnapshot (rdf/statistics.cc): a corrupt / unreadable snapshot
// file must surface as a Status, never wedge or crash the loader.
inline constexpr const char kSnapshotLoad[] = "snapshot.load";
// Pipeline stage 3 (vsel/pipeline/search_stage.cc), inside the
// per-partition containment boundary: a throwing / failing / hung
// partition search must be retried then abandoned, never propagated.
inline constexpr const char kPartitionSearch[] = "search.partition.run";
// ThreadPool workers (common/thread_pool.h): a task that dies must not
// take the process (or its pool) down with it.
inline constexpr const char kPoolTask[] = "pool.task.run";
// vseld daemon (src/vseld/): a failed accept must not kill the accept
// loop, a torn / failed frame read or write must surface as a counted,
// contained connection error (never a hung worker), and a failure at the
// head of a session update must come back as a Status response with the
// session still usable.
inline constexpr const char kDaemonAccept[] = "vseld.accept";
inline constexpr const char kDaemonFrameRead[] = "vseld.frame.read";
inline constexpr const char kDaemonFrameWrite[] = "vseld.frame.write";
inline constexpr const char kDaemonSessionRun[] = "vseld.session.run";

/// Every registered site, for chaos tests that sweep the full surface.
inline constexpr const char* kAll[] = {
    kDirCacheGetOpen,   kDirCacheGetRead,  kDirCachePutWrite,
    kDirCachePutRename, kSnapshotLoad,     kPartitionSearch,
    kPoolTask,          kDaemonAccept,     kDaemonFrameRead,
    kDaemonFrameWrite,  kDaemonSessionRun,
};
}  // namespace sites

/// What an armed site does when its trigger fires.
enum class Action {
  /// Maybe returns a non-OK Status; the site behaves as if the underlying
  /// operation failed cleanly.
  kFail,
  /// MaybeThrow throws std::runtime_error (Maybe still returns the Status).
  kThrow,
  /// MaybeThrow throws std::bad_alloc.
  kBadAlloc,
  /// Maybe blocks until the ambient ScopedHangToken stops, the injector is
  /// disarmed, or hang_max_sec elapses; then returns TimedOut.
  kHang,
};

/// Marks every evaluation from `nth` for `count` hits (1-based, so the
/// default fires the very first evaluation and nothing else), or — when
/// `probability` > 0 — each evaluation independently with that probability,
/// drawn from a per-site stream seeded by (plan seed, site name, hit index)
/// so a given seed always fires the same hit sequence.
struct SiteSpec {
  Action action = Action::kFail;
  uint64_t nth = 1;
  uint64_t count = 1;
  double probability = 0;
  /// Safety cap for Action::kHang: the hang self-releases after this many
  /// seconds even with no stop token, so an unguarded site can never wedge
  /// a test binary.
  double hang_max_sec = 30.0;
};

/// Fires `count` forever (every evaluation from `nth` on).
inline constexpr uint64_t kForever = ~0ull;

using FaultPlan = std::map<std::string, SiteSpec>;

/// Arms the injector. Replaces any previous plan and resets all counters.
/// Sites not named by the plan keep behaving normally.
void Arm(uint64_t seed, FaultPlan plan);

/// Disarms: every site returns to the no-op fast path. Counters survive
/// until the next Arm so tests can inspect them after the run.
void Disarm();

bool armed();

/// Evaluates `site`: OK (and nothing counted) when disarmed or the site is
/// not in the plan; otherwise counts the hit and, when the trigger fires,
/// performs the action — returning a non-OK Status for kFail / kThrow /
/// kBadAlloc (callers inside exception boundaries use MaybeThrow to get the
/// exception) and blocking then returning TimedOut for kHang.
Status Maybe(const char* site);

/// Like Maybe, but converts a fired kThrow into std::runtime_error and a
/// fired kBadAlloc into std::bad_alloc. kFail / kHang still return their
/// Status; callers that cannot surface a Status should treat it as fatal
/// themselves.
Status MaybeThrow(const char* site);

/// Evaluations / fired injections of `site` since the last Arm.
uint64_t Hits(const char* site);
uint64_t Injected(const char* site);

/// Installs `token` as the current thread's ambient hang-release token for
/// the guard's lifetime (nestable; the innermost wins). Containment
/// boundaries install their combined (caller + watchdog) token so injected
/// hangs under them are released exactly when a real cooperative operation
/// would observe the stop.
class ScopedHangToken {
 public:
  explicit ScopedHangToken(const StopToken& token);
  ~ScopedHangToken();
  ScopedHangToken(const ScopedHangToken&) = delete;
  ScopedHangToken& operator=(const ScopedHangToken&) = delete;

 private:
  const StopToken* previous_;
};

namespace internal {
/// The fast-path gate: nonzero iff some plan is armed. A single relaxed
/// load keeps disarmed sites free.
extern std::atomic<bool> g_armed;
Status Evaluate(const char* site, bool allow_throw);
}  // namespace internal

inline Status Maybe(const char* site) {
  if (!internal::g_armed.load(std::memory_order_relaxed)) return Status::OK();
  return internal::Evaluate(site, /*allow_throw=*/false);
}

inline Status MaybeThrow(const char* site) {
  if (!internal::g_armed.load(std::memory_order_relaxed)) return Status::OK();
  return internal::Evaluate(site, /*allow_throw=*/true);
}

}  // namespace rdfviews::fault

#endif  // RDFVIEWS_COMMON_FAULT_H_
