// Storage for a TuningSession's per-partition search results.
//
// The session's invalidation rule (session.h) keys completed partition
// outcomes by canonical workload keys — renaming-insensitive, minimized,
// self-contained. This file defines the storage interface for those
// (key, outcome) pairs and its durable implementation:
//
//   - DirCacheBackend: one file per canonical key under a cache root, in
//     the versioned, identity-tagged, checksummed binary format of
//     serialize.h. Outcomes survive process restarts, and any number of
//     concurrent sessions (or tuning nodes mounting a shared directory)
//     may point at the same root: writes go to a private temp file and
//     commit with an atomic rename, so readers observe either the old or
//     the new complete file, never a torn one. All failure handling is
//     best-effort-miss: a missing, corrupt, foreign-identity or
//     mid-replacement file is a cache miss (counted, never an error), and
//     two racing writers of the same key leave whichever committed last —
//     both wrote the same completed search result, so either is correct.
//
// A session always holds its entries in one in-memory LRU,
// TieredCacheBackend (tiered_cache.h), optionally over a DirCacheBackend.
//
// Entries served by a persistent backend crossed a process boundary:
// `Fetched::needs_rehydration` tells the session to re-intern the state's
// views through its live CostModel and re-cost it, accepting the entry only
// if the recomputed cost equals the persisted one (the last line of defense
// against statistics or weight drift the identity tag did not encode).
#ifndef RDFVIEWS_VSEL_SERIALIZE_PARTITION_CACHE_H_
#define RDFVIEWS_VSEL_SERIALIZE_PARTITION_CACHE_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "common/telemetry/metrics.h"
#include "vsel/pipeline/pipeline.h"
#include "vsel/serialize/serialize.h"

namespace rdfviews::vsel::serialize {

/// Storage interface for (canonical workload key -> completed partition
/// outcome) pairs. Implementations must be safe to call from multiple
/// threads (sessions sharing one backend object) and must treat every
/// storage failure as a miss — a cache can always fall back to searching.
class PartitionCacheBackend {
 public:
  struct Fetched {
    pipeline::PartitionSearchResult result;
    /// True when the entry crossed a process boundary (was deserialized):
    /// the session must rehydrate it (re-intern + re-cost) before trusting
    /// it. In-memory entries are live objects and skip rehydration.
    bool needs_rehydration = false;
  };

  /// Best-effort traffic counters (exact under single-threaded use).
  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Entries present but unusable: corrupt, foreign identity, or a
    /// filename-hash collision with a different key.
    uint64_t rejected = 0;
    /// Entries that decoded fine (counted as hits) but failed the
    /// session's rehydration checks — re-cost mismatch or structural
    /// misfit — and were discarded (see NoteRehydrationRejected).
    uint64_t rehydration_rejected = 0;
    uint64_t stored = 0;
    uint64_t store_failures = 0;
    /// Misses caused by the storage layer misbehaving (open/read failure
    /// on an *existing* entry) rather than by genuine absence — a subset
    /// of `misses`.
    uint64_t io_failures = 0;
    /// DirCacheBackend only: crash-orphaned temp files swept at
    /// construction (see the reap_temp_older_than_sec constructor knob).
    uint64_t temp_files_reaped = 0;
  };

  virtual ~PartitionCacheBackend() = default;

  /// Looks up `key`. The Status *is* the contract: OK means hit (`*out` is
  /// filled), NotFound means the entry genuinely is not there, and any
  /// other code means the storage layer misbehaved (open/read failure on
  /// an existing entry, a wedged filesystem) — counted apart as an
  /// io_failure. Corrupt or foreign-identity entries are NotFound (the
  /// partition is simply re-searched), never an error. Callers that only
  /// care hit-vs-miss test `.ok()`.
  virtual Status Get(const std::string& key, Fetched* out) = 0;

  /// Stores a completed outcome under `key` (best-effort; replaces any
  /// previous entry). Non-OK means the store failed — callers may ignore
  /// it (a failed Put is a future miss).
  virtual Status Put(const std::string& key,
                     const pipeline::PartitionSearchResult& result) = 0;

  /// Drops any cached copy of `key` alone (best-effort; non-OK when the
  /// storage layer failed to drop an existing entry). The base
  /// implementation is a no-op. A backend that keeps decoded entries
  /// (TieredCacheBackend's LRU) must honor it — the session calls
  /// Invalidate when an entry it was served fails rehydration (identity /
  /// cost drift), and without the drop the LRU would keep serving the same
  /// poisoned bytes on every update.
  virtual Status Invalidate(const std::string& key) {
    (void)key;
    return Status::OK();
  }

  /// Drops every entry this backend can reach.
  virtual void Clear() = 0;

  /// Number of entries currently addressable.
  virtual size_t Size() const = 0;

  /// Capacity hint after each session update: in-memory entries beyond
  /// `max_entries` are evicted least-recently-used first; persistent
  /// backends may ignore it (the filesystem is the capacity owner there).
  virtual void Trim(size_t max_entries) { (void)max_entries; }

  /// Called by the session when an entry this backend served (a counted
  /// hit) failed rehydration and was discarded, so the counters tell the
  /// drift story instead of silently reporting hits with zero reuse.
  virtual void NoteRehydrationRejected() {}

  virtual Counters counters() const { return Counters{}; }
};

/// Emits one backend's counters as registry samples labeled
/// `backend="<label>"`. The registry series re-derive the counts so the
/// invariant `gets == hits + misses + io_failures` holds exactly: the
/// native Counters treat an io_failure as a kind of miss (misses includes
/// it), so the emitted misses series is genuine absences only.
void AppendCacheCounterSamples(const PartitionCacheBackend::Counters& c,
                               const char* label,
                               std::vector<telemetry::MetricSample>* out);

/// One file per canonical key under `root`, named by the hex of the key's
/// 128-bit hash (keys themselves are long binary canonical strings; the
/// embedded key is verified on load, so a filename collision degrades to a
/// miss). See the header comment for the contention semantics.
class DirCacheBackend : public PartitionCacheBackend {
 public:
  /// Creates `root` (and parents) when absent. `identity` tags every file
  /// written and gates every file read. Temp files older than
  /// `reap_temp_older_than_sec` under the root are removed (and counted in
  /// Counters::temp_files_reaped): they are writes orphaned by a crashed
  /// process — live writers rename within milliseconds — and without the
  /// sweep a crash-looping job leaks one per attempt forever. Pass <= 0 to
  /// disable the sweep (tests exercising racing writers do).
  DirCacheBackend(std::string root, const CacheIdentity& identity,
                  double reap_temp_older_than_sec = 3600.0);

  Status Get(const std::string& key, Fetched* out) override;
  Status Put(const std::string& key,
             const pipeline::PartitionSearchResult& result) override;
  /// Removes `key`'s entry file (this identity's), so a poisoned entry is
  /// a one-time miss instead of a rehydration-rejection on every session.
  Status Invalidate(const std::string& key) override;
  void NoteRehydrationRejected() override;
  /// Removes every cache entry file under the root — all identities, plus
  /// any crash-orphaned temp files (the caller owns the directory).
  void Clear() override;
  /// Counts entry files under the root (any identity).
  size_t Size() const override;
  Counters counters() const override;

  const std::string& root() const { return root_; }
  const CacheIdentity& identity() const { return identity_; }

 private:
  std::string PathForKey(const std::string& key) const;

  std::string root_;
  CacheIdentity identity_;
  mutable std::mutex mu_;  // guards counters_ only
  Counters counters_;
  // Last member: unregisters before counters_/mu_ die.
  telemetry::CollectorHandle metrics_;
};

}  // namespace rdfviews::vsel::serialize

#endif  // RDFVIEWS_VSEL_SERIALIZE_PARTITION_CACHE_H_
