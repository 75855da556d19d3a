// The session's partition-result cache: one LRU of decoded entries in
// process memory, over an optional durable store (a DirCacheBackend on a
// local or shared directory), write-through on Put.
//
// Without a store this is the whole cache: completed outcomes live as
// shared COW objects and are served without rehydration. With a store,
// outcomes also survive the process, and the daemon's sessions sharing one
// instance per cache identity skip the re-read and re-decode of entries any
// of them already holds — the store is only consulted on an LRU miss, and a
// store hit is promoted into the LRU for the next caller.
//
// Coherence rules:
//   - Put writes through: the live entry lands in the LRU (served without
//     rehydration) and the bytes go to the store. A failed store Put is
//     counted but does not evict the LRU entry — the entry is correct, it
//     just will not survive the process.
//   - An entry promoted from the store keeps needs_rehydration = true: it
//     crossed a process boundary once, so every session that fetches it
//     must re-intern and re-cost it (the LRU saves the read + decode, not
//     the validation).
//   - Invalidate(key) — called by the session when a served entry fails
//     rehydration (identity or cost drift the tags missed) — evicts the
//     LRU copy and forwards to the store, so the poisoned entry degrades
//     to a store re-validation instead of being served forever.
//   - Trim(n) is the only bound: it keeps the n most recently used
//     entries. Clear() empties the LRU and the store.
//
// Thread-safe like every backend. Counters describe the combined view — an
// LRU hit is a hit — with the LRU/store split exposed through the registry
// series labeled backend="tiered".
#ifndef RDFVIEWS_VSEL_SERIALIZE_TIERED_CACHE_H_
#define RDFVIEWS_VSEL_SERIALIZE_TIERED_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/telemetry/metrics.h"
#include "vsel/serialize/partition_cache.h"

namespace rdfviews::vsel::serialize {

class TieredCacheBackend : public PartitionCacheBackend {
 public:
  /// `store` is the durable tier (shared ownership); null keeps every
  /// entry in process memory only.
  explicit TieredCacheBackend(
      std::shared_ptr<PartitionCacheBackend> store = nullptr);

  Status Get(const std::string& key, Fetched* out) override;
  Status Put(const std::string& key,
             const pipeline::PartitionSearchResult& result) override;
  Status Invalidate(const std::string& key) override;
  void Clear() override;
  /// The store's entry count when there is one (the durable population;
  /// the LRU is a subset plus at most the entries whose store Put failed),
  /// else the LRU's.
  size_t Size() const override;
  /// Evicts the least recently used entries beyond `max_entries` from the
  /// LRU and forwards the hint to the store.
  void Trim(size_t max_entries) override;
  void NoteRehydrationRejected() override;
  /// Traffic as callers see it, plus the store's own `rejected` and
  /// `temp_files_reaped` counts (events only the store can observe).
  Counters counters() const override;

  /// LRU observability: current entries and lifetime hit counts.
  size_t FrontSize() const;
  uint64_t FrontHits() const;
  uint64_t BackPromotions() const;

  PartitionCacheBackend* store() const { return store_.get(); }

 private:
  struct FrontEntry {
    Fetched fetched;
    uint64_t last_used = 0;
  };

  /// Inserts or refreshes `key` as the most recently used entry.
  void InsertLocked(const std::string& key, Fetched fetched);

  std::shared_ptr<PartitionCacheBackend> store_;
  mutable std::mutex mu_;  // guards front_, use_counter_, counters_
  std::unordered_map<std::string, FrontEntry> front_;
  uint64_t use_counter_ = 0;
  Counters counters_;
  uint64_t front_hits_ = 0;
  uint64_t back_promotions_ = 0;
  // Last member: unregisters before the state it reads dies.
  telemetry::CollectorHandle metrics_;
};

}  // namespace rdfviews::vsel::serialize

#endif  // RDFVIEWS_VSEL_SERIALIZE_TIERED_CACHE_H_
