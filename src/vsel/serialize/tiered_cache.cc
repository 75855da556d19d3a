#include "vsel/serialize/tiered_cache.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace rdfviews::vsel::serialize {

TieredCacheBackend::TieredCacheBackend(
    std::shared_ptr<PartitionCacheBackend> store)
    : store_(std::move(store)) {
  metrics_ = telemetry::MetricsRegistry::Default()->RegisterCollector(
      [this](std::vector<telemetry::MetricSample>* out) {
        AppendCacheCounterSamples(counters(), "tiered", out);
        telemetry::MetricSample hits;
        hits.name = "vsel_tiered_front_hits_total";
        hits.value = FrontHits();
        out->push_back(std::move(hits));
        telemetry::MetricSample promos;
        promos.name = "vsel_tiered_back_promotions_total";
        promos.value = BackPromotions();
        out->push_back(std::move(promos));
        telemetry::MetricSample entries;
        entries.name = "vsel_tiered_front_entries";
        entries.kind = telemetry::MetricKind::kGauge;
        entries.gauge_value = static_cast<int64_t>(FrontSize());
        out->push_back(std::move(entries));
      });
}

Status TieredCacheBackend::Get(const std::string& key, Fetched* out) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = front_.find(key);
    if (it != front_.end()) {
      it->second.last_used = ++use_counter_;
      ++counters_.hits;
      ++front_hits_;
      // Cheap copy: shared COW views / rewritings. needs_rehydration
      // travels as cached (see the header).
      *out = it->second.fetched;
      return Status::OK();
    }
    if (store_ == nullptr) {
      ++counters_.misses;
      return Status::NotFound("no cached outcome");  // memory never I/O-fails
    }
  }
  // Store I/O outside the lock: a slow directory must not serialize every
  // LRU hit behind it.
  Fetched fetched;
  Status store_status = store_->Get(key, &fetched);
  std::lock_guard<std::mutex> lock(mu_);
  if (!store_status.ok()) {
    ++counters_.misses;
    if (store_status.code() != StatusCode::kNotFound) ++counters_.io_failures;
    return store_status;
  }
  ++counters_.hits;
  ++back_promotions_;
  InsertLocked(key, fetched);
  *out = std::move(fetched);
  return Status::OK();
}

Status TieredCacheBackend::Put(const std::string& key,
                               const pipeline::PartitionSearchResult& result) {
  Status store_status =
      store_ == nullptr ? Status::OK() : store_->Put(key, result);
  std::lock_guard<std::mutex> lock(mu_);
  // The live entry needs no rehydration — it never left the process.
  InsertLocked(key, Fetched{result, /*needs_rehydration=*/false});
  if (store_status.ok()) {
    ++counters_.stored;
  } else {
    // The LRU still serves the entry this process's lifetime; the failure
    // only cost durability.
    ++counters_.store_failures;
  }
  return store_status;
}

Status TieredCacheBackend::Invalidate(const std::string& key) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    front_.erase(key);
  }
  return store_ == nullptr ? Status::OK() : store_->Invalidate(key);
}

void TieredCacheBackend::Clear() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    front_.clear();
  }
  if (store_ != nullptr) store_->Clear();
}

size_t TieredCacheBackend::Size() const {
  return store_ == nullptr ? FrontSize() : store_->Size();
}

void TieredCacheBackend::Trim(size_t max_entries) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (front_.size() > max_entries) {
      std::vector<std::pair<uint64_t, const std::string*>> by_age;
      by_age.reserve(front_.size());
      for (const auto& [key, entry] : front_) {
        by_age.emplace_back(entry.last_used, &key);
      }
      // Only the cut matters, not the order on either side of it.
      const auto cut = by_age.begin() + (by_age.size() - max_entries);
      std::nth_element(by_age.begin(), cut, by_age.end());
      for (auto it = by_age.begin(); it != cut; ++it) front_.erase(*it->second);
    }
  }
  if (store_ != nullptr) store_->Trim(max_entries);
}

void TieredCacheBackend::NoteRehydrationRejected() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.rehydration_rejected;
  }
  if (store_ != nullptr) store_->NoteRehydrationRejected();
}

PartitionCacheBackend::Counters TieredCacheBackend::counters() const {
  const Counters store =
      store_ == nullptr ? Counters{} : store_->counters();
  std::lock_guard<std::mutex> lock(mu_);
  Counters c = counters_;
  c.rejected = store.rejected;
  c.temp_files_reaped = store.temp_files_reaped;
  return c;
}

size_t TieredCacheBackend::FrontSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return front_.size();
}

uint64_t TieredCacheBackend::FrontHits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return front_hits_;
}

uint64_t TieredCacheBackend::BackPromotions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return back_promotions_;
}

void TieredCacheBackend::InsertLocked(const std::string& key,
                                      Fetched fetched) {
  FrontEntry& e = front_[key];
  e.fetched = std::move(fetched);
  e.last_used = ++use_counter_;
}

}  // namespace rdfviews::vsel::serialize
