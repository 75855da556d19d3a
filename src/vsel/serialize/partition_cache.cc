#include "vsel/serialize/partition_cache.h"

#include <cerrno>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <system_error>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/telemetry/trace.h"

namespace rdfviews::vsel::serialize {

namespace fs = std::filesystem;

namespace {

constexpr char kEntrySuffix[] = ".rvpo";
/// In-flight writes; a crash between write and rename orphans one, so
/// Clear() sweeps this extension too (Get/Size never look at them).
constexpr char kTempSuffix[] = ".tmp";

/// Reads a whole file into a string; nullopt on any failure. `io_error`
/// distinguishes why: false means the file simply does not exist (a
/// genuine cache miss), true means the storage layer misbehaved — open
/// failure other than ENOENT, or a read error mid-way.
std::optional<std::string> ReadFileBytes(const std::string& path,
                                         bool* io_error) {
  *io_error = false;
  if (!fault::Maybe(fault::sites::kDirCacheGetOpen).ok()) {
    *io_error = true;
    return std::nullopt;
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *io_error = errno != ENOENT;
    return std::nullopt;
  }
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, n);
  }
  bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (ok && !fault::Maybe(fault::sites::kDirCacheGetRead).ok()) ok = false;
  if (!ok) {
    *io_error = true;
    return std::nullopt;
  }
  return bytes;
}

bool WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) std::remove(path.c_str());
  return ok;
}

}  // namespace

void AppendCacheCounterSamples(const PartitionCacheBackend::Counters& c,
                               const char* label,
                               std::vector<telemetry::MetricSample>* out) {
  const std::string labels = std::string("backend=\"") + label + "\"";
  auto add = [&](const char* name, uint64_t v) {
    telemetry::MetricSample s;
    s.name = name;
    s.labels = labels;
    s.value = v;
    out->push_back(std::move(s));
  };
  // Native Counters count an io_failure inside misses; the registry series
  // split them so gets == hits + misses + io_failures exactly.
  add("vsel_cache_gets_total", c.hits + c.misses);
  add("vsel_cache_hits_total", c.hits);
  add("vsel_cache_misses_total", c.misses - c.io_failures);
  add("vsel_cache_io_failures_total", c.io_failures);
  add("vsel_cache_rejected_total", c.rejected);
  add("vsel_cache_rehydration_rejected_total", c.rehydration_rejected);
  add("vsel_cache_stored_total", c.stored);
  add("vsel_cache_store_failures_total", c.store_failures);
  add("vsel_cache_temp_files_reaped_total", c.temp_files_reaped);
}

// ---- DirCacheBackend -------------------------------------------------------

DirCacheBackend::DirCacheBackend(std::string root,
                                 const CacheIdentity& identity,
                                 double reap_temp_older_than_sec)
    : root_(std::move(root)), identity_(identity) {
  metrics_ = telemetry::MetricsRegistry::Default()->RegisterCollector(
      [this](std::vector<telemetry::MetricSample>* out) {
        AppendCacheCounterSamples(counters(), "dir", out);
      });
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec) {
    RDFVIEWS_LOG(kWarning) << "partition cache root " << root_
                           << " not creatable: " << ec.message()
                           << " (every lookup will miss)";
    return;
  }
  if (reap_temp_older_than_sec <= 0) return;
  // Reap crash-orphaned temp files: live writers rename within
  // milliseconds of creating theirs, so anything older than the threshold
  // belongs to a process that died mid-Put. Best-effort throughout — a
  // concurrent reaper racing us on the same file just loses the remove.
  const auto cutoff = fs::file_time_type::clock::now() -
                      std::chrono::duration_cast<fs::file_time_type::duration>(
                          std::chrono::duration<double>(
                              reap_temp_older_than_sec));
  uint64_t reaped = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(root_, ec)) {
    if (entry.path().extension() != kTempSuffix) continue;
    std::error_code ft_ec;
    const auto mtime = fs::last_write_time(entry.path(), ft_ec);
    if (ft_ec || mtime > cutoff) continue;
    std::error_code rm_ec;
    if (fs::remove(entry.path(), rm_ec) && !rm_ec) ++reaped;
  }
  if (reaped > 0) {
    RDFVIEWS_LOG(kInfo) << "partition cache " << root_ << ": reaped "
                        << reaped << " orphaned temp file(s)";
    std::lock_guard<std::mutex> lock(mu_);
    counters_.temp_files_reaped += reaped;
  }
}

std::string DirCacheBackend::PathForKey(const std::string& key) const {
  // The identity participates in the name, not just in the file header:
  // differently-configured jobs sharing one root then *coexist* (each
  // warms its own entries) instead of identity-rejecting and overwriting
  // each other's files on every run.
  const std::string salted = IdentityKeyBytes(identity_) + key;
  Hash128 h = HashBytes128(salted.data(), salted.size());
  char name[33];
  std::snprintf(name, sizeof(name), "%016llx%016llx",
                static_cast<unsigned long long>(h.hi),
                static_cast<unsigned long long>(h.lo));
  return root_ + "/" + name + kEntrySuffix;
}

Status DirCacheBackend::Get(const std::string& key, Fetched* out) {
  bool io_error = false;
  std::optional<std::string> bytes = ReadFileBytes(PathForKey(key), &io_error);
  if (!bytes.has_value()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.misses;
    if (io_error) {
      ++counters_.io_failures;
      return Status::Internal("partition cache read failed under " + root_);
    }
    return Status::NotFound("no cached outcome");
  }
  Result<pipeline::PartitionSearchResult> outcome = [&] {
    telemetry::TraceSpan span("serialize.decode");
    span.Annotate("bytes", static_cast<uint64_t>(bytes->size()));
    static telemetry::Histogram* const sizes =
        telemetry::MetricsRegistry::Default()->GetHistogram(
            "vsel_serialize_bytes", "op=\"decode\"");
    sizes->Observe(bytes->size());
    return DeserializePartitionOutcome(*bytes, key, identity_);
  }();
  if (!outcome.ok()) {
    // Corrupt / foreign-identity / hash-collision entries are misses, not
    // errors: the partition simply stays dirty and gets re-searched (and
    // its fresh result overwrites this file).
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.misses;
    ++counters_.rejected;
    return Status::NotFound("cached entry unusable: " +
                            outcome.status().message());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.hits;
  }
  *out = Fetched{std::move(*outcome), /*needs_rehydration=*/true};
  return Status::OK();
}

Status DirCacheBackend::Put(const std::string& key,
                            const pipeline::PartitionSearchResult& result) {
  const std::string path = PathForKey(key);
  // Private temp name (pid + process-wide counter — per-backend counters
  // would collide across two backend instances in one process writing the
  // same key), committed with an atomic rename: concurrent sessions on a
  // shared directory never observe a torn file, and racing writers of one
  // key both wrote the same completed search, so last-rename-wins is
  // correct. The ".tmp" extension keeps crash-orphaned writes out of
  // Get/Size and sweepable by Clear.
  static std::atomic<uint64_t> process_temp_counter{0};
  const std::string tmp =
      path + "." + std::to_string(::getpid()) + "." +
      std::to_string(
          process_temp_counter.fetch_add(1, std::memory_order_relaxed)) +
      kTempSuffix;
  std::string bytes = [&] {
    telemetry::TraceSpan span("serialize.encode");
    std::string encoded = SerializePartitionOutcome(key, result, identity_);
    span.Annotate("bytes", static_cast<uint64_t>(encoded.size()));
    static telemetry::Histogram* const sizes =
        telemetry::MetricsRegistry::Default()->GetHistogram(
            "vsel_serialize_bytes", "op=\"encode\"");
    sizes->Observe(encoded.size());
    return encoded;
  }();
  bool ok = fault::Maybe(fault::sites::kDirCachePutWrite).ok() &&
            WriteFileBytes(tmp, bytes);
  if (ok) {
    if (!fault::Maybe(fault::sites::kDirCachePutRename).ok()) {
      // Behave exactly as if rename(2) failed: remove the temp, report the
      // store failure (the entry is a future miss, never a torn file).
      std::remove(tmp.c_str());
      ok = false;
    } else {
      std::error_code ec;
      fs::rename(tmp, path, ec);
      if (ec) {
        std::remove(tmp.c_str());
        ok = false;
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (ok) {
    ++counters_.stored;
    return Status::OK();
  }
  ++counters_.store_failures;
  return Status::Internal("partition cache write failed under " + root_);
}

Status DirCacheBackend::Invalidate(const std::string& key) {
  const std::string path = PathForKey(key);
  if (std::remove(path.c_str()) != 0 && errno != ENOENT) {
    return Status::Internal("partition cache entry not removable: " + path);
  }
  return Status::OK();
}

void DirCacheBackend::Clear() {
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(root_, ec)) {
    const fs::path ext = entry.path().extension();
    if (ext == kEntrySuffix || ext == kTempSuffix) {
      std::error_code rm_ec;
      fs::remove(entry.path(), rm_ec);
    }
  }
}

size_t DirCacheBackend::Size() const {
  size_t n = 0;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(root_, ec)) {
    if (entry.path().extension() == kEntrySuffix) ++n;
  }
  return n;
}

void DirCacheBackend::NoteRehydrationRejected() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.rehydration_rejected;
}

PartitionCacheBackend::Counters DirCacheBackend::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace rdfviews::vsel::serialize
