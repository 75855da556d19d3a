// Tracing spans with an injectable clock and thread-local context
// propagation.
//
// A Tracer owns a flat vector of SpanRecords for one logical run (one
// session Update, one pipeline::Run). Spans are parented through a
// thread-local TraceContext {tracer, current span}: RAII TraceSpan reads
// the context at construction, appends an open record, re-points the
// context at itself, and closes the record + restores the parent on
// destruction. Crossing a thread boundary (pool task) means capturing
// CurrentTraceContext() before scheduling and installing it with
// ScopedTraceContext inside the task.
//
// Disarmed cost: when no context is installed (tracer == nullptr) a
// TraceSpan is one thread-local read and a branch — no allocation, no
// lock. Hot loops (per-state search work) are below span granularity by
// design; spans wrap stages, attempts, I/O and sleeps.
//
// The clock is a std::function<uint64_t()> returning nanos, injectable
// for determinism in tests.
#ifndef RDFVIEWS_COMMON_TELEMETRY_TRACE_H_
#define RDFVIEWS_COMMON_TELEMETRY_TRACE_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rdfviews {
namespace telemetry {

using SpanId = uint64_t;  // 1-based; 0 means "no span".

struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  bool closed = false;
  // Small string attributes: (key, value), appended via TraceSpan::Annotate.
  std::vector<std::pair<std::string, std::string>> attrs;
};

class Tracer {
 public:
  using Clock = std::function<uint64_t()>;  // nanoseconds

  /// Default clock is steady_clock-based wall time.
  Tracer();
  explicit Tracer(Clock clock);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NowNs() const { return clock_(); }

  /// Opens a span; returns its id. Thread-safe.
  SpanId Open(const std::string& name, SpanId parent);
  /// Closes a span (idempotent). Thread-safe.
  void Close(SpanId id);
  /// Appends a (key, value) attribute to an open-or-closed span.
  void Annotate(SpanId id, const std::string& key, const std::string& value);

  /// Copies out all records (ids are 1-based; record i has id i+1).
  std::vector<SpanRecord> Spans() const;

  /// True iff every span has been closed. A balanced tree is the
  /// invariant chaos/cancel tests gate on: RAII spans guarantee it as
  /// long as no exception escapes a span's scope un-unwound.
  bool AllClosed() const;

 private:
  Clock clock_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Thread-local propagation cell.
struct TraceContext {
  Tracer* tracer = nullptr;
  SpanId span = 0;
};

/// Reads the calling thread's current context (for capture-before-schedule).
TraceContext CurrentTraceContext();

/// Installs a context for the current scope; restores the previous one on
/// destruction. Use at pool-task entry with a context captured on the
/// submitting thread.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// RAII span: opens under the thread's current context (no-op when none),
/// re-points the context at itself, closes + restores on destruction.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool armed() const { return tracer_ != nullptr; }
  SpanId id() const { return id_; }

  void Annotate(const std::string& key, const std::string& value);
  void Annotate(const std::string& key, uint64_t value);

  /// Closes now (destructor then no-ops); for spans whose interesting
  /// region ends before scope exit.
  void End();

 private:
  Tracer* tracer_ = nullptr;
  SpanId id_ = 0;
  SpanId saved_parent_ = 0;
  bool ended_ = false;
};

/// Zero-duration child span ("event"): watchdog fire.
void TraceEvent(const char* name,
                std::initializer_list<std::pair<std::string, std::string>>
                    attrs = {});

}  // namespace telemetry
}  // namespace rdfviews

#endif  // RDFVIEWS_COMMON_TELEMETRY_TRACE_H_
