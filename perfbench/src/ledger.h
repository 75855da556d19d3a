// Shared plumbing of the tuner benchmark: run arguments, the result ledger
// printed as the last line of stdout, order statistics, and readers for the
// spans and registry counters the library exports.
#ifndef RDFVIEWS_PERFBENCH_LEDGER_H_
#define RDFVIEWS_PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/telemetry/export.h"
#include "common/telemetry/metrics.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Sets the time floors of the repeatable phases (warm starts, traced
  /// answer passes), above each one's minimum sample count. The fixed work
  /// of every workload (tunes, updates, sessions) does not depend on it.
  double seconds = 30;
  /// 0: end-to-end metrics, tracing off everywhere. 1: per-layer metrics
  /// from a traced run plus the untraced twin used for the overhead ratio.
  bool trace = false;
  /// Working directory for cache files and the daemon socket.
  std::string workdir;
};

/// Accumulates metrics and the correctness tally of one run.
class Ledger {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Counts one operation or check; a false `ok` is a failure and is
  /// reported on stderr with `what`.
  bool Check(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// The single-line JSON result object.
  std::string Json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values);
/// The median of each unit's samples, one value per unit.
std::vector<double> PerUnitMedians(
    const std::vector<std::vector<double>>& samples);
/// Prints `label`'s sample count and order statistics to stderr.
void Describe(const std::string& label, const std::vector<double>& values);
/// Nearest-rank percentile, `p` in (0, 100].
double Percentile(std::vector<double> values, double p);
/// How many samples lie strictly above the nearest-rank `p` percentile.
size_t SamplesBeyond(const std::vector<double>& values, double p);

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// Seconds covered by every span named `name`.
double SpanSeconds(const std::vector<rdfviews::telemetry::SpanRecord>& spans,
                   const std::string& name);
size_t SpanCount(const std::vector<rdfviews::telemetry::SpanRecord>& spans,
                 const std::string& name);

/// Registry counter deltas between construction and a later snapshot.
class RegistryDelta {
 public:
  RegistryDelta();
  uint64_t Counter(const std::string& name,
                   const std::string& labels = "") const;
  /// As Counter, summed over every label set of `name`.
  uint64_t CounterAnyLabels(const std::string& name) const;
  uint64_t HistogramSumDelta(const std::string& name,
                             const std::string& labels = "") const;

 private:
  rdfviews::telemetry::MetricsSnapshot before_;
};

inline double Ratio(double num, double den) {
  return den > 0 ? num / den : 0;
}

/// Workload entry points. Each fills `ledger` with the end-to-end metrics
/// (args.trace == false) or the per-layer metrics (args.trace == true).
void RunSessionDrift(const Args& args, Ledger* ledger);
void RunRdfsSearch(const Args& args, Ledger* ledger);
void RunDaemonMixed(const Args& args, Ledger* ledger);

}  // namespace perfbench

#endif  // RDFVIEWS_PERFBENCH_LEDGER_H_
