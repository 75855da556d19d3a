#include "ledger.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using rdfviews::telemetry::MetricKind;
using rdfviews::telemetry::MetricsRegistry;
using rdfviews::telemetry::MetricsSnapshot;
using rdfviews::telemetry::SpanRecord;

namespace {

/// Sum of every counter (or gauge) sample named `name` with exactly
/// `labels`; collectors of several live objects each contribute a sample.
uint64_t CounterSum(const MetricsSnapshot& snapshot, const std::string& name,
                    const std::string& labels) {
  uint64_t total = 0;
  for (const auto& s : snapshot.samples) {
    if (s.name != name || s.labels != labels) continue;
    total += s.kind == MetricKind::kGauge ? static_cast<uint64_t>(s.gauge_value)
                                          : s.value;
  }
  return total;
}

uint64_t CounterSumAnyLabels(const MetricsSnapshot& snapshot,
                             const std::string& name) {
  uint64_t total = 0;
  for (const auto& s : snapshot.samples) {
    if (s.name == name && s.kind == MetricKind::kCounter) total += s.value;
  }
  return total;
}

uint64_t HistogramSum(const MetricsSnapshot& snapshot, const std::string& name,
                      const std::string& labels) {
  uint64_t total = 0;
  for (const auto& s : snapshot.samples) {
    if (s.name == name && s.labels == labels &&
        s.kind == MetricKind::kHistogram) {
      total += s.histogram.sum;
    }
  }
  return total;
}

}  // namespace

void Ledger::Set(const std::string& name, double value,
                 const std::string& unit) {
  // JSON has no NaN or infinity: such a value is a failed check.
  if (!std::isfinite(value)) {
    Check(false, name + " is not finite");
    value = -1;
  }
  metrics_[name] = {value, unit};
}

bool Ledger::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

std::string Ledger::Json() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", entry.first);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           entry.second + "\"}";
  }
  out += "}}";
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double> PerUnitMedians(
    const std::vector<std::vector<double>>& samples) {
  std::vector<double> out;
  for (const auto& unit : samples) out.push_back(Median(unit));
  return out;
}

void Describe(const std::string& label, const std::vector<double>& values) {
  if (values.empty()) return;
  std::fprintf(stderr, "%-14s n=%-4zu min %.4g  p50 %.4g  p90 %.4g  max %.4g\n",
               label.c_str(), values.size(),
               *std::min_element(values.begin(), values.end()), Median(values),
               Percentile(values, 90),
               *std::max_element(values.begin(), values.end()));
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

size_t SamplesBeyond(const std::vector<double>& values, double p) {
  const double cut = Percentile(values, p);
  return static_cast<size_t>(std::count_if(
      values.begin(), values.end(), [cut](double v) { return v > cut; }));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double SpanSeconds(const std::vector<SpanRecord>& spans,
                   const std::string& name) {
  uint64_t ns = 0;
  for (const SpanRecord& s : spans) {
    if (s.name == name && s.end_ns >= s.start_ns) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

size_t SpanCount(const std::vector<SpanRecord>& spans,
                 const std::string& name) {
  return static_cast<size_t>(
      std::count_if(spans.begin(), spans.end(),
                    [&name](const SpanRecord& s) { return s.name == name; }));
}

RegistryDelta::RegistryDelta()
    : before_(MetricsRegistry::Default()->Snapshot()) {}

uint64_t RegistryDelta::Counter(const std::string& name,
                                const std::string& labels) const {
  const MetricsSnapshot now = MetricsRegistry::Default()->Snapshot();
  return CounterSum(now, name, labels) - CounterSum(before_, name, labels);
}

uint64_t RegistryDelta::CounterAnyLabels(const std::string& name) const {
  const MetricsSnapshot now = MetricsRegistry::Default()->Snapshot();
  return CounterSumAnyLabels(now, name) - CounterSumAnyLabels(before_, name);
}

uint64_t RegistryDelta::HistogramSumDelta(const std::string& name,
                                          const std::string& labels) const {
  const MetricsSnapshot now = MetricsRegistry::Default()->Snapshot();
  return HistogramSum(now, name, labels) - HistogramSum(before_, name, labels);
}

}  // namespace perfbench
