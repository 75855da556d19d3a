// TuningConfig::Validate — the one place bad knob combinations are named
// and rejected before any layer (session, pipeline, daemon verb) acts on
// them.
#include <cmath>
#include <string>

#include "vsel/options.h"

namespace rdfviews::vsel {

namespace {

Status Bad(const std::string& field, const std::string& why) {
  return Status::InvalidArgument("TuningConfig." + field + " " + why);
}

bool NonFinite(double v) { return !std::isfinite(v); }

}  // namespace

Status TuningConfig::Validate() const {
  // Search limits: budgets and caps may be "unlimited" (zero,
  // max_states included — the engines and the apportioner treat 0 as
  // uncapped) but never negative.
  if (NonFinite(limits.time_budget_sec) || limits.time_budget_sec < 0) {
    return Bad("limits.time_budget_sec",
               "must be >= 0 seconds (0 = unlimited)");
  }
  if (heuristics.vb_overlap < 0) {
    return Bad("heuristics.vb_overlap", "must be >= 0 shared nodes");
  }
  if (heuristics.vb_overlap_max_atoms == 0) {
    return Bad("heuristics.vb_overlap_max_atoms",
               "must be >= 1 atom (every view has at least one)");
  }

  // Cost weights: every component weight is a nonnegative finite scale.
  if (NonFinite(weights.cs) || weights.cs < 0)
    return Bad("weights.cs", "must be a finite weight >= 0");
  if (NonFinite(weights.cr) || weights.cr < 0)
    return Bad("weights.cr", "must be a finite weight >= 0");
  if (NonFinite(weights.cm) || weights.cm < 0)
    return Bad("weights.cm", "must be a finite weight >= 0");
  if (NonFinite(weights.c1) || weights.c1 < 0)
    return Bad("weights.c1", "must be a finite weight >= 0");
  if (NonFinite(weights.c2) || weights.c2 < 0)
    return Bad("weights.c2", "must be a finite weight >= 0");
  if (NonFinite(weights.f) || weights.f < 0)
    return Bad("weights.f", "must be a finite fan-out factor >= 0");

  // Retry / watchdog: at least one attempt, nonnegative backoffs, a
  // multiplier that does not shrink, and a cap no smaller than the start.
  if (robust.retry.max_attempts == 0) {
    return Bad("robust.retry.max_attempts",
               "must be >= 1 (the first try counts as an attempt)");
  }
  if (NonFinite(robust.retry.initial_backoff_sec) ||
      robust.retry.initial_backoff_sec < 0) {
    return Bad("robust.retry.initial_backoff_sec", "must be >= 0 seconds");
  }
  if (NonFinite(robust.retry.backoff_multiplier) ||
      robust.retry.backoff_multiplier < 1.0) {
    return Bad("robust.retry.backoff_multiplier",
               "must be >= 1 (backoffs never shrink)");
  }
  if (NonFinite(robust.retry.max_backoff_sec) ||
      robust.retry.max_backoff_sec < robust.retry.initial_backoff_sec) {
    return Bad("robust.retry.max_backoff_sec",
               "must be >= robust.retry.initial_backoff_sec "
               "(the cap cannot undercut the first backoff)");
  }
  if (NonFinite(robust.partition_deadline_sec) ||
      robust.partition_deadline_sec < 0) {
    return Bad("robust.partition_deadline_sec",
               "must be >= 0 seconds (0 = no watchdog)");
  }

  // Partitioning: a cap without partitioning enabled is a contradiction —
  // reject instead of silently ignoring the knob.
  if (!partition.enabled && partition.max_partitions != 0) {
    return Bad("partition.max_partitions",
               "set while partition.enabled is false; enable partitioning "
               "or leave the cap at 0");
  }

  return Status::OK();
}

}  // namespace rdfviews::vsel
