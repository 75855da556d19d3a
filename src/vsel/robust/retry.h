// Deterministic retry backoff for the pipeline's per-partition
// containment loop (search_stage.cc).
//
// The backoff for attempt k of stream s (a partition index) is
//
//   initial * multiplier^(k-2) * jitter(seed, s, k)
//
// with jitter a deterministic uniform draw in [0.5, 1.0] — so two runs with
// the same plan sleep the same sequence (chaos tests can assert exact
// convergence), while distinct partitions retrying the same shared resource
// still decorrelate. Sleeps honor a stop token at millisecond granularity:
// cancelling an update never waits out a backoff.
#ifndef RDFVIEWS_VSEL_ROBUST_RETRY_H_
#define RDFVIEWS_VSEL_ROBUST_RETRY_H_

#include <cstddef>
#include <cstdint>

#include "common/stop_token.h"
#include "vsel/options.h"

namespace rdfviews::vsel::robust {

/// Backoff in seconds to sleep *before* attempt `attempt` (2-based: the
/// first attempt never sleeps, so BackoffDelaySec(p, s, 1) == 0). Jittered
/// deterministically from (policy.jitter_seed, stream, attempt) and capped
/// at policy.max_backoff_sec; callers additionally clip to their remaining
/// time budget.
double BackoffDelaySec(const RetryPolicy& policy, uint64_t stream,
                       size_t attempt);

/// Sleeps up to `sec` seconds, polling `stop` (when non-null) every
/// millisecond; returns the seconds actually slept. Non-positive `sec`
/// returns immediately.
double SleepWithStop(double sec, const StopToken* stop);

}  // namespace rdfviews::vsel::robust

#endif  // RDFVIEWS_VSEL_ROBUST_RETRY_H_
