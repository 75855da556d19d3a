// Tests for TuningConfig::Validate(): every configuration no layer could
// honor is rejected with InvalidArgument, and the diagnostic names the
// offending field.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "vsel/options.h"

namespace rdfviews::vsel {
namespace {

/// Expects Validate() to reject with InvalidArgument naming `field`.
void ExpectRejects(const TuningConfig& config, const std::string& field) {
  Status st = config.Validate();
  ASSERT_FALSE(st.ok()) << "expected rejection of " << field;
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("TuningConfig." + field), std::string::npos)
      << "diagnostic does not name " << field << ": " << st.ToString();
}

TEST(TuningConfigValidateTest, DefaultsAreValid) {
  EXPECT_TRUE(TuningConfig{}.Validate().ok());
}

TEST(TuningConfigValidateTest, RejectsNegativeTimeBudget) {
  TuningConfig c;
  c.limits.time_budget_sec = -1.0;
  ExpectRejects(c, "limits.time_budget_sec");
  c.limits.time_budget_sec = std::nan("");
  ExpectRejects(c, "limits.time_budget_sec");
}

TEST(TuningConfigValidateTest, ZeroMaxStatesMeansUnlimited) {
  // 0 is the engines' "uncapped" sentinel (incremental_tuning relies on
  // it); Validate must not reject it.
  TuningConfig c;
  c.limits.max_states = 0;
  EXPECT_TRUE(c.Validate().ok());
}

TEST(TuningConfigValidateTest, RejectsNegativeVbOverlap) {
  TuningConfig c;
  c.heuristics.vb_overlap = -1;
  ExpectRejects(c, "heuristics.vb_overlap");
}

TEST(TuningConfigValidateTest, RejectsZeroVbOverlapMaxAtoms) {
  TuningConfig c;
  c.heuristics.vb_overlap_max_atoms = 0;
  ExpectRejects(c, "heuristics.vb_overlap_max_atoms");
}

TEST(TuningConfigValidateTest, RejectsBadWeights) {
  {
    TuningConfig c;
    c.weights.cs = -1;
    ExpectRejects(c, "weights.cs");
  }
  {
    TuningConfig c;
    c.weights.cr = std::nan("");
    ExpectRejects(c, "weights.cr");
  }
  {
    TuningConfig c;
    c.weights.cm = -0.5;
    ExpectRejects(c, "weights.cm");
  }
  {
    TuningConfig c;
    c.weights.c1 = -2;
    ExpectRejects(c, "weights.c1");
  }
  {
    TuningConfig c;
    c.weights.c2 = -2;
    ExpectRejects(c, "weights.c2");
  }
  {
    TuningConfig c;
    c.weights.f = -1e-9;
    ExpectRejects(c, "weights.f");
  }
}

TEST(TuningConfigValidateTest, RejectsBadRetryKnobs) {
  {
    TuningConfig c;
    c.robust.retry.max_attempts = 0;
    ExpectRejects(c, "robust.retry.max_attempts");
  }
  {
    TuningConfig c;
    c.robust.retry.initial_backoff_sec = -0.1;
    ExpectRejects(c, "robust.retry.initial_backoff_sec");
  }
  {
    TuningConfig c;
    c.robust.retry.backoff_multiplier = 0.5;
    ExpectRejects(c, "robust.retry.backoff_multiplier");
  }
  {
    TuningConfig c;
    c.robust.retry.initial_backoff_sec = 1.0;
    c.robust.retry.max_backoff_sec = 0.5;
    ExpectRejects(c, "robust.retry.max_backoff_sec");
  }
  {
    TuningConfig c;
    c.robust.partition_deadline_sec = -1;
    ExpectRejects(c, "robust.partition_deadline_sec");
  }
}

TEST(TuningConfigValidateTest, RejectsPartitionCapWithoutPartitioning) {
  TuningConfig c;
  c.partition.enabled = false;
  c.partition.max_partitions = 4;
  ExpectRejects(c, "partition.max_partitions");
}

}  // namespace
}  // namespace rdfviews::vsel
