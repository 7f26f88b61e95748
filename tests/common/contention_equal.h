#pragma once

/// \file contention_equal.h
/// Field-by-field comparison of two contention analyses, for the tests
/// that pin an incremental analysis against the from-scratch reference.

#include <gtest/gtest.h>

#include <string>

#include "taskset/contention_rta.h"

namespace hedra::testing {

/// Expects `actual` to equal `expected` in every field except `telemetry`
/// (which counts work done, not the verdict).
inline void expect_same_analysis(const taskset::ContentionAnalysis& actual,
                                 const taskset::ContentionAnalysis& expected) {
  EXPECT_EQ(actual.schedulable, expected.schedulable);
  EXPECT_EQ(actual.cores_used, expected.cores_used);
  EXPECT_EQ(actual.outcome, expected.outcome);
  ASSERT_EQ(actual.tasks.size(), expected.tasks.size());
  for (std::size_t i = 0; i < actual.tasks.size(); ++i) {
    const taskset::TaskAdmission& a = actual.tasks[i];
    const taskset::TaskAdmission& e = expected.tasks[i];
    SCOPED_TRACE("task " + std::to_string(i) + " (" + e.name + ")");
    EXPECT_EQ(a.name, e.name);
    EXPECT_EQ(a.cores, e.cores);
    EXPECT_EQ(a.schedulable, e.schedulable);
    EXPECT_EQ(a.seed, e.seed);
    EXPECT_EQ(a.response, e.response);
    EXPECT_EQ(a.iterations, e.iterations);
    EXPECT_EQ(a.outcome, e.outcome);
    ASSERT_EQ(a.devices.size(), e.devices.size());
    for (std::size_t d = 0; d < a.devices.size(); ++d) {
      EXPECT_EQ(a.devices[d].device, e.devices[d].device);
      EXPECT_EQ(a.devices[d].own_volume, e.devices[d].own_volume);
      EXPECT_EQ(a.devices[d].interference, e.devices[d].interference);
      EXPECT_EQ(a.devices[d].dominant_competitor,
                e.devices[d].dominant_competitor);
    }
  }
}

}  // namespace hedra::testing
