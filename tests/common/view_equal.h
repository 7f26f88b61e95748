#pragma once

/// \file view_equal.h
/// Element-wise comparison of two CSR views, for the tests that pin an
/// arena record against a snapshot of its own materialised Dag.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "graph/flat_view.h"

namespace hedra::testing {

/// Expects `actual` to equal `expected` in counts, attributes, successor
/// and predecessor lists (order included) and topological order.
inline void expect_views_equal(const graph::FlatView& actual,
                               const graph::FlatView& expected,
                               const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(actual.num_nodes(), expected.num_nodes());
  ASSERT_EQ(actual.num_edges(), expected.num_edges());
  EXPECT_EQ(actual.max_device(), expected.max_device());
  EXPECT_EQ(actual.num_offload_nodes(), expected.num_offload_nodes());
  for (graph::NodeId v = 0; v < actual.num_nodes(); ++v) {
    EXPECT_EQ(actual.wcet(v), expected.wcet(v));
    EXPECT_EQ(actual.device(v), expected.device(v));
    EXPECT_EQ(actual.is_sync(v), expected.is_sync(v));
    ASSERT_TRUE(
        std::ranges::equal(actual.successors(v), expected.successors(v)))
        << "successor list of node " << v;
    ASSERT_TRUE(
        std::ranges::equal(actual.predecessors(v), expected.predecessors(v)))
        << "predecessor list of node " << v;
  }
  EXPECT_TRUE(std::ranges::equal(actual.topological_order(),
                                 expected.topological_order()));
}

}  // namespace hedra::testing
