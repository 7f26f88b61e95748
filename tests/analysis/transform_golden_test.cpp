/// \file transform_golden_test.cpp
/// Pins Algorithm 1's output on the golden batches and the paper fixtures:
/// G′'s per-node successor lists (the order the simulator readies
/// successors in), v_sync's id, the G_par / Pred(v_off) / Succ(v_off)
/// memberships and the edge counters, hashed per input family.  The
/// expected hashes were taken from the mutating `Dag` implementation of
/// Algorithm 1 that the CSR transform replaced; `observe` is the only part
/// that reads the transform's result type.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis_cache.h"
#include "common/fixtures.h"
#include "common/golden_batch.h"

namespace hedra::analysis {
namespace {

using graph::NodeId;

struct Observed {
  std::vector<std::vector<NodeId>> successors;  ///< of G′, per node
  NodeId vsync = graph::kInvalidNode;
  std::vector<NodeId> gpar;  ///< ascending
  std::vector<NodeId> pred;  ///< Pred(v_off), ascending
  std::vector<NodeId> succ;  ///< Succ(v_off), ascending
  std::size_t edges_removed = 0;
  std::size_t edges_added = 0;
};

std::vector<NodeId> members(const DynamicBitset& set) {
  std::vector<NodeId> out;
  for (const auto v : set.to_indices()) out.push_back(static_cast<NodeId>(v));
  return out;
}

Observed observe(AnalysisCache& cache) {
  const TransformResult& t = cache.transform();
  Observed out;
  const graph::FlatView g = t.view();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto succ = g.successors(v);
    out.successors.emplace_back(succ.begin(), succ.end());
  }
  out.vsync = t.vsync;
  out.gpar = members(t.gpar);
  out.pred = members(t.pred);
  out.succ = members(t.succ);
  out.edges_removed = t.edges_removed;
  out.edges_added = t.edges_added;
  return out;
}

void append_list(std::ostringstream& os, const char* name,
                 const std::vector<NodeId>& ids) {
  os << name << ':';
  for (const NodeId v : ids) os << ' ' << v;
  os << '\n';
}

/// Text form of one DAG's transform; the hash is taken over this.
std::string describe(const graph::Dag& dag) {
  AnalysisCache cache(dag);
  const Observed o = observe(cache);
  // The labelled G′ carries the snapshot's successor lists.
  const graph::Dag& g = cache.transformed();
  EXPECT_EQ(g.num_nodes(), o.successors.size());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(g.successors(v), o.successors[v]);
  }
  std::ostringstream os;
  os << "n=" << o.successors.size() << " vsync=" << o.vsync
     << " removed=" << o.edges_removed << " added=" << o.edges_added << '\n';
  for (std::size_t v = 0; v < o.successors.size(); ++v) {
    os << v << " ->";
    for (const NodeId w : o.successors[v]) os << ' ' << w;
    os << '\n';
  }
  append_list(os, "gpar", o.gpar);
  append_list(os, "pred", o.pred);
  append_list(os, "succ", o.succ);
  return os.str();
}

/// FNV-1a, 64-bit.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t hash_all(const std::vector<graph::Dag>& dags) {
  std::string text;
  for (const auto& dag : dags) text += describe(dag);
  return fnv1a(text);
}

TEST(TransformGoldenTest, PaperExample) {
  const auto ex = testing::paper_example();
  // Spelled out, so a mismatch is readable without the hash.
  EXPECT_EQ(describe(ex.dag),
            "n=7 vsync=6 removed=3 added=4\n"
            "0 -> 3\n"
            "1 -> 4\n"
            "2 -> 4\n"
            "3 -> 6\n"
            "4 ->\n"
            "5 -> 4\n"
            "6 -> 5 1 2\n"
            "gpar: 1 2\n"
            "pred: 0 3\n"
            "succ: 4\n");
}

TEST(TransformGoldenTest, Fig3Example) {
  EXPECT_EQ(fnv1a(describe(testing::fig3_example().dag)),
            0xc3bd845e93c90883ULL);
}

TEST(TransformGoldenTest, SingleDeviceSimBatch) {
  EXPECT_EQ(hash_all(goldens::golden_sim_batch(1)), 0xcd55136335dcad44ULL);
}

TEST(TransformGoldenTest, BnbBatches) {
  std::vector<std::uint64_t> got;
  for (const auto& c : goldens::golden_bnb_cases()) {
    got.push_back(hash_all(goldens::golden_bnb_batch(c)));
  }
  EXPECT_EQ(got, (std::vector<std::uint64_t>{
                     0x82c55c91d8221f72ULL, 0x87828adaa11cb3b6ULL,
                     0x702b9bf98053adc5ULL, 0x619e888187b64647ULL}));
}

}  // namespace
}  // namespace hedra::analysis
