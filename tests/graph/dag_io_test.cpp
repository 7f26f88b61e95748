#include "graph/dag_io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/fixtures.h"
#include "util/error.h"

namespace hedra::graph {
namespace {

TEST(DagIoTest, RoundTripPreservesEverything) {
  const auto ex = testing::paper_example();
  const std::string text = write_dag_text(ex.dag);
  const Dag parsed = read_dag_text(text);
  ASSERT_EQ(parsed.num_nodes(), ex.dag.num_nodes());
  ASSERT_EQ(parsed.num_edges(), ex.dag.num_edges());
  for (NodeId v = 0; v < ex.dag.num_nodes(); ++v) {
    EXPECT_EQ(parsed.wcet(v), ex.dag.wcet(v));
    EXPECT_EQ(parsed.kind(v), ex.dag.kind(v));
    EXPECT_EQ(parsed.label(v), ex.dag.label(v));
  }
  for (const auto& [u, w] : ex.dag.edges()) {
    EXPECT_TRUE(parsed.has_edge(u, w));
  }
}

TEST(DagIoTest, ParsesMinimalDocument) {
  const Dag dag = read_dag_text(
      "# comment\n"
      "node a 3\n"
      "node b 5 offload\n"
      "node s 0 sync\n"
      "\n"
      "edge a b\n"
      "edge b s\n");
  EXPECT_EQ(dag.num_nodes(), 3u);
  EXPECT_EQ(dag.num_edges(), 2u);
  EXPECT_EQ(dag.kind(1), NodeKind::kOffload);
  EXPECT_EQ(dag.kind(2), NodeKind::kSync);
}

TEST(DagIoTest, DefaultKindIsHost) {
  const Dag dag = read_dag_text("node x 7\n");
  EXPECT_EQ(dag.kind(0), NodeKind::kHost);
}

TEST(DagIoTest, RejectsUnknownDirective) {
  EXPECT_THROW(read_dag_text("vertex a 1\n"), Error);
}

TEST(DagIoTest, RejectsUnknownKind) {
  EXPECT_THROW(read_dag_text("node a 1 gpu\n"), Error);
}

TEST(DagIoTest, RejectsDuplicateLabel) {
  EXPECT_THROW(read_dag_text("node a 1\nnode a 2\n"), Error);
}

TEST(DagIoTest, RejectsUnknownEndpoint) {
  EXPECT_THROW(read_dag_text("node a 1\nedge a b\n"), Error);
}

TEST(DagIoTest, RejectsMalformedWcet) {
  EXPECT_THROW(read_dag_text("node a one\n"), Error);
}

TEST(DagIoTest, ErrorMentionsLineNumber) {
  try {
    (void)read_dag_text("node a 1\nbogus\n");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(DagIoTest, FileRoundTrip) {
  const auto ex = testing::fig3_example();
  const std::string path = ::testing::TempDir() + "/hedra_io_test.dag";
  save_dag_file(ex.dag, path);
  const Dag loaded = load_dag_file(path);
  EXPECT_EQ(loaded.num_nodes(), ex.dag.num_nodes());
  EXPECT_EQ(loaded.num_edges(), ex.dag.num_edges());
  std::remove(path.c_str());
}

TEST(DagIoTest, MissingFileThrows) {
  EXPECT_THROW(load_dag_file("/nonexistent/path/to.dag"), Error);
}

TEST(DagIoTest, DeviceAnnotationsRoundTrip) {
  const auto ex = testing::multi_device_example();
  const std::string text = write_dag_text(ex.dag);
  // Device 1 stays the historical bare "offload"; device 2 is explicit.
  EXPECT_NE(text.find("node gpu 6 offload\n"), std::string::npos);
  EXPECT_NE(text.find("node dsp 5 offload:2\n"), std::string::npos);
  const Dag loaded = read_dag_text(text);
  ASSERT_EQ(loaded.num_nodes(), ex.dag.num_nodes());
  for (NodeId v = 0; v < ex.dag.num_nodes(); ++v) {
    EXPECT_EQ(loaded.device(v), ex.dag.device(v));
    EXPECT_EQ(loaded.wcet(v), ex.dag.wcet(v));
    EXPECT_EQ(loaded.kind(v), ex.dag.kind(v));
  }
  // Byte-exact second round trip.
  EXPECT_EQ(write_dag_text(loaded), text);
}

TEST(DagIoTest, ParsesExplicitDeviceOne) {
  const Dag dag = read_dag_text("node a 2\nnode b 3 offload:1\nedge a b\n");
  EXPECT_EQ(dag.device(1), 1);
  // ...and writes it back in the canonical bare form.
  EXPECT_NE(write_dag_text(dag).find("node b 3 offload\n"),
            std::string::npos);
}

TEST(DagIoTest, RejectsMalformedDeviceAnnotations) {
  EXPECT_THROW((void)read_dag_text("node a 1 offload:0\n"), Error);
  EXPECT_THROW((void)read_dag_text("node a 1 offload:x\n"), Error);
  EXPECT_THROW((void)read_dag_text("node a 1 offload:99999999\n"), Error);
  EXPECT_THROW((void)read_dag_text("node a 1 sync:2\n"), Error);
}

}  // namespace
}  // namespace hedra::graph
