// Table-driven pin of read_dag_text: every accepted input's write_dag_text
// round trip and every rejected input's error text.  The messages are
// compared as Error::message(), without the "[<expr> at <file>:<line>]"
// HEDRA_REQUIRE adds to what(), which names a source location rather than
// the input.

#include <gtest/gtest.h>

#include <string>

#include "graph/dag_io.h"
#include "util/error.h"

namespace hedra::graph {
namespace {

/// message() of the Error `text` raises.
std::string error_of(const std::string& text) {
  try {
    (void)read_dag_text(text);
  } catch (const Error& e) {
    return e.message();
  }
  return "(accepted)";
}

struct Rejected {
  const char* text;
  const char* error;
};

TEST(DagIoTableTest, MalformedInputsNameTheirLine) {
  const Rejected cases[] = {
      {"vertex a 1\n", "line 1: unknown directive 'vertex'"},
      {"NODE a 1\n", "line 1: unknown directive 'NODE'"},
      {"# c\n\nnode a 1\n  bogus\n", "line 4: unknown directive 'bogus'"},
      {"node a\n",
       "precondition violated: line 1: expected 'node <label> <wcet> [kind]'"},
      {"node a 1 host extra\n",
       "precondition violated: line 1: expected 'node <label> <wcet> [kind]'"},
      // Tokens split on ' ' only: a tab between two fields joins them.
      {"node a\t1\n",
       "precondition violated: line 1: expected 'node <label> <wcet> [kind]'"},
      {"edge a\n", "precondition violated: line 1: expected 'edge <from> <to>'"},
      {"edge\n", "precondition violated: line 1: expected 'edge <from> <to>'"},
      {"node a 1\nedge a b c\n",
       "precondition violated: line 2: expected 'edge <from> <to>'"},
      {"node a 1\nnode a 2\n",
       "precondition violated: line 2: duplicate node label 'a'"},
      {"node a 1\r\nnode a 2\r\n",
       "precondition violated: line 2: duplicate node label 'a'"},
      {"node a 1\nedge a b\n", "precondition violated: line 2: unknown node 'b'"},
      {"node b 1\nedge a b\n", "precondition violated: line 2: unknown node 'a'"},
      {"node a 1 gpu\n", "line 1: unknown node kind 'gpu'"},
      {"node a 1 sync:2\n", "line 1: unknown node kind 'sync:2'"},
      {"node a 1 offload:0\n",
       "precondition violated: line 1: offload device id out of range in "
       "'offload:0'"},
      {"node a 1 offload:-1\n",
       "precondition violated: line 1: offload device id out of range in "
       "'offload:-1'"},
      {"node a 1 offload:99999999\n",
       "precondition violated: line 1: offload device id out of range in "
       "'offload:99999999'"},
      {"node a 1 host\nnode b 2 offload:70000\n",
       "precondition violated: line 2: offload device id out of range in "
       "'offload:70000'"},
      {"node a 1 offload:x\n",
       "precondition violated: line 1: malformed integer: 'x'"},
      {"node a 1 offload:\n",
       "precondition violated: line 1: malformed integer: ''"},
      {"node a x\n", "precondition violated: line 1: malformed integer: 'x'"},
      {"node a 1\nnode b 2x offload\n",
       "precondition violated: line 2: malformed integer: '2x'"},
      {"node a 99999999999999999999\n",
       "precondition violated: line 1: malformed integer: "
       "'99999999999999999999'"},
      {"node a -1\n",
       "precondition violated: line 1: node WCET must be non-negative"},
      {"node a 1\n# c\nnode b -3 offload:2\n",
       "precondition violated: line 3: node WCET must be non-negative"},
      // The kind token is read before the WCET's range.
      {"node a -1 gpu\n", "line 1: unknown node kind 'gpu'"},
      {"node s 3 sync\n",
       "precondition violated: line 1: sync nodes must have zero WCET"},
      {"node a 1\nnode s -1 sync\n",
       "precondition violated: line 2: node WCET must be non-negative"},
      {"node a 1\nedge a a\n",
       "precondition violated: self-loop edges are not allowed"},
      {"node a 1\nnode b 1\nedge a b\nedge a b\n",
       "precondition violated: duplicate edge"},
      // A cycle is named by the line of the edge that closes it.
      {"node a 1\nnode b 1\nedge a b\nedge b a\n",
       "line 4: edge 'b' -> 'a' closes a cycle"},
      {"node a 1\nnode b 1\nedge b a\n# c\n\nedge a b\n",
       "line 6: edge 'a' -> 'b' closes a cycle"},
      {"node a 1\nnode b 1\nnode c 1\nnode d 1\nedge c a\nedge a b\n"
       "edge b c\nedge c d\n",
       "line 7: edge 'b' -> 'c' closes a cycle"},
      // Only edges on the cycle count: the later d -> e edge is acyclic.
      {"node s 1\nnode a 1\nnode b 1\nnode d 1\nnode e 1\nedge s a\n"
       "edge a b\nedge b a\nedge d e\n",
       "line 8: edge 'b' -> 'a' closes a cycle"},
  };
  for (const Rejected& c : cases) {
    SCOPED_TRACE(c.text);
    EXPECT_EQ(error_of(c.text), c.error);
  }
}

TEST(DagIoTableTest, NodeCapNamesTheFirstLineBeyondIt) {
  std::string text;
  for (std::size_t i = 0; i <= kMaxParsedNodes; ++i) {
    text += "node n" + std::to_string(i) + " 1\n";
  }
  EXPECT_EQ(error_of(text),
            "precondition violated: line 65537: node count exceeds the parser "
            "cap of 65536");
}

struct Accepted {
  const char* text;
  const char* written;  ///< write_dag_text of the parsed graph
};

TEST(DagIoTableTest, AcceptedInputsRoundTrip) {
  const Accepted cases[] = {
      {"", "# hedra dag: 0 nodes, 0 edges\n"},
      {"\n\n\n", "# hedra dag: 0 nodes, 0 edges\n"},
      {"node x 7", "# hedra dag: 1 nodes, 0 edges\nnode x 7 host\n"},
      {"node a 1\r\nnode b 2 offload\r\nedge a b\r\n",
       "# hedra dag: 2 nodes, 1 edges\nnode a 1 host\nnode b 2 offload\n"
       "edge a b\n"},
      {"node a 1\n\r\nnode b 2\n",
       "# hedra dag: 2 nodes, 0 edges\nnode a 1 host\nnode b 2 host\n"},
      {"\tnode a 1\t\nnode  b   2  offload:3\nedge   a  b \n",
       "# hedra dag: 2 nodes, 1 edges\nnode a 1 host\nnode b 2 offload:3\n"
       "edge a b\n"},
      // A tab next to a number is trimmed away by the integer parser.
      {"node a \t5\n", "# hedra dag: 1 nodes, 0 edges\nnode a 5 host\n"},
      {"# c\n  # indented comment\n\nnode a 1\nnode s 0 sync\nedge a s",
       "# hedra dag: 2 nodes, 1 edges\nnode a 1 host\nnode s 0 sync\n"
       "edge a s\n"},
      {"node a 1 offload:1\n",
       "# hedra dag: 1 nodes, 0 edges\nnode a 1 offload\n"},
      {"node a 1 host\nnode b 2 offload:65535\n",
       "# hedra dag: 2 nodes, 0 edges\nnode a 1 host\nnode b 2 offload:65535\n"},
      {"node a:b 1\nnode c 2 offload:2\nedge a:b c\n",
       "# hedra dag: 2 nodes, 1 edges\nnode a:b 1 host\nnode c 2 offload:2\n"
       "edge a:b c\n"},
  };
  for (const Accepted& c : cases) {
    SCOPED_TRACE(c.text);
    const std::string written = write_dag_text(read_dag_text(c.text));
    EXPECT_EQ(written, c.written);
    EXPECT_EQ(write_dag_text(read_dag_text(written)), written);
  }
}

}  // namespace
}  // namespace hedra::graph
