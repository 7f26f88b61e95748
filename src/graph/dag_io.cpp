#include "graph/dag_io.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "util/strings.h"

namespace hedra::graph {

std::string write_dag_text(const Dag& dag) {
  std::ostringstream os;
  os << "# hedra dag: " << dag.num_nodes() << " nodes, " << dag.num_edges()
     << " edges\n";
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    os << "node " << dag.label(v) << ' ' << dag.wcet(v) << ' '
       << to_string(dag.kind(v));
    // Device 1 is the paper's single accelerator and stays implicit so
    // single-device files are byte-identical to the historical format.
    if (dag.device(v) > 1) os << ':' << dag.device(v);
    os << '\n';
  }
  for (const auto& [u, w] : dag.edges()) {
    os << "edge " << dag.label(u) << ' ' << dag.label(w) << '\n';
  }
  return os.str();
}

namespace {

/// "line N: " — built only on the throw path, never per accepted line.
std::string at_line(int line_no) {
  return "line " + std::to_string(line_no) + ": ";
}

/// parse_int, naming the line when `text` is not an integer.
Time parse_int_on_line(std::string_view text, int line_no) {
  try {
    return parse_int(text);
  } catch (const Error&) {
    HEDRA_REQUIRE(false, at_line(line_no) + "malformed integer: '" +
                             std::string(trim(text)) + "'");
    throw;
  }
}

/// Kind token grammar: "host", "sync", "offload" (device 1), or
/// "offload:<d>" for an explicit accelerator device d >= 1.
struct ParsedKind {
  NodeKind kind = NodeKind::kHost;
  DeviceId device = kHostDevice;
};

ParsedKind parse_kind(std::string_view text, int line_no) {
  if (text == "host") return {NodeKind::kHost, kHostDevice};
  if (text == "sync") return {NodeKind::kSync, kHostDevice};
  if (text == "offload") return {NodeKind::kOffload, DeviceId{1}};
  if (text.starts_with("offload:")) {
    const Time device = parse_int_on_line(text.substr(8), line_no);
    HEDRA_REQUIRE(device >= 1 &&
                      device <= std::numeric_limits<DeviceId>::max(),
                  at_line(line_no) + "offload device id out of range in '" +
                      std::string(text) + "'");
    return {NodeKind::kOffload, static_cast<DeviceId>(device)};
  }
  throw Error(at_line(line_no) + "unknown node kind '" + std::string(text) +
              "'");
}

/// The non-empty ' '-separated fields of a line.  A directive has at most
/// four, so only the first kMaxTokens are kept; `count` is the true field
/// count, which the arity checks read.
struct Tokens {
  static constexpr std::size_t kMaxTokens = 5;
  std::array<std::string_view, kMaxTokens> field;
  std::size_t count = 0;
};

Tokens tokens_of(std::string_view line) {
  Tokens tokens;
  while (!line.empty()) {
    const std::size_t end = std::min(line.find(' '), line.size());
    if (end > 0) {
      if (tokens.count < Tokens::kMaxTokens) {
        tokens.field[tokens.count] = line.substr(0, end);
      }
      ++tokens.count;
    }
    line.remove_prefix(std::min(end + 1, line.size()));
  }
  return tokens;
}

/// The trimmed lines of a document that are neither blank nor comments,
/// with their 1-based line numbers.  Lines end at '\n'; a last line
/// without one still counts.
class Lines {
 public:
  explicit Lines(std::string_view text) : rest_(text) {}

  bool next(std::string_view& line) {
    while (!rest_.empty()) {
      const std::size_t end = std::min(rest_.find('\n'), rest_.size());
      line = trim(rest_.substr(0, end));
      rest_.remove_prefix(std::min(end + 1, rest_.size()));
      ++number_;
      if (!line.empty() && line.front() != '#') return true;
    }
    return false;
  }

  [[nodiscard]] int number() const noexcept { return number_; }

 private:
  std::string_view rest_;
  int number_ = 0;
};

/// The edges (u, v) of one cycle of `dag`; empty when it is acyclic.  Kahn's
/// algorithm leaves exactly the nodes it could not order, each of which has
/// a predecessor also left, so walking such predecessors back from any of
/// them must revisit a node — the walk from there on is a cycle.
std::vector<std::pair<NodeId, NodeId>> cycle_edges(const Dag& dag) {
  const std::size_t n = dag.num_nodes();
  std::vector<std::size_t> in_deg(n);
  std::vector<NodeId> ready;
  for (NodeId v = 0; v < n; ++v) {
    in_deg[v] = dag.in_degree(v);
    if (in_deg[v] == 0) ready.push_back(v);
  }
  std::size_t ordered = 0;
  while (!ready.empty()) {
    const NodeId v = ready.back();
    ready.pop_back();
    ++ordered;
    for (const NodeId w : dag.successors(v)) {
      if (--in_deg[w] == 0) ready.push_back(w);
    }
  }
  if (ordered == n) return {};

  constexpr std::size_t kUnseen = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> position(n, kUnseen);
  std::vector<NodeId> walk;
  NodeId v = 0;
  while (in_deg[v] == 0) ++v;
  while (position[v] == kUnseen) {
    position[v] = walk.size();
    walk.push_back(v);
    const auto& preds = dag.predecessors(v);
    v = *std::find_if(preds.begin(), preds.end(),
                      [&in_deg](NodeId p) { return in_deg[p] > 0; });
  }
  walk.push_back(v);
  std::vector<std::pair<NodeId, NodeId>> cycle;
  for (std::size_t i = position[v]; i + 1 < walk.size(); ++i) {
    cycle.emplace_back(walk[i + 1], walk[i]);
  }
  return cycle;
}

/// Names the last line, in file order, of an edge on `cycle`: reading the
/// file top to bottom, that edge closes the cycle.  Rescans the accepted
/// text, so only a rejected input pays for it.
[[noreturn]] void throw_cycle(
    std::string_view text,
    const std::map<std::string, NodeId, std::less<>>& by_label,
    const std::vector<std::pair<NodeId, NodeId>>& cycle) {
  Lines lines(text);
  std::string_view line;
  int closing_line = 0;
  Tokens closing;
  while (lines.next(line)) {
    const Tokens tokens = tokens_of(line);
    if (tokens.field[0] != "edge") continue;
    const std::pair<NodeId, NodeId> edge{
        by_label.find(tokens.field[1])->second,
        by_label.find(tokens.field[2])->second};
    if (std::find(cycle.begin(), cycle.end(), edge) != cycle.end()) {
      closing_line = lines.number();
      closing = tokens;
    }
  }
  throw Error(at_line(closing_line) + "edge '" +
              std::string(closing.field[1]) + "' -> '" +
              std::string(closing.field[2]) + "' closes a cycle");
}

}  // namespace

Dag read_dag_text(std::string_view text) {
  Dag dag;
  std::map<std::string, NodeId, std::less<>> by_label;
  Lines lines(text);
  std::string_view line;
  while (lines.next(line)) {
    const int line_no = lines.number();
    const Tokens tokens = tokens_of(line);
    const std::string_view directive = tokens.field[0];
    if (directive == "node") {
      HEDRA_REQUIRE(tokens.count == 3 || tokens.count == 4,
                    at_line(line_no) + "expected 'node <label> <wcet> [kind]'");
      HEDRA_REQUIRE(dag.num_nodes() < kMaxParsedNodes,
                    at_line(line_no) +
                        "node count exceeds the parser cap of " +
                        std::to_string(kMaxParsedNodes));
      const std::string_view label = tokens.field[1];
      HEDRA_REQUIRE(!by_label.contains(label),
                    at_line(line_no) + "duplicate node label '" +
                        std::string(label) + "'");
      const Time wcet = parse_int_on_line(tokens.field[2], line_no);
      const ParsedKind kind = tokens.count == 4
                                  ? parse_kind(tokens.field[3], line_no)
                                  : ParsedKind{};
      HEDRA_REQUIRE(wcet >= 0,
                    at_line(line_no) + "node WCET must be non-negative");
      HEDRA_REQUIRE(kind.kind != NodeKind::kSync || wcet == 0,
                    at_line(line_no) + "sync nodes must have zero WCET");
      const NodeId id =
          kind.kind == NodeKind::kSync
              ? dag.add_node(wcet, NodeKind::kSync, std::string(label))
              : dag.add_node_on(wcet, kind.device, std::string(label));
      by_label.emplace(label, id);
    } else if (directive == "edge") {
      HEDRA_REQUIRE(tokens.count == 3,
                    at_line(line_no) + "expected 'edge <from> <to>'");
      HEDRA_REQUIRE(dag.num_edges() < kMaxParsedEdges,
                    at_line(line_no) +
                        "edge count exceeds the parser cap of " +
                        std::to_string(kMaxParsedEdges));
      const auto from = by_label.find(tokens.field[1]);
      const auto to = by_label.find(tokens.field[2]);
      HEDRA_REQUIRE(from != by_label.end(),
                    at_line(line_no) + "unknown node '" +
                        std::string(tokens.field[1]) + "'");
      HEDRA_REQUIRE(to != by_label.end(),
                    at_line(line_no) + "unknown node '" +
                        std::string(tokens.field[2]) + "'");
      dag.add_edge(from->second, to->second);
    } else {
      throw Error(at_line(line_no) + "unknown directive '" +
                  std::string(directive) + "'");
    }
  }
  const auto cycle = cycle_edges(dag);
  if (!cycle.empty()) throw_cycle(text, by_label, cycle);
  return dag;
}

void save_dag_file(const Dag& dag, const std::string& path) {
  std::ofstream out(path);
  HEDRA_REQUIRE(out.good(), "cannot open '" + path + "' for writing");
  out << write_dag_text(dag);
  HEDRA_REQUIRE(out.good(), "write to '" + path + "' failed");
}

Dag load_dag_file(const std::string& path) {
  std::ifstream in(path);
  HEDRA_REQUIRE(in.good(), "cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return read_dag_text(buffer.str());
}

}  // namespace hedra::graph
