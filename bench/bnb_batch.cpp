/// \file bnb_batch.cpp
/// Sharded exact-solver batch driver: generates a deterministic batch of
/// random heterogeneous DAGs (same generator as fig7) and solves the slice
/// `index % shard_count == shard_index` with the branch-and-bound solver,
/// writing one JSON document per shard (schema hedra-bnb-batch-v1).
///
/// Because the full batch is regenerated from the seed in every process,
/// shards need no communication: `scripts/bnb_shard.py run` launches one
/// process per shard and merges the per-shard files, turning a fig7-scale
/// optimality study into a fleet of independent jobs.

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exact/bnb.h"
#include "exp/experiment.h"
#include "util/cli.h"
#include "util/error.h"

namespace {

struct InstanceRow {
  std::size_t index = 0;
  std::size_t nodes = 0;
  hedra::exact::BnbResult result;
  double ms = 0.0;
};

std::string to_json(const hedra::exp::BatchConfig& batch, int m,
                    const hedra::exact::BnbConfig& solver,
                    std::int64_t shard_index, std::int64_t shard_count,
                    const std::vector<InstanceRow>& rows) {
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"hedra-bnb-batch-v1\",\n"
     << "  \"m\": " << m << ",\n"
     << "  \"min_nodes\": " << batch.params.min_nodes << ",\n"
     << "  \"max_nodes\": " << batch.params.max_nodes << ",\n"
     << "  \"ratio\": " << batch.coff_ratio << ",\n"
     << "  \"count\": " << batch.count << ",\n"
     << "  \"seed\": " << batch.seed << ",\n"
     << "  \"solver\": {\"max_nodes\": " << solver.max_nodes
     << ", \"time_limit_sec\": " << solver.time_limit_sec << "},\n"
     << "  \"shard_index\": " << shard_index << ",\n"
     << "  \"shard_count\": " << shard_count << ",\n"
     << "  \"instances\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const InstanceRow& r = rows[i];
    os << "    {\"index\": " << r.index << ", \"nodes\": " << r.nodes
       << ", \"makespan\": " << r.result.makespan
       << ", \"proven\": " << (r.result.proven_optimal ? "true" : "false")
       << ", \"nodes_explored\": " << r.result.nodes_explored
       << ", \"root_lb\": " << r.result.root_lower_bound
       << ", \"heuristic_ub\": " << r.result.heuristic_upper_bound
       << ", \"ms\": " << r.ms << "}" << (i + 1 < rows.size() ? "," : "")
       << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  hedra::ArgParser parser("bnb_batch",
                          "solve one shard of a random-DAG batch exactly");
  const auto* m = parser.add_int("m", 2, "host cores");
  const auto* min_nodes = parser.add_int("min-nodes", 3, "smallest DAG");
  const auto* max_nodes = parser.add_int("max-nodes", 20, "largest DAG");
  const auto* ratio = parser.add_real("ratio", 0.35, "target C_off / vol");
  const auto* count = parser.add_int("count", 40, "instances in the batch");
  const auto* seed = parser.add_int("seed", 42, "master RNG seed");
  const auto* solver_nodes =
      parser.add_int("solver-nodes", 5000000, "solver node budget");
  const auto* time_limit =
      parser.add_real("time-limit", 300.0, "solver seconds per instance");
  const auto* shard_index = parser.add_int("shard-index", 0, "this shard");
  const auto* shard_count = parser.add_int("shard-count", 1, "total shards");
  const auto* out = parser.add_string(
      "out", "", "write shard JSON here (default: stdout)");
  try {
    if (!parser.parse(argc, argv)) return 0;
    HEDRA_REQUIRE(*shard_count >= 1, "--shard-count must be >= 1");
    HEDRA_REQUIRE(*shard_index >= 0 && *shard_index < *shard_count,
                  "--shard-index must be in [0, shard-count)");

    hedra::exp::BatchConfig batch;
    batch.params = hedra::gen::HierarchicalParams::small_tasks();
    batch.params.min_nodes = static_cast<int>(*min_nodes);
    batch.params.max_nodes = static_cast<int>(*max_nodes);
    batch.coff_ratio = *ratio;
    batch.count = static_cast<int>(*count);
    batch.seed = static_cast<std::uint64_t>(*seed);

    hedra::exact::BnbConfig solver;
    solver.max_nodes = static_cast<std::uint64_t>(*solver_nodes);
    solver.time_limit_sec = *time_limit;

    // Every shard regenerates the identical batch (cheap next to solving)
    // and claims its stride; indices are global, so the merged result is
    // independent of the shard count.
    const auto dags = hedra::exp::generate_batch(batch);
    std::vector<InstanceRow> rows;
    for (std::size_t i = 0; i < dags.size(); ++i) {
      if (static_cast<std::int64_t>(i % *shard_count) != *shard_index)
        continue;
      InstanceRow row;
      row.index = i;
      row.nodes = dags[i].num_nodes();
      const auto start = std::chrono::steady_clock::now();
      row.result =
          hedra::exact::min_makespan(dags[i], static_cast<int>(*m), solver);
      row.ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count();
      rows.push_back(row);
      std::cerr << "instance " << i << ": makespan " << row.result.makespan
                << (row.result.proven_optimal ? "" : " (budget hit)") << ", "
                << row.result.nodes_explored << " nodes\n";
    }

    const std::string json = to_json(batch, static_cast<int>(*m), solver,
                                     *shard_index, *shard_count, rows);
    if (out->empty()) {
      std::cout << json;
    } else {
      std::ofstream file(*out);
      HEDRA_REQUIRE(file.good(), "cannot open --out file");
      file << json;
      std::cerr << "shard written to " << *out << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
