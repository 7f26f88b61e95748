/// \file exact.cpp
/// The exact-fig7 workload: run_fig7 over the fig7 corpus with the
/// sequential solver and a pure node budget, so the set of proven
/// instances does not depend on machine speed.  The checks re-solve every
/// instance through exact::min_makespan (the traced run times these calls
/// as the solver layer) and record the proven makespans by instance.

#include "analysis/analysis_cache.h"
#include "exact/brute_force.h"
#include "exp/fig7.h"
#include "exp/runner.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// DAGs per (case, ratio) point: three times the fig7 figure's 20, so the
/// count of budget-exhausting instances, which sets most of the solve
/// time, varies less from seed to seed.  The first 20 DAGs of every point
/// are the 20-DAG corpus of the same seed.
constexpr int kDagsPerPoint = 60;
constexpr std::uint64_t kNodeBudget = 300'000;
constexpr std::size_t kBruteForceMaxNodes = 10;

hedra::exp::Fig7Config config(std::uint64_t seed) {
  hedra::exp::Fig7Config c;
  c.dags_per_point = kDagsPerPoint;
  c.seed = seed;
  c.jobs = 1;
  c.solver.jobs = 1;
  c.solver.max_nodes = kNodeBudget;
  // No wall-clock limit: only the node budget may cut a search.
  c.solver.time_limit_sec = 1e9;
  return c;
}

struct Point {
  hedra::exp::BatchConfig batch;
  int m = 0;
};

/// The (case, ratio) points run_fig7 builds, case-major.
std::vector<Point> points(const hedra::exp::Fig7Config& c) {
  std::vector<Point> out;
  for (const auto& fig_case : c.cases) {
    for (const double ratio : c.ratios) {
      Point p;
      p.batch.params = c.params;
      p.batch.params.min_nodes = fig_case.min_nodes;
      p.batch.params.max_nodes = fig_case.max_nodes;
      p.batch.coff_ratio = ratio;
      p.batch.count = c.dags_per_point;
      p.m = fig_case.m;
      out.push_back(p);
    }
  }
  const auto seeds = hedra::exp::batch_seeds(c.seed, out.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i].batch.seed = seeds[i];
  return out;
}

std::vector<std::vector<hedra::graph::Dag>> generate_corpus(const std::vector<Point>& pts) {
  std::vector<std::vector<hedra::graph::Dag>> corpus;
  for (const Point& p : pts) corpus.push_back(hedra::exp::generate_batch(p.batch));
  return corpus;
}

}  // namespace

RunResult run_exact(const Options& options) {
  RunResult result;
  const hedra::exp::Fig7Config c = config(options.seed);
  const std::vector<Point> pts = points(c);

  std::vector<std::vector<hedra::graph::Dag>> corpus;
  SetupTrials setup([&] {
    const std::int64_t t = now_ns();
    corpus = generate_corpus(pts);
    return seconds_since(t);
  });
  setup.take_batch();

  // Measured phase: whole run_fig7 passes (at least three).
  const double measure_s = options.trace ? options.seconds / 3.0 : options.seconds;
  std::vector<double> pass_ms;
  std::vector<hedra::exp::Fig7Row> rows;
  const std::int64_t start = now_ns();
  while (seconds_since(start) < measure_s || pass_ms.size() < (options.trace ? 1u : 3u)) {
    const std::int64_t t = now_ns();
    auto r = hedra::exp::run_fig7(c);
    pass_ms.push_back(static_cast<double>(now_ns() - t) * 1e-6);
    rows = std::move(r.rows);
  }
  if (!options.trace) setup.take_batch();
  const double setup_s = setup.median_s();

  // Checks, outside the timed phase: every instance solved again through
  // the public solver, with spans around the layer calls.
  SpanLog spans;
  std::uint64_t nodes = 0, root_closed = 0, unproven = 0, prune_bound = 0,
                prune_incumbent = 0, root_gap = 0, brute_checked = 0;
  double solve_s = 0.0, proven_s = 0.0, het_hom_s = 0.0;
  std::string makespans = "[";
  std::uint64_t request = 0;
  for (std::size_t pi = 0; pi < pts.size(); ++pi) {
    const int root = spans.begin("exp.fig7_point", ++request);
    const auto& batch = corpus[pi];
    int proven_here = 0;
    for (std::size_t di = 0; di < batch.size(); ++di) {
      const hedra::graph::Dag& dag = batch[di];
      const int m = pts[pi].m;
      const int solve_span = spans.begin("exact.min_makespan", request, root);
      const auto r = hedra::exact::min_makespan(dag, m, c.solver);
      spans.end(solve_span);
      const double s = spans.duration_us(solve_span) * 1e-6;
      const int bound_span = spans.begin("analysis.het_hom", request, root);
      hedra::analysis::AnalysisCache cache(dag);
      (void)cache.r_hom(m);
      (void)cache.r_het(m);
      spans.end(bound_span);
      het_hom_s += spans.duration_us(bound_span) * 1e-6;

      solve_s += s;
      nodes += r.nodes_explored;
      prune_bound += r.stats.prune_bound;
      prune_incumbent += r.stats.prune_incumbent;
      root_gap += static_cast<std::uint64_t>(r.heuristic_upper_bound - r.root_lower_bound);
      if (r.heuristic_upper_bound == r.root_lower_bound) ++root_closed;
      ++result.attempted;
      makespans += (pi + di == 0 ? "" : ",");
      if (!r.proven_optimal) {
        ++unproven;
        ++result.failed;
        makespans += "-1";
      } else {
        ++proven_here;
        proven_s += s;
        makespans += std::to_string(r.makespan);
      }
      if (r.makespan < r.root_lower_bound || r.makespan > r.heuristic_upper_bound) {
        result.fail_check("instance " + std::to_string(pi) + "/" + std::to_string(di) +
                          ": makespan outside [root LB, heuristic UB]");
      }
      if (r.proven_optimal && dag.num_nodes() <= kBruteForceMaxNodes) {
        ++brute_checked;
        if (hedra::exact::brute_force_min_makespan(dag, m) != r.makespan) {
          result.fail_check("instance " + std::to_string(pi) + "/" + std::to_string(di) +
                            ": proven makespan differs from brute force");
        }
      }
    }
    spans.end(root);
    // run_fig7's reported share of proven instances must match.
    const double expected = static_cast<double>(proven_here) / static_cast<double>(batch.size());
    if (pi >= rows.size() || rows[pi].optimal_fraction != expected) {
      result.fail_check("run_fig7 optimal_fraction differs from the re-solve at point " +
                        std::to_string(pi));
    }
  }
  makespans += "]";
  result.details.emplace_back("makespans", makespans);
  result.details.emplace_back("brute_force_checked", std::to_string(brute_checked));
  result.details.emplace_back("unproven", std::to_string(unproven));

  if (!options.trace) {
    result.add("latency_p50_ms", median(pass_ms), "ms");
    result.add("setup_s", setup_s, "s");
    result.add("peak_rss_mb", self_peak_rss_mb(), "MB");
    return result;
  }
  const double fig7_s = median(pass_ms) * 1e-3;
  const auto dags = static_cast<double>(result.attempted);
  result.add("exact.nodes", static_cast<double>(nodes), "count");
  result.add("exact.nodes_per_s", static_cast<double>(nodes) / solve_s, "1/s");
  result.add("exact.root_closed", static_cast<double>(root_closed), "count");
  result.add("exact.unproven", static_cast<double>(unproven), "count");
  result.add("exact.proven_ms", proven_s * 1e3, "ms");
  result.add("exact.prune_bound_share",
             prune_bound + prune_incumbent == 0
                 ? 0.0
                 : static_cast<double>(prune_bound) /
                       static_cast<double>(prune_bound + prune_incumbent),
             "ratio");
  result.add("exact.root_gap_sum", static_cast<double>(root_gap), "count");
  // The set-up phase is the generator layer: one corpus per trial.
  result.add("gen.dag_us_per_dag", setup_s * 1e6 / dags, "us");
  result.add("analysis.het_hom_us_per_dag", het_hom_s * 1e6 / dags, "us");
  result.add("exp.orchestration_share", (fig7_s - setup_s - solve_s - het_hom_s) / fig7_s,
             "ratio");
  write_text_file(options.work_dir + "/spans.json", spans.chrome_json());
  return result;
}

}  // namespace perfbench
