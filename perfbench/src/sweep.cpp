/// \file sweep.cpp
/// The sweep workload: generate -> bound -> simulate with no serve and no
/// B&B.  The untraced run times whole run_fig6 / run_fig10 / run_fig12
/// calls; the traced run also replays each sweep's layer calls (same
/// points, same seeds, same public entry points) with spans around them,
/// so the sweep time splits into generator, bound and simulator time plus
/// the orchestration left over.

#include <sstream>

#include "analysis/analysis_cache.h"
#include "analysis/batch_kernels.h"
#include "exp/fig10.h"
#include "exp/fig12.h"
#include "exp/fig6.h"
#include "exp/runner.h"
#include "sim/scheduler.h"
#include "taskset/contention_rta.h"
#include "taskset/gen.h"
#include "taskset/sim.h"
#include "workloads.h"

namespace perfbench {

namespace {

using hedra::exp::SweepPoint;

struct SweepConfigs {
  hedra::exp::Fig6Config fig6;
  hedra::exp::Fig10Config fig10;
  hedra::exp::Fig12Config fig12;
};

SweepConfigs configs(std::uint64_t seed) {
  SweepConfigs c;
  c.fig6.dags_per_point = 16;
  c.fig6.seed = seed;
  c.fig6.jobs = 1;
  c.fig10.dags_per_point = 25;
  c.fig10.seed = seed;
  c.fig10.jobs = 1;
  c.fig12.tasksets_per_point = 400;
  c.fig12.seed = seed;
  c.fig12.jobs = 1;
  return c;
}

/// The grid points run_fig6 builds.
std::vector<SweepPoint> fig6_points(const hedra::exp::Fig6Config& c) {
  return hedra::exp::make_grid(
      {c.ratios, c.cores, c.params, c.dags_per_point, c.seed});
}

/// The grid points run_fig10 builds: one forked grid per device count.
std::vector<SweepPoint> fig10_points(const hedra::exp::Fig10Config& c) {
  std::vector<SweepPoint> points;
  const auto seeds = hedra::exp::batch_seeds(c.seed, c.devices.size());
  for (std::size_t i = 0; i < c.devices.size(); ++i) {
    hedra::exp::GridSpec spec;
    spec.ratios = c.ratios;
    spec.cores = c.cores;
    spec.params = c.params;
    spec.params.num_devices = c.devices[i];
    spec.params.offloads_per_device = c.offloads_per_device;
    spec.dags_per_point = c.dags_per_point;
    spec.seed = seeds[i];
    const auto grid = hedra::exp::make_grid(spec);
    points.insert(points.end(), grid.begin(), grid.end());
  }
  return points;
}

/// One fig12 grid point with the generator configuration run_fig12 uses.
struct Fig12Point {
  hedra::taskset::TaskSetGenConfig gen;
  std::uint64_t seed = 0;
};

std::vector<Fig12Point> fig12_points(const hedra::exp::Fig12Config& c) {
  std::vector<Fig12Point> points;
  for (const int devices : c.devices) {
    for (const int units : c.units) {
      for (const int m : c.cores) {
        for (const double u : c.utilizations) {
          Fig12Point p;
          p.gen.num_tasks = c.num_tasks;
          p.gen.total_utilization = u * m;
          p.gen.dag_params = c.params;
          p.gen.dag_params.num_devices = devices;
          p.gen.coff_ratio = c.coff_ratio;
          p.gen.cores = m;
          p.gen.device_units.assign(static_cast<std::size_t>(devices), units);
          points.push_back(std::move(p));
        }
      }
    }
  }
  const auto seeds = hedra::exp::batch_seeds(c.seed, points.size());
  for (std::size_t i = 0; i < points.size(); ++i) points[i].seed = seeds[i];
  return points;
}

/// Generates every input the three sweeps consume (the set-up phase).
void generate_inputs(const SweepConfigs& c) {
  for (const auto& point : fig6_points(c.fig6)) {
    (void)hedra::exp::generate_flat_batch(point.batch);
  }
  for (const auto& point : fig10_points(c.fig10)) {
    (void)hedra::exp::generate_flat_batch(point.batch);
  }
  for (const auto& point : fig12_points(c.fig12)) {
    hedra::Rng master(point.seed);
    for (int k = 0; k < c.fig12.tasksets_per_point; ++k) {
      hedra::Rng set_rng = master.fork();
      (void)hedra::taskset::generate_task_set(point.gen, set_rng);
    }
  }
}

struct PassResult {
  double fig6_s = 0.0, fig10_s = 0.0, fig12_s = 0.0;
  std::string digest;
  int fig10_violations = 0;
  int fig12_violations = 0;
};

/// One pass over the three sweeps, each timed as a whole.
PassResult run_pass(const SweepConfigs& c) {
  PassResult p;
  std::int64_t t = now_ns();
  const auto r6 = hedra::exp::run_fig6(c.fig6);
  p.fig6_s = seconds_since(t);
  t = now_ns();
  const auto r10 = hedra::exp::run_fig10(c.fig10);
  p.fig10_s = seconds_since(t);
  t = now_ns();
  const auto r12 = hedra::exp::run_fig12(c.fig12);
  p.fig12_s = seconds_since(t);

  // Rows go into the digest at 9 significant digits.
  std::ostringstream rows;
  rows.precision(9);
  for (const auto& r : r6.rows) {
    rows << "6 " << r.m << " " << r.ratio << " " << r.avg_original << " "
         << r.avg_transformed << "\n";
  }
  for (const auto& r : r10.rows) {
    rows << "10 " << r.devices << " " << r.ratio << " " << r.m << " " << r.mean_bound;
    for (const double ms : r.mean_makespan) rows << " " << ms;
    rows << " " << r.violations << "\n";
    p.fig10_violations += r.violations;
  }
  for (const auto& r : r12.rows) {
    rows << "12 " << r.utilization << " " << r.devices << " " << r.units << " " << r.m
         << " " << r.admitted << " " << r.mean_cores_used << " "
         << r.mean_bound_over_deadline << " " << r.max_obs_over_bound << " "
         << r.violations << "\n";
    p.fig12_violations += r.violations;
  }
  Digest d;
  d.feed(rows.str());
  p.digest = d.hex();
  return p;
}

/// Layer times of one replay of the three sweeps, in seconds.
struct LayerTimes {
  double fig6_gen = 0, fig6_transform = 0, fig6_het_hom = 0, fig6_sim = 0;
  double fig10_gen = 0, fig10_bound = 0, fig10_sim = 0;
  double fig12_gen = 0, fig12_rta = 0, fig12_sim = 0;
  std::uint64_t fig6_dags = 0, fig10_dags = 0, fig10_sims = 0;
  std::uint64_t fig12_sets = 0, fig12_simulated = 0;
  std::uint64_t solves = 0, iterations = 0, frac_path = 0;
  int violations = 0;
};

/// Times `body` into `acc` (seconds) under a span named `name`.
template <typename Body>
auto timed(SpanLog& spans, const char* name, std::uint64_t request, int parent,
           double& acc, Body&& body) {
  const int span = spans.begin(name, request, parent);
  auto value = body();
  spans.end(span);
  acc += spans.duration_us(span) * 1e-6;
  return value;
}

LayerTimes replay_layers(const SweepConfigs& c, SpanLog& spans) {
  LayerTimes lt;
  std::uint64_t request = 0;
  // fig6: flat generation + Dag materialisation, the transform (plus the
  // Theorem-1 bounds, timed apart), the single-DAG simulator.
  for (const auto& point : fig6_points(c.fig6)) {
    const int root = spans.begin("exp.fig6_point", ++request);
    const auto batch = timed(spans, "gen.flat_batch", request, root, lt.fig6_gen,
                             [&] { return hedra::exp::generate_flat_batch(point.batch); });
    for (std::size_t di = 0; di < batch.size(); ++di) {
      hedra::analysis::AnalysisCache cache(batch, di);
      const auto& original = *timed(spans, "gen.materialize", request, root, lt.fig6_gen,
                                    [&] { return &cache.original(); });
      const auto& transformed = *timed(spans, "analysis.transform", request, root,
                                       lt.fig6_transform,
                                       [&] { return &cache.transformed(); });
      timed(spans, "analysis.het_hom", request, root, lt.fig6_het_hom, [&] {
        std::vector<hedra::Frac> bounds;
        for (const int m : point.cores) {
          bounds.push_back(cache.r_het(m));
          bounds.push_back(cache.r_hom(m));
        }
        return bounds;
      });
      timed(spans, "sim.makespan", request, root, lt.fig6_sim, [&] {
        hedra::graph::Time sum = 0;
        for (const int m : point.cores) {
          hedra::sim::SimConfig sim;
          sim.cores = m;
          sim.policy = c.fig6.policy;
          sum += hedra::sim::simulated_makespan(original, sim) +
                 hedra::sim::simulated_makespan(transformed, sim);
        }
        return sum;
      });
      ++lt.fig6_dags;
    }
    spans.end(root);
  }
  // fig10: arena generation, the batched K-device bound, 5 policies.
  for (const auto& point : fig10_points(c.fig10)) {
    const int root = spans.begin("exp.fig10_point", ++request);
    const auto batch = timed(spans, "gen.flat_batch", request, root, lt.fig10_gen,
                             [&] { return hedra::exp::generate_flat_batch(point.batch); });
    const auto bounds = timed(spans, "analysis.platform_batch", request, root, lt.fig10_bound, [&] {
      return hedra::analysis::analyze_platform_batch(batch, point.cores);
    });
    for (std::size_t di = 0; di < batch.size(); ++di) {
      hedra::analysis::AnalysisCache cache(batch, di);
      for (std::size_t mi = 0; mi < point.cores.size(); ++mi) {
        const int violated = timed(spans, "sim.policies", request, root, lt.fig10_sim, [&] {
          int v = 0;
          for (const auto policy : hedra::sim::all_policies()) {
            hedra::sim::SimConfig sim;
            sim.cores = point.cores[mi];
            sim.policy = policy;
            sim.validate = false;
            const auto observed = hedra::sim::simulated_makespan(cache.flat_view(), sim);
            if (hedra::Frac(observed) > bounds.bound(di, mi)) ++v;
          }
          return v;
        });
        lt.violations += violated;
        lt.fig10_sims += hedra::sim::all_policies().size();
      }
      ++lt.fig10_dags;
    }
    spans.end(root);
  }
  // fig12: taskset generation, contention_rta, the taskset simulator.
  for (const auto& point : fig12_points(c.fig12)) {
    const int root = spans.begin("exp.fig12_point", ++request);
    hedra::Rng master(point.seed);
    for (int k = 0; k < c.fig12.tasksets_per_point; ++k) {
      hedra::Rng set_rng = master.fork();
      const auto set = timed(spans, "taskset.gen", request, root, lt.fig12_gen, [&] {
        return hedra::taskset::generate_task_set(point.gen, set_rng);
      });
      const std::uint64_t sim_seed = set_rng.next_u64();
      const auto admission = timed(spans, "taskset.rta", request, root, lt.fig12_rta,
                                   [&] { return hedra::taskset::contention_rta(set); });
      lt.solves += admission.telemetry.fixpoint_solves;
      lt.iterations += admission.telemetry.iterations;
      lt.frac_path += admission.telemetry.frac_path;
      ++lt.fig12_sets;
      if (!admission.schedulable) continue;
      std::vector<int> cores;
      for (const auto& t : admission.tasks) cores.push_back(t.cores);
      const auto sim = timed(spans, "taskset.sim", request, root, lt.fig12_sim, [&] {
        hedra::taskset::TasksetSimConfig sc;
        sc.policy = c.fig12.policy;
        sc.seed = sim_seed;
        sc.jobs_per_task = c.fig12.jobs_per_task;
        return hedra::taskset::simulate_taskset(set, cores, sc);
      });
      for (std::size_t i = 0; i < admission.tasks.size(); ++i) {
        if (hedra::Frac(sim.tasks[i].worst_response) > admission.tasks[i].response) {
          ++lt.violations;
        }
      }
      ++lt.fig12_simulated;
    }
    spans.end(root);
  }
  return lt;
}

double per(double seconds, std::uint64_t count) {
  return count == 0 ? 0.0 : seconds * 1e6 / static_cast<double>(count);
}

}  // namespace

RunResult run_sweep(const Options& options) {
  RunResult result;
  const SweepConfigs c = configs(options.seed);

  SetupTrials setup([&] {
    const std::int64_t t = now_ns();
    generate_inputs(c);
    return seconds_since(t);
  });
  setup.take_batch();

  // Measured phase: whole passes until the time is up (at least three, so
  // the median is a middle value).
  const double measure_s = options.trace ? options.seconds / 2.0 : options.seconds;
  std::vector<PassResult> passes;
  const std::int64_t start = now_ns();
  while (seconds_since(start) < measure_s || passes.size() < 3) {
    passes.push_back(run_pass(c));
  }

  // Checks: zero bound violations and identical rows on every pass.
  for (const PassResult& p : passes) {
    // Three sweep calls per pass; the digest covers all three.
    result.attempted += 3;
    const bool same = p.digest == passes.front().digest;
    result.failed += same ? (p.fig10_violations != 0) + (p.fig12_violations != 0) : 3;
    if (p.fig10_violations != 0) result.fail_check("fig10 bound violations");
    if (p.fig12_violations != 0) result.fail_check("fig12 bound violations");
    if (!same) result.fail_check("sweep rows differ between passes");
  }
  result.details.emplace_back("row_digest", json_string(passes.front().digest));

  std::vector<double> pass_ms, f6, f10, f12;
  for (const PassResult& p : passes) {
    pass_ms.push_back((p.fig6_s + p.fig10_s + p.fig12_s) * 1e3);
    f6.push_back(p.fig6_s);
    f10.push_back(p.fig10_s);
    f12.push_back(p.fig12_s);
  }
  std::string pass_list = "[";
  for (const double ms : pass_ms) pass_list += (pass_list.size() > 1 ? "," : "") + json_number(ms);
  result.details.emplace_back("pass_ms", pass_list + "]");
  if (!options.trace) {
    result.add("latency_p50_ms", median(pass_ms), "ms");
    setup.take_batch();
    result.add("setup_s", setup.median_s(), "s");
    result.add("peak_rss_mb", self_peak_rss_mb(), "MB");
    return result;
  }

  SpanLog spans;
  const LayerTimes lt = replay_layers(c, spans);
  if (lt.violations != 0) result.fail_check("bound violations in the layer replay");
  const double fig6_s = median(f6), fig10_s = median(f10), fig12_s = median(f12);
  const double covered = lt.fig6_gen + lt.fig6_transform + lt.fig6_sim + lt.fig10_gen +
                         lt.fig10_bound + lt.fig10_sim + lt.fig12_gen + lt.fig12_rta +
                         lt.fig12_sim;
  const double total = fig6_s + fig10_s + fig12_s;
  result.add("fig6_s", fig6_s, "s");
  result.add("fig10_s", fig10_s, "s");
  result.add("fig12_s", fig12_s, "s");
  result.add("gen.dag_us_per_dag", per(lt.fig6_gen, lt.fig6_dags), "us");
  result.add("analysis.het_hom_us_per_dag",
             per(lt.fig6_transform + lt.fig6_het_hom, lt.fig6_dags), "us");
  result.add("gen.flat_us_per_dag", per(lt.fig10_gen, lt.fig10_dags), "us");
  result.add("analysis.platform_batch_us_per_dag", per(lt.fig10_bound, lt.fig10_dags), "us");
  result.add("sim.us_per_sim", per(lt.fig10_sim, lt.fig10_sims), "us");
  result.add("taskset.gen_us_per_set", per(lt.fig12_gen, lt.fig12_sets), "us");
  result.add("taskset.rta_us", per(lt.fig12_rta, lt.fig12_sets), "us");
  result.add("taskset.sim_us_per_set", per(lt.fig12_sim, lt.fig12_simulated), "us");
  result.add("taskset.iterations_per_solve",
             lt.solves == 0 ? 0.0 : static_cast<double>(lt.iterations) / static_cast<double>(lt.solves),
             "count");
  result.add("taskset.frac_path_share",
             lt.solves == 0 ? 0.0 : static_cast<double>(lt.frac_path) / static_cast<double>(lt.solves),
             "ratio");
  result.add("exp.orchestration_share", (total - covered) / total, "ratio");
  write_text_file(options.work_dir + "/spans.json", spans.chrome_json());
  return result;
}

}  // namespace perfbench
