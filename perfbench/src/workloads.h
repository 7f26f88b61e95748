#pragma once

/// \file workloads.h
/// The benchmark's workloads.  Each builds its inputs from the seed, runs
/// the untraced measurement (trace off) or the traced layer breakdown
/// (trace on), checks the program's outputs outside the timed phase and
/// returns metrics, attempted/failed counts and check details.

#include "common.h"

namespace perfbench {

/// admit-host-1k: the ~1k-task pure-host warm set, one client at depth 1.
[[nodiscard]] RunResult run_admit_host(const Options& options);

/// admit-contended: a few dozen tasks on two shared accelerator classes,
/// one client keeping 16 requests outstanding with STATUS reads mixed in.
[[nodiscard]] RunResult run_admit_contended(const Options& options);

/// sweep: run_fig6, run_fig10 and a scaled-up run_fig12, jobs = 1.
[[nodiscard]] RunResult run_sweep(const Options& options);

/// exact-fig7: run_fig7 over the fig7 corpus with a pure node budget.
[[nodiscard]] RunResult run_exact(const Options& options);

}  // namespace perfbench
