#pragma once

/// \file uunifast.h
/// UUniFast (Bini & Buttazzo): the classic unbiased sampler over the
/// utilisation simplex, used by the task-set generator (taskset/gen.h) to
/// split a target total utilisation across tasks.

#include <vector>

#include "util/rng.h"

namespace hedra::gen {

/// `n` utilisations, each in (0, total), summing to `total`.
[[nodiscard]] std::vector<double> uunifast(int n, double total, Rng& rng);

}  // namespace hedra::gen
