#include "gen/uunifast.h"

#include <cmath>

#include "util/error.h"

namespace hedra::gen {

std::vector<double> uunifast(int n, double total, Rng& rng) {
  HEDRA_REQUIRE(n >= 1, "uunifast needs n >= 1");
  HEDRA_REQUIRE(total > 0.0, "uunifast needs positive total");
  std::vector<double> out(static_cast<std::size_t>(n));
  double sum = total;
  for (int i = 1; i < n; ++i) {
    const double next =
        sum * std::pow(rng.uniform_real(),
                       1.0 / static_cast<double>(n - i));
    out[static_cast<std::size_t>(i - 1)] = sum - next;
    sum = next;
  }
  out[static_cast<std::size_t>(n - 1)] = sum;
  return out;
}

}  // namespace hedra::gen
