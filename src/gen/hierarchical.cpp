#include "gen/hierarchical.h"

#include "gen/flat_gen.h"
#include "graph/flat_batch.h"

namespace hedra::gen {

graph::Dag generate_hierarchical(const HierarchicalParams& params, Rng& rng) {
  graph::FlatDagBatch batch;
  generate_hierarchical_flat(params, rng, batch);
  return batch.materialize(0);
}

}  // namespace hedra::gen
