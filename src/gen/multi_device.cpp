#include "gen/multi_device.h"

#include "gen/flat_gen.h"
#include "graph/flat_batch.h"

namespace hedra::gen {

double device_ratio(const graph::Dag& dag, graph::DeviceId device) {
  const graph::Time vol = dag.volume();
  HEDRA_REQUIRE(vol > 0, "graph has zero volume");
  return static_cast<double>(dag.volume_on(device)) /
         static_cast<double>(vol);
}

graph::Dag generate_multi_device(const HierarchicalParams& params,
                                 double coff_ratio, Rng& rng) {
  graph::FlatDagBatch batch;
  generate_multi_device_flat(params, coff_ratio, rng, batch);
  return batch.materialize(0);
}

}  // namespace hedra::gen
