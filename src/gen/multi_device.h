#pragma once

/// \file multi_device.h
/// Multi-device heterogeneous DAG tasks — the K-accelerator generalisation
/// of gen/offload.h.  Mirrors the paper's §5.1 recipe device by device:
/// random distinct internal nodes are placed on each accelerator class, and
/// the per-device offloaded volumes are solved against a target total
/// C_off/vol ratio split across devices by a mix vector.  These DAGs drive
/// the fig10 multi-device sweep and the platform-bound property tests.

#include "gen/params.h"
#include "graph/dag.h"
#include "util/rng.h"

namespace hedra::gen {

/// The realised per-device ratio vol_d / vol(G).
[[nodiscard]] double device_ratio(const graph::Dag& dag,
                                  graph::DeviceId device);

/// One K-device DAG: generate_multi_device_flat (gen/flat_gen.h) into a
/// one-DAG arena, materialised.  Hierarchical structure from `params`, then
/// params.offloads_per_device distinct internal nodes on each of devices
/// 1..params.num_devices, then offloaded WCETs such that the total
/// offloaded volume is ≈ `coff_ratio` of the final vol(G) (ratio strictly
/// inside (0, 1)).  The total is split across devices proportionally to
/// params.device_mix (empty = even split; otherwise one strictly positive,
/// finite weight per device) and evenly across each device's nodes by
/// cumulative rounding; every node keeps WCET >= 1.  params.device_speedup
/// (empty = all 1.0; otherwise one strictly positive finite factor per
/// device) divides device i's tick budget by speedup[i], so a 2× device
/// realises half the ticks for the same nominal share — the written WCETs
/// are device-time and feed analysis/simulation unscaled.  Requires
/// params.num_devices >= 1 and enough internal nodes for every placement.
[[nodiscard]] graph::Dag generate_multi_device(const HierarchicalParams& params,
                                               double coff_ratio, Rng& rng);

}  // namespace hedra::gen
