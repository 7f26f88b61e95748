#pragma once

/// \file flat_gen.h
/// The DAG generators of §5.1, writing into a structure-of-arrays arena.
///
/// There are three recipes:
///
///   1. plain hierarchical structure          (generate_hierarchical_flat)
///   2. single-offload §5.1 pipeline          (generate_offload_flat)
///   3. multi-device pipeline                 (generate_multi_device_flat)
///
/// Each emits CSR directly into a `graph::FlatDagBatch` arena instead of
/// allocating a `Dag` per DAG.  The fork–join recursion writes into a
/// reusable `StagedDag` scratch, so rejection-sampling attempts cost no
/// allocations at steady state.
///
/// This is the only generator path: every generated `Dag`
/// (gen::generate_hierarchical, gen::generate_multi_device,
/// exp::generate_batch) is an arena DAG materialised with
/// `FlatDagBatch::materialize`.  Determinism contract: for a given seed the
/// draws, their order (rejected attempts included) and the resulting DAGs
/// are fixed; golden hashes in tests/gen/flat_gen_test.cpp pin both the
/// arena arrays and the materialised Dags.

#include "gen/params.h"
#include "graph/flat_batch.h"
#include "util/rng.h"

namespace hedra::gen {

/// Runs the rejection-sampled fork–join recursion once and leaves the
/// accepted attempt in `staged` (host-only nodes, edges in recursion
/// order).  Throws hedra::Error if `params` is invalid or the node window
/// is not hit within max_attempts tries.
void generate_hierarchical_staged(const HierarchicalParams& params, Rng& rng,
                                  graph::StagedDag& staged);

/// Appends one plain hierarchical (host-only) DAG to `batch`.
void generate_hierarchical_flat(const HierarchicalParams& params, Rng& rng,
                                graph::FlatDagBatch& batch);

/// Appends one §5.1 heterogeneous DAG: hierarchical structure, one random
/// internal v_off (device 1), C_off set to `coff_ratio` of vol(G) — the
/// arena form of generate_hierarchical + select_offload_node +
/// set_offload_ratio (gen/offload.h).
void generate_offload_flat(const HierarchicalParams& params, double coff_ratio,
                           Rng& rng, graph::FlatDagBatch& batch);

/// Appends one K-device DAG; see generate_multi_device (gen/multi_device.h)
/// for the placement and volume-split rules.
void generate_multi_device_flat(const HierarchicalParams& params,
                                double coff_ratio, Rng& rng,
                                graph::FlatDagBatch& batch);

}  // namespace hedra::gen
