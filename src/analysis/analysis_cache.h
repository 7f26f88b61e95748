#pragma once

/// \file analysis_cache.h
/// Per-DAG memoisation for the experiment engine.
///
/// Every figure of §5 evaluates the *same* DAG under several core counts
/// m ∈ {2, 4, 8, 16}.  Almost everything Theorem 1 consumes is
/// m-independent — the τ ⇒ τ' transformation (Algorithm 1), the critical
/// paths of G, G' and G_par, vol and C_off — and only the final scenario
/// classification and bound are per-m arithmetic on those quantities.
/// AnalysisCache computes each graph walk exactly once, lazily, and serves
/// all m values from the cached quantities; a sweep over four core counts
/// therefore pays for one transform and one set of longest-path passes
/// instead of four.  quantities() is the one place Theorem 1's inputs are
/// measured.
///
/// Every walk runs over CSR: flat_view() for G, the transform's own
/// snapshot for G'.  A `Dag` comes into being only where labels are asked
/// for, and nothing on the bound path or in fig6's validated simulations
/// asks:
///  - original() — materialises an arena-backed DAG (dag_io, DOT, the B&B
///    solver's input);
///  - transformed() — G' with the original labels plus "vSync", for DOT,
///    dag files, Gantt charts and analyze().
/// So on an arena-backed cache r_het, r_hom, scenario, quantities and
/// simulations over flat_view() and transform().view() never build a Dag.
///
/// An instance references (does not copy) the DAG it analyses and is meant
/// for single-threaded use; the experiment runner builds one cache per DAG
/// inside each worker task.

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "analysis/platform_rta.h"
#include "analysis/rta_heterogeneous.h"
#include "analysis/transform.h"
#include "graph/dag.h"
#include "graph/flat_batch.h"
#include "graph/flat_dag.h"
#include "model/platform.h"
#include "util/fraction.h"

namespace hedra::analysis {

class AnalysisCache {
 public:
  /// Binds to `dag`, which must outlive the cache.  No work happens here;
  /// every quantity is computed on first use.
  explicit AnalysisCache(const Dag& dag) : dag_(&dag) {}

  /// Binding to a temporary would dangle immediately.
  explicit AnalysisCache(Dag&&) = delete;

  /// Binds to DAG `index` of an arena batch (which must outlive the cache).
  /// The bound paths then run straight over the arena view; original()
  /// materialises a Dag lazily, exactly once, for the callers that need
  /// labels.
  AnalysisCache(const graph::FlatDagBatch& batch, std::size_t index)
      : batch_(&batch), batch_index_(index), view_(batch.view(index)) {}

  /// The analysed Dag.  For an arena-backed cache the first call
  /// materialises it from the batch (labels included).
  [[nodiscard]] const Dag& original();

  /// CSR view of G: the arena slice for a batch-backed cache (no
  /// materialisation, no copy; nodes go by graph::default_label), otherwise
  /// a snapshot of the bound Dag built once on first use, whose source()
  /// carries the Dag's labels into trace messages.
  [[nodiscard]] graph::FlatView flat_view();

  /// Algorithm 1 over flat_view() (validates the model preconditions on
  /// first call).
  [[nodiscard]] const TransformResult& transform();

  /// G' as a labelled Dag, materialised on first call.
  [[nodiscard]] const Dag& transformed();

  /// The m-independent quantities of Theorem 1, measured once: longest
  /// paths of G' from the transform's snapshot, len/vol of G_par from one
  /// pass over G's topological order masked to G_par.
  [[nodiscard]] const TheoremQuantities& quantities();

  [[nodiscard]] graph::Time len_original();
  [[nodiscard]] graph::Time volume();

  /// Host/per-device volumes and the max host-weighted path of the ORIGINAL
  /// graph, measured once (measure_platform over flat_view()).  These feed
  /// r_platform and never force the (single-offload-only) transform, so the
  /// cache works on multi-device DAGs too.
  [[nodiscard]] const PlatformQuantities& platform_quantities();

  /// Per-m results, pure arithmetic over the cached quantities.
  [[nodiscard]] Frac r_hom(int m);       ///< Eq. 1 on the original τ
  [[nodiscard]] Frac r_hom_gpar(int m);  ///< the scenario discriminator
  [[nodiscard]] Scenario scenario(int m);
  [[nodiscard]] Frac r_het(int m);       ///< Theorem 1 on τ'

  /// K-device chain bound on τ: platform_bound over the cached
  /// PlatformQuantities, with n_d = `device_units[d−1]` execution units and
  /// WCET speedup s_d = `device_speedup[d−1]` per accelerator class
  /// (devices beyond either span: one unit at unit speed).  Empty or
  /// all-ones spans give the single-unit bound.
  [[nodiscard]] Frac r_platform(int m, std::span<const int> device_units = {},
                                std::span<const Frac> device_speedup = {});

  /// Same bound from a full Platform (must support the DAG's device ids;
  /// honours device_units and device_speedup).
  [[nodiscard]] Frac r_platform(const model::Platform& platform);

  /// Assembles the full HetAnalysis record (identical field-for-field to
  /// analyze_heterogeneous, which delegates here), G' Dag included.  On an
  /// lvalue cache the cached transform and G' are copied into the result; a
  /// single-shot rvalue cache moves them out instead, so
  /// `AnalysisCache(dag).analyze(m)` pays no copy.
  [[nodiscard]] HetAnalysis analyze(int m) &;
  [[nodiscard]] HetAnalysis analyze(int m) &&;

 private:
  const Dag* dag_ = nullptr;
  const graph::FlatDagBatch* batch_ = nullptr;
  std::size_t batch_index_ = 0;
  graph::FlatView view_;              ///< arena slice (batch-backed only)
  std::optional<Dag> materialized_;   ///< lazy Dag of a batch-backed cache
  std::optional<TransformResult> transform_;
  std::optional<Dag> transformed_;
  std::optional<graph::FlatDag> flat_;  ///< snapshot of a Dag-backed G
  std::optional<TheoremQuantities> quantities_;
  std::optional<PlatformQuantities> platform_quantities_;
  std::optional<graph::Time> len_original_;
  std::optional<graph::Time> vol_original_;

  /// analyze() minus the transform fields, shared by both overloads.
  [[nodiscard]] HetAnalysis assemble(int m);
};

}  // namespace hedra::analysis
