#ifndef FLEX_OPTIMIZER_OPTIMIZER_H_
#define FLEX_OPTIMIZER_OPTIMIZER_H_

#include "ir/plan.h"
#include "optimizer/catalog.h"

namespace flex::optimizer {

/// Which optimizations to apply; the Exp-2 / Fig 7(e) benchmark toggles
/// these individually to measure each rule's contribution.
struct OptimizerOptions {
  bool filter_push_into_match = true;  ///< RBO FilterPushIntoMatch (§5.2).
  bool edge_vertex_fusion = true;      ///< RBO EdgeVertexFusion (§5.2).
  bool index_scan = true;              ///< id-pinned scans -> oid lookups.
  bool limit_pushdown = true;          ///< ORDER + LIMIT -> top-k.
  bool cbo = true;                     ///< GLogue-based match reordering.
  /// FusePipelines: predicated SCAN / EXPAND ops whose predicate has at
  /// least one storage-pushable conjunct become FUSED_SCAN / FUSED_EXPAND,
  /// and a PROJECT reading only the scan column folds into the fused scan.
  /// Requires a schema at Optimize time (silently skipped without one).
  bool fusion = true;
};

/// Transforms the logical plan into an optimized physical plan:
///   1. FilterPushIntoMatch — SELECTs over a single pattern column merge
///      into the producing SCAN / GET_VERTEX / EXPAND as pushed predicates
///      (shrinking intermediates and enabling store-level pushdown).
///   2. CBO — each MATCH block is re-planned from the GLogue catalog:
///      start at the most selective pattern vertex, expand greedily by
///      lowest estimated cardinality, close cycles with EXPAND_INTO.
///   3. EdgeVertexFusion — EXPAND_EDGE + GET_VERTEX pairs whose edge is
///      anonymous and unreferenced fuse into one EXPAND.
///   4. LimitPushdown — a LIMIT directly after ORDER becomes a top-k sort.
///   5. FusePipelines — predicated SCAN / EXPAND chains become single
///      fused batch passes (FUSED_SCAN / FUSED_EXPAND) whose pushable
///      conjuncts run inside the storage visit; runs last so no other
///      pass needs to understand the fused kinds.
///
/// `catalog` may be null; CBO is skipped then. `schema` may be null;
/// FusePipelines is skipped then (pushability is schema-dependent).
ir::Plan Optimize(const ir::Plan& logical, const Catalog* catalog,
                  const OptimizerOptions& options = {},
                  const GraphSchema* schema = nullptr);

}  // namespace flex::optimizer

#endif  // FLEX_OPTIMIZER_OPTIMIZER_H_
