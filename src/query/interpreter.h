#ifndef FLEX_QUERY_INTERPRETER_H_
#define FLEX_QUERY_INTERPRETER_H_

#include <cstddef>
#include <vector>

#include "common/deadline.h"
#include "common/trace.h"
#include "grin/grin.h"
#include "ir/batch.h"
#include "ir/plan.h"
#include "ir/row.h"

namespace flex::query {

/// Options controlling one execution of a physical plan.
struct ExecOptions {
  /// Bound values for $i parameters (stored procedures).
  std::vector<PropertyValue> params;
  /// Position window [scan_begin, scan_end) of the SCAN: only vertices at
  /// these global scan positions (label-major) are emitted. The default
  /// covers the whole scan; index scans ignore it. Gaia gives worker w the
  /// window [w*total/W, (w+1)*total/W) of the leading scan, so
  /// concatenating worker outputs in worker order is global scan order.
  size_t scan_begin = 0;
  size_t scan_end = static_cast<size_t>(-1);
  /// Columnar execution (~kBatchSize-tuple batches through the streaming
  /// operators; blocking operators bridge through rows, bit-identically)
  /// for plans that clear the cost floor (Interpreter::WorthBatching).
  /// false forces the row-at-a-time path, the Exp-2 A/B baseline.
  bool vectorized = true;
  /// Checked between operators — and, when vectorized, at batch
  /// boundaries inside operators — execution stops with kDeadlineExceeded
  /// / kCancelled instead of running further.
  Deadline deadline;
  const CancellationToken* cancel = nullptr;
  /// Optional per-query trace: each operator records a span (name =
  /// OpKindName) under `trace_parent`, and scans nest a "storage.read"
  /// child. Must outlive the call. Both execution paths produce the same
  /// span tree shape.
  trace::Trace* trace = nullptr;
  uint64_t trace_parent = trace::kNoParent;
};

/// Reference executor for GraphIR plans over any GRIN backend. Both
/// engines are built on it: Gaia runs the non-blocking prefix shard-wise
/// and the blocking suffix after an exchange; HiActor runs whole (point)
/// plans inside actor tasks.
class Interpreter {
 public:
  explicit Interpreter(const grin::GrinGraph* graph) : graph_(graph) {}

  /// Executes the full plan: batched when `opts.vectorized` is set and
  /// WorthBatching(plan) holds, row-at-a-time otherwise.
  Result<std::vector<ir::Row>> Run(const ir::Plan& plan,
                                   const ExecOptions& opts = {}) const;

  /// The row-or-batched decision for a vectorized request, shared by both
  /// engines: batched unless the optimizer estimated the plan below the
  /// cost floor. Unestimated plans (estimated_peak_rows < 0) run batched.
  static bool WorthBatching(const ir::Plan& plan);

  /// Executes ops [begin, end) of the plan starting from `input` rows,
  /// one row-vector at a time (the legacy scalar path).
  Result<std::vector<ir::Row>> RunRange(const ir::Plan& plan, size_t begin,
                                        size_t end, std::vector<ir::Row> input,
                                        const ExecOptions& opts) const;

  /// Executes ops [begin, end) over columnar batches. Streaming operators
  /// (SCAN, EXPAND, GETV, PROJECT, SELECT) run batch-at-a-time with
  /// filters refining the shared selection vector; blocking operators and
  /// variable-length expansion bridge through the row representation, so
  /// results are bit-identical to RunRange.
  Result<std::vector<ir::Batch>> RunRangeBatched(const ir::Plan& plan,
                                                 size_t begin, size_t end,
                                                 std::vector<ir::Batch> input,
                                                 const ExecOptions& opts) const;

  /// True if `op` requires all rows at once (Gaia exchange point).
  static bool IsBlocking(const ir::Op& op);

 private:
  Status Apply(const ir::Op& op, std::vector<ir::Row>* rows,
               const ExecOptions& opts, uint64_t op_span) const;

  Status ApplyBatched(const ir::Op& op, std::vector<ir::Batch>* batches,
                      const ExecOptions& opts, uint64_t op_span) const;

  Status ColumnarScan(const ir::Op& op, std::vector<ir::Batch>* out,
                      const ExecOptions& opts, uint64_t op_span) const;

  /// FUSED_SCAN, vectorized: splits the predicate into pushed conjuncts
  /// (evaluated by the backend inside its scan loop, filtered-out rows
  /// never materialize) and residual conjuncts, and builds folded
  /// projection output directly from natively gathered property columns.
  Status ColumnarFusedScan(const ir::Op& op, std::vector<ir::Batch>* out,
                           const ExecOptions& opts, uint64_t fused_span) const;

  const grin::GrinGraph* graph_;
};

/// Renders rows as text lines (tests and result reporting).
std::vector<std::string> RowsToStrings(const std::vector<ir::Row>& rows);

}  // namespace flex::query

#endif  // FLEX_QUERY_INTERPRETER_H_
