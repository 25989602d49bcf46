#ifndef FLEX_RUNTIME_GAIA_H_
#define FLEX_RUNTIME_GAIA_H_

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "query/interpreter.h"

namespace flex::runtime {

/// Execution mode for one GaiaEngine::Run: columnar batches (the default;
/// plans below the interpreter's cost floor still run row-wise, see
/// query::Interpreter::WorthBatching) or the row-at-a-time path forced
/// throughout, kept as the Exp-2 A/B baseline. Both modes return
/// bit-identical rows at any worker count.
enum class ExecMode { kBatched, kRowAtATime };

/// Gaia-like dataflow engine (§5.3): the OLAP path. A physical plan is cut
/// at its first blocking operator; the streaming prefix (SOURCE →
/// FLATMAP/MAP/FILTER chain) runs data-parallel across workers, each
/// owning a shard of the source scan, and the blocking suffix (ORDER /
/// GROUP / LIMIT / DEDUP and everything after) runs after an exchange that
/// gathers the shards — the latency-oriented data-parallel design the
/// paper contrasts with HiActor's throughput orientation.
///
/// Both modes shard the leading scan the same way: worker w owns the static
/// window [w*total/W, (w+1)*total/W) of scan positions and streams rows
/// (row mode) or ~kBatchSize columnar batches (batched mode). The windows
/// tile the scan in order, so the exchange concatenates the partials in
/// worker order and the result is the single-threaded scan order.
class GaiaEngine {
 public:
  GaiaEngine(const grin::GrinGraph* graph, size_t num_workers);

  /// Runs `plan`. An already-expired deadline (or cancelled token) is
  /// rejected up front with kDeadlineExceeded / kCancelled before any
  /// operator executes; during execution both are re-checked at every
  /// operator boundary — and, in batched mode, at batch boundaries —
  /// in every shard.
  ///
  /// When `trace` is non-null, a "gaia" span is recorded under
  /// `trace_parent` with per-shard / exchange / suffix children; the span
  /// tree has the same shape in both execution modes.
  Result<std::vector<ir::Row>> Run(
      const ir::Plan& plan, std::vector<PropertyValue> params = {},
      Deadline deadline = {}, const CancellationToken* cancel = nullptr,
      trace::Trace* trace = nullptr,
      uint64_t trace_parent = trace::kNoParent,
      ExecMode mode = ExecMode::kBatched) const;

  size_t num_workers() const { return num_workers_; }

 private:
  const grin::GrinGraph* graph_;
  size_t num_workers_;
  /// Persistent workers, sized once at construction. Queries submit their
  /// shard tasks here and wait on a per-query latch — the old design
  /// constructed (and joined) a fresh ThreadPool inside every Run, paying
  /// num_workers thread spawns per query. Null when num_workers_ <= 1.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace flex::runtime

#endif  // FLEX_RUNTIME_GAIA_H_
