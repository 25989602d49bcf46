#include "runtime/gaia.h"

#include <iterator>
#include <string>

#include "common/mutex.h"

namespace flex::runtime {

namespace {

/// Per-query completion latch. The persistent pool serves many concurrent
/// queries, so a query must wait for its own shard tasks only —
/// ThreadPool::Wait() would block on unrelated queries' work too.
class ShardLatch {
 public:
  explicit ShardLatch(size_t count) : remaining_(count) {}

  void CountDown() {
    MutexLock lock(&mu_);
    if (--remaining_ == 0) done_.SignalAll();
  }

  void Wait() {
    MutexLock lock(&mu_);
    while (remaining_ > 0) done_.Wait(&mu_);
  }

 private:
  Mutex mu_;
  CondVar done_;
  size_t remaining_ GUARDED_BY(mu_);
};

/// A scan inside the prefix (cartesian restart of a new MATCH) must see
/// every vertex in every worker; position-sharding would drop rows. Such
/// plans run single-threaded.
bool HasInnerScan(const ir::Plan& plan, size_t split) {
  for (size_t i = 1; i < split; ++i) {
    if (plan.ops[i].kind == ir::OpKind::kScan ||
        plan.ops[i].kind == ir::OpKind::kFusedScan) {
      return true;
    }
  }
  return false;
}

/// Scan positions the leading scan enumerates (label-major, like the
/// interpreter).
size_t ScanTotal(const grin::GrinGraph& g, const ir::Op& scan) {
  if (scan.label == kInvalidLabel) {
    size_t total = 0;
    for (size_t l = 0; l < g.schema().vertex_label_num(); ++l) {
      total += g.NumVerticesOfLabel(static_cast<label_t>(l));
    }
    return total;
  }
  return g.NumVerticesOfLabel(scan.label);
}

/// Runs the streaming prefix on every worker, worker w owning the static
/// scan window [w*total/W, (w+1)*total/W), then exchanges: partials are
/// concatenated in worker order. The windows tile the scan in order, so
/// the merged stream is exactly the single-threaded prefix output and
/// needs no sort. `run_prefix(opts)` returns one worker's rows (row mode)
/// or batches (batched mode).
template <typename Chunk, typename RunPrefix>
Result<std::vector<Chunk>> RunShardedPrefix(ThreadPool* pool, size_t workers,
                                            size_t total,
                                            const query::ExecOptions& base,
                                            const RunPrefix& run_prefix) {
  std::vector<Result<std::vector<Chunk>>> partials(workers,
                                                   std::vector<Chunk>{});
  ShardLatch latch(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool->Submit([&, w] {
      {
        // Scoped so the span ends before CountDown: the waiter may read
        // the trace the instant the latch releases.
        trace::ScopedSpan shard_span(base.trace,
                                     "gaia.shard[" + std::to_string(w) + "]",
                                     "engine", base.trace_parent);
        query::ExecOptions opts = base;
        opts.scan_begin = w * total / workers;
        opts.scan_end = (w + 1) * total / workers;
        opts.trace_parent = shard_span.id();
        partials[w] = run_prefix(opts);
      }
      latch.CountDown();
    });
  }
  latch.Wait();
  trace::ScopedSpan exchange_span(base.trace, "gaia.exchange", "engine",
                                  base.trace_parent);
  std::vector<Chunk> merged;
  for (auto& partial : partials) {
    FLEX_RETURN_NOT_OK(partial.status());
    auto chunks = std::move(partial).value();
    merged.insert(merged.end(), std::make_move_iterator(chunks.begin()),
                  std::make_move_iterator(chunks.end()));
  }
  return merged;
}

}  // namespace

GaiaEngine::GaiaEngine(const grin::GrinGraph* graph, size_t num_workers)
    : graph_(graph),
      num_workers_(num_workers),
      pool_(num_workers > 1 ? std::make_unique<ThreadPool>(num_workers)
                            : nullptr) {}

Result<std::vector<ir::Row>> GaiaEngine::Run(
    const ir::Plan& plan, std::vector<PropertyValue> params,
    Deadline deadline, const CancellationToken* cancel, trace::Trace* trace,
    uint64_t trace_parent, ExecMode mode) const {
  // Admission: a dead-on-arrival query must not reach the workers.
  FLEX_RETURN_NOT_OK(CheckRunnable(deadline, cancel, "gaia"));
  trace::ScopedSpan engine_span(trace, "gaia", "engine", trace_parent);
  query::Interpreter interpreter(graph_);

  // Split at the first blocking (exchange-requiring) operator.
  size_t split = plan.ops.size();
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    if (query::Interpreter::IsBlocking(plan.ops[i])) {
      split = i;
      break;
    }
  }

  // Only a leading label scan is sharded. An id-pinned leading scan
  // resolves to at most one vertex through the oid index, so sharding it
  // would buy no parallelism and pay dispatch + latch on every query — the
  // dominant cost for point lookups. It runs single-threaded instead.
  const bool shardable = pool_ != nullptr && !plan.ops.empty() &&
                         (plan.ops[0].kind == ir::OpKind::kScan ||
                          plan.ops[0].kind == ir::OpKind::kFusedScan) &&
                         plan.ops[0].id_lookup == nullptr && split > 0 &&
                         !HasInnerScan(plan, split);
  query::ExecOptions opts;
  opts.params = std::move(params);
  opts.vectorized = mode == ExecMode::kBatched;
  opts.deadline = deadline;
  opts.cancel = cancel;
  opts.trace = trace;
  opts.trace_parent = engine_span.id();
  if (!shardable) return interpreter.Run(plan, opts);

  // Both modes share the shard loop and the exchange; they differ only in
  // running the prefix and the blocking suffix over batches or rows, which
  // the interpreter's cost floor decides exactly as in Interpreter::Run.
  // The batched suffix stays columnar: GROUP aggregates natively, while
  // ORDER / LIMIT / DEDUP bridge through rows inside RunRangeBatched,
  // bit-identically to the row suffix.
  const size_t total = ScanTotal(*graph_, plan.ops[0]);
  if (opts.vectorized && query::Interpreter::WorthBatching(plan)) {
    auto merged = RunShardedPrefix<ir::Batch>(
        pool_.get(), num_workers_, total, opts,
        [&](const query::ExecOptions& o) {
          return interpreter.RunRangeBatched(plan, 0, split, {}, o);
        });
    FLEX_RETURN_NOT_OK(merged.status());
    auto suffix = interpreter.RunRangeBatched(
        plan, split, plan.ops.size(), std::move(merged).value(), opts);
    FLEX_RETURN_NOT_OK(suffix.status());
    return ir::BatchesToRows(suffix.value());
  }
  auto merged = RunShardedPrefix<ir::Row>(
      pool_.get(), num_workers_, total, opts,
      [&](const query::ExecOptions& o) {
        return interpreter.RunRange(plan, 0, split, {}, o);
      });
  FLEX_RETURN_NOT_OK(merged.status());
  return interpreter.RunRange(plan, split, plan.ops.size(),
                              std::move(merged).value(), opts);
}

}  // namespace flex::runtime
