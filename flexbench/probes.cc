#include "probes.h"

#include <algorithm>

#include "common/metric_names.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "query/interpreter.h"

namespace flexbench {

using flex::grin::AdjChunk;
using CallT = CountingGrin::Call;

CountingGrin::Call::Call(const CountingGrin* grin,
                         flex::metrics::Counter* counter)
    : grin_(grin), start_(Clock::now()) {
  counter->Increment();
}

CountingGrin::Call::~Call() {
  Pause();
  grin_->self_ns_.Add(self_ns_);
}

void CountingGrin::Call::Pause() {
  self_ns_ += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start_)
          .count());
}

void CountingGrin::Call::Resume() { start_ = Clock::now(); }

void CountingGrin::Call::AddElements(uint64_t n) const {
  grin_->elements_.Add(n);
}

GrinTally CountingGrin::tally() const {
  GrinTally t;
  t.scan_calls = scan_calls_.Value();
  t.adj_calls = adj_calls_.Value();
  t.prop_calls = prop_calls_.Value();
  t.lookup_calls = lookup_calls_.Value();
  t.elements = elements_.Value();
  t.self_ns = self_ns_.Value();
  return t;
}

namespace {

/// Context threaded through a wrapped visit: the caller's visitor plus the
/// open GRIN call, so engine callbacks are excluded from GRIN self time.
template <typename Visitor>
struct Wrapped {
  CallT* call;
  Visitor visitor;
  void* ctx;
  flex::grin::VertexPredicate pred = nullptr;
  void* pred_ctx = nullptr;
  uint64_t elements = 0;
};

/// Runs one engine callback outside the GRIN clock.
template <typename W, typename Fn>
auto InEngine(W* w, Fn&& fn) {
  w->call->Pause();
  auto result = fn();
  w->call->Resume();
  return result;
}

template <typename W>
bool WrappedPred(void* raw, flex::vid_t v) {
  auto* w = static_cast<W*>(raw);
  return InEngine(w, [&] { return w->pred(w->pred_ctx, v); });
}

}  // namespace

std::string CountingGrin::backend_name() const { return inner_->backend_name(); }
uint32_t CountingGrin::capabilities() const { return inner_->capabilities(); }
const flex::GraphSchema& CountingGrin::schema() const {
  return inner_->schema();
}

flex::vid_t CountingGrin::NumVertices() const {
  meta_calls_.Increment();
  return inner_->NumVertices();
}

flex::vid_t CountingGrin::NumVerticesOfLabel(flex::label_t label) const {
  meta_calls_.Increment();
  return inner_->NumVerticesOfLabel(label);
}

flex::label_t CountingGrin::VertexLabelOf(flex::vid_t v) const {
  meta_calls_.Increment();
  return inner_->VertexLabelOf(v);
}

std::pair<flex::vid_t, flex::vid_t> CountingGrin::VertexRange(
    flex::label_t label) const {
  meta_calls_.Increment();
  return inner_->VertexRange(label);
}

void CountingGrin::VisitVertices(flex::label_t label,
                                 flex::grin::VertexPredicate pred,
                                 void* pred_ctx,
                                 bool (*visitor)(void*, flex::vid_t),
                                 void* visitor_ctx) const {
  Call call(this, &scan_calls_);
  using W = Wrapped<bool (*)(void*, flex::vid_t)>;
  W w{&call, visitor, visitor_ctx, pred, pred_ctx};
  inner_->VisitVertices(
      label, pred != nullptr ? &WrappedPred<W> : nullptr, &w,
      [](void* raw, flex::vid_t v) -> bool {
        auto* w = static_cast<W*>(raw);
        ++w->elements;
        return InEngine(w, [&] { return w->visitor(w->ctx, v); });
      },
      &w);
  call.AddElements(w.elements);
}

bool CountingGrin::VisitVerticesFiltered(
    flex::label_t label, flex::grin::VertexPredicate pred, void* pred_ctx,
    const flex::grin::VertexFilter& filter,
    std::span<const size_t> project_cols,
    flex::grin::FilteredVertexVisitor visitor, void* visitor_ctx) const {
  Call call(this, &scan_calls_);
  using W = Wrapped<flex::grin::FilteredVertexVisitor>;
  W w{&call, visitor, visitor_ctx, pred, pred_ctx};
  const bool done = inner_->VisitVerticesFiltered(
      label, pred != nullptr ? &WrappedPred<W> : nullptr, &w, filter,
      project_cols,
      [](void* raw, flex::vid_t v,
         std::span<const flex::PropertyValue> props) -> bool {
        auto* w = static_cast<W*>(raw);
        w->elements += 1 + props.size();
        return InEngine(w, [&] { return w->visitor(w->ctx, v, props); });
      },
      &w);
  call.AddElements(w.elements);
  return done;
}

bool CountingGrin::VisitAdj(flex::vid_t v, flex::Direction dir,
                            flex::label_t edge_label,
                            flex::grin::AdjVisitor visitor, void* ctx) const {
  Call call(this, &adj_calls_);
  using W = Wrapped<flex::grin::AdjVisitor>;
  W w{&call, visitor, ctx};
  const bool done = inner_->VisitAdj(
      v, dir, edge_label,
      [](void* raw, const AdjChunk& chunk) -> bool {
        auto* w = static_cast<W*>(raw);
        w->elements += chunk.neighbors.size();
        return InEngine(w, [&] { return w->visitor(w->ctx, chunk); });
      },
      &w);
  call.AddElements(w.elements);
  return done;
}

std::span<const flex::eid_t> CountingGrin::AdjacencyOffsets(
    flex::label_t edge_label, flex::Direction dir) const {
  Call call(this, &adj_calls_);
  return inner_->AdjacencyOffsets(edge_label, dir);
}

std::span<const flex::vid_t> CountingGrin::AdjacencyNeighbors(
    flex::label_t edge_label, flex::Direction dir) const {
  Call call(this, &adj_calls_);
  return inner_->AdjacencyNeighbors(edge_label, dir);
}

size_t CountingGrin::Degree(flex::vid_t v, flex::Direction dir,
                            flex::label_t edge_label) const {
  adj_calls_.Increment();
  return inner_->Degree(v, dir, edge_label);
}

bool CountingGrin::GetNeighborsBatch(std::span<const flex::vid_t> vids,
                                     flex::Direction dir,
                                     flex::label_t edge_label,
                                     flex::grin::BatchAdjVisitor visitor,
                                     void* ctx) const {
  Call call(this, &adj_calls_);
  using W = Wrapped<flex::grin::BatchAdjVisitor>;
  W w{&call, visitor, ctx};
  const bool done = inner_->GetNeighborsBatch(
      vids, dir, edge_label,
      [](void* raw, size_t src_index, flex::Direction d,
         const AdjChunk& chunk) -> bool {
        auto* w = static_cast<W*>(raw);
        w->elements += chunk.neighbors.size();
        return InEngine(
            w, [&] { return w->visitor(w->ctx, src_index, d, chunk); });
      },
      &w);
  call.AddElements(w.elements);
  return done;
}

bool CountingGrin::GetNeighborsBatch(
    std::span<const flex::vid_t> vids, flex::Direction dir,
    flex::label_t edge_label, flex::label_t dst_label,
    const flex::grin::VertexFilter& filter,
    std::span<const size_t> project_cols,
    flex::grin::FilteredNeighborVisitor visitor, void* ctx) const {
  Call call(this, &adj_calls_);
  using W = Wrapped<flex::grin::FilteredNeighborVisitor>;
  W w{&call, visitor, ctx};
  const bool done = inner_->GetNeighborsBatch(
      vids, dir, edge_label, dst_label, filter, project_cols,
      [](void* raw, size_t src_index, flex::vid_t nbr,
         std::span<const flex::PropertyValue> props) -> bool {
        auto* w = static_cast<W*>(raw);
        w->elements += 1 + props.size();
        return InEngine(
            w, [&] { return w->visitor(w->ctx, src_index, nbr, props); });
      },
      &w);
  call.AddElements(w.elements);
  return done;
}

flex::PropertyValue CountingGrin::GetVertexProperty(flex::vid_t v,
                                                    size_t col) const {
  prop_calls_.Increment();
  elements_.Increment();
  return inner_->GetVertexProperty(v, col);
}

flex::PropertyValue CountingGrin::GetEdgeProperty(flex::label_t edge_label,
                                                  flex::eid_t e,
                                                  size_t col) const {
  prop_calls_.Increment();
  elements_.Increment();
  return inner_->GetEdgeProperty(edge_label, e, col);
}

void CountingGrin::GetVerticesProperties(std::span<const flex::vid_t> vids,
                                         size_t col,
                                         flex::PropertyValue* out) const {
  Call call(this, &prop_calls_);
  call.AddElements(vids.size());
  inner_->GetVerticesProperties(vids, col, out);
}

std::span<const int64_t> CountingGrin::VertexInt64Column(flex::label_t label,
                                                         size_t col) const {
  Call call(this, &prop_calls_);
  return inner_->VertexInt64Column(label, col);
}

std::span<const double> CountingGrin::VertexDoubleColumn(flex::label_t label,
                                                         size_t col) const {
  Call call(this, &prop_calls_);
  return inner_->VertexDoubleColumn(label, col);
}

flex::Result<flex::vid_t> CountingGrin::FindVertex(flex::label_t label,
                                                   flex::oid_t oid) const {
  lookup_calls_.Increment();
  elements_.Increment();
  return inner_->FindVertex(label, oid);
}

flex::oid_t CountingGrin::GetOid(flex::vid_t v) const {
  lookup_calls_.Increment();
  elements_.Increment();
  return inner_->GetOid(v);
}

flex::partition_t CountingGrin::NumPartitions() const {
  return inner_->NumPartitions();
}
flex::partition_t CountingGrin::PartitionOf(flex::vid_t v) const {
  return inner_->PartitionOf(v);
}
flex::version_t CountingGrin::SnapshotVersion() const {
  return inner_->SnapshotVersion();
}

RegistryReading RegistryReading::Now() {
  auto& reg = flex::metrics::MetricsRegistry::Instance();
  namespace m = flex::metrics;
  RegistryReading r;
  r.plan_cache_hits = reg.GetCounter(m::kPlanCacheHitsTotal)->Value();
  r.plan_cache_misses = reg.GetCounter(m::kPlanCacheMissesTotal)->Value();
  r.query_batches = reg.GetCounter(m::kQueryBatchesTotal)->Value();
  const m::Histogram* rows = reg.GetHistogram(m::kQueryRowsPerBatch);
  r.batch_rows = rows->SumMicros();
  r.batch_observations = rows->TotalCount();
  r.fused_rows_pruned = reg.GetCounter(m::kFusedRowsPrunedTotal)->Value();
  r.wal_records = reg.GetCounter(m::kWalRecordsAppendedTotal)->Value();
  r.wal_syncs = reg.GetCounter(m::kWalSyncsTotal)->Value();
  r.msgs_sent = reg.GetCounter(m::kMsgsSentTotal)->Value();
  r.msg_bytes_flushed = reg.GetCounter(m::kMsgBytesFlushedTotal)->Value();
  return r;
}

RegistryReading RegistryReading::operator-(const RegistryReading& o) const {
  RegistryReading d;
  d.plan_cache_hits = plan_cache_hits - o.plan_cache_hits;
  d.plan_cache_misses = plan_cache_misses - o.plan_cache_misses;
  d.query_batches = query_batches - o.query_batches;
  d.batch_rows = batch_rows - o.batch_rows;
  d.batch_observations = batch_observations - o.batch_observations;
  d.fused_rows_pruned = fused_rows_pruned - o.fused_rows_pruned;
  d.wal_records = wal_records - o.wal_records;
  d.wal_syncs = wal_syncs - o.wal_syncs;
  d.msgs_sent = msgs_sent - o.msgs_sent;
  d.msg_bytes_flushed = msg_bytes_flushed - o.msg_bytes_flushed;
  return d;
}

std::vector<std::string> RowMultiset(const std::vector<flex::ir::Row>& rows) {
  std::vector<std::string> s = flex::query::RowsToStrings(rows);
  std::sort(s.begin(), s.end());
  return s;
}

void QueryProbe::Merge(const QueryProbe& o) {
  requests += o.requests;
  run_us += o.run_us;
  compile_us += o.compile_us;
  direct_us += o.direct_us;
  for (int k = 0; k < 3; ++k) {
    exec_us[k] += o.exec_us[k];
    exec_n[k] += o.exec_n[k];
  }
  grin += o.grin;
  result_rows += o.result_rows;
  latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
  if (span_dump.empty()) span_dump = o.span_dump;
}

flex::Result<std::vector<flex::ir::Row>> TracedRun(
    flex::query::QueryService& service, const CountingGrin& grin,
    const std::string& text, flex::query::EngineKind engine,
    RequestKind kind, const std::vector<flex::PropertyValue>& params,
    PlanMap* plans, QueryProbe* probe) {
  using flex::query::EngineKind;
  flex::trace::Trace trace("request-" + std::to_string(probe->requests));
  flex::query::RunOptions options;
  options.engine = engine;
  options.trace = &trace;
  const uint64_t request = trace.BeginSpan("request", "bench");
  Clock::time_point start = Clock::now();
  auto rows = service.Run(flex::query::Language::kCypher, text, options,
                          params);
  const double run_us = SecondsSince(start) * 1e6;
  trace.EndSpan(request);
  if (!rows.ok()) return rows;

  std::shared_ptr<const flex::ir::Plan>& plan = (*plans)[text];
  if (plan == nullptr) {
    auto compiled = service.Compile(flex::query::Language::kCypher, text);
    if (!compiled.ok()) return compiled.status();
    plan = std::make_shared<const flex::ir::Plan>(std::move(compiled).value());
  }
  const uint64_t direct = trace.BeginSpan("engine.direct", "bench");
  const GrinTally before = grin.tally();
  start = Clock::now();
  flex::Result<std::vector<flex::ir::Row>> again =
      flex::Status::Internal("unreached");
  if (engine == EngineKind::kGaia) {
    again = service.gaia().Run(*plan, params);
  } else {
    flex::runtime::QueryTask task;
    task.plan = plan;
    task.params = params;
    again = service.hiactor().Execute(std::move(task));
  }
  const double direct_us = SecondsSince(start) * 1e6;
  const GrinTally used = grin.tally() - before;
  trace.EndSpan(direct);
  if (!again.ok()) return again.status();
  if (again.value().size() != rows.value().size()) {
    return flex::Status::Internal("direct execution returned other rows");
  }

  for (const flex::trace::Span& span : trace.spans()) {
    if (span.name == "compile") probe->compile_us += span.duration_us();
  }
  ++probe->requests;
  probe->run_us += run_us;
  probe->direct_us += direct_us;
  probe->exec_us[static_cast<int>(kind)] += direct_us;
  ++probe->exec_n[static_cast<int>(kind)];
  probe->grin += used;
  probe->result_rows += rows.value().size();
  probe->latency_ms.push_back(run_us / 1e3);
  if (probe->span_dump.empty()) probe->span_dump = trace.ToJson();
  return rows;
}

void FillQueryLayers(const QueryProbe& p, const RegistryReading& reg,
                     Outcome* out) {
  auto& l = out->layer;
  const double n = static_cast<double>(std::max<uint64_t>(1, p.requests));
  const double grin_us = static_cast<double>(p.grin.self_ns) / 1e3;
  l["query.compile_us"] = p.compile_us / n;
  const double lookups =
      static_cast<double>(reg.plan_cache_hits + reg.plan_cache_misses);
  l["query.plan_cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(reg.plan_cache_hits) / lookups : 0.0;
  l["query.front_us"] = (p.run_us - p.direct_us) / n;
  const char* exec_names[3] = {"runtime.exec_us_short",
                               "runtime.exec_us_complex", "runtime.exec_us_bi"};
  for (int k = 0; k < 3; ++k) {
    if (p.exec_n[k] > 0) l[exec_names[k]] = p.exec_us[k] / p.exec_n[k];
  }
  l["runtime.batches_per_query"] =
      static_cast<double>(reg.query_batches) / (2 * n);
  l["runtime.rows_per_batch"] =
      reg.batch_observations > 0
          ? static_cast<double>(reg.batch_rows) / reg.batch_observations
          : 0.0;
  l["grin.scan_calls"] = p.grin.scan_calls / n;
  l["grin.adj_calls"] = p.grin.adj_calls / n;
  l["grin.prop_calls"] = p.grin.prop_calls / n;
  l["grin.lookup_calls"] = p.grin.lookup_calls / n;
  l["grin.rows_per_result"] =
      static_cast<double>(p.grin.elements) /
      static_cast<double>(std::max<uint64_t>(1, p.result_rows));
  l["grin.time_share"] = p.direct_us > 0 ? grin_us / p.direct_us : 0.0;
  l["grin.fused_rows_pruned"] =
      static_cast<double>(reg.fused_rows_pruned) / (2 * n);
  l["self.query_ms"] = (p.run_us - p.direct_us) / n / 1e3;
  l["self.runtime_ms"] = (p.direct_us - grin_us) / n / 1e3;
  l["self.grin_ms"] = grin_us / n / 1e3;
  l["trace.traced_p50_ms"] = Median(p.latency_ms);
  l["trace.latency_samples"] = static_cast<double>(p.latency_ms.size());
  if (!p.span_dump.empty()) {
    out->notes.push_back("spans (first traced request): " + p.span_dump);
  }
}

}  // namespace flexbench
