#ifndef FLEXBENCH_PROBES_H_
#define FLEXBENCH_PROBES_H_

// Layer probes for traced runs. Nothing here changes what the stack
// computes: a forwarding GRIN graph that counts and times every call into
// storage, a forwarding PIE app that times every PEval/IncEval, and
// before/after reads of the stack's own metrics registry.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/metrics.h"
#include "grape/pie.h"
#include "grin/grin.h"
#include "query/service.h"

namespace flexbench {

/// Call counts and self time of the GRIN layer, as seen through a
/// CountingGrin. Copyable snapshot; subtract two to get a window.
struct GrinTally {
  uint64_t scan_calls = 0;
  uint64_t adj_calls = 0;
  uint64_t prop_calls = 0;
  uint64_t lookup_calls = 0;
  /// Vertices, neighbors, property values and ids handed back.
  uint64_t elements = 0;
  /// Time spent inside GRIN calls, excluding time spent in the engine's
  /// callbacks invoked from inside a scan or adjacency visit.
  uint64_t self_ns = 0;

  GrinTally& operator+=(const GrinTally& o) {
    scan_calls += o.scan_calls;
    adj_calls += o.adj_calls;
    prop_calls += o.prop_calls;
    lookup_calls += o.lookup_calls;
    elements += o.elements;
    self_ns += o.self_ns;
    return *this;
  }
  GrinTally operator-(const GrinTally& o) const {
    return {scan_calls - o.scan_calls, adj_calls - o.adj_calls,
            prop_calls - o.prop_calls, lookup_calls - o.lookup_calls,
            elements - o.elements,     self_ns - o.self_ns};
  }
};

/// Forwarding GrinGraph: every virtual call goes to `inner` unchanged
/// (capabilities included, so engines take the same native paths), while
/// calls and returned elements are counted. Bulk calls (scans, adjacency
/// visits, batched and columnar property reads) are also timed; scalar
/// point accessors (one property, one id, one label, one degree) are only
/// counted, since a clock read costs more than the call itself, so their
/// time lands in the runtime layer. Thread-safe; the wrapped graph must
/// outlive the proxy.
class CountingGrin : public flex::grin::GrinGraph {
 public:
  explicit CountingGrin(const flex::grin::GrinGraph* inner) : inner_(inner) {}

  GrinTally tally() const;

  /// Self-time bookkeeping for one GRIN call; public for the callback
  /// trampolines in probes.cc.
  class Call {
   public:
    Call(const CountingGrin* grin, flex::metrics::Counter* counter);
    ~Call();
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;
    /// Brackets an engine callback: its time is not GRIN time.
    void Pause();
    void Resume();
    void AddElements(uint64_t n) const;

   private:
    const CountingGrin* grin_;
    Clock::time_point start_;
    uint64_t self_ns_ = 0;
  };

  std::string backend_name() const override;
  uint32_t capabilities() const override;
  const flex::GraphSchema& schema() const override;
  flex::vid_t NumVertices() const override;
  flex::vid_t NumVerticesOfLabel(flex::label_t label) const override;
  flex::label_t VertexLabelOf(flex::vid_t v) const override;
  std::pair<flex::vid_t, flex::vid_t> VertexRange(
      flex::label_t label) const override;
  void VisitVertices(flex::label_t label, flex::grin::VertexPredicate pred,
                     void* pred_ctx, bool (*visitor)(void*, flex::vid_t),
                     void* visitor_ctx) const override;
  bool VisitVerticesFiltered(flex::label_t label,
                             flex::grin::VertexPredicate pred, void* pred_ctx,
                             const flex::grin::VertexFilter& filter,
                             std::span<const size_t> project_cols,
                             flex::grin::FilteredVertexVisitor visitor,
                             void* visitor_ctx) const override;
  bool VisitAdj(flex::vid_t v, flex::Direction dir, flex::label_t edge_label,
                flex::grin::AdjVisitor visitor, void* ctx) const override;
  std::span<const flex::eid_t> AdjacencyOffsets(
      flex::label_t edge_label, flex::Direction dir) const override;
  std::span<const flex::vid_t> AdjacencyNeighbors(
      flex::label_t edge_label, flex::Direction dir) const override;
  size_t Degree(flex::vid_t v, flex::Direction dir,
                flex::label_t edge_label) const override;
  bool GetNeighborsBatch(std::span<const flex::vid_t> vids,
                         flex::Direction dir, flex::label_t edge_label,
                         flex::grin::BatchAdjVisitor visitor,
                         void* ctx) const override;
  bool GetNeighborsBatch(std::span<const flex::vid_t> vids,
                         flex::Direction dir, flex::label_t edge_label,
                         flex::label_t dst_label,
                         const flex::grin::VertexFilter& filter,
                         std::span<const size_t> project_cols,
                         flex::grin::FilteredNeighborVisitor visitor,
                         void* ctx) const override;
  flex::PropertyValue GetVertexProperty(flex::vid_t v,
                                        size_t col) const override;
  flex::PropertyValue GetEdgeProperty(flex::label_t edge_label, flex::eid_t e,
                                      size_t col) const override;
  void GetVerticesProperties(std::span<const flex::vid_t> vids, size_t col,
                             flex::PropertyValue* out) const override;
  std::span<const int64_t> VertexInt64Column(flex::label_t label,
                                             size_t col) const override;
  std::span<const double> VertexDoubleColumn(flex::label_t label,
                                             size_t col) const override;
  flex::Result<flex::vid_t> FindVertex(flex::label_t label,
                                       flex::oid_t oid) const override;
  flex::oid_t GetOid(flex::vid_t v) const override;
  flex::partition_t NumPartitions() const override;
  flex::partition_t PartitionOf(flex::vid_t v) const override;
  flex::version_t SnapshotVersion() const override;

 private:
  const flex::grin::GrinGraph* inner_;
  // Sharded like the stack's own counters: engine workers call GRIN
  // concurrently and a single shared cache line would dominate the probe.
  mutable flex::metrics::Counter scan_calls_;
  mutable flex::metrics::Counter adj_calls_;
  mutable flex::metrics::Counter prop_calls_;
  mutable flex::metrics::Counter lookup_calls_;
  mutable flex::metrics::Counter meta_calls_;
  mutable flex::metrics::Counter elements_;
  mutable flex::metrics::Counter self_ns_;
};

/// Forwarding PIE app: times every PEval/IncEval of the wrapped app and
/// files it under (round, fragment). One instance per fragment.
template <typename MSG>
class TimedPieApp : public flex::grape::PieApp<MSG> {
 public:
  explicit TimedPieApp(std::unique_ptr<flex::grape::PieApp<MSG>> inner)
      : inner_(std::move(inner)) {}

  void PEval(const flex::grape::Fragment& frag,
             flex::grape::PieContext<MSG>& ctx) override {
    const Clock::time_point start = Clock::now();
    inner_->PEval(frag, ctx);
    Record(ctx.round(), start);
  }
  void IncEval(const flex::grape::Fragment& frag,
               flex::grape::PieContext<MSG>& ctx) override {
    const Clock::time_point start = Clock::now();
    inner_->IncEval(frag, ctx);
    Record(ctx.round(), start);
  }

  /// Compute milliseconds per round (index = round).
  const std::vector<double>& round_ms() const { return round_ms_; }

 private:
  void Record(int round, Clock::time_point start) {
    if (round_ms_.size() <= static_cast<size_t>(round)) {
      round_ms_.resize(round + 1, 0.0);
    }
    round_ms_[round] += SecondsSince(start) * 1e3;
  }

  std::unique_ptr<flex::grape::PieApp<MSG>> inner_;
  std::vector<double> round_ms_;
};

/// Values of the stack's metrics registry at one instant.
struct RegistryReading {
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t query_batches = 0;
  uint64_t batch_rows = 0;       ///< Sum of the rows-per-batch histogram.
  uint64_t batch_observations = 0;
  uint64_t fused_rows_pruned = 0;
  uint64_t wal_records = 0;
  uint64_t wal_syncs = 0;
  uint64_t msgs_sent = 0;
  uint64_t msg_bytes_flushed = 0;

  static RegistryReading Now();
  RegistryReading operator-(const RegistryReading& o) const;
};

/// A result's rows as sorted strings: the order-insensitive form the
/// oracles compare.
std::vector<std::string> RowMultiset(const std::vector<flex::ir::Row>& rows);

/// Which per-engine execution figure a request feeds.
enum class RequestKind { kShort, kComplex, kBi };

/// Query-path figures of one client's traced requests (sums; see
/// FillQueryLayers for the per-request means).
struct QueryProbe {
  uint64_t requests = 0;
  double run_us = 0;      ///< QueryService::Run wall.
  double compile_us = 0;  ///< The stack's own "compile" span.
  double direct_us = 0;   ///< The same plan run directly on its engine.
  double exec_us[3] = {0, 0, 0};
  uint64_t exec_n[3] = {0, 0, 0};
  GrinTally grin;          ///< GRIN calls of the direct executions.
  uint64_t result_rows = 0;
  std::vector<double> latency_ms;  ///< Run wall per traced request.
  std::string span_dump;           ///< Spans of the first traced request.

  void Merge(const QueryProbe& other);
};

/// Compiled plans of one session, keyed by query text.
using PlanMap = std::map<std::string, std::shared_ptr<const flex::ir::Plan>>;

/// One traced request: QueryService::Run under a trace (the bench's
/// "request" span plus the stack's own query/compile/execute spans), then
/// the same compiled plan and parameters run directly on the engine, with
/// `grin` (the graph the service reads) tallied around that direct run.
/// query.front_us is the difference of the two walls.
flex::Result<std::vector<flex::ir::Row>> TracedRun(
    flex::query::QueryService& service, const CountingGrin& grin,
    const std::string& text, flex::query::EngineKind engine,
    RequestKind kind, const std::vector<flex::PropertyValue>& params,
    PlanMap* plans, QueryProbe* probe);

/// Per-request means of the query, runtime and GRIN layers. `registry` is
/// the registry delta over the traced phase, in which every request ran
/// twice (Run plus the direct execution).
void FillQueryLayers(const QueryProbe& probe, const RegistryReading& registry,
                     Outcome* out);

}  // namespace flexbench

#endif  // FLEXBENCH_PROBES_H_
