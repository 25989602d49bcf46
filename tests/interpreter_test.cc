#include <gtest/gtest.h>

#include <algorithm>

#include "common/metric_names.h"
#include "common/metrics.h"
#include "common/random.h"
#include "grape/message_manager.h"
#include "optimizer/optimizer.h"
#include "query/interpreter.h"
#include "storage/vineyard/vineyard_store.h"

namespace flex::query {
namespace {

using ir::BinOp;
using ir::Expr;
using ir::ExprPtr;
using ir::PlanBuilder;

/// Five "V" vertices with x = {3, 1, 4, 1, 5}; edges 0->1,0->2,1->3,3->0.
std::unique_ptr<storage::VineyardStore> OpStore() {
  PropertyGraphData data;
  label_t v =
      data.schema.AddVertexLabel("V", {{"x", PropertyType::kInt64}}).value();
  data.schema.AddEdgeLabel("E", v, v, {}).value();
  const int64_t xs[] = {3, 1, 4, 1, 5};
  for (oid_t i = 0; i < 5; ++i) {
    data.AddVertex(v, i, {PropertyValue(xs[i])});
  }
  data.AddEdge(0, 0, 1, {});
  data.AddEdge(0, 0, 2, {});
  data.AddEdge(0, 1, 3, {});
  data.AddEdge(0, 3, 0, {});
  return storage::VineyardStore::Build(data).value();
}

class InterpreterOpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = OpStore();
    graph_ = store_->GetGrinHandle();
  }
  std::vector<std::string> Run(ir::Plan plan) {
    Interpreter interp(graph_.get());
    auto rows = interp.Run(plan);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return RowsToStrings(rows.value());
  }
  std::unique_ptr<storage::VineyardStore> store_;
  std::unique_ptr<grin::GrinGraph> graph_;
};

TEST_F(InterpreterOpTest, OrderIsStableOnTies) {
  // Sort by x ascending: vertices 1 and 3 tie on x=1; stable sort keeps
  // scan order (vid 1 before vid 3).
  PlanBuilder b;
  b.Scan("a", 0);
  std::vector<ExprPtr> keys;
  keys.push_back(Expr::Property(0, "x"));
  b.Order(std::move(keys), {true});
  std::vector<ExprPtr> out;
  out.push_back(Expr::VertexId(0));
  b.Project(std::move(out), {"id"});
  EXPECT_EQ(Run(b.Build()),
            (std::vector<std::string>{"1", "3", "0", "2", "4"}));
}

TEST_F(InterpreterOpTest, OrderDescendingWithTopK) {
  PlanBuilder b;
  b.Scan("a", 0);
  std::vector<ExprPtr> keys;
  keys.push_back(Expr::Property(0, "x"));
  b.Order(std::move(keys), {false}, /*limit=*/2);
  std::vector<ExprPtr> out;
  out.push_back(Expr::Property(0, "x"));
  b.Project(std::move(out), {"x"});
  EXPECT_EQ(Run(b.Build()), (std::vector<std::string>{"5", "4"}));
}

TEST_F(InterpreterOpTest, LimitBeyondRowCountIsHarmless) {
  PlanBuilder b;
  b.Scan("a", 0);
  b.Limit(100);
  std::vector<ExprPtr> out;
  out.push_back(Expr::VertexId(0));
  b.Project(std::move(out), {"id"});
  EXPECT_EQ(Run(b.Build()).size(), 5u);
}

TEST_F(InterpreterOpTest, DedupWholeRowAndKeyed) {
  // x values {3,1,4,1,5}: dedup on x keeps 4 rows.
  PlanBuilder b;
  b.Scan("a", 0);
  std::vector<ExprPtr> proj;
  proj.push_back(Expr::Property(0, "x"));
  b.Project(std::move(proj), {"x"});
  b.Dedup({});  // Whole-row dedup.
  EXPECT_EQ(Run(b.Build()).size(), 4u);
}

TEST_F(InterpreterOpTest, GroupAggregateFinalizers) {
  PlanBuilder b;
  b.Scan("a", 0);
  std::vector<ir::AggSpec> aggs;
  auto make = [&](ir::AggSpec::Fn fn, const char* name) {
    ir::AggSpec spec;
    spec.fn = fn;
    spec.arg = Expr::Property(0, "x");
    spec.name = name;
    aggs.push_back(std::move(spec));
  };
  make(ir::AggSpec::Fn::kSum, "sum");
  make(ir::AggSpec::Fn::kMin, "min");
  make(ir::AggSpec::Fn::kMax, "max");
  make(ir::AggSpec::Fn::kAvg, "avg");
  b.Group({}, {}, std::move(aggs));
  auto lines = Run(b.Build());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "14 | 1 | 5 | 2.800000");
}

TEST_F(InterpreterOpTest, ExpandIntoFiltersNonEdges) {
  // (a)-[:E]->(b), then close (b)-[:E]->(a): only 3->0 has 0->... wait:
  // pairs with a reciprocal edge: 0->1? 1->0 absent. 3->0 & 0->3 absent.
  // Only cycles of length 2 survive; none exist here.
  PlanBuilder b;
  const size_t a = b.Scan("a", 0);
  const size_t e = b.ExpandEdge(a, 0, Direction::kOut, "");
  const size_t t = b.GetVertex(e, a, "b");
  b.ExpandInto(t, a, 0, Direction::kOut);
  std::vector<ExprPtr> out;
  out.push_back(Expr::VertexId(a));
  b.Project(std::move(out), {"id"});
  EXPECT_TRUE(Run(b.Build()).empty());

  // 1->3->0 plus 0->1 forms a 3-cycle: (a)->(b)->(c) with (c)->(a).
  PlanBuilder b2;
  const size_t a2 = b2.Scan("a", 0);
  const size_t e2 = b2.ExpandEdge(a2, 0, Direction::kOut, "");
  const size_t v2 = b2.GetVertex(e2, a2, "b");
  const size_t e3 = b2.ExpandEdge(v2, 0, Direction::kOut, "");
  const size_t v3 = b2.GetVertex(e3, v2, "c");
  b2.ExpandInto(v3, a2, 0, Direction::kOut);
  std::vector<ExprPtr> out2;
  out2.push_back(Expr::VertexId(a2));
  b2.Project(std::move(out2), {"id"});
  auto cycles = Run(b2.Build());
  ASSERT_EQ(cycles.size(), 3u);  // Each rotation of the 0->1->3->0 cycle.
}

TEST_F(InterpreterOpTest, RowAndBatchedPathsAgree) {
  // One plan per streaming/blocking operator shape; each must produce
  // bit-identical rows under the columnar path and the row-at-a-time path.
  auto both = [&](ir::Plan plan) {
    Interpreter interp(graph_.get());
    ExecOptions row_opts;
    row_opts.vectorized = false;
    auto row = interp.Run(plan, row_opts);
    metrics::Counter* batches = metrics::MetricsRegistry::Instance().GetCounter(
        metrics::kQueryBatchesTotal);
    [[maybe_unused]] const uint64_t batches_before = batches->Value();
    // Vectorized is the default; the plan is unestimated, so it clears the
    // cost floor and must really run batched.
    auto batched = interp.Run(plan);
#ifndef FLEX_METRICS_DISABLED
    EXPECT_GT(batches->Value(), batches_before) << "batched arm ran row-wise";
#endif
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    EXPECT_EQ(RowsToStrings(row.value()), RowsToStrings(batched.value()));
  };

  {  // SCAN + SELECT + PROJECT: selection flips bits, no copy.
    PlanBuilder b;
    b.Scan("a", 0);
    b.Select(Expr::Binary(BinOp::kGe, Expr::Property(0, "x"),
                          Expr::Const(PropertyValue(int64_t{3}))));
    std::vector<ExprPtr> out;
    out.push_back(Expr::Property(0, "x"));
    b.Project(std::move(out), {"x"});
    both(b.Build());
  }
  {  // EXPAND + GETV with a computed projection.
    PlanBuilder b;
    const size_t a = b.Scan("a", 0);
    const size_t e = b.ExpandEdge(a, 0, Direction::kBoth, "");
    const size_t t = b.GetVertex(e, a, "b");
    std::vector<ExprPtr> out;
    out.push_back(Expr::VertexId(a));
    out.push_back(Expr::Binary(BinOp::kAdd, Expr::Property(t, "x"),
                               Expr::Const(PropertyValue(int64_t{10}))));
    b.Project(std::move(out), {"id", "x10"});
    both(b.Build());
  }
  {  // Blocking ops ride the batch->row bridge.
    PlanBuilder b;
    b.Scan("a", 0);
    std::vector<ExprPtr> keys;
    keys.push_back(Expr::Property(0, "x"));
    b.Order(std::move(keys), {false});
    std::vector<ir::AggSpec> aggs;
    ir::AggSpec spec;
    spec.fn = ir::AggSpec::Fn::kSum;
    spec.arg = Expr::Property(0, "x");
    spec.name = "sum";
    aggs.push_back(std::move(spec));
    std::vector<ExprPtr> gkeys;
    gkeys.push_back(Expr::Property(0, "x"));
    b.Group(std::move(gkeys), {"x"}, std::move(aggs));
    both(b.Build());
  }
  {  // Variable-length expansion bridges per batch.
    PlanBuilder b;
    const size_t a = b.Scan("a", 0);
    const size_t p = b.ExpandVar(a, 0, Direction::kOut, 1, 2, "p");
    std::vector<ExprPtr> out;
    out.push_back(Expr::VertexId(a));
    out.push_back(Expr::VertexId(p));
    b.Project(std::move(out), {"src", "dst"});
    both(b.Build());
  }
}

TEST_F(InterpreterOpTest, BatchedPathCrossesBatchBoundaries) {
  // 3000 vertices spans three kBatchSize windows; the mid-stream SELECT
  // must refine selections across every batch without losing rows.
  PropertyGraphData data;
  label_t v =
      data.schema.AddVertexLabel("V", {{"x", PropertyType::kInt64}}).value();
  for (oid_t i = 0; i < 3000; ++i) {
    data.AddVertex(v, i, {PropertyValue(static_cast<int64_t>(i))});
  }
  auto store = storage::VineyardStore::Build(data).value();
  auto graph = store->GetGrinHandle();

  PlanBuilder b;
  b.Scan("a", 0);
  b.Select(Expr::Binary(BinOp::kGe, Expr::Property(0, "x"),
                        Expr::Const(PropertyValue(int64_t{100}))));
  std::vector<ExprPtr> out;
  out.push_back(Expr::Property(0, "x"));
  b.Project(std::move(out), {"x"});
  const ir::Plan plan = b.Build();

  Interpreter interp(graph.get());
  ExecOptions row_opts;
  row_opts.vectorized = false;
  auto row = interp.Run(plan, row_opts);
  auto batched = interp.Run(plan);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(row.value().size(), 2900u);
  EXPECT_EQ(RowsToStrings(row.value()), RowsToStrings(batched.value()));
}

TEST_F(InterpreterOpTest, SumStaysExactAboveDoublePrecision) {
  // 2^53 is the first integer where IEEE doubles lose unit precision:
  // folding the sum through a double would collapse 2^53 + 1 + 1 back to
  // 2^53. The accumulator must keep int64 sums exact.
  PropertyGraphData data;
  label_t v =
      data.schema.AddVertexLabel("V", {{"x", PropertyType::kInt64}}).value();
  const int64_t big = int64_t{1} << 53;
  const int64_t xs[] = {big, 1, 1};
  for (oid_t i = 0; i < 3; ++i) {
    data.AddVertex(v, i, {PropertyValue(xs[i])});
  }
  auto store = storage::VineyardStore::Build(data).value();
  auto graph = store->GetGrinHandle();

  for (const bool vectorized : {false, true}) {
    PlanBuilder b;
    b.Scan("a", 0);
    std::vector<ir::AggSpec> aggs;
    ir::AggSpec spec;
    spec.fn = ir::AggSpec::Fn::kSum;
    spec.arg = Expr::Property(0, "x");
    spec.name = "sum";
    aggs.push_back(std::move(spec));
    b.Group({}, {}, std::move(aggs));
    Interpreter interp(graph.get());
    ExecOptions opts;
    opts.vectorized = vectorized;
    auto rows = interp.Run(b.Build(), opts);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(RowsToStrings(rows.value()),
              (std::vector<std::string>{"9007199254740994"}));
  }
}

TEST_F(InterpreterOpTest, WindowedShardingPartitionsScanExactly) {
  // Gaia shards the leading scan by static windows, worker w owning
  // positions [w*total/W, (w+1)*total/W), in both execution modes. For a
  // plain SCAN and for a FUSED_SCAN (pushed filter + folded projection) the
  // windows must tile the scan with no overlap, and concatenating window
  // outputs in window order must be the unwindowed scan order — including
  // uneven windows (W=3) and empty ones (W=7 > 5 positions).
  auto plan_of = [](ExprPtr predicate) {
    PlanBuilder b;
    b.Scan("a", 0, std::move(predicate));
    std::vector<ExprPtr> out;
    out.push_back(Expr::VertexId(0));
    b.Project(std::move(out), {"id"});
    return b.Build();
  };
  const ir::Plan scan = plan_of(nullptr);
  const ir::Plan fused = optimizer::Optimize(
      plan_of(Expr::Binary(BinOp::kGt, Expr::Property(0, "x"),
                           Expr::Const(PropertyValue(int64_t{1})))),
      nullptr, {}, &graph_->schema());
  ASSERT_EQ(fused.ops.size(), 1u);  // The PROJECT folded into the scan.
  ASSERT_EQ(fused.ops[0].kind, ir::OpKind::kFusedScan);

  const std::pair<const ir::Plan*, std::vector<std::string>> cases[] = {
      {&scan, {"0", "1", "2", "3", "4"}},
      {&fused, {"0", "2", "4"}},  // x = {3, 1, 4, 1, 5} > 1.
  };
  Interpreter interp(graph_.get());
  const size_t total = 5;
  for (const auto& [plan, expected] : cases) {
    for (bool vectorized : {false, true}) {
      for (size_t workers : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                             size_t{7}}) {
        std::vector<std::string> merged;
        for (size_t w = 0; w < workers; ++w) {
          ExecOptions opts;
          opts.vectorized = vectorized;
          opts.scan_begin = w * total / workers;
          opts.scan_end = (w + 1) * total / workers;
          auto rows = interp.Run(*plan, opts);
          ASSERT_TRUE(rows.ok()) << rows.status().ToString();
          for (auto& line : RowsToStrings(rows.value())) {
            merged.push_back(line);
          }
        }
        EXPECT_EQ(merged, expected)
            << ir::OpKindName(plan->ops[0].kind) << " vectorized="
            << vectorized << " workers=" << workers;
      }
    }
  }
}

/// Forwards every GRIN call to `inner` and counts the vertices that
/// VisitVertices hands to its visitor.
class VisitCountingGrin final : public grin::GrinGraph {
 public:
  explicit VisitCountingGrin(const grin::GrinGraph* inner) : inner_(inner) {}

  /// Vertices handed to VisitVertices visitors (GRIN visits are const).
  mutable size_t visited = 0;

  std::string backend_name() const override { return "counting"; }
  uint32_t capabilities() const override { return inner_->capabilities(); }
  const GraphSchema& schema() const override { return inner_->schema(); }
  vid_t NumVertices() const override { return inner_->NumVertices(); }
  vid_t NumVerticesOfLabel(label_t label) const override {
    return inner_->NumVerticesOfLabel(label);
  }
  label_t VertexLabelOf(vid_t v) const override {
    return inner_->VertexLabelOf(v);
  }
  void VisitVertices(label_t label, grin::VertexPredicate pred,
                     void* pred_ctx, bool (*visitor)(void*, vid_t),
                     void* visitor_ctx) const override {
    struct Ctx {
      size_t* visited;
      bool (*visitor)(void*, vid_t);
      void* visitor_ctx;
    } ctx{&visited, visitor, visitor_ctx};
    inner_->VisitVertices(
        label, pred, pred_ctx,
        [](void* raw, vid_t v) -> bool {
          auto* c = static_cast<Ctx*>(raw);
          ++*c->visited;
          return c->visitor(c->visitor_ctx, v);
        },
        &ctx);
  }
  bool VisitAdj(vid_t v, Direction dir, label_t edge_label,
                grin::AdjVisitor visitor, void* ctx) const override {
    return inner_->VisitAdj(v, dir, edge_label, visitor, ctx);
  }
  size_t Degree(vid_t v, Direction dir, label_t edge_label) const override {
    return inner_->Degree(v, dir, edge_label);
  }
  PropertyValue GetVertexProperty(vid_t v, size_t col) const override {
    return inner_->GetVertexProperty(v, col);
  }
  PropertyValue GetEdgeProperty(label_t edge_label, eid_t e,
                                size_t col) const override {
    return inner_->GetEdgeProperty(edge_label, e, col);
  }
  Result<vid_t> FindVertex(label_t label, oid_t oid) const override {
    return inner_->FindVertex(label, oid);
  }
  oid_t GetOid(vid_t v) const override { return inner_->GetOid(v); }

 private:
  const grin::GrinGraph* inner_;
};

TEST(InterpreterScanWindowTest, ScanStopsAtItsWindow) {
  // Two labels of 6 vertices each; an unlabeled SCAN walks both (12
  // positions). A worker owning [begin, end) must stop its visit at
  // `end` — one look past the window at most, and no later label — in
  // both execution modes.
  PropertyGraphData data;
  for (const char* name : {"A", "B"}) {
    const label_t label =
        data.schema.AddVertexLabel(name, {{"x", PropertyType::kInt64}})
            .value();
    for (oid_t i = 0; i < 6; ++i) {
      data.AddVertex(label, i, {PropertyValue(static_cast<int64_t>(i))});
    }
  }
  auto store = storage::VineyardStore::Build(data).value();
  auto inner = store->GetGrinHandle();
  PlanBuilder b;
  b.Scan("a", kInvalidLabel);
  std::vector<ExprPtr> out;
  out.push_back(Expr::VertexId(0));
  b.Project(std::move(out), {"id"});
  const ir::Plan plan = b.Build();
  const size_t total = 12;
  for (const bool vectorized : {false, true}) {
    for (const size_t workers : {size_t{1}, size_t{3}, size_t{4}}) {
      size_t rows_seen = 0;
      for (size_t w = 0; w < workers; ++w) {
        VisitCountingGrin graph(inner.get());
        Interpreter interp(&graph);
        ExecOptions opts;
        opts.vectorized = vectorized;
        opts.scan_begin = w * total / workers;
        opts.scan_end = (w + 1) * total / workers;
        auto rows = interp.Run(plan, opts);
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        rows_seen += rows.value().size();
        EXPECT_EQ(rows.value().size(), opts.scan_end - opts.scan_begin);
        EXPECT_LE(graph.visited, std::min(total, opts.scan_end + 1))
            << "vectorized=" << vectorized << " workers=" << workers
            << " worker=" << w;
      }
      EXPECT_EQ(rows_seen, total);
    }
  }
}

// ---------------------------------------------------- message codecs

template <typename T>
class MsgCodecTest : public ::testing::Test {};

using CodecTypes = ::testing::Types<double, uint32_t, uint64_t>;
TYPED_TEST_SUITE(MsgCodecTest, CodecTypes);

TYPED_TEST(MsgCodecTest, RoundTripsThroughManager) {
  grape::MessageManager<TypeParam> manager(2, grape::MessageMode::kAggregated);
  std::vector<std::pair<vid_t, TypeParam>> sent;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const vid_t target = static_cast<vid_t>(rng.Uniform(1000));
    const TypeParam value = static_cast<TypeParam>(rng.Next() % 100000);
    manager.Send(0, 1, target, value);
    sent.push_back({target, value});
  }
  manager.Flush();
  std::vector<std::pair<vid_t, TypeParam>> received;
  EXPECT_TRUE(manager
                  .Receive(1,
                           [&](vid_t t, const TypeParam& v) {
                             received.push_back({t, v});
                           })
                  .ok());
  EXPECT_EQ(received, sent);
  // Fragment 0 got nothing.
  size_t other = 0;
  EXPECT_TRUE(
      manager.Receive(0, [&](vid_t, const TypeParam&) { ++other; }).ok());
  EXPECT_EQ(other, 0u);
}

TEST(MsgCodecVectorTest, AdjacencyPayloadRoundTrip) {
  grape::MessageManager<std::vector<vid_t>> manager(
      2, grape::MessageMode::kAggregated);
  const std::vector<vid_t> payloads[] = {
      {}, {5}, {1, 2, 3, 1000000}, {7, 7, 7}};
  for (const auto& p : payloads) manager.Send(1, 0, 9, p);
  manager.Flush();
  size_t i = 0;
  EXPECT_TRUE(manager
                  .Receive(0,
                           [&](vid_t target, const std::vector<vid_t>& v) {
                             EXPECT_EQ(target, 9u);
                             EXPECT_EQ(v, payloads[i++]);
                           })
                  .ok());
  EXPECT_EQ(i, 4u);
}

TEST(MessageManagerTest, ModesDeliverIdentically) {
  for (auto mode : {grape::MessageMode::kAggregated,
                    grape::MessageMode::kPerMessage}) {
    grape::MessageManager<uint32_t> manager(3, mode);
    manager.Send(0, 2, 11, 100);
    manager.Send(1, 2, 12, 200);
    manager.Send(2, 2, 13, 300);
    EXPECT_EQ(manager.Flush(), 1u);  // Only fragment 2 has traffic.
    std::vector<uint32_t> got;
    EXPECT_TRUE(
        manager.Receive(2, [&](vid_t, uint32_t v) { got.push_back(v); }).ok());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<uint32_t>{100, 200, 300}));
    // Second flush with nothing sent: channels drain.
    EXPECT_EQ(manager.Flush(), 0u);
    size_t empty = 0;
    EXPECT_TRUE(manager.Receive(2, [&](vid_t, uint32_t) { ++empty; }).ok());
    EXPECT_EQ(empty, 0u);
  }
}

}  // namespace
}  // namespace flex::query
