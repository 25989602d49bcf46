// Exp-2 parity harness: every SNB interactive and BI query must produce
// bit-identical result rows under the columnar (batched) path and the
// legacy row-at-a-time path at 1, 2, 3 and 4 workers (3 gives uneven scan
// windows), and the two modes must record the same trace span shapes —
// batching is an execution-layer change only, invisible to results and to
// observability. Each query runs
// both with pipeline fusion (FUSED_SCAN / FUSED_EXPAND pushdown) and with
// fusion disabled, and the two plans must agree row-for-row across every
// (worker, mode) combination: fusion is a plan-shape change only. Span
// shapes are compared within one plan (a fused plan legitimately records
// op.fused_* marker spans the unfused plan does not). A forced-batched arm
// runs each plan through Interpreter::RunRangeBatched end to end: the
// engines run plans below the interpreter's cost floor row-wise, so
// without it the batched forms of point-read operators (index scans
// above all) would escape the oracle.
//
// A second suite replays the fused and unfused plans, batched at 1 and 2
// workers, on GART and GraphAr next to Vineyard: pushed-down filters run
// through the same GRIN code on every backend, so results and the
// kFusedRowsPrunedTotal delta of each fused run must match across them.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metric_names.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "query/service.h"
#include "runtime/gaia.h"
#include "snb/snb.h"
#include "storage/gart/gart_store.h"
#include "storage/graphar/graphar.h"
#include "storage/vineyard/vineyard_store.h"

namespace flex::query {
namespace {

/// Canonicalizes a trace into its span *shape*: each span rendered as its
/// root-to-leaf path of names, all paths sorted. Two traces with equal
/// shapes executed the same logical steps, regardless of timing, worker
/// interleaving, or span-id assignment order.
std::vector<std::string> SpanShape(const trace::Trace& trace) {
  const std::vector<trace::Span> spans = trace.spans();
  std::map<uint64_t, const trace::Span*> by_id;
  for (const auto& span : spans) by_id[span.id] = &span;
  std::vector<std::string> paths;
  paths.reserve(spans.size());
  for (const auto& span : spans) {
    std::string path = span.name;
    for (uint64_t parent = span.parent; parent != trace::kNoParent;) {
      const trace::Span* p = by_id.at(parent);
      path = p->name + "/" + path;
      parent = p->parent;
    }
    paths.push_back(std::move(path));
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

class ExecParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    snb::SnbConfig config;
    config.num_persons = 200;
    config.seed = 17;
    stats_ = new snb::SnbStats();
    auto data = snb::GenerateSnb(config, stats_);
    store_ = storage::VineyardStore::Build(data).value().release();
    graph_ = store_->GetGrinHandle().release();
    service_ = new QueryService(graph_, 1);
  }
  static void TearDownTestSuite() {
    delete service_;
    delete graph_;
    delete store_;
    delete stats_;
  }

  /// Runs one plan through every (worker count, execution mode)
  /// combination with one shared parameter draw and asserts:
  ///   - result rows are bit-identical across all eight combinations, and
  ///   - at each worker count, row and batched mode record identical span
  ///     shapes (shapes legitimately differ *across* worker counts: each
  ///     worker adds a gaia.shard span, and sharding adds gaia.exchange).
  /// `reference` receives the rows of the first combination.
  static void RunPlanAllModes(const ir::Plan& plan,
                              const std::vector<PropertyValue>& params,
                              const std::string& name,
                              std::vector<std::string>* reference) {
    bool have_reference = false;
    for (size_t workers : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
      runtime::GaiaEngine engine(graph_, workers);
      std::vector<std::vector<std::string>> results;
      std::vector<std::vector<std::string>> shapes;
      for (runtime::ExecMode mode :
           {runtime::ExecMode::kRowAtATime, runtime::ExecMode::kBatched}) {
        trace::Trace trace(name);
        auto rows = engine.Run(plan, params, {}, nullptr, &trace,
                               trace::kNoParent, mode);
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        results.push_back(RowsToStrings(rows.value()));
        shapes.push_back(SpanShape(trace));
      }
      EXPECT_EQ(results[0], results[1])
          << "row vs batched rows diverge at " << workers << " worker(s)";
      EXPECT_EQ(shapes[0], shapes[1])
          << "row vs batched span shapes diverge at " << workers
          << " worker(s)";
      if (!have_reference) {
        *reference = results[0];
        have_reference = true;
      } else {
        EXPECT_EQ(results[0], *reference)
            << "rows diverge across worker counts";
      }
    }
  }

  /// Runs the whole plan batched on one thread, bypassing the cost floor.
  static std::vector<std::string> RunForcedBatched(
      const ir::Plan& plan, const std::vector<PropertyValue>& params) {
    Interpreter interpreter(graph_);
    ExecOptions opts;
    opts.params = params;
    auto batches =
        interpreter.RunRangeBatched(plan, 0, plan.ops.size(), {}, opts);
    EXPECT_TRUE(batches.ok()) << batches.status().ToString();
    if (!batches.ok()) return {};
    return RowsToStrings(ir::BatchesToRows(batches.value()));
  }

  /// Compiles `spec` with fusion on (the service default) and off, runs
  /// both plans through every combination, and asserts the two plans agree
  /// row-for-row: pushdown must never change results.
  static void CheckParity(const snb::QuerySpec& spec) {
    SCOPED_TRACE(spec.name);
    auto fused = service_->Compile(Language::kCypher, spec.cypher);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();
    auto parsed =
        ParseQuery(Language::kCypher, spec.cypher, graph_->schema());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    optimizer::OptimizerOptions no_fusion;
    no_fusion.fusion = false;
    const ir::Plan unfused =
        optimizer::Optimize(parsed.value(), &service_->catalog(), no_fusion,
                            &graph_->schema());
    Rng rng(20240607 + spec.name.size());
    const std::vector<PropertyValue> params = spec.params(rng, *stats_);

    std::vector<std::string> fused_rows;
    RunPlanAllModes(fused.value(), params, spec.name, &fused_rows);
    std::vector<std::string> unfused_rows;
    RunPlanAllModes(unfused, params, spec.name, &unfused_rows);
    EXPECT_EQ(fused_rows, unfused_rows) << "fusion changed result rows";
    EXPECT_EQ(RunForcedBatched(fused.value(), params), fused_rows)
        << "forced-batched fused plan diverges from row";
    EXPECT_EQ(RunForcedBatched(unfused, params), unfused_rows)
        << "forced-batched unfused plan diverges from row";
  }

  static snb::SnbStats* stats_;
  static storage::VineyardStore* store_;
  static grin::GrinGraph* graph_;
  static QueryService* service_;
};

snb::SnbStats* ExecParityTest::stats_ = nullptr;
storage::VineyardStore* ExecParityTest::store_ = nullptr;
grin::GrinGraph* ExecParityTest::graph_ = nullptr;
QueryService* ExecParityTest::service_ = nullptr;

TEST_F(ExecParityTest, InteractiveComplexQueries) {
  for (const auto& spec : snb::InteractiveComplexQueries()) CheckParity(spec);
}

TEST_F(ExecParityTest, InteractiveShortQueries) {
  for (const auto& spec : snb::InteractiveShortQueries()) CheckParity(spec);
}

TEST_F(ExecParityTest, BiQueries) {
  for (const auto& spec : snb::BiQueries()) CheckParity(spec);
}

/// One backend of the cross-backend suite: a GRIN view, the service that
/// compiles against its catalog, and whatever keeps the view alive.
struct FusionBackend {
  std::string name;
  const grin::GrinGraph* graph = nullptr;
  std::unique_ptr<QueryService> service;
  std::shared_ptr<void> owner;
};

class BackendFusionParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    snb::SnbConfig config;
    config.num_persons = 200;
    config.seed = 17;
    stats_ = new snb::SnbStats();
    const PropertyGraphData data = snb::GenerateSnb(config, stats_);
    backends_ = new std::vector<FusionBackend>();
    auto add = [](std::string name, const grin::GrinGraph* graph,
                  std::shared_ptr<void> owner) {
      backends_->push_back({std::move(name), graph,
                            std::make_unique<QueryService>(graph, 1),
                            std::move(owner)});
    };
    {
      std::shared_ptr<storage::VineyardStore> store =
          std::move(storage::VineyardStore::Build(data).value());
      std::shared_ptr<grin::GrinGraph> g = store->GetGrinHandle();
      add("vineyard", g.get(),
          std::make_shared<std::pair<decltype(store), decltype(g)>>(store, g));
    }
    {
      std::shared_ptr<storage::GartStore> store =
          std::move(storage::GartStore::Build(data).value());
      std::shared_ptr<grin::GrinGraph> g = store->GetSnapshot();
      add("gart", g.get(),
          std::make_shared<std::pair<decltype(store), decltype(g)>>(store, g));
    }
    {
      const std::string path = testing::TempDir() + "exec_parity.gar";
      ASSERT_TRUE(storage::graphar::WriteGraphAr(path, data).ok());
      std::shared_ptr<storage::graphar::GraphArReader> reader =
          std::move(storage::graphar::GraphArReader::Open(path).value());
      std::shared_ptr<grin::GrinGraph> g =
          std::move(reader->OpenDirect().value());
      add("graphar", g.get(),
          std::make_shared<std::pair<decltype(reader), decltype(g)>>(reader,
                                                                     g));
    }
  }
  static void TearDownTestSuite() {
    delete backends_;
    delete stats_;
  }

  static uint64_t PrunedTotal() {
    return metrics::MetricsRegistry::Instance()
        .GetCounter(metrics::kFusedRowsPrunedTotal)
        ->Value();
  }

  /// Runs `spec` fused and unfused, batched, at 1 and 2 workers on every
  /// backend. Per backend and worker count the two plans must agree, and
  /// rows and the fused run's pruned-counter delta must equal Vineyard's.
  static void CheckBackends(const snb::QuerySpec& spec) {
    SCOPED_TRACE(spec.name);
    Rng rng(20240607 + spec.name.size());
    const std::vector<PropertyValue> params = spec.params(rng, *stats_);
    // Per worker count: Vineyard's rows and pruned delta.
    std::map<size_t, std::pair<std::vector<std::string>, uint64_t>> reference;
    for (const FusionBackend& b : *backends_) {
      SCOPED_TRACE(b.name);
      auto fused = b.service->Compile(Language::kCypher, spec.cypher);
      ASSERT_TRUE(fused.ok()) << fused.status().ToString();
      auto parsed =
          ParseQuery(Language::kCypher, spec.cypher, b.graph->schema());
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      optimizer::OptimizerOptions no_fusion;
      no_fusion.fusion = false;
      const ir::Plan unfused =
          optimizer::Optimize(parsed.value(), &b.service->catalog(),
                              no_fusion, &b.graph->schema());
      for (const size_t workers : {size_t{1}, size_t{2}}) {
        runtime::GaiaEngine engine(b.graph, workers);
        auto run = [&](const ir::Plan& plan) {
          auto rows = engine.Run(plan, params, {}, nullptr, nullptr,
                                 trace::kNoParent,
                                 runtime::ExecMode::kBatched);
          EXPECT_TRUE(rows.ok()) << rows.status().ToString();
          return rows.ok() ? RowsToStrings(rows.value())
                           : std::vector<std::string>{};
        };
        const uint64_t before = PrunedTotal();
        const std::vector<std::string> fused_rows = run(fused.value());
        const uint64_t pruned = PrunedTotal() - before;
        EXPECT_EQ(fused_rows, run(unfused))
            << "fusion changed result rows at " << workers << " worker(s)";
        auto [it, first] =
            reference.try_emplace(workers, fused_rows, pruned);
        if (first) continue;
        EXPECT_EQ(fused_rows, it->second.first)
            << "rows differ from vineyard at " << workers << " worker(s)";
        EXPECT_EQ(pruned, it->second.second)
            << "pruned count differs from vineyard at " << workers
            << " worker(s)";
      }
    }
  }

  static snb::SnbStats* stats_;
  static std::vector<FusionBackend>* backends_;
};

snb::SnbStats* BackendFusionParityTest::stats_ = nullptr;
std::vector<FusionBackend>* BackendFusionParityTest::backends_ = nullptr;

TEST_F(BackendFusionParityTest, InteractiveComplexQueries) {
  for (const auto& spec : snb::InteractiveComplexQueries()) {
    CheckBackends(spec);
  }
}

TEST_F(BackendFusionParityTest, InteractiveShortQueries) {
  for (const auto& spec : snb::InteractiveShortQueries()) CheckBackends(spec);
}

TEST_F(BackendFusionParityTest, BiQueries) {
  for (const auto& spec : snb::BiQueries()) CheckBackends(spec);
}

}  // namespace
}  // namespace flex::query
