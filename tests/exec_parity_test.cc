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
// op.fused_* marker spans the unfused plan does not).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"
#include "query/service.h"
#include "runtime/gaia.h"
#include "snb/snb.h"
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

}  // namespace
}  // namespace flex::query
