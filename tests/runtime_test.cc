#include <gtest/gtest.h>

#include <future>

#include "common/metric_names.h"
#include "common/metrics.h"
#include "common/random.h"
#include "grape/compat.h"
#include "lang/cypher.h"
#include "query/service.h"
#include "runtime/gaia.h"
#include "runtime/hiactor.h"
#include "snb/snb.h"
#include "storage/simple.h"
#include "storage/vineyard/vineyard_store.h"

namespace flex::runtime {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EdgeList list;
    list.num_vertices = 200;
    Rng rng(8);
    for (int e = 0; e < 1500; ++e) {
      list.edges.push_back({static_cast<vid_t>(rng.Uniform(200)),
                            static_cast<vid_t>(rng.Uniform(200)), 1.0});
    }
    store_ = storage::VineyardStore::Build(
                 storage::MakeSimpleGraphData(list, false))
                 .value();
    graph_ = store_->GetGrinHandle();
  }

  ir::Plan Compile(const std::string& cypher) {
    auto plan = lang::ParseCypher(cypher, graph_->schema());
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return optimizer::Optimize(plan.value(), nullptr);
  }

  std::unique_ptr<storage::VineyardStore> store_;
  std::unique_ptr<grin::GrinGraph> graph_;
};

// ------------------------------------------------------------------ Gaia

TEST_F(RuntimeTest, GaiaShardCountsDoNotChangeResults) {
  // Rows and their order must not depend on the worker count or the mode.
  // The plans without ORDER BY emit in exchange order (a streaming-only
  // plan, and a GROUP whose groups appear in first-seen order), so they
  // check that the exchange reassembles global scan order.
  const std::string queries[] = {
      "MATCH (a:V)-[:E]->(b:V)-[:E]->(c:V) WHERE a.id < 20 "
      "RETURN a.id, count(c) AS n ORDER BY a.id",
      "MATCH (a:V)-[:E]->(b:V) WHERE a.id < 150 RETURN a.id, b.id",
      "MATCH (a:V)-[:E]->(b:V) RETURN b.id, count(a) AS n",
  };
  for (const std::string& cypher : queries) {
    const ir::Plan plan = Compile(cypher);
    for (ExecMode mode : {ExecMode::kBatched, ExecMode::kRowAtATime}) {
      std::vector<std::string> reference;
      for (size_t workers : {1u, 2u, 3u, 7u}) {
        GaiaEngine gaia(graph_.get(), workers);
        auto rows = gaia.Run(plan, {}, {}, nullptr, nullptr,
                             trace::kNoParent, mode);
        ASSERT_TRUE(rows.ok()) << workers;
        auto lines = query::RowsToStrings(rows.value());
        if (reference.empty()) {
          reference = lines;
          EXPECT_FALSE(reference.empty());
        } else {
          EXPECT_EQ(lines, reference)
              << cypher << ": " << workers << " workers, "
              << (mode == ExecMode::kBatched ? "batched" : "row");
        }
      }
    }
  }
}

TEST_F(RuntimeTest, GaiaHandlesEmptyResults) {
  GaiaEngine gaia(graph_.get(), 3);
  auto rows = gaia.Run(Compile("MATCH (a:V) WHERE a.id > 100000 RETURN a"));
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows.value().empty());
}

TEST_F(RuntimeTest, GaiaFullyBlockingPlanFallsBackToSequential) {
  // A plan whose first blocking op is immediately after the scan still
  // produces correct global aggregates.
  GaiaEngine gaia(graph_.get(), 4);
  auto rows = gaia.Run(Compile("MATCH (a:V) RETURN count(a)"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(query::RowsToStrings(rows.value())[0], "200");
}

// --------------------------------------------------------------- HiActor

TEST_F(RuntimeTest, HiActorManyConcurrentMixedProcedures) {
  HiActorEngine engine(graph_.get(), 4);
  engine.RegisterProcedure("deg", Compile("MATCH (a:V {id: $0})-[:E]->(b:V) "
                                          "RETURN count(b)"));
  engine.RegisterProcedure("two_hop",
                           Compile("MATCH (a:V {id: $0})-[:E]->(b:V)"
                                   "-[:E]->(c:V) RETURN count(c)"));
  std::vector<std::future<Result<std::vector<ir::Row>>>> futures;
  for (int i = 0; i < 500; ++i) {
    auto fut = engine.SubmitProcedure(
        i % 2 == 0 ? "deg" : "two_hop",
        {PropertyValue(static_cast<int64_t>(i % 200))});
    ASSERT_TRUE(fut.ok());
    futures.push_back(std::move(fut).value());
  }
  for (auto& f : futures) {
    auto rows = f.get();
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows.value().size(), 1u);
  }
  EXPECT_EQ(engine.completed(), 500u);
}

TEST_F(RuntimeTest, HiActorPerTaskSnapshotOverride) {
  // A task pinned to a different graph must run against that graph.
  EdgeList tiny;
  tiny.num_vertices = 2;
  tiny.edges = {{0, 1, 1.0}};
  auto other_store = storage::VineyardStore::Build(
                         storage::MakeSimpleGraphData(tiny, false))
                         .value();
  std::shared_ptr<const grin::GrinGraph> other_graph =
      other_store->GetGrinHandle();

  HiActorEngine engine(graph_.get(), 2);
  QueryTask task;
  task.plan = std::make_shared<const ir::Plan>(
      Compile("MATCH (a:V) RETURN count(a)"));
  task.graph = other_graph;
  auto rows = engine.Execute(std::move(task));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(query::RowsToStrings(rows.value())[0], "2");
}

TEST_F(RuntimeTest, HiActorDrainsQueueOnShutdown) {
  std::vector<std::future<Result<std::vector<ir::Row>>>> futures;
  {
    HiActorEngine engine(graph_.get(), 1);
    auto plan = std::make_shared<const ir::Plan>(
        Compile("MATCH (a:V)-[:E]->(b:V) RETURN count(b)"));
    for (int i = 0; i < 50; ++i) {
      QueryTask task;
      task.plan = plan;
      futures.push_back(engine.Submit(std::move(task)));
    }
    // Engine destructor runs here with tasks possibly still queued.
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());  // No broken promises.
}

// ------------------------------------------------- Row-or-batched choice

#ifndef FLEX_METRICS_DISABLED
uint64_t BatchesTotal() {
  return metrics::MetricsRegistry::Instance()
      .GetCounter(metrics::kQueryBatchesTotal)
      ->Value();
}

TEST(EngineStrategyTest, BothEnginesRunSubFloorPlansRowWise) {
  // The row-or-batched decision belongs to the interpreter, so both engines
  // make it alike: an id-pinned short read (S1, one person by id) is
  // estimated below the batching floor and runs tuple-at-a-time, emitting
  // no columnar batch on HiActor or on Gaia, while a complex read (C2)
  // estimated above it runs batched on both.
  snb::SnbConfig config;
  config.num_persons = 200;
  config.seed = 17;
  snb::SnbStats stats;
  const PropertyGraphData data = snb::GenerateSnb(config, &stats);
  auto store = storage::VineyardStore::Build(data).value();
  auto graph = store->GetGrinHandle();
  query::QueryService service(graph.get(), 2);

  auto spec_named = [](const std::vector<snb::QuerySpec>& specs,
                       const std::string& name) {
    for (const auto& spec : specs) {
      if (spec.name == name) return spec;
    }
    ADD_FAILURE() << "no SNB query " << name;
    return snb::QuerySpec{};
  };
  const struct {
    snb::QuerySpec spec;
    bool batched;
  } cases[] = {
      {spec_named(snb::InteractiveShortQueries(), "S1"), false},
      {spec_named(snb::InteractiveComplexQueries(), "C2"), true},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.spec.name);
    auto compiled = service.Compile(query::Language::kCypher, c.spec.cypher);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const auto plan =
        std::make_shared<const ir::Plan>(std::move(compiled).value());
    ASSERT_FALSE(plan->ops.empty());
    if (!c.batched) {
      EXPECT_NE(plan->ops[0].id_lookup, nullptr);
    }
    Rng rng(20240607);
    const std::vector<PropertyValue> params = c.spec.params(rng, stats);

    uint64_t before = BatchesTotal();
    QueryTask task;
    task.plan = plan;
    task.params = params;
    auto hiactor_rows = service.hiactor().Execute(std::move(task));
    ASSERT_TRUE(hiactor_rows.ok()) << hiactor_rows.status().ToString();
    const uint64_t hiactor_batches = BatchesTotal() - before;

    before = BatchesTotal();
    auto gaia_rows = service.gaia().Run(*plan, params);
    ASSERT_TRUE(gaia_rows.ok()) << gaia_rows.status().ToString();
    const uint64_t gaia_batches = BatchesTotal() - before;

    EXPECT_EQ(query::RowsToStrings(hiactor_rows.value()),
              query::RowsToStrings(gaia_rows.value()));
    if (c.batched) {
      EXPECT_GT(hiactor_batches, 0u) << "HiActor ran an above-floor plan "
                                        "row-wise";
      EXPECT_GT(gaia_batches, 0u) << "Gaia ran an above-floor plan row-wise";
    } else {
      EXPECT_EQ(hiactor_batches, 0u) << "HiActor ran a sub-floor plan batched";
      EXPECT_EQ(gaia_batches, 0u) << "Gaia ran a sub-floor plan batched";
    }
  }
}
#endif  // FLEX_METRICS_DISABLED

// ---------------------------------------------------------- Compatibility

TEST(CompatTest, NetworkXFacesAgreeWithRunners) {
  EdgeList g;
  g.num_vertices = 6;
  g.edges = {{0, 1, 1}, {1, 2, 1}, {2, 0, 1}, {3, 4, 1}};
  auto pr = grape::networkx::pagerank(g, 0.85, 10);
  EXPECT_EQ(pr.size(), 6u);
  double total = 0.0;
  for (const auto& [v, rank] : pr) total += rank;
  EXPECT_NEAR(total, 1.0, 1e-6);

  auto depths = grape::networkx::single_source_shortest_path_length(g, 0);
  EXPECT_EQ(depths.at(2), 2u);
  EXPECT_EQ(depths.count(5), 0u);  // Unreachable omitted.

  auto components = grape::networkx::connected_components(g);
  EXPECT_EQ(components.size(), 3u);  // {0,1,2}, {3,4}, {5}.
}

TEST(CompatTest, GraphXPregelRunsGiraphStyleProgram) {
  // Max-label propagation written against the Giraph-compatible face.
  class MaxLabel : public grape::giraph::BasicComputation<uint32_t, uint32_t> {
   public:
    uint32_t Init(vid_t v, const grape::Fragment&) override { return v; }
    void Compute(grape::giraph::Vertex<uint32_t, uint32_t>& vertex,
                 std::span<const uint32_t> messages) override {
      uint32_t best = vertex.value();
      for (uint32_t m : messages) best = std::max(best, m);
      if (best > vertex.value() || vertex.superstep() == 0) {
        vertex.value() = best;
        vertex.SendToNeighbors(best);
      }
      vertex.VoteToHalt();
    }
  };
  EdgeList ring;
  ring.num_vertices = 8;
  for (vid_t v = 0; v < 8; ++v) ring.edges.push_back({v, (v + 1) % 8, 1.0});
  auto values = grape::graphx::Pregel<uint32_t, uint32_t>(
      ring, [] { return std::make_unique<MaxLabel>(); }, 50, 2);
  for (vid_t v = 0; v < 8; ++v) EXPECT_EQ(values[v], 7u);
}

}  // namespace
}  // namespace flex::runtime
