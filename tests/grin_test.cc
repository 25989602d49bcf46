// GRIN's filtered entry points — VisitVerticesFiltered and the filtered
// GetNeighborsBatch — have one implementation serving every backend: it
// buffers candidates in chunks and filters/projects them through
// GetVerticesProperties. Each backend that carries vertex properties
// (Vineyard, GART, GraphAr) is checked against a brute force over the
// scalar GetVertexProperty on an SNB graph whose Person label spans
// several chunks: survivors, projected values and order, `pred` calls,
// visitor stops mid-chunk, unresolvable (kNoColumn) conditions, and the
// kFusedRowsPrunedTotal delta.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metric_names.h"
#include "common/metrics.h"
#include "grin/grin.h"
#include "snb/snb.h"
#include "storage/gart/gart_store.h"
#include "storage/graphar/graphar.h"
#include "storage/vineyard/vineyard_store.h"

namespace flex {
namespace {

using grin::VertexCondition;
using grin::VertexFilter;
using Cmp = VertexCondition::Cmp;

struct Backend {
  std::string name;
  const grin::GrinGraph* graph = nullptr;
  std::shared_ptr<void> owner;  ///< Keeps store (+ view) alive.
};

/// One delivered vertex: its source index (expansions only), its vid and
/// its projected values.
struct Hit {
  size_t src = 0;
  vid_t v = 0;
  std::vector<PropertyValue> props;

  bool operator==(const Hit& other) const {
    return src == other.src && v == other.v && props == other.props;
  }
};

/// What one filtered call did, as seen from its callbacks.
struct Observed {
  std::vector<vid_t> pred_calls;  ///< Every `pred` argument, in call order.
  std::vector<Hit> hits;
  bool done = false;              ///< The entry point's return value.
  uint64_t pruned = 0;            ///< kFusedRowsPrunedTotal delta.
};

uint64_t PrunedTotal() {
  return metrics::MetricsRegistry::Instance()
      .GetCounter(metrics::kFusedRowsPrunedTotal)
      ->Value();
}

/// Independent of grin::MatchesCondition: the interpreter's comparison
/// semantics spelled out again.
bool Holds(const VertexCondition& c, const PropertyValue& value) {
  switch (c.cmp) {
    case Cmp::kEq:
      return value == c.value;
    case Cmp::kNe:
      return !(value == c.value);
    case Cmp::kLt:
      return value.Compare(c.value) < 0;
    case Cmp::kLe:
      return value.Compare(c.value) <= 0;
    case Cmp::kGt:
      return value.Compare(c.value) > 0;
    case Cmp::kGe:
      return value.Compare(c.value) >= 0;
  }
  return false;
}

/// Brute-force filter: true if `v` passes every condition, read one
/// property at a time through the scalar accessor.
bool BrutePasses(const grin::GrinGraph& g, const VertexFilter& filter,
                 vid_t v) {
  for (const VertexCondition& c : filter.conditions) {
    const PropertyValue value = c.column == VertexCondition::kNoColumn
                                    ? PropertyValue()
                                    : g.GetVertexProperty(v, c.column);
    if (!Holds(c, value)) return false;
  }
  return true;
}

std::vector<PropertyValue> BruteProps(const grin::GrinGraph& g,
                                      const std::vector<size_t>& cols,
                                      vid_t v) {
  std::vector<PropertyValue> props;
  for (const size_t col : cols) props.push_back(g.GetVertexProperty(v, col));
  return props;
}

std::vector<vid_t> LabelVertices(const grin::GrinGraph& g, label_t label) {
  std::vector<vid_t> vids;
  g.VisitVertices(
      label, nullptr, nullptr,
      [](void* raw, vid_t v) -> bool {
        static_cast<std::vector<vid_t>*>(raw)->push_back(v);
        return true;
      },
      &vids);
  return vids;
}

/// The engine predicate used by the scans: rejects every third vertex
/// so pred-rejected and filter-pruned vertices interleave.
bool KeepsVertex(vid_t v) { return v % 3 != 1; }

/// Runs VisitVerticesFiltered, stopping after `stop_after` deliveries.
Observed RunScan(const grin::GrinGraph& g, label_t label,
                 const VertexFilter& filter, const std::vector<size_t>& cols,
                 size_t stop_after = static_cast<size_t>(-1)) {
  Observed obs;
  struct Ctx {
    Observed* obs;
    size_t stop_after;
  } ctx{&obs, stop_after};
  const uint64_t before = PrunedTotal();
  obs.done = g.VisitVerticesFiltered(
      label,
      [](void* raw, vid_t v) -> bool {
        static_cast<Ctx*>(raw)->obs->pred_calls.push_back(v);
        return KeepsVertex(v);
      },
      &ctx, filter, cols,
      [](void* raw, vid_t v, std::span<const PropertyValue> props) -> bool {
        auto* c = static_cast<Ctx*>(raw);
        c->obs->hits.push_back({0, v, {props.begin(), props.end()}});
        return c->obs->hits.size() < c->stop_after;
      },
      &ctx);
  obs.pruned = PrunedTotal() - before;
  return obs;
}

/// Brute-force scan: the hits VisitVerticesFiltered must deliver, and how
/// many pred-passing vertices the filter prunes before each hit.
struct Expected {
  std::vector<Hit> hits;
  std::vector<uint64_t> pruned_before;  ///< Per hit.
  uint64_t pruned = 0;                  ///< Over the whole scan.
};

Expected BruteScan(const grin::GrinGraph& g, label_t label,
                   const VertexFilter& filter,
                   const std::vector<size_t>& cols) {
  Expected e;
  for (const vid_t v : LabelVertices(g, label)) {
    if (!KeepsVertex(v)) continue;
    if (!BrutePasses(g, filter, v)) {
      ++e.pruned;
      continue;
    }
    e.hits.push_back({0, v, BruteProps(g, cols, v)});
    e.pruned_before.push_back(e.pruned);
  }
  return e;
}

class GrinFilterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    snb::SnbConfig config;
    config.num_persons = 2600;  // Three chunks of candidates and a tail.
    config.seed = 5;
    snb::SnbStats stats;
    const PropertyGraphData data = snb::GenerateSnb(config, &stats);
    backends_ = new std::vector<Backend>();
    {
      std::shared_ptr<storage::VineyardStore> store =
          std::move(storage::VineyardStore::Build(data).value());
      std::shared_ptr<grin::GrinGraph> g = store->GetGrinHandle();
      backends_->push_back(
          {"vineyard", g.get(),
           std::make_shared<std::pair<decltype(store), decltype(g)>>(store,
                                                                     g)});
    }
    {
      std::shared_ptr<storage::GartStore> store =
          std::move(storage::GartStore::Build(data).value());
      std::shared_ptr<grin::GrinGraph> g = store->GetSnapshot();
      backends_->push_back(
          {"gart", g.get(),
           std::make_shared<std::pair<decltype(store), decltype(g)>>(store,
                                                                     g)});
    }
    {
      // A chunk size that does not divide the filter chunk, so archive
      // chunks straddle filter chunks.
      const std::string path = testing::TempDir() + "grin_test.gar";
      ASSERT_TRUE(storage::graphar::WriteGraphAr(path, data, 700).ok());
      std::shared_ptr<storage::graphar::GraphArReader> reader =
          std::move(storage::graphar::GraphArReader::Open(path).value());
      std::shared_ptr<grin::GrinGraph> g =
          std::move(reader->OpenDirect().value());
      backends_->push_back(
          {"graphar", g.get(),
           std::make_shared<std::pair<decltype(reader), decltype(g)>>(reader,
                                                                      g)});
    }
  }
  static void TearDownTestSuite() {
    delete backends_;
    backends_ = nullptr;
  }

  static const std::vector<Backend>& backends() { return *backends_; }

  /// Schema handles shared by every backend.
  static label_t Person(const grin::GrinGraph& g) {
    return g.schema().FindVertexLabel("Person").value();
  }
  static size_t Col(const grin::GrinGraph& g, const char* name) {
    return g.schema().FindVertexProperty(Person(g), name).value();
  }

  /// Born after the median-ish cut and not in city 0: prunes a sizeable
  /// share while keeping more than one chunk of survivors.
  static VertexFilter PersonFilter(const grin::GrinGraph& g) {
    VertexFilter filter;
    filter.conditions.push_back(
        {Col(g, "city"), Cmp::kNe, PropertyValue(int64_t{0})});
    filter.conditions.push_back({Col(g, "birthday"), Cmp::kGe,
                                 g.GetVertexProperty(
                                     LabelVertices(g, Person(g))[7],
                                     Col(g, "birthday"))});
    return filter;
  }

  static std::vector<Backend>* backends_;
};

std::vector<Backend>* GrinFilterTest::backends_ = nullptr;

TEST_F(GrinFilterTest, ScanMatchesBruteForce) {
  for (const Backend& b : backends()) {
    SCOPED_TRACE(b.name);
    const grin::GrinGraph& g = *b.graph;
    const label_t person = Person(g);
    const std::vector<vid_t> all = LabelVertices(g, person);
    ASSERT_GT(all.size(), 2048u);
    const VertexFilter filter = PersonFilter(g);
    const std::vector<size_t> cols = {Col(g, "lastName"), Col(g, "city"),
                                      Col(g, "birthday")};
    const Expected expected = BruteScan(g, person, filter, cols);
    ASSERT_GT(expected.hits.size(), 1024u);
    ASSERT_GT(expected.pruned, 0u);

    const Observed obs = RunScan(g, person, filter, cols);
    EXPECT_TRUE(obs.done);
    EXPECT_EQ(obs.pred_calls, all) << "pred must see every vertex once";
    EXPECT_EQ(obs.hits, expected.hits);
#ifndef FLEX_METRICS_DISABLED
    EXPECT_EQ(obs.pruned, expected.pruned);
#endif
  }
}

TEST_F(GrinFilterTest, ScanWithoutFilterOrProjection) {
  for (const Backend& b : backends()) {
    SCOPED_TRACE(b.name);
    const grin::GrinGraph& g = *b.graph;
    const label_t person = Person(g);
    const std::vector<size_t> cols = {Col(g, "firstName")};
    // Neither filter nor projection: every pred-passing vertex, in order.
    const Expected bare = BruteScan(g, person, {}, {});
    const Observed obs = RunScan(g, person, {}, {});
    EXPECT_TRUE(obs.done);
    EXPECT_EQ(obs.pred_calls, LabelVertices(g, person));
    EXPECT_EQ(obs.hits, bare.hits);
    EXPECT_EQ(obs.pruned, 0u);
    // Projection only.
    const Observed projected = RunScan(g, person, {}, cols);
    EXPECT_EQ(projected.hits, BruteScan(g, person, {}, cols).hits);
    EXPECT_EQ(projected.pruned, 0u);
  }
}

TEST_F(GrinFilterTest, VisitorStopsMidChunk) {
  for (const Backend& b : backends()) {
    SCOPED_TRACE(b.name);
    const grin::GrinGraph& g = *b.graph;
    const label_t person = Person(g);
    const std::vector<vid_t> all = LabelVertices(g, person);
    const VertexFilter filter = PersonFilter(g);
    const std::vector<size_t> cols = {Col(g, "city")};
    const Expected expected = BruteScan(g, person, filter, cols);
    // In the first, second and last chunk of candidates.
    for (const size_t stop : {size_t{1}, size_t{700}, size_t{1300}}) {
      SCOPED_TRACE(stop);
      ASSERT_LT(stop, expected.hits.size());
      const Observed obs = RunScan(g, person, filter, cols, stop);
      EXPECT_FALSE(obs.done);
      EXPECT_EQ(obs.hits, std::vector<Hit>(expected.hits.begin(),
                                           expected.hits.begin() + stop));
      // pred runs once per vertex, in visit order, through at least the
      // stopping vertex; it may run ahead by at most one chunk (1024) of
      // pred-passing candidates.
      std::vector<size_t> candidate_pos;  // Positions in `all`.
      for (size_t p = 0; p < all.size(); ++p) {
        if (KeepsVertex(all[p])) candidate_pos.push_back(p);
      }
      const vid_t last = expected.hits[stop - 1].v;
      const size_t last_pos =
          std::find(all.begin(), all.end(), last) - all.begin();
      const size_t last_candidate =
          std::find(candidate_pos.begin(), candidate_pos.end(), last_pos) -
          candidate_pos.begin();
      const size_t bound = last_candidate + 1024 < candidate_pos.size()
                               ? candidate_pos[last_candidate + 1024]
                               : all.size();
      ASSERT_GE(obs.pred_calls.size(), last_pos + 1);
      EXPECT_LE(obs.pred_calls.size(), bound);
      EXPECT_EQ(obs.pred_calls,
                std::vector<vid_t>(all.begin(),
                                   all.begin() + obs.pred_calls.size()));
#ifndef FLEX_METRICS_DISABLED
      // Pruned vertices after the stop are not counted.
      EXPECT_EQ(obs.pruned, expected.pruned_before[stop - 1]);
#endif
    }
  }
}

TEST_F(GrinFilterTest, UnresolvableColumnReadsAsEmpty) {
  for (const Backend& b : backends()) {
    SCOPED_TRACE(b.name);
    const grin::GrinGraph& g = *b.graph;
    const label_t person = Person(g);
    const std::vector<size_t> cols = {Col(g, "lastName")};
    const Expected everyone = BruteScan(g, person, {}, cols);
    // missing = <empty> holds for every vertex.
    VertexFilter always;
    always.conditions.push_back(
        {VertexCondition::kNoColumn, Cmp::kEq, PropertyValue()});
    const Observed kept = RunScan(g, person, always, cols);
    EXPECT_EQ(kept.hits, everyone.hits);
    EXPECT_EQ(kept.pruned, 0u);
    // missing = 5 holds for none, after a real condition narrowed the set.
    VertexFilter never = PersonFilter(g);
    never.conditions.push_back(
        {VertexCondition::kNoColumn, Cmp::kEq, PropertyValue(int64_t{5})});
    const Observed dropped = RunScan(g, person, never, cols);
    EXPECT_TRUE(dropped.done);
    EXPECT_TRUE(dropped.hits.empty());
#ifndef FLEX_METRICS_DISABLED
    EXPECT_EQ(dropped.pruned, everyone.hits.size());
#endif
  }
}

TEST_F(GrinFilterTest, ExpandMatchesBruteForce) {
  for (const Backend& b : backends()) {
    SCOPED_TRACE(b.name);
    const grin::GrinGraph& g = *b.graph;
    const label_t person = Person(g);
    const label_t knows = g.schema().FindEdgeLabel("KNOWS").value();
    // Every 8th person: enough neighbors for several chunks while the
    // GraphAr brute force (one chunk decode per random read) stays cheap.
    std::vector<vid_t> sources;
    const std::vector<vid_t> all = LabelVertices(g, person);
    for (size_t i = 0; i < all.size(); i += 8) sources.push_back(all[i]);
    const VertexFilter filter = PersonFilter(g);
    const std::vector<size_t> cols = {Col(g, "firstName"), Col(g, "city")};

    for (const Direction dir :
         {Direction::kOut, Direction::kIn, Direction::kBoth}) {
      // Brute force: per source, out-neighbors then in-neighbors.
      Expected expected;
      size_t candidates = 0;
      for (size_t i = 0; i < sources.size(); ++i) {
        for (const Direction d : {Direction::kOut, Direction::kIn}) {
          if (dir != Direction::kBoth && d != dir) continue;
          grin::ForEachAdj(g, sources[i], d, knows,
                           [&](vid_t nbr, double, eid_t) {
                             ++candidates;
                             if (!BrutePasses(g, filter, nbr)) {
                               ++expected.pruned;
                               return;
                             }
                             expected.hits.push_back(
                                 {i, nbr, BruteProps(g, cols, nbr)});
                             expected.pruned_before.push_back(
                                 expected.pruned);
                           });
        }
      }
      ASSERT_GT(candidates, 1024u);
      ASSERT_GT(expected.hits.size(), 0u);

      for (const size_t stop :
           {static_cast<size_t>(-1), expected.hits.size() / 2}) {
        Observed obs;
        struct Ctx {
          Observed* obs;
          size_t stop_after;
        } ctx{&obs, stop};
        const uint64_t before = PrunedTotal();
        obs.done = g.GetNeighborsBatch(
            sources, dir, knows, person, filter, cols,
            [](void* raw, size_t src, vid_t nbr,
               std::span<const PropertyValue> props) -> bool {
              auto* c = static_cast<Ctx*>(raw);
              c->obs->hits.push_back({src, nbr, {props.begin(), props.end()}});
              return c->obs->hits.size() < c->stop_after;
            },
            &ctx);
        obs.pruned = PrunedTotal() - before;
        if (stop == static_cast<size_t>(-1)) {
          EXPECT_TRUE(obs.done);
          EXPECT_EQ(obs.hits, expected.hits);
#ifndef FLEX_METRICS_DISABLED
          EXPECT_EQ(obs.pruned, expected.pruned);
#endif
        } else {
          EXPECT_FALSE(obs.done);
          EXPECT_EQ(obs.hits, std::vector<Hit>(expected.hits.begin(),
                                               expected.hits.begin() + stop));
#ifndef FLEX_METRICS_DISABLED
          EXPECT_EQ(obs.pruned, expected.pruned_before[stop - 1]);
#endif
        }
      }
    }
  }
}

TEST_F(GrinFilterTest, ExpandChecksDestinationLabel) {
  // Persons' HAS_MEMBER in-neighbors are forums: a Person destination
  // drops them all before the filter (not pruned), and kInvalidLabel with
  // no filter delivers every neighbor unbuffered.
  for (const Backend& b : backends()) {
    SCOPED_TRACE(b.name);
    const grin::GrinGraph& g = *b.graph;
    const label_t person = Person(g);
    const label_t has_member = g.schema().FindEdgeLabel("HAS_MEMBER").value();
    const std::vector<vid_t> all = LabelVertices(g, person);
    std::vector<std::pair<size_t, vid_t>> expected;
    for (size_t i = 0; i < all.size(); ++i) {
      grin::ForEachAdj(g, all[i], Direction::kIn, has_member,
                       [&](vid_t nbr, double, eid_t) {
                         expected.emplace_back(i, nbr);
                       });
    }
    ASSERT_FALSE(expected.empty());
    auto run = [&](label_t dst_label, const VertexFilter& filter) {
      std::vector<std::pair<size_t, vid_t>> got;
      const uint64_t before = PrunedTotal();
      EXPECT_TRUE(g.GetNeighborsBatch(
          all, Direction::kIn, has_member, dst_label, filter, {},
          [](void* raw, size_t src, vid_t nbr,
             std::span<const PropertyValue> props) -> bool {
            EXPECT_TRUE(props.empty());
            static_cast<std::vector<std::pair<size_t, vid_t>>*>(raw)
                ->emplace_back(src, nbr);
            return true;
          },
          &got));
      EXPECT_EQ(PrunedTotal() - before, 0u);
      return got;
    };
    EXPECT_EQ(run(kInvalidLabel, {}), expected);
    EXPECT_TRUE(run(person, PersonFilter(g)).empty());
  }
}

}  // namespace
}  // namespace flex
