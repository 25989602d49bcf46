// Workload `analytics`: GRAPE PIE jobs on an RMAT graph split into two
// edge-cut fragments. One job = PageRank (10 iterations), then WCC, then
// BFS from a fixed source, each through RunPieChecked with the grape/apps
// classes. Query and storage layers are bypassed.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "bench.h"
#include "common/trace.h"
#include "datagen/generators.h"
#include "grape/apps/pagerank.h"
#include "grape/apps/traversal.h"
#include "grape/fragment.h"
#include "probes.h"

namespace flexbench {
namespace {

using flex::EdgeCutPartitioner;
using flex::EdgeList;
using flex::vid_t;
using flex::grape::Fragment;
using Fragments = std::vector<std::unique_ptr<Fragment>>;

constexpr uint32_t kRmatScale = 15;
constexpr double kEdgeFactor = 16.0;
constexpr flex::partition_t kFragments = 2;
constexpr int kPageRankIterations = 10;
constexpr double kDamping = 0.85;
constexpr vid_t kBfsSource = 0;  // The RMAT hub: reaches most of the graph.
constexpr int kSetupReps = 15;
/// Tail of the wall-clock note: about 400 jobs per 20 s window leave
/// 20 beyond p95.
constexpr double kTailPercentile = 95;
constexpr double kPageRankTolerance = 1e-9;

struct JobResult {
  std::vector<double> pagerank;
  std::vector<uint32_t> wcc;
  std::vector<uint32_t> bfs;
};

/// Per-app layer figures, summed over traced jobs.
struct AppProbe {
  double compute_ms = 0, critical_ms = 0, overhead_ms = 0, rounds = 0;
  double imbalance = 0, msgs = 0, bytes = 0;
  int runs = 0;
};

/// Runs one PIE app over `frags`, merges the per-fragment results into a
/// global array through `extract`, and returns the RunPieChecked wall
/// time in ms (or -1 on failure). Traced runs wrap every app in a
/// TimedPieApp and fill `probe`.
template <typename App, typename MSG, typename Make, typename Extract,
          typename Out>
double RunApp(const Fragments& frags, Make make, Extract extract, Out* out,
              AppProbe* probe, flex::trace::Trace* trace, uint64_t parent) {
  std::vector<std::unique_ptr<flex::grape::PieApp<MSG>>> apps;
  std::vector<const App*> typed;
  std::vector<const TimedPieApp<MSG>*> timed;
  for (size_t f = 0; f < frags.size(); ++f) {
    std::unique_ptr<App> app = make();
    typed.push_back(app.get());
    if (probe != nullptr) {
      auto wrapper = std::make_unique<TimedPieApp<MSG>>(std::move(app));
      timed.push_back(wrapper.get());
      apps.push_back(std::move(wrapper));
    } else {
      apps.push_back(std::move(app));
    }
  }
  flex::grape::PieOptions pie;
  pie.trace = trace;
  pie.trace_parent = parent;
  const RegistryReading before = RegistryReading::Now();
  const Clock::time_point start = Clock::now();
  const flex::Result<int> rounds = flex::grape::RunPieChecked(frags, apps, pie);
  const double wall_ms = SecondsSince(start) * 1e3;
  if (!rounds.ok()) return -1;
  if (probe != nullptr) {
    const RegistryReading delta = RegistryReading::Now() - before;
    size_t max_rounds = 0;
    for (const auto* t : timed) max_rounds = std::max(max_rounds, t->round_ms().size());
    double critical = 0, total = 0, busiest = 0;
    for (size_t r = 0; r < max_rounds; ++r) {
      double slowest = 0;
      for (const auto* t : timed) {
        if (r < t->round_ms().size()) slowest = std::max(slowest, t->round_ms()[r]);
      }
      critical += slowest;
    }
    for (const auto* t : timed) {
      const double sum =
          std::accumulate(t->round_ms().begin(), t->round_ms().end(), 0.0);
      total += sum;
      busiest = std::max(busiest, sum);
    }
    probe->compute_ms += total;
    probe->critical_ms += critical;
    probe->overhead_ms += wall_ms - critical;
    probe->rounds += rounds.value();
    probe->imbalance += total > 0 ? busiest / (total / timed.size()) : 1.0;
    probe->msgs += static_cast<double>(delta.msgs_sent);
    probe->bytes += static_cast<double>(delta.msg_bytes_flushed);
    ++probe->runs;
  }
  out->assign(frags[0]->total_vertices(), {});
  for (size_t f = 0; f < frags.size(); ++f) {
    for (vid_t v : frags[f]->inner_vertices()) (*out)[v] = extract(*typed[f], v);
  }
  return wall_ms;
}

/// One job; returns its latency in ms (sum of the three RunPieChecked
/// calls, each also stored in `app_ms`), or -1 if any app failed.
double RunJob(const Fragments& frags, JobResult* result, double app_ms[3],
              AppProbe* probes, flex::trace::Trace* trace) {
  using namespace flex::grape;
  const bool traced = probes != nullptr;
  flex::trace::ScopedSpan job(trace, "job", "bench");
  double total = 0;
  {
    flex::trace::ScopedSpan span(trace, "pagerank", "bench", job.id());
    const double ms = RunApp<PageRankApp, double>(
        frags,
        [] { return std::make_unique<PageRankApp>(kPageRankIterations, kDamping); },
        [](const PageRankApp& a, vid_t v) { return a.ranks()[v]; },
        &result->pagerank, traced ? &probes[0] : nullptr, trace, span.id());
    if (ms < 0) return -1;
    app_ms[0] = ms;
    total += ms;
  }
  {
    flex::trace::ScopedSpan span(trace, "wcc", "bench", job.id());
    const double ms = RunApp<WccApp, uint32_t>(
        frags, [] { return std::make_unique<WccApp>(); },
        [](const WccApp& a, vid_t v) { return a.labels()[v]; }, &result->wcc,
        traced ? &probes[1] : nullptr, trace, span.id());
    if (ms < 0) return -1;
    app_ms[1] = ms;
    total += ms;
  }
  {
    flex::trace::ScopedSpan span(trace, "bfs", "bench", job.id());
    const double ms = RunApp<BfsApp, uint32_t>(
        frags, [] { return std::make_unique<BfsApp>(kBfsSource); },
        [](const BfsApp& a, vid_t v) { return a.depths()[v]; }, &result->bfs,
        traced ? &probes[2] : nullptr, trace, span.id());
    if (ms < 0) return -1;
    app_ms[2] = ms;
    total += ms;
  }
  return total;
}

bool SameResult(const JobResult& a, const JobResult& b) {
  if (a.wcc != b.wcc || a.bfs != b.bfs) return false;
  if (a.pagerank.size() != b.pagerank.size()) return false;
  for (size_t i = 0; i < a.pagerank.size(); ++i) {
    if (std::fabs(a.pagerank[i] - b.pagerank[i]) > kPageRankTolerance) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------ oracles

std::vector<uint32_t> SequentialBfs(const EdgeList& g, vid_t source) {
  std::vector<uint32_t> offsets(g.num_vertices + 1, 0);
  for (const auto& e : g.edges) ++offsets[e.src + 1];
  for (vid_t v = 0; v < g.num_vertices; ++v) offsets[v + 1] += offsets[v];
  std::vector<vid_t> nbrs(g.edges.size());
  std::vector<uint32_t> fill(offsets.begin(), offsets.end() - 1);
  for (const auto& e : g.edges) nbrs[fill[e.src]++] = e.dst;
  std::vector<uint32_t> depth(g.num_vertices, flex::grape::kUnreachedDepth);
  std::vector<vid_t> frontier = {source}, next;
  depth[source] = 0;
  for (uint32_t d = 1; !frontier.empty(); ++d) {
    next.clear();
    for (vid_t v : frontier) {
      for (uint32_t i = offsets[v]; i < offsets[v + 1]; ++i) {
        if (depth[nbrs[i]] == flex::grape::kUnreachedDepth) {
          depth[nbrs[i]] = d;
          next.push_back(nbrs[i]);
        }
      }
    }
    frontier.swap(next);
  }
  return depth;
}

/// Component label = smallest vertex id in the weakly connected component.
std::vector<uint32_t> SequentialWcc(const EdgeList& g) {
  std::vector<vid_t> parent(g.num_vertices);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](vid_t v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (const auto& e : g.edges) {
    const vid_t a = find(e.src), b = find(e.dst);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  std::vector<uint32_t> label(g.num_vertices);
  for (vid_t v = 0; v < g.num_vertices; ++v) label[v] = find(v);
  return label;
}

}  // namespace

Outcome RunAnalytics(const Options& options) {
  Outcome out;
  flex::datagen::RmatParams params;
  params.scale = kRmatScale;
  params.edge_factor = kEdgeFactor;
  params.seed = options.seed;
  const EdgeList graph = flex::datagen::GenerateRmat(params);
  out.notes.push_back(Fmt("input: rmat scale=%u edge_factor=%.0f |V|=%u |E|=%zu "
                          "fragments=%u bfs_source=%u",
                          kRmatScale, kEdgeFactor, graph.num_vertices,
                          graph.num_edges(), kFragments, kBfsSource));

  // Load path: edge-cut partitioning into fragments, repeated; the
  // median is setup_s.
  std::vector<double> setup_s;
  std::unique_ptr<EdgeCutPartitioner> partitioner;
  Fragments frags;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    frags.clear();
    partitioner.reset();
    const Clock::time_point start = Clock::now();
    partitioner = std::make_unique<EdgeCutPartitioner>(graph.num_vertices,
                                                       kFragments);
    frags = flex::grape::Partition(graph, *partitioner);
    setup_s.push_back(SecondsSince(start));
  }

  // Measured window. Traced runs spend the first half untraced (the
  // overhead baseline) and the second half traced.
  std::vector<double> latency_ms, traced_ms;
  JobResult first;
  std::vector<bool> matches_first;
  AppProbe probes[3];
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  const Clock::time_point window = Clock::now();
  std::unique_ptr<flex::trace::Trace> dump;
  std::vector<double> done_s;  // Completion time of each untraced job.
  BestTimes best(3);           // Fastest untraced PageRank, WCC and BFS.
  while (SecondsSince(window) < options.seconds) {
    const bool traced = options.trace && SecondsSince(window) >= untraced_s;
    if (traced && dump == nullptr) dump = std::make_unique<flex::trace::Trace>("analytics");
    JobResult result;
    double app_ms[3];
    // Only the first traced job records spans; the rest feed the probes.
    flex::trace::Trace* trace = traced && traced_ms.empty() ? dump.get() : nullptr;
    const double ms = RunJob(frags, &result, app_ms, traced ? probes : nullptr, trace);
    ++out.attempted;
    if (ms < 0) {
      out.Fail("PIE job returned an error");
      continue;
    }
    (traced ? traced_ms : latency_ms).push_back(ms);
    if (!traced) {
      done_s.push_back(SecondsSince(window));
      for (int a = 0; a < 3; ++a) best.Add(a, app_ms[a]);
    }
    if (first.bfs.empty()) {
      first = std::move(result);
      matches_first.push_back(true);
    } else {
      matches_first.push_back(SameResult(first, result));
    }
  }
  const double peak_rss = PeakRssMb();

  // Oracles, after the window: BFS depths and WCC labels exactly match a
  // sequential pass over the edge list; PageRank matches the 1-fragment
  // run within kPageRankTolerance.
  if (options.corrupt && !first.bfs.empty()) first.bfs[kBfsSource] += 1;
  bool first_ok = !first.bfs.empty();
  if (first_ok) {
    first_ok = first.bfs == SequentialBfs(graph, kBfsSource) &&
               first.wcc == SequentialWcc(graph);
    EdgeCutPartitioner single(graph.num_vertices, 1);
    const Fragments one = flex::grape::Partition(graph, single);
    const std::vector<double> reference = flex::grape::RunPageRank(
        one, kPageRankIterations, kDamping);
    for (size_t v = 0; first_ok && v < reference.size(); ++v) {
      first_ok = std::fabs(reference[v] - first.pagerank[v]) <= kPageRankTolerance;
    }
  }
  size_t wrong = 0;
  for (bool same : matches_first) wrong += (same != first_ok) ? 1 : 0;
  for (size_t i = 0; i < wrong; ++i) out.Fail("job result differs from the oracle");
  out.notes.push_back(Fmt("oracle: %zu jobs checked (BFS/WCC exact vs sequential, "
                          "PageRank within %g of 1 fragment), %zu wrong",
                          matches_first.size(), kPageRankTolerance, wrong));

  out.notes.push_back(Fmt("samples: %zu untraced jobs, %zu traced jobs",
                          latency_ms.size(), traced_ms.size()));
  out.notes.push_back(WallClockNote(latency_ms, untraced_s, kTailPercentile));
  out.notes.push_back(RateSeries(done_s));
  out.notes.push_back(best.Summary());
  out.e2e["setup_s"] = Median(setup_s);
  out.e2e["peak_rss_mb"] = peak_rss;
  out.e2e["best_latency_geomean_ms"] = best.GeomeanMs();

  if (options.trace) {
    auto& l = out.layer;
    l["grape.partition_s"] = Median(setup_s);
    const char* names[3] = {"pagerank", "wcc", "bfs"};
    for (int a = 0; a < 3; ++a) {
      const AppProbe& p = probes[a];
      const double n = std::max(1, p.runs);
      const std::string base = std::string("grape.") + names[a] + ".";
      l[base + "compute_ms"] = p.compute_ms / n;
      l[base + "critical_compute_ms"] = p.critical_ms / n;
      l[base + "superstep_overhead_ms"] = p.overhead_ms / n;
      l[base + "rounds"] = p.rounds / n;
      l[base + "imbalance"] = p.imbalance / n;
      l[base + "msgs"] = p.msgs / n;
      l[base + "bytes_flushed"] = p.bytes / n;
    }
    l["self.grape_ms"] = Mean(traced_ms);
    l["trace.untraced_p50_ms"] = Median(latency_ms);
    l["trace.traced_p50_ms"] = Median(traced_ms);
    l["trace.overhead_pct"] = (Median(traced_ms) / Median(latency_ms) - 1) * 100;
    l["trace.latency_samples"] = static_cast<double>(traced_ms.size());
    if (dump != nullptr) {
      out.notes.push_back("spans (first traced job): " + dump->ToJson());
    }
  }
  return out;
}

}  // namespace flexbench
