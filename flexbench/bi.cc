// Workload `bi`: one closed-loop client runs the 20 SNB BI templates in a
// fixed order with seeded parameters against an immutable Vineyard store
// through a QueryService with 2 Gaia workers. Whole-graph scans, fused
// pushdown and blocking GROUP/ORDER dominate; compile, writes and HiActor
// are bypassed.

#include <algorithm>
#include <memory>

#include "bench.h"
#include "probes.h"
#include "query/service.h"
#include "snb/snb.h"
#include "storage/vineyard/vineyard_store.h"

namespace flexbench {
namespace {

using flex::PropertyValue;
using flex::query::EngineKind;
using flex::query::Language;
using flex::query::QueryService;

constexpr size_t kPersons = 4000;
constexpr size_t kGaiaWorkers = 2;
constexpr int kSetupReps = 7;
/// Tail of the wall-clock note: about 900 requests per 20 s window leave
/// 18 beyond p98.
constexpr double kTailPercentile = 98;
/// Every this many requests one result is kept for the oracle, in addition
/// to the first request of every template.
constexpr size_t kOracleEvery = 97;
/// One seeded parameter set per template: the client repeats the same 20
/// requests, so each runs often enough for its fastest time to repeat.
constexpr size_t kSequenceRounds = 1;

struct Request {
  size_t spec;
  std::vector<PropertyValue> params;
};

struct Kept {
  size_t request;
  std::vector<flex::ir::Row> rows;
};

}  // namespace

Outcome RunBi(const Options& options) {
  Outcome out;
  flex::snb::SnbConfig config;
  config.num_persons = kPersons;
  config.seed = options.seed;
  flex::snb::SnbStats stats;
  const flex::PropertyGraphData data = flex::snb::GenerateSnb(config, &stats);
  const std::vector<flex::snb::QuerySpec> specs = flex::snb::BiQueries();
  flex::Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 11);
  std::vector<Request> requests;
  for (size_t round = 0; round < kSequenceRounds; ++round) {
    for (size_t s = 0; s < specs.size(); ++s) {
      requests.push_back({s, specs[s].params(rng, stats)});
    }
  }
  out.notes.push_back(Fmt("input: snb persons=%zu posts=%zu comments=%zu "
                          "|V|=%zu |E|=%zu templates=%zu gaia_workers=%zu",
                          stats.num_persons, stats.num_posts,
                          stats.num_comments, data.total_vertices(),
                          data.total_edges(), specs.size(), kGaiaWorkers));

  // Load path, repeated: Vineyard Build, GRIN handle, QueryService
  // construction and one warm-up run of every template.
  std::vector<double> setup_s, load_s, ctor_us;
  std::unique_ptr<flex::storage::VineyardStore> store;
  std::unique_ptr<flex::grin::GrinGraph> graph;
  std::unique_ptr<QueryService> service;
  auto warm_up = [&](QueryService& s) {
    for (size_t i = 0; i < specs.size(); ++i) {
      auto rows = s.Run(Language::kCypher, specs[i].cypher, EngineKind::kGaia,
                        requests[i].params);
      if (!rows.ok()) return false;
    }
    return true;
  };
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    graph.reset();
    store.reset();
    const Clock::time_point start = Clock::now();
    auto built = flex::storage::VineyardStore::Build(data);
    if (!built.ok()) {
      out.Fail("Vineyard build: " + built.status().message());
      return out;
    }
    store = std::move(built).value();
    load_s.push_back(SecondsSince(start));
    graph = store->GetGrinHandle();
    const Clock::time_point ctor = Clock::now();
    service = std::make_unique<QueryService>(graph.get(), kGaiaWorkers);
    ctor_us.push_back(SecondsSince(ctor) * 1e6);
    if (!warm_up(*service)) {
      out.Fail("warm-up query failed");
      return out;
    }
    setup_s.push_back(SecondsSince(start));
  }

  // Measured window; traced runs trace the second half through a counting
  // GRIN proxy and their own service.
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> latency_ms, done_s;
  BestTimes best(requests.size());
  std::vector<Kept> kept;
  auto keep = [&](size_t i, std::vector<flex::ir::Row> rows) {
    if (i < specs.size() || i % kOracleEvery == 0) {
      kept.push_back({i, std::move(rows)});
    }
  };
  size_t next = 0;
  const Clock::time_point window = Clock::now();
  while (SecondsSince(window) < untraced_s) {
    const size_t i = next++;
    const Request& req = requests[i % requests.size()];
    const Clock::time_point start = Clock::now();
    auto rows = service->Run(Language::kCypher, specs[req.spec].cypher,
                             EngineKind::kGaia, req.params);
    latency_ms.push_back(SecondsSince(start) * 1e3);
    done_s.push_back(SecondsSince(window));
    best.Add(i % requests.size(), latency_ms.back());
    ++out.attempted;
    if (!rows.ok()) {
      out.Fail(specs[req.spec].name + ": " + rows.status().message());
      continue;
    }
    keep(i, std::move(rows).value());
  }

  QueryProbe probe;
  RegistryReading traced_registry;
  if (options.trace) {
    CountingGrin counting(graph.get());
    QueryService traced(&counting, kGaiaWorkers);
    if (!warm_up(traced)) out.Fail("warm-up of the traced service failed");
    PlanMap plans;
    const RegistryReading before = RegistryReading::Now();
    while (SecondsSince(window) < options.seconds) {
      const size_t i = next++;
      const Request& req = requests[i % requests.size()];
      auto rows = TracedRun(traced, counting, specs[req.spec].cypher,
                            EngineKind::kGaia, RequestKind::kBi, req.params,
                            &plans, &probe);
      ++out.attempted;
      if (!rows.ok()) {
        out.Fail(specs[req.spec].name + " (traced): " + rows.status().message());
        continue;
      }
      keep(i, std::move(rows).value());
    }
    traced_registry = RegistryReading::Now() - before;
  }
  const double peak_rss = PeakRssMb();

  // Oracle: the kept results against the unoptimized tuple-at-a-time
  // NaiveGraphDB on the same graph; row multisets must be equal.
  if (options.corrupt && !kept.empty()) {
    kept.front().rows.push_back(kept.front().rows.empty()
                                    ? flex::ir::Row{}
                                    : kept.front().rows.front());
  }
  flex::query::NaiveGraphDB naive(graph.get());
  const Clock::time_point oracle_start = Clock::now();
  size_t wrong = 0;
  for (const Kept& k : kept) {
    const Request& req = requests[k.request % requests.size()];
    auto expect = naive.Run(Language::kCypher, specs[req.spec].cypher,
                            req.params);
    if (!expect.ok() || RowMultiset(expect.value()) != RowMultiset(k.rows)) {
      ++wrong;
      out.Fail(Fmt("%s (request %zu) differs from NaiveGraphDB",
                   specs[req.spec].name.c_str(), k.request));
    }
  }
  out.notes.push_back(Fmt("oracle: %zu kept results (every template + every "
                          "%zuth request) vs NaiveGraphDB in %.1f s, %zu wrong",
                          kept.size(), kOracleEvery,
                          SecondsSince(oracle_start), wrong));
  out.notes.push_back(Fmt("samples: %zu untraced requests, %zu traced requests",
                          latency_ms.size(), probe.latency_ms.size()));
  out.notes.push_back(WallClockNote(latency_ms, untraced_s, kTailPercentile));
  out.notes.push_back(RateSeries(done_s));
  out.notes.push_back(best.Summary());
  out.e2e["setup_s"] = Median(setup_s);
  out.e2e["peak_rss_mb"] = peak_rss;
  out.e2e["best_latency_geomean_ms"] = best.GeomeanMs();
  if (options.trace) {
    FillQueryLayers(probe, traced_registry, &out);
    out.layer["query.session_open_us"] = Median(ctor_us);
    out.layer["storage.load_s"] = Median(load_s);
    out.layer["trace.untraced_p50_ms"] = Median(latency_ms);
    out.layer["trace.overhead_pct"] =
        (Median(probe.latency_ms) / Median(latency_ms) - 1) * 100;
  }
  return out;
}

}  // namespace flexbench
