// Workload `htap`: SNB on GART behind DurableStore. Two closed-loop reader
// clients send 70% IS short reads through HiActor and 30% IC complex reads
// through Gaia; each re-pins the newest epoch every 64 requests and opens
// a 1-worker QueryService over it. One writer stages LDBC-insert-like
// batches, commits each (WAL write + fsync) and pauses for a fixed time.
// Readers and the writer run pinned to their own cores (PinToCpu).

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/random.h"
#include "probes.h"
#include "query/service.h"
#include "snb/snb.h"
#include "storage/durable_store.h"
#include "storage/gart/gart_store.h"

namespace flexbench {
namespace {

using flex::PropertyValue;
using flex::oid_t;
using flex::query::EngineKind;
using flex::query::Language;
using flex::query::QueryService;
using flex::storage::DurableStore;

constexpr size_t kPersons = 2000;
constexpr int kReaders = 2;
constexpr size_t kSessionRequests = 64;
constexpr double kShortShare = 0.7;
/// Requests drawn per reader; a reader cycles through its sequence, so
/// each request repeats often enough for its fastest time to repeat.
constexpr size_t kSequenceLength = 2048;
/// One commit every ~45 ms: a 20 s window adds ~440 batches of 6 vertices,
/// about a tenth of the base graph's vertices.
constexpr auto kWriterPause = std::chrono::milliseconds(45);
constexpr int kSetupReps = 9;
/// Tail of the wall-clock note: about 250k reads per 20 s window leave
/// thousands beyond p99.
constexpr double kTailPercentile = 99;
/// ~440 commits per 20 s window: p95 leaves about 22 beyond it.
constexpr double kCommitTailPercentile = 95;
constexpr size_t kOracleEvery = 211;

struct Request {
  bool is_short;
  size_t spec;
  std::vector<PropertyValue> params;
};

/// One staged write.
struct Mutation {
  enum Kind { kVertex, kEdge, kUpdate } kind;
  flex::label_t label;
  oid_t a;
  oid_t b = 0;  ///< Edge destination.
  std::vector<PropertyValue> props;  ///< Vertex properties.
  uint32_t col = 0;                  ///< Updated column.
  int64_t value = 0;                 ///< Update value / edge timestamp.
};
using Batch = std::vector<Mutation>;

/// LDBC-insert-like batch `k`: a new person who knows two base persons,
/// two posts by them in base forums, three comments replying to them,
/// four likes of the new posts and two city updates of Zipf-hot base
/// persons.
Batch DrawBatch(size_t k, const flex::snb::SnbSchema& s,
                const flex::snb::SnbStats& stats, flex::Rng& rng,
                flex::ZipfSampler& hot) {
  Batch b;
  auto vertex = [&](flex::label_t label, oid_t oid,
                    std::vector<PropertyValue> props) {
    b.push_back({Mutation::kVertex, label, oid, 0, std::move(props), 0, 0});
  };
  auto edge = [&](flex::label_t label, oid_t src, oid_t dst, int64_t ts) {
    b.push_back({Mutation::kEdge, label, src, dst, {}, 0, ts});
  };
  auto base_person = [&] { return static_cast<oid_t>(rng.Uniform(stats.num_persons)); };
  auto date = [&] { return static_cast<int64_t>(rng.Uniform(1000)); };
  const oid_t person = static_cast<oid_t>(stats.num_persons + k);
  vertex(s.person, person,
         {PropertyValue("New"), PropertyValue("Person"),
          PropertyValue(static_cast<int64_t>(rng.Uniform(365 * 40))),
          PropertyValue(static_cast<int64_t>(rng.Uniform(200)))});
  for (int j = 0; j < 2; ++j) edge(s.knows, person, base_person(), date());
  oid_t posts[2];
  for (int j = 0; j < 2; ++j) {
    posts[j] = flex::snb::kPostBase +
               static_cast<oid_t>(stats.num_posts + 2 * k + j);
    vertex(s.post, posts[j],
           {PropertyValue(date()),
            PropertyValue(static_cast<int64_t>(10 + rng.Uniform(500))),
            PropertyValue("Chrome")});
    edge(s.post_has_creator, posts[j], person, 0);
    edge(s.container_of,
         flex::snb::kForumBase + static_cast<oid_t>(rng.Uniform(stats.num_forums)),
         posts[j], 0);
  }
  for (int j = 0; j < 3; ++j) {
    const oid_t comment = flex::snb::kCommentBase +
                          static_cast<oid_t>(stats.num_comments + 3 * k + j);
    vertex(s.comment, comment,
           {PropertyValue(date()),
            PropertyValue(static_cast<int64_t>(5 + rng.Uniform(200)))});
    edge(s.comment_has_creator, comment, base_person(), 0);
    edge(s.reply_of_post, comment, posts[j % 2], 0);
  }
  for (int j = 0; j < 4; ++j) {
    edge(s.likes, static_cast<oid_t>(hot.Next()), posts[j % 2], date());
  }
  for (int j = 0; j < 2; ++j) {
    b.push_back({Mutation::kUpdate, s.person, static_cast<oid_t>(hot.Next()), 0,
                 {}, 3, static_cast<int64_t>(rng.Uniform(200))});
  }
  return b;
}

flex::Status Stage(DurableStore& store, const Mutation& m) {
  switch (m.kind) {
    case Mutation::kVertex:
      return store.AppendVertex(m.label, m.a, m.props);
    case Mutation::kEdge:
      return store.AppendEdge(m.label, m.a, m.b, 1.0, m.value);
    case Mutation::kUpdate:
      return store.UpdateProperty(m.label, m.a, m.col, PropertyValue(m.value));
  }
  return flex::Status::Internal("unknown mutation");
}

/// Pins the calling thread to one CPU (modulo the CPU count). Threads it
/// creates afterwards, such as the HiActor shard of a QueryService it
/// constructs, inherit the pin, so a reader and its shard hand requests
/// off on one core, as HiActor's shard-per-core design intends. Best
/// effort: on failure the thread stays unpinned.
void PinToCpu(int index) {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(index % (n > 0 ? n : 1), &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

struct Kept {
  flex::version_t version;
  const Request* request;
  std::vector<flex::ir::Row> rows;
};

/// Everything one reader thread records; merged after the window.
struct ReaderLog {
  uint64_t attempted = 0;
  std::vector<std::string> failures;
  std::vector<double> latency_ms;   ///< Untraced requests.
  std::vector<double> done_s;       ///< Their completion times.
  BestTimes best{kSequenceLength};  ///< Per request of the sequence.
  std::vector<double> pin_us;       ///< Untraced sessions.
  std::vector<double> session_us;   ///< Pin + QueryService construction.
  QueryProbe probe;                 ///< Traced requests.
  std::vector<Kept> kept;
};

struct WriterLog {
  uint64_t attempted = 0;
  std::vector<std::string> failures;
  std::vector<double> commit_ms;  ///< Every commit.
  std::vector<double> traced_stage_us, traced_commit_us, traced_wal_us;
};

}  // namespace

Outcome RunHtap(const Options& options) {
  Outcome out;
  const flex::snb::SnbSchema schema = flex::snb::SnbSchema::Build();
  flex::snb::SnbConfig config;
  config.num_persons = kPersons;
  config.seed = options.seed;
  flex::snb::SnbStats stats;
  const flex::PropertyGraphData data = flex::snb::GenerateSnb(config, &stats);
  const auto shorts = flex::snb::InteractiveShortQueries();
  const auto complexes = flex::snb::InteractiveComplexQueries();
  auto spec_of = [&](const Request& r) -> const flex::snb::QuerySpec& {
    return r.is_short ? shorts[r.spec] : complexes[r.spec];
  };

  // Pre-drawn inputs: one request sequence per reader, the writer's batches.
  std::vector<std::vector<Request>> sequences(kReaders);
  for (int c = 0; c < kReaders; ++c) {
    flex::Rng rng(options.seed * 1000003 + c);
    for (size_t i = 0; i < kSequenceLength; ++i) {
      const bool is_short = rng.NextDouble() < kShortShare;
      const size_t spec = rng.Uniform(is_short ? shorts.size() : complexes.size());
      sequences[c].push_back(
          {is_short, spec, (is_short ? shorts : complexes)[spec].params(rng, stats)});
    }
  }
  std::vector<Batch> batches;
  {
    flex::Rng rng(options.seed * 7919 + 3);
    flex::ZipfSampler hot(stats.num_persons, 1.0, options.seed + 17);
    const size_t count = static_cast<size_t>(
        options.seconds * 1000 / kWriterPause.count()) + 64;
    for (size_t k = 0; k < count; ++k) {
      batches.push_back(DrawBatch(k, schema, stats, rng, hot));
    }
  }
  out.notes.push_back(Fmt("input: snb persons=%zu posts=%zu comments=%zu |V|=%zu "
                          "|E|=%zu readers=%d (70%% IS on HiActor, 30%% IC on "
                          "Gaia) writer batch=%zu records every %lld ms",
                          stats.num_persons, stats.num_posts, stats.num_comments,
                          data.total_vertices(), data.total_edges(), kReaders,
                          batches[0].size(),
                          static_cast<long long>(kWriterPause.count())));

  // Load path, repeated: GART Build, DurableStore::Open on a fresh WAL,
  // one session (pin + QueryService) and a warm-up run of every template.
  const std::string wal_path = options.work_dir + "/htap.wal";
  std::vector<double> setup_s, load_s;
  std::shared_ptr<flex::storage::MutableGraphStore> backend;
  std::unique_ptr<DurableStore> store;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    store.reset();
    backend.reset();
    std::filesystem::remove(wal_path);
    const Clock::time_point start = Clock::now();
    auto built = flex::storage::GartStore::Build(data);
    if (!built.ok()) {
      out.Fail("GART build: " + built.status().message());
      return out;
    }
    backend = std::shared_ptr<flex::storage::MutableGraphStore>(std::move(built).value());
    load_s.push_back(SecondsSince(start));
    auto opened = DurableStore::Open(backend, wal_path);
    if (!opened.ok()) {
      out.Fail("DurableStore::Open: " + opened.status().message());
      return out;
    }
    store = std::move(opened).value();
    auto snapshot = store->PinSnapshot();
    QueryService service(snapshot.get(), 1);
    for (const auto* suite : {&shorts, &complexes}) {
      for (const auto& spec : *suite) {
        const EngineKind engine = suite == &shorts ? EngineKind::kHiActor : EngineKind::kGaia;
        flex::Rng rng(options.seed);
        if (!service.Run(Language::kCypher, spec.cypher, engine, spec.params(rng, stats)).ok()) {
          out.Fail("warm-up " + spec.name + " failed");
          return out;
        }
      }
    }
    setup_s.push_back(SecondsSince(start));
  }
  const flex::version_t base_version = store->read_version();
  const auto wal_bytes_before = std::filesystem::file_size(wal_path);

  // Measured window. Traced runs flip every client to traced sessions /
  // commits for the second half.
  std::atomic<bool> go{false}, stop{false}, traced_phase{false};
  Clock::time_point window;  // Written before `go` is set, read after.
  std::vector<ReaderLog> readers(kReaders);
  WriterLog writer;
  RegistryReading registry_at_flip, registry_at_end;
  const RegistryReading registry_start = RegistryReading::Now();

  auto reader = [&](int c) {
    PinToCpu(c);
    ReaderLog& log = readers[c];
    const std::vector<Request>& seq = sequences[c];
    std::unique_ptr<flex::grin::GrinGraph> snapshot;
    std::unique_ptr<CountingGrin> counting;
    std::unique_ptr<QueryService> service;
    PlanMap plans;
    std::vector<bool> seen(shorts.size() + complexes.size(), false);
    flex::version_t version = 0;
    size_t left = 0;
    bool session_traced = false;
    while (!go.load()) std::this_thread::yield();
    for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const bool traced = traced_phase.load(std::memory_order_relaxed);
      if (left == 0 || traced != session_traced) {
        service.reset();
        counting.reset();
        const Clock::time_point start = Clock::now();
        snapshot = store->PinSnapshot();
        const double pin_us = SecondsSince(start) * 1e6;
        if (traced) counting = std::make_unique<CountingGrin>(snapshot.get());
        service = std::make_unique<QueryService>(
            traced ? counting.get() : snapshot.get(), 1);
        if (!traced) {
          log.pin_us.push_back(pin_us);
          log.session_us.push_back(SecondsSince(start) * 1e6);
        }
        version = snapshot->SnapshotVersion();
        plans.clear();
        left = kSessionRequests;
        session_traced = traced;
      }
      --left;
      const Request& req = seq[i % seq.size()];
      const auto& spec = spec_of(req);
      const EngineKind engine = req.is_short ? EngineKind::kHiActor : EngineKind::kGaia;
      flex::Result<std::vector<flex::ir::Row>> rows = flex::Status::Internal("unset");
      if (traced) {
        rows = TracedRun(*service, *counting, spec.cypher, engine,
                         req.is_short ? RequestKind::kShort : RequestKind::kComplex,
                         req.params, &plans, &log.probe);
      } else {
        const Clock::time_point start = Clock::now();
        rows = service->Run(Language::kCypher, spec.cypher, engine, req.params);
        log.latency_ms.push_back(SecondsSince(start) * 1e3);
        log.done_s.push_back(SecondsSince(window));
        log.best.Add(i % seq.size(), log.latency_ms.back());
      }
      ++log.attempted;
      if (!rows.ok()) {
        log.failures.push_back(spec.name + ": " + rows.status().message());
      } else {
        // Keep each template's first result plus every kOracleEvery-th.
        const size_t slot = req.is_short ? req.spec : shorts.size() + req.spec;
        if (!seen[slot] || i % kOracleEvery == 0) {
          seen[slot] = true;
          log.kept.push_back({version, &req, std::move(rows).value()});
        }
      }
    }
    service.reset();
  };

  auto write = [&] {
    PinToCpu(kReaders);
    flex::version_t expect = store->read_version();
    while (!go.load()) std::this_thread::yield();
    for (size_t k = 0; k < batches.size() && !stop.load(std::memory_order_relaxed); ++k) {
      const bool traced = traced_phase.load(std::memory_order_relaxed);
      ++writer.attempted;
      const Clock::time_point start = Clock::now();
      flex::Status staged = flex::Status::OK();
      for (const Mutation& m : batches[k]) {
        if (staged.ok()) staged = Stage(*store, m);
      }
      const double stage_us = SecondsSince(start) * 1e6;
      flex::trace::Trace trace("commit-" + std::to_string(k));
      flex::storage::CommitOptions commit;
      if (traced) commit.trace = &trace;
      const Clock::time_point commit_start = Clock::now();
      auto committed = staged.ok() ? store->CommitBatch(commit)
                                   : flex::Result<flex::version_t>(staged);
      const double commit_ms = SecondsSince(commit_start) * 1e3;
      if (!committed.ok()) {
        writer.failures.push_back("commit: " + committed.status().message());
        break;  // The store fail-stops after a failed commit.
      }
      if (committed.value() != expect + 1) {
        writer.failures.push_back(Fmt("commit returned epoch %llu, expected %llu",
                                      static_cast<unsigned long long>(committed.value()),
                                      static_cast<unsigned long long>(expect + 1)));
      }
      expect = committed.value();
      writer.commit_ms.push_back(commit_ms);
      if (traced) {
        writer.traced_stage_us.push_back(stage_us);
        writer.traced_commit_us.push_back(commit_ms * 1e3);
        for (const flex::trace::Span& span : trace.spans()) {
          if (span.name == "wal.append") writer.traced_wal_us.push_back(span.duration_us());
        }
      }
      std::this_thread::sleep_for(kWriterPause);
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kReaders; ++c) threads.emplace_back(reader, c);
  threads.emplace_back(write);
  window = Clock::now();
  go.store(true);
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  std::this_thread::sleep_for(std::chrono::duration<double>(untraced_s));
  if (options.trace) {
    registry_at_flip = RegistryReading::Now();
    traced_phase.store(true);
    std::this_thread::sleep_for(std::chrono::duration<double>(options.seconds - untraced_s));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  registry_at_end = RegistryReading::Now();
  const double peak_rss = PeakRssMb();

  // Merge the client logs.
  std::vector<double> latency_ms, done_s, pin_us, session_us;
  BestTimes best(0);
  QueryProbe probe;
  std::vector<Kept> kept;
  for (int c = 0; c < kReaders; ++c) {
    ReaderLog& log = readers[c];
    out.attempted += log.attempted;
    for (const auto& f : log.failures) out.Fail(f);
    latency_ms.insert(latency_ms.end(), log.latency_ms.begin(), log.latency_ms.end());
    pin_us.insert(pin_us.end(), log.pin_us.begin(), log.pin_us.end());
    session_us.insert(session_us.end(), log.session_us.begin(), log.session_us.end());
    probe.Merge(log.probe);
    for (auto& k : log.kept) kept.push_back(std::move(k));
    done_s.insert(done_s.end(), log.done_s.begin(), log.done_s.end());
    best.Append(log.best);
  }
  out.attempted += writer.attempted;
  for (const auto& f : writer.failures) out.Fail(f);
  const size_t commits = writer.commit_ms.size();

  // Oracle 1: kept reads (the first requests of each client, covering
  // every template, plus every kOracleEvery-th) re-run through NaiveGraphDB
  // on the same pinned epoch; row multisets must be equal.
  if (options.corrupt && !kept.empty()) kept.front().rows.emplace_back();
  std::sort(kept.begin(), kept.end(),
            [](const Kept& a, const Kept& b) { return a.version < b.version; });
  const Clock::time_point oracle_start = Clock::now();
  size_t wrong = 0;
  std::unique_ptr<flex::grin::GrinGraph> pinned;
  for (const Kept& k : kept) {
    if (pinned == nullptr || pinned->SnapshotVersion() != k.version) {
      pinned = store->PinSnapshot(k.version);
    }
    flex::query::NaiveGraphDB naive(pinned.get());
    const auto& spec = spec_of(*k.request);
    auto expect = naive.Run(Language::kCypher, spec.cypher, k.request->params);
    if (!expect.ok() || RowMultiset(expect.value()) != RowMultiset(k.rows)) {
      ++wrong;
      out.Fail(Fmt("%s at epoch %llu differs from NaiveGraphDB", spec.name.c_str(),
                   static_cast<unsigned long long>(k.version)));
    }
  }
  pinned.reset();
  out.notes.push_back(Fmt("oracle: %zu kept reads vs NaiveGraphDB on their pinned "
                          "epochs in %.1f s, %zu wrong",
                          kept.size(), SecondsSince(oracle_start), wrong));

  // Oracle 2: every commit returned the previous epoch + 1 (checked in the
  // writer); replaying a copy of the WAL into a freshly built GART through
  // DurableStore::Open reproduces the live store's epoch and fingerprint.
  const Clock::time_point replay_start = Clock::now();
  const std::string replay_path = options.work_dir + "/replay.wal";
  std::filesystem::copy_file(wal_path, replay_path,
                             std::filesystem::copy_options::overwrite_existing);
  const auto wal_bytes = std::filesystem::file_size(wal_path) - wal_bytes_before;
  auto fresh = flex::storage::GartStore::Build(data);
  auto replayed = fresh.ok() ? DurableStore::Open(
                                   std::shared_ptr<flex::storage::MutableGraphStore>(
                                       std::move(fresh).value()),
                                   replay_path)
                             : flex::Result<std::unique_ptr<DurableStore>>(fresh.status());
  const uint32_t live_fp = flex::storage::SnapshotFingerprint(*store->PinSnapshot());
  const bool replay_ok = replayed.ok() &&
                   replayed.value()->read_version() == store->read_version() &&
                   flex::storage::SnapshotFingerprint(*replayed.value()->PinSnapshot()) ==
                       live_fp;
  if (!replay_ok) out.Fail("WAL replay does not reproduce the live store");
  out.notes.push_back(Fmt("oracle: %zu commits, epochs %llu..%llu consecutive; WAL "
                          "replay fingerprint %s in %.1f s",
                          commits, static_cast<unsigned long long>(base_version),
                          static_cast<unsigned long long>(store->read_version()),
                          replay_ok ? "matches" : "DIFFERS",
                          SecondsSince(replay_start)));
  out.notes.push_back(Fmt("samples: %zu untraced reads, %zu traced reads; "
                          "%zu commits, commit tail = p%.0f",
                          latency_ms.size(), probe.latency_ms.size(), commits,
                          kCommitTailPercentile));
  out.notes.push_back(WallClockNote(latency_ms, untraced_s, kTailPercentile));
  out.notes.push_back(RateSeries(done_s));
  out.notes.push_back(best.Summary());
  out.e2e["setup_s"] = Median(setup_s);
  out.e2e["peak_rss_mb"] = peak_rss;
  out.e2e["best_latency_geomean_ms"] = best.GeomeanMs();
  if (options.trace) {
    FillQueryLayers(probe, registry_at_end - registry_at_flip, &out);
    auto& l = out.layer;
    const RegistryReading writes = registry_at_end - registry_start;
    l["query.session_open_us"] = Mean(session_us);
    l["storage.load_s"] = Median(load_s);
    l["storage.pin_us"] = Mean(pin_us);
    l["storage.stage_us"] = Mean(writer.traced_stage_us);
    l["storage.commit_us"] = Mean(writer.traced_commit_us);
    l["storage.wal_append_us"] = Mean(writer.traced_wal_us);
    l["storage.commit_p50_ms"] = Median(writer.commit_ms);
    l["storage.commit_tail_ms"] = Percentile(writer.commit_ms, kCommitTailPercentile);
    l["storage.wal_bytes_per_record"] =
        writes.wal_records > 0 ? static_cast<double>(wal_bytes) / writes.wal_records : 0.0;
    l["storage.fsyncs_per_commit"] =
        commits > 0 ? static_cast<double>(writes.wal_syncs) / commits : 0.0;
    l["self.storage_ms"] = Mean(writer.traced_commit_us) / 1e3;
    l["trace.untraced_p50_ms"] = Median(latency_ms);
    l["trace.overhead_pct"] = (Median(probe.latency_ms) / Median(latency_ms) - 1) * 100;
  }
  return out;
}

}  // namespace flexbench
