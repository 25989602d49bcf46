#ifndef FLEXBENCH_BENCH_H_
#define FLEXBENCH_BENCH_H_

// Shared types of the end-to-end benchmark: run options, the outcome a
// workload reports, sample statistics and the metric tables.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace flexbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: the window is split into an untraced half and a traced
  /// half; per-layer metrics come from the traced half.
  bool trace = false;
  /// Self-test: damage one verified result before its oracle runs, so the
  /// run must report it as a failed operation.
  bool corrupt = false;
  /// Scratch directory inside the checkout (WAL files, trace dumps).
  std::string work_dir;
};

/// What one workload run reports. `e2e` holds the end-to-end metrics
/// (untraced runs); `layer` the per-layer ones (traced runs). Per-layer
/// metrics a workload never touches stay absent and print as 0.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  /// Human-readable lines printed before the result (sample counts,
  /// layer table, oracle summary).
  std::vector<std::string> notes;

  /// Counts one failed operation; the first few reasons are kept.
  void Fail(const std::string& why) {
    if (++failed <= 10) notes.push_back("FAIL: " + why);
  }
};

struct MetricDef {
  std::string name;
  std::string unit;
};

/// End-to-end metrics, printed by every untraced run (same order and units
/// as BENCHMARK.json).
const std::vector<MetricDef>& EndToEndMetrics();
/// Per-layer metrics, printed by every traced run.
const std::vector<MetricDef>& PerLayerMetrics();

Outcome RunHtap(const Options& options);
Outcome RunBi(const Options& options);
Outcome RunAnalytics(const Options& options);

// ------------------------------------------------------------- statistics

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated percentile, q in [0, 100]; 0 for no samples.
double Percentile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}
double Mean(const std::vector<double>& samples);

/// Fastest time of each distinct request of a run's pre-drawn sequence.
/// On a shared host whole seconds of a run can go several times slower;
/// the fastest of many repetitions of one short request moves far less
/// between runs, so the gated latency is built from these minima.
class BestTimes {
 public:
  explicit BestTimes(size_t requests)
      : best_ms_(requests, std::numeric_limits<double>::infinity()),
        reps_(requests, 0) {}
  void Add(size_t request, double ms) {
    best_ms_[request] = std::min(best_ms_[request], ms);
    ++reps_[request];
  }
  /// Appends another client's requests.
  void Append(const BestTimes& other) {
    best_ms_.insert(best_ms_.end(), other.best_ms_.begin(), other.best_ms_.end());
    reps_.insert(reps_.end(), other.reps_.begin(), other.reps_.end());
  }
  /// Geometric mean of the minima over the requests that ran; 0 if none.
  double GeomeanMs() const;
  /// "best-of: N requests ran, repetitions min/median/max".
  std::string Summary() const;

 private:
  std::vector<double> best_ms_;
  std::vector<uint32_t> reps_;
};

/// "wall clock: ..." note with the throughput over `window_s`, p50 and
/// the `tail` percentile of `latency_ms`. These figures follow the host's
/// load on a shared machine and are reported, not gated.
std::string WallClockNote(const std::vector<double>& latency_ms, double window_s,
                          double tail);

/// "completions per second: n0 n1 ..." over whole seconds of the window,
/// to tell a host slowdown inside a run from a slow process.
std::string RateSeries(const std::vector<double>& completion_s);

/// High-water resident set size of this process, MiB.
double PeakRssMb();

/// One-line JSON host fingerprint: nproc, spin-probe parallel capacity,
/// CPU model, compiler, build type, source id and the filesystem type of
/// `wal_dir`.
std::string HostFingerprint(const std::string& source_id,
                            const std::string& wal_dir);

/// Format helper for notes.
std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// Pads and joins a per-layer table: one row per (layer, metric, value).
std::string LayerTable(const std::map<std::string, double>& layer);

}  // namespace flexbench

#endif  // FLEXBENCH_BENCH_H_
