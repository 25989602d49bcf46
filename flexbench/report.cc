// Statistics, metric tables and the host fingerprint.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <thread>

#include "bench.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace flexbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"best_latency_geomean_ms", "ms"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"query.compile_us", "us"},
        {"query.plan_cache_hit_ratio", "ratio"},
        {"query.session_open_us", "us"},
        {"query.front_us", "us"},
        {"runtime.exec_us_short", "us"},
        {"runtime.exec_us_complex", "us"},
        {"runtime.exec_us_bi", "us"},
        {"runtime.batches_per_query", "count"},
        {"runtime.rows_per_batch", "rows"},
        {"grin.scan_calls", "calls/query"},
        {"grin.adj_calls", "calls/query"},
        {"grin.prop_calls", "calls/query"},
        {"grin.lookup_calls", "calls/query"},
        {"grin.rows_per_result", "ratio"},
        {"grin.time_share", "ratio"},
        {"grin.fused_rows_pruned", "rows/query"},
        {"storage.load_s", "s"},
        {"storage.pin_us", "us"},
        {"storage.stage_us", "us"},
        {"storage.commit_us", "us"},
        {"storage.wal_append_us", "us"},
        {"storage.commit_p50_ms", "ms"},
        {"storage.commit_tail_ms", "ms"},
        {"storage.wal_bytes_per_record", "bytes"},
        {"storage.fsyncs_per_commit", "count"},
        {"grape.partition_s", "s"},
    };
    for (const char* app : {"pagerank", "wcc", "bfs"}) {
      for (const auto& [suffix, unit] :
           std::vector<std::pair<const char*, const char*>>{
               {"compute_ms", "ms"},
               {"critical_compute_ms", "ms"},
               {"superstep_overhead_ms", "ms"},
               {"rounds", "count"},
               {"imbalance", "ratio"},
               {"msgs", "count"},
               {"bytes_flushed", "bytes"}}) {
        d.push_back({std::string("grape.") + app + "." + suffix, unit});
      }
    }
    d.insert(d.end(), {
                          {"self.query_ms", "ms"},
                          {"self.runtime_ms", "ms"},
                          {"self.grin_ms", "ms"},
                          {"self.storage_ms", "ms"},
                          {"self.grape_ms", "ms"},
                          {"trace.untraced_p50_ms", "ms"},
                          {"trace.traced_p50_ms", "ms"},
                          {"trace.overhead_pct", "%"},
                          {"trace.latency_samples", "count"},
                      });
    return d;
  }();
  return defs;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double BestTimes::GeomeanMs() const {
  double log_sum = 0;
  size_t ran = 0;
  for (size_t i = 0; i < best_ms_.size(); ++i) {
    if (reps_[i] == 0) continue;
    log_sum += std::log(best_ms_[i]);
    ++ran;
  }
  return ran == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(ran));
}

std::string BestTimes::Summary() const {
  std::vector<double> reps;
  for (uint32_t r : reps_) {
    if (r > 0) reps.push_back(r);
  }
  if (reps.empty()) return "best-of: no request ran";
  return Fmt("best-of: %zu of %zu requests ran, repetitions min %.0f median %.0f "
             "max %.0f; geomean of their fastest %.4g ms",
             reps.size(), reps_.size(), *std::min_element(reps.begin(), reps.end()),
             Median(reps), *std::max_element(reps.begin(), reps.end()), GeomeanMs());
}

std::string WallClockNote(const std::vector<double>& latency_ms, double window_s,
                          double tail) {
  return Fmt("wall clock (not gated): %zu requests, %.4g/s, p50 %.4g ms, "
             "p%.0f %.4g ms",
             latency_ms.size(), latency_ms.size() / window_s, Median(latency_ms),
             tail, Percentile(latency_ms, tail));
}

std::string RateSeries(const std::vector<double>& completion_s) {
  std::vector<size_t> per_second;
  for (double t : completion_s) {
    const size_t slot = static_cast<size_t>(t);
    if (per_second.size() <= slot) per_second.resize(slot + 1, 0);
    ++per_second[slot];
  }
  std::string out = "completions per second:";
  for (size_t n : per_second) out += Fmt(" %zu", n);
  return out;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string Fmt(const char* format, ...) {
  char buf[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {0};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {0};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

std::string FsType(const std::string& dir) {
  struct statfs st;
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    default: return Fmt("0x%lx", static_cast<unsigned long>(st.f_type));
  }
}

/// Busy loop whose result the compiler cannot discard.
uint64_t Spin(uint64_t iterations) {
  uint64_t x = 88172645463325252ULL;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Spin probe: how fast one thread spins (ns per iteration, a host-speed
/// reading to compare runs by) and how many threads' worth of spinning the
/// host actually runs in parallel: nproc * (one thread's time) / (nproc
/// threads' wall time).
struct SpinProbe {
  double ns_per_iteration;
  double capacity;
};

SpinProbe RunSpinProbe(unsigned nproc) {
  constexpr uint64_t kIterations = 20'000'000;
  std::vector<uint64_t> sink(nproc, 0);
  Clock::time_point start = Clock::now();
  sink[0] = Spin(kIterations);
  const double one = SecondsSince(start);
  start = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < nproc; ++i) {
    threads.emplace_back([&sink, i] { sink[i] = Spin(kIterations); });
  }
  for (auto& t : threads) t.join();
  const double all = SecondsSince(start);
  uint64_t acc = 0;
  for (uint64_t v : sink) acc ^= v;
  return {one / kIterations * 1e9, acc == 1 ? 0.0 : nproc * one / all};
}

}  // namespace

std::string HostFingerprint(const std::string& source_id,
                            const std::string& wal_dir) {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  const unsigned nproc = n > 0 ? static_cast<unsigned>(n) : 1;
  const SpinProbe spin = RunSpinProbe(nproc);
  return Fmt(
      "{\"nproc\": %u, \"spin_ns\": %.3f, \"spin_capacity\": %.2f, "
      "\"cpu\": \"%s\", "
      "\"compiler\": \"gcc %s\", \"build_type\": \"%s\", \"source\": \"%s\", "
      "\"wal_fs\": \"%s\"}",
      nproc, spin.ns_per_iteration, spin.capacity, CpuModel().c_str(),
      __VERSION__,
      FLEXBENCH_BUILD_TYPE, source_id.c_str(), FsType(wal_dir).c_str());
}

std::string LayerTable(const std::map<std::string, double>& layer) {
  std::string out = Fmt("%-10s %-36s %16s\n", "layer", "metric", "value");
  for (const MetricDef& def : PerLayerMetrics()) {
    const std::string& name = def.name;
    const auto it = layer.find(name);
    const std::string layer_name = name.substr(0, name.find('.'));
    out += Fmt("%-10s %-36s %16.6g %s%s\n", layer_name.c_str(),
               name.c_str() + layer_name.size() + 1,
               it == layer.end() ? 0.0 : it->second, def.unit.c_str(),
               it == layer.end() ? "  (layer not exercised)" : "");
  }
  return out;
}

}  // namespace flexbench
