// flexbench: end-to-end benchmark of the GraphScope Flex stack.
//
//   flexbench --workload htap|bi|analytics --seed N --seconds S --trace 0|1
//             --work-dir DIR [--source-id ID] [--corrupt]
//
// Prints the host fingerprint, sample counts, oracle results and (traced
// runs) the per-layer table, then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. run.py builds this binary and is the intended entry point.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace flexbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: flexbench --workload htap|bi|analytics --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--source-id ID] "
               "[--corrupt]\n");
  return 2;
}

void PrintResult(const Outcome& outcome, bool trace) {
  const auto& defs = trace ? PerLayerMetrics() : EndToEndMetrics();
  const auto& values = trace ? outcome.layer : outcome.e2e;
  std::string metrics;
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0.0;
    if (!metrics.empty()) metrics += ", ";
    metrics += Fmt("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   def.name.c_str(), v, def.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              outcome.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              metrics.c_str());
}

}  // namespace
}  // namespace flexbench

int main(int argc, char** argv) {
  using namespace flexbench;
  Options options;
  std::string source_id = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--corrupt") {
      options.corrupt = true;
    } else if (!has_value) {
      return Usage();
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = options.seconds > 0;
    } else if (arg == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return Usage();
      options.trace = v == "1";
      have_trace = true;
    } else if (arg == "--work-dir") {
      options.work_dir = argv[++i];
    } else if (arg == "--source-id") {
      source_id = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace || options.work_dir.empty()) {
    return Usage();
  }
  Outcome (*run)(const Options&) = nullptr;
  if (options.workload == "htap") run = &RunHtap;
  if (options.workload == "bi") run = &RunBi;
  if (options.workload == "analytics") run = &RunAnalytics;
  if (run == nullptr) return Usage();

  std::filesystem::create_directories(options.work_dir);
  std::printf("host: %s\n",
              HostFingerprint(source_id, options.work_dir).c_str());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d corrupt=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.corrupt ? 1 : 0);
  std::fflush(stdout);

  const Outcome outcome = run(options);
  for (const std::string& note : outcome.notes) {
    std::printf("%s\n", note.c_str());
  }
  if (options.trace) {
    std::printf("per-layer table (traced half of the window):\n%s",
                LayerTable(outcome.layer).c_str());
  }
  PrintResult(outcome, options.trace);
  return 0;
}
