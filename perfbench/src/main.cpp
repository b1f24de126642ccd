// perfbench: the qsimec benchmark binary. See README.md.
//
//   perfbench --workload small_pairs|paper_pairs --seed N
//             --seconds S --trace 0|1 --qsimec PATH --work DIR
//
// Prints provenance and findings as "# key: value" lines, then one JSON
// result line: {"correct":...,"attempted":...,"failed":...,"metrics":{...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).

#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <unistd.h>

namespace perfbench {
int runSelfTests();
} // namespace perfbench

namespace {

using namespace perfbench;

/// A seed kept out of all tuning; a later gain claim must also hold on it.
constexpr std::uint64_t kHeldOutSeed = 20261017;

std::string cpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Debug and sanitizer builds measure the instrumentation, not the program.
const char* refusedBuild() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo" && type != "MinSizeRel") {
    return "not an optimized build (CMAKE_BUILD_TYPE=" PERFBENCH_BUILD_TYPE ")";
  }
  if (std::strlen(PERFBENCH_SANITIZE) != 0) {
    return "sanitizer build (QSIMEC_SANITIZE=" PERFBENCH_SANITIZE ")";
  }
#ifndef NDEBUG
  return "assertions enabled (NDEBUG unset)";
#else
  return nullptr;
#endif
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string resultLine(const RunResult& result, bool trace) {
  std::string metrics;
  const auto emit = [&metrics](const std::string& name, const Metric& m) {
    metrics += (metrics.empty() ? "\"" : ",\"") + name + "\":{\"value\":" +
               number(m.value) + ",\"unit\":\"" + m.unit + "\"}";
  };
  if (trace) {
    for (const auto& [name, unit] : layerMetricUnits()) {
      const auto it = result.layers.find(name);
      emit(name, {it == result.layers.end() ? 0.0 : it->second.value, unit});
    }
  } else {
    for (const auto& [name, metric] : result.endToEnd) {
      emit(name, metric);
    }
  }
  return std::string("{\"correct\":") +
         (result.correct && result.wrong == 0 ? "true" : "false") +
         ",\"attempted\":" + std::to_string(result.attempted) +
         ",\"failed\":" + std::to_string(result.failed) + ",\"metrics\":{" +
         metrics + "}}";
}

int usage() {
  std::cerr << "usage: perfbench --workload small_pairs|paper_pairs "
               "--seed N --seconds S --trace 0|1 --qsimec PATH --work DIR\n"
               "       perfbench --selftest | --cold-probe\n";
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--cold-probe") {
      return coldProbeMain();
    }
    if (arg == "--selftest") {
      return runSelfTests();
    }
    try {
      if (arg == "--workload") {
        workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() == "1";
      } else if (arg == "--qsimec") {
        options.qsimecPath = value();
      } else if (arg == "--work") {
        options.workDir = value();
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (workload.empty() || options.workDir.empty() || options.seconds <= 0) {
    return usage();
  }
  if (const char* reason = refusedBuild()) {
    std::cerr << "perfbench: refusing to measure: " << reason << "\n";
    return 3;
  }
  if (runSelfTests() != 0) {
    std::cerr << "perfbench: measurement self-checks failed\n";
    return 1;
  }
  options.selfPath = "/proc/self/exe";
  {
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
      options.selfPath.assign(buf, static_cast<std::size_t>(n));
    }
  }
  options.nproc = std::max(1U, std::thread::hardware_concurrency());

  RunResult result;
  try {
    if (workload == "small_pairs") {
      result = runSmallPairs(options);
    } else if (workload == "paper_pairs") {
      result = runPaperPairs(options);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << "\n";
    return 1;
  }

  result.notes["workload"] = workload;
  result.notes["seed"] = std::to_string(options.seed);
  result.notes["held_out_seed"] = std::to_string(kHeldOutSeed);
  result.notes["nproc"] = std::to_string(options.nproc);
  result.notes["cpu"] = cpuModel();
  result.notes["compiler"] = PERFBENCH_COMPILER;
  result.notes["build_type"] = PERFBENCH_BUILD_TYPE;
  result.notes["trace"] = options.trace ? "1" : "0";
  result.notes["wrong_verdicts"] = std::to_string(result.wrong);
  result.notes["failed_share"] =
      std::to_string(result.attempted == 0
                         ? 0.0
                         : static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted));
  const std::string line = resultLine(result, options.trace);
  std::ofstream record(options.workDir + "/result-" + workload + "-" +
                       std::to_string(options.seed) + "-trace" +
                       (options.trace ? "1" : "0") + ".txt");
  for (const auto& [key, value] : result.notes) {
    std::cout << "# " << key << ": " << value << "\n";
    record << "# " << key << ": " << value << "\n";
  }
  record << line << "\n";
  std::cout << line << std::endl;
  return 0;
}
