// The two workloads and what they share: run options, the metric record
// each run prints, and the per-request layer accounting of a flow result.

#pragma once

#include "pairs.hpp"
#include "trace.hpp"

#include "ec/flow.hpp"

#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// The perfbench binary itself (re-executed for cold-start probes).
  std::string selfPath;
  /// The `qsimec` CLI binary (the service layers run `qsimec serve`).
  std::string qsimecPath;
  /// Working directory inside the checkout (circuit files, socket, trace).
  std::string workDir;
  unsigned nproc{1};
};

struct Metric {
  double value{0.0};
  std::string unit;
};

struct RunResult {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  /// Wrong verdicts (also folded into `correct`).
  std::uint64_t wrong{0};
  std::map<std::string, Metric> endToEnd;
  std::map<std::string, Metric> layers;
  /// Provenance and human-readable findings, printed before the result.
  std::map<std::string, std::string> notes;
};

/// Every per-layer metric name with its unit, in output order. A workload
/// that never touches a layer reports 0 for it.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
layerMetricUnits();

/// Sums of the per-request layer figures a flow result carries (stage
/// seconds, tier, DD counters) plus the spans' own parse/serialize times.
class LayerAccumulator {
public:
  void add(const Pair& pair, const qsimec::ec::FlowResult& result,
           double parseSeconds, double runSeconds, double serializeSeconds);
  /// Fill RunResult::layers with the io/analysis/dd/sim/ec metrics.
  void report(RunResult& out) const;
  /// Mean DD fixed cost per general-tier request given the per-package
  /// construction cost: packages built x construct + GC time.
  [[nodiscard]] double fixedShare(double constructSeconds) const;

private:
  std::size_t requests_{0};
  double parse_{0}, serialize_{0}, prescreen_{0}, flowOther_{0};
  std::size_t staticTier_{0}, stabilizerTier_{0};
  double stabilizerSeconds_{0};
  double strippedGates_{0}, totalGates_{0};
  // general tier
  std::size_t general_{0};
  double generalLatency_{0};
  double packages_{0};
  double gcRuns_{0}, gcSeconds_{0};
  double nodesPeak_{0}, ops_{0};
  double uniqueLookups_{0}, uniqueHits_{0};
  double computeHitsWeighted_{0};
  double simSeconds_{0}, simRuns_{0};
  std::size_t simPairs_{0};
  double density_{0};
  std::size_t simDisproofs_{0}, firstRunDisproofs_{0};
  double disproofRuns_{0};
  std::size_t completeRuns_{0}, completeTimeouts_{0};
  double completeSeconds_{0}, completePeak_{0};
};

/// Process peak resident set (VmHWM) in MiB; `pid` 0 means this process.
[[nodiscard]] double peakRssMb(pid_t pid = 0);

/// Cold start of the library: re-execute this binary in --cold-probe mode
/// `repeats` times and return the median wall seconds of one child (parse,
/// flow.run and serialize of one small pair in a fresh process).
[[nodiscard]] double coldStartSeconds(const RunOptions& options, int repeats);

/// The --cold-probe body.
int coldProbeMain();

/// Median wall milliseconds of dd::Package construction on `qubits` (the
/// first call of the process is reported separately as cold) and of
/// resetComputationState() on a freshly built package.
struct DDFixedCosts {
  double constructColdMs{0};
  double constructWarmMs{0};
  double resetMs{0};
};
[[nodiscard]] DDFixedCosts measureDDFixedCosts(std::size_t qubits,
                                               SpanRecorder& spans);

/// Traced runs only: redacted flow verdict bytes at --threads 1 and nproc
/// must match for every sampled pair (the cross-thread contract). Returns
/// the number of mismatching pairs.
[[nodiscard]] std::size_t determinismMismatches(const std::vector<Pair>& sample,
                                                unsigned nproc);

/// Traced runs only: flow.run with every obs::Context sink attached versus
/// none, over `sample`; returns (with - without) / without of summed wall
/// time.
[[nodiscard]] double obsContextOverhead(const std::vector<Pair>& sample);

RunResult runSmallPairs(const RunOptions& options);
RunResult runPaperPairs(const RunOptions& options);

/// Traced small_pairs runs only: the svc and daemon layers, measured with
/// four closed-loop clients sending small manifests to a `qsimec serve`
/// child (service_layers.cpp). Fills their per-layer metrics into `out`.
void measureServiceLayers(const RunOptions& options, RunResult& out);

} // namespace perfbench
