// small_pairs and paper_pairs: closed loops with one caller driving
// parse -> EquivalenceCheckingFlow::run -> serialize in this process, plus
// the layer probes and checks both share.

#include "workloads.hpp"

#include "dd/package.hpp"
#include "ec/serialize.hpp"
#include "io/qasm.hpp"
#include "obs/context.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <spawn.h>
#include <stdexcept>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

namespace perfbench {

namespace qs = qsimec;

namespace {

double counter(const qs::obs::MetricsSnapshot& m, const std::string& name) {
  const auto it = m.counters.find(name);
  return it == m.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double gauge(const qs::obs::MetricsSnapshot& m, const std::string& name) {
  const auto it = m.gauges.find(name);
  return it == m.gauges.end() ? 0.0 : it->second;
}

double safeDiv(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

} // namespace

const std::vector<std::pair<std::string, std::string>>& layerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> units{
      {"io.parse_ms", "ms"},
      {"analysis.prescreen_ms", "ms"},
      {"analysis.static_share", "share"},
      {"analysis.stabilizer_share", "share"},
      {"analysis.stripped_gate_share", "share"},
      {"dd.construct_ms", "ms"},
      {"dd.construct_cold_ms", "ms"},
      {"dd.reset_ms", "ms"},
      {"dd.gc_runs", "count"},
      {"dd.gc_ms", "ms"},
      {"dd.fixed_share", "share"},
      {"dd.nodes_peak_live", "count"},
      {"dd.ops", "count"},
      {"dd.unique_hit_rate", "share"},
      {"dd.compute_hit_rate", "share"},
      {"sim.stimulus_ms", "ms"},
      {"sim.runs_per_verdict", "count"},
      {"sim.first_run_detect_share", "share"},
      {"sim.density", "ratio"},
      {"sim.neq_stimulus_share", "share"},
      {"sim.portfolio_efficiency", "ratio"},
      {"sim.stabilizer_ms", "ms"},
      {"ec.complete_ms", "ms"},
      {"ec.complete_peak_nodes", "count"},
      {"ec.complete_timeouts", "count"},
      {"ec.flow_other_ms", "ms"},
      {"ec.serialize_ms", "ms"},
      {"svc.fingerprint_us", "us"},
      {"svc.cache_lookup_us", "us"},
      {"svc.cache_store_us", "us"},
      {"svc.cache_hit_ratio", "share"},
      {"svc.cache_evictions", "count"},
      {"svc.evicted_s", "s"},
      {"svc.dispatched_share", "share"},
      {"daemon.admit_ms", "ms"},
      {"daemon.queue_wait_ms", "ms"},
      {"daemon.service_ms", "ms"},
      {"daemon.pool_busy_share", "share"},
      {"daemon.refused_share", "share"},
      {"obs.context_overhead_share", "share"},
      {"obs.bench_trace_overhead_share", "share"},
  };
  return units;
}

void LayerAccumulator::add(const Pair& pair, const qs::ec::FlowResult& result,
                           double parseSeconds, double runSeconds,
                           double serializeSeconds) {
  const qs::obs::MetricsSnapshot& m = result.metrics;
  ++requests_;
  parse_ += parseSeconds;
  serialize_ += serializeSeconds;
  prescreen_ += result.prescreenSeconds;
  flowOther_ += std::max(0.0, runSeconds - result.totalSeconds());
  strippedGates_ +=
      2.0 * static_cast<double>(result.strippedPrefix + result.strippedSuffix);
  totalGates_ += static_cast<double>(pair.g.size() + pair.gp.size());
  switch (result.tier) {
  case qs::analysis::TierHint::Static:
    ++staticTier_;
    return;
  case qs::analysis::TierHint::Stabilizer:
    ++stabilizerTier_;
    stabilizerSeconds_ += result.completeSeconds;
    return;
  case qs::analysis::TierHint::General:
    break;
  }
  ++general_;
  generalLatency_ += parseSeconds + runSeconds + serializeSeconds;
  const bool simRan = m.counters.count("simulation.dd.gc_runs") != 0;
  const bool completeRan = m.counters.count("complete.dd.gc_runs") != 0;
  packages_ += (simRan ? counter(m, "simulation.threads") : 0.0) +
               (completeRan ? 1.0 : 0.0);
  for (const std::string stage : {"simulation", "complete"}) {
    const std::string p = stage + ".dd.";
    gcRuns_ += counter(m, p + "gc_runs");
    gcSeconds_ += gauge(m, p + "gc_seconds");
    ops_ += counter(m, p + "apply_ops");
    uniqueLookups_ += counter(m, p + "unique_lookups");
    uniqueHits_ += counter(m, p + "unique_hits");
    computeHitsWeighted_ +=
        gauge(m, p + "compute_hit_rate") * counter(m, p + "apply_ops");
  }
  nodesPeak_ += std::max(counter(m, "simulation.dd.nodes_peak_live"),
                         counter(m, "complete.dd.nodes_peak_live"));
  if (simRan && result.simulations > 0) {
    ++simPairs_;
    simSeconds_ += result.simulationSeconds;
    simRuns_ += static_cast<double>(result.simulations);
    density_ += counter(m, "simulation.dd.v_nodes_peak_live") /
                std::ldexp(1.0, static_cast<int>(pair.qubits));
    if (result.equivalence == qs::ec::Equivalence::NotEquivalent &&
        result.counterexample) {
      ++simDisproofs_;
      disproofRuns_ += static_cast<double>(result.simulations);
      firstRunDisproofs_ += result.simulations == 1 ? 1 : 0;
    }
  }
  if (completeRan) {
    ++completeRuns_;
    completeSeconds_ += result.completeSeconds;
    completePeak_ += counter(m, "complete.dd.nodes_peak_live");
    completeTimeouts_ += result.completeTimedOut ? 1 : 0;
  }
}

double LayerAccumulator::fixedShare(double constructSeconds) const {
  return safeDiv(packages_ * constructSeconds + gcSeconds_, generalLatency_);
}

void LayerAccumulator::report(RunResult& out) const {
  const auto n = static_cast<double>(requests_);
  const auto g = static_cast<double>(general_);
  const auto set = [&out](const std::string& name, double value) {
    out.layers[name].value = value;
  };
  set("io.parse_ms", 1e3 * safeDiv(parse_, n));
  set("ec.serialize_ms", 1e3 * safeDiv(serialize_, n));
  set("analysis.prescreen_ms", 1e3 * safeDiv(prescreen_, n));
  set("ec.flow_other_ms", 1e3 * safeDiv(flowOther_, n));
  set("analysis.static_share", safeDiv(static_cast<double>(staticTier_), n));
  set("analysis.stabilizer_share",
      safeDiv(static_cast<double>(stabilizerTier_), n));
  set("analysis.stripped_gate_share", safeDiv(strippedGates_, totalGates_));
  set("sim.stabilizer_ms",
      1e3 * safeDiv(stabilizerSeconds_, static_cast<double>(stabilizerTier_)));
  set("dd.gc_runs", safeDiv(gcRuns_, g));
  set("dd.gc_ms", 1e3 * safeDiv(gcSeconds_, g));
  set("dd.nodes_peak_live", safeDiv(nodesPeak_, g));
  set("dd.ops", safeDiv(ops_, g));
  set("dd.unique_hit_rate", safeDiv(uniqueHits_, uniqueLookups_));
  set("dd.compute_hit_rate", safeDiv(computeHitsWeighted_, ops_));
  set("sim.stimulus_ms", 1e3 * safeDiv(simSeconds_, simRuns_));
  set("sim.runs_per_verdict",
      safeDiv(disproofRuns_, static_cast<double>(simDisproofs_)));
  set("sim.first_run_detect_share",
      safeDiv(static_cast<double>(firstRunDisproofs_),
              static_cast<double>(simDisproofs_)));
  set("sim.density", safeDiv(density_, static_cast<double>(simPairs_)));
  const auto c = static_cast<double>(completeRuns_);
  set("ec.complete_ms", 1e3 * safeDiv(completeSeconds_, c));
  set("ec.complete_peak_nodes", safeDiv(completePeak_, c));
  set("ec.complete_timeouts", static_cast<double>(completeTimeouts_));
}

double peakRssMb(pid_t pid) {
  std::ifstream status(pid == 0 ? std::string("/proc/self/status")
                                : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

double coldStartSeconds(const RunOptions& options, int repeats) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    std::vector<std::string> args{options.selfPath, "--cold-probe"};
    std::vector<char*> argv;
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    const auto start = Clock::now();
    pid_t pid = 0;
    if (posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(), environ) != 0) {
      throw std::runtime_error("cannot spawn the cold-start probe");
    }
    int status = 0;
    waitpid(pid, &status, 0);
    samples.push_back(secondsBetween(start, Clock::now()));
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("cold-start probe failed");
    }
  }
  return median(samples);
}

int coldProbeMain() {
  // the ROADMAP's reference fixed-cost case: a 4-qubit GHZ self-check
  const std::string ghz = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\n"
                          "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\n";
  const qs::ir::QuantumComputation g = qs::io::parseQasmString(ghz, "g");
  const qs::ir::QuantumComputation gp = qs::io::parseQasmString(ghz, "gp");
  qs::ec::FlowConfiguration config;
  config.simulation.numThreads = 1;
  config.prescreen.enabled = false; // force the DD path
  const qs::ec::FlowResult result =
      qs::ec::EquivalenceCheckingFlow(config).run(g, gp);
  const std::string json = qs::ec::toJson(result);
  return qs::ec::provedEquivalent(result.equivalence) && !json.empty() ? 0 : 1;
}

DDFixedCosts measureDDFixedCosts(std::size_t qubits, SpanRecorder& spans) {
  DDFixedCosts costs;
  const auto timeConstruct = [&] {
    const auto start = Clock::now();
    const std::uint32_t span = spans.begin("dd.construct");
    auto pkg = std::make_unique<qs::dd::Package>(qubits);
    spans.end(span);
    return std::make_pair(secondsBetween(start, Clock::now()), std::move(pkg));
  };
  costs.constructColdMs = 1e3 * timeConstruct().first;
  std::vector<double> construct;
  std::vector<double> reset;
  for (int i = 0; i < 7; ++i) {
    auto [seconds, pkg] = timeConstruct();
    construct.push_back(seconds);
    const auto start = Clock::now();
    const std::uint32_t span = spans.begin("dd.reset");
    pkg->resetComputationState();
    spans.end(span);
    reset.push_back(secondsBetween(start, Clock::now()));
  }
  costs.constructWarmMs = 1e3 * median(construct);
  costs.resetMs = 1e3 * median(reset);
  return costs;
}

std::size_t determinismMismatches(const std::vector<Pair>& sample,
                                  unsigned nproc) {
  std::size_t mismatches = 0;
  qs::ec::SerializeOptions redacted;
  redacted.redactProfile = true;
  for (const Pair& pair : sample) {
    std::string bytes[2];
    const unsigned threads[2] = {1, nproc};
    for (int k = 0; k < 2; ++k) {
      qs::ec::FlowConfiguration config;
      config.simulation.numThreads = threads[k];
      bytes[k] = qs::ec::toJson(
          qs::ec::EquivalenceCheckingFlow(config).run(pair.g, pair.gp), redacted);
    }
    mismatches += bytes[0] == bytes[1] ? 0 : 1;
  }
  return mismatches;
}

double obsContextOverhead(const std::vector<Pair>& sample) {
  qs::ec::FlowConfiguration config;
  config.simulation.numThreads = 1;
  const qs::ec::EquivalenceCheckingFlow flow(config);
  double bare = 0.0;
  double observed = 0.0;
  for (const Pair& pair : sample) {
    // alternate which side runs first so drift charges both equally
    for (int k = 0; k < 2; ++k) {
      const bool withSinks = (k == 0) == (&pair - sample.data()) % 2 == 0;
      qs::obs::Tracer tracer;
      qs::obs::MetricsRegistry metrics;
      qs::obs::Journal journal;
      qs::obs::LiveGauges live;
      qs::obs::FlightRecorder flight;
      qs::obs::Context context;
      if (withSinks) {
        context = {&tracer, &metrics, &journal, &live, &flight};
      }
      const auto start = Clock::now();
      const qs::ec::FlowResult result = flow.run(pair.g, pair.gp, context);
      (withSinks ? observed : bare) += secondsBetween(start, Clock::now());
      (void)result;
    }
  }
  return safeDiv(observed - bare, bare);
}

namespace {

struct ClosedLoop {
  std::vector<double> latencies;
  /// Sum of latencies over the known-equivalent / known-non-equivalent
  /// pairs of each complete pass over the list.
  std::vector<double> eqPassSums;
  std::vector<double> neqPassSums;
  std::size_t attempted{0};
  std::size_t failed{0};
  std::size_t wrong{0};
  std::size_t conclusive{0};
  double busySeconds{0.0};
  LayerAccumulator layers;
  std::vector<qs::ec::FlowResult> firstPass;
};

/// Closed loop with one caller: request i checks pairs[i % size]. Runs as
/// many whole passes over the list as fit in `seconds` of request time (at
/// least one), so every figure weighs each pair equally; or exactly
/// `requests` requests when that is non-zero.
ClosedLoop runClosedLoop(const std::vector<Pair>& pairs,
                         const qs::ec::FlowConfiguration& config, double seconds,
                         std::size_t requests, SpanRecorder& spans,
                         VerdictJudge& judgeVerdict, bool keepFirstPass) {
  ClosedLoop loop;
  const qs::ec::EquivalenceCheckingFlow flow(config);
  double eqSum = 0.0;
  double neqSum = 0.0;
  for (std::size_t i = 0;; ++i) {
    if (requests != 0) {
      if (i >= requests) {
        break;
      }
    } else if (i > 0 && i % pairs.size() == 0) {
      const double perPass =
          loop.busySeconds / static_cast<double>(i / pairs.size());
      if (loop.busySeconds + perPass > seconds) {
        break;
      }
    }
    const std::size_t index = i % pairs.size();
    const Pair& pair = pairs[index];
    ++loop.attempted;
    qs::ec::FlowResult result;
    double parse = 0.0;
    double run = 0.0;
    double serialize = 0.0;
    const auto t0 = Clock::now();
    try {
      const ScopedSpan request(spans, "request");
      qs::ir::QuantumComputation g;
      qs::ir::QuantumComputation gp;
      {
        const ScopedSpan span(spans, "io.parse", request.id());
        g = parseCircuit(pair.gFormat, pair.gText);
        gp = parseCircuit(pair.gpFormat, pair.gpText);
      }
      const auto t1 = Clock::now();
      {
        const ScopedSpan span(spans, "ec.flow", request.id());
        result = flow.run(g, gp);
      }
      const auto t2 = Clock::now();
      std::string json;
      {
        const ScopedSpan span(spans, "ec.serialize", request.id());
        json = qs::ec::toJson(result);
      }
      const auto t3 = Clock::now();
      parse = secondsBetween(t0, t1);
      run = secondsBetween(t1, t2);
      serialize = secondsBetween(t2, t3);
      if (json.empty()) {
        throw std::runtime_error("empty serialization");
      }
    } catch (const std::exception&) {
      ++loop.failed;
      loop.busySeconds += secondsBetween(t0, Clock::now());
      continue;
    }
    const double latency = parse + run + serialize;
    loop.busySeconds += latency;
    loop.latencies.push_back(latency);
    (pair.equivalent ? eqSum : neqSum) += latency;
    if (index + 1 == pairs.size()) {
      loop.eqPassSums.push_back(eqSum);
      loop.neqPassSums.push_back(neqSum);
      eqSum = neqSum = 0.0;
    }
    loop.layers.add(pair, result, parse, run, serialize);

    // untimed: compare with the known answer (replaying counterexamples)
    const Judgement judgement =
        judgeVerdict(index, result.equivalence, result.counterexample);
    loop.wrong += judgement == Judgement::Wrong ? 1 : 0;
    loop.conclusive += judgement == Judgement::Inconclusive ? 0 : 1;
    if (keepFirstPass && i < pairs.size()) {
      loop.firstPass.push_back(std::move(result));
    }
  }
  return loop;
}

void reportLatencies(RunResult& out, const std::vector<double>& latencies,
                     const std::string& suffix) {
  out.endToEnd["latency_p50_ms" + suffix] = {1e3 * percentile(latencies, 50), "ms"};
  out.endToEnd["latency_p90_ms" + suffix] = {1e3 * percentile(latencies, 90), "ms"};
  const std::optional<double> top = highestReportablePercentile(latencies.size());
  out.notes["latency_samples" + suffix] = std::to_string(latencies.size());
  out.notes["latency_top_percentile" + suffix] =
      top ? "p" + std::to_string(*top).substr(0, 4) + " = " +
                std::to_string(1e3 * percentile(latencies, *top)) + " ms"
          : "none (fewer than 10 samples beyond the median)";
}

void writeTrace(const RunOptions& options, const std::string& workload,
                const SpanRecorder& spans) {
  const std::string base = options.workDir + "/trace-" + workload + "-" +
                           std::to_string(options.seed);
  std::ofstream(base + ".json") << spans.toChromeTraceJson();
  std::ofstream(base + ".folded") << toFoldedText(foldSelfTime(spans.spans()));
}

std::size_t medianQubits(const std::vector<Pair>& pairs) {
  std::vector<double> q;
  for (const Pair& p : pairs) {
    q.push_back(static_cast<double>(p.qubits));
  }
  return static_cast<std::size_t>(std::lround(median(q)));
}

/// The shared body of both closed-loop workloads.
RunResult runLibraryWorkload(const RunOptions& options, const std::string& name,
                             const std::vector<Pair>& pairs,
                             const qs::ec::FlowConfiguration& config,
                             std::size_t obsSample) {
  RunResult out;
  out.notes["input_digest"] = inputDigest(pairs);
  out.notes["pairs"] = std::to_string(pairs.size());
  VerdictJudge judgeVerdict(pairs);

  if (!options.trace) {
    out.endToEnd["setup_s"] = {coldStartSeconds(options, 5), "s"};
    SpanRecorder off(false);
    const ClosedLoop loop =
        runClosedLoop(pairs, config, options.seconds, 0, off, judgeVerdict, false);
    out.attempted = loop.attempted;
    out.failed = loop.failed;
    out.wrong = loop.wrong;
    const double pps =
        static_cast<double>(loop.latencies.size()) / loop.busySeconds;
    out.endToEnd["pairs_per_s"] = {pps, "1/s"};
    reportLatencies(out, loop.latencies, "");
    // a closed loop has one load point: the .low figures and the
    // sustained rate repeat it (README.md, "One metric set")
    reportLatencies(out, loop.latencies, ".low");
    out.endToEnd["max_rps_at_slo"] = {pps, "1/s"};
    out.endToEnd["eq_verdict_s"] = {median(loop.eqPassSums), "s"};
    out.endToEnd["neq_verdict_s"] = {median(loop.neqPassSums), "s"};
    out.endToEnd["conclusive_share"] = {
        static_cast<double>(loop.conclusive) /
            static_cast<double>(std::max<std::size_t>(loop.latencies.size(), 1)),
        "share"};
    out.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};
    out.notes["passes"] = std::to_string(loop.eqPassSums.size());
    return out;
  }

  // traced run: fixed DD costs first, while this process is still cold
  SpanRecorder spans(true);
  const DDFixedCosts dd = measureDDFixedCosts(medianQubits(pairs), spans);
  // the same requests untraced, then traced: the difference is the cost of
  // the benchmark's own spans
  SpanRecorder off(false);
  const ClosedLoop untraced =
      runClosedLoop(pairs, config, options.seconds / 2, 0, off, judgeVerdict, false);
  const ClosedLoop traced = runClosedLoop(pairs, config, 0, untraced.attempted,
                                          spans, judgeVerdict, true);
  out.attempted = untraced.attempted + traced.attempted;
  out.failed = untraced.failed + traced.failed;
  out.wrong = untraced.wrong + traced.wrong;
  traced.layers.report(out);
  const SelfTimeFold fold = foldSelfTime(spans.spans());
  const auto n = static_cast<double>(traced.latencies.size());
  out.layers["io.parse_ms"].value = 1e-3 * fold.byName.at("io.parse") / n;
  out.layers["ec.serialize_ms"].value = 1e-3 * fold.byName.at("ec.serialize") / n;
  out.layers["dd.construct_ms"].value = dd.constructWarmMs;
  out.layers["dd.construct_cold_ms"].value = dd.constructColdMs;
  out.layers["dd.reset_ms"].value = dd.resetMs;
  out.layers["dd.fixed_share"].value =
      traced.layers.fixedShare(dd.constructWarmMs / 1e3);
  // over the first pass: the share of time to a non-equivalence verdict
  // spent in the simulation stage, and the general-tier pairs by cost
  double neqSim = 0.0;
  double neqTotal = 0.0;
  std::vector<std::pair<double, std::size_t>> general;
  for (std::size_t i = 0; i < traced.firstPass.size(); ++i) {
    if (!pairs[i].equivalent) {
      neqSim += traced.firstPass[i].simulationSeconds;
      neqTotal += traced.latencies[i];
    }
    if (traced.firstPass[i].tier == qs::analysis::TierHint::General) {
      general.emplace_back(traced.latencies[i], i);
    }
  }
  std::sort(general.begin(), general.end());
  out.layers["sim.neq_stimulus_share"].value = safeDiv(neqSim, neqTotal);
  out.layers["obs.bench_trace_overhead_share"].value =
      safeDiv(traced.busySeconds - untraced.busySeconds, untraced.busySeconds);

  // cross-thread determinism on the three cheapest general-tier pairs of
  // each known answer, and the cost of a full obs::Context on the cheapest
  std::vector<Pair> sample;
  for (const bool equivalent : {true, false}) {
    std::size_t taken = 0;
    for (const auto& [latency, i] : general) {
      if (pairs[i].equivalent == equivalent && taken++ < 3) {
        sample.push_back(pairs[i]);
      }
    }
  }
  const std::size_t mismatches = determinismMismatches(sample, options.nproc);
  out.notes["determinism_sample"] = std::to_string(sample.size());
  out.notes["determinism_mismatches"] = std::to_string(mismatches);
  out.correct = mismatches == 0;
  if (obsSample > 0) {
    std::vector<Pair> obsPairs;
    for (std::size_t k = 0; k < std::min(obsSample, general.size()); ++k) {
      obsPairs.push_back(pairs[general[k].second]);
    }
    out.layers["obs.context_overhead_share"].value = obsContextOverhead(obsPairs);
  }
  out.notes["traced_requests"] = std::to_string(traced.latencies.size());
  writeTrace(options, name, spans);
  return out;
}

} // namespace

RunResult runSmallPairs(const RunOptions& options) {
  const std::vector<Pair> pairs = fuzzPairs(options.seed, 384, false, 1);
  qs::ec::FlowConfiguration config;
  config.simulation.numThreads = 1;
  RunResult out = runLibraryWorkload(options, "small_pairs", pairs, config, 16);
  if (options.trace) {
    measureServiceLayers(options, out);
  }
  return out;
}

RunResult runPaperPairs(const RunOptions& options) {
  const std::vector<Pair> pairs = paperPairs(options.seed);
  const qs::ec::FlowConfiguration config; // library default thread count
  RunResult out = runLibraryWorkload(options, "paper_pairs", pairs, config, 0);
  if (options.trace) {
    // portfolio efficiency of the simulation stage: t1 / (nproc * t_nproc)
    // over the known-equivalent pairs, which run every stimulus
    double t1 = 0.0;
    double tn = 0.0;
    for (const Pair& pair : pairs) {
      if (!pair.equivalent) {
        continue;
      }
      for (const unsigned threads : {1U, options.nproc}) {
        qs::ec::FlowConfiguration c;
        c.simulation.numThreads = threads;
        c.skipComplete = true;
        const double s =
            qs::ec::EquivalenceCheckingFlow(c).run(pair.g, pair.gp).simulationSeconds;
        (threads == 1 ? t1 : tn) += s;
      }
    }
    out.layers["sim.portfolio_efficiency"].value =
        tn > 0 ? t1 / (static_cast<double>(options.nproc) * tn) : 0.0;
  }
  return out;
}

} // namespace perfbench
