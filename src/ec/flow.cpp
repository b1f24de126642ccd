#include "ec/flow.hpp"

#include "analysis/analyzer.hpp"
#include "dd/stats.hpp"
#include "ec/stabilizer_checker.hpp"
#include "util/deadline.hpp"

#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>

namespace qsimec::ec {

namespace {

/// Copy a finished simulation portfolio, DD profile included, into the flow
/// result. Checkers attach attribution only on non-cancelled exits, so a
/// race loser (whose partial profile depends on when the cancel landed)
/// contributes none.
void adoptSimulation(FlowResult& result, const CheckResult& sim) {
  result.simulations = sim.simulations;
  result.simulationSeconds = sim.seconds;
  result.simulationTimedOut = sim.timedOut;
  result.numThreads = sim.numThreads;
  result.counterexample = sim.counterexample;
  result.simulationAttribution = sim.attribution;
  dd::appendPackageStats(result.metrics, "simulation.dd", sim.ddStats);
}

/// The complete check's counterpart of adoptSimulation.
void adoptComplete(FlowResult& result, const CheckResult& complete) {
  result.completeSeconds = complete.seconds;
  result.completeTimedOut = complete.timedOut;
  result.completeAttribution = complete.attribution;
  dd::appendPackageStats(result.metrics, "complete.dd", complete.ddStats);
}

/// Roll the per-stage fields of a finished FlowResult into
/// FlowResult::metrics, next to the DD profiles the adopt* helpers already
/// put there. Runs on every exit path, so early-out counterexamples still
/// report their simulation cost.
void buildMetrics(FlowResult& result) {
  obs::MetricsSnapshot& m = result.metrics;
  m.counters["simulation.runs"] = result.simulations;
  m.counters["simulation.timed_out"] = result.simulationTimedOut ? 1 : 0;
  m.counters["simulation.cancelled"] = result.simulationCancelled ? 1 : 0;
  m.counters["simulation.threads"] = result.numThreads;
  m.counters["complete.timed_out"] = result.completeTimedOut ? 1 : 0;
  m.counters["complete.cancelled"] = result.completeCancelled ? 1 : 0;
  m.counters["rewriting.proved"] = result.provedByRewriting ? 1 : 0;
  m.counters["flow.diagnostics"] = result.diagnostics.size();
  m.counters["flow.counterexample"] = result.counterexample.has_value() ? 1 : 0;
  m.counters["prescreen.stripped_prefix"] = result.strippedPrefix;
  m.counters["prescreen.stripped_suffix"] = result.strippedSuffix;
  m.counters["prescreen.merged_rotations"] = result.mergedRotations;
  m.counters["tier.static"] =
      result.tier == analysis::TierHint::Static ? 1 : 0;
  m.counters["tier.stabilizer"] =
      result.tier == analysis::TierHint::Stabilizer ? 1 : 0;
  m.gauges["prescreen.seconds"] = result.prescreenSeconds;
  m.gauges["preflight.seconds"] = result.preflightSeconds;
  m.gauges["simulation.seconds"] = result.simulationSeconds;
  m.gauges["rewriting.seconds"] = result.rewritingSeconds;
  m.gauges["complete.seconds"] = result.completeSeconds;
  m.gauges["total.seconds"] = result.totalSeconds();
  const auto appendAttribution =
      [&m](const char* prefix, const std::optional<AttributionProfile>& attr) {
        if (!attr) {
          return;
        }
        const std::string base(prefix);
        m.counters[base + ".attr.gates_applied"] = attr->gatesApplied;
        m.counters[base + ".attr.peak_nodes_live"] = attr->peakNodesLive;
        m.counters[base + ".attr.hotspots"] = attr->hotspots.size();
      };
  appendAttribution("simulation", result.simulationAttribution);
  appendAttribution("complete", result.completeAttribution);
}

} // namespace

FlowResult EquivalenceCheckingFlow::run(const ir::QuantumComputation& qc1,
                                        const ir::QuantumComputation& qc2,
                                        const obs::Context& obs) const {
  FlowResult result;

  // no stimuli means no simulation stage, in every tier
  const std::size_t simsTotal = config_.simulation.maxSimulations;
  // Written by portfolio workers (serialized), read by the flow thread only
  // between stages — atomic so neither side races.
  std::atomic<std::size_t> simsDone{0};
  const auto enterStage = [&](std::string_view stage) {
    // a Mark (not a plain ring event): stage entries happen on the flow
    // thread in program order, so redacted postmortems stay deterministic
    obs.flightMark(stage);
    obs.log(obs::JournalLevel::Info, "flow.stage").str("stage", stage);
    if (config_.progress) {
      config_.progress(FlowProgress{stage,
                                    simsDone.load(std::memory_order_relaxed),
                                    simsTotal, toString(result.tier)});
    }
  };
  // The simulation stage runs on a copy of the configuration with a
  // completion callback that feeds the progress stream (chaining any
  // caller-installed callback). Installed only when someone listens, so the
  // default path stays callback-free. Race mode swaps in its own cancel flag.
  const auto runSimulation = [&](const std::atomic<bool>* raceCancel) {
    SimulationConfiguration simConfig = config_.simulation;
    if (config_.progress || simConfig.onRunCompleted) {
      const auto inner = simConfig.onRunCompleted;
      simConfig.onRunCompleted = [this, &simsDone, &result,
                                  inner](std::size_t done, std::size_t total) {
        simsDone.store(done, std::memory_order_relaxed);
        if (inner) {
          inner(done, total);
        }
        if (config_.progress) {
          config_.progress(
              FlowProgress{"simulation", done, total, toString(result.tier)});
        }
      };
    }
    if (raceCancel != nullptr) {
      simConfig.cancelFlag = raceCancel;
    }
    return SimulationChecker(simConfig).run(qc1, qc2, obs);
  };

  {
    obs::ScopedSpan flowSpan(obs.tracer, "flow", "flow", obs.flight);
    flowSpan.arg("qubits", static_cast<std::uint64_t>(qc1.qubits()));
    flowSpan.arg("gates_g", static_cast<std::uint64_t>(qc1.size()));
    flowSpan.arg("gates_g_prime", static_cast<std::uint64_t>(qc2.size()));
    obs.log(obs::JournalLevel::Info, "flow.start")
        .num("qubits", static_cast<std::uint64_t>(qc1.qubits()))
        .num("gates_g", static_cast<std::uint64_t>(qc1.size()))
        .num("gates_g_prime", static_cast<std::uint64_t>(qc2.size()))
        .str("mode", toString(config_.mode));

    // The stage sequence lives in an immediately-invoked lambda so that
    // every early exit (invalid input, counterexample, rewriting proof)
    // still falls through to the metrics rollup and span finalization.
    [&] {
      if (config_.validateInputs) {
        // Fig. 3 front-loads cheap simulations before the expensive DD
        // check; the static analysis preflight is cheaper still: reject
        // malformed pairs in O(gates) before any simulator sees them.
        enterStage("preflight");
        obs::ScopedSpan span(obs.tracer, "stage.preflight", "stage",
                             obs.flight);
        const util::Stopwatch watch;
        const analysis::CircuitAnalyzer analyzer({.lint = false});
        analysis::AnalysisReport report = analyzer.analyzePair(qc1, qc2);
        result.preflightSeconds = watch.seconds();
        span.arg("diagnostics",
                 static_cast<std::uint64_t>(report.diagnostics.size()));
        if (report.hasErrors()) {
          result.equivalence = Equivalence::InvalidInput;
          result.diagnostics = std::move(report.diagnostics);
          return;
        }
        result.diagnostics = std::move(report.diagnostics);
      }

      // The complete checker's inputs: the originals unless the prescreen
      // produced a stripped residual pair. The simulation stage always
      // keeps the originals — counterexample stimuli of the residual pair
      // would not distinguish the original circuits as stated.
      const ir::QuantumComputation* completeG = &qc1;
      const ir::QuantumComputation* completeGPrime = &qc2;
      ir::QuantumComputation residualG;
      ir::QuantumComputation residualGPrime;

      if (config_.prescreen.enabled) {
        enterStage("prescreen");
        const util::Stopwatch watch;
        analysis::PairProfile profile;
        {
          obs::ScopedSpan span(obs.tracer, "analysis.profile", "analysis");
          profile = analysis::profilePair(qc1, qc2);
          span.arg("gate_set", std::string(toString(profile.combined())));
        }
        analysis::PrescreenResult pre;
        {
          obs::ScopedSpan span(obs.tracer, "analysis.prescreen", "analysis");
          pre = analysis::prescreenPair(qc1, qc2);
          span.arg("verdict", std::string(toString(pre.verdict)));
          span.arg("stripped", static_cast<std::uint64_t>(
                                   pre.strippedPrefix + pre.strippedSuffix));
        }
        result.tier = analysis::routeTier(profile, pre);
        result.prescreenSeconds = watch.seconds();
        result.strippedPrefix = pre.strippedPrefix;
        result.strippedSuffix = pre.strippedSuffix;
        result.mergedRotations = pre.mergedRotations;
        obs.log(obs::JournalLevel::Info, "flow.tier")
            .str("tier", toString(result.tier))
            .str("gate_set", toString(profile.combined()))
            .str("verdict", toString(pre.verdict))
            .num("stripped_prefix",
                 static_cast<std::uint64_t>(pre.strippedPrefix))
            .num("stripped_suffix",
                 static_cast<std::uint64_t>(pre.strippedSuffix));

        // only the verdict-level QS rules ride along in the flow result;
        // the stripping/merging notes surface via `qsimec profile`
        for (analysis::Diagnostic& d : pre.diagnostics) {
          if (d.rule == analysis::rules::StaticallyIdentical ||
              d.rule == analysis::rules::StaticallyDistinct ||
              d.rule == analysis::rules::StaticallyEqualUpToPhase) {
            result.diagnostics.push_back(std::move(d));
          }
        }
        result.profile = profile;

        if (result.tier == analysis::TierHint::Static) {
          switch (pre.verdict) {
          case analysis::StaticVerdict::Identical:
            result.equivalence = Equivalence::Equivalent;
            break;
          case analysis::StaticVerdict::IdenticalUpToGlobalPhase:
            result.equivalence = Equivalence::EquivalentUpToGlobalPhase;
            break;
          default:
            // Distinct: a static disproof. No counterexample — the proof
            // is the non-identity residual factor, not a stimulus.
            result.equivalence = Equivalence::NotEquivalent;
            break;
          }
          return;
        }

        if (result.tier == analysis::TierHint::Stabilizer &&
            !config_.skipComplete) {
          enterStage("stabilizer");
          StabilizerConfiguration stabConfig;
          if (simsTotal == 0) {
            // the exact conjugation check alone still decides the pair
            stabConfig.maxSimulations = 0;
          }
          stabConfig.seed = config_.simulation.seed;
          // external cancellation (the batch scheduler) reaches every tier
          // through the complete check's flag
          stabConfig.cancelFlag = config_.complete.cancelFlag;
          const CheckResult stab =
              StabilizerChecker(stabConfig).run(qc1, qc2, obs);
          result.simulations = stab.simulations;
          result.completeSeconds = stab.seconds;
          result.counterexample = stab.counterexample;
          result.numThreads = stab.numThreads;
          result.equivalence = stab.equivalence;
          return;
        }

        if (pre.stripped() && !config_.skipComplete) {
          residualG = std::move(pre.residualG);
          residualGPrime = std::move(pre.residualGPrime);
          completeG = &residualG;
          completeGPrime = &residualGPrime;
        }
      }

      // One schedule for both modes: simulations, rewriting, complete
      // check. Race changes only how the complete check is launched — on
      // its own thread, concurrently with the simulations, instead of
      // inline after them — so the simulations move behind the launch.
      // Race degenerates to staged when either strategy is skipped: there
      // is nothing to race against.
      const bool race = config_.mode == FlowMode::Race && simsTotal > 0 &&
                        !config_.skipComplete;
      result.mode = race ? FlowMode::Race : FlowMode::Staged;
      CheckResult sim;
      CheckResult complete;

      // The verdict of both modes: a counterexample is a proof — and since
      // the complete check can only ever agree with it, preferring the
      // simulation keeps the race winner deterministic even when both
      // finish. Then a complete check that ran to the end. Otherwise the
      // paper's third outcome: unsuspicious simulations are a strong
      // indication of equivalence rather than "no information".
      const auto decide = [&] {
        if (sim.equivalence == Equivalence::NotEquivalent) {
          result.equivalence = Equivalence::NotEquivalent;
          result.winner = race ? RaceWinner::Simulation : RaceWinner::None;
        } else if (!config_.skipComplete && !complete.timedOut) {
          // a cancelled complete check reports NoInformation: a race
          // cancels it only after a counterexample, the batch scheduler
          // only when it abandons the pair
          result.equivalence = complete.equivalence;
          result.winner = race ? RaceWinner::Complete : RaceWinner::None;
        } else {
          result.equivalence = result.simulations > 0
                                   ? Equivalence::ProbablyEquivalent
                                   : Equivalence::NoInformation;
        }
      };

      if (simsTotal > 0 && !race) {
        enterStage("simulation");
        sim = runSimulation(nullptr);
        adoptSimulation(result, sim);
        if (sim.equivalence == Equivalence::NotEquivalent) {
          return decide();
        }
      }

      if (config_.tryRewriting) {
        // the cheap syntactic proof attempt, just before the expensive
        // complete check is launched
        enterStage("rewriting");
        obs::ScopedSpan span(obs.tracer, "checker.rewriting", "checker");
        const CheckResult rewritten =
            RewritingChecker(config_.rewriting).run(qc1, qc2);
        result.rewritingSeconds = rewritten.seconds;
        span.arg("outcome", toString(rewritten.equivalence));
        if (provedEquivalent(rewritten.equivalence)) {
          result.equivalence = rewritten.equivalence;
          result.provedByRewriting = true;
          return;
        }
      }

      if (config_.skipComplete) {
        return decide();
      }

      std::atomic<bool> cancelSim{false};
      std::atomic<bool> cancelComplete{false};
      AlternatingConfiguration completeConfig = config_.complete;
      if (race) {
        completeConfig.cancelFlag = &cancelComplete;
      }
      const auto runComplete = [&] {
        return AlternatingChecker(completeConfig)
            .run(*completeG, *completeGPrime, obs);
      };

      if (!race) {
        enterStage("complete");
        complete = runComplete();
      } else {
        enterStage("race");
        std::exception_ptr completeError;
        {
          // the complete check runs on its own thread, the simulation
          // portfolio on this one; the scope's closing brace joins
          std::jthread completeThread([&] {
            try {
              if (obs.flight != nullptr) {
                obs.flight->labelThread("race.complete");
              }
              complete = runComplete();
              if (!complete.timedOut && !complete.cancelled) {
                // conclusive either way: the simulations are moot
                cancelSim.store(true, std::memory_order_relaxed);
              }
            } catch (...) {
              completeError = std::current_exception();
              cancelSim.store(true, std::memory_order_relaxed);
            }
          });
          try {
            sim = runSimulation(&cancelSim);
          } catch (...) {
            cancelComplete.store(true, std::memory_order_relaxed);
            throw; // completeThread joins during unwinding
          }
          if (sim.equivalence == Equivalence::NotEquivalent) {
            cancelComplete.store(true, std::memory_order_relaxed);
          }
        }
        if (completeError) {
          std::rethrow_exception(completeError);
        }
        adoptSimulation(result, sim);
        result.simulationCancelled = sim.cancelled;
        result.completeCancelled = complete.cancelled;
        if (sim.cancelled) {
          obs.log(obs::JournalLevel::Info, "flow.race.cancelled")
              .str("loser", "simulation");
        }
        if (complete.cancelled) {
          obs.log(obs::JournalLevel::Info, "flow.race.cancelled")
              .str("loser", "complete");
        }
      }
      adoptComplete(result, complete);
      decide();
    }();

    obs.flightMark("flow.verdict",
                   static_cast<std::int64_t>(result.equivalence));
    flowSpan.arg("outcome", toString(result.equivalence));
    flowSpan.arg("tier", std::string(toString(result.tier)));
    flowSpan.arg("mode", toString(result.mode));
    if (result.mode == FlowMode::Race) {
      flowSpan.arg("winner", toString(result.winner));
    }
    obs.log(obs::JournalLevel::Info, "flow.verdict")
        .str("outcome", toString(result.equivalence))
        .str("tier", toString(result.tier))
        .str("mode", toString(result.mode))
        .str("winner", toString(result.winner))
        .num("simulations", static_cast<std::uint64_t>(result.simulations))
        .num("total_seconds", result.totalSeconds());
    if (config_.progress) {
      config_.progress(FlowProgress{"done",
                                    simsDone.load(std::memory_order_relaxed),
                                    simsTotal, toString(result.tier)});
    }
  }

  buildMetrics(result);
  if (obs.metrics != nullptr) {
    obs.metrics->merge(result.metrics);
  }
  return result;
}

} // namespace qsimec::ec
