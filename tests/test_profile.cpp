// The semantic pair profiler: gate-set classification, the static
// prescreen (prefix/suffix cancellation, rotation merging, QS verdict
// rules), the tier router, and the stabilizer-tier checker.
//
// The soundness anchor is the dense oracle: for every pair small enough to
// enumerate, a static verdict must agree with the column-by-column unitary
// comparison, and the routed flow must produce the same verdict as the
// unrouted (prescreen-off) flow — byte-identical under verdict-only
// serialization at every thread count.

#include "analysis/analyzer.hpp"
#include "analysis/prescreen.hpp"
#include "analysis/profile.hpp"
#include "ec/flow.hpp"
#include "ec/serialize.hpp"
#include "ec/stabilizer_checker.hpp"
#include "gen/qft.hpp"
#include "gen/random_circuits.hpp"
#include "obs/context.hpp"
#include "obs/tracer.hpp"
#include "sim/dense_simulator.hpp"
#include "transform/decomposition.hpp"
#include "transform/error_injector.hpp"
#include "transform/mapper.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <random>
#include <string>
#include <vector>

using namespace qsimec;

namespace {

constexpr double kPi = std::numbers::pi;

ir::QuantumComputation paperCircuitG() {
  ir::QuantumComputation qc(3, "fig1b");
  qc.h(1);
  qc.cx(1, 0);
  qc.h(2);
  qc.h(1);
  qc.cx(2, 1);
  qc.h(2);
  qc.cx(2, 1);
  qc.cx(1, 0);
  return qc;
}

ir::QuantumComputation paperCircuitGPrime() {
  ir::QuantumComputation qc(3, "fig2");
  qc.h(1);
  qc.cx(1, 0);
  qc.h(2);
  qc.h(1);
  qc.swap(1, 2);
  qc.cx(1, 2);
  qc.swap(1, 2);
  qc.h(2);
  qc.cx(2, 1);
  qc.cx(1, 0);
  return qc;
}

/// A random Clifford-only circuit over {H, S, Sdg, X, Y, Z, CX, CZ, SWAP}.
ir::QuantumComputation randomClifford(std::size_t nqubits, std::size_t ngates,
                                      std::uint64_t seed) {
  ir::QuantumComputation qc(nqubits, "clifford" + std::to_string(seed));
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> gateDist(0, 8);
  std::uniform_int_distribution<std::size_t> qubitDist(0, nqubits - 1);
  for (std::size_t i = 0; i < ngates; ++i) {
    const auto q = static_cast<ir::Qubit>(qubitDist(rng));
    switch (gateDist(rng)) {
    case 0:
      qc.h(q);
      break;
    case 1:
      qc.s(q);
      break;
    case 2:
      qc.sdg(q);
      break;
    case 3:
      qc.x(q);
      break;
    case 4:
      qc.y(q);
      break;
    case 5:
      qc.z(q);
      break;
    default: {
      auto c = static_cast<ir::Qubit>(qubitDist(rng));
      if (c == q) {
        c = static_cast<ir::Qubit>((c + 1) % nqubits);
      }
      if (nqubits < 2) {
        qc.h(q);
      } else if (gateDist(rng) % 3 == 0) {
        qc.swap(c, q);
      } else if (gateDist(rng) % 2 == 0) {
        qc.cz(c, q);
      } else {
        qc.cx(c, q);
      }
      break;
    }
    }
  }
  return qc;
}

enum class OracleVerdict { Equal, EqualUpToPhase, Different };

/// Column-by-column dense comparison of the two unitaries (exponential —
/// for small widths only).
OracleVerdict denseOracle(const ir::QuantumComputation& a,
                          const ir::QuantumComputation& b) {
  const std::uint64_t dim = 1ULL << a.qubits();
  std::complex<double> phase{0.0, 0.0};
  bool phaseKnown = false;
  for (std::uint64_t col = 0; col < dim; ++col) {
    const auto ua = sim::DenseSimulator::simulate(a, col);
    const auto ub = sim::DenseSimulator::simulate(b, col);
    for (std::uint64_t row = 0; row < dim; ++row) {
      if (std::abs(ub[row]) < 1e-10 && std::abs(ua[row]) < 1e-10) {
        continue;
      }
      if (std::abs(ub[row]) < 1e-10 || std::abs(ua[row]) < 1e-10) {
        return OracleVerdict::Different;
      }
      const std::complex<double> ratio = ua[row] / ub[row];
      if (std::abs(std::abs(ratio) - 1.0) > 1e-9) {
        return OracleVerdict::Different;
      }
      if (!phaseKnown) {
        phase = ratio;
        phaseKnown = true;
      } else if (std::abs(ratio - phase) > 1e-9) {
        return OracleVerdict::Different;
      }
    }
  }
  if (!phaseKnown || std::abs(phase - std::complex<double>{1.0, 0.0}) < 1e-9) {
    return OracleVerdict::Equal;
  }
  return OracleVerdict::EqualUpToPhase;
}

} // namespace

// --- gate-set classification -------------------------------------------

TEST(Profile, ClassifiesCliffordOnly) {
  ir::QuantumComputation qc(3);
  qc.h(0);
  qc.s(1);
  qc.cx(0, 1);
  qc.cz(1, 2);
  qc.swap(0, 2);
  qc.rz(kPi / 2, 0);     // pi/2 grid is Clifford
  qc.phase(-kPi, 1);     // so is -pi
  const auto p = analysis::profileCircuit(qc);
  EXPECT_EQ(p.gateSet, analysis::GateSetClass::CliffordOnly);
  EXPECT_EQ(p.cliffordBreakerCount, 0U);
  EXPECT_EQ(p.tGates, 0U);
  EXPECT_EQ(p.generalGates, 0U);
}

TEST(Profile, ClassifiesCliffordT) {
  ir::QuantumComputation qc(2);
  qc.h(0);
  qc.t(0);
  qc.cx(0, 1);
  qc.rz(kPi / 4, 1); // pi/4 grid is Clifford+T
  qc.tdg(1);
  const auto p = analysis::profileCircuit(qc);
  EXPECT_EQ(p.gateSet, analysis::GateSetClass::CliffordT);
  EXPECT_EQ(p.tGates, 3U);
  EXPECT_EQ(p.generalGates, 0U);
  EXPECT_EQ(p.cliffordBreakerCount, 3U);
  EXPECT_EQ(p.cliffordTBreakerCount, 0U);
}

TEST(Profile, ClassifiesGeneral) {
  ir::QuantumComputation qc(3);
  qc.h(0);
  qc.rx(0.3, 1);
  qc.ccx(0, 1, 2); // two controls break the Clifford set
  const auto p = analysis::profileCircuit(qc);
  EXPECT_EQ(p.gateSet, analysis::GateSetClass::General);
  EXPECT_EQ(p.generalGates, 2U);
  ASSERT_EQ(p.controlArity.size(), 3U);
  EXPECT_EQ(p.controlArity[0], 2U);
  EXPECT_EQ(p.controlArity[2], 1U);
  EXPECT_EQ(p.maxControls(), 2U);
}

TEST(Profile, RandomCliffordTGeneratorClassifiesAsCliffordT) {
  const auto qc = gen::randomCliffordT(5, 200, 11);
  const auto p = analysis::profileCircuit(qc);
  EXPECT_EQ(p.gateSet, analysis::GateSetClass::CliffordT);
  EXPECT_GT(p.tGates, 0U);
  EXPECT_EQ(p.generalGates, 0U);
}

TEST(Profile, PairCombinesToTheWiderClass) {
  const auto clifford = randomClifford(4, 30, 3);
  auto withT = randomClifford(4, 30, 4);
  withT.t(0);
  const auto profile = analysis::profilePair(clifford, withT);
  EXPECT_EQ(profile.g.gateSet, analysis::GateSetClass::CliffordOnly);
  EXPECT_EQ(profile.gPrime.gateSet, analysis::GateSetClass::CliffordT);
  EXPECT_EQ(profile.combined(), analysis::GateSetClass::CliffordT);
}

// --- static prescreen ---------------------------------------------------

TEST(Prescreen, StripsCommonPrefixAndSuffix) {
  ir::QuantumComputation g(2);
  g.h(0);
  g.cx(0, 1);
  g.t(0); // middle differs
  g.s(1);
  g.h(1);
  ir::QuantumComputation gPrime(2);
  gPrime.h(0);
  gPrime.cx(0, 1);
  gPrime.tdg(0); // middle differs
  gPrime.s(1);
  gPrime.h(1);
  const auto pre = analysis::prescreenPair(g, gPrime);
  EXPECT_EQ(pre.strippedPrefix, 2U);
  EXPECT_EQ(pre.strippedSuffix, 2U);
  EXPECT_EQ(pre.residualG.size(), 1U);
  EXPECT_EQ(pre.residualGPrime.size(), 1U);
  EXPECT_EQ(pre.verdict, analysis::StaticVerdict::Undecided);
}

TEST(Prescreen, MergesAdjacentRotationsAndDecidesIdentical) {
  ir::QuantumComputation g(1);
  g.rz(0.2, 0);
  g.rz(0.3, 0);
  ir::QuantumComputation gPrime(1);
  gPrime.rz(0.5, 0);
  const auto pre = analysis::prescreenPair(g, gPrime);
  EXPECT_GE(pre.mergedRotations, 1U);
  EXPECT_EQ(pre.verdict, analysis::StaticVerdict::Identical);
  EXPECT_EQ(denseOracle(g, gPrime), OracleVerdict::Equal);
}

TEST(Prescreen, DecidesDistinctViaDisjointResidual) {
  auto g = paperCircuitG();
  auto gPrime = paperCircuitG();
  gPrime.x(0); // one leftover flip after stripping
  const auto pre = analysis::prescreenPair(g, gPrime);
  EXPECT_EQ(pre.verdict, analysis::StaticVerdict::Distinct);
  EXPECT_EQ(denseOracle(g, gPrime), OracleVerdict::Different);
}

TEST(Prescreen, FullTurnRotationIsNotProvablyNonIdentity) {
  // RZ(2*pi) = -I: proportional to the identity, so a leftover full-turn
  // rotation must NOT yield a Distinct verdict.
  ir::QuantumComputation g(1);
  ir::QuantumComputation gPrime(1);
  gPrime.rz(2 * kPi, 0);
  const auto pre = analysis::prescreenPair(g, gPrime);
  EXPECT_NE(pre.verdict, analysis::StaticVerdict::Distinct);
  EXPECT_NE(denseOracle(g, gPrime), OracleVerdict::Different);
}

TEST(Prescreen, GlobalPhaseDifferenceIsEqualUpToPhase) {
  auto g = paperCircuitG();
  auto gPrime = paperCircuitG();
  gPrime.gate(ir::OpType::GPhase, 0, {}, {kPi / 3, 0, 0});
  const auto pre = analysis::prescreenPair(g, gPrime);
  EXPECT_EQ(pre.verdict, analysis::StaticVerdict::IdenticalUpToGlobalPhase);
  EXPECT_EQ(denseOracle(g, gPrime), OracleVerdict::EqualUpToPhase);
}

TEST(Prescreen, UncontrolledGPhaseIsNotAWitnessButXIs) {
  // A controlled global phase acts non-trivially; an uncontrolled one
  // never does. The verdict rules must tell them apart.
  ir::QuantumComputation g(2);
  ir::QuantumComputation controlled(2);
  controlled.gate(ir::OpType::GPhase, 1, {ir::Control{0, true}},
                  {kPi / 2, 0, 0});
  const auto pre = analysis::prescreenPair(g, controlled);
  EXPECT_EQ(pre.verdict, analysis::StaticVerdict::Distinct);
  EXPECT_EQ(denseOracle(g, controlled), OracleVerdict::Different);
}

TEST(Prescreen, VerdictsMatchDenseOracleOnRandomPairs) {
  // Randomized soundness sweep: wherever the prescreen claims a verdict,
  // the dense oracle must agree. Pairs are built to hit all three rules.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto g = randomClifford(4, 25, seed);

    // identical pair
    auto same = g;
    auto preSame = analysis::prescreenPair(g, same);
    EXPECT_EQ(preSame.verdict, analysis::StaticVerdict::Identical)
        << "seed " << seed;
    EXPECT_EQ(denseOracle(g, same), OracleVerdict::Equal) << "seed " << seed;

    // appended flip on an otherwise identical pair
    auto flipped = g;
    flipped.x(static_cast<ir::Qubit>(seed % 4));
    const auto preFlip = analysis::prescreenPair(g, flipped);
    if (preFlip.verdict != analysis::StaticVerdict::Undecided) {
      EXPECT_EQ(preFlip.verdict, analysis::StaticVerdict::Distinct)
          << "seed " << seed;
      EXPECT_EQ(denseOracle(g, flipped), OracleVerdict::Different)
          << "seed " << seed;
    }

    // global-phase twin
    auto phased = g;
    phased.gate(ir::OpType::GPhase, 0, {}, {0.7, 0, 0});
    const auto prePhase = analysis::prescreenPair(g, phased);
    EXPECT_EQ(prePhase.verdict,
              analysis::StaticVerdict::IdenticalUpToGlobalPhase)
        << "seed " << seed;
    EXPECT_EQ(denseOracle(g, phased), OracleVerdict::EqualUpToPhase)
        << "seed " << seed;
  }
}

// --- tier routing --------------------------------------------------------

TEST(TierRouting, CliffordPairGoesToStabilizer) {
  const auto g = paperCircuitG();
  const auto gPrime = paperCircuitGPrime();
  const auto profile = analysis::profilePair(g, gPrime);
  const auto pre = analysis::prescreenPair(g, gPrime);
  EXPECT_EQ(analysis::routeTier(profile, pre),
            analysis::TierHint::Stabilizer);
}

TEST(TierRouting, StaticVerdictWinsOverGateSet) {
  const auto g = gen::qft(4); // non-Clifford
  const auto profile = analysis::profilePair(g, g);
  const auto pre = analysis::prescreenPair(g, g);
  EXPECT_EQ(pre.verdict, analysis::StaticVerdict::Identical);
  EXPECT_EQ(analysis::routeTier(profile, pre), analysis::TierHint::Static);
}

TEST(TierRouting, GeneralPairStaysGeneral) {
  const auto g = gen::qft(4);
  const auto mapped = tf::mapCircuit(g, tf::CouplingMap::linear(4));
  const auto profile = analysis::profilePair(g, mapped.circuit);
  const auto pre = analysis::prescreenPair(g, mapped.circuit);
  EXPECT_EQ(analysis::routeTier(profile, pre), analysis::TierHint::General);
}

// --- stabilizer-tier checker ---------------------------------------------

TEST(StabilizerChecker, ProvesThePaperPairEquivalent) {
  const ec::StabilizerChecker checker;
  const auto result = checker.run(paperCircuitG(), paperCircuitGPrime());
  EXPECT_EQ(result.equivalence, ec::Equivalence::Equivalent);
  EXPECT_FALSE(result.counterexample.has_value());
}

TEST(StabilizerChecker, DisprovesAnInjectedFlip) {
  auto bad = paperCircuitGPrime();
  bad.ops().pop_back();
  const ec::StabilizerChecker checker;
  const auto result = checker.run(paperCircuitG(), bad);
  EXPECT_EQ(result.equivalence, ec::Equivalence::NotEquivalent);
}

TEST(StabilizerChecker, ResolvesGlobalPhaseWithTheDenseProbe) {
  auto g = paperCircuitG();
  auto gPrime = paperCircuitG();
  gPrime.gate(ir::OpType::GPhase, 0, {}, {kPi / 3, 0, 0});
  const ec::StabilizerChecker checker;
  const auto result = checker.run(g, gPrime);
  EXPECT_EQ(result.equivalence, ec::Equivalence::EquivalentUpToGlobalPhase);
}

TEST(StabilizerChecker, WideCircuitSkipsTheProbeAndCoarsens) {
  // Above the probe cap an identity conjugation cannot distinguish exact
  // equality from a global phase; the verdict coarsens, soundly.
  const auto g = randomClifford(14, 80, 21);
  ec::StabilizerConfiguration config;
  config.phaseProbeMaxQubits = 4;
  const ec::StabilizerChecker checker(config);
  const auto result = checker.run(g, g);
  EXPECT_EQ(result.equivalence, ec::Equivalence::EquivalentUpToGlobalPhase);
}

TEST(StabilizerChecker, RandomCliffordPairsMatchDenseOracle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto g = randomClifford(3, 20, 100 + seed);
    auto gPrime = randomClifford(3, 20, 200 + seed);
    const ec::StabilizerChecker checker;
    const auto result = checker.run(g, gPrime);
    const auto oracle = denseOracle(g, gPrime);
    switch (result.equivalence) {
    case ec::Equivalence::Equivalent:
      EXPECT_EQ(oracle, OracleVerdict::Equal) << "seed " << seed;
      break;
    case ec::Equivalence::EquivalentUpToGlobalPhase:
      EXPECT_EQ(oracle, OracleVerdict::EqualUpToPhase) << "seed " << seed;
      break;
    case ec::Equivalence::NotEquivalent:
      EXPECT_EQ(oracle, OracleVerdict::Different) << "seed " << seed;
      break;
    default:
      FAIL() << "inconclusive stabilizer verdict at seed " << seed;
    }
  }
}

TEST(StabilizerChecker, VerdictIsDeterministicAcrossRepeats) {
  auto bad = paperCircuitGPrime();
  bad.ops().pop_back();
  std::string reference;
  for (int repeat = 0; repeat < 5; ++repeat) {
    const ec::StabilizerChecker checker;
    const auto result = checker.run(paperCircuitG(), bad);
    const std::string json =
        toJson(result, ec::SerializeOptions{.redactProfile = true});
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << "repeat " << repeat;
    }
  }
}

// --- routed flow vs unrouted flow ----------------------------------------

TEST(TierRouting, ProfiledFlowAgreesWithUnprofiledFlowEverywhere) {
  // The acceptance bar of the tier router: enabling the prescreen changes
  // how a verdict is produced, never which verdict — byte-identical under
  // verdict-only serialization, at one worker and at several.
  struct Pair {
    ir::QuantumComputation g;
    ir::QuantumComputation gPrime;
  };
  std::vector<Pair> pairs;
  // Clifford-only equivalent (stabilizer tier)
  pairs.push_back({paperCircuitG(), paperCircuitGPrime()});
  // Clifford-only broken (stabilizer tier, witness)
  {
    auto bad = paperCircuitGPrime();
    bad.ops().pop_back();
    pairs.push_back({paperCircuitG(), std::move(bad)});
  }
  // statically identical (static tier)
  pairs.push_back({gen::qft(4), gen::qft(4)});
  // transform-produced: mapped QFT (general tier, stripped residual)
  {
    const auto g = gen::qft(4);
    auto mapped = tf::mapCircuit(g, tf::CouplingMap::linear(4));
    pairs.push_back({g, std::move(mapped.circuit)});
  }
  // transform-produced: decomposed Clifford+T with an injected error
  {
    const auto g = gen::randomCliffordT(4, 40, 7);
    tf::ErrorInjector injector(7);
    auto injected = injector.injectRandom(g);
    pairs.push_back({g, std::move(injected.circuit)});
  }

  // the flow mode and the rewriting attempt only reschedule the same
  // strategies, so they join the matrix
  const ec::SerializeOptions verdictOnly{.verdictOnly = true};
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    std::string reference;
    for (const bool prescreen : {false, true}) {
      for (const unsigned threads : {1U, 4U}) {
        for (const ec::FlowMode mode :
             {ec::FlowMode::Staged, ec::FlowMode::Race}) {
          for (const bool rewriting : {false, true}) {
            ec::FlowConfiguration config;
            config.simulation.seed = 31;
            config.simulation.numThreads = threads;
            config.prescreen.enabled = prescreen;
            config.mode = mode;
            config.tryRewriting = rewriting;
            const ec::EquivalenceCheckingFlow flow(config);
            const std::string json =
                toJson(flow.run(pairs[i].g, pairs[i].gPrime), verdictOnly);
            if (reference.empty()) {
              reference = json;
            } else {
              EXPECT_EQ(json, reference)
                  << "pair " << i << " prescreen=" << prescreen
                  << " threads=" << threads << " mode=" << toString(mode)
                  << " rewriting=" << rewriting;
            }
          }
        }
      }
    }
  }
}

TEST(TierRouting, RoutingIsByteStableAcrossThreadCounts) {
  // The routed flow's own redacted serialization (tier, stripped counts,
  // verdict) must not depend on the worker count either.
  const auto g = gen::qft(4);
  const auto mapped = tf::mapCircuit(g, tf::CouplingMap::linear(4));
  const ec::SerializeOptions redact{.redactProfile = true};
  std::string reference;
  for (const unsigned threads : {1U, 2U, 8U}) {
    ec::FlowConfiguration config;
    config.simulation.seed = 13;
    config.simulation.numThreads = threads;
    const ec::EquivalenceCheckingFlow flow(config);
    const std::string json = toJson(flow.run(g, mapped.circuit), redact);
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << threads << " threads";
    }
  }
}

TEST(TierRouting, StabilizerTierBuildsNoDecisionDiagrams) {
  // A Clifford-only pair must be decided entirely inside the stabilizer
  // tier: the trace may contain tier.stabilizer spans but no checker.*
  // (simulation or alternating) spans — no DD is ever built.
  auto bad = paperCircuitGPrime();
  bad.ops().pop_back();
  obs::Tracer tracer;
  const ec::EquivalenceCheckingFlow flow;
  const auto result =
      flow.run(paperCircuitG(), bad, obs::Context{&tracer, nullptr});
  EXPECT_EQ(result.equivalence, ec::Equivalence::NotEquivalent);
  EXPECT_EQ(result.tier, analysis::TierHint::Stabilizer);

  bool sawStabilizerSpan = false;
  for (const obs::SpanEvent& event : tracer.events()) {
    sawStabilizerSpan = sawStabilizerSpan || event.name == "tier.stabilizer";
    EXPECT_EQ(event.name.rfind("checker.", 0), std::string::npos)
        << "DD-backed checker span " << event.name
        << " in a stabilizer-tier run";
  }
  EXPECT_TRUE(sawStabilizerSpan);
}

TEST(TierRouting, StrippedResidualPairKeepsTheVerdict) {
  // A shared prefix/suffix around a non-trivial core: the flow hands the
  // residuals to the complete check and still returns the right verdict.
  const auto core = gen::qft(3);
  const auto mapped = tf::mapCircuit(core, tf::CouplingMap::linear(3));
  ir::QuantumComputation g(3);
  ir::QuantumComputation gPrime(3);
  const auto wrap = [](ir::QuantumComputation& qc,
                       const ir::QuantumComputation& body) {
    qc.h(0);
    qc.cx(0, 1);
    for (const auto& op : body.withMaterializedLayouts()) {
      qc.emplace(op);
    }
    qc.cx(1, 2);
    qc.h(2);
  };
  wrap(g, core);
  wrap(gPrime, mapped.circuit);

  ec::FlowConfiguration config;
  config.simulation.seed = 3;
  const ec::EquivalenceCheckingFlow flow(config);
  const auto result = flow.run(g, gPrime);
  EXPECT_TRUE(ec::provedEquivalent(result.equivalence));
  EXPECT_EQ(result.tier, analysis::TierHint::General);
  EXPECT_GE(result.strippedPrefix, 2U);
  EXPECT_GE(result.strippedSuffix, 2U);
}
