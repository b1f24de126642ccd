#include "pairs.hpp"

#include "common.hpp" // bench/: the Table I families and their G' derivations
#include "dd/package.hpp"
#include "ec/stimuli.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/pair_generator.hpp"
#include "io/qasm.hpp"
#include "io/real.hpp"
#include "io/tfc.hpp"
#include "sim/dd_simulator.hpp"
#include "svc/fingerprint.hpp"
#include "transform/decomposition.hpp"
#include "transform/mapper.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>

namespace perfbench {

namespace qs = qsimec;

namespace {

/// Widest pair whose counterexamples are replayed densely; wider ones are
/// replayed on a fresh DD package.
constexpr std::size_t kDenseReplayMaxQubits = 20;

/// splitmix64: derives independent sub-seeds from the benchmark seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double replayFidelity(const Pair& pair, const qs::ec::Counterexample& cex) {
  if (pair.qubits <= kDenseReplayMaxQubits) {
    return qs::fuzz::counterexampleFidelity(pair.g, pair.gp, cex);
  }
  qs::dd::Package pkg(pair.qubits);
  const qs::dd::vEdge input = qs::ec::makeStimulus(pkg, cex.stimuli, cex.input);
  pkg.incRef(input);
  const qs::dd::vEdge u = qs::sim::simulate(pair.g, input, pkg);
  pkg.incRef(u);
  const qs::dd::vEdge uPrime = qs::sim::simulate(pair.gp, input, pkg);
  return pkg.fidelity(u, uPrime);
}

/// Render in the first format whose writer expresses every gate and whose
/// reader gives back the full width (the .real writer, for one, drops
/// trailing idle wires).
std::optional<std::pair<Format, std::string>>
render(const qs::ir::QuantumComputation& qc) {
  const auto writers = {
      std::make_pair(Format::Qasm, &qs::io::toQasmString),
      std::make_pair(Format::Real, &qs::io::toRealString),
      std::make_pair(Format::Tfc, &qs::io::toTfcString)};
  for (const auto& [format, write] : writers) {
    try {
      std::string text = write(qc);
      if (parseCircuit(format, text).qubits() == qc.qubits()) {
        return std::make_pair(format, std::move(text));
      }
    } catch (const std::exception&) {
    }
  }
  return std::nullopt;
}

} // namespace

qs::ir::QuantumComputation withInputFlip(const qs::ir::QuantumComputation& qc,
                                         std::uint64_t seed) {
  qs::ir::QuantumComputation flipped = qc;
  const auto qubit = static_cast<qs::ir::Qubit>(seed % qc.qubits());
  flipped.ops().insert(flipped.ops().begin(),
                       qs::ir::StandardOperation{qs::ir::OpType::X, {qubit}});
  return flipped;
}

qs::ir::QuantumComputation parseCircuit(Format format, const std::string& text) {
  switch (format) {
  case Format::Real:
    return qs::io::parseRealString(text);
  case Format::Tfc:
    return qs::io::parseTfcString(text);
  case Format::Qasm:
    break;
  }
  return qs::io::parseQasmString(text);
}

Pair makePair(std::string name, std::string family,
              const qs::ir::QuantumComputation& g,
              const qs::ir::QuantumComputation& gp, bool constructed) {
  // a circuit no format expresses as is (negative controls on non-X
  // gates, for one) is handed over as its elementary decomposition
  // (layout permutations of mapped circuits become explicit SWAP gates)
  qs::ir::QuantumComputation circuits[2] = {g.withMaterializedLayouts(),
                                            gp.withMaterializedLayouts()};
  std::optional<std::pair<Format, std::string>> texts[2];
  for (int pass = 0; pass < 2; ++pass) {
    const std::size_t width =
        std::max(circuits[0].qubits(), circuits[1].qubits());
    for (auto& qc : circuits) {
      qc = qs::tf::padQubits(qc, width);
    }
    for (int k = 0; k < 2; ++k) {
      texts[k] = render(circuits[k]);
      if (!texts[k] && pass == 0) {
        circuits[k] = qs::tf::decompose(circuits[k]);
      }
    }
    if (texts[0] && texts[1]) {
      break;
    }
  }
  if (!texts[0] || !texts[1]) {
    throw std::runtime_error("no text format expresses pair " + name);
  }
  Pair pair;
  pair.name = std::move(name);
  pair.family = std::move(family);
  std::tie(pair.gFormat, pair.gText) = *texts[0];
  std::tie(pair.gpFormat, pair.gpText) = *texts[1];
  pair.g = parseCircuit(pair.gFormat, pair.gText);
  pair.gp = parseCircuit(pair.gpFormat, pair.gpText);
  pair.qubits = pair.g.qubits();
  const double oracleWork =
      static_cast<double>(pair.g.size() + pair.gp.size()) *
      std::ldexp(1.0, 2 * static_cast<int>(pair.qubits));
  if (pair.qubits <= kOracleMaxQubits && oracleWork <= kOracleMaxWork) {
    qs::fuzz::OracleOptions options;
    options.exhaustiveMaxQubits = kOracleMaxQubits;
    const qs::fuzz::OracleResult oracle =
        qs::fuzz::compareCircuits(pair.g, pair.gp, options);
    pair.equivalent = oracle.verdict != qs::fuzz::OracleVerdict::NotEquivalent;
    pair.answerSource = "oracle";
  } else {
    pair.equivalent = constructed;
    pair.answerSource = "construction";
  }
  return pair;
}

std::vector<Pair> makePairs(std::size_t count,
                            const std::function<Pair(std::size_t)>& make) {
  // set-up only (untimed): the oracle dominates, so spread it over the
  // cores; every pair is a pure function of its index
  std::vector<std::optional<Pair>> slots(count);
  std::vector<std::thread> workers;
  std::exception_ptr failure;
  std::mutex failureMutex;
  const unsigned threads =
      std::max(1U, std::min(4U, std::thread::hardware_concurrency()));
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      try {
        for (std::size_t i = t; i < count; i += threads) {
          slots[i] = make(i);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failureMutex);
        failure = std::current_exception();
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  if (failure) {
    std::rethrow_exception(failure);
  }
  std::vector<Pair> pairs;
  pairs.reserve(count);
  for (std::optional<Pair>& slot : slots) {
    pairs.push_back(std::move(*slot));
  }
  return pairs;
}

std::vector<Pair> fuzzPairs(std::uint64_t seed, std::size_t count, bool medium,
                            std::uint64_t salt, bool generalOnly,
                            bool withErrors) {
  const std::vector<qs::fuzz::BaseFamily> families =
      generalOnly ? std::vector<qs::fuzz::BaseFamily>{qs::fuzz::BaseFamily::General}
                  : std::vector<qs::fuzz::BaseFamily>{
                        qs::fuzz::BaseFamily::General, qs::fuzz::BaseFamily::CliffordT,
                        qs::fuzz::BaseFamily::Clifford, qs::fuzz::BaseFamily::Reversible};
  const auto make = [&](std::size_t i) {
    const std::size_t strata = (withErrors ? 2 : 1) * families.size();
    const std::size_t stratum = i % strata;
    const bool injected = withErrors && stratum % 2 == 1;
    qs::fuzz::GeneratorOptions options;
    options.minQubits = medium ? 9 : 3;
    options.maxQubits = medium ? 9 : 8;
    options.maxGates = medium ? 40 : 60;
    options.errorShare = injected ? 1.0 : 0.0;
    options.onlyFamily = families[withErrors ? stratum / 2 : stratum];
    qs::fuzz::PairGenerator generator(mix(seed ^ mix(salt * 16 + stratum)),
                                      options);
    // a pair no text format can carry is replaced by a later index of the
    // same stratum, deterministically
    for (std::size_t skip = 0;; skip += 100003) {
      const qs::fuzz::GeneratedPair generated =
          generator.generate(i / strata + skip);
      const std::string family(toString(generated.family));
      try {
        return makePair((medium ? "medium " : "small ") + std::to_string(i) +
                            " " + family + (injected ? " error" : " eq"),
                        family, generated.g, generated.gPrime, !injected);
      } catch (const std::runtime_error&) {
        if (skip > 10 * 100003) {
          throw;
        }
      }
    }
  };
  return makePairs(count, make);
}

std::vector<Pair> paperPairs(std::uint64_t seed) {
  std::vector<qs::bench::BenchmarkPair> equivalent;
  std::vector<qs::bench::BenchmarkPair> injectable;
  const auto addBoth = [&](qs::bench::BenchmarkPair p) {
    injectable.push_back(p);
    equivalent.push_back(std::move(p));
  };
  // The Table I circuits themselves are fixed: their cost varies up to 2x
  // across generator seeds, which would drown the changes the workload is
  // meant to show. The seed picks the Grover marked elements and the wire
  // of every injected error.
  // The equivalent half: families whose complete check finishes.
  addBoth(qs::bench::groverPair(5, mix(seed ^ 5) % 32));
  addBoth(qs::bench::groverPair(6, mix(seed ^ 6) % 64));
  addBoth(qs::bench::revlibPair("hwb7", qs::gen::hwbCircuit(7)));
  addBoth(qs::bench::revlibPair("urf-like 6", qs::gen::urfCircuit(6, 7)));
  addBoth(qs::bench::revlibPair("adder8", qs::gen::adderCircuit(8)));
  addBoth(qs::bench::revlibPair("inc8", qs::gen::incrementCircuit(8)));
  addBoth(qs::bench::supremacyPair(4, 4, 5, 3));
  // Error-only families: a single stimulus goes dense (3x4 Supremacy), or
  // the complete check would not finish (QFT, Chemistry); the Hubbard
  // circuit is routed onto a star so that G' differs from G.
  for (std::uint64_t generatorSeed = 1; generatorSeed <= 3; ++generatorSeed) {
    injectable.push_back(qs::bench::supremacyPair(3, 4, 20, generatorSeed));
  }
  injectable.push_back(qs::bench::qftPair(32));
  {
    qs::gen::HubbardOptions options;
    options.trotterSteps = 2;
    qs::ir::QuantumComputation g = qs::gen::hubbardTrotter(2, 3, options);
    auto mapped = qs::tf::mapCircuit(g, qs::tf::CouplingMap::star(g.qubits()));
    injectable.push_back({"Chemistry 2x3", std::move(g), std::move(mapped.circuit)});
  }

  std::vector<Pair> pairs;
  for (const qs::bench::BenchmarkPair& p : equivalent) {
    pairs.push_back(makePair(p.name, p.name, p.g, p.gPrime, true));
  }
  for (std::size_t i = 0; i < injectable.size(); ++i) {
    const qs::bench::BenchmarkPair& p = injectable[i];
    pairs.push_back(makePair(p.name + " (error)", p.name, p.g,
                             withInputFlip(p.gPrime, mix(seed ^ (0xe11 + i))),
                             false));
  }
  return pairs;
}

Judgement judge(const Pair& pair, qs::ec::Equivalence verdict,
                const std::optional<qs::ec::Counterexample>& cex) {
  switch (verdict) {
  case qs::ec::Equivalence::Equivalent:
  case qs::ec::Equivalence::EquivalentUpToGlobalPhase:
    return pair.equivalent ? Judgement::Right : Judgement::Wrong;
  case qs::ec::Equivalence::NotEquivalent:
    if (pair.equivalent) {
      return Judgement::Wrong;
    }
    // the checker proves with |1 - F| > 1e-8; the replay must reproduce a
    // difference of that order
    if (cex && 1.0 - replayFidelity(pair, *cex) <= 1e-9) {
      return Judgement::Wrong;
    }
    return Judgement::Right;
  case qs::ec::Equivalence::ProbablyEquivalent:
  case qs::ec::Equivalence::NoInformation:
    return Judgement::Inconclusive;
  case qs::ec::Equivalence::InvalidInput:
    return Judgement::Wrong;
  }
  return Judgement::Wrong;
}

Judgement VerdictJudge::operator()(std::size_t index,
                                   qs::ec::Equivalence verdict,
                                   const std::optional<qs::ec::Counterexample>& cex) {
  Memo& m = memo_[index];
  const bool same = m.judged && m.verdict == verdict &&
                    m.cex.has_value() == cex.has_value() &&
                    (!cex || (m.cex->input == cex->input &&
                              m.cex->stimuli == cex->stimuli));
  if (!same) {
    m = {true, verdict, cex, judge(pairs_[index], verdict, cex)};
  }
  if (m.judgement == Judgement::Wrong) {
    const Pair& pair = pairs_[index];
    std::fprintf(stderr, "perfbench: wrong verdict on %s: %s (known answer by %s: %s)\n",
                 pair.name.c_str(), std::string(qs::ec::toString(verdict)).c_str(),
                 pair.answerSource.c_str(),
                 pair.equivalent ? "equivalent" : "not equivalent");
  }
  return m.judgement;
}

std::string inputDigest(const std::vector<Pair>& pairs) {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  for (const Pair& p : pairs) {
    for (const auto* qc : {&p.g, &p.gp}) {
      const qs::svc::Fingerprint f = qs::svc::fingerprint(*qc);
      hi = mix(hi ^ f.hi);
      lo = mix(lo ^ f.lo);
    }
  }
  std::array<char, 33> buf{};
  std::snprintf(buf.data(), buf.size(), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf.data();
}

} // namespace perfbench
