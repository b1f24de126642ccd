// The benchmark's circuit pairs and their known answers.
//
// Every pair is a pure function of the benchmark seed. The program under
// test sees only the generated circuit text; the parsed copies kept here
// serve the dense oracle and counterexample replay, which run outside any
// timed interval.

#pragma once

#include "ec/result.hpp"
#include "ir/quantum_computation.hpp"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// The text format a circuit is handed to the program in.
enum class Format { Qasm, Real, Tfc };

/// Parse circuit text with the reader of its format (the timed io call).
[[nodiscard]] qsimec::ir::QuantumComputation parseCircuit(Format format,
                                                          const std::string& text);

struct Pair {
  std::string name;
  /// Generator family ("general", "clifford", "grover", "supremacy", ...).
  std::string family;
  std::string gText;
  std::string gpText;
  Format gFormat{Format::Qasm};
  Format gpFormat{Format::Qasm};
  qsimec::ir::QuantumComputation g;
  qsimec::ir::QuantumComputation gp;
  std::size_t qubits{0};
  /// The known answer: equivalent (strictly or up to global phase) or not.
  bool equivalent{true};
  /// "oracle" (dense unitary comparison at set-up) or "construction" (an
  /// exact derivation is equivalent, an injected error is not).
  std::string answerSource;
};

/// The dense oracle decides pairs of up to kOracleMaxQubits qubits whose
/// column-by-column work, gates x 4^n, stays within kOracleMaxWork (about a
/// second of set-up); the others take the construction answer.
inline constexpr std::size_t kOracleMaxQubits = 12;
inline constexpr double kOracleMaxWork = 5e8;

/// Build a pair from two circuits: pad to a common width, render as text
/// (OpenQASM where it can express the gates, else RevLib .real, else .tfc,
/// else OpenQASM of the elementary decomposition), re-parse (the verdict
/// must hold for exactly what the program reads), and settle the known
/// answer. `constructed` is the answer by construction.
[[nodiscard]] Pair makePair(std::string name, std::string family,
                            const qsimec::ir::QuantumComputation& g,
                            const qsimec::ir::QuantumComputation& gp,
                            bool constructed);

/// Fuzz-generator pairs, stratified so every prefix of the list cycles
/// through all four families (only the general family with `generalOnly`),
/// each with and without an injected error (only without, when not
/// `withErrors`): 3-8 qubits and up to 60 gates for `small`, 9 qubits and
/// up to 40 gates for `medium`. `salt` separates independent lists of one
/// seed.
[[nodiscard]] std::vector<Pair> fuzzPairs(std::uint64_t seed, std::size_t count,
                                          bool medium, std::uint64_t salt,
                                          bool generalOnly = false,
                                          bool withErrors = true);

/// Build `count` pairs, make(i) for each index, on up to 4 threads (set-up
/// work; the oracle dominates it).
[[nodiscard]] std::vector<Pair>
makePairs(std::size_t count, const std::function<Pair(std::size_t)>& make);

/// `qc` with an X gate on input wire `wire % qubits`: the injected error of
/// the benchmark's own error pairs. Any non-identity gate makes a pair
/// non-equivalent, which keeps the construction answer sound where the
/// oracle is too expensive; at the input it is also found by the first
/// basis-state stimulus (G|i> and G|i^e_q> are orthogonal), so such a pair
/// costs exactly one stimulus per circuit and can never fall through to
/// the complete check.
[[nodiscard]] qsimec::ir::QuantumComputation
withInputFlip(const qsimec::ir::QuantumComputation& qc, std::uint64_t wire);

/// The paper's Table I families at container scale: an equivalent half and
/// an error-injected half (see README.md for the exact list).
[[nodiscard]] std::vector<Pair> paperPairs(std::uint64_t seed);

enum class Judgement { Right, Wrong, Inconclusive };

/// Compare a verdict with the known answer. A NotEquivalent verdict that
/// carries a counterexample must also replay: re-simulating the stimulus
/// must show the two outputs differ. ProbablyEquivalent and NoInformation
/// are Inconclusive; anything else that disagrees is Wrong.
[[nodiscard]] Judgement judge(const Pair& pair, qsimec::ec::Equivalence verdict,
                              const std::optional<qsimec::ec::Counterexample>& cex);

/// judge() over a list of pairs, with a per-pair memo: the program's
/// verdicts are deterministic, so each pair's verdict is replayed once and
/// later ones are compared with it. A wrong verdict is reported on stderr.
class VerdictJudge {
public:
  explicit VerdictJudge(const std::vector<Pair>& pairs)
      : pairs_(pairs), memo_(pairs.size()) {}
  Judgement operator()(std::size_t index, qsimec::ec::Equivalence verdict,
                       const std::optional<qsimec::ec::Counterexample>& cex);

private:
  struct Memo {
    bool judged{false};
    qsimec::ec::Equivalence verdict{};
    std::optional<qsimec::ec::Counterexample> cex;
    Judgement judgement{Judgement::Wrong};
  };
  const std::vector<Pair>& pairs_;
  std::vector<Memo> memo_;
};

/// Hex digest over the structural fingerprints of every circuit of a list —
/// the provenance record of a workload's input.
[[nodiscard]] std::string inputDigest(const std::vector<Pair>& pairs);

} // namespace perfbench
