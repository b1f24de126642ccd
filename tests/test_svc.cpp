// Tests of the batch checking service (src/svc): circuit fingerprinting
// (format- and order-stability, parameter quantization), the VerdictCache
// (LRU, persistence, corruption tolerance, config-digest keying), and the
// BatchScheduler (manifest parsing, determinism across thread counts, warm
// cache dispatching zero checker work).

#include "ec/flow.hpp"
#include "gen/qft.hpp"
#include "gen/revlib_like.hpp"
#include "io/qasm.hpp"
#include "io/real.hpp"
#include "obs/metrics.hpp"
#include "svc/batch.hpp"
#include "svc/fingerprint.hpp"
#include "svc/verdict_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace qsimec;
namespace fs = std::filesystem;

// ---------------------------------------------------------------- fingerprint

TEST(Fingerprint, StableAcrossFormatsAndNames) {
  // the same reversible circuit, written out as OpenQASM and as RevLib
  // .real, must fingerprint identically after parse-back — the name and
  // the on-disk syntax are not part of the identity
  ir::QuantumComputation qc(3, "original");
  qc.x(0);
  qc.cx(1, 0);
  qc.ccx(2, 1, 0);
  qc.x(2);

  const auto viaQasm = io::parseQasmString(io::toQasmString(qc), "as_qasm");
  const auto viaReal = io::parseRealString(io::toRealString(qc), "as_real");

  const svc::Fingerprint direct = svc::fingerprint(qc);
  EXPECT_EQ(direct, svc::fingerprint(viaQasm));
  EXPECT_EQ(direct, svc::fingerprint(viaReal));
}

TEST(Fingerprint, ParameterQuantizationEpsilon) {
  const auto withAngle = [](double theta) {
    ir::QuantumComputation qc(1, "rot");
    qc.rz(theta, 0);
    return svc::fingerprint(qc);
  };
  // below the documented epsilon: same quantization bucket, same identity
  EXPECT_EQ(withAngle(0.25), withAngle(0.25 + 4e-10));
  // past it: a genuinely different rotation
  EXPECT_NE(withAngle(0.25), withAngle(0.25 + 2e-9));
}

TEST(Fingerprint, OrderAndRoleSensitive) {
  // same gate multiset, different order
  ir::QuantumComputation ab(2, "ab");
  ab.x(0);
  ab.x(1);
  ir::QuantumComputation ba(2, "ba");
  ba.x(1);
  ba.x(0);
  EXPECT_NE(svc::fingerprint(ab), svc::fingerprint(ba));

  // same qubit pair, control and target swapped
  ir::QuantumComputation c01(2, "c01");
  c01.cx(0, 1);
  ir::QuantumComputation c10(2, "c10");
  c10.cx(1, 0);
  EXPECT_NE(svc::fingerprint(c01), svc::fingerprint(c10));

  // identical gates on a wider register are a different circuit
  ir::QuantumComputation narrow(2, "narrow");
  narrow.x(0);
  ir::QuantumComputation wide(3, "wide");
  wide.x(0);
  EXPECT_NE(svc::fingerprint(narrow), svc::fingerprint(wide));
}

TEST(Fingerprint, HexRoundTrip) {
  ir::QuantumComputation qc(2, "rt");
  qc.h(0);
  qc.cx(0, 1);
  const svc::Fingerprint fp = svc::fingerprint(qc);
  const auto parsed = svc::parseFingerprint(fp.hex());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, fp);

  EXPECT_FALSE(svc::parseFingerprint("not-hex").has_value());
  EXPECT_FALSE(svc::parseFingerprint("abc").has_value());
}

TEST(Fingerprint, ConfigDigestCoversVerdictRelevantFieldsOnly) {
  ec::FlowConfiguration base;
  const std::uint64_t digest = svc::configDigest(base);

  // verdict-relevant: more stimuli can find a counterexample a shorter run
  // would miss
  ec::FlowConfiguration moreSims = base;
  moreSims.simulation.maxSimulations += 1;
  EXPECT_NE(digest, svc::configDigest(moreSims));

  ec::FlowConfiguration otherSeed = base;
  otherSeed.simulation.seed += 1;
  EXPECT_NE(digest, svc::configDigest(otherSeed));

  // performance-only: the determinism contract says the verdict is
  // identical for every thread count, and a proof survives any timeout
  ec::FlowConfiguration moreThreads = base;
  moreThreads.simulation.numThreads = 7;
  EXPECT_EQ(digest, svc::configDigest(moreThreads));

  ec::FlowConfiguration otherTimeout = base;
  otherTimeout.complete.timeoutSeconds = 123.0;
  EXPECT_EQ(digest, svc::configDigest(otherTimeout));
}

TEST(Fingerprint, ConfigDigestGoldenValues) {
  // Cache files (qsimec-cache-v2) written by earlier builds must keep
  // hitting, so the digests of the library default and of the
  // configurations `qsimec check`'s flags produce are pinned.
  const auto cli = [] {
    ec::FlowConfiguration config; // parseFlowFlags' defaults
    config.simulation.maxSimulations = 10;
    config.simulation.seed = 42;
    config.simulation.ignoreGlobalPhase = true;
    config.complete.timeoutSeconds = 60.0;
    return config;
  };
  ec::FlowConfiguration noSims = cli(); // --sims 0
  noSims.simulation.maxSimulations = 0;
  ec::FlowConfiguration simOnly = cli(); // --sim-only
  simOnly.skipComplete = true;
  ec::FlowConfiguration rewriting = cli(); // --rewriting
  rewriting.tryRewriting = true;
  ec::FlowConfiguration race = cli(); // --race
  race.mode = ec::FlowMode::Race;
  ec::FlowConfiguration noPrescreen = cli(); // --no-prescreen
  noPrescreen.prescreen.enabled = false;

  EXPECT_EQ(svc::configDigest(ec::FlowConfiguration{}),
            0x65ada406815c3375ULL);
  EXPECT_EQ(svc::configDigest(cli()), 0xb51f749692d107e1ULL);
  EXPECT_EQ(svc::configDigest(noSims), 0x806fd1b05f067698ULL);
  EXPECT_EQ(svc::configDigest(simOnly), 0xcd2f11e873bc2a92ULL);
  EXPECT_EQ(svc::configDigest(rewriting), 0x1c61c5ac58351ee0ULL);
  // the mode changes how a verdict is reached, never which one
  EXPECT_EQ(svc::configDigest(race), 0xb51f749692d107e1ULL);
  EXPECT_EQ(svc::configDigest(noPrescreen), 0xee69560a0282994cULL);
}

// --------------------------------------------------------------- VerdictCache

svc::PairKey keyFor(std::uint64_t a, std::uint64_t b,
                    std::uint64_t config = 1) {
  return svc::PairKey{svc::Fingerprint{a, a}, svc::Fingerprint{b, b}, config};
}

TEST(VerdictCache, LruEvictionRefreshesOnLookup) {
  svc::VerdictCache cache(2);
  const svc::CachedVerdict eq{ec::Equivalence::Equivalent, std::nullopt};
  cache.store(keyFor(1, 1), eq);
  cache.store(keyFor(2, 2), eq);
  EXPECT_TRUE(cache.lookup(keyFor(1, 1)).has_value()); // 1 is now freshest
  cache.store(keyFor(3, 3), eq);                       // evicts 2, not 1

  EXPECT_EQ(cache.size(), 2U);
  EXPECT_EQ(cache.evictions(), 1U);
  EXPECT_TRUE(cache.lookup(keyFor(1, 1)).has_value());
  EXPECT_FALSE(cache.lookup(keyFor(2, 2)).has_value());
  EXPECT_TRUE(cache.lookup(keyFor(3, 3)).has_value());
}

TEST(VerdictCache, OnlyProofsAreCacheable) {
  svc::VerdictCache cache;
  cache.store(keyFor(1, 1),
              {ec::Equivalence::ProbablyEquivalent, std::nullopt});
  cache.store(keyFor(2, 2), {ec::Equivalence::NoInformation, std::nullopt});
  cache.store(keyFor(3, 3), {ec::Equivalence::InvalidInput, std::nullopt});
  EXPECT_EQ(cache.size(), 0U);

  cache.store(keyFor(4, 4),
              {ec::Equivalence::EquivalentUpToGlobalPhase, std::nullopt});
  cache.store(keyFor(5, 5),
              {ec::Equivalence::NotEquivalent,
               ec::Counterexample{3, 0.0, ec::StimuliKind::RandomProduct}});
  EXPECT_EQ(cache.size(), 2U);
}

TEST(VerdictCache, PersistenceRoundTrip) {
  std::ostringstream log;
  svc::VerdictCache cache;
  cache.persistTo(&log);
  cache.store(keyFor(1, 2, 7), {ec::Equivalence::Equivalent, std::nullopt});
  cache.store(keyFor(3, 4, 7),
              {ec::Equivalence::NotEquivalent,
               ec::Counterexample{21, 0.25, ec::StimuliKind::RandomStabilizer}});
  cache.persistTo(nullptr);

  svc::VerdictCache reloaded;
  std::istringstream replay(log.str());
  EXPECT_EQ(reloaded.load(replay), 2U);
  EXPECT_EQ(reloaded.corruptLines(), 0U);

  const auto eq = reloaded.lookup(keyFor(1, 2, 7));
  ASSERT_TRUE(eq.has_value());
  EXPECT_EQ(eq->equivalence, ec::Equivalence::Equivalent);
  EXPECT_FALSE(eq->counterexample.has_value());

  const auto ne = reloaded.lookup(keyFor(3, 4, 7));
  ASSERT_TRUE(ne.has_value());
  EXPECT_EQ(ne->equivalence, ec::Equivalence::NotEquivalent);
  ASSERT_TRUE(ne->counterexample.has_value());
  EXPECT_EQ(ne->counterexample->input, 21U);
  EXPECT_DOUBLE_EQ(ne->counterexample->fidelity, 0.25);
  EXPECT_EQ(ne->counterexample->stimuli, ec::StimuliKind::RandomStabilizer);
}

TEST(VerdictCache, CorruptLinesAreSkippedAndCounted) {
  const std::string good = svc::VerdictCache::toJsonLine(
      keyFor(9, 9), {ec::Equivalence::Equivalent, std::nullopt});
  std::istringstream replay("this is not json\n" + good +
                            "\n{\"schema\":\"wrong-schema\"}\n"
                            "{\"schema\":\"qsimec-cache-v1\",\"g\":\"zz\"}\n"
                            "\n" // blank: skipped, not corrupt
                            + good.substr(0, good.size() / 2) + "\n");
  svc::VerdictCache cache;
  EXPECT_EQ(cache.load(replay), 1U);
  EXPECT_EQ(cache.corruptLines(), 4U);
  EXPECT_TRUE(cache.lookup(keyFor(9, 9)).has_value());
}

TEST(VerdictCache, ConfigDigestMismatchMisses) {
  svc::VerdictCache cache;
  cache.store(keyFor(1, 2, /*config=*/10),
              {ec::Equivalence::Equivalent, std::nullopt});
  EXPECT_FALSE(cache.lookup(keyFor(1, 2, /*config=*/11)).has_value());
  EXPECT_TRUE(cache.lookup(keyFor(1, 2, /*config=*/10)).has_value());
  EXPECT_EQ(cache.hits(), 1U);
  EXPECT_EQ(cache.misses(), 1U);
}

TEST(VerdictCache, CheapestProofIsEvictedFirst) {
  // recency would evict the 300 s proof (stored first = coldest); the
  // cost-aware policy keeps it and drops the 0.01 s one instead
  svc::VerdictCache cache(2);
  cache.store(keyFor(1, 1), {ec::Equivalence::Equivalent, std::nullopt, 300.0});
  cache.store(keyFor(2, 2), {ec::Equivalence::Equivalent, std::nullopt, 0.01});
  cache.store(keyFor(3, 3), {ec::Equivalence::Equivalent, std::nullopt, 5.0});

  EXPECT_EQ(cache.evictions(), 1U);
  EXPECT_DOUBLE_EQ(cache.evictedSeconds(), 0.01);
  EXPECT_TRUE(cache.lookup(keyFor(1, 1)).has_value());
  EXPECT_FALSE(cache.lookup(keyFor(2, 2)).has_value());
  EXPECT_TRUE(cache.lookup(keyFor(3, 3)).has_value());

  // the next eviction takes the cheapest resident (the 5 s proof) to make
  // room for the newcomer, and the counter accumulates
  cache.store(keyFor(4, 4), {ec::Equivalence::Equivalent, std::nullopt, 1.0});
  EXPECT_EQ(cache.evictions(), 2U);
  EXPECT_DOUBLE_EQ(cache.evictedSeconds(), 0.01 + 5.0);
  EXPECT_TRUE(cache.lookup(keyFor(1, 1)).has_value());
  EXPECT_FALSE(cache.lookup(keyFor(3, 3)).has_value());
  EXPECT_TRUE(cache.lookup(keyFor(4, 4)).has_value());
}

TEST(VerdictCache, EqualCostsFallBackToLru) {
  // all costs unknown (0): the policy must degrade to exactly the old LRU
  // behaviour, lookup refresh included
  svc::VerdictCache cache(2);
  const svc::CachedVerdict eq{ec::Equivalence::Equivalent, std::nullopt};
  cache.store(keyFor(1, 1), eq);
  cache.store(keyFor(2, 2), eq);
  EXPECT_TRUE(cache.lookup(keyFor(1, 1)).has_value());
  cache.store(keyFor(3, 3), eq); // evicts 2, not the freshly-touched 1
  EXPECT_TRUE(cache.lookup(keyFor(1, 1)).has_value());
  EXPECT_FALSE(cache.lookup(keyFor(2, 2)).has_value());
}

TEST(VerdictCache, ProofSecondsSurviveAVersionedRoundTrip) {
  std::ostringstream log;
  svc::VerdictCache cache;
  cache.persistTo(&log);
  cache.store(keyFor(1, 2, 7),
              {ec::Equivalence::Equivalent, std::nullopt, 12.5});
  cache.persistTo(nullptr);
  EXPECT_NE(log.str().find("\"schema\":\"qsimec-cache-v2\""),
            std::string::npos);
  EXPECT_NE(log.str().find("\"seconds\":12.5"), std::string::npos);

  svc::VerdictCache reloaded(2);
  std::istringstream replay(log.str());
  EXPECT_EQ(reloaded.load(replay), 1U);
  // the reloaded cost still protects the entry from a cheap newcomer
  reloaded.store(keyFor(3, 3), {ec::Equivalence::Equivalent, std::nullopt});
  reloaded.store(keyFor(4, 4), {ec::Equivalence::Equivalent, std::nullopt});
  EXPECT_TRUE(reloaded.lookup(keyFor(1, 2, 7)).has_value());
}

TEST(VerdictCache, V1LinesLoadWithZeroCost) {
  // a pre-cost cache file: same fields minus "seconds", v1 schema tag
  const std::string v1 =
      "{\"schema\":\"qsimec-cache-v1\""
      ",\"g\":\"00000000000000090000000000000009\""
      ",\"gp\":\"00000000000000090000000000000009\""
      ",\"config\":\"00000000000000000000000000000001\""
      ",\"verdict\":\"equivalent\",\"counterexample\":null}";
  svc::VerdictCache cache;
  std::istringstream replay(v1 + "\n");
  EXPECT_EQ(cache.load(replay), 1U);
  EXPECT_EQ(cache.corruptLines(), 0U);
  const auto entry = cache.lookup(keyFor(9, 9));
  ASSERT_TRUE(entry.has_value());
  EXPECT_DOUBLE_EQ(entry->proofSeconds, 0.0); // cost unknown = cheapest
}

// ------------------------------------------------------------ BatchScheduler

class BatchTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("qsimec_svc_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);

    // three equivalent pairs (proof via the complete check), one
    // non-equivalent pair (proof via counterexample): all four verdicts
    // are cacheable, so a warm rerun needs zero checker work
    write("qft_a.qasm", gen::qft(3));
    write("qft_b.qasm", gen::qftAlternative(3));
    write("adder.real", gen::adderCircuit(4));
    write("inc.real", gen::incrementCircuit(4));
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write(const std::string& name, const ir::QuantumComputation& qc) {
    std::ofstream os(dir_ / name);
    if (name.ends_with(".real")) {
      io::writeReal(qc, os);
    } else {
      io::writeQasm(qc, os);
    }
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  [[nodiscard]] std::string manifestText() const {
    return "{\"g\": \"" + path("qft_a.qasm") + "\", \"gp\": \"" +
           path("qft_b.qasm") + "\"}\n"
           "{\"g\": \"" + path("adder.real") + "\", \"gp\": \"" +
           path("adder.real") + "\"}\n"
           "\n" // blank lines are allowed
           "{\"g\": \"" + path("adder.real") + "\", \"gp\": \"" +
           path("inc.real") + "\", \"sims\": 16}\n"
           "{\"g\": \"" + path("qft_a.qasm") + "\", \"gp\": \"" +
           path("qft_a.qasm") + "\"}\n";
  }

  [[nodiscard]] svc::BatchManifest manifest() const {
    std::istringstream is(manifestText());
    ec::FlowConfiguration base;
    base.complete.timeoutSeconds = 60.0;
    return svc::parseManifest(is, base);
  }

  // Aggregate-initializing BatchOptions with a subset of fields trips
  // -Wmissing-field-initializers under -Werror builds; spell it out once.
  static svc::BatchOptions options(unsigned threads,
                                   svc::VerdictCache* cache = nullptr) {
    svc::BatchOptions o;
    o.threads = threads;
    o.cache = cache;
    return o;
  }

  static std::string redactedLines(const svc::BatchResult& result) {
    std::string out;
    for (const auto& outcome : result.outcomes) {
      out += svc::toJsonLine(outcome, {.redact = true});
      out += '\n';
    }
    out += svc::toJsonLine(result.summary, {.redact = true});
    out += '\n';
    return out;
  }

  fs::path dir_;
};

TEST_F(BatchTest, ManifestParsing) {
  const svc::BatchManifest m = manifest();
  ASSERT_EQ(m.pairs.size(), 4U);
  EXPECT_EQ(m.pairs[0].gPath, path("qft_a.qasm"));
  EXPECT_EQ(m.pairs[2].config.simulation.maxSimulations, 16U);
  EXPECT_EQ(m.pairs[0].config.simulation.maxSimulations, 10U); // base
  EXPECT_DOUBLE_EQ(m.pairs[1].config.complete.timeoutSeconds, 60.0);
}

TEST_F(BatchTest, ManifestErrorsNameTheLine) {
  ec::FlowConfiguration base;
  {
    std::istringstream is("{\"g\": \"a\", \"gp\": \"b\"}\nnot json\n");
    EXPECT_THROW(
        {
          try {
            (void)svc::parseManifest(is, base);
          } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("line 2"),
                      std::string::npos)
                << e.what();
            throw;
          }
        },
        std::runtime_error);
  }
  {
    std::istringstream is("{\"g\": \"a\", \"gp\": \"b\", \"bogus\": 1}\n");
    EXPECT_THROW((void)svc::parseManifest(is, base), std::runtime_error);
  }
  {
    std::istringstream is("{\"g\": \"a\"}\n");
    EXPECT_THROW((void)svc::parseManifest(is, base), std::runtime_error);
  }
}

TEST_F(BatchTest, VerdictsMatchIndividualChecksInManifestOrder) {
  const svc::BatchManifest m = manifest();
  svc::BatchScheduler scheduler(options(2));
  const svc::BatchResult result = scheduler.run(m);

  ASSERT_EQ(result.outcomes.size(), 4U);
  for (std::size_t i = 0; i < m.pairs.size(); ++i) {
    EXPECT_EQ(result.outcomes[i].index, i);
    const auto loadFile = [](const std::string& p) {
      return p.ends_with(".real") ? io::parseRealFile(p)
                                  : io::parseQasmFile(p);
    };
    const ec::FlowResult solo =
        ec::EquivalenceCheckingFlow(m.pairs[i].config)
            .run(loadFile(m.pairs[i].gPath), loadFile(m.pairs[i].gPrimePath));
    EXPECT_EQ(result.outcomes[i].equivalence, solo.equivalence)
        << "pair " << i;
    EXPECT_EQ(result.outcomes[i].counterexample.has_value(),
              solo.counterexample.has_value());
    if (result.outcomes[i].counterexample && solo.counterexample) {
      EXPECT_EQ(result.outcomes[i].counterexample->input,
                solo.counterexample->input);
    }
  }
}

TEST_F(BatchTest, RedactedSerializationIsIdenticalAcrossThreadCounts) {
  const svc::BatchManifest m = manifest();
  std::string reference;
  for (const unsigned threads : {1U, 2U, 8U}) {
    svc::BatchScheduler scheduler(options(threads));
    const std::string lines = redactedLines(scheduler.run(m));
    if (reference.empty()) {
      reference = lines;
    } else {
      EXPECT_EQ(lines, reference) << "threads=" << threads;
    }
  }
}

TEST_F(BatchTest, WarmCacheRerunDispatchesZeroCheckerWork) {
  const svc::BatchManifest m = manifest();
  svc::VerdictCache cache;

  svc::BatchScheduler cold(options(2, &cache));
  const svc::BatchResult first = cold.run(m);
  EXPECT_EQ(first.summary.cacheHits, 0U);
  EXPECT_EQ(first.summary.cacheStores, m.pairs.size());

  obs::MetricsRegistry metrics;
  obs::Context obsContext;
  obsContext.metrics = &metrics;
  svc::BatchScheduler warm(options(8, &cache));
  const svc::BatchResult second = warm.run(m, obsContext);

  // every pair answered from the cache: zero dispatches, and the metrics
  // counter agrees
  EXPECT_EQ(second.summary.cacheHits, m.pairs.size());
  EXPECT_EQ(second.summary.cacheStores, 0U);
  const auto& counters = metrics.snapshot().counters;
  const auto hit = counters.find("svc.cache.hit");
  ASSERT_NE(hit, counters.end());
  EXPECT_EQ(hit->second, m.pairs.size());
  const auto miss = counters.find("svc.cache.miss");
  ASSERT_NE(miss, counters.end());
  EXPECT_EQ(miss->second, 0U);

  // verdicts are the same answers the cold run produced
  for (std::size_t i = 0; i < m.pairs.size(); ++i) {
    EXPECT_EQ(second.outcomes[i].equivalence, first.outcomes[i].equivalence);
    EXPECT_TRUE(second.outcomes[i].cacheHit);
  }
}

TEST_F(BatchTest, DuplicateManifestEntriesAreDeduplicated) {
  // the same (fingerprint, fingerprint, configDigest) triple three times:
  // only the first occurrence is dispatched; the verdict fans out to the
  // other two in manifest order
  const std::string text =
      "{\"g\": \"" + path("qft_a.qasm") + "\", \"gp\": \"" +
      path("qft_b.qasm") + "\"}\n"
      "{\"g\": \"" + path("qft_a.qasm") + "\", \"gp\": \"" +
      path("qft_b.qasm") + "\"}\n"
      "{\"g\": \"" + path("adder.real") + "\", \"gp\": \"" +
      path("inc.real") + "\"}\n"
      "{\"g\": \"" + path("qft_a.qasm") + "\", \"gp\": \"" +
      path("qft_b.qasm") + "\"}\n";
  std::istringstream is(text);
  ec::FlowConfiguration base;
  base.complete.timeoutSeconds = 60.0;
  const svc::BatchManifest m = svc::parseManifest(is, base);

  svc::BatchScheduler scheduler(options(2));
  const svc::BatchResult result = scheduler.run(m);

  ASSERT_EQ(result.outcomes.size(), 4U);
  EXPECT_EQ(result.summary.deduped, 2U);
  EXPECT_FALSE(result.outcomes[0].deduped);
  EXPECT_TRUE(result.outcomes[1].deduped);
  EXPECT_FALSE(result.outcomes[2].deduped);
  EXPECT_TRUE(result.outcomes[3].deduped);
  // the copied verdict matches the representative's, tier and all
  for (const std::size_t dup : {std::size_t{1}, std::size_t{3}}) {
    EXPECT_EQ(result.outcomes[dup].equivalence,
              result.outcomes[0].equivalence);
    EXPECT_EQ(result.outcomes[dup].tier, result.outcomes[0].tier);
    EXPECT_EQ(result.outcomes[dup].gateSet, result.outcomes[0].gateSet);
  }
}

TEST_F(BatchTest, DifferentConfigOverridesDefeatDeduplication) {
  // the same circuit pair under different verdict-relevant overrides must
  // NOT be coalesced — the configDigest keeps the triples apart
  const std::string text =
      "{\"g\": \"" + path("qft_a.qasm") + "\", \"gp\": \"" +
      path("qft_b.qasm") + "\"}\n"
      "{\"g\": \"" + path("qft_a.qasm") + "\", \"gp\": \"" +
      path("qft_b.qasm") + "\", \"sims\": 16}\n";
  std::istringstream is(text);
  ec::FlowConfiguration base;
  base.complete.timeoutSeconds = 60.0;
  const svc::BatchManifest m = svc::parseManifest(is, base);

  svc::BatchScheduler scheduler(options(2));
  const svc::BatchResult result = scheduler.run(m);
  ASSERT_EQ(result.outcomes.size(), 2U);
  EXPECT_EQ(result.summary.deduped, 0U);
  EXPECT_FALSE(result.outcomes[1].deduped);
}

TEST_F(BatchTest, DedupedBatchSerializationIsStableAcrossThreadCounts) {
  const std::string text =
      "{\"g\": \"" + path("adder.real") + "\", \"gp\": \"" +
      path("adder.real") + "\"}\n"
      "{\"g\": \"" + path("qft_a.qasm") + "\", \"gp\": \"" +
      path("qft_b.qasm") + "\"}\n"
      "{\"g\": \"" + path("adder.real") + "\", \"gp\": \"" +
      path("adder.real") + "\"}\n";
  ec::FlowConfiguration base;
  base.complete.timeoutSeconds = 60.0;
  std::string reference;
  for (const unsigned threads : {1U, 2U, 8U}) {
    std::istringstream is(text);
    const svc::BatchManifest m = svc::parseManifest(is, base);
    svc::BatchScheduler scheduler(options(threads));
    const std::string lines = redactedLines(scheduler.run(m));
    if (reference.empty()) {
      reference = lines;
    } else {
      EXPECT_EQ(lines, reference) << "threads=" << threads;
    }
  }
}

TEST_F(BatchTest, UnreadableFileYieldsInvalidInputAndBatchContinues) {
  ec::FlowConfiguration base;
  std::istringstream is("{\"g\": \"" + path("nope.qasm") + "\", \"gp\": \"" +
                        path("qft_a.qasm") + "\"}\n"
                        "{\"g\": \"" + path("adder.real") +
                        "\", \"gp\": \"" + path("adder.real") + "\"}\n");
  const svc::BatchManifest m = svc::parseManifest(is, base);
  svc::BatchScheduler scheduler(options(1));
  const svc::BatchResult result = scheduler.run(m);

  ASSERT_EQ(result.outcomes.size(), 2U);
  EXPECT_EQ(result.outcomes[0].equivalence, ec::Equivalence::InvalidInput);
  EXPECT_FALSE(result.outcomes[0].error.empty());
  EXPECT_EQ(result.outcomes[1].equivalence, ec::Equivalence::Equivalent);
  EXPECT_EQ(result.summary.invalid, 1U);
  EXPECT_EQ(result.summary.equivalent, 1U);
}

} // namespace
