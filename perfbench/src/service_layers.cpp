// The service layers' measurement: closed loops of small manifests against
// a `qsimec serve` child process, run inside the traced small_pairs run
// (see README.md, "The service layers").

#include "workloads.hpp"

#include "daemon/client.hpp"
#include "daemon/protocol.hpp"
#include "ec/serialize.hpp"
#include "svc/fingerprint.hpp"
#include "svc/verdict_cache.hpp"
#include "util/json_parse.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fcntl.h>
#include <fstream>
#include <map>
#include <mutex>
#include <spawn.h>
#include <stdexcept>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char** environ;

namespace perfbench {

namespace qs = qsimec;

namespace {

// Closed-loop clients (each with one request in flight) and the verdict
// cache size, for nproc = 4. The cache holds fewer proofs than a run checks
// distinct pairs, so stores also evict.
constexpr unsigned kClients = 4;
constexpr std::size_t kCacheCapacity = 64;
constexpr const char* kSocket = "d.sock";

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

const char* extension(Format f) {
  switch (f) {
  case Format::Real:
    return ".real";
  case Format::Tfc:
    return ".tfc";
  case Format::Qasm:
    break;
  }
  return ".qasm";
}

/// A `qsimec serve` child. The destructor stops a server that is still
/// running and always waits for it.
class Server {
public:
  Server(const std::string& qsimec, unsigned threads) {
    std::vector<std::string> args{qsimec,
                                  "serve",
                                  "--socket",
                                  kSocket,
                                  "--threads",
                                  std::to_string(threads),
                                  "--cache-capacity",
                                  std::to_string(kCacheCapacity)};
    std::vector<char*> argv;
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "server.log",
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    const int rc =
        posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      throw std::runtime_error("cannot spawn qsimec serve");
    }
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      reap();
    }
  }

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Block until the server answers a status request.
  void waitReady() const {
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < deadline) {
      try {
        (void)qs::daemon::fetchStatus(kSocket, 5.0);
        return;
      } catch (const std::exception&) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    throw std::runtime_error("qsimec serve did not come up");
  }

  /// Graceful drain, then wait for the process to exit.
  void stop() {
    if (pid_ <= 0) {
      return;
    }
    try {
      (void)qs::daemon::sendShutdown(kSocket, 30.0);
    } catch (const std::exception&) {
      ::kill(pid_, SIGTERM);
    }
    reap();
  }

private:
  void reap() {
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

  pid_t pid_{-1};
};

struct PairVerdict {
  std::size_t pairId{0};
  qs::ec::Equivalence equivalence{qs::ec::Equivalence::NoInformation};
  std::optional<qs::ec::Counterexample> cex;
  bool cacheHit{false};
  bool deduped{false};
  double seconds{0.0};
};

struct Reply {
  bool ok{false};
  bool refused{false};
  double admitSeconds{0.0};
  double serviceSeconds{0.0};
  std::size_t pairs{0};
  std::size_t cacheHits{0};
  std::size_t dispatched{0};
  std::vector<PairVerdict> verdicts;
};

struct Request {
  std::vector<std::size_t> pairIds;
  std::string manifest;
};

/// The counterexample object of a result line. The stimulus index is read
/// from the text: a 64-bit stimulus seed does not survive a double.
std::optional<qs::ec::Counterexample> parseCounterexample(const std::string& line,
                                                         const qs::util::JsonValue& v) {
  const qs::util::JsonValue* cex = v.find("counterexample");
  if (cex == nullptr || cex->isNull()) {
    return std::nullopt;
  }
  qs::ec::Counterexample out;
  const std::string key = "\"counterexample\":{\"input\":";
  const auto at = line.find(key);
  if (at == std::string::npos) {
    throw std::runtime_error("unexpected counterexample shape");
  }
  out.input = std::strtoull(line.c_str() + at + key.size(), nullptr, 10);
  out.fidelity = cex->at("fidelity").asNumber();
  const auto kind = qs::ec::parseStimuliKind(cex->at("stimuli").asString());
  if (!kind) {
    throw std::runtime_error("unknown stimuli kind");
  }
  out.stimuli = *kind;
  return out;
}

Reply submit(const Request& request, LoadSample& sample,
             SpanRecorder& spans, std::uint32_t parentSpan) {
  Reply reply;
  const std::uint32_t requestSpan = spans.begin("daemon.request", parentSpan);
  qs::daemon::RequestHeader header;
  header.op = qs::daemon::RequestOp::Submit;
  header.client = "perfbench";
  const qs::daemon::Socket connection = qs::daemon::connectUnix(kSocket);
  qs::daemon::writeAll(connection,
                       qs::daemon::toJsonLine(header) + "\n" + request.manifest);
  qs::daemon::shutdownWrite(connection);
  const std::string first = qs::daemon::readLine(connection, 120.0);
  const auto admitted = Clock::now();
  reply.admitSeconds = secondsBetween(sample.sent, admitted);
  spans.add("daemon.admit", requestSpan, sample.sent, admitted);
  const qs::util::JsonValue admission = qs::util::parseJson(first);
  const qs::util::JsonValue* accepted = admission.find("accepted");
  if (accepted == nullptr || !accepted->asBool()) {
    reply.refused = true;
    sample.done = Clock::now();
    spans.end(requestSpan);
    return reply;
  }
  const std::string body = qs::daemon::readAll(connection, 120.0);
  sample.done = Clock::now();
  const std::uint32_t replySpan =
      spans.add("daemon.reply", requestSpan, admitted, sample.done);
  std::size_t start = 0;
  bool summary = false;
  while (start < body.size()) {
    const std::size_t end = std::min(body.find('\n', start), body.size());
    const std::string line = body.substr(start, end - start);
    start = end + 1;
    if (line.empty()) {
      continue;
    }
    const qs::util::JsonValue v = qs::util::parseJson(line);
    if (const qs::util::JsonValue* s = v.find("summary"); s != nullptr && s->asBool()) {
      summary = true;
      reply.pairs = v.at("pairs").asUint();
      reply.cacheHits = v.at("cache_hits").asUint();
      reply.dispatched = v.at("dispatched").asUint();
      reply.serviceSeconds = v.at("seconds").asNumber();
      continue;
    }
    PairVerdict verdict;
    const std::size_t index = v.at("index").asUint();
    if (index >= request.pairIds.size()) {
      throw std::runtime_error("result line for an unknown pair");
    }
    verdict.pairId = request.pairIds[index];
    const auto e = qs::ec::parseEquivalence(v.at("equivalence").asString());
    verdict.equivalence = e.value_or(qs::ec::Equivalence::InvalidInput);
    verdict.cex = parseCounterexample(line, v);
    verdict.cacheHit = v.at("cache_hit").asBool();
    verdict.deduped = v.at("deduped").asBool();
    verdict.seconds = v.at("seconds").asNumber();
    reply.verdicts.push_back(std::move(verdict));
  }
  // the service interval, reconstructed from the summary line, ends when
  // the reply arrived; everything before it inside the reply is queueing
  const auto serviceStart =
      sample.done - std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(reply.serviceSeconds));
  spans.add("daemon.service", replySpan, std::max(serviceStart, admitted),
            sample.done);
  spans.end(requestSpan);
  reply.ok = summary && reply.verdicts.size() == request.pairIds.size();
  return reply;
}

struct Phase {
  std::vector<LoadSample> samples;
  std::vector<Reply> replies;
  double wallSeconds{0.0};
};

class Mix {
public:
  Mix(std::vector<Pair> pool, std::vector<Request> stream)
      : pool_(std::move(pool)), stream_(std::move(stream)), judge_(pool_) {}
  Mix(const Mix&) = delete;
  Mix& operator=(const Mix&) = delete;

  /// `clients` closed-loop clients for `seconds`, taking the next requests
  /// of the stream.
  Phase run(unsigned clients, double seconds, SpanRecorder& spans) {
    Phase phase;
    const std::size_t offset = cursor_;
    std::mutex mutex;
    std::map<std::size_t, Reply> replies; // guarded by mutex
    const ScopedSpan phaseSpan(spans, "mix.phase");
    const auto start = Clock::now();
    phase.samples = runClosedLoad(
        clients, seconds, [&](std::size_t k, LoadSample& sample) {
          if (offset + k >= stream_.size()) {
            throw std::runtime_error("request stream exhausted");
          }
          Reply reply = submit(stream_[offset + k], sample, spans, phaseSpan.id());
          sample.ok = reply.ok;
          const std::lock_guard<std::mutex> lock(mutex);
          replies[k] = std::move(reply);
        });
    phase.wallSeconds = secondsBetween(start, Clock::now());
    cursor_ += phase.samples.size();
    phase.replies.resize(phase.samples.size());
    for (auto& [k, reply] : replies) {
      phase.replies[k] = std::move(reply);
    }
    return phase;
  }

  /// Judge every verdict of a phase; returns the number of wrong ones.
  std::size_t judgePhase(const Phase& phase, std::size_t& conclusive,
                         std::size_t& verdicts) {
    std::size_t wrong = 0;
    for (const Reply& reply : phase.replies) {
      for (const PairVerdict& v : reply.verdicts) {
        const Judgement judgement = judge_(v.pairId, v.equivalence, v.cex);
        ++verdicts;
        conclusive += judgement == Judgement::Inconclusive ? 0 : 1;
        wrong += judgement == Judgement::Wrong ? 1 : 0;
      }
    }
    return wrong;
  }

  [[nodiscard]] const std::vector<Pair>& pool() const { return pool_; }
  [[nodiscard]] const std::vector<Request>& stream() const { return stream_; }
  [[nodiscard]] std::size_t cursor() const { return cursor_; }

private:
  std::vector<Pair> pool_;
  std::vector<Request> stream_;
  VerdictJudge judge_; // refers to pool_
  std::size_t cursor_{0};
};

/// Deterministic request stream over general-family fuzz pairs, the
/// family whose check cost varies least. Every request checks one fresh
/// small error pair (an input-flip twin: one stimulus, then a stored
/// disproof); every fourth request also checks a fresh known-equivalent
/// pair (every stimulus plus the complete check, then a stored proof),
/// alternating small and medium. To them come 1-4 repeats of the last 16
/// distinct pairs sent (cache reads with zero dispatch), so about half the
/// pairs are repeats. Every request doing fresh work of one of two steady
/// kinds puts p50 inside the mode of the 3 in 4 light requests and p90
/// inside the mode of the 1 in 4 heavy ones, instead of on the edge
/// between cache reads and checks.
std::vector<Request> makeStream(std::uint64_t seed, const std::vector<Pair>& pool,
                                std::size_t smallCount, std::size_t equivalentCount,
                                std::size_t count, const std::string& dir) {
  std::vector<std::size_t> errors;
  std::vector<std::size_t> equivalent[2]; // small, medium
  for (std::size_t id = 0; id < pool.size(); ++id) {
    (id < smallCount ? equivalent[0]
                     : id < equivalentCount ? equivalent[1] : errors)
        .push_back(id);
  }
  std::vector<Request> stream(count);
  std::vector<std::size_t> recent;
  std::uint64_t state = mix(seed ^ 0x5e7);
  const auto draw = [&state](std::uint64_t n) {
    state = mix(state);
    return state % n;
  };
  for (std::size_t k = 0; k < count; ++k) {
    Request& request = stream[k];
    std::vector<std::size_t> newPairs{errors[k % errors.size()]};
    if (k % 4 == 3) {
      const std::size_t heavy = k / 4;
      const std::vector<std::size_t>& list = equivalent[heavy % 2];
      newPairs.push_back(list[(heavy / 2) % list.size()]);
    }
    request.pairIds = newPairs;
    for (std::size_t repeats = 1 + draw(4); repeats > 0 && !recent.empty();
         --repeats) {
      request.pairIds.push_back(recent[draw(recent.size())]);
    }
    recent.insert(recent.end(), newPairs.begin(), newPairs.end());
    while (recent.size() > 16) {
      recent.erase(recent.begin());
    }
    for (const std::size_t id : request.pairIds) {
      const std::string base = dir + "/" + std::to_string(id);
      request.manifest += "{\"g\":\"" + base + "_g" + extension(pool[id].gFormat) +
                          "\",\"gp\":\"" + base + "_gp" +
                          extension(pool[id].gpFormat) + "\"}\n";
    }
  }
  return stream;
}

std::size_t countFailed(const Phase& phase) {
  return static_cast<std::size_t>(std::count_if(
      phase.samples.begin(), phase.samples.end(),
      [](const LoadSample& s) { return !s.ok; }));
}

} // namespace

void measureServiceLayers(const RunOptions& options, RunResult& out) {
  // the daemon and the bench share the work directory as their cwd, which
  // keeps the socket path short
  if (chdir(options.workDir.c_str()) != 0) {
    throw std::runtime_error("cannot enter " + options.workDir);
  }
  // Small known-equivalent general pairs whose two circuits differ as
  // written (identical ones are decided statically, a second cost mode),
  // then medium known-equivalent pairs, then error twins: every small pair
  // with an X on each of its input wires in turn, so a run never runs out
  // of fresh twins.
  const auto distinct = [](std::vector<Pair> pairs) {
    std::erase_if(pairs, [](const Pair& p) { return p.g.ops() == p.gp.ops(); });
    return pairs;
  };
  std::vector<Pair> pool = distinct(fuzzPairs(options.seed, 160, false, 2, true, false));
  const std::size_t small = pool.size();
  for (Pair& p : distinct(fuzzPairs(options.seed, 40, true, 3, true, false))) {
    pool.push_back(std::move(p));
  }
  const std::size_t equivalentCount = pool.size();
  std::vector<std::pair<std::size_t, std::size_t>> flips; // (pair, wire)
  for (std::size_t wire = 0; wire < 8; ++wire) {
    for (std::size_t i = 0; i < small; ++i) {
      if (wire < pool[i].qubits) {
        flips.emplace_back(i, wire);
      }
    }
  }
  std::vector<Pair> twins = makePairs(flips.size(), [&](std::size_t k) {
    const auto [i, wire] = flips[k];
    return makePair(pool[i].name + " flip " + std::to_string(wire),
                    pool[i].family, pool[i].g, withInputFlip(pool[i].gp, wire),
                    false);
  });
  for (Pair& p : twins) {
    pool.push_back(std::move(p));
  }
  const std::string dir = options.workDir + "/mix";
  std::filesystem::create_directories(dir);
  for (std::size_t id = 0; id < pool.size(); ++id) {
    const std::string base = dir + "/" + std::to_string(id);
    std::ofstream(base + "_g" + extension(pool[id].gFormat)) << pool[id].gText;
    std::ofstream(base + "_gp" + extension(pool[id].gpFormat)) << pool[id].gpText;
  }
  out.notes["service_input_digest"] = inputDigest(pool);
  out.notes["service_pairs"] = std::to_string(pool.size());
  std::vector<Request> stream =
      makeStream(options.seed, pool, small, equivalentCount, 4096, dir);
  Mix load(std::move(pool), std::move(stream));

  Server server(options.qsimecPath, options.nproc);
  server.waitReady();
  std::size_t conclusive = 0;
  std::size_t verdicts = 0;
  SpanRecorder off(false);
  SpanRecorder spans(true);
  // a warm-up (the fresh server's workers first touch cold memory), then
  // the traced load
  const Phase warmup = load.run(kClients, options.seconds * 0.05, off);
  const Phase traced = load.run(kClients, options.seconds * 0.2, spans);
  for (const Phase* phase : {&warmup, &traced}) {
    out.attempted += phase->samples.size();
    out.failed += countFailed(*phase);
    out.wrong += load.judgePhase(*phase, conclusive, verdicts);
  }
  const std::string status = qs::daemon::fetchStatus(kSocket, 30.0);
  server.stop();

  double admit = 0, service = 0, queue = 0, busy = 0;
  std::size_t ok = 0, refused = 0, pairs = 0, hits = 0, dispatched = 0;
  for (std::size_t k = 0; k < traced.samples.size(); ++k) {
    const LoadSample& s = traced.samples[k];
    const Reply& r = traced.replies[k];
    refused += r.refused ? 1 : 0;
    if (!r.ok) {
      continue;
    }
    ++ok;
    admit += r.admitSeconds;
    service += r.serviceSeconds;
    queue += secondsBetween(s.sent, s.done) - r.admitSeconds - r.serviceSeconds;
    pairs += r.pairs;
    hits += r.cacheHits;
    dispatched += r.dispatched;
    for (const PairVerdict& v : r.verdicts) {
      if (!v.cacheHit && !v.deduped) {
        busy += v.seconds;
      }
    }
  }
  const auto n = static_cast<double>(std::max<std::size_t>(ok, 1));
  const auto set = [&out](const std::string& name, double value) {
    out.layers[name].value = value;
  };
  set("daemon.admit_ms", 1e3 * admit / n);
  set("daemon.service_ms", 1e3 * service / n);
  set("daemon.queue_wait_ms", 1e3 * queue / n);
  set("daemon.refused_share",
      static_cast<double>(refused) /
          static_cast<double>(std::max<std::size_t>(traced.samples.size(), 1)));
  set("daemon.pool_busy_share",
      busy / (static_cast<double>(options.nproc) * traced.wallSeconds));
  set("svc.cache_hit_ratio",
      static_cast<double>(hits) / static_cast<double>(std::max<std::size_t>(pairs, 1)));
  set("svc.dispatched_share", static_cast<double>(dispatched) /
                                  static_cast<double>(std::max<std::size_t>(pairs, 1)));
  {
    const qs::util::JsonValue cache = qs::util::parseJson(status).at("cache");
    set("svc.cache_evictions", cache.at("evictions").asNumber());
    set("svc.evicted_s", cache.at("evicted_seconds").asNumber());
  }
  // the service layer's own calls, in this process: fingerprint both
  // circuits and consult a cache of the daemon's size, over the pairs of
  // the requests the traced phase sent
  {
    qs::svc::VerdictCache cache(kCacheCapacity);
    const std::uint64_t digest = qs::svc::configDigest(qs::ec::FlowConfiguration{});
    double fp = 0, lookup = 0, store = 0;
    std::size_t fps = 0, lookups = 0, stores = 0;
    const ScopedSpan root(spans, "svc.replay");
    for (std::size_t r = 0; r < load.cursor(); ++r) {
      for (const std::size_t id : load.stream()[r].pairIds) {
        const Pair& pair = load.pool()[id];
        auto t0 = Clock::now();
        qs::svc::PairKey key;
        {
          const ScopedSpan span(spans, "svc.fingerprint", root.id());
          key = {qs::svc::fingerprint(pair.g), qs::svc::fingerprint(pair.gp), digest};
        }
        auto t1 = Clock::now();
        fp += secondsBetween(t0, t1);
        fps += 2;
        std::optional<qs::svc::CachedVerdict> hit;
        {
          const ScopedSpan span(spans, "svc.cache_lookup", root.id());
          hit = cache.lookup(key);
        }
        auto t2 = Clock::now();
        lookup += secondsBetween(t1, t2);
        ++lookups;
        if (!hit) {
          const qs::svc::CachedVerdict verdict{
              pair.equivalent ? qs::ec::Equivalence::Equivalent
                              : qs::ec::Equivalence::NotEquivalent,
              std::nullopt, 1e-3 * static_cast<double>(pair.g.size())};
          {
            const ScopedSpan span(spans, "svc.cache_store", root.id());
            cache.store(key, verdict);
          }
          store += secondsBetween(t2, Clock::now());
          ++stores;
        }
      }
    }
    set("svc.fingerprint_us", 1e6 * fp / static_cast<double>(std::max<std::size_t>(fps, 1)));
    set("svc.cache_lookup_us",
        1e6 * lookup / static_cast<double>(std::max<std::size_t>(lookups, 1)));
    set("svc.cache_store_us",
        1e6 * store / static_cast<double>(std::max<std::size_t>(stores, 1)));
  }

  const std::string base = options.workDir + "/trace-service-" + std::to_string(options.seed);
  std::ofstream(base + ".json") << spans.toChromeTraceJson();
  std::ofstream(base + ".folded") << toFoldedText(foldSelfTime(spans.spans()));
  out.notes["service_requests"] = std::to_string(traced.samples.size());
  out.notes["service_inconclusive"] = std::to_string(verdicts - conclusive);
}

} // namespace perfbench
