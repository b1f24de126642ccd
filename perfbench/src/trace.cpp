#include "trace.hpp"

#include "util/json.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::uint32_t SpanRecorder::currentLane() {
  static std::atomic<std::uint32_t> nextLane{0};
  thread_local const std::uint32_t lane = nextLane.fetch_add(1);
  return lane;
}

double SpanRecorder::microsSinceEpoch(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

std::uint32_t SpanRecorder::begin(std::string_view name,
                                  std::uint32_t parent) {
  if (!enabled_) {
    return 0;
  }
  const double now = microsSinceEpoch(Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = std::string(name);
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.lane = currentLane();
  span.startUs = now;
  span.endUs = now;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::end(std::uint32_t id) {
  if (id == 0) {
    return;
  }
  const double now = microsSinceEpoch(Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].endUs = now;
}

std::uint32_t SpanRecorder::add(std::string_view name, std::uint32_t parent,
                                Clock::time_point start,
                                Clock::time_point finish) {
  if (!enabled_) {
    return 0;
  }
  const std::uint32_t id = begin(name, parent);
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].startUs = microsSinceEpoch(start);
  spans_[id - 1].endUs = microsSinceEpoch(finish);
  return id;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string SpanRecorder::toChromeTraceJson() const {
  const std::vector<Span> all = spans();
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    qsimec::util::JsonWriter json;
    json.beginObject()
        .field("name", all[i].name)
        .field("ph", "X")
        .field("pid", static_cast<std::uint64_t>(1))
        .field("tid", static_cast<std::uint64_t>(all[i].lane))
        .field("ts", all[i].startUs)
        .field("dur", all[i].durationUs())
        .endObject();
    out += (i == 0 ? "" : ",") + json.str();
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

namespace {

/// Length of the union of [start, end) intervals, each clipped to [lo, hi).
double coveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi) {
  for (auto& [s, e] : intervals) {
    s = std::clamp(s, lo, hi);
    e = std::clamp(e, lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (const auto& [s, e] : intervals) {
    const double from = std::max(s, reach);
    if (e > from) {
      covered += e - from;
      reach = e;
    }
  }
  return covered;
}

} // namespace

SelfTimeFold foldSelfTime(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, const Span*> byId;
  std::unordered_map<std::uint32_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    byId[s.id] = &s;
  }
  for (const Span& s : spans) {
    if (s.parent != 0 && byId.count(s.parent) != 0) {
      children[s.parent].push_back(&s);
    }
  }
  const auto stack = [&](const Span& s) {
    std::vector<const Span*> chain;
    for (const Span* p = &s; p != nullptr;) {
      chain.push_back(p);
      const auto it = byId.find(p->parent);
      p = (p->parent == 0 || it == byId.end()) ? nullptr : it->second;
    }
    std::string path;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      path += (path.empty() ? "" : ";") + (*it)->name;
    }
    return path;
  };

  SelfTimeFold fold;
  for (const Span& s : spans) {
    std::vector<std::pair<double, double>> sameLane;
    for (const Span* c : children[s.id]) {
      if (c->lane == s.lane) {
        sameLane.emplace_back(c->startUs, c->endUs);
      }
    }
    const double self =
        s.durationUs() - coveredLength(std::move(sameLane), s.startUs, s.endUs);
    fold.byName[s.name] += self;
    fold.byStack[stack(s)] += self;
  }
  return fold;
}

std::string toFoldedText(const SelfTimeFold& fold) {
  std::ostringstream os;
  for (const auto& [stack, self] : fold.byStack) {
    os << stack << ' ' << static_cast<long long>(std::llround(self)) << '\n';
  }
  return os.str();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::optional<double> highestReportablePercentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // samples strictly beyond the p-th percentile's rank
    const auto atOrBelow =
        static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (n >= atOrBelow && n - atOrBelow >= 10) {
      return p;
    }
  }
  return std::nullopt;
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

std::vector<LoadSample>
runClosedLoad(unsigned clients, double seconds,
              const std::function<void(std::size_t, LoadSample&)>& send) {
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  std::mutex mutex;
  std::vector<LoadSample> samples; // guarded by mutex
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      while (Clock::now() < end) {
        std::size_t k = 0;
        {
          const std::lock_guard<std::mutex> lock(mutex);
          k = samples.size();
          samples.emplace_back();
        }
        LoadSample sample;
        sample.sent = Clock::now();
        try {
          send(k, sample);
        } catch (...) {
          sample.ok = false;
          sample.done = Clock::now();
        }
        const std::lock_guard<std::mutex> lock(mutex);
        samples[k] = sample;
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  return samples;
}

} // namespace perfbench
