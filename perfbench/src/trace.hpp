// The benchmark's own measurement toolkit: in-memory spans recorded around
// library calls, the per-lane self-time fold that reads them back,
// percentile rules, and the load loop of the service workload.
//
// Nothing here reaches into src/: spans wrap the public calls the workloads
// make, and are kept in memory until the run ends.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsBetween(Clock::time_point a,
                                           Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One recorded span. `parent` is 0 for a root; ids start at 1. `lane` is
/// the recording thread (dense ids in first-use order).
struct Span {
  std::string name;
  std::uint32_t id{0};
  std::uint32_t parent{0};
  std::uint32_t lane{0};
  double startUs{0.0};
  double endUs{0.0};
  [[nodiscard]] double durationUs() const { return endUs - startUs; }
};

/// Thread-safe span store. Disabled recorders cost one branch per call and
/// return id 0, which every other call ignores.
class SpanRecorder {
public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  std::uint32_t begin(std::string_view name, std::uint32_t parent = 0);
  void end(std::uint32_t id);
  /// Record an already-measured interval (e.g. reconstructed from a
  /// server's reply) as a child of `parent` on the calling thread's lane;
  /// returns its id.
  std::uint32_t add(std::string_view name, std::uint32_t parent,
           Clock::time_point start, Clock::time_point finish);
  /// Snapshot of the finished spans; call after recording threads joined.
  [[nodiscard]] std::vector<Span> spans() const;
  /// Chrome trace-event JSON of the spans (one tid per lane).
  [[nodiscard]] std::string toChromeTraceJson() const;

private:
  [[nodiscard]] double microsSinceEpoch(Clock::time_point t) const;
  [[nodiscard]] static std::uint32_t currentLane();

  bool enabled_;
  Clock::time_point epoch_{Clock::now()};
  mutable std::mutex mutex_;
  std::vector<Span> spans_; // guarded by mutex_
};

/// RAII span; a default parent of 0 makes a root.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder& recorder, std::string_view name,
             std::uint32_t parent = 0)
      : recorder_(recorder), id_(recorder.begin(name, parent)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { recorder_.end(id_); }
  [[nodiscard]] std::uint32_t id() const { return id_; }

private:
  SpanRecorder& recorder_;
  std::uint32_t id_;
};

/// Self time per span name and per folded stack ("root;child;leaf"), in
/// microseconds. A span's self time is its duration minus the union of the
/// intervals its children cover *on the span's own lane*: children running
/// on other threads overlap the parent in wall time but do not consume the
/// parent's thread, so subtracting them would erase (or drive negative) the
/// parent's self time — the trap a naive single-timeline fold falls into.
struct SelfTimeFold {
  std::map<std::string, double> byName;
  std::map<std::string, double> byStack;
};
[[nodiscard]] SelfTimeFold foldSelfTime(const std::vector<Span>& spans);

/// Folded-stacks text ("stack self_us" per line), flamegraph-compatible.
[[nodiscard]] std::string toFoldedText(const SelfTimeFold& fold);

/// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample;
/// 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// The highest of the standard percentiles (99.9, 99, 95, 90, 75, 50) that
/// has at least ten samples beyond it in a sample of `n`, or nullopt when
/// even the median has fewer.
[[nodiscard]] std::optional<double> highestReportablePercentile(std::size_t n);

[[nodiscard]] double median(std::vector<double> values);

/// One request of a load loop: when it was sent and when its answer was
/// complete.
struct LoadSample {
  Clock::time_point sent;
  Clock::time_point done;
  bool ok{true};
  [[nodiscard]] double latencySeconds() const { return secondsBetween(sent, done); }
};

/// Closed loop of `clients` load threads, each sending its next request as
/// soon as the previous one is answered, until `seconds` have passed.
/// Request indices are handed out in order from 0; `send(k, sample)`
/// performs request k and fills sample.done / sample.ok (an exception marks
/// the request failed). Returns the samples in request order.
[[nodiscard]] std::vector<LoadSample>
runClosedLoad(unsigned clients, double seconds,
              const std::function<void(std::size_t, LoadSample&)>& send);

} // namespace perfbench
