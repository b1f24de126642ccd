// The benchmark's checks of its own measurement rules (`perfbench
// --selftest`; every measuring run also runs them first and refuses to
// report if one fails).

#include "trace.hpp"

#include <cmath>
#include <iostream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::cerr << "perfbench self-check failed: " << what << "\n";
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

Span span(const char* name, std::uint32_t id, std::uint32_t parent,
          std::uint32_t lane, double start, double end) {
  return Span{name, id, parent, lane, start, end};
}

void checkFold() {
  // a parent whose two children ran in parallel on other lanes keeps its
  // whole duration as self time; subtracting them would leave -60 us
  {
    const SelfTimeFold fold = foldSelfTime({span("mix", 1, 0, 0, 0, 100),
                                            span("req", 2, 1, 1, 10, 90),
                                            span("req", 3, 1, 2, 10, 90)});
    expect(near(fold.byName.at("mix"), 100), "cross-lane children keep parent self time");
    expect(near(fold.byName.at("req"), 160), "each lane's child keeps its own self time");
    expect(near(fold.byStack.at("mix;req"), 160), "folded stack of cross-lane children");
  }
  // same-lane children are subtracted once even when they overlap
  {
    const SelfTimeFold fold = foldSelfTime({span("request", 1, 0, 0, 0, 100),
                                            span("io.parse", 2, 1, 0, 20, 50),
                                            span("ec.flow", 3, 1, 0, 40, 60),
                                            span("ec.flow", 4, 1, 3, 0, 100)});
    expect(near(fold.byName.at("request"), 60), "same-lane union subtracted");
    expect(near(fold.byName.at("io.parse"), 30), "leaf self time is its duration");
    expect(near(fold.byStack.at("request;ec.flow"), 120), "stack sums over lanes");
  }
  // children sticking out of the parent are clipped to it
  {
    const SelfTimeFold fold = foldSelfTime(
        {span("a", 1, 0, 0, 10, 20), span("b", 2, 1, 0, 0, 15)});
    expect(near(fold.byName.at("a"), 5), "children clipped to the parent interval");
  }
}

void checkPercentiles() {
  expect(near(percentile({4, 1, 3, 2}, 50), 2.5), "interpolated median");
  expect(near(percentile({5}, 90), 5), "single-sample percentile");
  expect(!highestReportablePercentile(10).has_value(),
         "10 samples: not even the median has ten beyond it");
  expect(highestReportablePercentile(20) == 50.0, "20 samples: median");
  expect(highestReportablePercentile(99) == 75.0, "99 samples: p90 has only 9 beyond");
  expect(highestReportablePercentile(100) == 90.0, "100 samples: p90");
  expect(highestReportablePercentile(1000) == 99.0, "1000 samples: p99");
  expect(highestReportablePercentile(10000) == 99.9, "10000 samples: p99.9");
}

void checkClosedLoad() {
  // two clients, 10 ms per request, every third request throws: each
  // request is recorded once, in index order, timed from its send, and a
  // throwing one counts as failed
  using namespace std::chrono_literals;
  const std::vector<LoadSample> samples =
      runClosedLoad(2, 0.1, [](std::size_t k, LoadSample& s) {
        std::this_thread::sleep_for(10ms);
        if (k % 3 == 2) {
          throw std::runtime_error("refused");
        }
        s.done = Clock::now();
      });
  expect(samples.size() >= 4 && samples.size() <= 24,
         "two clients at 10 ms a request for 0.1 s");
  for (std::size_t k = 0; k < samples.size(); ++k) {
    expect(samples[k].ok == (k % 3 != 2), "a throwing request counts as failed");
    expect(samples[k].latencySeconds() >= 0.009, "latency counts from the send");
  }
}

} // namespace

int runSelfTests() {
  failures = 0;
  checkFold();
  checkPercentiles();
  checkClosedLoad();
  return failures == 0 ? 0 : 1;
}

} // namespace perfbench
