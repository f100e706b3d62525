// Self-test of the benchmark's own helpers (bench_stats.h). Built next to
// the benchmark and run by run.py before every measurement; exits non-zero
// on the first failed check.

#include <cstdio>
#include <cstdlib>

#include "bench_stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

perfbench::Span MakeSpan(uint64_t id, uint64_t parent, int64_t start,
                         int64_t end) {
  perfbench::Span s;
  s.id = id;
  s.parent = parent;
  s.request = 1;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestPercentileChoice() {
  using perfbench::SupportedPercentile;
  Check(SupportedPercentile(0) == 0.0, "no samples support no percentile");
  Check(SupportedPercentile(19) == 0.0, "19 samples cannot support p50");
  Check(SupportedPercentile(20) == 50.0, "20 samples support p50");
  Check(SupportedPercentile(99) == 50.0, "99 samples stop short of p90");
  Check(SupportedPercentile(100) == 90.0, "100 samples support p90");
  Check(SupportedPercentile(200) == 95.0, "200 samples support p95");
  Check(SupportedPercentile(999) == 95.0, "999 samples stop short of p99");
  Check(SupportedPercentile(1000) == 99.0, "1000 samples support p99");
  Check(SupportedPercentile(9999) == 99.0, "9999 samples stop short of p99.9");
  Check(SupportedPercentile(10000) == 99.9, "10000 samples support p99.9");
}

void TestQuantile() {
  using perfbench::Quantile;
  Check(Quantile({}, 0.5) == 0.0, "empty quantile is 0");
  Check(Near(Quantile({3, 1, 2}, 0.5), 2.0), "odd median");
  Check(Near(Quantile({4, 1, 3, 2}, 0.5), 2.5), "even median interpolates");
  Check(Near(Quantile({1, 2, 3, 4, 5}, 1.0), 5.0), "q=1 is the max");
  Check(Near(Quantile({10, 20}, 0.25), 12.5), "q=0.25 interpolates");
}

void TestSelfTime() {
  using perfbench::SelfTimes;
  // Leaf: all of it is self time.
  Check(SelfTimes({MakeSpan(1, 0, 0, 100)})[0] == 100, "leaf self time");
  // Nested: root [0,100] > child [10,60] > grandchild [20,30]. Only direct
  // children count against a span.
  {
    auto t = SelfTimes({MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 60),
                        MakeSpan(3, 2, 20, 30)});
    Check(t[0] == 50 && t[1] == 40 && t[2] == 10, "nested self times");
  }
  // Overlapping children [10,50] and [30,70] cover [10,70]: 60 of 100.
  {
    auto t = SelfTimes({MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 50),
                        MakeSpan(3, 1, 30, 70)});
    Check(t[0] == 40, "overlapping children are counted once");
  }
  // Disjoint children, given out of order, plus one sticking out of the
  // parent: [60,80] + [0,20] + [90,150] clipped to [0,100] cover 50.
  {
    auto t = SelfTimes({MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 60, 80),
                        MakeSpan(3, 1, 0, 20), MakeSpan(4, 1, 90, 150)});
    Check(t[0] == 50, "disjoint and clipped children");
  }
  // A child fully covering its parent leaves no negative self time.
  {
    auto t = SelfTimes({MakeSpan(1, 0, 10, 20), MakeSpan(2, 1, 0, 30)});
    Check(t[0] == 0, "fully covered parent has zero self time");
  }
}

void TestMetricNames() {
  using perfbench::ValidMetricName;
  Check(ValidMetricName("setup_s"), "setup_s is valid");
  Check(ValidMetricName("engine.exec_ms.q_select"), "dotted name is valid");
  Check(ValidMetricName("net.bytes-out"), "dash is valid");
  Check(ValidMetricName("9lives"), "leading digit is valid");
  Check(!ValidMetricName(""), "empty name is invalid");
  Check(!ValidMetricName("_x"), "leading underscore is invalid");
  Check(!ValidMetricName(".x"), "leading dot is invalid");
  Check(!ValidMetricName("a b"), "space is invalid");
  Check(!ValidMetricName("a/b"), "slash is invalid");
  Check(!ValidMetricName("p99%"), "percent is invalid");
  Check(ValidMetricName(std::string(64, 'a')), "64 characters are valid");
  Check(!ValidMetricName(std::string(65, 'a')), "65 characters are invalid");
}

void TestJsonNumber() {
  using perfbench::JsonNumber;
  Check(JsonNumber(1.5) == "1.5", "plain number");
  Check(JsonNumber(0.1234567891234) == "0.1234567891", "ten digits kept");
  Check(JsonNumber(std::nan("")) == "0", "NaN is not JSON");
}

}  // namespace

int main() {
  TestPercentileChoice();
  TestQuantile();
  TestSelfTime();
  TestMetricNames();
  TestJsonNumber();
  if (failures != 0) return 1;
  std::printf("perfbench selftest: ok\n");
  return 0;
}
