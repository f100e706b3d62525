// Small, dependency-free helpers shared by the benchmark program and its
// self-test: quantiles and the supported tail percentile, span self time,
// metric-name validation and JSON number formatting.

#ifndef INSIGHTNOTES_PERFBENCH_BENCH_STATS_H_
#define INSIGHTNOTES_PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Linearly interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// The highest percentile of {99.9, 99, 95, 90, 50} that leaves at least
/// ten of `n` samples beyond it, so a tail is never read off a handful of
/// points; 0 when even the median is unsupported (n < 20).
inline double SupportedPercentile(size_t n) {
  static const double kLadder[] = {99.9, 99.0, 95.0, 90.0, 50.0};
  for (double p : kLadder) {
    // n * (1 - p/100) >= 10, with slack for 100 - 99.9 not being exact.
    const double beyond = static_cast<double>(n) * (100.0 - p);
    if (beyond >= 1000.0 - 1e-6) return p;
  }
  return 0.0;
}

/// One recorded interval. `parent` is 0 for a root; ids start at 1. Spans
/// of one statement share `request`.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span, in input order: its duration minus the part
/// of its interval covered by its direct children. Children may overlap
/// each other (parallel work) or stick out of the parent; only the union
/// of their intervals clipped to the parent is subtracted.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<int64_t> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    out.push_back(std::max<int64_t>(0, s.end_ns - s.start_ns - covered));
  }
  return out;
}

/// Metric names: 1-64 characters of [A-Za-z0-9_.-], starting with a
/// letter or digit.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

/// A finite double rendered with all significant digits (JSON has no
/// NaN/Inf, so those become 0).
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace perfbench

#endif  // INSIGHTNOTES_PERFBENCH_BENCH_STATS_H_
