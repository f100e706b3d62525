#ifndef INSIGHTNOTES_BENCH_BENCH_UTIL_H_
#define INSIGHTNOTES_BENCH_BENCH_UTIL_H_

#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "workload/birds_workload.h"

namespace insight {
namespace bench {

/// Shared bench configuration. The paper's corpus is 45,000 birds with
/// 10..200 annotations each (450K..9M annotations); `scale` shrinks the
/// bird count while keeping every sweep axis intact, so shapes (ratios,
/// crossovers) are preserved at laptop cost.
struct BenchConfig {
  double scale = 0.01;  // 450 birds by default.
  uint64_t seed = 42;
  int query_repeats = 5;

  size_t birds() const {
    const double n = 45000.0 * scale;
    return n < 50 ? 50 : static_cast<size_t>(n);
  }

  /// The paper's x-axis: average annotations per tuple.
  static const std::vector<size_t>& AnnotationSweep() {
    static const std::vector<size_t> kSweep = {10, 25, 50, 100, 200};
    return kSweep;
  }

  /// Label for a sweep point, scaled to the paper's axis names.
  static std::string PaperAxisLabel(size_t per_bird) {
    switch (per_bird) {
      case 10:
        return "450K";
      case 25:
        return "1.125M";
      case 50:
        return "2.25M";
      case 100:
        return "4.5M";
      case 200:
        return "9M";
      default:
        return std::to_string(per_bird) + "/tuple";
    }
  }
};

inline BenchConfig ParseArgs(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      config.scale = std::atof(arg.c_str() + 8);
    } else if (arg.rfind("--seed=", 0) == 0) {
      config.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--repeats=", 0) == 0) {
      config.query_repeats = std::atoi(arg.c_str() + 10);
    } else if (arg == "--help") {
      std::printf("flags: --scale=F (default 0.01; 1.0 = the paper's "
                  "45,000-bird corpus) --seed=N --repeats=N\n");
      std::exit(0);
    }
  }
  return config;
}

/// The host a BENCH_*.json was measured on, as one JSON object: hardware
/// threads, machine and kernel release (uname).
inline std::string HostJson() {
  utsname uts{};
  ::uname(&uts);
  return "{\"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"machine\": \"" + uts.machine + "\", \"kernel\": \"" +
         uts.release + "\"}";
}

inline void PrintHeader(const char* figure, const char* paper_expectation,
                        const BenchConfig& config) {
  std::printf(
      "==============================================================\n");
  std::printf("%s\n", figure);
  std::printf("paper: %s\n", paper_expectation);
  std::printf("config: %zu birds (scale %.3g), seed %llu\n", config.birds(),
              config.scale, static_cast<unsigned long long>(config.seed));
  std::printf(
      "==============================================================\n");
}

/// Median wall-clock milliseconds of `repeats` runs of `fn`, after one
/// untimed warm-up call, so whichever arm runs first does not pay for
/// cold caches and buffer-pool faults the later arms skip.
template <typename Fn>
double MedianMillis(int repeats, Fn&& fn) {
  fn();
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    Stopwatch timer;
    fn();
    times.push_back(timer.ElapsedMillis());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Builds the standard bench corpus at one sweep point.
inline BirdsWorkloadOptions CorpusOptions(const BenchConfig& config,
                                          size_t per_bird) {
  BirdsWorkloadOptions opts;
  opts.seed = config.seed;
  opts.num_birds = config.birds();
  opts.annotations_per_bird = per_bird;
  opts.synonyms_per_bird = 5;
  return opts;
}

/// Picks the label-count constant whose equality selectivity is closest
/// to `target` (fraction of table rows), by scanning the summary storage.
inline int64_t PickEqualityConstant(Database* db, const std::string& table,
                                    const std::string& instance,
                                    const std::string& label, double target) {
  SummaryManager* mgr = db->GetManager(table).ValueOrDie();
  std::map<int64_t, size_t> freq;
  (void)mgr->ForEachSummaryRow([&](Oid, const SummarySet& set) {
    const SummaryObject* obj = set.GetSummaryObject(instance);
    if (obj != nullptr) {
      auto value = obj->GetLabelValue(label);
      if (value.ok()) ++freq[*value];
    }
    return Status::OK();
  });
  const double rows = static_cast<double>(
      db->GetTable(table).ValueOrDie()->num_rows());
  int64_t best = 1;
  double best_gap = 1e9;
  for (const auto& [value, count] : freq) {
    const double gap = std::abs(count / rows - target);
    if (gap < best_gap) {
      best_gap = gap;
      best = value;
    }
  }
  return best;
}

/// Picks a threshold t so that roughly `target` of the rows have
/// "label count > t" (quantile of the per-tuple count distribution).
inline int64_t PickThresholdConstant(Database* db, const std::string& table,
                                     const std::string& instance,
                                     const std::string& label,
                                     double target) {
  SummaryManager* mgr = db->GetManager(table).ValueOrDie();
  std::vector<int64_t> counts;
  (void)mgr->ForEachSummaryRow([&](Oid, const SummarySet& set) {
    const SummaryObject* obj = set.GetSummaryObject(instance);
    if (obj != nullptr) {
      auto value = obj->GetLabelValue(label);
      if (value.ok()) counts.push_back(*value);
    }
    return Status::OK();
  });
  const size_t rows = db->GetTable(table).ValueOrDie()->num_rows();
  if (counts.empty()) return 0;
  std::sort(counts.begin(), counts.end());
  // Un-annotated tuples count as 0 (they never exceed any threshold).
  const size_t want_above = static_cast<size_t>(target * rows);
  if (want_above >= counts.size()) return 0;
  return counts[counts.size() - 1 - want_above];
}

inline double Mb(uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace bench
}  // namespace insight

#endif  // INSIGHTNOTES_BENCH_BENCH_UTIL_H_
