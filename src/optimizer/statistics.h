#ifndef INSIGHTNOTES_OPTIMIZER_STATISTICS_H_
#define INSIGHTNOTES_OPTIMIZER_STATISTICS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/expression.h"
#include "index/table.h"
#include "summary/summary_manager.h"

namespace insight {

/// Equi-width histogram over integer values (Fig. 6's per-label
/// structure). Also used for numeric data columns.
class EquiWidthHistogram {
 public:
  static constexpr size_t kNumBuckets = 16;

  EquiWidthHistogram() = default;

  /// Builds from a sample of values (empty input yields an empty
  /// histogram that estimates 0 everywhere).
  static EquiWidthHistogram Build(const std::vector<int64_t>& values);

  /// Builds from a value -> frequency map (the live-statistics path).
  static EquiWidthHistogram BuildFromCounts(
      const std::map<int64_t, uint64_t>& counts);

  uint64_t total() const { return total_; }
  int64_t min() const { return min_; }
  int64_t max() const { return max_; }

  /// Estimated number of values in [lo, hi] (inclusive); linear
  /// interpolation within buckets.
  double EstimateRange(int64_t lo, int64_t hi) const;

  /// Estimated number of values equal to v given the distinct count.
  double EstimateEquals(int64_t v, uint64_t num_distinct) const;

 private:
  int64_t min_ = 0;
  int64_t max_ = 0;
  uint64_t total_ = 0;
  std::vector<uint64_t> buckets_;
};

/// Equi-width histogram over real values (DOUBLE columns). The buckets
/// split [min, max] itself and a range is a continuous interval, so bucket
/// bounds and constants keep their fractional part, and `<` and `<=` take
/// no integer `c - 1` step.
class RealHistogram {
 public:
  static constexpr size_t kNumBuckets = EquiWidthHistogram::kNumBuckets;

  RealHistogram() = default;

  /// Builds from a sample of values (NaN excluded by the caller).
  static RealHistogram Build(const std::vector<double>& values);

  uint64_t total() const { return total_; }
  double min() const { return min_; }
  double max() const { return max_; }

  /// Estimated number of values between lo and hi by linear
  /// interpolation within buckets (infinite bounds are fine). A single
  /// point carries no mass here; EstimateEquals gives it.
  double EstimateRange(double lo, double hi) const;

  /// Estimated number of values equal to v given the distinct count.
  double EstimateEquals(double v, uint64_t num_distinct) const;

 private:
  double min_ = 0;
  double max_ = 0;
  uint64_t total_ = 0;
  std::vector<uint64_t> buckets_;
};

/// Statistics for one classifier label's count field: the paper's
/// {Min, Max, NumDistinct, Equi-Width Histogram} (Fig. 6).
struct LabelStats {
  int64_t min = 0;
  int64_t max = 0;
  uint64_t num_distinct = 0;
  EquiWidthHistogram histogram;
};

/// Per-summary-instance statistics.
struct InstanceStats {
  double avg_object_size = 0;  // Serialized bytes (AvgObjectSize).
  uint64_t num_objects = 0;
  std::map<std::string, LabelStats> labels;  // Lower-cased label keys.
  /// Snippet instances: lower-cased word -> number of objects whose
  /// snippets hold it (TokenizeWords, the tokenizer ContainsWord agrees
  /// with). Built by ANALYZE only; `has_words` tells an instance whose
  /// snippets hold no word from one never analyzed.
  std::map<std::string, uint64_t, std::less<>> word_objects;
  bool has_words = false;
};

/// Per-data-column statistics (numeric columns get a histogram too).
struct ColumnStats {
  uint64_t num_distinct = 0;
  EquiWidthHistogram histogram;  // INT columns.
  RealHistogram real_histogram;  // DOUBLE columns.
  bool numeric = false;          // Has a histogram.
  bool real = false;             // The histogram is real_histogram.
};

/// Statistics of one relation (data + summaries), collected by Analyze().
struct TableStats {
  uint64_t num_rows = 0;
  uint64_t heap_pages = 0;
  uint64_t annotated_rows = 0;
  double avg_summary_blob_size = 0;
  /// True when this snapshot was rebuilt because the cardinality-feedback
  /// loop flagged a misestimate (rather than an explicit ANALYZE); the
  /// optimizer surfaces it as the `feedback` estimate source.
  bool rebuilt_by_feedback = false;
  std::map<std::string, InstanceStats> instances;  // Lower-cased keys.
  std::map<std::string, ColumnStats> columns;      // Lower-cased keys.

  /// Selectivity (0..1, relative to num_rows) of
  /// "instance.label <op> constant". Tuples without the instance's object
  /// never qualify, matching S semantics.
  double EstimateLabelSelectivity(const std::string& instance,
                                  const std::string& label, CompareOp op,
                                  int64_t constant) const;

  /// Selectivity of "column <op> constant" for numeric columns;
  /// 1/num_distinct for string equality; 1/3 fallback.
  double EstimateColumnSelectivity(const std::string& column, CompareOp op,
                                   const Value& constant) const;

  /// Selectivity of containsSingle (`single`) or containsUnion over a
  /// snippet instance from the ANALYZE word counts: containsUnion needs
  /// every keyword somewhere in the object, containsSingle every keyword
  /// in one snippet. nullopt when the instance has no word counts.
  std::optional<double> EstimateKeywordSelectivity(
      const std::string& instance, bool single,
      const std::vector<std::string>& keywords) const;

  /// NumDistinct of a classifier label's count field (join estimation).
  uint64_t LabelDistinct(const std::string& instance,
                         const std::string& label) const;

  uint64_t ColumnDistinct(const std::string& column) const;
};

class LiveLabelStatistics;

/// ANALYZE: one scan of the relation plus one scan of its summary
/// storage. Data-column statistics refresh only on ANALYZE; the
/// summary-side statistics are additionally kept fresh by
/// LiveLabelStatistics below (the paper's "maintained whenever a summary
/// object is updated", Section 5.2). When `seed` is non-null, the summary
/// pass additionally initializes it — the first Analyze of an annotated
/// relation seeds the live statistics from the same single scan instead
/// of walking the summary storage a second time.
Result<TableStats> AnalyzeTable(Table* table, SummaryManager* mgr,
                                LiveLabelStatistics* seed = nullptr);

/// Incrementally-maintained per-label count distributions. Subscribes to
/// every instance linked on the manager and tracks, for each classifier
/// label, the multiset of per-tuple counts; FoldInto() rewrites a
/// TableStats' instance section from the live state, so the optimizer
/// sees current selectivities without re-scanning (Fig. 6's statistics,
/// maintained on update as the paper describes).
class LiveLabelStatistics {
 public:
  /// Subscribes to the instances currently linked on `mgr`. Must be
  /// attached while the current summary storage is empty OR immediately
  /// after a full AnalyzeTable seed via SeedFrom().
  explicit LiveLabelStatistics(SummaryManager* mgr);

  /// Deregisters the maintenance subscriptions.
  ~LiveLabelStatistics();

  LiveLabelStatistics(const LiveLabelStatistics&) = delete;
  LiveLabelStatistics& operator=(const LiveLabelStatistics&) = delete;

  /// Initializes the live distributions from existing summary rows.
  Status SeedFrom(SummaryManager* mgr);

  /// Replaces `stats`' per-instance label statistics (and annotated-row
  /// count) with the live state.
  void FoldInto(TableStats* stats) const;

  /// The maintenance entry point (wired as a SummaryManager listener).
  Status OnObjectChanged(Oid oid, const SummaryObject* before,
                         const SummaryObject* after);

 private:
  void Apply(const SummaryObject& obj, int64_t delta);

  // instance (lower) -> label (lower) -> count value -> #tuples.
  std::map<std::string, std::map<std::string, std::map<int64_t, uint64_t>>>
      freq_;
  std::map<std::string, uint64_t> object_counts_;  // Per instance.
  std::map<std::string, double> object_bytes_;     // Per instance.
  SummaryManager* mgr_;
  std::vector<SummaryManager::ListenerId> listener_ids_;
};

}  // namespace insight

#endif  // INSIGHTNOTES_OPTIMIZER_STATISTICS_H_
