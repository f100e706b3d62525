#ifndef INSIGHTNOTES_OPTIMIZER_QUERY_CONTEXT_H_
#define INSIGHTNOTES_OPTIMIZER_QUERY_CONTEXT_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/result.h"
#include "engine/execution_context.h"
#include "engine/operators.h"
#include "optimizer/statistics.h"
#include "sindex/baseline_index.h"
#include "sindex/keyword_index.h"
#include "sindex/summary_btree.h"
#include "stats/sketch_registry.h"

namespace insight {

/// Write churn since the last ANALYZE, as a fraction of the analyzed row
/// count, past which the histograms count as stale and the sketch tier
/// answers.
inline constexpr double kSketchStalenessThreshold = 0.10;

/// How the planner consults the online sketch tier. Built from the
/// OptimizerOptions knobs at planning time so every estimate within one
/// optimization run sees the same policy.
struct SketchPolicy {
  /// Consider sketch-derived estimates at all.
  bool use_sketch_statistics = true;
};

/// Everything the optimizer knows about one relation: its table, summary
/// manager, registered summary indexes, and collected statistics.
struct RelationInfo {
  Table* table = nullptr;
  SummaryManager* mgr = nullptr;  // Null when the relation is plain.
  std::map<std::string, const SummaryBTree*> summary_indexes;  // By instance.
  std::map<std::string, const BaselineClassifierIndex*> baseline_indexes;
  std::map<std::string, const SnippetKeywordIndex*> keyword_indexes;
  /// Replaced only by an exclusive DDL-gate holder (ANALYZE, or the
  /// feedback re-ANALYZE before a statement), so readers planning under
  /// the shared gate see it fixed.
  std::optional<TableStats> stats;
  /// Online sketches maintained on the DML path (null when the stats
  /// subsystem never registered this table). Owned by the SketchRegistry.
  TableSketches* sketches = nullptr;
  /// The summary-side statistics, maintained on every summary update
  /// (Section 5.2); each Analyze() of an annotated relation rebuilds
  /// them, replacing this pointer as it replaces `stats`.
  std::unique_ptr<LiveLabelStatistics> live_stats;
  /// Set by the cardinality-feedback loop when an executed plan's q-error
  /// against this relation crossed the configured threshold; the next
  /// statement reading the relation runs AnalyzeFlagged(), which clears
  /// it.
  bool needs_analyze = false;
  /// Worst q-error ever reported against this relation (diagnostics).
  double worst_qerror = 1;

  const SummaryBTree* SummaryIndexFor(const std::string& instance) const;
  const BaselineClassifierIndex* BaselineIndexFor(
      const std::string& instance) const;
  const SnippetKeywordIndex* KeywordIndexFor(
      const std::string& instance) const;
  /// True when `instance` is linked to this relation — the predicate of
  /// Rules 2, 5-7, 10, 11 ("L is not defined on S").
  bool HasInstance(const std::string& instance) const;

  // ---- Tiered estimation (histograms vs online sketches) ----
  //
  // Each helper answers from the freshest tier: ANALYZE-built histograms
  // while they are current, the online sketches once enough DML churned
  // past them (or when the relation was never analyzed at all). Callers
  // pass the fallback they would have used without any statistics so
  // behavior is unchanged when both tiers are empty.

  /// True when estimates should come from the sketches: the tier is
  /// enabled, sketches exist and carry data, and the histograms are
  /// either absent or stale under kSketchStalenessThreshold.
  bool SketchTierActive(const SketchPolicy& policy) const;

  /// The tier the next estimate will come from (EXPLAIN ANALYZE's `src=`).
  EstimateSource Source(const SketchPolicy& policy) const;

  /// Current row-count estimate (sketch row counter when active, else
  /// histogram snapshot, else the table's live row count).
  double EstimatedRows(const SketchPolicy& policy) const;

  /// Heap-page estimate; the sketch tier scales the analyzed page count
  /// by the row-count drift. `fallback_pages` is used when the relation
  /// was never analyzed.
  double EstimatedPages(const SketchPolicy& policy,
                        double fallback_pages) const;

  /// Annotated tuples per the live statistics (0 without them).
  uint64_t AnnotatedRows() const;

  /// Fraction of rows carrying summaries (propagation costing).
  double AnnotatedFraction(const SketchPolicy& policy,
                           double fallback) const;

  /// Selectivity of "instance.label <op> constant" from the live
  /// statistics. The sketch tier keeps their matching-row numerator but
  /// divides by the fresh sketch row count — the stale-denominator fix.
  double LabelSelectivity(const SketchPolicy& policy,
                          const std::string& instance,
                          const std::string& label, CompareOp op,
                          int64_t constant, double fallback) const;

  /// Selectivity of a containsSingle/containsUnion call from the ANALYZE
  /// word counts, re-divided by the fresh row count under the sketch tier
  /// as for labels; `fallback` when its instance was never analyzed.
  double KeywordSelectivity(const SketchPolicy& policy,
                            const SummaryFuncExpr& func,
                            double fallback) const;

  /// Selectivity of "column <op> constant"; the sketch tier answers
  /// equality from the Count-Min sketch.
  double ColumnSelectivity(const SketchPolicy& policy,
                           const std::string& column, CompareOp op,
                           const Value& constant, double fallback) const;

  /// Distinct label-count values (join estimation); HLL when stale.
  uint64_t LabelDistinctEst(const SketchPolicy& policy,
                            const std::string& instance,
                            const std::string& label) const;

  /// Distinct column values (join estimation); HLL when stale.
  uint64_t ColumnDistinctEst(const SketchPolicy& policy,
                             const std::string& column) const;
};

/// Planner-facing registry of relations and shared storage handles.
class QueryContext {
 public:
  QueryContext(Catalog* catalog, StorageManager* storage, BufferPool* pool)
      : catalog_(catalog),
        storage_(storage),
        pool_(pool),
        exec_ctx_(storage, pool) {}

  /// Registers a relation (summary manager optional).
  Status RegisterRelation(Table* table, SummaryManager* mgr);

  /// Registers a Summary-BTree over (relation, instance).
  Status RegisterSummaryIndex(const std::string& table,
                              const std::string& instance,
                              const SummaryBTree* index);
  Status RegisterBaselineIndex(const std::string& table,
                               const std::string& instance,
                               const BaselineClassifierIndex* index);
  Status RegisterKeywordIndex(const std::string& table,
                              const std::string& instance,
                              const SnippetKeywordIndex* index);

  /// Drops every index registration for (table, instance) — called when
  /// the instance is unlinked so the planner never sees stale pointers.
  Status UnregisterInstanceIndexes(const std::string& table,
                                   const std::string& instance);

  /// Collects statistics for one relation (ANALYZE). For an annotated
  /// relation the same summary scan rebuilds its LiveLabelStatistics,
  /// subscribed to every instance linked now, after which the
  /// summary-side statistics stay fresh on every annotation update. Also
  /// resets the relation's sketch staleness clock. The caller excludes
  /// every reader and writer of the relation.
  Status Analyze(const std::string& table);

  /// True when cardinality feedback flagged `table`, which has been
  /// analyzed before, for re-analysis.
  bool NeedsAnalyze(const std::string& table) const;

  /// The feedback re-ANALYZE: when NeedsAnalyze(), clears the flag and
  /// runs Analyze(), unless the sketches report little churn since the
  /// last ANALYZE (the misestimate is then a model error a rescan cannot
  /// fix). Same caller contract as Analyze().
  Status AnalyzeFlagged(const std::string& table, const SketchPolicy& policy);

  /// Cardinality-feedback entry point: records that an executed access
  /// path over `table` observed `qerror` (max(est,actual)/min(est,actual))
  /// and flags the relation for re-analysis when `qerror >= threshold`
  /// (threshold <= 0 records without flagging). Unknown tables are
  /// ignored.
  void ReportCardinalityFeedback(const std::string& table, double qerror,
                                 double threshold);

  Result<const RelationInfo*> Get(const std::string& table) const;
  Result<RelationInfo*> GetMutable(const std::string& table);

  /// Resolver that looks a raw annotation up across every registered
  /// relation's store (annotation ids are globally unique).
  AnnotationResolver MakeResolver() const;

  Catalog* catalog() const { return catalog_; }
  StorageManager* storage() const { return storage_; }
  BufferPool* pool() const { return pool_; }

  /// Runtime context handed to lowered physical plans: the storage
  /// handles plus the batch-size and parallelism knobs.
  ExecutionContext* exec_context() { return &exec_ctx_; }

 private:
  Catalog* catalog_;
  StorageManager* storage_;
  BufferPool* pool_;
  ExecutionContext exec_ctx_;
  std::map<std::string, RelationInfo> relations_;  // Lower-cased keys.
  /// Guards the cardinality-feedback fields (needs_analyze, worst_qerror):
  /// feedback arrives from concurrent read statements, which hold the
  /// Database DDL gate only in shared mode.
  mutable std::mutex feedback_mu_;
};

}  // namespace insight

#endif  // INSIGHTNOTES_OPTIMIZER_QUERY_CONTEXT_H_
