#ifndef INSIGHTNOTES_OPTIMIZER_OPTIMIZER_H_
#define INSIGHTNOTES_OPTIMIZER_OPTIMIZER_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "optimizer/logical_plan.h"
#include "optimizer/query_context.h"

namespace insight {

/// Optimizer knobs. The benches toggle these to reproduce the paper's
/// "Optimization-Disabled" vs "Optimization-Enabled" arms (Figs. 14, 15)
/// and the index on/off comparisons (Figs. 10-13).
struct OptimizerOptions {
  /// Apply the Section 5.1 transformation rules before lowering.
  bool enable_rewrite_rules = true;
  /// Consider Summary-BTree access paths (Rules 3-6 sort elimination
  /// included).
  bool use_summary_indexes = true;
  /// Consider baseline-scheme access paths when no Summary-BTree exists.
  bool use_baseline_indexes = true;
  /// Consider data-column B-Tree access paths and index joins.
  bool use_data_indexes = true;
  /// Consider hash joins for data equi-joins (an implementation choice
  /// beyond the paper's nested-loop/index pair; disable to reproduce the
  /// paper's engine exactly).
  bool enable_hash_join = true;
  /// Sort implementation for Sort/O operators.
  SortOp::Mode sort_mode = SortOp::Mode::kMemory;
  size_t sort_memory_budget = 4 << 20;
  /// Minimum estimated table cardinality before a sequential scan is
  /// worth parallelizing (morsel dispatch has fixed overhead). Parallel
  /// plans additionally require ExecutionContext::parallelism() > 1.
  double parallel_row_threshold = 10000;
  /// Heap pages per morsel handed to each parallel-scan worker.
  PageId morsel_pages = 16;
  /// Cardinality-feedback trigger: when an executed access path's q-error
  /// (max(est, actual) / min(est, actual)) reaches this value, the table
  /// is flagged, and the next statement that reads it re-ANALYZEs it
  /// first. 0 disables the feedback loop (default:
  /// plan choices stay deterministic for tests/benches unless opted in).
  double feedback_qerror_threshold = 0;
  /// Consult the online sketch statistics (src/stats) as a second
  /// estimator tier: sketch answers override the ANALYZE histograms once
  /// they go stale (kSketchStalenessThreshold), and cover relations
  /// never analyzed at all.
  bool use_sketch_statistics = true;
};

/// The two sides of an equi-join conjunct "left_column = right_column".
struct EquiJoinKeys {
  std::string left_column;
  std::string right_column;
};

/// Per-operator cardinality and cost estimate. Costs are abstract units:
/// 1.0 per page I/O + 0.01 per tuple of CPU, the classical textbook
/// weighting.
struct PlanEstimate {
  double rows = 0;
  double cost = 0;
};

/// The extended query optimizer (Section 5): rewrites logical plans with
/// Rules 1-11, estimates cardinalities from the Fig. 6 statistics, and
/// lowers to physical operators choosing access paths, join algorithms,
/// and sort eliminations.
class Optimizer {
 public:
  Optimizer(QueryContext* ctx, OptimizerOptions options)
      : ctx_(ctx), options_(options) {}

  /// Full pipeline: rewrite (if enabled) then lower. `outputs` names the
  /// columns the caller reads from the plan's rows besides the plan
  /// itself (the select list it evaluates over them). Given it, each heap
  /// scan decodes only the columns the plan or `outputs` read; without it
  /// (`SELECT *`, or a caller that reads whole rows) every column.
  Result<OpPtr> Optimize(
      LogicalPtr plan,
      std::optional<std::vector<std::string>> outputs = std::nullopt);

  /// Rule application only (exposed for tests / EXPLAIN).
  Result<LogicalPtr> Rewrite(LogicalPtr plan);

  /// Physical lowering only.
  Result<OpPtr> Lower(const LogicalNode& plan);

  /// Cardinality/cost estimation for a logical subtree.
  Result<PlanEstimate> Estimate(const LogicalNode& node);

 private:
  /// Interesting order carried by a physical subplan (Rules 3-6): rows
  /// arrive ordered by `instance.label`, ascending unless `descending`.
  struct PhysOrder {
    std::string instance;
    std::string label;
    bool descending = false;
  };
  /// A lowered subplan. `pending_attach` is set when the subplan's rows
  /// still lack their summary sets: its access path ran bare, and the
  /// attach rides up through operators that neither read nor rewrite
  /// summary sets (data Select, Limit, data-keyed Sort) until a consumer
  /// forces it (late materialization).
  struct Lowered {
    OpPtr op;
    std::optional<PhysOrder> order;
    SummaryManager* pending_attach = nullptr;
  };
  /// Places `lowered`'s pending attach, if any, directly above its
  /// operator; returns the (possibly wrapped) operator.
  static OpPtr Materialize(Lowered* lowered);

  // Rewrite helpers (one pass; PushDowns runs to fixpoint).
  Result<bool> PushDownOnce(LogicalNode* node);
  Result<bool> InstancesOnlyOn(const std::vector<std::string>& instances,
                               const LogicalNode& subtree, bool* any_linked);
  /// True when every column is emitted by some scan in `subtree`.
  bool ColumnsResolve(const std::vector<std::string>& columns,
                      const LogicalNode& subtree) const;
  /// Detects an equi-join conjunct "l = r" with l emitted by `left` and r
  /// by `right`.
  std::optional<EquiJoinKeys> MatchEquiJoin(const Expression* expr,
                                            const LogicalNode& left,
                                            const LogicalNode& right) const;

  /// A bound column reference resolved to the relation that stores it.
  struct BaseColumn {
    const RelationInfo* info;
    std::string column;  // The name in the relation's own schema.
  };
  /// Maps a bound name to the scan in `subtree` that emits it: `rel.col`
  /// under a scan aliased `rel`, or a bare column of an unaliased scan.
  std::optional<BaseColumn> FindBaseColumn(const LogicalNode& subtree,
                                           const std::string& name) const;

  /// Lowers one logical node (recursing through LowerRec) and stamps the
  /// node's cardinality estimate onto the resulting operator.
  Result<Lowered> LowerRec(const LogicalNode& node);
  Result<Lowered> LowerRecImpl(const LogicalNode& node);

  /// Leaf access-path selection over a chain of selections ending at a
  /// scan: picks SeqScan / IndexScan / SummaryIndexScan / BaselineIndexScan
  /// by estimated cost and wraps residual predicates.
  Result<Lowered> LowerAccessPath(const LogicalNode& node);
  /// Wraps an access path in its residual data selection, then (forcing
  /// any pending attach) its residual summary selection.
  static void WrapResiduals(const std::vector<ExprPtr>& data_conjuncts,
                            const std::vector<ExprPtr>& summary_conjuncts,
                            Lowered* lowered);

  /// What one statement reads of its base relations: every column name
  /// the plan or the select list references (lower-cased), plus the scans
  /// whose whole rows are read (a Distinct compares every column of its
  /// input unless a Project or Aggregate narrows it first).
  struct ReadSet {
    std::set<std::string> columns;
    std::set<const LogicalNode*> whole_rows;
  };
  static void CollectReads(const LogicalNode& node, ReadSet* reads);
  static void CollectWholeRows(const LogicalNode& node, ReadSet* reads);
  /// A heap scan's read mask over its relation's columns (empty: all).
  std::vector<bool> ReadColumns(const LogicalNode& scan,
                                const Schema& schema) const;

  /// The sketch-tier consultation policy derived from the options.
  SketchPolicy sketch_policy() const {
    return SketchPolicy{options_.use_sketch_statistics};
  }
  /// The statistics tier behind a subtree's estimate: sketch if any
  /// referenced table answers from sketches, else feedback-rebuilt, else
  /// histogram (kNone when no table has statistics at all).
  EstimateSource EstimateSourceFor(const LogicalNode& node) const;

  QueryContext* ctx_;
  OptimizerOptions options_;
  /// Cleared while lowering under a Sort: a Gather's cross-partition row
  /// order is nondeterministic, so parallel scans never appear below an
  /// order-sensitive operator (the "never under O" rule).
  bool allow_parallel_ = true;
  /// Set by Optimize when the caller names its outputs; heap scans prune
  /// their columns to it while the plan lowers.
  std::optional<ReadSet> reads_;
};

/// Splits a conjunctive predicate into its AND-ed conjuncts (each cloned).
std::vector<ExprPtr> SplitConjuncts(const Expression* expr);
/// Re-joins conjuncts with AND (nullptr for an empty list).
ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts);

}  // namespace insight

#endif  // INSIGHTNOTES_OPTIMIZER_OPTIMIZER_H_
