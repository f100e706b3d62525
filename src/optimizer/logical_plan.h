#ifndef INSIGHTNOTES_OPTIMIZER_LOGICAL_PLAN_H_
#define INSIGHTNOTES_OPTIMIZER_LOGICAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/operators.h"

namespace insight {

/// Logical operators: the standard relational set plus the paper's
/// summary-based S / F / J / O (Section 3.2). The optimizer rewrites this
/// tree with the Section 5.1 rules, then lowers it to physical operators.
enum class LogicalKind {
  kScan,           // Base relation.
  kSelect,         // sigma: data predicate.
  kSummarySelect,  // S: summary predicate over r.$.
  kSummaryFilter,  // F: object-level filter.
  kProject,        // pi.
  kJoin,           // Data join.
  kSummaryJoin,    // J.
  kSort,           // ORDER BY (data or summary keys -> O).
  kAggregate,      // GROUP BY.
  kDistinct,
  kLimit,
};

const char* LogicalKindToString(LogicalKind kind);

struct LogicalNode;
using LogicalPtr = std::unique_ptr<LogicalNode>;

/// One logical operator. A tagged struct rather than a class hierarchy:
/// the rewriter pattern-matches on `kind` and mutates children in place,
/// which is much lighter than visitor plumbing for eleven rules.
struct LogicalNode {
  LogicalKind kind;
  std::vector<LogicalPtr> children;

  // kScan.
  std::string table;
  std::string alias;  // Empty: columns keep their base names.

  // kSelect / kSummarySelect predicates.
  ExprPtr predicate;

  // kSummaryFilter.
  ObjectPredicate object_predicate;

  // kProject.
  std::vector<std::string> columns;

  // kJoin: conjunctive data predicate; equi-key extraction happens at
  // physical planning.
  // (reuses `predicate`)

  // kSummaryJoin.
  SummaryJoinPredicate summary_join_predicate;

  // kSort.
  std::vector<SortKey> sort_keys;

  // kAggregate.
  std::vector<std::string> group_columns;
  std::vector<AggregateSpec> aggregates;

  // kLimit.
  uint64_t limit = 0;

  LogicalPtr Clone() const;
  std::string Explain(int indent = 0) const;

  /// All base tables in this subtree (left-to-right).
  void CollectTables(std::vector<std::string>* out) const;
};

// ---- Builders ----

/// A scan propagates summary sets iff its relation has a linked instance.
LogicalPtr LScan(std::string table);
LogicalPtr LScanAs(std::string table, std::string alias);
LogicalPtr LSelect(LogicalPtr child, ExprPtr predicate);
LogicalPtr LSummarySelect(LogicalPtr child, ExprPtr predicate);
LogicalPtr LSummaryFilter(LogicalPtr child, ObjectPredicate predicate);
LogicalPtr LProject(LogicalPtr child, std::vector<std::string> columns);
LogicalPtr LJoin(LogicalPtr left, LogicalPtr right, ExprPtr predicate);
LogicalPtr LSummaryJoin(LogicalPtr left, LogicalPtr right,
                        SummaryJoinPredicate predicate);
LogicalPtr LSort(LogicalPtr child, std::vector<SortKey> keys);
LogicalPtr LAggregate(LogicalPtr child, std::vector<std::string> group_cols,
                      std::vector<AggregateSpec> aggregates);
LogicalPtr LDistinct(LogicalPtr child);
LogicalPtr LLimit(LogicalPtr child, uint64_t limit);

}  // namespace insight

#endif  // INSIGHTNOTES_OPTIMIZER_LOGICAL_PLAN_H_
