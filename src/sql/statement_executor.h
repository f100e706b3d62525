#ifndef INSIGHTNOTES_SQL_STATEMENT_EXECUTOR_H_
#define INSIGHTNOTES_SQL_STATEMENT_EXECUTOR_H_

#include <optional>
#include <string>
#include <vector>

#include "annotation/annotation_store.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"
#include "txn/txn.h"

namespace insight {

class Database;

/// Result of executing one statement.
struct QueryResult {
  Schema schema;
  std::vector<Tuple> rows;            // Select-list values per output row.
  std::vector<SummarySet> summaries;  // Parallel: propagated summary sets.
  std::string message;                // DDL/utility acknowledgements.
  std::vector<Annotation> annotations;  // ZOOM IN payload.

  /// ASCII-table rendering (summaries shown inline when present).
  std::string ToString(size_t max_rows = 25) const;
};

/// What a SELECT read produces: its rows (kRun), its plan without running
/// it (EXPLAIN), or its plan annotated with the runtime counters of
/// running it (EXPLAIN ANALYZE), the last two in QueryResult::message.
enum class SelectMode { kRun, kExplain, kExplainAnalyze };

/// The parse-plan-execute half of the old Database monolith: binds SELECTs
/// into logical plans, optimizes, runs physical plans, materializes the
/// select list, and dispatches mutation statements to the Database
/// facade's journaled DML/DDL methods.
///
/// It carries NO locking or transaction policy. Callers (Database::Execute
/// and friends) decide what gates to hold and which MVCC snapshot a query
/// reads at; the executor stamps that snapshot onto a per-query copy of
/// the ExecutionContext so every scan and index probe in the plan sees one
/// consistent version of the world.
class StatementExecutor {
 public:
  explicit StatementExecutor(Database* db) : db_(db) {}

  StatementExecutor(const StatementExecutor&) = delete;
  StatementExecutor& operator=(const StatementExecutor&) = delete;

  /// Binds, optimizes, and (unless `mode` is kExplain) executes a SELECT
  /// with every read in the plan pinned to `snap`.
  Result<QueryResult> ExecuteSelect(const SelectStatement& select,
                                    SelectMode mode, const std::string& sql,
                                    const Snapshot& snap);

  /// The non-SELECT arm: routes DML/DDL to the Database facade (which
  /// owns journaling). The caller has already arranged gating and, for
  /// DML, the transaction scope.
  Result<QueryResult> ExecuteMutation(const Statement& stmt);

  /// A SELECT with every name resolved: the logical plan, and one output
  /// expression per select item (null for `*`).
  struct BoundSelect {
    LogicalPtr plan;
    std::vector<ExprPtr> outputs;  // Null for a `*` item.

    /// The columns the select list reads (Optimizer::Optimize's
    /// `outputs`); nullopt under `*`, which reads every column.
    std::optional<std::vector<std::string>> OutputColumns() const;
  };
  /// The one place names resolve: every column reference and `$`
  /// qualifier becomes the `rel.col` of exactly one FROM entry, and join
  /// conjuncts route on the result (DESIGN.md, "Name resolution").
  Result<BoundSelect> BindSelect(const SelectStatement& select);

 private:
  /// Post-execution observability: query counters/latency, per-operator
  /// estimated-vs-actual q-error (fed back to the optimizer statistics),
  /// and the slow-query log.
  void ObserveQuery(const std::string& statement, PhysicalOperator* root,
                    uint64_t total_ns);

  Database* db_;
};

}  // namespace insight

#endif  // INSIGHTNOTES_SQL_STATEMENT_EXECUTOR_H_
