#include "sql/statement_executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <set>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "sql/database.h"

namespace insight {

std::string QueryResult::ToString(size_t max_rows) const {
  if (!message.empty()) return message + "\n";
  if (!annotations.empty()) {
    std::string out;
    for (const Annotation& ann : annotations) {
      out += "[" + std::to_string(ann.id) + "] " + ann.text + "\n";
    }
    return out;
  }
  std::vector<size_t> widths;
  for (const Column& col : schema.columns()) {
    widths.push_back(col.name.size());
  }
  const size_t shown = std::min(rows.size(), max_rows);
  std::vector<std::vector<std::string>> cells;
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> row;
    for (size_t c = 0; c < rows[r].size(); ++c) {
      row.push_back(rows[r].at(c).ToString());
      if (c < widths.size()) widths[c] = std::max(widths[c], row[c].size());
    }
    cells.push_back(std::move(row));
  }
  std::string out;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    out += schema.column(c).name;
    out += std::string(widths[c] - schema.column(c).name.size() + 2, ' ');
  }
  out += "\n";
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    out += std::string(widths[c], '-') + "  ";
  }
  out += "\n";
  for (size_t r = 0; r < cells.size(); ++r) {
    for (size_t c = 0; c < cells[r].size(); ++c) {
      out += cells[r][c];
      if (c < widths.size()) {
        out += std::string(widths[c] - cells[r][c].size() + 2, ' ');
      }
    }
    if (r < summaries.size() && !summaries[r].empty()) {
      std::string rendered = summaries[r].ToString();
      constexpr size_t kMaxSummaryChars = 140;
      if (rendered.size() > kMaxSummaryChars) {
        rendered.resize(kMaxSummaryChars);
        rendered += "...}";
      }
      out += "  $" + rendered;
    }
    out += "\n";
  }
  if (rows.size() > shown) {
    out += "... (" + std::to_string(rows.size() - shown) + " more rows)\n";
  }
  out += "(" + std::to_string(rows.size()) + " rows)\n";
  return out;
}

// ---------- SELECT binding ----------

namespace {

// The FROM clause's names, each entry exposed as its alias or else its
// table name. Every column reference and `$` qualifier resolves here to
// exactly one entry; everything downstream looks the result up exactly.
class FromScope : public NameBinder {
 public:
  Status Add(const std::string& rel, const Schema* schema) {
    if (Relation(rel).ok()) {
      return Status::InvalidArgument("duplicate name in FROM: " + rel);
    }
    entries_.push_back({rel, schema});
    return Status::OK();
  }

  Result<std::string> Relation(const std::string& name) const override {
    for (const Entry& entry : entries_) {
      if (EqualsIgnoreCase(entry.rel, name)) return entry.rel;
    }
    return Status::NotFound("no FROM entry named " + name);
  }

  // `col` binds to the one entry with that column, `rel.col` to entry rel;
  // `outputs` (aggregate results, for ORDER BY) bind as themselves.
  Result<std::string> Column(const std::string& name) const override {
    for (const std::string& output : outputs) {
      if (EqualsIgnoreCase(output, name)) return name;
    }
    const size_t dot = name.find('.');
    std::string rel;
    if (dot != std::string::npos) {
      INSIGHT_ASSIGN_OR_RETURN(rel, Relation(name.substr(0, dot)));
    }
    const std::string column = name.substr(dot + 1);  // npos + 1 == 0.
    std::string bound;
    for (const Entry& entry : entries_) {
      if (!rel.empty() && entry.rel != rel) continue;
      Result<size_t> idx = entry.schema->IndexOf(column);
      if (!idx.ok()) continue;
      if (!bound.empty()) {
        return Status::InvalidArgument("ambiguous column name: " + name);
      }
      bound = entry.rel + "." + entry.schema->column(*idx).name;
    }
    if (bound.empty()) return Status::NotFound("no column named " + name);
    return bound;
  }

  const std::string& rel(size_t i) const { return entries_[i].rel; }

  std::vector<std::string> outputs;

 private:
  struct Entry {
    std::string rel;
    const Schema* schema;  // The base table's.
  };
  std::vector<Entry> entries_;
};

Result<ExprPtr> BindExpr(const Expression& expr, const NameBinder& binder) {
  ExprPtr bound = expr.Clone();
  INSIGHT_RETURN_NOT_OK(bound->Bind(binder));
  return bound;
}

}  // namespace

Result<StatementExecutor::BoundSelect> StatementExecutor::BindSelect(
    const SelectStatement& select) {
  if (select.from.empty()) {
    return Status::ParseError("FROM clause required");
  }
  FromScope scope;
  for (const SelectStatement::FromTable& from : select.from) {
    INSIGHT_ASSIGN_OR_RETURN(const RelationInfo* info,
                             db_->context()->Get(from.table));
    const std::string& rel = from.alias.empty() ? from.table : from.alias;
    INSIGHT_RETURN_NOT_OK(scope.Add(rel, &info->table->schema()));
  }

  BoundSelect out;
  bool has_aggregates = false;
  for (const SelectItem& item : select.items) {
    if (item.star) {
      out.outputs.push_back(nullptr);
    } else if (item.is_aggregate) {
      has_aggregates = true;
      out.outputs.push_back(Col(item.aggregate.output_name));
    } else {
      INSIGHT_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(*item.expr, scope));
      out.outputs.push_back(std::move(bound));
    }
  }

  std::vector<ExprPtr> conjuncts;
  if (select.where != nullptr) {
    INSIGHT_ASSIGN_OR_RETURN(ExprPtr where, BindExpr(*select.where, scope));
    conjuncts = SplitConjuncts(where.get());
  }

  LogicalPtr plan = LScanAs(select.from[0].table, scope.rel(0));
  std::set<std::string> joined = {scope.rel(0)};
  for (size_t t = 1; t < select.from.size(); ++t) {
    const std::string& rel = scope.rel(t);
    // Route the conjuncts connecting the joined entries with entry t.
    std::vector<ExprPtr> data_join;
    std::optional<SummaryJoinPredicate> summary_join;
    std::vector<ExprPtr> remaining;
    for (ExprPtr& conjunct : conjuncts) {
      // Summary-join shape: two summary functions compared, one `$`
      // qualified by a joined entry and the other by entry t.
      const auto* cmp = dynamic_cast<const CompareExpr*>(conjunct.get());
      const SummaryFuncExpr* lf = nullptr;
      const SummaryFuncExpr* rf = nullptr;
      if (cmp != nullptr) {
        lf = dynamic_cast<const SummaryFuncExpr*>(cmp->left());
        rf = dynamic_cast<const SummaryFuncExpr*>(cmp->right());
      }
      if (lf != nullptr && rf != nullptr) {
        const bool lf_joined = joined.count(lf->qualifier()) > 0;
        if ((lf_joined && rf->qualifier() == rel) ||
            (joined.count(rf->qualifier()) > 0 && lf->qualifier() == rel)) {
          if (summary_join.has_value()) {
            return Status::NotImplemented(
                "multiple summary-join predicates between the same "
                "relations");
          }
          // Mirrored when needed so left_expr evaluates on the joined side.
          SummaryJoinPredicate pred;
          pred.op = lf_joined ? cmp->op() : FlipOp(cmp->op());
          pred.left_expr = (lf_joined ? cmp->left() : cmp->right())->Clone();
          pred.right_expr = (lf_joined ? cmp->right() : cmp->left())->Clone();
          summary_join = std::move(pred);
          continue;
        }
      }
      // Data conjunct over joined entries and entry t, touching both.
      std::vector<std::string> columns;
      conjunct->CollectColumns(&columns);
      bool any_joined = false;
      bool any_new = false;
      bool all_in_scope = !conjunct->IsSummaryBased();
      for (const std::string& column : columns) {
        // The FROM entry a bound `rel.col` belongs to (names hold no dot).
        const std::string column_rel = column.substr(0, column.find('.'));
        if (column_rel == rel) {
          any_new = true;
        } else if (joined.count(column_rel) > 0) {
          any_joined = true;
        } else {
          all_in_scope = false;
        }
      }
      if (all_in_scope && any_joined && any_new) {
        data_join.push_back(std::move(conjunct));
      } else {
        remaining.push_back(std::move(conjunct));
      }
    }
    conjuncts = std::move(remaining);

    LogicalPtr right = LScanAs(select.from[t].table, rel);
    if (summary_join.has_value()) {
      plan = LSummaryJoin(std::move(plan), std::move(right),
                          std::move(*summary_join));
      // Data conjuncts between the sides become a selection above the
      // summary join (the rho(J(R,S)) shape; the optimizer may commute).
      if (!data_join.empty()) {
        plan = LSelect(std::move(plan),
                       CombineConjuncts(std::move(data_join)));
      }
    } else {
      ExprPtr join_pred = data_join.empty()
                              ? Lit(Value::Bool(true))
                              : CombineConjuncts(std::move(data_join));
      plan = LJoin(std::move(plan), std::move(right), std::move(join_pred));
    }
    joined.insert(rel);
  }

  // Residual WHERE conjuncts: data selections below summary selections.
  std::vector<ExprPtr> data_conjuncts;
  std::vector<ExprPtr> summary_conjuncts;
  for (ExprPtr& conjunct : conjuncts) {
    if (conjunct->IsSummaryBased()) {
      summary_conjuncts.push_back(std::move(conjunct));
    } else {
      data_conjuncts.push_back(std::move(conjunct));
    }
  }
  if (!data_conjuncts.empty()) {
    plan = LSelect(std::move(plan),
                   CombineConjuncts(std::move(data_conjuncts)));
  }
  if (!summary_conjuncts.empty()) {
    plan = LSummarySelect(std::move(plan),
                          CombineConjuncts(std::move(summary_conjuncts)));
  }

  if (has_aggregates || !select.group_by.empty()) {
    std::vector<std::string> group_columns;
    for (const std::string& column : select.group_by) {
      INSIGHT_ASSIGN_OR_RETURN(std::string bound, scope.Column(column));
      group_columns.push_back(std::move(bound));
    }
    std::vector<AggregateSpec> aggs;
    for (const SelectItem& item : select.items) {
      if (!item.is_aggregate) continue;
      ExprPtr arg;
      if (item.aggregate.arg != nullptr) {
        INSIGHT_ASSIGN_OR_RETURN(arg, BindExpr(*item.aggregate.arg, scope));
      }
      aggs.push_back(AggregateSpec{item.aggregate.kind, std::move(arg),
                                   item.aggregate.output_name});
    }
    // ORDER BY may also name an aggregate's output.
    for (const AggregateSpec& agg : aggs) {
      scope.outputs.push_back(agg.output_name);
    }
    plan = LAggregate(std::move(plan), std::move(group_columns),
                      std::move(aggs));
  }

  if (select.distinct) {
    // DISTINCT applies to the select list: project first (which also
    // applies the summary projection semantics), then de-duplicate.
    std::vector<std::string> columns;
    for (const ExprPtr& output : out.outputs) {
      const auto* col = dynamic_cast<const ColumnExpr*>(output.get());
      if (col == nullptr || has_aggregates) {
        return Status::NotImplemented(
            "SELECT DISTINCT requires a plain column list");
      }
      columns.push_back(col->name());
    }
    plan = LProject(std::move(plan), std::move(columns));
    plan = LDistinct(std::move(plan));
  }

  if (!select.order_by.empty()) {
    std::vector<SortKey> keys;
    for (const SortKey& key : select.order_by) {
      INSIGHT_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(*key.expr, scope));
      keys.push_back(SortKey{std::move(bound), key.descending});
    }
    plan = LSort(std::move(plan), std::move(keys));
  }
  if (select.limit.has_value()) {
    plan = LLimit(std::move(plan), *select.limit);
  }
  out.plan = std::move(plan);
  return out;
}

std::optional<std::vector<std::string>>
StatementExecutor::BoundSelect::OutputColumns() const {
  std::vector<std::string> columns;
  for (const ExprPtr& output : outputs) {
    if (output == nullptr) return std::nullopt;
    output->CollectColumns(&columns);
  }
  return columns;
}

Result<QueryResult> StatementExecutor::ExecuteSelect(
    const SelectStatement& select, SelectMode mode, const std::string& sql,
    const Snapshot& snap) {
  const auto query_start = std::chrono::steady_clock::now();
  INSIGHT_ASSIGN_OR_RETURN(BoundSelect bound, BindSelect(select));
  Optimizer optimizer(db_->context(), db_->optimizer_options());
  QueryResult result;
  if (mode == SelectMode::kExplain) {
    INSIGHT_ASSIGN_OR_RETURN(LogicalPtr rewritten,
                             optimizer.Rewrite(std::move(bound.plan)));
    INSIGHT_ASSIGN_OR_RETURN(OpPtr op, optimizer.Lower(*rewritten));
    result.message = "Logical plan:\n" + rewritten->Explain() +
                     "Physical plan:\n" + op->ExplainTree();
    auto estimate = optimizer.Estimate(*rewritten);
    if (estimate.ok()) {
      char line[96];
      std::snprintf(line, sizeof(line),
                    "Estimated rows: %.1f, cost: %.1f\n", estimate->rows,
                    estimate->cost);
      result.message += line;
    }
    return result;
  }
  INSIGHT_ASSIGN_OR_RETURN(
      OpPtr op,
      optimizer.Optimize(std::move(bound.plan), bound.OutputColumns()));
  // Pin every read in the plan — scans, index probes, summary fetches —
  // to the caller's snapshot via a per-query context copy. The shared
  // context stays at Latest for embedded/legacy callers.
  ExecutionContext query_ctx = *db_->context()->exec_context();
  query_ctx.set_snapshot(snap);
  op->AttachContext(&query_ctx);
  INSIGHT_ASSIGN_OR_RETURN(std::vector<Row> rows, CollectRows(op.get()));
  ObserveQuery(sql, op.get(),
               static_cast<uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - query_start)
                       .count()));
  if (mode == SelectMode::kExplainAnalyze) {
    result.message =
        "Physical plan (analyzed):\n" + op->ExplainAnalyzeTree();
    char line[64];
    std::snprintf(line, sizeof(line), "Rows returned: %zu\n", rows.size());
    result.message += line;
    return result;
  }

  // Materialize the select list. `*` shows an unaliased FROM entry's
  // columns under their base names, an aliased one's as `alias.col`.
  const Schema& plan_schema = op->schema();
  std::vector<Column> header;
  std::vector<ExprPtr> output_exprs;
  for (size_t i = 0; i < select.items.size(); ++i) {
    const SelectItem& item = select.items[i];
    if (item.star) {
      for (const Column& col : plan_schema.columns()) {
        std::string name = col.name;
        for (const SelectStatement::FromTable& from : select.from) {
          const size_t n = from.table.size();
          if (from.alias.empty() && name.size() > n && name[n] == '.' &&
              name.compare(0, n, from.table) == 0) {
            name.erase(0, n + 1);
            break;
          }
        }
        header.push_back({std::move(name), col.type});
        output_exprs.push_back(Col(col.name));
      }
      continue;
    }
    ValueType type = ValueType::kString;
    if (item.is_aggregate) {
      type = item.aggregate.kind == AggregateSpec::Kind::kAvg
                 ? ValueType::kDouble
                 : ValueType::kInt64;
    } else if (const auto* col =
                   dynamic_cast<const ColumnExpr*>(bound.outputs[i].get())) {
      auto idx = plan_schema.IndexOf(col->name());
      if (idx.ok()) type = plan_schema.column(*idx).type;
    } else if (item.expr->IsSummaryBased()) {
      type = ValueType::kInt64;
    }
    header.push_back({item.name, type});
    output_exprs.push_back(std::move(bound.outputs[i]));
  }
  for (const ExprPtr& expr : output_exprs) {
    INSIGHT_RETURN_NOT_OK(expr->Resolve(plan_schema));
  }
  result.schema = Schema(std::move(header));
  for (Row& row : rows) {
    Tuple out;
    for (const ExprPtr& expr : output_exprs) {
      INSIGHT_ASSIGN_OR_RETURN(Value v, expr->Eval(row));
      out.Append(std::move(v));
    }
    result.rows.push_back(std::move(out));
    result.summaries.push_back(std::move(row.summaries));
  }
  return result;
}

Result<QueryResult> StatementExecutor::ExecuteMutation(const Statement& stmt) {
  QueryResult result;
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
    case Statement::Kind::kExplain:
    case Statement::Kind::kZoomIn:
      return Status::Internal("read statement routed to ExecuteMutation");
    case Statement::Kind::kBegin:
    case Statement::Kind::kCommit:
    case Statement::Kind::kRollback:
      return Status::Internal(
          "transaction control routed to ExecuteMutation");
    case Statement::Kind::kCreateTable: {
      INSIGHT_RETURN_NOT_OK(
          db_->CreateTable(stmt.table, stmt.schema).status());
      result.message = "Table " + stmt.table + " created";
      return result;
    }
    case Statement::Kind::kInsert: {
      // Route through Database::Insert so each row is journaled; one
      // group-commit fsync covers the whole statement.
      for (const std::vector<Value>& row : stmt.rows) {
        INSIGHT_RETURN_NOT_OK(db_->Insert(stmt.table, Tuple(row)).status());
      }
      // Inside a transaction durability comes from the commit record;
      // syncing per statement would just double the fsyncs.
      if (CurrentTxn() == nullptr) {
        INSIGHT_RETURN_NOT_OK(db_->WalSync());
      }
      result.message = std::to_string(stmt.rows.size()) + " rows inserted";
      return result;
    }
    case Statement::Kind::kAlterAdd: {
      INSIGHT_RETURN_NOT_OK(
          db_->LinkInstance(stmt.table, stmt.instance, stmt.indexable));
      result.message = "Instance " + stmt.instance + " linked to " +
                       stmt.table + (stmt.indexable ? " (indexable)" : "");
      return result;
    }
    case Statement::Kind::kAlterDrop: {
      INSIGHT_RETURN_NOT_OK(db_->UnlinkInstance(stmt.table, stmt.instance));
      result.message = "Instance " + stmt.instance + " unlinked";
      return result;
    }
    case Statement::Kind::kAnnotate: {
      INSIGHT_ASSIGN_OR_RETURN(Table * table,
                               db_->catalog()->GetTable(stmt.table));
      uint64_t mask = 0;
      if (stmt.columns.empty()) {
        mask = RowMask(table->schema().num_columns());
      } else {
        for (const std::string& column : stmt.columns) {
          INSIGHT_ASSIGN_OR_RETURN(size_t idx,
                                   table->schema().IndexOf(column));
          mask |= CellMask(idx);
        }
      }
      INSIGHT_ASSIGN_OR_RETURN(
          AnnId ann,
          db_->Annotate(stmt.table, stmt.text, {{stmt.tuple_oid, mask}}));
      result.message = "Annotation " + std::to_string(ann) + " added";
      return result;
    }
    case Statement::Kind::kAnalyze: {
      INSIGHT_RETURN_NOT_OK(db_->Analyze(stmt.table));
      result.message = "Statistics collected for " + stmt.table;
      return result;
    }
    case Statement::Kind::kCreateIndex: {
      INSIGHT_RETURN_NOT_OK(
          db_->CreateColumnIndex(stmt.table, stmt.columns[0]));
      result.message = "Index created on " + stmt.table + "." +
                       stmt.columns[0];
      return result;
    }
  }
  return Status::Internal("unreachable");
}

namespace {

/// Pre-order walk of the physical plan into TraceSpans, pairing each
/// operator's frozen plan-time estimate with its runtime counters.
void BuildTraceSpans(const PhysicalOperator* op, int depth,
                     std::vector<TraceSpan>* spans) {
  TraceSpan span;
  span.op = op->Describe();
  span.depth = depth;
  span.est_rows = op->has_estimate() ? op->estimated_rows() : -1;
  span.actual_rows = op->stats().rows;
  span.time_ns = op->stats().total_ns();
  spans->push_back(std::move(span));
  for (const PhysicalOperator* child : op->children()) {
    BuildTraceSpans(child, depth + 1, spans);
  }
}

}  // namespace

void StatementExecutor::ObserveQuery(const std::string& statement,
                                     PhysicalOperator* root,
                                     uint64_t total_ns) {
  EngineMetrics& m = EngineMetrics::Get();
  m.queries_total->Add(1);
  m.query_millis->Observe(static_cast<double>(total_ns) / 1e6);

  QueryTrace trace;
  trace.statement = statement;
  trace.total_ns = total_ns;
  BuildTraceSpans(root, 0, &trace.spans);
  for (const TraceSpan& span : trace.spans) {
    if (span.has_estimate()) m.plan_qerror->Observe(span.qerror());
  }

  // Cardinality feedback: every access-path root carries the table whose
  // statistics produced its estimate; a big enough q-error flags that
  // table so the next statement reading it re-analyzes it first.
  std::vector<PhysicalOperator*> stack{root};
  while (!stack.empty()) {
    PhysicalOperator* op = stack.back();
    stack.pop_back();
    if (!op->feedback_table().empty() && op->has_estimate()) {
      db_->context()->ReportCardinalityFeedback(
          op->feedback_table(),
          QError(op->estimated_rows(),
                 static_cast<double>(op->stats().rows)),
          db_->optimizer_options().feedback_qerror_threshold);
    }
    for (PhysicalOperator* child : op->children()) stack.push_back(child);
  }

  SlowQueryLog* slow_log = db_->slow_query_log();
  if (trace.total_ms() >= slow_log->threshold_ms()) {
    m.slow_queries_total->Add(1);
    trace.plan = root->ExplainAnalyzeTree();
    slow_log->Record(std::move(trace));
  }
}

}  // namespace insight
