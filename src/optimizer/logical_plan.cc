#include "optimizer/logical_plan.h"

#include "common/string_util.h"

namespace insight {

const char* LogicalKindToString(LogicalKind kind) {
  switch (kind) {
    case LogicalKind::kScan:
      return "Scan";
    case LogicalKind::kSelect:
      return "Select";
    case LogicalKind::kSummarySelect:
      return "SummarySelect";
    case LogicalKind::kSummaryFilter:
      return "SummaryFilter";
    case LogicalKind::kProject:
      return "Project";
    case LogicalKind::kJoin:
      return "Join";
    case LogicalKind::kSummaryJoin:
      return "SummaryJoin";
    case LogicalKind::kSort:
      return "Sort";
    case LogicalKind::kAggregate:
      return "Aggregate";
    case LogicalKind::kDistinct:
      return "Distinct";
    case LogicalKind::kLimit:
      return "Limit";
  }
  return "?";
}

LogicalPtr LogicalNode::Clone() const {
  auto node = std::make_unique<LogicalNode>();
  node->kind = kind;
  node->table = table;
  node->alias = alias;
  if (predicate != nullptr) node->predicate = predicate->Clone();
  node->object_predicate = object_predicate;
  node->columns = columns;
  node->summary_join_predicate = summary_join_predicate.Clone();
  for (const SortKey& key : sort_keys) {
    node->sort_keys.push_back(SortKey{key.expr->Clone(), key.descending});
  }
  node->group_columns = group_columns;
  for (const AggregateSpec& agg : aggregates) {
    node->aggregates.push_back(AggregateSpec{
        agg.kind, agg.arg == nullptr ? nullptr : agg.arg->Clone(),
        agg.output_name});
  }
  node->limit = limit;
  for (const LogicalPtr& child : children) {
    node->children.push_back(child->Clone());
  }
  return node;
}

std::string LogicalNode::Explain(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += LogicalKindToString(kind);
  switch (kind) {
    case LogicalKind::kScan:
      out += "(" + table +
             (alias.empty() || alias == table ? "" : " AS " + alias) + ")";
      break;
    case LogicalKind::kSelect:
    case LogicalKind::kSummarySelect:
    case LogicalKind::kJoin:
      if (predicate != nullptr) out += "(" + predicate->ToString() + ")";
      break;
    case LogicalKind::kSummaryFilter:
      out += "(" + object_predicate.ToString() + ")";
      break;
    case LogicalKind::kProject:
      out += "(" + Join(columns, ", ") + ")";
      break;
    case LogicalKind::kSummaryJoin:
      out += "(" + summary_join_predicate.ToString() + ")";
      break;
    case LogicalKind::kSort: {
      out += "(";
      for (size_t i = 0; i < sort_keys.size(); ++i) {
        if (i > 0) out += ", ";
        out += sort_keys[i].expr->ToString();
        if (sort_keys[i].descending) out += " DESC";
      }
      out += ")";
      break;
    }
    case LogicalKind::kAggregate:
      out += "(group by " + Join(group_columns, ", ") + ")";
      break;
    case LogicalKind::kLimit:
      out += "(" + std::to_string(limit) + ")";
      break;
    case LogicalKind::kDistinct:
      break;
  }
  out += "\n";
  for (const LogicalPtr& child : children) {
    out += child->Explain(indent + 1);
  }
  return out;
}

void LogicalNode::CollectTables(std::vector<std::string>* out) const {
  if (kind == LogicalKind::kScan) out->push_back(table);
  for (const LogicalPtr& child : children) child->CollectTables(out);
}

namespace {
LogicalPtr MakeNode(LogicalKind kind) {
  auto node = std::make_unique<LogicalNode>();
  node->kind = kind;
  return node;
}
}  // namespace

LogicalPtr LScan(std::string table) {
  LogicalPtr node = MakeNode(LogicalKind::kScan);
  node->table = std::move(table);
  return node;
}

LogicalPtr LScanAs(std::string table, std::string alias) {
  LogicalPtr node = LScan(std::move(table));
  node->alias = std::move(alias);
  return node;
}

LogicalPtr LSelect(LogicalPtr child, ExprPtr predicate) {
  LogicalPtr node = MakeNode(LogicalKind::kSelect);
  node->children.push_back(std::move(child));
  node->predicate = std::move(predicate);
  return node;
}

LogicalPtr LSummarySelect(LogicalPtr child, ExprPtr predicate) {
  LogicalPtr node = MakeNode(LogicalKind::kSummarySelect);
  node->children.push_back(std::move(child));
  node->predicate = std::move(predicate);
  return node;
}

LogicalPtr LSummaryFilter(LogicalPtr child, ObjectPredicate predicate) {
  LogicalPtr node = MakeNode(LogicalKind::kSummaryFilter);
  node->children.push_back(std::move(child));
  node->object_predicate = std::move(predicate);
  return node;
}

LogicalPtr LProject(LogicalPtr child, std::vector<std::string> columns) {
  LogicalPtr node = MakeNode(LogicalKind::kProject);
  node->children.push_back(std::move(child));
  node->columns = std::move(columns);
  return node;
}

LogicalPtr LJoin(LogicalPtr left, LogicalPtr right, ExprPtr predicate) {
  LogicalPtr node = MakeNode(LogicalKind::kJoin);
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  node->predicate = std::move(predicate);
  return node;
}

LogicalPtr LSummaryJoin(LogicalPtr left, LogicalPtr right,
                        SummaryJoinPredicate predicate) {
  LogicalPtr node = MakeNode(LogicalKind::kSummaryJoin);
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  node->summary_join_predicate = std::move(predicate);
  return node;
}

LogicalPtr LSort(LogicalPtr child, std::vector<SortKey> keys) {
  LogicalPtr node = MakeNode(LogicalKind::kSort);
  node->children.push_back(std::move(child));
  node->sort_keys = std::move(keys);
  return node;
}

LogicalPtr LAggregate(LogicalPtr child, std::vector<std::string> group_cols,
                      std::vector<AggregateSpec> aggregates) {
  LogicalPtr node = MakeNode(LogicalKind::kAggregate);
  node->children.push_back(std::move(child));
  node->group_columns = std::move(group_cols);
  node->aggregates = std::move(aggregates);
  return node;
}

LogicalPtr LDistinct(LogicalPtr child) {
  LogicalPtr node = MakeNode(LogicalKind::kDistinct);
  node->children.push_back(std::move(child));
  return node;
}

LogicalPtr LLimit(LogicalPtr child, uint64_t limit) {
  LogicalPtr node = MakeNode(LogicalKind::kLimit);
  node->children.push_back(std::move(child));
  node->limit = limit;
  return node;
}

}  // namespace insight
