#include "engine/expression.h"

#include "common/string_util.h"

namespace insight {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

bool EvalCompare(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

namespace {

/// Three-valued logic verdicts, as the boolean connectives see them.
constexpr uint8_t kTriFalse = 0;
constexpr uint8_t kTriTrue = 1;
constexpr uint8_t kTriNull = 2;

/// A predicate value reduced to three-valued logic. Non-boolean
/// non-NULL results are type errors, matching EvalBool.
Result<uint8_t> TriOf(const Value& v) {
  if (v.is_null()) return uint8_t{kTriNull};
  if (v.type() != ValueType::kBool) {
    return Status::TypeError("predicate evaluated to " +
                             std::string(ValueTypeToString(v.type())));
  }
  return v.AsBool() ? kTriTrue : kTriFalse;
}

Value TriToValue(uint8_t t) {
  if (t == kTriNull) return Value::Null();
  return Value::Bool(t == kTriTrue);
}

/// Kleene AND/OR: false dominates AND, true dominates OR, NULL
/// propagates otherwise.
uint8_t KleeneCombine(LogicalExpr::Kind kind, uint8_t l, uint8_t r) {
  if (kind == LogicalExpr::Kind::kAnd) {
    if (l == kTriFalse || r == kTriFalse) return kTriFalse;
    if (l == kTriNull || r == kTriNull) return kTriNull;
    return kTriTrue;
  }
  if (l == kTriTrue || r == kTriTrue) return kTriTrue;
  if (l == kTriNull || r == kTriNull) return kTriNull;
  return kTriFalse;
}

CompareOp FlipOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;
  }
}

}  // namespace

Result<bool> Expression::EvalBool(const Row& row,
                                  const Schema& schema) const {
  INSIGHT_ASSIGN_OR_RETURN(Value v, Eval(row, schema));
  if (v.is_null()) return false;
  if (v.type() != ValueType::kBool) {
    return Status::TypeError("predicate evaluated to " +
                             std::string(ValueTypeToString(v.type())));
  }
  return v.AsBool();
}

Status Expression::EvalBatch(const RowBatch& batch, const Schema& schema,
                             std::vector<Value>* out) const {
  for (const Row& row : batch) {
    INSIGHT_ASSIGN_OR_RETURN(Value v, Eval(row, schema));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

Status Expression::EvalBoolBatch(const RowBatch& batch, const Schema& schema,
                                 std::vector<uint8_t>* out) const {
  std::vector<Value> values;
  values.reserve(batch.size());
  INSIGHT_RETURN_NOT_OK(EvalBatch(batch, schema, &values));
  out->reserve(out->size() + values.size());
  for (const Value& v : values) {
    if (v.is_null()) {
      out->push_back(0);
      continue;
    }
    if (v.type() != ValueType::kBool) {
      return Status::TypeError("predicate evaluated to " +
                               std::string(ValueTypeToString(v.type())));
    }
    out->push_back(v.AsBool() ? 1 : 0);
  }
  return Status::OK();
}

std::string LiteralExpr::ToString() const {
  if (value_.type() == ValueType::kString) {
    return "'" + value_.AsString() + "'";
  }
  return value_.ToString();
}

Result<Value> ColumnExpr::Eval(const Row& row, const Schema& schema) const {
  INSIGHT_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(name_));
  if (idx >= row.data.size()) {
    return Status::Internal("column index out of row bounds: " + name_);
  }
  return row.data.at(idx);
}

Status ColumnExpr::EvalBatch(const RowBatch& batch, const Schema& schema,
                             std::vector<Value>* out) const {
  if (batch.empty()) return Status::OK();
  INSIGHT_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(name_));
  out->reserve(out->size() + batch.size());
  for (const Row& row : batch) {
    if (idx >= row.data.size()) {
      return Status::Internal("column index out of row bounds: " + name_);
    }
    out->push_back(row.data.at(idx));
  }
  return Status::OK();
}

Result<Value> CompareExpr::Eval(const Row& row, const Schema& schema) const {
  INSIGHT_ASSIGN_OR_RETURN(Value l, left_->Eval(row, schema));
  INSIGHT_ASSIGN_OR_RETURN(Value r, right_->Eval(row, schema));
  if (l.is_null() || r.is_null()) return Value::Null();
  return Value::Bool(EvalCompare(op_, l.Compare(r)));
}

Status CompareExpr::EvalBatch(const RowBatch& batch, const Schema& schema,
                              std::vector<Value>* out) const {
  std::vector<Value> lhs;
  std::vector<Value> rhs;
  lhs.reserve(batch.size());
  rhs.reserve(batch.size());
  INSIGHT_RETURN_NOT_OK(left_->EvalBatch(batch, schema, &lhs));
  INSIGHT_RETURN_NOT_OK(right_->EvalBatch(batch, schema, &rhs));
  out->reserve(out->size() + batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (lhs[i].is_null() || rhs[i].is_null()) {
      out->push_back(Value::Null());
    } else {
      out->push_back(Value::Bool(EvalCompare(op_, lhs[i].Compare(rhs[i]))));
    }
  }
  return Status::OK();
}

std::string CompareExpr::ToString() const {
  return left_->ToString() + " " + CompareOpToString(op_) + " " +
         right_->ToString();
}

Result<Value> LogicalExpr::Eval(const Row& row, const Schema& schema) const {
  INSIGHT_ASSIGN_OR_RETURN(Value lv, left_->Eval(row, schema));
  INSIGHT_ASSIGN_OR_RETURN(uint8_t l, TriOf(lv));
  // Short-circuit only on a decisive left side. NULL is not decisive:
  // NULL AND false is false, NULL OR true is true (Kleene), so NULL
  // must flow into the combine below rather than collapse to false here.
  if (kind_ == Kind::kAnd ? l == kTriFalse : l == kTriTrue) {
    return Value::Bool(kind_ == Kind::kOr);
  }
  INSIGHT_ASSIGN_OR_RETURN(Value rv, right_->Eval(row, schema));
  INSIGHT_ASSIGN_OR_RETURN(uint8_t r, TriOf(rv));
  return TriToValue(KleeneCombine(kind_, l, r));
}

Status LogicalExpr::EvalBatch(const RowBatch& batch, const Schema& schema,
                              std::vector<Value>* out) const {
  std::vector<Value> lhs;
  lhs.reserve(batch.size());
  INSIGHT_RETURN_NOT_OK(left_->EvalBatch(batch, schema, &lhs));
  out->reserve(out->size() + batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    INSIGHT_ASSIGN_OR_RETURN(uint8_t l, TriOf(lhs[i]));
    if (kind_ == Kind::kAnd ? l == kTriFalse : l == kTriTrue) {
      out->push_back(Value::Bool(kind_ == Kind::kOr));
      continue;
    }
    INSIGHT_ASSIGN_OR_RETURN(Value rv, right_->Eval(batch[i], schema));
    INSIGHT_ASSIGN_OR_RETURN(uint8_t r, TriOf(rv));
    out->push_back(TriToValue(KleeneCombine(kind_, l, r)));
  }
  return Status::OK();
}

std::string LogicalExpr::ToString() const {
  const char* op = kind_ == Kind::kAnd ? " AND " : " OR ";
  return "(" + left_->ToString() + op + right_->ToString() + ")";
}

Result<Value> NotExpr::Eval(const Row& row, const Schema& schema) const {
  // NOT NULL is NULL, not true: the operand must keep its three-valued
  // result here; collapsing NULL to false first would negate it to true.
  INSIGHT_ASSIGN_OR_RETURN(Value v, operand_->Eval(row, schema));
  INSIGHT_ASSIGN_OR_RETURN(uint8_t t, TriOf(v));
  if (t == kTriNull) return Value::Null();
  return Value::Bool(t == kTriFalse);
}

Status NotExpr::EvalBatch(const RowBatch& batch, const Schema& schema,
                          std::vector<Value>* out) const {
  std::vector<Value> vals;
  vals.reserve(batch.size());
  INSIGHT_RETURN_NOT_OK(operand_->EvalBatch(batch, schema, &vals));
  out->reserve(out->size() + batch.size());
  for (const Value& v : vals) {
    INSIGHT_ASSIGN_OR_RETURN(uint8_t t, TriOf(v));
    out->push_back(t == kTriNull ? Value::Null()
                                 : Value::Bool(t == kTriFalse));
  }
  return Status::OK();
}

Result<Value> LikeExpr::Eval(const Row& row, const Schema& schema) const {
  INSIGHT_ASSIGN_OR_RETURN(Value v, operand_->Eval(row, schema));
  if (v.is_null()) return Value::Null();
  if (v.type() != ValueType::kString) {
    return Status::TypeError("LIKE on non-string value");
  }
  return Value::Bool(LikeMatch(v.AsString(), pattern_));
}

Result<Value> SummaryFuncExpr::Eval(const Row& row, const Schema&) const {
  if (kind_ == SummaryFuncKind::kSetSize) {
    return Value::Int(row.summaries.GetSize());
  }
  const SummaryObject* obj = row.summaries.GetSummaryObject(instance_);
  switch (kind_) {
    case SummaryFuncKind::kHasObject:
      return Value::Bool(obj != nullptr);
    case SummaryFuncKind::kObjectSize:
      if (obj == nullptr) return Value::Null();
      return Value::Int(obj->GetSize());
    case SummaryFuncKind::kLabelValue: {
      if (obj == nullptr) return Value::Null();
      auto value = obj->GetLabelValue(label_);
      if (!value.ok()) return value.status();
      return Value::Int(*value);
    }
    case SummaryFuncKind::kContainsSingle:
      return Value::Bool(obj != nullptr && obj->ContainsSingle(keywords_));
    case SummaryFuncKind::kContainsUnion:
      return Value::Bool(obj != nullptr && obj->ContainsUnion(keywords_));
    case SummaryFuncKind::kLabelName: {
      if (obj == nullptr) return Value::Null();
      auto name = obj->GetLabelName(index_);
      if (!name.ok()) return name.status();
      return Value::String(*name);
    }
    case SummaryFuncKind::kLabelValueAt: {
      if (obj == nullptr) return Value::Null();
      auto value = obj->GetLabelValue(index_);
      if (!value.ok()) return value.status();
      return Value::Int(*value);
    }
    case SummaryFuncKind::kSnippetAt: {
      if (obj == nullptr) return Value::Null();
      // Out-of-range positions yield NULL (snippet counts vary per
      // tuple, unlike the fixed classifier label set).
      auto snippet = obj->GetSnippet(index_);
      if (snippet.ok()) return Value::String(*snippet);
      return snippet.status().IsOutOfRange()
                 ? Result<Value>(Value::Null())
                 : Result<Value>(snippet.status());
    }
    case SummaryFuncKind::kGroupSizeAt: {
      if (obj == nullptr) return Value::Null();
      auto size = obj->GetGroupSize(index_);
      if (size.ok()) return Value::Int(*size);
      return size.status().IsOutOfRange() ? Result<Value>(Value::Null())
                                          : Result<Value>(size.status());
    }
    case SummaryFuncKind::kRepresentative: {
      if (obj == nullptr) return Value::Null();
      auto rep = obj->GetRepresentative(index_);
      if (rep.ok()) return Value::String(*rep);
      return rep.status().IsOutOfRange() ? Result<Value>(Value::Null())
                                         : Result<Value>(rep.status());
    }
    case SummaryFuncKind::kSetSize:
      break;  // Handled above.
  }
  return Status::Internal("unreachable summary function");
}

std::string SummaryFuncExpr::ToString() const {
  switch (kind_) {
    case SummaryFuncKind::kSetSize:
      return "$.getSize()";
    case SummaryFuncKind::kObjectSize:
      return "$.getSummaryObject('" + instance_ + "').getSize()";
    case SummaryFuncKind::kHasObject:
      return "$.getSummaryObject('" + instance_ + "') IS NOT NULL";
    case SummaryFuncKind::kLabelValue:
      return "$.getSummaryObject('" + instance_ + "').getLabelValue('" +
             label_ + "')";
    case SummaryFuncKind::kContainsSingle:
    case SummaryFuncKind::kContainsUnion: {
      std::string out = "$.getSummaryObject('" + instance_ + "').";
      out += kind_ == SummaryFuncKind::kContainsSingle ? "containsSingle("
                                                       : "containsUnion(";
      for (size_t i = 0; i < keywords_.size(); ++i) {
        if (i > 0) out += ", ";
        out += "'" + keywords_[i] + "'";
      }
      out += ")";
      return out;
    }
    case SummaryFuncKind::kLabelName:
    case SummaryFuncKind::kLabelValueAt:
    case SummaryFuncKind::kSnippetAt:
    case SummaryFuncKind::kGroupSizeAt:
    case SummaryFuncKind::kRepresentative: {
      const char* name = "?";
      switch (kind_) {
        case SummaryFuncKind::kLabelName:
          name = "getLabelName";
          break;
        case SummaryFuncKind::kLabelValueAt:
          name = "getLabelValue";
          break;
        case SummaryFuncKind::kSnippetAt:
          name = "getSnippet";
          break;
        case SummaryFuncKind::kGroupSizeAt:
          name = "getGroupSize";
          break;
        case SummaryFuncKind::kRepresentative:
          name = "getRepresentative";
          break;
        default:
          break;
      }
      return "$.getSummaryObject('" + instance_ + "')." + name + "(" +
             std::to_string(index_) + ")";
    }
  }
  return "?";
}

ExprPtr Lit(Value v) { return std::make_unique<LiteralExpr>(std::move(v)); }
ExprPtr Col(std::string name) {
  return std::make_unique<ColumnExpr>(std::move(name));
}
ExprPtr Cmp(ExprPtr l, CompareOp op, ExprPtr r) {
  return std::make_unique<CompareExpr>(std::move(l), op, std::move(r));
}
ExprPtr And(ExprPtr l, ExprPtr r) {
  return std::make_unique<LogicalExpr>(LogicalExpr::Kind::kAnd, std::move(l),
                                       std::move(r));
}
ExprPtr Or(ExprPtr l, ExprPtr r) {
  return std::make_unique<LogicalExpr>(LogicalExpr::Kind::kOr, std::move(l),
                                       std::move(r));
}
ExprPtr Not(ExprPtr e) { return std::make_unique<NotExpr>(std::move(e)); }
ExprPtr Like(ExprPtr operand, std::string pattern) {
  return std::make_unique<LikeExpr>(std::move(operand), std::move(pattern));
}
ExprPtr LabelValue(std::string instance, std::string label) {
  return std::make_unique<SummaryFuncExpr>(std::move(instance),
                                           std::move(label));
}
ExprPtr ContainsSingle(std::string instance,
                       std::vector<std::string> keywords) {
  return std::make_unique<SummaryFuncExpr>(SummaryFuncKind::kContainsSingle,
                                           std::move(instance),
                                           std::move(keywords));
}
ExprPtr ContainsUnion(std::string instance,
                      std::vector<std::string> keywords) {
  return std::make_unique<SummaryFuncExpr>(SummaryFuncKind::kContainsUnion,
                                           std::move(instance),
                                           std::move(keywords));
}

std::optional<IndexablePredicate> MatchIndexablePredicate(
    const Expression* expr) {
  const auto* cmp = dynamic_cast<const CompareExpr*>(expr);
  if (cmp == nullptr || cmp->op() == CompareOp::kNe) return std::nullopt;

  const Expression* lhs = cmp->left();
  const Expression* rhs = cmp->right();
  CompareOp op = cmp->op();
  const auto* func = dynamic_cast<const SummaryFuncExpr*>(lhs);
  const auto* lit = dynamic_cast<const LiteralExpr*>(rhs);
  if (func == nullptr || lit == nullptr) {
    // Try the flipped form "constant <Op> labelValue".
    func = dynamic_cast<const SummaryFuncExpr*>(rhs);
    lit = dynamic_cast<const LiteralExpr*>(lhs);
    op = FlipOp(op);
  }
  if (func == nullptr || lit == nullptr) return std::nullopt;
  if (func->kind() != SummaryFuncKind::kLabelValue) return std::nullopt;
  if (lit->value().type() != ValueType::kInt64) return std::nullopt;
  return IndexablePredicate{func->instance(), func->label(), op,
                            lit->value().AsInt()};
}

}  // namespace insight
