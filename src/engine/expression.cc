#include "engine/expression.h"

#include <optional>
#include <type_traits>

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
/// non-NULL results are type errors.
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

}  // namespace

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

Result<bool> Expression::EvalBool(const Row& row) const {
  INSIGHT_ASSIGN_OR_RETURN(Value v, Eval(row));
  INSIGHT_ASSIGN_OR_RETURN(uint8_t t, TriOf(v));
  return t == kTriTrue;
}

std::string LiteralExpr::ToString() const {
  if (value_.type() == ValueType::kString) {
    return "'" + value_.AsString() + "'";
  }
  return value_.ToString();
}

Status ColumnExpr::Resolve(const Schema& input) {
  pos_ = kUnresolved;
  INSIGHT_ASSIGN_OR_RETURN(pos_, input.IndexOf(name_));
  return Status::OK();
}

Result<Value> ColumnExpr::Eval(const Row& row) const {
  if (pos_ == kUnresolved) {
    return Status::Internal("column evaluated before Resolve: " + name_);
  }
  if (pos_ >= row.data.size()) {
    return Status::Internal("column index out of row bounds: " + name_);
  }
  return row.data.at(pos_);
}

Result<Value> CompareExpr::Eval(const Row& row) const {
  INSIGHT_ASSIGN_OR_RETURN(Value l, left_->Eval(row));
  INSIGHT_ASSIGN_OR_RETURN(Value r, right_->Eval(row));
  if (l.is_null() || r.is_null()) return Value::Null();
  return Value::Bool(EvalCompare(op_, l.Compare(r)));
}

std::string CompareExpr::ToString() const {
  return left_->ToString() + " " + CompareOpToString(op_) + " " +
         right_->ToString();
}

Result<Value> LogicalExpr::Eval(const Row& row) const {
  INSIGHT_ASSIGN_OR_RETURN(Value lv, left_->Eval(row));
  INSIGHT_ASSIGN_OR_RETURN(uint8_t l, TriOf(lv));
  // Short-circuit only on a decisive left side. NULL is not decisive:
  // NULL AND false is false, NULL OR true is true (Kleene), so NULL
  // must flow into the combine below rather than collapse to false here.
  if (kind_ == Kind::kAnd ? l == kTriFalse : l == kTriTrue) {
    return Value::Bool(kind_ == Kind::kOr);
  }
  INSIGHT_ASSIGN_OR_RETURN(Value rv, right_->Eval(row));
  INSIGHT_ASSIGN_OR_RETURN(uint8_t r, TriOf(rv));
  return TriToValue(KleeneCombine(kind_, l, r));
}

std::string LogicalExpr::ToString() const {
  const char* op = kind_ == Kind::kAnd ? " AND " : " OR ";
  return "(" + left_->ToString() + op + right_->ToString() + ")";
}

Result<Value> NotExpr::Eval(const Row& row) const {
  // NOT NULL is NULL, not true: the operand must keep its three-valued
  // result here; collapsing NULL to false first would negate it to true.
  INSIGHT_ASSIGN_OR_RETURN(Value v, operand_->Eval(row));
  INSIGHT_ASSIGN_OR_RETURN(uint8_t t, TriOf(v));
  if (t == kTriNull) return Value::Null();
  return Value::Bool(t == kTriFalse);
}

Result<Value> LikeExpr::Eval(const Row& row) const {
  INSIGHT_ASSIGN_OR_RETURN(Value v, operand_->Eval(row));
  if (v.is_null()) return Value::Null();
  if (v.type() != ValueType::kString) {
    return Status::TypeError("LIKE on non-string value");
  }
  return Value::Bool(LikeMatch(v.AsString(), pattern_));
}

namespace {

/// Positional snippet/cluster reads: out-of-range positions yield NULL
/// (snippet and group counts vary per tuple, unlike the fixed classifier
/// label set).
template <typename T>
Result<Value> NullIfOutOfRange(const Result<T>& r) {
  if (r.ok()) {
    if constexpr (std::is_same_v<T, int64_t>) {
      return Value::Int(*r);
    } else {
      return Value::String(*r);
    }
  }
  return r.status().IsOutOfRange() ? Result<Value>(Value::Null())
                                   : Result<Value>(r.status());
}

/// One function over the named object (null when absent), decoded
/// (SummaryObject) or read in place (StoredSummaryObject).
template <typename Obj>
Result<Value> EvalOnObject(const SummaryFuncExpr& f, const Obj* obj) {
  switch (f.kind()) {
    case SummaryFuncKind::kHasObject:
      return Value::Bool(obj != nullptr);
    case SummaryFuncKind::kContainsSingle:
      return Value::Bool(obj != nullptr && obj->ContainsSingle(f.keywords()));
    case SummaryFuncKind::kContainsUnion:
      return Value::Bool(obj != nullptr && obj->ContainsUnion(f.keywords()));
    default:
      break;
  }
  if (obj == nullptr) return Value::Null();
  switch (f.kind()) {
    case SummaryFuncKind::kObjectSize:
      return Value::Int(obj->GetSize());
    case SummaryFuncKind::kLabelValue: {
      INSIGHT_ASSIGN_OR_RETURN(int64_t value, obj->GetLabelValue(f.label()));
      return Value::Int(value);
    }
    case SummaryFuncKind::kLabelName: {
      INSIGHT_ASSIGN_OR_RETURN(std::string name, obj->GetLabelName(f.index()));
      return Value::String(std::move(name));
    }
    case SummaryFuncKind::kLabelValueAt: {
      INSIGHT_ASSIGN_OR_RETURN(int64_t value, obj->GetLabelValue(f.index()));
      return Value::Int(value);
    }
    case SummaryFuncKind::kSnippetAt:
      return NullIfOutOfRange(obj->GetSnippet(f.index()));
    case SummaryFuncKind::kGroupSizeAt:
      return NullIfOutOfRange(obj->GetGroupSize(f.index()));
    case SummaryFuncKind::kRepresentative:
      return NullIfOutOfRange(obj->GetRepresentative(f.index()));
    default:
      break;
  }
  return Status::Internal("unreachable summary function");
}

}  // namespace

Result<Value> SummaryFuncExpr::Eval(const Row& row) const {
  const SummarySet& set = row.summaries;
  if (kind_ == SummaryFuncKind::kSetSize) return Value::Int(set.GetSize());
  if (set.stored()) {
    const std::optional<StoredSummaryObject> obj =
        set.FindStoredObject(instance_);
    return EvalOnObject(*this, obj.has_value() ? &*obj : nullptr);
  }
  return EvalOnObject(*this, set.GetSummaryObject(instance_));
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
