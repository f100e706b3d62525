#ifndef INSIGHTNOTES_ENGINE_EXPRESSION_H_
#define INSIGHTNOTES_ENGINE_EXPRESSION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/row.h"
#include "engine/row_batch.h"
#include "types/schema.h"

namespace insight {

/// Comparison operators for predicates.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
const char* CompareOpToString(CompareOp op);
bool EvalCompare(CompareOp op, int cmp);

/// Scalar expression over a Row: data columns, literals, comparisons,
/// boolean connectives, LIKE, and the paper's summary manipulation
/// functions (Section 3.1). Expressions are immutable; Clone() copies.
class Expression {
 public:
  virtual ~Expression() = default;

  virtual Result<Value> Eval(const Row& row, const Schema& schema) const = 0;
  virtual std::string ToString() const = 0;
  virtual std::unique_ptr<Expression> Clone() const = 0;

  /// Data column names referenced (for pushdown legality).
  virtual void CollectColumns(std::vector<std::string>* out) const {
    (void)out;
  }
  /// Summary instance names referenced (for Rules 2, 7, 10, 11).
  virtual void CollectInstances(std::vector<std::string>* out) const {
    (void)out;
  }

  /// True when the expression touches any summary object.
  bool IsSummaryBased() const {
    std::vector<std::string> instances;
    CollectInstances(&instances);
    return !instances.empty();
  }

  /// Evaluates as a predicate; non-boolean truthiness is an error,
  /// NULL is false (SQL semantics).
  Result<bool> EvalBool(const Row& row, const Schema& schema) const;

  /// Batch evaluation: appends one Value per row of `batch` to `out`.
  /// The default loops Eval(); subexpressions that can amortize per-row
  /// work across the batch override it (ColumnExpr resolves its column
  /// index once per batch instead of once per row).
  virtual Status EvalBatch(const RowBatch& batch, const Schema& schema,
                           std::vector<Value>* out) const;

  /// Batch predicate evaluation with EvalBool's SQL semantics (NULL is
  /// false, non-boolean is a type error): appends one flag per row.
  /// Kleene NULLs flow through AND/OR/NOT inside EvalBatch() and
  /// collapse to false only here, at the filter decision.
  Status EvalBoolBatch(const RowBatch& batch, const Schema& schema,
                       std::vector<uint8_t>* out) const;
};

using ExprPtr = std::unique_ptr<Expression>;

/// Constant value.
class LiteralExpr : public Expression {
 public:
  explicit LiteralExpr(Value value) : value_(std::move(value)) {}
  Result<Value> Eval(const Row&, const Schema&) const override {
    return value_;
  }
  Status EvalBatch(const RowBatch& batch, const Schema&,
                   std::vector<Value>* out) const override {
    out->insert(out->end(), batch.size(), value_);
    return Status::OK();
  }
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_unique<LiteralExpr>(value_);
  }
  const Value& value() const { return value_; }

 private:
  Value value_;
};

/// Named data column.
class ColumnExpr : public Expression {
 public:
  explicit ColumnExpr(std::string name) : name_(std::move(name)) {}
  Result<Value> Eval(const Row& row, const Schema& schema) const override;
  /// Resolves the column index once for the whole batch.
  Status EvalBatch(const RowBatch& batch, const Schema& schema,
                   std::vector<Value>* out) const override;
  std::string ToString() const override { return name_; }
  ExprPtr Clone() const override {
    return std::make_unique<ColumnExpr>(name_);
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    out->push_back(name_);
  }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

/// left <op> right.
class CompareExpr : public Expression {
 public:
  CompareExpr(ExprPtr left, CompareOp op, ExprPtr right)
      : left_(std::move(left)), op_(op), right_(std::move(right)) {}
  Result<Value> Eval(const Row& row, const Schema& schema) const override;
  Status EvalBatch(const RowBatch& batch, const Schema& schema,
                   std::vector<Value>* out) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_unique<CompareExpr>(left_->Clone(), op_,
                                         right_->Clone());
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    left_->CollectColumns(out);
    right_->CollectColumns(out);
  }
  void CollectInstances(std::vector<std::string>* out) const override {
    left_->CollectInstances(out);
    right_->CollectInstances(out);
  }
  const Expression* left() const { return left_.get(); }
  const Expression* right() const { return right_.get(); }
  CompareOp op() const { return op_; }

 private:
  ExprPtr left_;
  CompareOp op_;
  ExprPtr right_;
};

/// AND / OR over two operands.
class LogicalExpr : public Expression {
 public:
  enum class Kind { kAnd, kOr };
  LogicalExpr(Kind kind, ExprPtr left, ExprPtr right)
      : kind_(kind), left_(std::move(left)), right_(std::move(right)) {}
  Result<Value> Eval(const Row& row, const Schema& schema) const override;
  /// Evaluates the left side batch-wise; the right side runs only for
  /// rows the left side leaves undecided, preserving Eval()'s
  /// short-circuit semantics exactly.
  Status EvalBatch(const RowBatch& batch, const Schema& schema,
                   std::vector<Value>* out) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_unique<LogicalExpr>(kind_, left_->Clone(),
                                         right_->Clone());
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    left_->CollectColumns(out);
    right_->CollectColumns(out);
  }
  void CollectInstances(std::vector<std::string>* out) const override {
    left_->CollectInstances(out);
    right_->CollectInstances(out);
  }
  Kind kind() const { return kind_; }
  const Expression* left() const { return left_.get(); }
  const Expression* right() const { return right_.get(); }

 private:
  Kind kind_;
  ExprPtr left_;
  ExprPtr right_;
};

/// NOT operand.
class NotExpr : public Expression {
 public:
  explicit NotExpr(ExprPtr operand) : operand_(std::move(operand)) {}
  Result<Value> Eval(const Row& row, const Schema& schema) const override;
  Status EvalBatch(const RowBatch& batch, const Schema& schema,
                   std::vector<Value>* out) const override;
  std::string ToString() const override {
    return "NOT (" + operand_->ToString() + ")";
  }
  ExprPtr Clone() const override {
    return std::make_unique<NotExpr>(operand_->Clone());
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    operand_->CollectColumns(out);
  }
  void CollectInstances(std::vector<std::string>* out) const override {
    operand_->CollectInstances(out);
  }
  const Expression* operand() const { return operand_.get(); }

 private:
  ExprPtr operand_;
};

/// column LIKE 'pattern' with % and _ wildcards.
class LikeExpr : public Expression {
 public:
  LikeExpr(ExprPtr operand, std::string pattern)
      : operand_(std::move(operand)), pattern_(std::move(pattern)) {}
  Result<Value> Eval(const Row& row, const Schema& schema) const override;
  std::string ToString() const override {
    return operand_->ToString() + " LIKE '" + pattern_ + "'";
  }
  ExprPtr Clone() const override {
    return std::make_unique<LikeExpr>(operand_->Clone(), pattern_);
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    operand_->CollectColumns(out);
  }

 private:
  ExprPtr operand_;
  std::string pattern_;
};

/// The summary manipulation functions usable inside expressions. All are
/// evaluated against row.summaries (the `$` variable).
enum class SummaryFuncKind {
  kSetSize,         // $.getSize()
  kObjectSize,      // $.getSummaryObject(I).getSize()
  kLabelValue,      // $.getSummaryObject(I).getLabelValue(label)
  kContainsSingle,  // $.getSummaryObject(I).containsSingle(kw...)
  kContainsUnion,   // $.getSummaryObject(I).containsUnion(kw...)
  kHasObject,       // $.getSummaryObject(I) IS NOT NULL
  kLabelName,       // $.getSummaryObject(I).getLabelName(i)
  kLabelValueAt,    // $.getSummaryObject(I).getLabelValue(i)
  kSnippetAt,       // $.getSummaryObject(I).getSnippet(i)
  kGroupSizeAt,     // $.getSummaryObject(I).getGroupSize(i)
  kRepresentative,  // $.getSummaryObject(I).getRepresentative(i)
};

/// Summary-function expression. Missing objects yield NULL for value
/// functions (so predicates on them are false) and false for the
/// contains/has functions, mirroring the paper's getSummaryObject()
/// returning Null.
class SummaryFuncExpr : public Expression {
 public:
  /// kSetSize.
  SummaryFuncExpr() : kind_(SummaryFuncKind::kSetSize) {}
  /// kObjectSize / kHasObject.
  SummaryFuncExpr(SummaryFuncKind kind, std::string instance)
      : kind_(kind), instance_(std::move(instance)) {}
  /// kLabelValue.
  SummaryFuncExpr(std::string instance, std::string label)
      : kind_(SummaryFuncKind::kLabelValue),
        instance_(std::move(instance)),
        label_(std::move(label)) {}
  /// kContainsSingle / kContainsUnion.
  SummaryFuncExpr(SummaryFuncKind kind, std::string instance,
                  std::vector<std::string> keywords)
      : kind_(kind),
        instance_(std::move(instance)),
        keywords_(std::move(keywords)) {}

  /// Positional functions (kLabelName, kLabelValueAt, kSnippetAt,
  /// kGroupSizeAt, kRepresentative).
  SummaryFuncExpr(SummaryFuncKind kind, std::string instance, size_t index)
      : kind_(kind), instance_(std::move(instance)), index_(index) {}

  Result<Value> Eval(const Row& row, const Schema& schema) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_unique<SummaryFuncExpr>(*this);
  }
  void CollectInstances(std::vector<std::string>* out) const override {
    if (!instance_.empty()) out->push_back(instance_);
  }

  SummaryFuncKind kind() const { return kind_; }
  const std::string& instance() const { return instance_; }
  const std::string& label() const { return label_; }
  const std::vector<std::string>& keywords() const { return keywords_; }
  size_t index() const { return index_; }

  /// Table-alias qualifier ("v1" in `v1.$.getSummaryObject(...)`). Only
  /// meaningful during binding: the SQL binder routes predicates whose two
  /// sides carry different qualifiers into summary-join predicates.
  /// Evaluation always works on the incoming row's own summary set.
  const std::string& qualifier() const { return qualifier_; }
  void set_qualifier(std::string q) { qualifier_ = std::move(q); }

 private:
  SummaryFuncKind kind_;
  std::string instance_;
  std::string label_;
  std::vector<std::string> keywords_;
  size_t index_ = 0;
  std::string qualifier_;
};

// ---- Convenience builders ----

ExprPtr Lit(Value v);
ExprPtr Col(std::string name);
ExprPtr Cmp(ExprPtr l, CompareOp op, ExprPtr r);
ExprPtr And(ExprPtr l, ExprPtr r);
ExprPtr Or(ExprPtr l, ExprPtr r);
ExprPtr Not(ExprPtr e);
ExprPtr Like(ExprPtr operand, std::string pattern);
/// $.getSummaryObject(instance).getLabelValue(label).
ExprPtr LabelValue(std::string instance, std::string label);
ExprPtr ContainsSingle(std::string instance,
                       std::vector<std::string> keywords);
ExprPtr ContainsUnion(std::string instance,
                      std::vector<std::string> keywords);

/// An indexable classifier predicate in the form
/// "instance.label <Op> constant" (the Summary-BTree's target query).
struct IndexablePredicate {
  std::string instance;
  std::string label;
  CompareOp op;
  int64_t constant;
};

/// Extracts an IndexablePredicate when `expr` matches the target shape
/// (a comparison between LabelValue and an integer literal, either side).
std::optional<IndexablePredicate> MatchIndexablePredicate(
    const Expression* expr);

}  // namespace insight

#endif  // INSIGHTNOTES_ENGINE_EXPRESSION_H_
