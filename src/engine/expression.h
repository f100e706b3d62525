#ifndef INSIGHTNOTES_ENGINE_EXPRESSION_H_
#define INSIGHTNOTES_ENGINE_EXPRESSION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/string_util.h"
#include "engine/row.h"
#include "types/schema.h"

namespace insight {

/// Comparison operators for predicates.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
const char* CompareOpToString(CompareOp op);
bool EvalCompare(CompareOp op, int cmp);
/// The operator with its operands swapped: `a < b` is `b > a`.
CompareOp FlipOp(CompareOp op);

/// The SQL binder's scope: resolves every name an expression carries
/// (see Expression::Bind).
class NameBinder {
 public:
  /// Column reference -> the canonical `rel.col` it denotes.
  virtual Result<std::string> Column(const std::string& name) const = 0;
  /// `$` qualifier -> the relation it names.
  virtual Result<std::string> Relation(const std::string& name) const = 0;
};

/// Scalar expression over a Row: data columns, literals, comparisons,
/// boolean connectives, LIKE, and the paper's summary manipulation
/// functions (Section 3.1). Column references read the row position
/// that Resolve() bound; Clone() copies the binding along.
class Expression {
 public:
  virtual ~Expression() = default;

  virtual Result<Value> Eval(const Row& row) const = 0;
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

  /// Rewrites every column reference and `$` qualifier in place through
  /// the binder; the first name it rejects fails the whole expression.
  virtual Status Bind(const NameBinder&) { return Status::OK(); }

  /// Binds every column reference to its position in `input`, the schema
  /// of the rows Eval() will read; an unknown name is NotFound. Operators
  /// resolve the expressions they own when they open.
  virtual Status Resolve(const Schema&) { return Status::OK(); }

  /// True when the expression reads the row's summary set (any summary
  /// function, `$.getSize()` included): it must run where the set is
  /// attached.
  virtual bool IsSummaryBased() const { return false; }

  /// Evaluates as a predicate; non-boolean truthiness is an error,
  /// NULL is false (SQL semantics). Kleene NULLs flow through AND/OR/NOT
  /// inside Eval() and collapse to false only here, at the filter
  /// decision.
  Result<bool> EvalBool(const Row& row) const;
};

using ExprPtr = std::unique_ptr<Expression>;

/// Constant value.
class LiteralExpr : public Expression {
 public:
  explicit LiteralExpr(Value value) : value_(std::move(value)) {}
  Result<Value> Eval(const Row&) const override { return value_; }
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_unique<LiteralExpr>(value_);
  }
  const Value& value() const { return value_; }

 private:
  Value value_;
};

/// Named data column; Eval() reads the position Resolve() bound.
class ColumnExpr : public Expression {
 public:
  explicit ColumnExpr(std::string name) : name_(std::move(name)) {}
  Result<Value> Eval(const Row& row) const override;
  std::string ToString() const override { return name_; }
  ExprPtr Clone() const override {
    return std::make_unique<ColumnExpr>(*this);
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    out->push_back(name_);
  }
  Status Bind(const NameBinder& binder) override {
    INSIGHT_ASSIGN_OR_RETURN(name_, binder.Column(name_));
    return Status::OK();
  }
  Status Resolve(const Schema& input) override;
  const std::string& name() const { return name_; }

 private:
  static constexpr size_t kUnresolved = static_cast<size_t>(-1);

  std::string name_;
  size_t pos_ = kUnresolved;
};

/// left <op> right.
class CompareExpr : public Expression {
 public:
  CompareExpr(ExprPtr left, CompareOp op, ExprPtr right)
      : left_(std::move(left)), op_(op), right_(std::move(right)) {}
  Result<Value> Eval(const Row& row) const override;
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
  bool IsSummaryBased() const override {
    return left_->IsSummaryBased() || right_->IsSummaryBased();
  }
  Status Bind(const NameBinder& binder) override {
    INSIGHT_RETURN_NOT_OK(left_->Bind(binder));
    return right_->Bind(binder);
  }
  Status Resolve(const Schema& input) override {
    INSIGHT_RETURN_NOT_OK(left_->Resolve(input));
    return right_->Resolve(input);
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
  Result<Value> Eval(const Row& row) const override;
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
  bool IsSummaryBased() const override {
    return left_->IsSummaryBased() || right_->IsSummaryBased();
  }
  Status Bind(const NameBinder& binder) override {
    INSIGHT_RETURN_NOT_OK(left_->Bind(binder));
    return right_->Bind(binder);
  }
  Status Resolve(const Schema& input) override {
    INSIGHT_RETURN_NOT_OK(left_->Resolve(input));
    return right_->Resolve(input);
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
  Result<Value> Eval(const Row& row) const override;
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
  bool IsSummaryBased() const override { return operand_->IsSummaryBased(); }
  Status Bind(const NameBinder& binder) override {
    return operand_->Bind(binder);
  }
  Status Resolve(const Schema& input) override {
    return operand_->Resolve(input);
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
  Result<Value> Eval(const Row& row) const override;
  std::string ToString() const override {
    return operand_->ToString() + " LIKE '" + pattern_ + "'";
  }
  ExprPtr Clone() const override {
    return std::make_unique<LikeExpr>(operand_->Clone(), pattern_);
  }
  void CollectColumns(std::vector<std::string>* out) const override {
    operand_->CollectColumns(out);
  }
  void CollectInstances(std::vector<std::string>* out) const override {
    operand_->CollectInstances(out);
  }
  bool IsSummaryBased() const override { return operand_->IsSummaryBased(); }
  Status Bind(const NameBinder& binder) override {
    return operand_->Bind(binder);
  }
  Status Resolve(const Schema& input) override {
    return operand_->Resolve(input);
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
  /// kContainsSingle / kContainsUnion. Keywords match case-insensitively,
  /// so they are folded to lower case once, here, not per evaluation.
  SummaryFuncExpr(SummaryFuncKind kind, std::string instance,
                  std::vector<std::string> keywords)
      : kind_(kind),
        instance_(std::move(instance)),
        keywords_(std::move(keywords)) {
    for (std::string& keyword : keywords_) keyword = ToLower(keyword);
  }

  /// Positional functions (kLabelName, kLabelValueAt, kSnippetAt,
  /// kGroupSizeAt, kRepresentative).
  SummaryFuncExpr(SummaryFuncKind kind, std::string instance, size_t index)
      : kind_(kind), instance_(std::move(instance)), index_(index) {}

  Result<Value> Eval(const Row& row) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_unique<SummaryFuncExpr>(*this);
  }
  void CollectInstances(std::vector<std::string>* out) const override {
    if (!instance_.empty()) out->push_back(instance_);
  }
  bool IsSummaryBased() const override { return true; }
  Status Bind(const NameBinder& binder) override {
    if (qualifier_.empty()) return Status::OK();
    INSIGHT_ASSIGN_OR_RETURN(qualifier_, binder.Relation(qualifier_));
    return Status::OK();
  }

  SummaryFuncKind kind() const { return kind_; }
  const std::string& instance() const { return instance_; }
  const std::string& label() const { return label_; }
  const std::vector<std::string>& keywords() const { return keywords_; }
  size_t index() const { return index_; }

  /// Table-alias qualifier ("v1" in `v1.$.getSummaryObject(...)`). Only
  /// meaningful during binding: the SQL binder checks it names a FROM
  /// entry and routes predicates whose two sides carry different
  /// qualifiers into summary-join predicates.
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
