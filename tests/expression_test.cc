#include <gtest/gtest.h>

#include "engine/expression.h"

namespace insight {
namespace {

Schema TestSchema() {
  return Schema({{"name", ValueType::kString},
                 {"count", ValueType::kInt64},
                 {"weight", ValueType::kDouble}});
}

Row TestRow() {
  Row row;
  row.data = Tuple({Value::String("Swan Goose"), Value::Int(7),
                    Value::Double(3.5)});
  SummaryObject cls;
  cls.instance_id = 1;
  cls.type = SummaryType::kClassifier;
  cls.instance_name = "ClassBird1";
  cls.reps = {{"Disease", 8, 0}, {"Behavior", 33, 0}};
  cls.elements = {std::vector<ElementRef>(8, {1, 1}),
                  std::vector<ElementRef>(33, {2, 1})};
  SummaryObject snip;
  snip.instance_id = 2;
  snip.type = SummaryType::kSnippet;
  snip.instance_name = "TextSummary1";
  snip.reps = {{"Experiment about swan hormone", 0, 10},
               {"Wikipedia entry", 0, 11}};
  snip.elements = {{{10, 1}}, {{11, 1}}};
  row.summaries = SummarySet({cls, snip});
  return row;
}

// `expr` with its columns resolved against TestSchema(), as the operator
// that owns an expression resolves it when it opens.
ExprPtr Resolved(ExprPtr expr) {
  EXPECT_TRUE(expr->Resolve(TestSchema()).ok());
  return expr;
}

TEST(ExpressionTest, ColumnAndLiteral) {
  const Row row = TestRow();
  EXPECT_EQ(Resolved(Col("name"))->Eval(row)->AsString(), "Swan Goose");
  EXPECT_EQ(Resolved(Col("COUNT"))->Eval(row)->AsInt(), 7);
  EXPECT_EQ(Lit(Value::Int(3))->Eval(row)->AsInt(), 3);
}

TEST(ExpressionTest, Comparisons) {
  const Row row = TestRow();
  EXPECT_TRUE(*Resolved(Cmp(Col("count"), CompareOp::kEq, Lit(Value::Int(7))))
                   ->EvalBool(row));
  EXPECT_TRUE(
      *Resolved(Cmp(Col("count"), CompareOp::kGt, Lit(Value::Double(6.5))))
           ->EvalBool(row));
  EXPECT_FALSE(*Resolved(Cmp(Col("count"), CompareOp::kLt, Lit(Value::Int(7))))
                    ->EvalBool(row));
  EXPECT_TRUE(
      *Resolved(Cmp(Col("name"), CompareOp::kNe, Lit(Value::String("X"))))
           ->EvalBool(row));
}

TEST(ExpressionTest, NullComparisonIsFalse) {
  Row row = TestRow();
  row.data.at(1) = Value::Null();
  EXPECT_FALSE(
      *Resolved(Cmp(Col("count"), CompareOp::kEq, Lit(Value::Null())))
           ->EvalBool(row));
  EXPECT_FALSE(*Resolved(Cmp(Col("count"), CompareOp::kNe, Lit(Value::Int(1))))
                    ->EvalBool(row));
}

TEST(ExpressionTest, LogicalShortCircuit) {
  const Row row = TestRow();
  auto t = [&] {
    return Cmp(Col("count"), CompareOp::kEq, Lit(Value::Int(7)));
  };
  auto f = [&] {
    return Cmp(Col("count"), CompareOp::kEq, Lit(Value::Int(0)));
  };
  EXPECT_TRUE(*Resolved(And(t(), t()))->EvalBool(row));
  EXPECT_FALSE(*Resolved(And(t(), f()))->EvalBool(row));
  EXPECT_TRUE(*Resolved(Or(f(), t()))->EvalBool(row));
  EXPECT_FALSE(*Resolved(Or(f(), f()))->EvalBool(row));
  EXPECT_TRUE(*Resolved(Not(f()))->EvalBool(row));
}

TEST(ExpressionTest, LikeOnStrings) {
  const Row row = TestRow();
  EXPECT_TRUE(*Resolved(Like(Col("name"), "Swan%"))->EvalBool(row));
  EXPECT_FALSE(*Resolved(Like(Col("name"), "Goose%"))->EvalBool(row));
  EXPECT_TRUE(Resolved(Like(Col("count"), "7%"))->EvalBool(row)
                  .status().IsTypeError());
}

TEST(ExpressionTest, SummaryFunctions) {
  const Row row = TestRow();
  EXPECT_EQ(LabelValue("ClassBird1", "Disease")->Eval(row)->AsInt(), 8);
  EXPECT_EQ(LabelValue("classbird1", "behavior")->Eval(row)->AsInt(), 33);
  // Missing instance -> NULL -> predicate false.
  EXPECT_TRUE(LabelValue("Nope", "Disease")->Eval(row)->is_null());
  EXPECT_FALSE(*Cmp(LabelValue("Nope", "Disease"), CompareOp::kGt,
                    Lit(Value::Int(0)))
                    ->EvalBool(row));
  // Missing label is an error (the instance schema is known).
  EXPECT_FALSE(LabelValue("ClassBird1", "Provenance")->Eval(row).ok());

  EXPECT_TRUE(*ContainsSingle("TextSummary1", {"swan", "hormone"})
                   ->EvalBool(row));
  EXPECT_FALSE(*ContainsSingle("TextSummary1", {"wikipedia", "hormone"})
                    ->EvalBool(row));
  EXPECT_TRUE(*ContainsUnion("TextSummary1", {"wikipedia", "hormone"})
                   ->EvalBool(row));

  SummaryFuncExpr set_size;
  EXPECT_EQ(set_size.Eval(row)->AsInt(), 2);
  SummaryFuncExpr obj_size(SummaryFuncKind::kObjectSize, "ClassBird1");
  EXPECT_EQ(obj_size.Eval(row)->AsInt(), 2);
  SummaryFuncExpr has(SummaryFuncKind::kHasObject, "TextSummary1");
  EXPECT_TRUE(has.Eval(row)->AsBool());
}

TEST(ExpressionTest, IsSummaryBasedIntrospection) {
  EXPECT_FALSE(Cmp(Col("a"), CompareOp::kEq, Lit(Value::Int(1)))
                   ->IsSummaryBased());
  EXPECT_TRUE(Cmp(LabelValue("C", "L"), CompareOp::kEq, Lit(Value::Int(1)))
                  ->IsSummaryBased());
  auto mixed = And(Cmp(Col("a"), CompareOp::kEq, Lit(Value::Int(1))),
                   ContainsUnion("T", {"x"}));
  EXPECT_TRUE(mixed->IsSummaryBased());
  std::vector<std::string> instances;
  mixed->CollectInstances(&instances);
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0], "T");
  std::vector<std::string> columns;
  mixed->CollectColumns(&columns);
  ASSERT_EQ(columns.size(), 1u);
  EXPECT_EQ(columns[0], "a");
}

TEST(ExpressionTest, CloneProducesEqualBehavior) {
  const Row row = TestRow();
  auto orig = Resolved(And(Cmp(LabelValue("ClassBird1", "Disease"),
                               CompareOp::kGt, Lit(Value::Int(5))),
                           Like(Col("name"), "Swan%")));
  auto copy = orig->Clone();
  EXPECT_EQ(*orig->EvalBool(row), *copy->EvalBool(row));
  EXPECT_EQ(orig->ToString(), copy->ToString());
}

TEST(ExpressionTest, ResolveRejectsAnUnknownColumn) {
  auto expr = And(Cmp(Col("count"), CompareOp::kGt, Lit(Value::Int(1))),
                  Not(Like(Col("nope"), "x%")));
  EXPECT_TRUE(expr->Resolve(TestSchema()).IsNotFound());
  EXPECT_TRUE(Col("nope")->Resolve(TestSchema()).IsNotFound());
}

bool IsInternal(const Status& status) {
  return status.code() == StatusCode::kInternal;
}

TEST(ExpressionTest, UnresolvedColumnIsAnInternalError) {
  const Row row = TestRow();
  EXPECT_TRUE(IsInternal(Col("name")->Eval(row).status()));
  EXPECT_TRUE(IsInternal(
      Cmp(Col("count"), CompareOp::kEq, Lit(Value::Int(7)))
          ->EvalBool(row)
          .status()));
  // A failed Resolve leaves no earlier position behind to read.
  auto col = Resolved(Col("count"));
  EXPECT_TRUE(col->Resolve(Schema({{"other", ValueType::kInt64}}))
                  .IsNotFound());
  EXPECT_TRUE(IsInternal(col->Eval(row).status()));
  // A position past the row's end is caught, not read.
  Row narrow;
  narrow.data = Tuple({Value::String("Swan Goose")});
  EXPECT_TRUE(IsInternal(Resolved(Col("weight"))->Eval(narrow).status()));
}

TEST(ExpressionTest, CloneKeepsTheResolvedPosition) {
  const Row row = TestRow();
  auto copy = Resolved(Cmp(Col("count"), CompareOp::kEq, Lit(Value::Int(7))))
                  ->Clone();
  EXPECT_TRUE(*copy->EvalBool(row));
}

TEST(ExpressionTest, ReResolvingReadsTheNewPosition) {
  auto col = Resolved(Col("count"));
  EXPECT_EQ(col->Eval(TestRow())->AsInt(), 7);
  // The same columns in another order: "count" now sits first.
  const Schema permuted({{"count", ValueType::kInt64},
                         {"weight", ValueType::kDouble},
                         {"name", ValueType::kString}});
  ASSERT_TRUE(col->Resolve(permuted).ok());
  Row row;
  row.data = Tuple({Value::Int(11), Value::Double(3.5),
                    Value::String("Swan Goose")});
  EXPECT_EQ(col->Eval(row)->AsInt(), 11);
}

TEST(MatchIndexablePredicateTest, MatchesTargetShapes) {
  auto expr = Cmp(LabelValue("ClassBird1", "Disease"), CompareOp::kGt,
                  Lit(Value::Int(5)));
  auto match = MatchIndexablePredicate(expr.get());
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->instance, "ClassBird1");
  EXPECT_EQ(match->label, "Disease");
  EXPECT_EQ(match->op, CompareOp::kGt);
  EXPECT_EQ(match->constant, 5);

  // Flipped: 5 < labelValue  ==  labelValue > 5.
  auto flipped = Cmp(Lit(Value::Int(5)), CompareOp::kLt,
                     LabelValue("ClassBird1", "Disease"));
  match = MatchIndexablePredicate(flipped.get());
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->op, CompareOp::kGt);
  EXPECT_EQ(match->constant, 5);
}

TEST(MatchIndexablePredicateTest, RejectsNonTargetShapes) {
  EXPECT_FALSE(MatchIndexablePredicate(
                   Cmp(Col("a"), CompareOp::kEq, Lit(Value::Int(1))).get())
                   .has_value());
  // <> is not index-usable.
  EXPECT_FALSE(MatchIndexablePredicate(
                   Cmp(LabelValue("C", "L"), CompareOp::kNe,
                       Lit(Value::Int(1)))
                       .get())
                   .has_value());
  // Non-integer constant.
  EXPECT_FALSE(MatchIndexablePredicate(
                   Cmp(LabelValue("C", "L"), CompareOp::kEq,
                       Lit(Value::String("x")))
                       .get())
                   .has_value());
  // ContainsUnion is not a label-value predicate.
  EXPECT_FALSE(MatchIndexablePredicate(
                   Cmp(ContainsUnion("T", {"x"}), CompareOp::kEq,
                       Lit(Value::Bool(true)))
                       .get())
                   .has_value());
}

}  // namespace
}  // namespace insight
