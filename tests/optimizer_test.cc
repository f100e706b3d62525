#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "engine_test_util.h"
#include "optimizer/optimizer.h"

namespace insight {
namespace {

// Fixture: Birds (annotated, with Summary-BTree) + Synonyms (data-only,
// indexed join column) + BirdsV2 (replica sharing the classifier).
class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : db(30) {
    for (int i = 1; i <= 30; ++i) {
      db.Annotate(static_cast<Oid>(i), "disease", (i * 7) % 11);
      if (i % 3 == 0) db.Annotate(static_cast<Oid>(i), "behavior", i % 5);
    }
    sbt = *SummaryBTree::Create(&db.storage, &db.pool, db.mgr.get(),
                                "ClassBird1", SummaryBTree::Options{});
    // Synonyms(bird_name, synonym): several rows per bird, indexed.
    synonyms = *db.catalog.CreateTable(
        "Synonyms", Schema({{"bird_name", ValueType::kString},
                            {"synonym", ValueType::kString}}));
    for (int i = 0; i < 30; ++i) {
      for (int s = 0; s < 3; ++s) {
        synonyms
            ->Insert(Tuple({Value::String("bird" + std::to_string(i)),
                            Value::String("syn" + std::to_string(i) + "_" +
                                          std::to_string(s))}))
            .status();
      }
    }
    synonyms->CreateColumnIndex("bird_name").ok();

    ctx = std::make_unique<QueryContext>(&db.catalog, &db.storage, &db.pool);
    ctx->RegisterRelation(db.birds, db.mgr.get()).ok();
    ctx->RegisterRelation(synonyms, nullptr).ok();
    ctx->RegisterSummaryIndex("Birds", "ClassBird1", sbt.get()).ok();
    ctx->Analyze("Birds").ok();
    ctx->Analyze("Synonyms").ok();
  }

  // Plans lowered with and without optimization produce identical row
  // multisets.
  void ExpectSameResults(const LogicalNode& plan) {
    OptimizerOptions off;
    off.enable_rewrite_rules = false;
    off.use_summary_indexes = false;
    off.use_data_indexes = false;
    off.use_baseline_indexes = false;
    Optimizer baseline(ctx.get(), off);
    auto naive_op = baseline.Lower(plan);
    ASSERT_TRUE(naive_op.ok()) << naive_op.status().ToString();
    auto naive_rows = CollectRows(naive_op->get());
    ASSERT_TRUE(naive_rows.ok()) << naive_rows.status().ToString();

    Optimizer optimizer(ctx.get(), OptimizerOptions{});
    auto optimized = optimizer.Optimize(plan.Clone());
    ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
    auto opt_rows = CollectRows(optimized->get());
    ASSERT_TRUE(opt_rows.ok()) << opt_rows.status().ToString();

    auto render = [](const std::vector<Row>& rows) {
      std::vector<std::string> out;
      for (const Row& row : rows) out.push_back(row.data.ToString());
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(render(*naive_rows), render(*opt_rows));
  }

  // Registers an (id INT, name TEXT) relation holding ids 0..rows-1.
  Table* IdTable(const std::string& name, int rows) {
    Schema schema({{"id", ValueType::kInt64}, {"name", ValueType::kString}});
    Table* table = *db.catalog.CreateTable(name, schema);
    for (int i = 0; i < rows; ++i) {
      Tuple row({Value::Int(i), Value::String(std::to_string(i))});
      EXPECT_TRUE(table->Insert(row).ok());
    }
    EXPECT_TRUE(ctx->RegisterRelation(table, nullptr).ok());
    return table;
  }

  TestDb db;
  std::unique_ptr<SummaryBTree> sbt;
  Table* synonyms;
  std::unique_ptr<QueryContext> ctx;
};

TEST_F(OptimizerTest, Rule1CanonicalizesSelectBelowSummarySelect) {
  // sigma above S swaps to S above sigma.
  LogicalPtr plan = LSelect(
      LSummarySelect(LScan("Birds"),
                     Cmp(LabelValue("ClassBird1", "Disease"), CompareOp::kGt,
                         Lit(Value::Int(3)))),
      Like(Col("family"), "family1"));
  Optimizer opt(ctx.get(), OptimizerOptions{});
  auto rewritten = opt.Rewrite(plan->Clone());
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ((*rewritten)->kind, LogicalKind::kSummarySelect);
  EXPECT_EQ((*rewritten)->children[0]->kind, LogicalKind::kSelect);
  ExpectSameResults(*plan);
}

TEST_F(OptimizerTest, Rule2PushesSummarySelectBelowJoin) {
  // S(Birds join Synonyms) with a ClassBird1 predicate: the instance is
  // linked only to Birds, so S pushes onto the Birds side.
  LogicalPtr plan = LSummarySelect(
      LJoin(LScan("Birds"), LScan("Synonyms"),
            Cmp(Col("name"), CompareOp::kEq, Col("bird_name"))),
      Cmp(LabelValue("ClassBird1", "Disease"), CompareOp::kGt,
          Lit(Value::Int(5))));
  Optimizer opt(ctx.get(), OptimizerOptions{});
  auto rewritten = opt.Rewrite(plan->Clone());
  ASSERT_TRUE(rewritten.ok());
  // Top is now the join; S sits on its left (Birds) input.
  EXPECT_EQ((*rewritten)->kind, LogicalKind::kJoin);
  EXPECT_EQ((*rewritten)->children[0]->kind, LogicalKind::kSummarySelect);
  ExpectSameResults(*plan);
}

TEST_F(OptimizerTest, SigmaPushdownThroughJoin) {
  LogicalPtr plan = LSelect(
      LJoin(LScan("Birds"), LScan("Synonyms"),
            Cmp(Col("name"), CompareOp::kEq, Col("bird_name"))),
      Like(Col("synonym"), "syn1_%"));
  Optimizer opt(ctx.get(), OptimizerOptions{});
  auto rewritten = opt.Rewrite(plan->Clone());
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ((*rewritten)->kind, LogicalKind::kJoin);
  EXPECT_EQ((*rewritten)->children[1]->kind, LogicalKind::kSelect);
  ExpectSameResults(*plan);
}

TEST_F(OptimizerTest, Rule8PushesStructuralFilterToBothSides) {
  // Both Birds and BirdsV2 carry ClassBird1... here only Birds does, so a
  // type-structural predicate still pushes to both sides legally.
  ObjectPredicate pred;
  pred.type = SummaryType::kClassifier;
  LogicalPtr plan = LSummaryFilter(
      LJoin(LScan("Birds"), LScan("Synonyms"),
            Cmp(Col("name"), CompareOp::kEq, Col("bird_name"))),
      pred);
  Optimizer opt(ctx.get(), OptimizerOptions{});
  auto rewritten = opt.Rewrite(plan->Clone());
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ((*rewritten)->kind, LogicalKind::kJoin);
  EXPECT_EQ((*rewritten)->children[0]->kind, LogicalKind::kSummaryFilter);
  EXPECT_EQ((*rewritten)->children[1]->kind, LogicalKind::kSummaryFilter);
}

TEST_F(OptimizerTest, Rule7PushesInstanceFilterToOwningSide) {
  ObjectPredicate pred;
  pred.instance_name = "ClassBird1";
  LogicalPtr plan = LSummaryFilter(
      LJoin(LScan("Birds"), LScan("Synonyms"),
            Cmp(Col("name"), CompareOp::kEq, Col("bird_name"))),
      pred);
  Optimizer opt(ctx.get(), OptimizerOptions{});
  auto rewritten = opt.Rewrite(plan->Clone());
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ((*rewritten)->kind, LogicalKind::kJoin);
  EXPECT_EQ((*rewritten)->children[0]->kind, LogicalKind::kSummaryFilter);
  // Synonyms side untouched (instance not linked there).
  EXPECT_EQ((*rewritten)->children[1]->kind, LogicalKind::kScan);
}

TEST_F(OptimizerTest, AccessPathUsesSummaryIndex) {
  LogicalPtr plan = LSummarySelect(
      LScan("Birds"), Cmp(LabelValue("ClassBird1", "Disease"), CompareOp::kEq,
                          Lit(Value::Int(7))));
  Optimizer opt(ctx.get(), OptimizerOptions{});
  auto op = opt.Optimize(plan->Clone());
  ASSERT_TRUE(op.ok());
  EXPECT_NE((*op)->ExplainTree().find("SummaryIndexScan"),
            std::string::npos)
      << (*op)->ExplainTree();
  ExpectSameResults(*plan);
}

TEST_F(OptimizerTest, AccessPathFallsBackToSeqScanWithoutIndex) {
  OptimizerOptions opts;
  opts.use_summary_indexes = false;
  opts.use_baseline_indexes = false;
  LogicalPtr plan = LSummarySelect(
      LScan("Birds"), Cmp(LabelValue("ClassBird1", "Disease"), CompareOp::kEq,
                          Lit(Value::Int(7))));
  Optimizer opt(ctx.get(), opts);
  auto op = opt.Optimize(std::move(plan));
  ASSERT_TRUE(op.ok());
  const std::string tree = (*op)->ExplainTree();
  EXPECT_NE(tree.find("SeqScan"), std::string::npos) << tree;
  EXPECT_NE(tree.find("SummarySelect"), std::string::npos) << tree;
}

// Propagation is priced at the rows that reach the late attach, not at
// the table's rows: behind a selective data conjunct the scan attaches
// about one set and beats a Summary-BTree probe, while the same probe on
// its own still wins (a scan would attach all 30 sets).
TEST_F(OptimizerTest, PropagationPricedAtRowsReachingTheAttach) {
  auto disease_gt_8 = [] {
    return Cmp(LabelValue("ClassBird1", "Disease"), CompareOp::kGt,
               Lit(Value::Int(8)));
  };
  Optimizer opt(ctx.get(), OptimizerOptions{});
  auto alone = opt.Optimize(LSummarySelect(LScan("Birds"), disease_gt_8()));
  ASSERT_TRUE(alone.ok());
  const std::string alone_tree = (*alone)->ExplainTree();
  EXPECT_NE(alone_tree.find("SummaryIndexScan"), std::string::npos)
      << alone_tree;

  LogicalPtr plan = LSummarySelect(
      LSelect(LScan("Birds"),
              Cmp(Col("name"), CompareOp::kEq, Lit(Value::String("bird3")))),
      disease_gt_8());
  auto op = opt.Optimize(plan->Clone());
  ASSERT_TRUE(op.ok());
  const std::string tree = (*op)->ExplainTree();
  EXPECT_EQ(tree.find("SummaryIndexScan"), std::string::npos) << tree;
  const size_t ssel = tree.find("SummarySelect[S]");
  const size_t attach = tree.find("AttachSummaries(Birds, propagate)");
  const size_t select = tree.find("Select[\xcf\x83]");
  const size_t scan = tree.find("SeqScan(Birds)\n");
  ASSERT_NE(scan, std::string::npos) << tree;
  EXPECT_LT(ssel, attach) << tree;
  EXPECT_LT(attach, select) << tree;
  EXPECT_LT(select, scan) << tree;
  ExpectSameResults(*plan);
}

TEST_F(OptimizerTest, ResidualPredicatesStayAboveIndexScan) {
  // Summary sets attach after the data filter, so on the 30-row fixture
  // the scan beats the index (PropagationPricedAtRowsReachingTheAttach);
  // 600 un-annotated rows make the Disease probe selective enough to pay.
  for (int i = 30; i < 630; ++i) {
    ASSERT_TRUE(db.birds
                    ->Insert(Tuple({Value::String("bird" + std::to_string(i)),
                                    Value::String("family" +
                                                  std::to_string(i % 4)),
                                    Value::Double(1.0 + i * 0.25)}))
                    .ok());
  }
  ASSERT_TRUE(ctx->Analyze("Birds").ok());
  LogicalPtr plan = LSummarySelect(
      LSelect(LScan("Birds"), Like(Col("family"), "family1")),
      Cmp(LabelValue("ClassBird1", "Disease"), CompareOp::kGt,
          Lit(Value::Int(8))));
  Optimizer opt(ctx.get(), OptimizerOptions{});
  auto op = opt.Optimize(plan->Clone());
  ASSERT_TRUE(op.ok());
  const std::string tree = (*op)->ExplainTree();
  EXPECT_NE(tree.find("SummaryIndexScan"), std::string::npos) << tree;
  EXPECT_NE(tree.find("Select"), std::string::npos) << tree;
  ExpectSameResults(*plan);
}

TEST_F(OptimizerTest, IndexJoinChosenForIndexedInner) {
  LogicalPtr plan =
      LJoin(LScan("Birds"), LScan("Synonyms"),
            Cmp(Col("name"), CompareOp::kEq, Col("bird_name")));
  Optimizer opt(ctx.get(), OptimizerOptions{});
  auto op = opt.Optimize(plan->Clone());
  ASSERT_TRUE(op.ok());
  EXPECT_NE((*op)->ExplainTree().find("IndexNLJoin"), std::string::npos)
      << (*op)->ExplainTree();
  ExpectSameResults(*plan);
}

TEST_F(OptimizerTest, SortEliminationViaInterestingOrder) {
  // S(disease > 5) then O(disease asc): the Summary-BTree provides the
  // order; the sort disappears (Rules 3-4).
  std::vector<SortKey> keys;
  keys.push_back(SortKey{LabelValue("ClassBird1", "Disease"), false});
  LogicalPtr plan = LSort(
      LSummarySelect(LScan("Birds"),
                     Cmp(LabelValue("ClassBird1", "Disease"), CompareOp::kGt,
                         Lit(Value::Int(5)))),
      std::move(keys));
  Optimizer opt(ctx.get(), OptimizerOptions{});
  auto op = opt.Optimize(plan->Clone());
  ASSERT_TRUE(op.ok());
  const std::string tree = (*op)->ExplainTree();
  EXPECT_EQ(tree.find("Sort"), std::string::npos) << tree;
  // Results still ordered.
  auto rows = CollectRows(op->get());
  ASSERT_TRUE(rows.ok());
  int64_t prev = -1;
  auto key = LabelValue("ClassBird1", "Disease");
  for (const Row& row : *rows) {
    const int64_t v = key->Eval(row)->AsInt();
    EXPECT_GE(v, prev);
    prev = v;
  }
  ExpectSameResults(*plan);
}

TEST_F(OptimizerTest, SortKeptWhenOrderDoesNotMatch) {
  // Descending order cannot come from the ascending index scan.
  std::vector<SortKey> keys;
  keys.push_back(SortKey{LabelValue("ClassBird1", "Disease"), true});
  LogicalPtr plan = LSort(
      LSummarySelect(LScan("Birds"),
                     Cmp(LabelValue("ClassBird1", "Disease"), CompareOp::kGt,
                         Lit(Value::Int(5)))),
      std::move(keys));
  Optimizer opt(ctx.get(), OptimizerOptions{});
  auto op = opt.Optimize(plan->Clone());
  ASSERT_TRUE(op.ok());
  EXPECT_NE((*op)->ExplainTree().find("SummarySort"), std::string::npos);
}

TEST_F(OptimizerTest, Rule5OrderSurvivesJoinWithForeignInstance) {
  // Index-ordered Birds joined with Synonyms (no ClassBird1 there):
  // order survives the join, so the sort is still eliminated (Rule 5).
  std::vector<SortKey> keys;
  keys.push_back(SortKey{LabelValue("ClassBird1", "Disease"), false});
  LogicalPtr plan = LSort(
      LJoin(LSummarySelect(LScan("Birds"),
                           Cmp(LabelValue("ClassBird1", "Disease"),
                               CompareOp::kGt, Lit(Value::Int(5)))),
            LScan("Synonyms"),
            Cmp(Col("name"), CompareOp::kEq, Col("bird_name"))),
      std::move(keys));
  Optimizer opt(ctx.get(), OptimizerOptions{});
  auto op = opt.Optimize(plan->Clone());
  ASSERT_TRUE(op.ok());
  const std::string tree = (*op)->ExplainTree();
  EXPECT_EQ(tree.find("SummarySort"), std::string::npos) << tree;
  ExpectSameResults(*plan);
}

TEST_F(OptimizerTest, Rule11SwitchesJoinOrder) {
  // Join_c(J_p(Birds, BirdsV2-like), T): build with Synonyms as T and a
  // merged-form J between Birds and a second annotated table.
  // Simplified shape: data join on top of a summary join where the data
  // join's columns avoid the summary join's right side.
  SummaryJoinPredicate sjp;
  sjp.left_expr = LabelValue("ClassBird1", "Disease");
  sjp.op = CompareOp::kEq;
  sjp.right_expr = LabelValue("ClassBird1", "Disease");
  LogicalPtr plan = LJoin(
      LSummaryJoin(LScan("Birds"), LScan("Birds"), sjp.Clone()),
      LScan("Synonyms"),
      Cmp(Col("name"), CompareOp::kEq, Col("bird_name")));
  Optimizer opt(ctx.get(), OptimizerOptions{});
  auto rewritten = opt.Rewrite(plan->Clone());
  ASSERT_TRUE(rewritten.ok());
  // Rule 11 cannot fire here: p's instance (ClassBird1) IS linked to the
  // right side of the data join? Synonyms has no instances, and c's
  // columns (name, bird_name) resolve in Birds+Synonyms without S... but
  // S is the second Birds scan which also has name. The rewrite is legal
  // and should produce SummaryJoin on top.
  EXPECT_EQ((*rewritten)->kind, LogicalKind::kSummaryJoin)
      << (*rewritten)->Explain();
}

TEST_F(OptimizerTest, EstimatesReflectSelectivity) {
  Optimizer opt(ctx.get(), OptimizerOptions{});
  LogicalPtr scan = LScan("Birds");
  auto scan_est = opt.Estimate(*scan);
  ASSERT_TRUE(scan_est.ok());
  EXPECT_DOUBLE_EQ(scan_est->rows, 30.0);

  // Equality on a label: far fewer rows than the scan.
  LogicalPtr select = LSummarySelect(
      LScan("Birds"), Cmp(LabelValue("ClassBird1", "Disease"), CompareOp::kEq,
                          Lit(Value::Int(7))));
  auto sel_est = opt.Estimate(*select);
  ASSERT_TRUE(sel_est.ok());
  EXPECT_LT(sel_est->rows, 12.0);
  EXPECT_GT(sel_est->rows, 0.0);

  // An impossible range estimates the one-row floor, never zero.
  LogicalPtr none = LSummarySelect(
      LScan("Birds"), Cmp(LabelValue("ClassBird1", "Disease"), CompareOp::kGt,
                          Lit(Value::Int(1000))));
  auto none_est = opt.Estimate(*none);
  ASSERT_TRUE(none_est.ok());
  EXPECT_DOUBLE_EQ(none_est->rows, 1.0);
}

// `column <op> v` over an integer column.
ExprPtr IntPred(const std::string& column, CompareOp op, int64_t v) {
  return Cmp(Col(column), op, Lit(Value::Int(v)));
}

TEST_F(OptimizerTest, EstimatesReadBoundColumnsAndNeverDropBelowOneRow) {
  // A(id, name) with 2,000 rows, indexed on id, and B(id, name) with 500.
  ASSERT_TRUE(IdTable("A", 2000)->CreateColumnIndex("id").ok());
  IdTable("B", 500);
  ASSERT_TRUE(ctx->Analyze("A").ok());
  ASSERT_TRUE(ctx->Analyze("B").ok());
  Optimizer opt(ctx.get(), OptimizerOptions{});
  auto rows = [&](LogicalPtr plan) {
    auto est = opt.Estimate(*plan);
    EXPECT_TRUE(est.ok()) << est.status().ToString();
    return est.ok() ? est->rows : -1.0;
  };
  const CompareOp lt = CompareOp::kLt;
  const CompareOp gt = CompareOp::kGt;

  // `x.id` under `A x` estimates exactly like `id` under a bare `A`.
  const double bare = rows(LSelect(LScan("A"), IntPred("id", lt, 100)));
  EXPECT_NEAR(bare, 100, 10);
  const double qualified =
      rows(LSelect(LScanAs("A", "x"), IntPred("x.id", lt, 100)));
  EXPECT_DOUBLE_EQ(qualified, bare);
  const double point =
      rows(LSelect(LScanAs("A", "x"), IntPred("x.id", CompareOp::kEq, 7)));
  EXPECT_DOUBLE_EQ(point, 1);
  // A literal on the left reads the same statistics: `100 > id` is
  // `id < 100`, `7 = x.id` is `x.id = 7`.
  EXPECT_DOUBLE_EQ(rows(LSelect(LScan("A"), Cmp(Lit(Value::Int(100)), gt,
                                                Col("id")))),
                   bare);
  EXPECT_DOUBLE_EQ(rows(LSelect(LScanAs("A", "x"),
                                Cmp(Lit(Value::Int(7)), CompareOp::kEq,
                                    Col("x.id")))),
                   point);
  EXPECT_DOUBLE_EQ(rows(LSelect(LScan("A"), Cmp(Lit(Value::Null()),
                                                CompareOp::kEq, Col("id")))),
                   rows(LSelect(LScan("A"), Cmp(Col("id"), CompareOp::kEq,
                                                Lit(Value::Null())))));

  // The access path emits the alias's names and finds the one row.
  auto op = opt.Optimize(
      LSelect(LScanAs("A", "x"), IntPred("x.id", CompareOp::kEq, 7)));
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  EXPECT_EQ((*op)->schema().column(0).name, "x.id");
  auto hits = CollectRows(op->get());
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(hits->size(), 1u);

  // Equi-join size from the keys' distinct counts: 2000 * 500 / 2000.
  ExprPtr keys = Cmp(Col("x.id"), CompareOp::kEq, Col("y.id"));
  const double join =
      rows(LJoin(LScanAs("A", "x"), LScanAs("B", "y"), keys->Clone()));
  EXPECT_GE(join, 250);
  EXPECT_LE(join, 1000);

  // Ranges whose selectivity product underflows still estimate one row,
  // and so does a join with an empty side.
  ExprPtr low = And(IntPred("A.id", lt, 100), IntPred("A.id", gt, 50));
  ExprPtr high = And(IntPred("A.id", lt, 60), IntPred("A.id", gt, 55));
  ExprPtr narrow = And(std::move(low), std::move(high));
  EXPECT_GE(rows(LSelect(LScanAs("A", "A"), std::move(narrow))), 1.0);
  LogicalPtr none = LSelect(LScanAs("A", "x"), IntPred("x.id", lt, 0));
  EXPECT_GE(rows(LJoin(std::move(none), LScanAs("B", "y"), keys->Clone())),
            1.0);
}

TEST_F(OptimizerTest, EstimateJoinUsesDistinctCounts) {
  Optimizer opt(ctx.get(), OptimizerOptions{});
  LogicalPtr join =
      LJoin(LScan("Birds"), LScan("Synonyms"),
            Cmp(Col("name"), CompareOp::kEq, Col("bird_name")));
  auto est = opt.Estimate(*join);
  ASSERT_TRUE(est.ok());
  // 30 birds x 90 synonyms / ndv(30) = 90.
  EXPECT_NEAR(est->rows, 90.0, 20.0);
}

TEST_F(OptimizerTest, AggregationAndDistinctLowering) {
  std::vector<AggregateSpec> aggs;
  aggs.push_back(AggregateSpec{AggregateSpec::Kind::kCount, nullptr, "cnt"});
  LogicalPtr plan =
      LAggregate(LScan("Birds"), {"family"}, std::move(aggs));
  Optimizer opt(ctx.get(), OptimizerOptions{});
  auto op = opt.Optimize(plan->Clone());
  ASSERT_TRUE(op.ok());
  auto rows = CollectRows(op->get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);
}

TEST_F(OptimizerTest, HistogramEstimates) {
  std::vector<int64_t> values;
  for (int i = 0; i < 1000; ++i) values.push_back(i % 100);
  EquiWidthHistogram h = EquiWidthHistogram::Build(values);
  EXPECT_EQ(h.total(), 1000u);
  // Range [0, 49] holds ~half the values.
  EXPECT_NEAR(h.EstimateRange(0, 49), 500.0, 60.0);
  EXPECT_NEAR(h.EstimateRange(0, 99), 1000.0, 1.0);
  EXPECT_EQ(h.EstimateRange(200, 300), 0.0);
  // Equality ~ total/ndv = 10.
  EXPECT_NEAR(h.EstimateEquals(50, 100), 10.0, 8.0);
}

TEST_F(OptimizerTest, EmptyHistogram) {
  EquiWidthHistogram h;
  EXPECT_EQ(h.EstimateRange(0, 100), 0.0);
  EXPECT_EQ(h.EstimateEquals(5, 10), 0.0);
}

}  // namespace
}  // namespace insight
