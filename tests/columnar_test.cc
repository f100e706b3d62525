// Batch filter path: SelectOp and SummarySelectOp, pulled at an odd
// batch capacity, against the row-at-a-time Expression::EvalBool
// reference (including NaN / -0.0, NULL and summary-function
// three-valued-logic edge cases, where the row and batch evaluators
// historically diverged), and LIMIT pushdown into parallel gathers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "engine_test_util.h"
#include "engine/execution_context.h"
#include "engine/parallel_ops.h"
#include "obs/metrics.h"

namespace insight {
namespace {

// ---------- Row-at-a-time vs batch filter equivalence ----------

// Rows as comparable strings: OID, data and the propagated summary set.
std::multiset<std::string> Canon(const std::vector<Row>& rows) {
  std::multiset<std::string> out;
  for (const Row& row : rows) {
    out.insert(std::to_string(row.oid) + " " + row.data.ToString() + " " +
               row.summaries.ToString());
  }
  return out;
}

Result<std::vector<Row>> CollectBatched(PhysicalOperator* op) {
  INSIGHT_RETURN_NOT_OK(op->Open());
  std::vector<Row> out;
  RowBatch batch;
  batch.set_capacity(7);  // Odd capacity: exercises batch boundaries.
  while (true) {
    INSIGHT_ASSIGN_OR_RETURN(bool has, op->NextBatch(&batch));
    if (!has) break;
    for (Row& row : batch) out.push_back(std::move(row));
  }
  op->Close();
  return out;
}

// Row-at-a-time reference: every scanned row through Expression::EvalBool,
// outside any filter operator.
Result<std::vector<Row>> FilterOneAtATime(PhysicalOperator* scan,
                                          const Expression& pred) {
  INSIGHT_ASSIGN_OR_RETURN(std::vector<Row> rows, CollectRows(scan));
  std::vector<Row> out;
  for (Row& row : rows) {
    INSIGHT_ASSIGN_OR_RETURN(bool pass, pred.EvalBool(row, scan->schema()));
    if (pass) out.push_back(std::move(row));
  }
  return out;
}

// Drives the same predicate through the row reference and through both
// filter operators (SelectOp, SummarySelectOp) over a fresh scan each
// time and expects identical result multisets, summary sets included.
void ExpectAllPathsAgree(TestDb* db, const std::function<ExprPtr()>& pred,
                         size_t expected_rows = SIZE_MAX,
                         bool propagate = false) {
  auto row_path = FilterOneAtATime(db->Scan(propagate).get(), *pred());
  ASSERT_TRUE(row_path.ok()) << row_path.status().ToString();
  if (expected_rows != SIZE_MAX) {
    EXPECT_EQ(row_path->size(), expected_rows);
  }
  SelectOp select(db->Scan(propagate), pred());
  auto select_path = CollectBatched(&select);
  ASSERT_TRUE(select_path.ok()) << select_path.status().ToString();
  EXPECT_EQ(Canon(*row_path), Canon(*select_path));
  SummarySelectOp summary_select(db->Scan(propagate), pred());
  auto summary_path = CollectBatched(&summary_select);
  ASSERT_TRUE(summary_path.ok()) << summary_path.status().ToString();
  EXPECT_EQ(Canon(*row_path), Canon(*summary_path));
}

// Annotated rows for summary predicates: two disease notes on oid 1, one
// behavior note on oid 5, and a long "wikipedia hormone" note on oids 3
// and 9 that TextSummary1 keeps as a snippet. Every annotated row gets a
// ClassBird1 object; the other rows carry none.
void AnnotateForSummaryPredicates(TestDb* db) {
  db->Annotate(1, "disease", 2);
  db->Annotate(5, "behavior", 1);
  const std::string longtext =
      "Wikipedia hormone study one. Wikipedia hormone study two. "
      "Wikipedia hormone study three. Wikipedia hormone study four.";
  for (Oid oid : {Oid{3}, Oid{9}}) {
    ASSERT_TRUE(db->mgr->AddAnnotation(longtext, {{oid, CellMask(0)}}).ok());
  }
}

TEST(ColumnarEquivalenceTest, FilteredScanAgreesAcrossPaths) {
  TestDb db(50);
  AnnotateForSummaryPredicates(&db);
  ExpectAllPathsAgree(&db, [] {
    return Cmp(Col("weight"), CompareOp::kLt, Lit(Value::Double(6.0)));
  });
  ExpectAllPathsAgree(&db, [] {
    return Cmp(Col("family"), CompareOp::kEq,
               Lit(Value::String("family2")));
  });
  ExpectAllPathsAgree(&db, [] {
    return And(Cmp(Col("weight"), CompareOp::kGe, Lit(Value::Double(3.0))),
               Cmp(Col("family"), CompareOp::kNe,
                   Lit(Value::String("family0"))));
  });
  // Two rows carry the keywords; only oid 3 (weight 1.5) also passes the
  // data predicate. Rows without a snippet object evaluate to false, not
  // NULL.
  ExpectAllPathsAgree(
      &db,
      [] {
        return And(ContainsUnion("TextSummary1", {"wikipedia", "hormone"}),
                   Cmp(Col("weight"), CompareOp::kLt,
                       Lit(Value::Double(2.0))));
      },
      1, /*propagate=*/true);
}

TEST(ColumnarEquivalenceTest, NaNAndNegativeZeroAgreeAcrossPaths) {
  StorageManager storage(StorageManager::Backend::kMemory);
  BufferPool pool(&storage, 256);
  Catalog catalog(&storage, &pool);
  Table* table = *catalog.CreateTable(
      "Doubles", Schema({{"x", ValueType::kDouble}}));
  const double values[] = {std::nan(""), -0.0, 0.0, 1.0, -1.0,
                           std::nan("")};
  for (double v : values) {
    ASSERT_TRUE(table->Insert(Tuple({Value::Double(v)})).ok());
  }
  for (CompareOp op : {CompareOp::kGe, CompareOp::kLt, CompareOp::kEq}) {
    SeqScanOp scan(table, nullptr, false);
    auto row_path =
        FilterOneAtATime(&scan, *Cmp(Col("x"), op, Lit(Value::Double(0.0))));
    ASSERT_TRUE(row_path.ok());
    SelectOp plan(std::make_unique<SeqScanOp>(table, nullptr, false),
                  Cmp(Col("x"), op, Lit(Value::Double(0.0))));
    auto batch_path = CollectBatched(&plan);
    ASSERT_TRUE(batch_path.ok());
    EXPECT_EQ(Canon(*row_path), Canon(*batch_path))
        << "op " << static_cast<int>(op);
  }
  // Value::Compare places NaN above every real and equal to itself, and
  // treats -0.0 == 0.0: "x >= 0.0" keeps NaN, both zeros, and 1.0.
  auto plan = std::make_unique<SelectOp>(
      std::make_unique<SeqScanOp>(table, nullptr, false),
      Cmp(Col("x"), CompareOp::kGe, Lit(Value::Double(0.0))));
  auto rows = CollectBatched(plan.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
}

// ---------- Three-valued logic ----------

TEST(ThreeValuedLogicTest, NotOfNullComparisonFiltersEverything) {
  // "NOT (name = NULL)" is NOT NULL = NULL, which the filter rejects.
  // The historical bug collapsed the inner NULL to false at the leaf,
  // turning the NOT into TRUE and letting every row through.
  TestDb db(10);
  AnnotateForSummaryPredicates(&db);
  ExpectAllPathsAgree(
      &db,
      [] {
        return Not(Cmp(Col("name"), CompareOp::kEq, Lit(Value::Null())));
      },
      0);
  // Summary functions follow the same rule: no row has the instance, so
  // LabelValue is NULL everywhere and its negation still rejects all.
  ExpectAllPathsAgree(
      &db,
      [] {
        return Not(Cmp(LabelValue("NoSuchInstance", "Disease"),
                       CompareOp::kEq, Lit(Value::Int(1))));
      },
      0, /*propagate=*/true);
  // A real instance mixes NULL (unannotated rows) with decided verdicts:
  // the annotated rows under two Disease notes (oids 3, 5, 9) survive.
  ExpectAllPathsAgree(
      &db,
      [] {
        return Not(Cmp(LabelValue("ClassBird1", "Disease"), CompareOp::kGe,
                       Lit(Value::Int(2))));
      },
      3, /*propagate=*/true);
}

TEST(ThreeValuedLogicTest, NullUnderOrTruePasses) {
  // "(name = NULL) OR true" is true under Kleene logic: the NULL must
  // not poison the disjunction.
  TestDb db(10);
  AnnotateForSummaryPredicates(&db);
  ExpectAllPathsAgree(
      &db,
      [] {
        return Or(Cmp(Col("name"), CompareOp::kEq, Lit(Value::Null())),
                  Lit(Value::Bool(true)));
      },
      10);
  ExpectAllPathsAgree(
      &db,
      [] {
        return Or(Cmp(LabelValue("NoSuchInstance", "Disease"),
                      CompareOp::kEq, Lit(Value::Int(1))),
                  Lit(Value::Bool(true)));
      },
      10, /*propagate=*/true);
}

TEST(ThreeValuedLogicTest, KleeneTruthTable) {
  const Schema empty;
  Row row;
  auto eval = [&](ExprPtr expr) {
    return expr->Eval(row, empty).ValueOrDie();
  };
  ExprPtr null_cmp =
      Cmp(Lit(Value::Null()), CompareOp::kEq, Lit(Value::Int(1)));
  // NULL AND false = false; NULL AND true = NULL.
  EXPECT_FALSE(eval(And(null_cmp->Clone(), Lit(Value::Bool(false))))
                   .AsBool());
  EXPECT_TRUE(eval(And(null_cmp->Clone(), Lit(Value::Bool(true))))
                  .is_null());
  // NULL OR true = true; NULL OR false = NULL.
  EXPECT_TRUE(eval(Or(null_cmp->Clone(), Lit(Value::Bool(true)))).AsBool());
  EXPECT_TRUE(eval(Or(null_cmp->Clone(), Lit(Value::Bool(false))))
                  .is_null());
  // NOT NULL = NULL.
  EXPECT_TRUE(eval(Not(null_cmp->Clone())).is_null());
  // Short-circuit still wins on a decisive left side.
  EXPECT_FALSE(eval(And(Lit(Value::Bool(false)), null_cmp->Clone()))
                   .AsBool());
  EXPECT_TRUE(eval(Or(Lit(Value::Bool(true)), null_cmp->Clone())).AsBool());
}

// ---------- LIMIT pushdown under parallel plans ----------

TEST(LimitPushdownTest, GatherStopsDrainingOnceLimitSatisfied) {
  TestDb db(3000);
  const PageId total_pages = db.birds->heap_pages();
  ASSERT_GT(total_pages, 8u);

  auto morsels = std::make_shared<MorselSource>(total_pages, 1);
  std::vector<OpPtr> partitions;
  for (size_t w = 0; w < 2; ++w) {
    OpPtr part = std::make_unique<ParallelScanOp>(db.birds, nullptr, false,
                                                  morsels);
    partitions.push_back(std::make_unique<ExchangeOp>(std::move(part), w));
  }
  auto gather =
      std::make_unique<GatherOp>(std::move(partitions), morsels);
  gather->set_limit(10);
  OpPtr plan = std::make_unique<LimitOp>(std::move(gather), 10);
  // A small batch capacity keeps each drain iteration near one page, so
  // the halt lands promptly.
  ExecutionContext ctx(&db.storage, &db.pool, 32);
  plan->AttachContext(&ctx);

  const uint64_t pages_before =
      EngineMetrics::Get().heap_pages_scanned->value();
  auto rows = CollectRows(plan.get());
  const uint64_t pages_scanned =
      EngineMetrics::Get().heap_pages_scanned->value() - pages_before;

  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 10u);
  EXPECT_TRUE(morsels->halted());
  // The regression bound: without the pushdown the drain visits every
  // page; with it, the workers stop after a handful of morsels.
  EXPECT_LT(pages_scanned, total_pages / 2)
      << pages_scanned << " of " << total_pages << " pages";
}

TEST(LimitPushdownTest, HaltedSourceStopsSiblingWorkers) {
  MorselSource morsels(100, 4);
  PageId begin, end;
  ASSERT_TRUE(morsels.Next(&begin, &end));
  morsels.Halt();
  EXPECT_FALSE(morsels.Next(&begin, &end));
  morsels.Reset();
  EXPECT_TRUE(morsels.Next(&begin, &end));
}

}  // namespace
}  // namespace insight
