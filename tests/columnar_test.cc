// Columnar execution path: ColumnVector/ColumnBatch invariants, the
// row-vs-batch-vs-columnar equivalence sweep (including NaN / -0.0 and
// NULL three-valued-logic edge cases, where the row and vector paths
// historically diverged), and LIMIT pushdown into parallel gathers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "engine_test_util.h"
#include "engine/column_batch.h"
#include "engine/execution_context.h"
#include "engine/parallel_ops.h"
#include "obs/metrics.h"

namespace insight {
namespace {

// ---------- ColumnVector ----------

TEST(ColumnVectorTest, TypedRoundtripWithNulls) {
  ColumnVector col;
  col.Append(Value::Int(7));
  col.Append(Value::Null());
  col.Append(Value::Int(-3));
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.GetValue(0).AsInt(), 7);
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_TRUE(col.GetValue(1).is_null());
  EXPECT_EQ(col.GetValue(2).AsInt(), -3);
  EXPECT_EQ(col.type(), ValueType::kInt64);
  EXPECT_FALSE(col.generic());
}

TEST(ColumnVectorTest, TypeLatchesAfterLeadingNulls) {
  ColumnVector col;
  col.Append(Value::Null());
  col.Append(Value::Null());
  col.Append(Value::String("x"));
  ASSERT_EQ(col.size(), 3u);
  EXPECT_TRUE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.GetValue(2).AsString(), "x");
  EXPECT_EQ(col.type(), ValueType::kString);
}

TEST(ColumnVectorTest, MixedTypesDegradeToGeneric) {
  ColumnVector col;
  col.Append(Value::Int(1));
  col.Append(Value::String("two"));
  col.Append(Value::Null());
  col.Append(Value::Double(3.5));
  ASSERT_EQ(col.size(), 4u);
  EXPECT_TRUE(col.generic());
  EXPECT_EQ(col.GetValue(0).AsInt(), 1);
  EXPECT_EQ(col.GetValue(1).AsString(), "two");
  EXPECT_TRUE(col.GetValue(2).is_null());
  EXPECT_DOUBLE_EQ(col.GetValue(3).AsDouble(), 3.5);
}

TEST(ColumnVectorTest, DoubleEdgeCasesSurviveRoundtrip) {
  ColumnVector col;
  col.Append(Value::Double(std::nan("")));
  col.Append(Value::Double(-0.0));
  col.Append(Value::Double(0.0));
  EXPECT_TRUE(std::isnan(col.GetValue(0).AsDouble()));
  EXPECT_TRUE(std::signbit(col.GetValue(1).AsDouble()));
  EXPECT_FALSE(std::signbit(col.GetValue(2).AsDouble()));
}

TEST(ColumnVectorTest, ClearRelatchesType) {
  ColumnVector col;
  col.Append(Value::Int(1));
  col.Clear();
  EXPECT_EQ(col.size(), 0u);
  col.Append(Value::String("fresh"));
  EXPECT_EQ(col.type(), ValueType::kString);
  EXPECT_EQ(col.GetValue(0).AsString(), "fresh");
}

// ---------- ColumnBatch ----------

TEST(ColumnBatchTest, AppendTupleGetRowRoundtrip) {
  Schema schema({{"a", ValueType::kInt64}, {"b", ValueType::kString}});
  ColumnBatch batch;
  batch.Reset(&schema, 16);
  batch.AppendTuple(1, Tuple({Value::Int(10), Value::String("x")}), {});
  batch.AppendTuple(2, Tuple({Value::Null(), Value::String("y")}), {});
  // A short tuple pads with NULLs.
  batch.AppendTuple(3, Tuple({Value::Int(30)}), {});
  ASSERT_EQ(batch.size(), 3u);
  Row row = batch.GetRow(1);
  EXPECT_EQ(row.oid, 2u);
  EXPECT_TRUE(row.data.at(0).is_null());
  EXPECT_EQ(row.data.at(1).AsString(), "y");
  EXPECT_TRUE(batch.GetRow(2).data.at(1).is_null());
}

TEST(ColumnBatchTest, FilterKeepsSelectedRowsAndOids) {
  Schema schema({{"a", ValueType::kInt64}});
  ColumnBatch batch;
  batch.Reset(&schema, 16);
  for (int i = 0; i < 5; ++i) {
    batch.AppendTuple(static_cast<Oid>(i + 1), Tuple({Value::Int(i)}), {});
  }
  batch.Filter({0, 1, 0, 1, 1});
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.GetRow(0).oid, 2u);
  EXPECT_EQ(batch.GetRow(0).data.at(0).AsInt(), 1);
  EXPECT_EQ(batch.GetRow(2).oid, 5u);
  EXPECT_EQ(batch.GetRow(2).data.at(0).AsInt(), 4);
}

TEST(ColumnBatchTest, AssumeProjectedHandlesDuplicateIndices) {
  Schema in_schema({{"a", ValueType::kInt64}, {"b", ValueType::kString}});
  ColumnBatch in;
  in.Reset(&in_schema, 8);
  in.AppendTuple(1, Tuple({Value::Int(5), Value::String("s")}), {});

  Schema out_schema({{"b", ValueType::kString},
                     {"a", ValueType::kInt64},
                     {"a2", ValueType::kInt64}});
  ColumnBatch out;
  out.Reset(&out_schema, 8);
  out.AssumeProjected(std::move(in), {1, 0, 0});  // SELECT b, a, a.
  ASSERT_EQ(out.size(), 1u);
  Row row = out.GetRow(0);
  EXPECT_EQ(row.oid, 1u);
  EXPECT_EQ(row.data.at(0).AsString(), "s");
  EXPECT_EQ(row.data.at(1).AsInt(), 5);
  EXPECT_EQ(row.data.at(2).AsInt(), 5);
}

TEST(ColumnBatchTest, RowBatchPivotRoundtrip) {
  Schema schema({{"a", ValueType::kInt64}, {"b", ValueType::kDouble}});
  RowBatch rows;
  rows.set_capacity(8);
  for (int i = 0; i < 4; ++i) {
    Row row;
    row.oid = static_cast<Oid>(i + 1);
    row.data = Tuple({Value::Int(i), i % 2 == 0 ? Value::Null()
                                                : Value::Double(i * 1.5)});
    rows.Push(std::move(row));
  }
  ColumnBatch batch;
  batch.FromRowBatch(rows, &schema);
  RowBatch back;
  back.set_capacity(8);
  batch.ToRowBatch(&back);
  ASSERT_EQ(back.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(back.rows()[i].oid, rows.rows()[i].oid);
    EXPECT_EQ(back.rows()[i].data.ToString(), rows.rows()[i].data.ToString());
  }
}

// ---------- Row vs batch vs columnar equivalence ----------

std::multiset<std::string> Canon(const std::vector<Row>& rows) {
  std::multiset<std::string> out;
  for (const Row& row : rows) out.insert(row.data.ToString());
  return out;
}

Result<std::vector<Row>> CollectColumnar(PhysicalOperator* op) {
  INSIGHT_RETURN_NOT_OK(op->Open());
  std::vector<Row> out;
  ColumnBatch batch;
  while (true) {
    INSIGHT_ASSIGN_OR_RETURN(bool has, op->NextColumnBatch(&batch));
    if (!has) break;
    for (size_t i = 0; i < batch.size(); ++i) out.push_back(batch.GetRow(i));
  }
  op->Close();
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

// Drives the same predicate through the row reference and both filter
// interfaces over a fresh plan each time and expects identical result
// multisets.
void ExpectAllPathsAgree(TestDb* db, const std::function<ExprPtr()>& pred,
                         size_t expected_rows = SIZE_MAX) {
  auto build = [&] {
    return std::make_unique<SelectOp>(db->Scan(false), pred());
  };
  auto row_path = FilterOneAtATime(db->Scan(false).get(), *pred());
  ASSERT_TRUE(row_path.ok()) << row_path.status().ToString();
  auto plan = build();
  auto batch_path = CollectBatched(plan.get());
  ASSERT_TRUE(batch_path.ok()) << batch_path.status().ToString();
  plan = build();
  auto col_path = CollectColumnar(plan.get());
  ASSERT_TRUE(col_path.ok()) << col_path.status().ToString();
  EXPECT_EQ(Canon(*row_path), Canon(*batch_path));
  EXPECT_EQ(Canon(*row_path), Canon(*col_path));
  if (expected_rows != SIZE_MAX) {
    EXPECT_EQ(row_path->size(), expected_rows);
  }
}

TEST(ColumnarEquivalenceTest, FilteredScanAgreesAcrossPaths) {
  TestDb db(50);
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
    auto col_path = CollectColumnar(&plan);
    ASSERT_TRUE(col_path.ok());
    EXPECT_EQ(Canon(*row_path), Canon(*col_path))
        << "op " << static_cast<int>(op);
  }
  // Value::Compare places NaN above every real and equal to itself, and
  // treats -0.0 == 0.0: "x >= 0.0" keeps NaN, both zeros, and 1.0.
  auto plan = std::make_unique<SelectOp>(
      std::make_unique<SeqScanOp>(table, nullptr, false),
      Cmp(Col("x"), CompareOp::kGe, Lit(Value::Double(0.0))));
  auto rows = CollectColumnar(plan.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
}

// ---------- Three-valued logic ----------

TEST(ThreeValuedLogicTest, NotOfNullComparisonFiltersEverything) {
  // "NOT (name = NULL)" is NOT NULL = NULL, which the filter rejects.
  // The historical bug collapsed the inner NULL to false at the leaf,
  // turning the NOT into TRUE and letting every row through.
  TestDb db(10);
  ExpectAllPathsAgree(
      &db,
      [] {
        return Not(Cmp(Col("name"), CompareOp::kEq, Lit(Value::Null())));
      },
      0);
}

TEST(ThreeValuedLogicTest, NullUnderOrTruePasses) {
  // "(name = NULL) OR true" is true under Kleene logic: the NULL must
  // not poison the disjunction.
  TestDb db(10);
  ExpectAllPathsAgree(
      &db,
      [] {
        return Or(Cmp(Col("name"), CompareOp::kEq, Lit(Value::Null())),
                  Lit(Value::Bool(true)));
      },
      10);
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
