#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "engine_test_util.h"
#include "optimizer/optimizer.h"
#include "optimizer/query_context.h"
#include "optimizer/statistics.h"

namespace insight {
namespace {

class StatisticsTest : public ::testing::Test {
 protected:
  StatisticsTest() : db(20) {
    // Deterministic counts: bird i gets i disease annotations (i in 1..8),
    // birds 9+ stay un-annotated.
    for (int i = 1; i <= 8; ++i) {
      db.Annotate(static_cast<Oid>(i), "disease", i);
    }
  }

  TestDb db;
};

TEST_F(StatisticsTest, RowAndAnnotationCounts) {
  TableStats stats = AnalyzeTable(db.birds, db.mgr.get()).ValueOrDie();
  EXPECT_EQ(stats.num_rows, 20u);
  EXPECT_EQ(stats.annotated_rows, 8u);
  EXPECT_GT(stats.avg_summary_blob_size, 0.0);
  EXPECT_GT(stats.heap_pages, 0u);
}

TEST_F(StatisticsTest, LabelStatsReflectDistribution) {
  TableStats stats = AnalyzeTable(db.birds, db.mgr.get()).ValueOrDie();
  const auto& inst = stats.instances.at("classbird1");
  EXPECT_EQ(inst.num_objects, 8u);
  EXPECT_GT(inst.avg_object_size, 0.0);
  const LabelStats& disease = inst.labels.at("disease");
  EXPECT_EQ(disease.min, 1);
  EXPECT_EQ(disease.max, 8);
  EXPECT_EQ(disease.num_distinct, 8u);
  // Behavior label: all-zero across the 8 annotated birds.
  const LabelStats& behavior = inst.labels.at("behavior");
  EXPECT_EQ(behavior.min, 0);
  EXPECT_EQ(behavior.max, 0);
  EXPECT_EQ(behavior.num_distinct, 1u);
}

TEST_F(StatisticsTest, LabelSelectivityEstimates) {
  TableStats stats = AnalyzeTable(db.birds, db.mgr.get()).ValueOrDie();
  // Exactly one bird has count 5: selectivity 1/20.
  const double eq = stats.EstimateLabelSelectivity("ClassBird1", "Disease",
                                                   CompareOp::kEq, 5);
  EXPECT_NEAR(eq, 1.0 / 20, 0.06);
  // count > 4: birds 5..8 qualify -> 4/20.
  const double gt = stats.EstimateLabelSelectivity("ClassBird1", "Disease",
                                                   CompareOp::kGt, 4);
  EXPECT_NEAR(gt, 4.0 / 20, 0.08);
  // Impossible value.
  EXPECT_NEAR(stats.EstimateLabelSelectivity("ClassBird1", "Disease",
                                             CompareOp::kGt, 100),
              0.0, 1e-9);
  // Unknown instance/label.
  EXPECT_EQ(stats.EstimateLabelSelectivity("Nope", "Disease",
                                           CompareOp::kEq, 1),
            0.0);
  EXPECT_EQ(stats.EstimateLabelSelectivity("ClassBird1", "Nope",
                                           CompareOp::kEq, 1),
            0.0);
}

TEST_F(StatisticsTest, ColumnStats) {
  TableStats stats = AnalyzeTable(db.birds, db.mgr.get()).ValueOrDie();
  // 4 distinct families over 20 birds.
  EXPECT_EQ(stats.ColumnDistinct("family"), 4u);
  const double eq = stats.EstimateColumnSelectivity(
      "family", CompareOp::kEq, Value::String("family1"));
  EXPECT_NEAR(eq, 0.25, 0.01);
  // Numeric column: weights 1.0 + i*0.25 over [1.0, 5.75]; range
  // (<= 2.0) covers weights 1.0..2.0 = 5 of 20 rows.
  const double range = stats.EstimateColumnSelectivity(
      "weight", CompareOp::kLe, Value::Double(2.0));
  EXPECT_GT(range, 0.15);
  EXPECT_LT(range, 0.6);
  // Unknown column falls back.
  EXPECT_NEAR(stats.EstimateColumnSelectivity("nope", CompareOp::kEq,
                                              Value::Int(1)),
              1.0 / 3, 1e-9);
}

TEST_F(StatisticsTest, PlainTableWithoutManager) {
  Table* plain = *db.catalog.CreateTable(
      "Plain", Schema({{"x", ValueType::kInt64}}));
  for (int i = 0; i < 10; ++i) {
    plain->Insert(Tuple({Value::Int(i % 3)})).status();
  }
  TableStats stats = AnalyzeTable(plain, nullptr).ValueOrDie();
  EXPECT_EQ(stats.num_rows, 10u);
  EXPECT_EQ(stats.annotated_rows, 0u);
  EXPECT_TRUE(stats.instances.empty());
  EXPECT_EQ(stats.ColumnDistinct("x"), 3u);
}

// The cost model's core claim, validated against real buffer-pool I/O:
// an index plan touches far fewer pages than a scan plan.
TEST_F(StatisticsTest, IndexPlanDoesLessIoThanScanPlan) {
  // A bigger corpus so the difference is unambiguous.
  TestDb big(300);
  for (int i = 1; i <= 300; ++i) {
    big.Annotate(static_cast<Oid>(i), "disease", (i % 7));
  }
  auto sbt = std::move(SummaryBTree::Create(&big.storage, &big.pool,
                                            big.mgr.get(), "ClassBird1",
                                            SummaryBTree::Options{}))
                 .ValueOrDie();

  auto run_scan = [&] {
    SummarySelectOp select(
        big.Scan(false), Cmp(LabelValue("ClassBird1", "Disease"),
                             CompareOp::kEq, Lit(Value::Int(6))));
    // Must propagate for the predicate to see summaries.
    SummarySelectOp select2(
        big.Scan(true), Cmp(LabelValue("ClassBird1", "Disease"),
                            CompareOp::kEq, Lit(Value::Int(6))));
    return CollectRows(&select2).ValueOrDie().size();
  };
  auto run_index = [&] {
    SummaryIndexScanOp scan(sbt.get(),
                            ClassifierProbe::Equal("Disease", 6),
                            big.mgr.get(), true);
    return CollectRows(&scan).ValueOrDie().size();
  };

  big.pool.ResetStats();
  const size_t scan_rows = run_scan();
  const uint64_t scan_reads = big.pool.stats().logical_reads();
  big.pool.ResetStats();
  const size_t index_rows = run_index();
  const uint64_t index_reads = big.pool.stats().logical_reads();

  EXPECT_EQ(scan_rows, index_rows);
  EXPECT_GT(scan_rows, 0u);
  EXPECT_LT(index_reads, scan_reads / 2)
      << "index " << index_reads << " vs scan " << scan_reads;
}


// Section 5.2: statistics are maintained whenever a summary object is
// updated — after one ANALYZE, later annotation arrivals are visible to
// the planner without re-analyzing.
TEST(LiveStatisticsTest, UpdatesVisibleWithoutReanalyze) {
  TestDb db(30);
  QueryContext ctx(&db.catalog, &db.storage, &db.pool);
  (void)ctx.RegisterRelation(db.birds, db.mgr.get());
  ASSERT_TRUE(ctx.Analyze("Birds").ok());

  // Initially nothing is annotated: selectivity of Disease = 3 is 0.
  (void)ctx.RefreshStats("Birds");
  const TableStats* stats = &*(*ctx.Get("Birds"))->stats;
  EXPECT_EQ(stats->EstimateLabelSelectivity("ClassBird1", "Disease",
                                            CompareOp::kEq, 3),
            0.0);

  // Annotate AFTER the analyze; live maintenance tracks it.
  for (int i = 1; i <= 6; ++i) {
    db.Annotate(static_cast<Oid>(i), "disease", 3);
  }
  (void)ctx.RefreshStats("Birds");
  stats = &*(*ctx.Get("Birds"))->stats;
  EXPECT_NEAR(stats->EstimateLabelSelectivity("ClassBird1", "Disease",
                                              CompareOp::kEq, 3),
              6.0 / 30, 0.05);
  EXPECT_EQ(stats->annotated_rows, 6u);

  // Removing effects is tracked too (tuple deletion).
  ASSERT_TRUE(db.mgr->OnTupleDeleted(1).ok());
  (void)ctx.RefreshStats("Birds");
  stats = &*(*ctx.Get("Birds"))->stats;
  EXPECT_EQ(stats->annotated_rows, 5u);
  EXPECT_NEAR(stats->EstimateLabelSelectivity("ClassBird1", "Disease",
                                              CompareOp::kEq, 3),
              5.0 / 30, 0.05);
}

TEST(LiveStatisticsTest, SeedMatchesFullAnalyze) {
  TestDb db(20);
  for (int i = 1; i <= 8; ++i) db.Annotate(static_cast<Oid>(i), "disease", i);
  // Full analyze.
  TableStats full = AnalyzeTable(db.birds, db.mgr.get()).ValueOrDie();
  // Live seed + fold into a fresh stats object.
  LiveLabelStatistics live(db.mgr.get());
  ASSERT_TRUE(live.SeedFrom(db.mgr.get()).ok());
  TableStats folded = AnalyzeTable(db.birds, nullptr).ValueOrDie();
  live.FoldInto(&folded);
  const auto& a = full.instances.at("classbird1").labels.at("disease");
  const auto& b = folded.instances.at("classbird1").labels.at("disease");
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.num_distinct, b.num_distinct);
  EXPECT_EQ(full.annotated_rows, folded.annotated_rows);
}

// ---- Histogram overflow / degenerate-width regressions ----
// The bucket width used to be computed as int64 `max - min + 1`, which is
// signed-overflow UB (and wraps to width <= 0) whenever the value domain
// spans more than half the int64 range.

TEST(HistogramEdgeCaseTest, FullInt64SpanDoesNotOverflow) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  EquiWidthHistogram h = EquiWidthHistogram::Build({kMin, -1, 0, 1, kMax});
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.min(), kMin);
  EXPECT_EQ(h.max(), kMax);
  // Every value must have landed in some bucket: the whole-domain range
  // estimate recovers the full count.
  const double all = h.EstimateRange(kMin, kMax);
  EXPECT_TRUE(std::isfinite(all));
  EXPECT_NEAR(all, 5.0, 1e-6);
  // Point estimates stay finite and within the total.
  const double at_zero = h.EstimateRange(0, 0);
  EXPECT_TRUE(std::isfinite(at_zero));
  EXPECT_GE(at_zero, 0.0);
  EXPECT_LE(at_zero, 5.0);
}

TEST(HistogramEdgeCaseTest, BuildFromCountsFullInt64Span) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  std::map<int64_t, uint64_t> counts{{kMin, 3}, {0, 1}, {kMax, 2}};
  EquiWidthHistogram h = EquiWidthHistogram::BuildFromCounts(counts);
  EXPECT_EQ(h.total(), 6u);
  const double all = h.EstimateRange(kMin, kMax);
  EXPECT_TRUE(std::isfinite(all));
  EXPECT_NEAR(all, 6.0, 1e-6);
}

TEST(HistogramEdgeCaseTest, SingleValueDegenerateWidth) {
  EquiWidthHistogram h = EquiWidthHistogram::Build({42, 42, 42});
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.min(), 42);
  EXPECT_EQ(h.max(), 42);
  EXPECT_NEAR(h.EstimateRange(42, 42), 3.0, 1e-6);
  EXPECT_NEAR(h.EstimateRange(41, 41), 0.0, 1e-9);
  EXPECT_NEAR(h.EstimateRange(43, 100), 0.0, 1e-9);
  EXPECT_NEAR(h.EstimateEquals(42, 1), 3.0, 0.2);
}

TEST(HistogramEdgeCaseTest, ValueAtExactlyMaxLandsInLastBucket) {
  // 1..32: max_ = 32 must land in bucket 15, not one past the end.
  std::vector<int64_t> values;
  for (int64_t v = 1; v <= 32; ++v) values.push_back(v);
  EquiWidthHistogram h = EquiWidthHistogram::Build(values);
  EXPECT_NEAR(h.EstimateRange(h.min(), h.max()), 32.0, 1e-6);
  const double at_max = h.EstimateRange(32, 32);
  EXPECT_GT(at_max, 0.0);
  EXPECT_LE(at_max, 2.0 + 1e-9);
}

TEST_F(StatisticsTest, SelectivityConstantAtInt64Limits) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  TableStats stats = AnalyzeTable(db.birds, db.mgr.get()).ValueOrDie();
  // `< INT64_MIN` matches nothing (the old code computed kMin - 1: UB).
  EXPECT_EQ(stats.EstimateLabelSelectivity("ClassBird1", "Disease",
                                           CompareOp::kLt, kMin),
            0.0);
  // `> INT64_MAX` matches nothing (the old code computed kMax + 1: UB).
  EXPECT_EQ(stats.EstimateLabelSelectivity("ClassBird1", "Disease",
                                           CompareOp::kGt, kMax),
            0.0);
  // The inclusive forms at the limits cover everything annotated.
  EXPECT_GT(stats.EstimateLabelSelectivity("ClassBird1", "Disease",
                                           CompareOp::kLe, kMax),
            0.0);
  EXPECT_GT(stats.EstimateLabelSelectivity("ClassBird1", "Disease",
                                           CompareOp::kGe, kMin),
            0.0);
  // Column path: the same limit constants plus out-of-range / NaN doubles
  // (the old code cast them straight to int64: UB).
  for (const Value& c :
       {Value::Int(kMin), Value::Int(kMax), Value::Double(1e300),
        Value::Double(-1e300),
        Value::Double(std::numeric_limits<double>::quiet_NaN())}) {
    for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                         CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
      const double sel = stats.EstimateColumnSelectivity("weight", op, c);
      EXPECT_TRUE(std::isfinite(sel));
      EXPECT_GE(sel, 0.0);
      EXPECT_LE(sel, 1.0);
    }
  }
}

// DOUBLE columns keep real-valued histograms: every comparison, with the
// constant on either side, estimates within 3x of the brute-force count
// of the rows the plan returns (NULLs match no comparison). `u` spreads
// 2,000 distinct values over [0, 10); `f` holds 40 values 1/16 apart, so
// its point masses matter. `=` and `<>` probe values the column holds: a
// histogram keeps no value list, so an absent value between two of `f`'s
// estimates its bucket's average frequency, as on an INT column.
TEST(DoubleHistogramTest, EstimatesTrackBruteForceCounts) {
  StorageManager storage(StorageManager::Backend::kMemory);
  BufferPool pool(&storage, 1024);
  Catalog catalog(&storage, &pool);
  Table* table = *catalog.CreateTable(
      "M", Schema({{"u", ValueType::kDouble}, {"f", ValueType::kDouble}}));
  for (int i = 0; i < 2000; ++i) {
    const double u = static_cast<double>((i * 7919) % 2000) / 200.0;
    const double f = 0.5 + (i % 40) * 0.0625;
    ASSERT_TRUE(table
                    ->Insert(Tuple({i % 11 == 0 ? Value::Null()
                                                : Value::Double(u),
                                    i % 13 == 0 ? Value::Null()
                                                : Value::Double(f)}))
                    .ok());
  }
  QueryContext ctx(&catalog, &storage, &pool);
  ASSERT_TRUE(ctx.RegisterRelation(table, nullptr).ok());
  ASSERT_TRUE(ctx.Analyze("M").ok());
  Optimizer optimizer(&ctx, OptimizerOptions{});

  // `c op x` is `x flipped(op) c`.
  auto flipped = [](CompareOp op) {
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
  };
  struct Probes {
    std::string column;
    std::vector<double> ranges;  // Constants for < <= > >=.
    std::vector<double> points;  // Constants for = and <>.
  };
  const std::vector<Probes> columns = {
      {"u",
       {-1.0, 0.0, 0.7, 2.5, 5.0, 7.3, 9.995, 11.0},
       {-1.0, 0.0, 0.7, 2.5, 5.0, 9.995, 11.0}},
      {"f",
       {0.4, 0.5, 0.8125, 1.0, 1.7, 2.9, 2.9375, 3.5},
       {0.4, 0.5, 0.8125, 1.0, 1.6875, 2.9375, 3.5}},
  };
  for (const Probes& probes : columns) {
    const std::string& column = probes.column;
    for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                         CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
      const bool point = op == CompareOp::kEq || op == CompareOp::kNe;
      for (double c : point ? probes.points : probes.ranges) {
        for (bool constant_left : {false, true}) {
          ExprPtr pred =
              constant_left
                  ? Cmp(Lit(Value::Double(c)), flipped(op), Col(column))
                  : Cmp(Col(column), op, Lit(Value::Double(c)));
          const std::string text = pred->ToString();
          LogicalPtr plan = LSelect(LScan("M"), std::move(pred));
          auto est = optimizer.Estimate(*plan);
          ASSERT_TRUE(est.ok()) << est.status().ToString();
          auto op_tree = optimizer.Lower(*plan);
          ASSERT_TRUE(op_tree.ok()) << op_tree.status().ToString();
          auto rows = CollectRows(op_tree->get());
          ASSERT_TRUE(rows.ok()) << rows.status().ToString();
          // Both floored at one row, as the optimizer floors estimates.
          const double actual =
              std::max(1.0, static_cast<double>(rows->size()));
          const double q = std::max(est->rows, actual) /
                           std::min(std::max(1.0, est->rows), actual);
          EXPECT_LE(q, 3.0) << text << ": est " << est->rows << ", actual "
                            << rows->size();
        }
      }
    }
  }
}

}  // namespace
}  // namespace insight
