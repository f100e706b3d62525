#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
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
  LiveLabelStatistics live(db.mgr.get());
  TableStats stats =
      AnalyzeTable(db.birds, db.mgr.get(), &live).ValueOrDie();
  EXPECT_EQ(stats.num_rows, 20u);
  EXPECT_EQ(live.AnnotatedRows(), 8u);
  EXPECT_GT(stats.avg_summary_blob_size, 0.0);
  EXPECT_GT(stats.heap_pages, 0u);
}

TEST_F(StatisticsTest, LabelStatsReflectDistribution) {
  LiveLabelStatistics live(db.mgr.get());
  ASSERT_TRUE(AnalyzeTable(db.birds, db.mgr.get(), &live).ok());
  EXPECT_EQ(live.NumObjects("ClassBird1"), 8u);
  EXPECT_GT(live.AvgObjectSize("ClassBird1"), 0.0);
  const LabelStats disease = *live.Label("ClassBird1", "Disease");
  EXPECT_EQ(disease.min, 1);
  EXPECT_EQ(disease.max, 8);
  EXPECT_EQ(disease.num_distinct, 8u);
  // Behavior label: all-zero across the 8 annotated birds.
  const LabelStats behavior = *live.Label("ClassBird1", "Behavior");
  EXPECT_EQ(behavior.min, 0);
  EXPECT_EQ(behavior.max, 0);
  EXPECT_EQ(behavior.num_distinct, 1u);
}

TEST_F(StatisticsTest, LabelSelectivityEstimates) {
  LiveLabelStatistics live(db.mgr.get());
  const uint64_t rows =
      AnalyzeTable(db.birds, db.mgr.get(), &live).ValueOrDie().num_rows;
  // Exactly one bird has count 5: selectivity 1/20.
  const double eq = live.EstimateLabelSelectivity("ClassBird1", "Disease",
                                                  CompareOp::kEq, 5, rows);
  EXPECT_NEAR(eq, 1.0 / 20, 0.06);
  // count > 4: birds 5..8 qualify -> 4/20.
  const double gt = live.EstimateLabelSelectivity("ClassBird1", "Disease",
                                                  CompareOp::kGt, 4, rows);
  EXPECT_NEAR(gt, 4.0 / 20, 0.08);
  // Impossible value.
  EXPECT_NEAR(live.EstimateLabelSelectivity("ClassBird1", "Disease",
                                            CompareOp::kGt, 100, rows),
              0.0, 1e-9);
  // Unknown instance/label.
  EXPECT_EQ(live.EstimateLabelSelectivity("Nope", "Disease", CompareOp::kEq,
                                          1, rows),
            0.0);
  EXPECT_EQ(live.EstimateLabelSelectivity("ClassBird1", "Nope",
                                          CompareOp::kEq, 1, rows),
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
  EXPECT_EQ(stats.avg_summary_blob_size, 0.0);
  EXPECT_TRUE(stats.instance_words.empty());
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
  const RelationInfo* info = *ctx.Get("Birds");
  const SketchPolicy histograms{false};

  // Initially nothing is annotated: selectivity of Disease = 3 is 0.
  EXPECT_EQ(info->LabelSelectivity(histograms, "ClassBird1", "Disease",
                                   CompareOp::kEq, 3, -1),
            0.0);

  // Annotate AFTER the analyze; live maintenance tracks it.
  for (int i = 1; i <= 6; ++i) {
    db.Annotate(static_cast<Oid>(i), "disease", 3);
  }
  EXPECT_NEAR(info->LabelSelectivity(histograms, "ClassBird1", "Disease",
                                     CompareOp::kEq, 3, -1),
              6.0 / 30, 0.05);
  EXPECT_EQ(info->AnnotatedRows(), 6u);

  // Removing effects is tracked too (tuple deletion).
  ASSERT_TRUE(db.mgr->OnTupleDeleted(1).ok());
  EXPECT_EQ(info->AnnotatedRows(), 5u);
  EXPECT_NEAR(info->LabelSelectivity(histograms, "ClassBird1", "Disease",
                                     CompareOp::kEq, 3, -1),
              5.0 / 30, 0.05);
}

// The live statistics are the only home of the label statistics, so they
// must equal what a from-scratch build over the stored summaries gives:
// after seeded ANNOTATE, remove-annotation and tuple-delete sequences,
// across an instance linked after the first ANALYZE (tracked from the
// next ANALYZE on) and a second ANALYZE, every label estimate the planner
// reads equals the brute-force one.
TEST(LiveStatisticsTest, MatchesBruteForceUnderUpdates) {
  const std::vector<std::string> kLabels = {"Disease", "Behavior", "Other"};
  const std::vector<std::string> kKinds = {"disease", "behavior", "other"};
  constexpr int kBirds = 40;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TestDb db(kBirds);
    QueryContext ctx(&db.catalog, &db.storage, &db.pool);
    ASSERT_TRUE(ctx.RegisterRelation(db.birds, db.mgr.get()).ok());
    Rng rng(seed);
    std::vector<AnnId> live_anns;
    std::set<Oid> deleted;

    auto mutate = [&](int ops) {
      for (int i = 0; i < ops; ++i) {
        const double roll = rng.NextDouble();
        const Oid oid = static_cast<Oid>(rng.Uniform(1, kBirds));
        if (roll < 0.6 || live_anns.empty()) {
          if (deleted.count(oid) > 0) continue;
          auto ann = db.mgr->AddAnnotation(
              rng.Pick(kKinds) + "word note " + std::to_string(i),
              {{oid, CellMask(0)}});
          ASSERT_TRUE(ann.ok()) << ann.status().ToString();
          live_anns.push_back(*ann);
        } else if (roll < 0.85) {
          const size_t pick = static_cast<size_t>(
              rng.Uniform(0, static_cast<int64_t>(live_anns.size()) - 1));
          ASSERT_TRUE(db.mgr->RemoveAnnotation(live_anns[pick]).ok());
          live_anns.erase(live_anns.begin() + static_cast<long>(pick));
        } else {
          ASSERT_TRUE(db.mgr->OnTupleDeleted(oid).ok());
          deleted.insert(oid);
        }
      }
    };

    // Compares every estimate over `tracked` instances with a histogram
    // built from scratch over the stored summaries.
    auto expect_brute_force = [&](const std::vector<std::string>& tracked) {
      std::map<std::string, std::map<std::string, std::vector<int64_t>>>
          values;
      std::map<std::string, uint64_t> objects;
      ASSERT_TRUE(db.mgr
                      ->ForEachSummaryRow([&](Oid, const SummarySet& set) {
                        for (const SummaryObject& obj : set.objects()) {
                          const std::string inst = ToLower(obj.instance_name);
                          ++objects[inst];
                          if (obj.type != SummaryType::kClassifier) continue;
                          for (const Representative& rep : obj.reps) {
                            values[inst][ToLower(rep.text)].push_back(
                                rep.count);
                          }
                        }
                        return Status::OK();
                      })
                      .ok());
      const RelationInfo* info = *ctx.Get("Birds");
      const SketchPolicy histograms{false};
      const double rows = static_cast<double>(info->stats->num_rows);
      // One object per annotated tuple per instance.
      uint64_t annotated = 0;
      for (const std::string& instance : tracked) {
        annotated = std::max(annotated, objects[ToLower(instance)]);
        for (const std::string& label : kLabels) {
          const std::vector<int64_t>& counts =
              values[ToLower(instance)][ToLower(label)];
          LabelStats ref;
          ref.histogram = EquiWidthHistogram::Build(counts);
          ref.min = ref.histogram.min();
          ref.max = ref.histogram.max();
          ref.num_distinct =
              std::set<int64_t>(counts.begin(), counts.end()).size();
          EXPECT_EQ(info->LabelDistinctEst(histograms, instance, label),
                    std::max<uint64_t>(1, ref.num_distinct))
              << instance << "." << label;
          for (CompareOp op :
               {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
            for (int64_t c : {-1, 0, 1, 2, 3, 5, 9}) {
              EXPECT_NEAR(info->LabelSelectivity(histograms, instance, label,
                                                 op, c, -1),
                          std::min(1.0, ref.EstimateMatching(op, c) / rows),
                          1e-9)
                  << instance << "." << label << " op "
                  << static_cast<int>(op) << " " << c;
            }
          }
        }
      }
      EXPECT_NEAR(info->AnnotatedFraction(histograms, -1),
                  std::min(1.0, static_cast<double>(annotated) / rows),
                  1e-12);
    };

    const std::vector<std::string> first = {"ClassBird1", "TextSummary1",
                                            "SimCluster"};
    mutate(60);
    ASSERT_TRUE(ctx.Analyze("Birds").ok());
    expect_brute_force(first);
    mutate(80);
    expect_brute_force(first);

    // Linked after the first ANALYZE: its objects count from the next
    // one, which rebuilds the live statistics over every instance.
    auto model = std::make_shared<NaiveBayesClassifier>(kLabels);
    model->Train("diseaseword", "Disease").ok();
    model->Train("behaviorword", "Behavior").ok();
    model->Train("otherword", "Other").ok();
    ASSERT_TRUE(db.mgr
                    ->LinkInstance(SummaryInstance::Classifier(
                        "ClassBird2", kLabels, model))
                    .ok());
    mutate(60);
    expect_brute_force(first);
    ASSERT_TRUE(ctx.Analyze("Birds").ok());
    std::vector<std::string> all = first;
    all.push_back("ClassBird2");
    expect_brute_force(all);
    mutate(80);
    expect_brute_force(all);
  }
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
  LiveLabelStatistics live(db.mgr.get());
  TableStats stats =
      AnalyzeTable(db.birds, db.mgr.get(), &live).ValueOrDie();
  const uint64_t rows = stats.num_rows;
  // `< INT64_MIN` matches nothing (the old code computed kMin - 1: UB).
  EXPECT_EQ(live.EstimateLabelSelectivity("ClassBird1", "Disease",
                                          CompareOp::kLt, kMin, rows),
            0.0);
  // `> INT64_MAX` matches nothing (the old code computed kMax + 1: UB).
  EXPECT_EQ(live.EstimateLabelSelectivity("ClassBird1", "Disease",
                                          CompareOp::kGt, kMax, rows),
            0.0);
  // The inclusive forms at the limits cover everything annotated.
  EXPECT_GT(live.EstimateLabelSelectivity("ClassBird1", "Disease",
                                          CompareOp::kLe, kMax, rows),
            0.0);
  EXPECT_GT(live.EstimateLabelSelectivity("ClassBird1", "Disease",
                                          CompareOp::kGe, kMin, rows),
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

// An INT column holds whole numbers: a fractional constant bounds `<` and
// `<=` at its floor and `>` and `>=` at its ceiling, `=` matches no row
// and `<>` every non-NULL one. `v` holds each of -8..7 (v + 9) times, so
// its 16 buckets hold one value each and every estimate is exact: each
// must equal the brute-force count, negative constants included.
TEST(IntHistogramTest, FractionalConstantsMatchBruteForceCounts) {
  StorageManager storage(StorageManager::Backend::kMemory);
  BufferPool pool(&storage, 256);
  Catalog catalog(&storage, &pool);
  Table* table =
      *catalog.CreateTable("N", Schema({{"v", ValueType::kInt64}}));
  std::vector<int64_t> values;
  for (int64_t v = -8; v <= 7; ++v) {
    for (int64_t k = 0; k < v + 9; ++k) values.push_back(v);
  }
  for (int64_t v : values) {
    ASSERT_TRUE(table->Insert(Tuple({Value::Int(v)})).ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(table->Insert(Tuple({Value::Null()})).ok());
  }
  TableStats stats = AnalyzeTable(table, nullptr).ValueOrDie();
  const double rows = static_cast<double>(stats.num_rows);
  auto holds = [](int64_t v, CompareOp op, double c) {
    const double x = static_cast<double>(v);
    switch (op) {
      case CompareOp::kEq:
        return x == c;
      case CompareOp::kNe:
        return x != c;
      case CompareOp::kLt:
        return x < c;
      case CompareOp::kLe:
        return x <= c;
      case CompareOp::kGt:
        return x > c;
      case CompareOp::kGe:
        return x >= c;
    }
    return false;
  };
  for (double c : {-9.5, -8.5, -3.5, -2.5, -3.0, -0.5, 0.5, 2.0, 2.5, 6.5,
                   7.5}) {
    for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                         CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
      const double want = static_cast<double>(
          std::count_if(values.begin(), values.end(),
                        [&](int64_t v) { return holds(v, op, c); }));
      EXPECT_NEAR(
          stats.EstimateColumnSelectivity("v", op, Value::Double(c)) * rows,
          want, 1e-6)
          << "v op " << static_cast<int>(op) << " " << c;
      if (c == std::floor(c)) {
        EXPECT_NEAR(stats.EstimateColumnSelectivity(
                        "v", op, Value::Int(static_cast<int64_t>(c))) *
                        rows,
                    want, 1e-6)
            << "v op " << static_cast<int>(op) << " " << c << " (INT)";
      }
    }
  }
}

}  // namespace
}  // namespace insight
