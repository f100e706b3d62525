// Zone-map data skipping: store-level bound/refutation semantics, the
// widen-only MVCC discipline (rollbacks and deletes may only loosen, the
// checkpoint-time maintenance pass tightens), scan-level skip
// correctness against unpruned results, label-probe pruning including
// hierarchical inner labels, and rebuild-through-recovery.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "engine_test_util.h"
#include "obs/metrics.h"
#include "sql/database.h"
#include "storage/zone_map.h"

namespace insight {
namespace {

ZoneProbe ColumnProbe(size_t column, ZoneOp op, Value constant) {
  ZoneProbe probe;
  probe.kind = ZoneProbe::Kind::kColumn;
  probe.column = column;
  probe.op = op;
  probe.constant = std::move(constant);
  return probe;
}

ZoneProbe LabelProbe(std::string key, ZoneOp op, int64_t constant) {
  ZoneProbe probe;
  probe.kind = ZoneProbe::Kind::kLabel;
  probe.label_key = std::move(key);
  probe.op = op;
  probe.constant = Value::Int(constant);
  return probe;
}

ZonePredicate Pred(ZoneProbe probe) {
  ZonePredicate pred;
  pred.probes.push_back(std::move(probe));
  return pred;
}

// ---------- ZoneMapStore ----------

TEST(ZoneMapStoreTest, RangeRefutationPerOperator) {
  ZoneMapStore store(1);
  for (int i = 0; i <= 9; ++i) {
    store.WidenTuple(0, Tuple({Value::Int(i)}));  // Page 0 holds 0..9.
  }
  EXPECT_TRUE(store.CanSkip(0, Pred(ColumnProbe(0, ZoneOp::kEq,
                                                Value::Int(100)))));
  EXPECT_FALSE(store.CanSkip(0, Pred(ColumnProbe(0, ZoneOp::kEq,
                                                 Value::Int(5)))));
  EXPECT_TRUE(store.CanSkip(0, Pred(ColumnProbe(0, ZoneOp::kGe,
                                                Value::Int(10)))));
  EXPECT_FALSE(store.CanSkip(0, Pred(ColumnProbe(0, ZoneOp::kGe,
                                                 Value::Int(9)))));
  EXPECT_TRUE(store.CanSkip(0, Pred(ColumnProbe(0, ZoneOp::kGt,
                                                Value::Int(9)))));
  EXPECT_TRUE(store.CanSkip(0, Pred(ColumnProbe(0, ZoneOp::kLt,
                                                Value::Int(0)))));
  EXPECT_FALSE(store.CanSkip(0, Pred(ColumnProbe(0, ZoneOp::kLe,
                                                 Value::Int(0)))));
  // Untracked pages are never skipped, whatever the probe.
  EXPECT_FALSE(store.CanSkip(7, Pred(ColumnProbe(0, ZoneOp::kEq,
                                                 Value::Int(100)))));
}

TEST(ZoneMapStoreTest, AllNullColumnIsRefutable) {
  ZoneMapStore store(2);
  store.WidenTuple(0, Tuple({Value::Int(1), Value::Null()}));
  // Column 1 has no non-NULL value: any comparison on it is NULL for
  // every row, so the page cannot contribute.
  EXPECT_TRUE(store.CanSkip(0, Pred(ColumnProbe(1, ZoneOp::kEq,
                                                Value::Int(0)))));
  EXPECT_FALSE(store.CanSkip(0, Pred(ColumnProbe(0, ZoneOp::kEq,
                                                 Value::Int(1)))));
}

TEST(ZoneMapStoreTest, StaleBoundsStayUsableUntilRebuilt) {
  ZoneMapStore store(1);
  store.WidenTuple(3, Tuple({Value::Int(50)}));
  store.MarkStale(3);
  // Stale means "possibly loose", never "possibly wrong": the old bounds
  // still refute safely.
  EXPECT_TRUE(store.CanSkip(3, Pred(ColumnProbe(0, ZoneOp::kGt,
                                                Value::Int(50)))));
  EXPECT_EQ(store.StalePages(), std::vector<PageId>{3});
  PageZone rebuilt;
  rebuilt.columns.resize(1);
  rebuilt.Widen(Tuple({Value::Int(50)}));
  store.ReplacePage(3, std::move(rebuilt));
  EXPECT_TRUE(store.StalePages().empty());
  // Marking an untracked page is a no-op.
  store.MarkStale(99);
  EXPECT_TRUE(store.StalePages().empty());
}

TEST(ZoneMapStoreTest, RebuiltEmptyPageSkipsEverything) {
  ZoneMapStore store(1);
  store.WidenTuple(0, Tuple({Value::Int(1)}));
  PageZone empty;  // All versions GC'd: any_rows stays false.
  store.ReplacePage(0, std::move(empty));
  EXPECT_TRUE(store.CanSkip(0, Pred(ColumnProbe(0, ZoneOp::kGe,
                                                Value::Int(-1000)))));
  EXPECT_TRUE(store.CanSkip(0, Pred(LabelProbe("c.disease", ZoneOp::kGe,
                                               0))));
}

TEST(ZoneMapStoreTest, LabelBoundsAndMissingLabels) {
  ZoneMapStore store(1);
  store.WidenTuple(0, Tuple({Value::Int(1)}));
  store.WidenLabels(0, {{"classbird1.disease", 2},
                        {"classbird1.disease", 5}});
  EXPECT_FALSE(store.CanSkip(0, Pred(LabelProbe("classbird1.disease",
                                                ZoneOp::kGe, 3))));
  EXPECT_TRUE(store.CanSkip(0, Pred(LabelProbe("classbird1.disease",
                                               ZoneOp::kGt, 5))));
  // A tracked page with no entry for the label carries no such
  // annotation on any row: skippable.
  EXPECT_TRUE(store.CanSkip(0, Pred(LabelProbe("classbird1.behavior",
                                               ZoneOp::kGe, 1))));
}

TEST(ZoneMapStoreTest, SkipFractionTracksRefutablePages) {
  ZoneMapStore store(1);
  for (PageId p = 0; p < 10; ++p) {
    store.WidenTuple(p, Tuple({Value::Int(static_cast<int64_t>(p) * 10)}));
    store.WidenTuple(p,
                     Tuple({Value::Int(static_cast<int64_t>(p) * 10 + 9)}));
  }
  // id >= 80 keeps pages 8 and 9 of 10.
  const double frac = store.EstimateSkipFraction(
      Pred(ColumnProbe(0, ZoneOp::kGe, Value::Int(80))), 10);
  EXPECT_NEAR(frac, 0.8, 1e-9);
  EXPECT_DOUBLE_EQ(store.EstimateSkipFraction(ZonePredicate{}, 10), 0.0);
}

// ---------- Table-level pruning ----------

class TableZoneTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 4000;

  TableZoneTest()
      : storage(StorageManager::Backend::kMemory),
        pool(&storage, 4096),
        catalog(&storage, &pool) {
    table = *catalog.CreateTable("Events",
                                 Schema({{"id", ValueType::kInt64},
                                         {"grp", ValueType::kInt64}}));
    for (int i = 0; i < kRows; ++i) {
      EXPECT_TRUE(
          table->Insert(Tuple({Value::Int(i), Value::Int(i % 13)})).ok());
    }
  }

  std::vector<int64_t> RunScan(bool prune, int64_t bound,
                               uint64_t* pages_skipped) {
    auto scan = std::make_unique<SeqScanOp>(table);
    SeqScanOp* raw = scan.get();
    if (prune) {
      raw->SetZonePredicate(
          Pred(ColumnProbe(0, ZoneOp::kGe, Value::Int(bound))));
    }
    SelectOp select(std::move(scan),
                    Cmp(Col("id"), CompareOp::kGe, Lit(Value::Int(bound))));
    auto rows = CollectRows(&select);
    EXPECT_TRUE(rows.ok());
    std::vector<int64_t> ids;
    for (const Row& row : *rows) ids.push_back(row.data.at(0).AsInt());
    std::sort(ids.begin(), ids.end());
    if (pages_skipped != nullptr) *pages_skipped = raw->pages_skipped();
    return ids;
  }

  StorageManager storage;
  BufferPool pool;
  Catalog catalog;
  Table* table;
};

TEST_F(TableZoneTest, PrunedScanMatchesUnprunedAndSkipsPages) {
  ASSERT_GT(table->heap_pages(), 4u);
  uint64_t skipped = 0;
  const auto unpruned = RunScan(false, kRows - 50, nullptr);
  const auto pruned = RunScan(true, kRows - 50, &skipped);
  EXPECT_EQ(pruned, unpruned);
  EXPECT_EQ(pruned.size(), 50u);
  EXPECT_GT(skipped, 0u);
  EXPECT_LT(skipped, table->heap_pages());
}

TEST_F(TableZoneTest, AnalyzeAnnotationReportsPagesSkipped) {
  auto scan = std::make_unique<SeqScanOp>(table);
  scan->SetZonePredicate(
      Pred(ColumnProbe(0, ZoneOp::kGe, Value::Int(kRows - 10))));
  ASSERT_TRUE(CollectRows(scan.get()).ok());
  EXPECT_NE(scan->AnalyzeAnnotation().find("pages_skipped="),
            std::string::npos);
  EXPECT_GT(scan->pages_skipped(), 0u);
}

TEST_F(TableZoneTest, MaintenanceTightensAfterDeletes) {
  // Deleting the tail only loosens (stale marks); maintenance re-derives
  // from the stored versions. Results stay exact throughout.
  for (Oid oid = kRows - 499; oid <= kRows; ++oid) {
    ASSERT_TRUE(table->Delete(oid).ok());
  }
  uint64_t skipped = 0;
  EXPECT_TRUE(RunScan(true, kRows - 100, &skipped).empty());
  ASSERT_TRUE(table->MaintainZoneMaps().ok());
  EXPECT_TRUE(RunScan(true, kRows - 100, &skipped).empty());
  const auto live = RunScan(true, kRows - 600, nullptr);
  ASSERT_EQ(live.size(), 100u);  // Ids kRows-600 .. kRows-501 survive.
  EXPECT_EQ(live.front(), kRows - 600);
  EXPECT_EQ(live.back(), kRows - 501);
}

// ---------- MVCC hazards through the SQL surface ----------

TEST(ZoneMvccTest, RolledBackInsertNeverFalseSkips) {
  Database db;
  ASSERT_TRUE(db.CreateTable("Events",
                             Schema({{"id", ValueType::kInt64}}))
                  .ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(db.Insert("Events", Tuple({Value::Int(i)})).ok());
  }
  uint64_t txn = 0;
  ASSERT_TRUE(db.Execute("BEGIN", &txn).ok());
  ASSERT_TRUE(db.Execute("INSERT INTO Events VALUES (100000)", &txn).ok());
  ASSERT_TRUE(db.Execute("ROLLBACK", &txn).ok());

  // The rolled-back row widened some page's bounds (widen-only: legal,
  // just loose) — it must never surface, pruned or not.
  auto ghost = db.Execute("SELECT id FROM Events WHERE id >= 99999");
  ASSERT_TRUE(ghost.ok()) << ghost.status().ToString();
  EXPECT_TRUE(ghost->rows.empty());

  // Maintenance tightens; live rows stay visible, the ghost stays gone.
  ASSERT_TRUE(db.MaintainZoneMaps().ok());
  ghost = db.Execute("SELECT id FROM Events WHERE id >= 99999");
  ASSERT_TRUE(ghost.ok());
  EXPECT_TRUE(ghost->rows.empty());
  auto live = db.Execute("SELECT id FROM Events WHERE id >= 1995");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->rows.size(), 5u);
}

TEST(ZoneMvccTest, DeleteThenMaintainKeepsScansExact) {
  Database db;
  ASSERT_TRUE(db.CreateTable("Events",
                             Schema({{"id", ValueType::kInt64}}))
                  .ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(db.Insert("Events", Tuple({Value::Int(i)})).ok());
  }
  for (Oid oid = 501; oid <= 1000; ++oid) {  // Ids 500..999.
    ASSERT_TRUE(db.DeleteTuple("Events", oid).ok());
  }
  auto tail = db.Execute("SELECT id FROM Events WHERE id >= 500");
  ASSERT_TRUE(tail.ok());
  EXPECT_TRUE(tail->rows.empty());
  ASSERT_TRUE(db.MaintainZoneMaps().ok());
  tail = db.Execute("SELECT id FROM Events WHERE id >= 500");
  ASSERT_TRUE(tail.ok());
  EXPECT_TRUE(tail->rows.empty());
  auto head = db.Execute("SELECT id FROM Events WHERE id < 500");
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->rows.size(), 500u);
}

// ---------- Label-probe pruning through the optimizer ----------

class LabelZoneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("Birds",
                                Schema({{"id", ValueType::kInt64},
                                        {"name", ValueType::kString}}))
                    .ok());
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(db_.Insert("Birds",
                             Tuple({Value::Int(i),
                                    Value::String("bird" +
                                                  std::to_string(i))}))
                      .ok());
    }
    ASSERT_TRUE(db_.DefineClassifier("ClassViral",
                                     {"Disease/Viral", "Disease/Bacterial",
                                      "Other"},
                                     {{"viralword flu", "Disease/Viral"},
                                      {"bacterialword strep",
                                       "Disease/Bacterial"},
                                      {"otherword misc", "Other"}})
                    .ok());
    // Not indexable: the optimizer has no summary index to prefer, so
    // the label predicate rides the (zone-pruned) sequential scan.
    ASSERT_TRUE(db_.LinkInstance("Birds", "ClassViral", false).ok());
    for (Oid oid = 1; oid <= 5; ++oid) {
      ASSERT_TRUE(db_.Annotate("Birds", "viralword case note",
                               {{oid, CellMask(1)}})
                      .ok());
    }
  }

  Database db_;
};

TEST_F(LabelZoneTest, LeafLabelPredicateSkipsUnannotatedPages) {
  const uint64_t before = EngineMetrics::Get().scan_pages_skipped->value();
  auto result = db_.Execute(
      "SELECT id FROM Birds WHERE "
      "$.getSummaryObject('ClassViral').getLabelValue('Disease/Viral') "
      ">= 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 5u);
  EXPECT_GT(EngineMetrics::Get().scan_pages_skipped->value(), before);
}

TEST_F(LabelZoneTest, InnerHierarchicalLabelNeverFalseSkips) {
  // 'Disease' resolves by subtree sum over Disease/Viral +
  // Disease/Bacterial; the zone maps carry inner-prefix sums too, so
  // pruning must keep exactly the annotated rows.
  auto result = db_.Execute(
      "SELECT id FROM Birds WHERE "
      "$.getSummaryObject('ClassViral').getLabelValue('Disease') >= 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 5u);
}

TEST_F(LabelZoneTest, ExplainAnalyzeReportsPagesSkipped) {
  auto plan = db_.ExplainAnalyze("SELECT id FROM Birds WHERE id >= 1990");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("pages_skipped="), std::string::npos) << *plan;
}

// ---------- Rebuild through recovery ----------

TEST(ZoneRecoveryTest, ReplayRepopulatesZoneMaps) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "zone_recovery_test")
          .string();
  std::filesystem::remove_all(dir);
  Database::Options options;
  options.backend = StorageManager::Backend::kFile;
  options.directory = dir;
  {
    auto db = Database::Open(dir, options).ValueOrDie();
    ASSERT_TRUE(db->CreateTable("Events",
                                Schema({{"id", ValueType::kInt64}}))
                    .ok());
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(db->Insert("Events", Tuple({Value::Int(i)})).ok());
    }
    ASSERT_TRUE(db->WalSync().ok());
  }
  auto db = Database::Open(dir, options).ValueOrDie();
  // Zone maps are derived state: replay rebuilt them through the normal
  // insert path, so the selective scan both prunes and stays exact.
  const uint64_t before = EngineMetrics::Get().scan_pages_skipped->value();
  auto result = db->Execute("SELECT id FROM Events WHERE id >= 1990");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 10u);
  EXPECT_GT(EngineMetrics::Get().scan_pages_skipped->value(), before);
  auto all = db->Execute("SELECT id FROM Events");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows.size(), 2000u);
  db.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace insight
