// Online statistics subsystem tests, bottom-up:
//  1. Sketch math: HyperLogLog error bounds across scales, Count-Min
//     over/underestimate guarantees, merge algebra (associative and
//     commutative by exact register/cell equality), serialization.
//  2. DML-maintained TableSketches: inserts, deletes, MVCC rollback
//     compensation, per-label summary sketches, the staleness clock.
//  3. Optimizer tiering: stale histograms are overridden by fresh sketch
//     answers, EXPLAIN ANALYZE attributes the estimate source.
//  4. Durability: WAL-tail replay and checkpoint-image restore rebuild
//     the sketches a from-scratch load of the same data would produce.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/serde.h"
#include "obs/metrics.h"
#include "sql/database.h"
#include "stats/sketch.h"
#include "stats/sketch_registry.h"

namespace insight {
namespace {

double RelErr(double est, double truth) {
  return std::abs(est - truth) / truth;
}

/// Deterministic pseudo-distinct hash stream: key i of stream `seed`.
uint64_t StreamHash(uint64_t seed, uint64_t i) {
  return SketchMix64(seed * 0x9e3779b97f4a7c15ULL + i);
}

void FillHll(HyperLogLog* hll, uint64_t seed, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) hll->AddHash(StreamHash(seed, i));
}

// ---------- 1. Sketch math ----------

TEST(HyperLogLogTest, ErrorBoundsAcrossScales) {
  // 4096 registers give ~1.6% standard error; the inputs are
  // deterministic, so 5% of slack keeps this stable, not flaky.
  for (uint64_t n : {uint64_t{1000}, uint64_t{100000}, uint64_t{1000000}}) {
    HyperLogLog hll;
    FillHll(&hll, /*seed=*/n, n);
    EXPECT_LT(RelErr(hll.Estimate(), static_cast<double>(n)), 0.05)
        << "n=" << n << " est=" << hll.Estimate();
  }
}

TEST(HyperLogLogTest, DuplicatesDoNotInflateTheEstimate) {
  HyperLogLog once;
  FillHll(&once, 7, 5000);
  HyperLogLog thrice;
  for (int round = 0; round < 3; ++round) FillHll(&thrice, 7, 5000);
  EXPECT_TRUE(once.SameRegisters(thrice));
}

TEST(HyperLogLogTest, MergeIsAssociativeAndCommutative) {
  // (A + B) + C, A + (B + C), and (C + A) + B must agree register-for-
  // register, and all must equal the sketch of the concatenated stream.
  const uint64_t kPer = 20000;
  HyperLogLog left;   // (A + B) + C
  HyperLogLog right;  // A + (B + C)
  HyperLogLog mixed;  // (C + A) + B
  {
    HyperLogLog a, b, c;
    FillHll(&a, 1, kPer);
    FillHll(&b, 2, kPer);
    FillHll(&c, 3, kPer);
    left.Merge(a);
    left.Merge(b);
    left.Merge(c);
    HyperLogLog bc;
    bc.Merge(b);
    bc.Merge(c);
    right.Merge(a);
    right.Merge(bc);
    mixed.Merge(c);
    mixed.Merge(a);
    mixed.Merge(b);
  }
  HyperLogLog all;
  FillHll(&all, 1, kPer);
  FillHll(&all, 2, kPer);
  FillHll(&all, 3, kPer);
  EXPECT_TRUE(left.SameRegisters(right));
  EXPECT_TRUE(left.SameRegisters(mixed));
  EXPECT_TRUE(left.SameRegisters(all));
  EXPECT_LT(RelErr(left.Estimate(), 3.0 * kPer), 0.05);
}

TEST(CountMinTest, NeverUnderestimatesAndOverestimateIsBounded) {
  CountMinSketch cms;
  const uint64_t kKeys = 2000;
  int64_t total = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    const int64_t freq = static_cast<int64_t>(k % 13) + 1;
    cms.AddHash(StreamHash(11, k), freq);
    total += freq;
  }
  EXPECT_EQ(cms.total(), total);
  for (uint64_t k = 0; k < kKeys; ++k) {
    const int64_t truth = static_cast<int64_t>(k % 13) + 1;
    const int64_t est = cms.EstimateHash(StreamHash(11, k));
    EXPECT_GE(est, truth) << "k=" << k;
    // Classic bound: overestimate <= eps * N with eps ~ 2/width; allow
    // 1% of N, far above the expected collision mass.
    EXPECT_LE(est, truth + total / 100) << "k=" << k;
  }
}

TEST(CountMinTest, DeletesRestoreTheExactPriorState) {
  CountMinSketch cms;
  CountMinSketch reference;
  for (uint64_t k = 0; k < 500; ++k) {
    cms.AddHash(StreamHash(5, k), 3);
    reference.AddHash(StreamHash(5, k), 3);
  }
  // A txn-abort style compensation: add then subtract the same deltas.
  for (uint64_t k = 0; k < 200; ++k) cms.AddHash(StreamHash(6, k), 7);
  for (uint64_t k = 0; k < 200; ++k) cms.AddHash(StreamHash(6, k), -7);
  EXPECT_TRUE(cms.SameCells(reference));
  EXPECT_EQ(cms.total(), reference.total());
}

TEST(CountMinTest, MergeIsAssociativeAndCommutative) {
  auto fill = [](CountMinSketch* cms, uint64_t seed, uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      cms->AddHash(StreamHash(seed, i), static_cast<int64_t>(i % 5) + 1);
    }
  };
  CountMinSketch left, right, all;
  {
    CountMinSketch a, b, c;
    fill(&a, 1, 300);
    fill(&b, 2, 300);
    fill(&c, 3, 300);
    left.Merge(a);
    left.Merge(b);
    left.Merge(c);
    CountMinSketch cb;
    cb.Merge(c);
    cb.Merge(b);
    right.Merge(cb);
    right.Merge(a);
  }
  fill(&all, 1, 300);
  fill(&all, 2, 300);
  fill(&all, 3, 300);
  EXPECT_TRUE(left.SameCells(right));
  EXPECT_TRUE(left.SameCells(all));
}

TEST(SketchSerdeTest, HyperLogLogRoundTrip) {
  HyperLogLog hll;
  FillHll(&hll, 9, 50000);
  std::string blob;
  hll.Serialize(&blob);
  HyperLogLog restored;
  SerdeReader reader(blob);
  ASSERT_TRUE(restored.Deserialize(&reader).ok());
  EXPECT_TRUE(restored.SameRegisters(hll));
  EXPECT_DOUBLE_EQ(restored.Estimate(), hll.Estimate());
}

TEST(SketchSerdeTest, CountMinRoundTrip) {
  CountMinSketch cms;
  for (uint64_t k = 0; k < 1000; ++k) {
    cms.AddHash(StreamHash(4, k), static_cast<int64_t>(k % 7));
  }
  std::string blob;
  cms.Serialize(&blob);
  CountMinSketch restored;
  SerdeReader reader(blob);
  ASSERT_TRUE(restored.Deserialize(&reader).ok());
  EXPECT_TRUE(restored.SameCells(cms));
  EXPECT_EQ(restored.total(), cms.total());
}

TEST(SketchSerdeTest, CorruptHeadersAreRejected) {
  HyperLogLog hll;
  std::string blob;
  hll.Serialize(&blob);
  blob[0] = static_cast<char>(blob[0] + 1);  // Wrong precision.
  HyperLogLog restored;
  SerdeReader reader(blob);
  EXPECT_FALSE(restored.Deserialize(&reader).ok());

  CountMinSketch cms;
  std::string cms_blob;
  cms.Serialize(&cms_blob);
  cms_blob[0] = static_cast<char>(cms_blob[0] + 1);  // Wrong width.
  CountMinSketch cms_restored;
  SerdeReader cms_reader(cms_blob);
  EXPECT_FALSE(cms_restored.Deserialize(&cms_reader).ok());

  // Truncation underflows the reader.
  std::string truncated;
  hll.Serialize(&truncated);
  truncated.resize(truncated.size() / 2);
  SerdeReader short_reader(truncated);
  EXPECT_FALSE(restored.Deserialize(&short_reader).ok());
}

// ---------- 2. DML-maintained TableSketches ----------

class StatsDmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        db_.Execute("CREATE TABLE Birds (id INT, family TEXT)").ok());
    ASSERT_TRUE(db_.DefineClassifier("C", {"Disease", "Other"},
                                     {{"diseaseword infection", "Disease"},
                                      {"otherword note", "Other"}})
                    .ok());
    ASSERT_TRUE(db_.Execute("ALTER TABLE Birds ADD INDEXABLE C").ok());
    sketches_ = db_.sketch_registry()->Find("Birds");
    ASSERT_NE(sketches_, nullptr);
  }

  Status InsertBird(int64_t id, const std::string& family) {
    return db_
        .Insert("Birds", Tuple({Value::Int(id), Value::String(family)}))
        .status();
  }

  Database db_;
  TableSketches* sketches_ = nullptr;
};

TEST_F(StatsDmlTest, RowAndFrequencyCountsFollowDml) {
  for (int i = 0; i < 100; ++i) {
    // Skewed family column: f0 gets 60, f1..f4 get 10 each.
    ASSERT_TRUE(
        InsertBird(i, i < 60 ? "f0" : "f" + std::to_string(i % 4 + 1))
            .ok());
  }
  EXPECT_EQ(sketches_->rows(), 100);
  EXPECT_TRUE(sketches_->HasData());
  EXPECT_GE(sketches_->ColumnFrequency("family", Value::String("f0")), 60);
  EXPECT_LE(sketches_->ColumnFrequency("family", Value::String("f0")), 70);
  // Unknown column: sentinel, not a guess.
  EXPECT_LT(sketches_->ColumnFrequency("nosuch", Value::Int(1)), 0);

  // Deletes subtract the same per-row deltas.
  for (Oid oid = 1; oid <= 10; ++oid) {
    ASSERT_TRUE(db_.DeleteTuple("Birds", oid).ok());
  }
  EXPECT_EQ(sketches_->rows(), 90);
  EXPECT_GE(sketches_->ColumnFrequency("family", Value::String("f0")), 50);
  EXPECT_LE(sketches_->ColumnFrequency("family", Value::String("f0")), 60);

  // ndistinct of id ~ 100 (HLL is exact at this scale's low end).
  EXPECT_LT(RelErr(sketches_->ColumnDistinct("id"), 100.0), 0.05);
}

TEST_F(StatsDmlTest, LabelSketchesTrackAnnotations) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(InsertBird(i, "f" + std::to_string(i % 3)).ok());
  }
  for (Oid oid = 1; oid <= 8; ++oid) {
    ASSERT_TRUE(db_.Execute("ANNOTATE Birds TUPLE " + std::to_string(oid) +
                            " WITH 'diseaseword infection seen'")
                    .ok());
  }
  EXPECT_EQ(sketches_->InstanceObjects("C"), 8);
  // Every annotated tuple has Disease count 1.
  EXPECT_GE(sketches_->LabelFrequency("C", "Disease", 1), 8);
  EXPECT_LT(sketches_->LabelFrequency("C", "nosuch", 1), 0);
  EXPECT_GE(sketches_->LabelDistinct("C", "Disease"), 1.0);

  // A second annotation on one tuple bumps its count to 2: the old
  // (count=1) observation is retracted, the new one added.
  ASSERT_TRUE(
      db_.Execute("ANNOTATE Birds TUPLE 1 WITH 'diseaseword again'").ok());
  EXPECT_EQ(sketches_->InstanceObjects("C"), 8);
  EXPECT_GE(sketches_->LabelFrequency("C", "Disease", 2), 1);
  EXPECT_LE(sketches_->LabelFrequency("C", "Disease", 1), 7 + 1);
}

TEST_F(StatsDmlTest, RollbackLeavesEveryCountUntouched) {
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(InsertBird(i, "f" + std::to_string(i % 3)).ok());
  }
  ASSERT_TRUE(
      db_.Execute("ANNOTATE Birds TUPLE 2 WITH 'diseaseword base'").ok());
  const int64_t rows_before = sketches_->rows();
  const int64_t f0_before =
      sketches_->ColumnFrequency("family", Value::String("f0"));
  const int64_t objects_before = sketches_->InstanceObjects("C");
  const int64_t disease1_before = sketches_->LabelFrequency("C", "Disease", 1);

  uint64_t txn = 0;
  ASSERT_TRUE(db_.Execute("BEGIN", &txn).ok());
  for (int i = 100; i < 120; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO Birds VALUES (" +
                                std::to_string(i) + ", 'f0')",
                            &txn)
                    .ok());
  }
  ASSERT_TRUE(
      db_.Execute("ANNOTATE Birds TUPLE 3 WITH 'diseaseword doomed'", &txn)
          .ok());
  // The transaction's own writes are visible to estimation mid-flight...
  EXPECT_EQ(sketches_->rows(), rows_before + 20);
  ASSERT_TRUE(db_.Execute("ROLLBACK", &txn).ok());

  // ...and fully compensated on abort.
  EXPECT_EQ(sketches_->rows(), rows_before);
  EXPECT_EQ(sketches_->ColumnFrequency("family", Value::String("f0")),
            f0_before);
  EXPECT_EQ(sketches_->InstanceObjects("C"), objects_before);
  EXPECT_EQ(sketches_->LabelFrequency("C", "Disease", 1), disease1_before);
}

TEST_F(StatsDmlTest, CommitAppliesTheDeferredDistinctInserts) {
  uint64_t txn = 0;
  ASSERT_TRUE(db_.Execute("BEGIN", &txn).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO Birds VALUES (" +
                                std::to_string(i) + ", 'f0')",
                            &txn)
                    .ok());
  }
  // HLL inserts are deferred to commit (they cannot be undone).
  EXPECT_LT(sketches_->ColumnDistinct("id"), 5.0);
  ASSERT_TRUE(db_.Execute("COMMIT", &txn).ok());
  EXPECT_LT(RelErr(sketches_->ColumnDistinct("id"), 50.0), 0.05);
}

TEST_F(StatsDmlTest, StalenessClockFollowsAnalyzeAndChurn) {
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(InsertBird(i, "f0").ok());
  // Never analyzed: always stale.
  EXPECT_TRUE(sketches_->StaleSince(0.1));
  ASSERT_TRUE(db_.Analyze("Birds").ok());
  EXPECT_FALSE(sketches_->StaleSince(0.1));
  EXPECT_EQ(sketches_->analyzed_rows(), 100u);
  // 5 more ops: 5% churn, under the 10% threshold.
  for (int i = 100; i < 105; ++i) ASSERT_TRUE(InsertBird(i, "f0").ok());
  EXPECT_FALSE(sketches_->StaleSince(0.1));
  EXPECT_TRUE(sketches_->StaleSince(0.01));
  // 20 more: past 10%.
  for (int i = 105; i < 125; ++i) ASSERT_TRUE(InsertBird(i, "f0").ok());
  EXPECT_TRUE(sketches_->StaleSince(0.1));
  // Re-ANALYZE resets the clock.
  ASSERT_TRUE(db_.Analyze("Birds").ok());
  EXPECT_FALSE(sketches_->StaleSince(0.1));
  EXPECT_EQ(sketches_->analyzed_rows(), 125u);
}

TEST_F(StatsDmlTest, DisabledGateFreezesTheSketches) {
  ASSERT_TRUE(InsertBird(0, "f0").ok());
  EXPECT_EQ(sketches_->rows(), 1);
  SetStatsEnabled(false);
  const Status inserted = InsertBird(1, "f0");
  SetStatsEnabled(true);
  ASSERT_TRUE(inserted.ok());
  // The write went through; the sketches never saw it.
  EXPECT_EQ(sketches_->rows(), 1);
}

TEST_F(StatsDmlTest, EngineCountersFollowSketchWork) {
  EngineMetrics& m = EngineMetrics::Get();
  const uint64_t updates_before = m.stats_sketch_updates->value();
  ASSERT_TRUE(InsertBird(1, "Anatidae").ok());
  ASSERT_TRUE(InsertBird(2, "Corvidae").ok());
  EXPECT_GE(m.stats_sketch_updates->value(), updates_before + 2);

  // An estimated plan attributes itself to exactly one statistics tier.
  const uint64_t est_before =
      m.stats_sketch_estimates->value() + m.stats_histogram_estimates->value();
  ASSERT_TRUE(
      db_.ExplainAnalyze("SELECT * FROM Birds WHERE family = 'Anatidae'")
          .ok());
  EXPECT_GT(
      m.stats_sketch_estimates->value() + m.stats_histogram_estimates->value(),
      est_before);

  // The disabled gate freezes the update counter along with the sketches.
  SetStatsEnabled(false);
  const uint64_t frozen = m.stats_sketch_updates->value();
  const Status inserted = InsertBird(3, "Laridae");
  SetStatsEnabled(true);
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(m.stats_sketch_updates->value(), frozen);
}

TEST_F(StatsDmlTest, RegistrySerializeRestoreRoundTrip) {
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(InsertBird(i, "f" + std::to_string(i % 4)).ok());
  }
  for (Oid oid = 1; oid <= 5; ++oid) {
    ASSERT_TRUE(db_.Execute("ANNOTATE Birds TUPLE " + std::to_string(oid) +
                            " WITH 'diseaseword x'")
                    .ok());
  }
  const std::string image = db_.sketch_registry()->Serialize();

  Database other;
  ASSERT_TRUE(
      other.Execute("CREATE TABLE Birds (id INT, family TEXT)").ok());
  TableSketches* restored = other.sketch_registry()->Find("Birds");
  ASSERT_NE(restored, nullptr);
  ASSERT_TRUE(other.sketch_registry()->Restore(image).ok());
  EXPECT_EQ(restored->rows(), sketches_->rows());
  EXPECT_EQ(restored->ColumnFrequency("family", Value::String("f0")),
            sketches_->ColumnFrequency("family", Value::String("f0")));
  EXPECT_DOUBLE_EQ(restored->ColumnDistinct("id"),
                   sketches_->ColumnDistinct("id"));
  EXPECT_EQ(restored->InstanceObjects("C"), sketches_->InstanceObjects("C"));
  EXPECT_EQ(restored->LabelFrequency("C", "Disease", 1),
            sketches_->LabelFrequency("C", "Disease", 1));

  // A truncated image is corruption, not a partial restore.
  EXPECT_FALSE(other.sketch_registry()
                   ->Restore(std::string_view(image).substr(
                       0, image.size() / 2))
                   .ok());
}

// ---------- 3. Optimizer tiering ----------

TEST_F(StatsDmlTest, SketchTierOverridesStaleHistograms) {
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(InsertBird(i, "f0").ok());
  ASSERT_TRUE(db_.Analyze("Birds").ok());
  const RelationInfo* info = *db_.context()->Get("Birds");
  const SketchPolicy on{true};
  const SketchPolicy off{false};

  // Fresh histograms: both policies answer from them.
  EXPECT_EQ(info->Source(on), EstimateSource::kHistogram);
  EXPECT_DOUBLE_EQ(info->EstimatedRows(on), 100.0);

  // 5x growth behind the histograms' back.
  for (int i = 100; i < 500; ++i) ASSERT_TRUE(InsertBird(i, "f1").ok());
  EXPECT_EQ(info->Source(on), EstimateSource::kSketch);
  EXPECT_DOUBLE_EQ(info->EstimatedRows(on), 500.0);
  // The histogram tier still reports the stale snapshot.
  EXPECT_EQ(info->Source(off), EstimateSource::kHistogram);
  EXPECT_DOUBLE_EQ(info->EstimatedRows(off), 100.0);

  // Selectivity of family='f0': truth is 100/500. The stale histogram
  // says 1.0 (all analyzed rows were f0); the sketch tier is within a
  // few percent of truth.
  const double sel_on =
      info->ColumnSelectivity(on, "family", CompareOp::kEq,
                              Value::String("f0"), 1.0 / 3);
  const double sel_off =
      info->ColumnSelectivity(off, "family", CompareOp::kEq,
                              Value::String("f0"), 1.0 / 3);
  EXPECT_LT(RelErr(sel_on, 0.2), 0.10);
  EXPECT_GT(sel_off, 0.9);
}

TEST_F(StatsDmlTest, NeverAnalyzedTableStillGetsSketchAnswers) {
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(InsertBird(i, i < 180 ? "f0" : "f1").ok());
  }
  const RelationInfo* info = *db_.context()->Get("Birds");
  const SketchPolicy on{true};
  ASSERT_FALSE(info->stats.has_value());
  EXPECT_TRUE(info->SketchTierActive(on));
  EXPECT_EQ(info->Source(on), EstimateSource::kSketch);
  const double sel = info->ColumnSelectivity(
      on, "family", CompareOp::kEq, Value::String("f0"), 1.0 / 3);
  EXPECT_LT(RelErr(sel, 0.9), 0.10);
}

TEST_F(StatsDmlTest, ExplainAnalyzeAttributesTheEstimateSource) {
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(InsertBird(i, "f0").ok());
  ASSERT_TRUE(db_.Analyze("Birds").ok());
  auto fresh = db_.ExplainAnalyze("SELECT id FROM Birds WHERE id < 50");
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh->find("src=histogram"), std::string::npos) << *fresh;

  for (int i = 100; i < 500; ++i) ASSERT_TRUE(InsertBird(i, "f1").ok());
  auto stale = db_.ExplainAnalyze("SELECT id FROM Birds WHERE id < 50");
  ASSERT_TRUE(stale.ok());
  EXPECT_NE(stale->find("src=sketch"), std::string::npos) << *stale;
}

// ---------- 4. Durability ----------

std::string MakeTempDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  std::string dir = ::testing::TempDir() + "/insight_stats_" + tag + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  return dir;
}

/// Loads the canonical annotated workload into `db`: `rows` birds over 5
/// families, every third tuple annotated with a disease keyword.
void LoadWorkload(Database* db, int rows) {
  for (int i = 0; i < rows; ++i) {
    ASSERT_TRUE(db->Execute("INSERT INTO Birds VALUES (" +
                            std::to_string(i) + ", 'f" +
                            std::to_string(i % 5) + "')")
                    .ok());
  }
  for (int i = 1; i <= rows; i += 3) {
    ASSERT_TRUE(db->Execute("ANNOTATE Birds TUPLE " + std::to_string(i) +
                            " WITH 'diseaseword infection'")
                    .ok());
  }
}

Status SetUpWorkloadSchema(Database* db) {
  INSIGHT_RETURN_NOT_OK(
      db->Execute("CREATE TABLE Birds (id INT, family TEXT)").status());
  INSIGHT_RETURN_NOT_OK(
      db->DefineClassifier("C", {"Disease", "Other"},
                           {{"diseaseword infection", "Disease"},
                            {"otherword note", "Other"}}));
  return db->Execute("ALTER TABLE Birds ADD INDEXABLE C").status();
}

/// Asserts `got` answers like `want` — exact on counters (both saw the
/// same logical op stream), within HLL error on distinct estimates.
void ExpectSketchesMatch(TableSketches* got, TableSketches* want,
                         const std::string& context) {
  EXPECT_EQ(got->rows(), want->rows()) << context;
  EXPECT_EQ(got->InstanceObjects("C"), want->InstanceObjects("C"))
      << context;
  for (int f = 0; f < 5; ++f) {
    const std::string family = "f" + std::to_string(f);
    EXPECT_EQ(got->ColumnFrequency("family", Value::String(family)),
              want->ColumnFrequency("family", Value::String(family)))
        << context << " family=" << family;
  }
  EXPECT_EQ(got->LabelFrequency("C", "Disease", 1),
            want->LabelFrequency("C", "Disease", 1))
      << context;
  ASSERT_GT(want->ColumnDistinct("id"), 0) << context;
  EXPECT_LT(RelErr(got->ColumnDistinct("id"), want->ColumnDistinct("id")),
            0.05)
      << context;
}

TEST(StatsDurabilityTest, WalTailReplayRebuildsTheSketches) {
  const std::string dir = MakeTempDir("tail");
  {
    auto db = Database::Open(dir).ValueOrDie();
    ASSERT_TRUE(SetUpWorkloadSchema(db.get()).ok());
    LoadWorkload(db.get(), 120);
    for (Oid oid = 2; oid <= 20; oid += 2) {
      ASSERT_TRUE(db->DeleteTuple("Birds", oid).ok());
    }
  }
  auto recovered = Database::Open(dir).ValueOrDie();
  TableSketches* got = recovered->sketch_registry()->Find("Birds");
  ASSERT_NE(got, nullptr);

  // From-scratch reference fed the same logical history.
  Database reference;
  ASSERT_TRUE(SetUpWorkloadSchema(&reference).ok());
  LoadWorkload(&reference, 120);
  for (Oid oid = 2; oid <= 20; oid += 2) {
    ASSERT_TRUE(reference.DeleteTuple("Birds", oid).ok());
  }
  ExpectSketchesMatch(got, reference.sketch_registry()->Find("Birds"),
                      "tail replay");
}

TEST(StatsDurabilityTest, CheckpointImagePlusTailRebuildsTheSketches) {
  const std::string dir = MakeTempDir("ckpt");
  {
    auto db = Database::Open(dir).ValueOrDie();
    ASSERT_TRUE(SetUpWorkloadSchema(db.get()).ok());
    LoadWorkload(db.get(), 80);
    // The checkpoint snapshot carries the kStatsSketch image...
    ASSERT_TRUE(db->Checkpoint().ok());
    // ...and the tail past it replays through the DML hooks.
    for (int i = 200; i < 240; ++i) {
      ASSERT_TRUE(db->Execute("INSERT INTO Birds VALUES (" +
                              std::to_string(i) + ", 'f0')")
                      .ok());
    }
  }
  auto recovered = Database::Open(dir).ValueOrDie();
  TableSketches* got = recovered->sketch_registry()->Find("Birds");
  ASSERT_NE(got, nullptr);

  Database reference;
  ASSERT_TRUE(SetUpWorkloadSchema(&reference).ok());
  LoadWorkload(&reference, 80);
  for (int i = 200; i < 240; ++i) {
    ASSERT_TRUE(reference.Execute("INSERT INTO Birds VALUES (" +
                                  std::to_string(i) + ", 'f0')")
                    .ok());
  }
  ExpectSketchesMatch(got, reference.sketch_registry()->Find("Birds"),
                      "checkpoint + tail");
  // Recovered databases plan with warm stats: the sketch tier is live
  // without any ANALYZE.
  const RelationInfo* info = *recovered->context()->Get("Birds");
  EXPECT_TRUE(info->SketchTierActive(SketchPolicy{true}));
}

}  // namespace
}  // namespace insight
