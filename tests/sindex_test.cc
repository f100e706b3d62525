#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>

#include "annotation/annotation_store.h"
#include "common/rng.h"
#include "engine/row_batch.h"
#include "index/catalog.h"
#include "index/key_codec.h"
#include "obs/metrics.h"
#include "sindex/baseline_index.h"
#include "sindex/summary_btree.h"
#include "summary/summary_manager.h"

namespace insight {
namespace {

// A classifier whose label is fully determined by a keyword, so tests can
// steer counts deterministically.
std::shared_ptr<NaiveBayesClassifier> KeywordClassifier() {
  auto model = std::make_shared<NaiveBayesClassifier>(
      std::vector<std::string>{"Disease", "Behavior", "Other"});
  model->Train("diseaseword diseaseword diseaseword", "Disease").ok();
  model->Train("behaviorword behaviorword behaviorword", "Behavior").ok();
  model->Train("otherword otherword otherword", "Other").ok();
  return model;
}

class SindexTest : public ::testing::Test {
 protected:
  SindexTest()
      : storage_(StorageManager::Backend::kMemory),
        pool_(&storage_, 4096),
        catalog_(&storage_, &pool_) {
    table_ = *catalog_.CreateTable("Birds",
                                   Schema({{"name", ValueType::kString},
                                           {"family", ValueType::kString}}));
    for (int i = 0; i < 50; ++i) {
      table_
          ->Insert(Tuple({Value::String("bird" + std::to_string(i)),
                          Value::String("fam" + std::to_string(i % 5))}))
          .status();
    }
    store_ = *AnnotationStore::Create(&catalog_, "Birds", 2);
    mgr_ = *SummaryManager::Create(&catalog_, table_, store_.get());
    mgr_->LinkInstance(
            SummaryInstance::Classifier("ClassBird1",
                                        {"Disease", "Behavior", "Other"},
                                        KeywordClassifier()))
        .ok();
  }

  // Adds `n` annotations with the label-steering keyword to tuple `oid`.
  void Annotate(Oid oid, const std::string& kind, int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(
          mgr_->AddAnnotation(kind + "word note " + std::to_string(i),
                              {{oid, CellMask(0)}})
              .ok());
    }
  }

  StorageManager storage_;
  BufferPool pool_;
  Catalog catalog_;
  Table* table_;
  std::unique_ptr<AnnotationStore> store_;
  std::unique_ptr<SummaryManager> mgr_;
};

TEST_F(SindexTest, ItemizationFormat) {
  EXPECT_EQ(SummaryBTree::ItemizeKey("Disease", 8, 3), "Disease:008");
  EXPECT_EQ(SummaryBTree::ItemizeKey("Behavior", 33, 3), "Behavior:033");
  EXPECT_EQ(SummaryBTree::ItemizeKey("X", 0, 3), "X:000");
  // Lexicographic order matches numeric order within one label.
  EXPECT_LT(SummaryBTree::ItemizeKey("D", 9, 3),
            SummaryBTree::ItemizeKey("D", 10, 3));
}

TEST_F(SindexTest, ProbeFindsNegativeZeroAndNanStoredRows) {
  // Key-codec regression, driven through a real index probe: -0.0 used to
  // encode differently from +0.0 under some build modes, and every NaN
  // payload got its own key, so an exact-match probe could miss a stored
  // row entirely.
  Table* t = *catalog_.CreateTable("Weights",
                                   Schema({{"w", ValueType::kDouble}}));
  const Oid neg_zero_oid = *t->Insert(Tuple({Value::Double(-0.0)}));
  const Oid nan_oid = *t->Insert(
      Tuple({Value::Double(-std::numeric_limits<double>::quiet_NaN())}));
  ASSERT_TRUE(t->CreateColumnIndex("w").ok());
  const BTree* idx = t->GetColumnIndex("w");
  ASSERT_NE(idx, nullptr);

  // Probe with the other zero (and the int form): must hit the -0.0 row.
  for (const Value& probe :
       {Value::Double(0.0), Value::Double(-0.0), Value::Int(0)}) {
    auto hits = idx->Lookup(EncodeIndexKey(probe));
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(hits->size(), 1u) << probe.ToString();
    EXPECT_EQ((*hits)[0], neg_zero_oid);
  }
  // Probe with a differently-signed NaN: must hit the NaN row.
  auto nan_hits = idx->Lookup(
      EncodeIndexKey(Value::Double(std::numeric_limits<double>::quiet_NaN())));
  ASSERT_TRUE(nan_hits.ok());
  ASSERT_EQ(nan_hits->size(), 1u);
  EXPECT_EQ((*nan_hits)[0], nan_oid);
}

TEST_F(SindexTest, SearchCountsProbesInEngineMetrics) {
  Annotate(1, "disease", 3);
  Annotate(2, "disease", 5);
  auto index = *SummaryBTree::Create(&storage_, &pool_, mgr_.get(),
                                     "ClassBird1", SummaryBTree::Options{});
  EngineMetrics& m = EngineMetrics::Get();
  const uint64_t probes_before = m.sbtree_probes->value();
  const uint64_t derefs_before = m.sbtree_backward_derefs->value();
  auto hits = index->Search(ClassifierProbe::Equal("Disease", 3));
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ(m.sbtree_probes->value(), probes_before + 1);
  Oid oid;
  ASSERT_TRUE(index->FetchDataTuple((*hits)[0], &oid).ok());
  EXPECT_EQ(oid, 1u);
  EXPECT_GE(m.sbtree_backward_derefs->value(), derefs_before);
}

TEST_F(SindexTest, RejectsNonClassifierInstances) {
  mgr_->LinkInstance(SummaryInstance::Snippet("Snips")).ok();
  auto result = SummaryBTree::Create(&storage_, &pool_, mgr_.get(), "Snips",
                                     SummaryBTree::Options{});
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(SindexTest, EqualitySearchFindsExactCounts) {
  Annotate(1, "disease", 3);
  Annotate(2, "disease", 5);
  Annotate(3, "disease", 3);
  Annotate(4, "behavior", 3);  // Disease count 0.
  auto index = *SummaryBTree::Create(&storage_, &pool_, mgr_.get(),
                                     "ClassBird1", SummaryBTree::Options{});
  auto hits = index->Search(ClassifierProbe::Equal("Disease", 3));
  ASSERT_TRUE(hits.ok());
  std::set<Oid> oids;
  for (const auto& hit : *hits) {
    Oid oid;
    ASSERT_TRUE(index->FetchDataTuple(hit, &oid).ok());
    oids.insert(oid);
  }
  EXPECT_EQ(oids, (std::set<Oid>{1, 3}));

  // Zero-count search finds the behavior-only tuple.
  hits = index->Search(ClassifierProbe::Equal("Disease", 0));
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  Oid oid;
  ASSERT_TRUE(index->FetchDataTuple((*hits)[0], &oid).ok());
  EXPECT_EQ(oid, 4u);
}

TEST_F(SindexTest, RangeSearchOrderedByCount) {
  for (int i = 1; i <= 10; ++i) Annotate(static_cast<Oid>(i), "disease", i);
  auto index = *SummaryBTree::Create(&storage_, &pool_, mgr_.get(),
                                     "ClassBird1", SummaryBTree::Options{});
  auto hits = index->Search(ClassifierProbe::Range("Disease", 4, 7));
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 4u);
  for (size_t i = 0; i < hits->size(); ++i) {
    EXPECT_EQ((*hits)[i].count, static_cast<int64_t>(4 + i));
  }

  // Strict bound: "> 5".
  hits = index->Search(ClassifierProbe::GreaterThan("Disease", 5));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 5u);
  EXPECT_EQ(hits->front().count, 6);

  // "< 3".
  hits = index->Search(ClassifierProbe::LessThan("Disease", 3));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 2u);
}

TEST_F(SindexTest, IncrementalMaintenanceTracksUpdates) {
  auto index = *SummaryBTree::Create(&storage_, &pool_, mgr_.get(),
                                     "ClassBird1", SummaryBTree::Options{});
  Annotate(7, "disease", 1);
  // First annotation inserts all 3 labels.
  EXPECT_EQ(index->maintenance_stats().key_inserts, 3u);
  EXPECT_EQ(index->maintenance_stats().key_deletes, 0u);
  Annotate(7, "disease", 1);
  // Update: one delete + one insert for the modified label only.
  EXPECT_EQ(index->maintenance_stats().key_inserts, 4u);
  EXPECT_EQ(index->maintenance_stats().key_deletes, 1u);

  auto hits = index->Search(ClassifierProbe::Equal("Disease", 2));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
  // Old key gone.
  hits = index->Search(ClassifierProbe::Equal("Disease", 1));
  EXPECT_TRUE(hits->empty());
}

TEST_F(SindexTest, AnnotationRemovalUpdatesIndex) {
  AnnId ann = *mgr_->AddAnnotation("diseaseword x", {{8, 1}});
  Annotate(8, "disease", 1);
  auto index = *SummaryBTree::Create(&storage_, &pool_, mgr_.get(),
                                     "ClassBird1", SummaryBTree::Options{});
  ASSERT_EQ(index->Search(ClassifierProbe::Equal("Disease", 2))->size(), 1u);
  ASSERT_TRUE(mgr_->RemoveAnnotation(ann).ok());
  EXPECT_TRUE(index->Search(ClassifierProbe::Equal("Disease", 2))->empty());
  EXPECT_EQ(index->Search(ClassifierProbe::Equal("Disease", 1))->size(), 1u);
}

TEST_F(SindexTest, TupleDeletionRemovesAllKeys) {
  Annotate(9, "disease", 2);
  auto index = *SummaryBTree::Create(&storage_, &pool_, mgr_.get(),
                                     "ClassBird1", SummaryBTree::Options{});
  EXPECT_EQ(index->num_entries(), 3u);
  ASSERT_TRUE(mgr_->OnTupleDeleted(9).ok());
  EXPECT_EQ(index->num_entries(), 0u);
}

TEST_F(SindexTest, BulkBuildMatchesIncrementalBuild) {
  Rng rng(5);
  std::map<Oid, int> expected_disease;
  for (int i = 0; i < 30; ++i) {
    const Oid oid = static_cast<Oid>(rng.Uniform(1, 20));
    const bool disease = rng.NextBool(0.6);
    Annotate(oid, disease ? "disease" : "behavior", 1);
    if (disease) ++expected_disease[oid];
  }
  // Bulk build after the fact.
  auto index = *SummaryBTree::Create(&storage_, &pool_, mgr_.get(),
                                     "ClassBird1", SummaryBTree::Options{});
  for (const auto& [oid, count] : expected_disease) {
    auto hits = index->Search(
        ClassifierProbe::Equal("Disease", count));
    ASSERT_TRUE(hits.ok());
    bool found = false;
    for (const auto& hit : *hits) {
      Oid got;
      ASSERT_TRUE(index->FetchDataTuple(hit, &got).ok());
      if (got == oid) found = true;
    }
    EXPECT_TRUE(found) << "oid " << oid << " count " << count;
  }
}

TEST_F(SindexTest, WidthExtensionRebuildsPast999) {
  SummaryBTree::Options opts;
  opts.count_width = 2;  // Rebuild already at count 100 to keep tests fast.
  auto index = *SummaryBTree::Create(&storage_, &pool_, mgr_.get(),
                                     "ClassBird1", opts);
  Annotate(10, "disease", 105);
  EXPECT_GE(index->maintenance_stats().rebuilds, 1u);
  EXPECT_EQ(index->count_width(), 3);
  auto hits = index->Search(ClassifierProbe::Equal("Disease", 105));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
  // Order across the old/new width boundary still correct.
  hits = index->Search(ClassifierProbe::GreaterThan("Disease", 99));
  EXPECT_EQ(hits->size(), 1u);
}

TEST_F(SindexTest, ConventionalPointersResolveThroughStorage) {
  Annotate(11, "disease", 4);
  SummaryBTree::Options opts;
  opts.pointer_mode = SummaryBTree::PointerMode::kConventional;
  auto index =
      *SummaryBTree::Create(&storage_, &pool_, mgr_.get(), "ClassBird1", opts);
  auto backward = *SummaryBTree::Create(&storage_, &pool_, mgr_.get(),
                                        "ClassBird1", SummaryBTree::Options{});
  auto hits = index->Search(ClassifierProbe::Equal("Disease", 4));
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  Oid oid;
  auto tuple = index->FetchDataTuple((*hits)[0], &oid);
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ(oid, 11u);
  EXPECT_EQ(tuple->at(0).AsString(), "bird10");

  // Both side tables are keyed by their owner's id alone.
  EXPECT_TRUE(mgr_->storage_table()->IndexedColumns().empty());
  EXPECT_TRUE((*catalog_.GetTable("Birds_Annotations"))
                  ->IndexedColumns()
                  .empty());

  // The conventional payload equals the tuple OID, yet the pointer must
  // still resolve through the storage row: with that row physically gone
  // the hit no longer resolves. Backward pointers never touch it.
  ASSERT_TRUE(mgr_->storage_table()->Delete(11).ok());
  EXPECT_TRUE(index->FetchDataTuple((*hits)[0]).status().IsNotFound());
  RowBatch fetched;
  EXPECT_TRUE(index
                  ->FetchRows(*hits, /*with_summaries=*/true,
                              Snapshot::Latest(), &fetched)
                  .IsNotFound());
  auto bwd_hits = backward->Search(ClassifierProbe::Equal("Disease", 4));
  ASSERT_TRUE(bwd_hits.ok());
  ASSERT_EQ(bwd_hits->size(), 1u);
  auto bwd_tuple = backward->FetchDataTuple((*bwd_hits)[0], &oid);
  ASSERT_TRUE(bwd_tuple.ok()) << bwd_tuple.status().ToString();
  EXPECT_EQ(oid, 11u);
  EXPECT_EQ(bwd_tuple->at(0).AsString(), "bird10");
}

TEST_F(SindexTest, BaselineIndexAnswersSameQueries) {
  Annotate(1, "disease", 3);
  Annotate(2, "disease", 5);
  Annotate(3, "behavior", 2);
  auto baseline = *BaselineClassifierIndex::Create(
      &catalog_, mgr_.get(), "ClassBird1", BaselineClassifierIndex::Options{});
  auto hits = baseline->Search(ClassifierProbe::Equal("Disease", 5));
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  Oid oid;
  auto tuple = baseline->FetchDataTuple((*hits)[0], &oid);
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ(oid, 2u);

  hits = baseline->Search(ClassifierProbe::GreaterThan("Disease", 2));
  EXPECT_EQ(hits->size(), 2u);
}

TEST_F(SindexTest, BaselineMaintainedIncrementally) {
  auto baseline = *BaselineClassifierIndex::Create(
      &catalog_, mgr_.get(), "ClassBird1", BaselineClassifierIndex::Options{});
  Annotate(12, "disease", 1);
  Annotate(12, "disease", 1);
  auto hits = baseline->Search(ClassifierProbe::Equal("Disease", 2));
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
  EXPECT_TRUE(baseline->Search(ClassifierProbe::Equal("Disease", 1))->empty());
  ASSERT_TRUE(mgr_->OnTupleDeleted(12).ok());
  EXPECT_TRUE(baseline->Search(ClassifierProbe::Equal("Disease", 2))->empty());
}

TEST_F(SindexTest, BaselineReconstructsObjectFromNormalizedRows) {
  Annotate(13, "disease", 4);
  Annotate(13, "behavior", 2);
  auto baseline = *BaselineClassifierIndex::Create(
      &catalog_, mgr_.get(), "ClassBird1", BaselineClassifierIndex::Options{});
  auto obj = baseline->ReconstructObject(13);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(*obj->GetLabelValue("Disease"), 4);
  EXPECT_EQ(*obj->GetLabelValue("Behavior"), 2);
  EXPECT_EQ(*obj->GetLabelValue("Other"), 0);
  EXPECT_TRUE(baseline->ReconstructObject(999).status().IsNotFound());
}

TEST_F(SindexTest, BaselineReplicatesStorageSummaryBTreeDoesNot) {
  for (int i = 1; i <= 30; ++i) Annotate(static_cast<Oid>(i), "disease", 3);
  auto sbt = *SummaryBTree::Create(&storage_, &pool_, mgr_.get(),
                                   "ClassBird1", SummaryBTree::Options{});
  auto baseline = *BaselineClassifierIndex::Create(
      &catalog_, mgr_.get(), "ClassBird1", BaselineClassifierIndex::Options{});
  ASSERT_TRUE(pool_.FlushAll().ok());
  // The baseline replica duplicates the classifier content; the
  // Summary-BTree adds only its tree.
  EXPECT_GT(baseline->replica_bytes(), 0u);
  EXPECT_GT(baseline->index_bytes(), 0u);
  EXPECT_GT(sbt->size_bytes(), 0u);
}

// Both schemes agree with a brute-force reference across random workloads.
class SindexFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SindexFuzzTest, SchemesAgreeWithReference) {
  StorageManager storage(StorageManager::Backend::kMemory);
  BufferPool pool(&storage, 4096);
  Catalog catalog(&storage, &pool);
  Table* table = *catalog.CreateTable(
      "R", Schema({{"x", ValueType::kInt64}}));
  for (int i = 0; i < 40; ++i) {
    table->Insert(Tuple({Value::Int(i)})).status();
  }
  auto store = *AnnotationStore::Create(&catalog, "R", 1);
  auto mgr = *SummaryManager::Create(&catalog, table, store.get());
  auto model = KeywordClassifier();
  mgr->LinkInstance(SummaryInstance::Classifier(
                        "C", {"Disease", "Behavior", "Other"}, model))
      .ok();
  auto sbt = *SummaryBTree::Create(&storage, &pool, mgr.get(), "C",
                                   SummaryBTree::Options{});
  auto baseline = *BaselineClassifierIndex::Create(
      &catalog, mgr.get(), "C", BaselineClassifierIndex::Options{});

  Rng rng(GetParam());
  std::map<Oid, std::map<std::string, int64_t>> reference;
  const char* kinds[] = {"disease", "behavior", "other"};
  const char* labels[] = {"Disease", "Behavior", "Other"};
  for (int step = 0; step < 200; ++step) {
    const Oid oid = static_cast<Oid>(rng.Uniform(1, 40));
    const size_t k = static_cast<size_t>(rng.Uniform(0, 2));
    ASSERT_TRUE(mgr->AddAnnotation(std::string(kinds[k]) + "word note",
                                   {{oid, 1}})
                    .ok());
    auto& counts = reference[oid];
    for (const char* l : labels) counts.emplace(l, 0);
    ++counts[labels[k]];
  }

  // Random probes: equality and ranges on all labels.
  for (int q = 0; q < 60; ++q) {
    const std::string label = labels[rng.Uniform(0, 2)];
    int64_t lo = rng.Uniform(0, 8);
    int64_t hi = rng.Uniform(0, 8);
    if (lo > hi) std::swap(lo, hi);
    const ClassifierProbe probe = ClassifierProbe::Range(label, lo, hi);

    std::set<Oid> expected;
    for (const auto& [oid, counts] : reference) {
      const int64_t c = counts.at(label);
      if (c >= lo && c <= hi) expected.insert(oid);
    }
    std::set<Oid> got_sbt;
    for (const auto& hit : *sbt->Search(probe)) {
      Oid oid;
      auto tuple = sbt->FetchDataTuple(hit, &oid);
      ASSERT_TRUE(tuple.ok())
          << tuple.status().ToString() << " count=" << hit.count
          << " page=" << RowLocation::Unpack(hit.payload).page_id
          << " slot=" << RowLocation::Unpack(hit.payload).slot;
      got_sbt.insert(oid);
    }
    std::set<Oid> got_base;
    for (const auto& hit : *baseline->Search(probe)) got_base.insert(hit.oid);
    EXPECT_EQ(got_sbt, expected) << label << " in [" << lo << "," << hi << "]";
    EXPECT_EQ(got_base, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SindexFuzzTest,
                         ::testing::Values(3, 14, 159));

}  // namespace
}  // namespace insight
