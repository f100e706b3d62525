#include <gtest/gtest.h>

#include "annotation/annotation_store.h"
#include "index/catalog.h"
#include "mining/naive_bayes.h"
#include "summary/summary_manager.h"
#include "txn/transaction_manager.h"

namespace insight {
namespace {

std::shared_ptr<NaiveBayesClassifier> SmallClassifier() {
  auto model = std::make_shared<NaiveBayesClassifier>(
      std::vector<std::string>{"Disease", "Behavior", "Other"});
  model->Train("infection sick disease virus ill", "Disease").ok();
  model->Train("parasite disease outbreak infection", "Disease").ok();
  model->Train("eating foraging migration behavior", "Behavior").ok();
  model->Train("nesting feeding behavior flight", "Behavior").ok();
  model->Train("note comment misc provenance", "Other").ok();
  return model;
}

class SummaryManagerTest : public ::testing::Test {
 protected:
  SummaryManagerTest()
      : storage_(StorageManager::Backend::kMemory),
        pool_(&storage_, 1024),
        catalog_(&storage_, &pool_) {
    table_ = *catalog_.CreateTable(
        "Birds", Schema({{"name", ValueType::kString},
                         {"family", ValueType::kString},
                         {"habitat", ValueType::kString}}));
    for (int i = 0; i < 10; ++i) {
      table_
          ->Insert(Tuple({Value::String("bird" + std::to_string(i)),
                          Value::String("fam"), Value::String("lake")}))
          .status();
    }
    store_ = *AnnotationStore::Create(&catalog_, "Birds", 3);
    mgr_ = *SummaryManager::Create(&catalog_, table_, store_.get());
    mgr_->LinkInstance(SummaryInstance::Classifier(
                           "ClassBird1",
                           {"Disease", "Behavior", "Other"},
                           SmallClassifier()))
        .ok();
    SnippetSummarizer::Options snip;
    snip.min_chars = 100;
    snip.max_snippet_chars = 60;
    mgr_->LinkInstance(SummaryInstance::Snippet("TextSummary1", snip)).ok();
    mgr_->LinkInstance(SummaryInstance::Cluster("SimCluster", 0.4)).ok();
  }

  StorageManager storage_;
  BufferPool pool_;
  Catalog catalog_;
  Table* table_;
  std::unique_ptr<AnnotationStore> store_;
  std::unique_ptr<SummaryManager> mgr_;
};

TEST_F(SummaryManagerTest, UnannotatedTupleHasEmptySet) {
  auto set = mgr_->GetSummaries(1);
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(set->empty());
}

TEST_F(SummaryManagerTest, AddAnnotationCreatesAllInstanceObjects) {
  ASSERT_TRUE(
      mgr_->AddAnnotation("bird had infection disease", {{1, CellMask(0)}})
          .ok());
  auto set = mgr_->GetSummaries(1);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->GetSize(), 3);
  const SummaryObject* cls = set->GetSummaryObject("ClassBird1");
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(*cls->GetLabelValue("Disease"), 1);
  EXPECT_EQ(*cls->GetLabelValue("Behavior"), 0);
  // Short annotation: no snippet.
  EXPECT_EQ(set->GetSummaryObject("TextSummary1")->GetSize(), 0);
  // One cluster group.
  EXPECT_EQ(set->GetSummaryObject("SimCluster")->GetSize(), 1);
}

TEST_F(SummaryManagerTest, CountsAccumulateAcrossAnnotations) {
  for (int i = 0; i < 5; ++i) {
    mgr_->AddAnnotation("sick with disease infection " + std::to_string(i),
                        {{2, CellMask(0)}})
        .status();
  }
  for (int i = 0; i < 3; ++i) {
    mgr_->AddAnnotation("eating behavior foraging " + std::to_string(i),
                        {{2, CellMask(1)}})
        .status();
  }
  auto set = mgr_->GetSummaries(2);
  const SummaryObject* cls = set->GetSummaryObject("ClassBird1");
  EXPECT_EQ(*cls->GetLabelValue("Disease"), 5);
  EXPECT_EQ(*cls->GetLabelValue("Behavior"), 3);
  EXPECT_EQ(cls->TotalAnnotations(), 8);
}

TEST_F(SummaryManagerTest, LongAnnotationGetsSnippet) {
  std::string longtext =
      "The observed swan was eating stonewort. It also showed signs of "
      "unusual behavior near the lake. Researchers collected many data "
      "points about this specimen over several weeks of careful watching.";
  ASSERT_GT(longtext.size(), 100u);
  mgr_->AddAnnotation(longtext, {{3, RowMask(3)}}).status();
  auto set = mgr_->GetSummaries(3);
  const SummaryObject* snip = set->GetSummaryObject("TextSummary1");
  ASSERT_EQ(snip->GetSize(), 1);
  EXPECT_LE(snip->GetSnippet(0)->size(), 60u);
}

TEST_F(SummaryManagerTest, SimilarAnnotationsClusterTogether) {
  mgr_->AddAnnotation("swan eating stonewort in the lake", {{4, 1}}).status();
  mgr_->AddAnnotation("swan eating stonewort in the river", {{4, 1}})
      .status();
  mgr_->AddAnnotation("completely different topic entirely unrelated",
                      {{4, 1}})
      .status();
  auto set = mgr_->GetSummaries(4);
  const SummaryObject* cluster = set->GetSummaryObject("SimCluster");
  ASSERT_EQ(cluster->GetSize(), 2);
  // One group of 2, one of 1.
  const int64_t s0 = *cluster->GetGroupSize(0);
  const int64_t s1 = *cluster->GetGroupSize(1);
  EXPECT_EQ(s0 + s1, 3);
  EXPECT_EQ(std::max(s0, s1), 2);
}

TEST_F(SummaryManagerTest, MultiTupleAnnotationUpdatesAllTargets) {
  mgr_->AddAnnotation("disease spanning tuples",
                      {{5, CellMask(0)}, {6, CellMask(1)}})
      .status();
  EXPECT_EQ(*mgr_->GetSummaries(5)->GetSummaryObject("ClassBird1")
                 ->GetLabelValue("Disease"),
            1);
  EXPECT_EQ(*mgr_->GetSummaries(6)->GetSummaryObject("ClassBird1")
                 ->GetLabelValue("Disease"),
            1);
}

TEST_F(SummaryManagerTest, RemoveAnnotationRollsBackEffects) {
  AnnId keep = *mgr_->AddAnnotation("disease one", {{7, 1}});
  AnnId drop = *mgr_->AddAnnotation("disease two", {{7, 1}});
  (void)keep;
  ASSERT_TRUE(mgr_->RemoveAnnotation(drop).ok());
  auto set = mgr_->GetSummaries(7);
  EXPECT_EQ(*set->GetSummaryObject("ClassBird1")->GetLabelValue("Disease"),
            1);
  // Raw annotation gone too.
  EXPECT_TRUE(store_->GetText(drop).status().IsNotFound());
}

TEST_F(SummaryManagerTest, ClusterRepReElectedOnRemoval) {
  AnnId first = *mgr_->AddAnnotation("swan eating stonewort lake", {{8, 1}});
  mgr_->AddAnnotation("swan eating stonewort river", {{8, 1}}).status();
  auto before = mgr_->GetSummaries(8);
  ASSERT_EQ(before->GetSummaryObject("SimCluster")->reps[0].source_ann,
            first);
  ASSERT_TRUE(mgr_->RemoveAnnotation(first).ok());
  auto after = mgr_->GetSummaries(8);
  const SummaryObject* cluster = after->GetSummaryObject("SimCluster");
  ASSERT_EQ(cluster->GetSize(), 1);
  EXPECT_NE(cluster->reps[0].source_ann, first);
  EXPECT_EQ(cluster->reps[0].text, "swan eating stonewort river");
}

TEST_F(SummaryManagerTest, ListenersSeeBeforeAndAfter) {
  const SummaryInstance* cls = *mgr_->FindInstance("ClassBird1");
  int events = 0;
  int64_t last_before = -1;
  int64_t last_after = -1;
  mgr_->AddListener(
      cls->id(),
      [&](Oid oid, const SummaryObject* before, const SummaryObject* after)
          -> Status {
        EXPECT_EQ(oid, 9u);
        ++events;
        last_before = before == nullptr ? -1 : *before->GetLabelValue(0);
        last_after = after == nullptr ? -1 : *after->GetLabelValue(0);
        return Status::OK();
      });
  mgr_->AddAnnotation("disease infection sick", {{9, 1}}).status();
  EXPECT_EQ(events, 1);
  EXPECT_EQ(last_before, -1);  // Object created.
  EXPECT_EQ(last_after, 1);
  mgr_->AddAnnotation("more disease infection", {{9, 1}}).status();
  EXPECT_EQ(events, 2);
  EXPECT_EQ(last_before, 1);
  EXPECT_EQ(last_after, 2);
  ASSERT_TRUE(mgr_->OnTupleDeleted(9).ok());
  EXPECT_EQ(events, 3);
  EXPECT_EQ(last_after, -1);  // Object destroyed.
}

TEST_F(SummaryManagerTest, OnTupleDeletedDropsStorageRow) {
  mgr_->AddAnnotation("disease", {{10, 1}}).status();
  ASSERT_TRUE(mgr_->OnTupleDeleted(10).ok());
  EXPECT_TRUE(mgr_->GetSummaries(10)->empty());
  // Idempotent for never-annotated tuples.
  EXPECT_TRUE(mgr_->OnTupleDeleted(10).ok());
}

// ---------- Storage rows keyed by tuple OID, under transactions ----------

TEST_F(SummaryManagerTest, StorageRowSharesItsTuplesOid) {
  mgr_->AddAnnotation("disease infection", {{4, 1}}).status();
  Table* storage = mgr_->storage_table();
  EXPECT_TRUE(storage->IndexedColumns().empty());
  EXPECT_EQ(storage->schema().num_columns(), 1u);
  EXPECT_EQ(storage->num_rows(), 1u);
  EXPECT_TRUE(storage->Get(4).ok());
  EXPECT_TRUE(storage->Get(5).status().IsNotFound());
}

TEST_F(SummaryManagerTest, RolledBackFirstAnnotateLeavesNoStorageRow) {
  TransactionManager txns;
  Transaction* doomed = *txns.Begin();
  {
    TxnScope scope(doomed);
    ASSERT_TRUE(
        mgr_->AddAnnotation("disease infection sick", {{2, 1}}).ok());
    EXPECT_EQ(*mgr_->GetSummaries(2, doomed->snapshot())
                   ->GetSummaryObject("ClassBird1")
                   ->GetLabelValue("Disease"),
              1);
  }
  ASSERT_TRUE(txns.Abort(doomed->id()).ok());
  EXPECT_TRUE(mgr_->storage_table()->Get(2).status().IsNotFound());
  EXPECT_TRUE(mgr_->storage_table()->GetVersionTuples(2)->empty());
  EXPECT_TRUE(mgr_->GetSummaries(2)->empty());

  // A later ANNOTATE of the same tuple inserts the row afresh.
  Transaction* later = *txns.Begin();
  {
    TxnScope scope(later);
    ASSERT_TRUE(
        mgr_->AddAnnotation("nesting feeding behavior flight", {{2, 1}})
            .ok());
  }
  ASSERT_TRUE(txns.Commit(later->id()).ok());
  auto set = mgr_->GetSummaries(2);
  ASSERT_TRUE(set.ok());
  const SummaryObject* cls = set->GetSummaryObject("ClassBird1");
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(*cls->GetLabelValue("Disease"), 0);
  EXPECT_EQ(*cls->GetLabelValue("Behavior"), 1);
  EXPECT_EQ(store_->ForTuple(2)->size(), 1u);
}

TEST_F(SummaryManagerTest, SnapshotBeforeFirstAnnotationSeesNoSummaries) {
  TransactionManager txns;
  Transaction* reader = *txns.Begin();
  Transaction* writer = *txns.Begin();
  {
    TxnScope scope(writer);
    ASSERT_TRUE(mgr_->AddAnnotation("disease infection", {{3, 1}}).ok());
  }
  ASSERT_TRUE(txns.Commit(writer->id()).ok());

  // The older snapshot predates the storage row and the annotation.
  EXPECT_TRUE(mgr_->GetSummaries(3, reader->snapshot())->empty());
  EXPECT_TRUE(store_->ForTuple(3, reader->snapshot())->empty());
  {
    // Its own first ANNOTATE of the tuple loses to the committed one.
    TxnScope scope(reader);
    EXPECT_TRUE(mgr_->AddAnnotation("disease again", {{3, 1}})
                    .status()
                    .IsAborted());
  }
  ASSERT_TRUE(txns.Abort(reader->id()).ok());

  // A fresh snapshot sees both.
  const Snapshot fresh = txns.LatestSnapshot();
  auto set = mgr_->GetSummaries(3, fresh);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(*set->GetSummaryObject("ClassBird1")->GetLabelValue("Disease"),
            1);
  auto zoom = store_->ForTuple(3, fresh);
  ASSERT_EQ(zoom->size(), 1u);
  EXPECT_EQ((*zoom)[0].text, "disease infection");
}

TEST_F(SummaryManagerTest, AddWithIdOnAVisibleIdIsAlreadyExists) {
  const AnnId ann = *mgr_->AddAnnotation("disease infection", {{6, 1}});
  EXPECT_EQ(store_->AddWithId(ann, "duplicate", {{5, 1}}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(mgr_->AddAnnotationWithId(ann, "duplicate", {{5, 1}}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(*store_->GetText(ann), "disease infection");
  EXPECT_TRUE(mgr_->GetSummaries(5)->empty());

  // Once removed, the id is free again (replay re-adds it this way).
  ASSERT_TRUE(mgr_->RemoveAnnotation(ann).ok());
  ASSERT_TRUE(mgr_->AddAnnotationWithId(ann, "nesting behavior", {{5, 1}})
                  .ok());
  EXPECT_EQ(*store_->GetText(ann), "nesting behavior");
}

TEST_F(SummaryManagerTest, ForEachSummaryRowVisitsAllAnnotatedTuples) {
  mgr_->AddAnnotation("a", {{1, 1}}).status();
  mgr_->AddAnnotation("b", {{3, 1}}).status();
  mgr_->AddAnnotation("c", {{3, 1}}).status();
  int rows = 0;
  ASSERT_TRUE(mgr_->ForEachSummaryRow([&](Oid oid, const SummarySet& set) {
                   EXPECT_TRUE(oid == 1 || oid == 3);
                   EXPECT_EQ(set.GetSize(), 3);
                   ++rows;
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(rows, 2);
}

TEST_F(SummaryManagerTest, LinkRejectsDuplicateName) {
  EXPECT_EQ(mgr_->LinkInstance(SummaryInstance::Cluster("simcluster")).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(SummaryManagerTest, UnlinkStripsObjectsAndNotifies) {
  mgr_->AddAnnotation("disease", {{1, 1}}).status();
  const SummaryInstance* cls = *mgr_->FindInstance("ClassBird1");
  int removals = 0;
  mgr_->AddListener(cls->id(),
                    [&](Oid, const SummaryObject* before,
                        const SummaryObject* after) -> Status {
                      if (before != nullptr && after == nullptr) ++removals;
                      return Status::OK();
                    });
  ASSERT_TRUE(mgr_->UnlinkInstance("ClassBird1").ok());
  EXPECT_EQ(removals, 1);
  auto set = mgr_->GetSummaries(1);
  EXPECT_EQ(set->GetSummaryObject("ClassBird1"), nullptr);
  EXPECT_EQ(set->GetSize(), 2);
  EXPECT_TRUE(mgr_->FindInstance("ClassBird1").status().IsNotFound());
}

TEST_F(SummaryManagerTest, ObjectInvariantsHoldAfterRandomOps) {
  // Mixed adds/removes across tuples; every stored object stays valid.
  std::vector<AnnId> live;
  const char* texts[] = {
      "disease infection sick bird",
      "eating behavior foraging dawn",
      "anatomy wing beak measurements unrelated words",
      "random comment about the dataset provenance",
  };
  for (int i = 0; i < 60; ++i) {
    if (i % 5 == 4 && !live.empty()) {
      AnnId victim = live[static_cast<size_t>(i) % live.size()];
      ASSERT_TRUE(mgr_->RemoveAnnotation(victim).ok());
      live.erase(std::find(live.begin(), live.end(), victim));
    } else {
      Oid oid = static_cast<Oid>(1 + (i % 10));
      live.push_back(*mgr_->AddAnnotation(texts[i % 4], {{oid, 1}}));
    }
  }
  ASSERT_TRUE(mgr_->ForEachSummaryRow([&](Oid, const SummarySet& set) {
                   for (const SummaryObject& obj : set.objects()) {
                     INSIGHT_RETURN_NOT_OK(obj.CheckInvariants());
                   }
                   return Status::OK();
                 })
                  .ok());
}

}  // namespace
}  // namespace insight
