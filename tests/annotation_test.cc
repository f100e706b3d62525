#include <gtest/gtest.h>

#include <map>

#include "annotation/annotation_store.h"
#include "index/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/storage_manager.h"
#include "txn/transaction_manager.h"

namespace insight {
namespace {

class AnnotationStoreTest : public ::testing::Test {
 protected:
  AnnotationStoreTest()
      : storage_(StorageManager::Backend::kMemory),
        pool_(&storage_, 512),
        catalog_(&storage_, &pool_) {
    store_ = *AnnotationStore::Create(&catalog_, "Birds", 4);
  }

  StorageManager storage_;
  BufferPool pool_;
  Catalog catalog_;
  std::unique_ptr<AnnotationStore> store_;
};

TEST_F(AnnotationStoreTest, MaskHelpers) {
  EXPECT_EQ(CellMask(0), 1u);
  EXPECT_EQ(CellMask(3), 8u);
  EXPECT_EQ(RowMask(4), 0xFu);
  EXPECT_EQ(RowMask(64), ~0ULL);
}

TEST_F(AnnotationStoreTest, AddAndGetText) {
  auto id = store_->Add("found eating stonewort",
                        {{1, CellMask(1)}});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*store_->GetText(*id), "found eating stonewort");
  EXPECT_EQ(store_->num_annotations(), 1u);
}

TEST_F(AnnotationStoreTest, RejectsInvalidTargets) {
  EXPECT_TRUE(store_->Add("x", {}).status().IsInvalidArgument());
  EXPECT_TRUE(store_->Add("x", {{kInvalidOid, 1}}).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(store_->Add("x", {{1, 0}}).status().IsInvalidArgument());
  // Mask bit beyond the 4 columns of this relation.
  EXPECT_TRUE(store_->Add("x", {{1, CellMask(5)}}).status()
                  .IsInvalidArgument());
}

TEST_F(AnnotationStoreTest, ZoomInForTuple) {
  store_->Add("a1 on tuple 1", {{1, CellMask(0)}}).status();
  store_->Add("a2 on tuple 1 and 2", {{1, CellMask(1)}, {2, RowMask(4)}})
      .status();
  store_->Add("a3 on tuple 2", {{2, CellMask(2)}}).status();

  auto anns = store_->ForTuple(1);
  ASSERT_TRUE(anns.ok());
  ASSERT_EQ(anns->size(), 2u);

  anns = store_->ForTuple(2);
  ASSERT_TRUE(anns.ok());
  EXPECT_EQ(anns->size(), 2u);

  anns = store_->ForTuple(99);
  ASSERT_TRUE(anns.ok());
  EXPECT_TRUE(anns->empty());
}

/// Every annotation ForEachAnnotation yields, by id.
std::map<AnnId, Annotation> AllAnnotations(const AnnotationStore& store) {
  std::map<AnnId, Annotation> out;
  EXPECT_TRUE(store
                  .ForEachAnnotation([&](const Annotation& ann) {
                    out[ann.id] = ann;
                    return Status::OK();
                  })
                  .ok());
  return out;
}

TEST_F(AnnotationStoreTest, ForEachAnnotationMasksAndTargets) {
  AnnId id = *store_->Add("multi-cell", {{1, CellMask(0) | CellMask(2)},
                                         {3, CellMask(1)}});
  // Linked twice to tuple 2: one target, the first link's mask.
  AnnId twice = *store_->Add("twice", {{2, CellMask(3)},
                                       {4, CellMask(0)},
                                       {2, CellMask(1)}});
  AnnId removed = *store_->Add("removed", {{1, CellMask(0)}});
  ASSERT_TRUE(store_->Delete(removed).ok());
  // An open writer's annotation is not committed state.
  TransactionManager txns;
  Transaction* writer = *txns.Begin();
  AnnId uncommitted;
  {
    TxnScope scope(writer);
    uncommitted = *store_->Add("uncommitted", {{3, CellMask(2)}});
  }

  const std::map<AnnId, Annotation> all = AllAnnotations(*store_);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all.count(removed), 0u);
  EXPECT_EQ(all.count(uncommitted), 0u);

  const Annotation& multi = all.at(id);
  EXPECT_EQ(multi.text, "multi-cell");
  ASSERT_EQ(multi.targets.size(), 2u);
  EXPECT_EQ(multi.targets[0].oid, 1u);
  EXPECT_EQ(multi.targets[0].column_mask, CellMask(0) | CellMask(2));
  EXPECT_EQ(multi.targets[1].oid, 3u);
  EXPECT_EQ(multi.targets[1].column_mask, CellMask(1));

  const Annotation& dup = all.at(twice);
  ASSERT_EQ(dup.targets.size(), 2u);
  EXPECT_EQ(dup.targets[0].oid, 2u);
  EXPECT_EQ(dup.targets[0].column_mask, CellMask(3));
  EXPECT_EQ(dup.targets[1].oid, 4u);
  EXPECT_EQ(dup.targets[1].column_mask, CellMask(0));

  auto tuples = store_->TuplesFor(id);
  ASSERT_TRUE(tuples.ok());
  EXPECT_EQ(tuples->size(), 2u);
  ASSERT_TRUE(txns.Abort(writer->id()).ok());
}

TEST_F(AnnotationStoreTest, ZoomInKeepsLinkOrderAndSnapshot) {
  AnnId first = *store_->Add("first", {{1, CellMask(0)}});
  AnnId second = *store_->Add("second", {{2, CellMask(0)}, {1, CellMask(1)}});
  TransactionManager txns;
  Transaction* writer = *txns.Begin();
  {
    TxnScope scope(writer);
    store_->Add("uncommitted", {{1, CellMask(2)}}).status();
  }
  auto anns = store_->ForTuple(1);
  ASSERT_TRUE(anns.ok());
  ASSERT_EQ(anns->size(), 2u);
  EXPECT_EQ((*anns)[0].id, first);
  EXPECT_EQ((*anns)[0].text, "first");
  EXPECT_EQ((*anns)[1].id, second);
  EXPECT_EQ((*anns)[1].text, "second");
  EXPECT_EQ((*anns)[1].targets[0].column_mask, CellMask(1));
  // The writer sees its own annotation too, after the committed ones.
  auto own = store_->ForTuple(1, writer->snapshot());
  ASSERT_TRUE(own.ok());
  ASSERT_EQ(own->size(), 3u);
  EXPECT_EQ((*own)[2].text, "uncommitted");
  ASSERT_TRUE(txns.Abort(writer->id()).ok());
}

TEST_F(AnnotationStoreTest, DeleteRemovesTextAndLinks) {
  AnnId id = *store_->Add("temp", {{1, CellMask(0)}, {2, CellMask(0)}});
  ASSERT_TRUE(store_->Delete(id).ok());
  EXPECT_TRUE(store_->GetText(id).status().IsNotFound());
  EXPECT_TRUE(store_->ForTuple(1)->empty());
  EXPECT_TRUE(store_->ForTuple(2)->empty());
  EXPECT_EQ(store_->num_annotations(), 0u);
}

TEST_F(AnnotationStoreTest, LargeAnnotationTextSurvives) {
  // The paper's annotations run up to 8,000 characters.
  std::string big(8000, 'b');
  AnnId id = *store_->Add(big, {{1, RowMask(4)}});
  EXPECT_EQ(*store_->GetText(id), big);
}

TEST_F(AnnotationStoreTest, StorageBytesGrow) {
  const uint64_t before = store_->storage_bytes();
  for (int i = 0; i < 200; ++i) {
    store_->Add(std::string(500, 'a'), {{static_cast<Oid>(i + 1), 1}})
        .status();
  }
  EXPECT_GT(store_->storage_bytes(), before);
}

}  // namespace
}  // namespace insight
