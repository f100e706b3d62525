#ifndef INSIGHTNOTES_TESTS_ENGINE_TEST_UTIL_H_
#define INSIGHTNOTES_TESTS_ENGINE_TEST_UTIL_H_

#include <memory>
#include <string>

#include "annotation/annotation_store.h"
#include "engine/operators.h"
#include "index/catalog.h"
#include "sindex/summary_btree.h"
#include "summary/summary_manager.h"

namespace insight {

/// Shared test database: a small annotated Birds table with one keyword-
/// steered classifier instance, a snippet instance, and a cluster
/// instance, mirroring the paper's setup at doll-house scale.
class TestDb {
 public:
  explicit TestDb(int num_birds = 20)
      : storage(StorageManager::Backend::kMemory),
        pool(&storage, 4096),
        catalog(&storage, &pool) {
    birds = *catalog.CreateTable("Birds",
                                 Schema({{"name", ValueType::kString},
                                         {"family", ValueType::kString},
                                         {"weight", ValueType::kDouble}}));
    for (int i = 0; i < num_birds; ++i) {
      birds
          ->Insert(Tuple({Value::String("bird" + std::to_string(i)),
                          Value::String("family" + std::to_string(i % 4)),
                          Value::Double(1.0 + i * 0.25)}))
          .status();
    }
    annotations = *AnnotationStore::Create(&catalog, "Birds", 3);
    mgr = *SummaryManager::Create(&catalog, birds, annotations.get());

    auto model = std::make_shared<NaiveBayesClassifier>(
        std::vector<std::string>{"Disease", "Behavior", "Other"});
    model->Train("diseaseword diseaseword", "Disease").ok();
    model->Train("behaviorword behaviorword", "Behavior").ok();
    model->Train("otherword otherword", "Other").ok();
    mgr->LinkInstance(SummaryInstance::Classifier(
                          "ClassBird1", {"Disease", "Behavior", "Other"},
                          model))
        .ok();
    SnippetSummarizer::Options snip;
    snip.min_chars = 80;
    snip.max_snippet_chars = 60;
    mgr->LinkInstance(SummaryInstance::Snippet("TextSummary1", snip)).ok();
    mgr->LinkInstance(SummaryInstance::Cluster("SimCluster", 0.4)).ok();
  }

  /// n annotations of the given kind ("disease"/"behavior"/"other") on
  /// one tuple, attached to column `col`.
  void Annotate(Oid oid, const std::string& kind, int n, size_t col = 0) {
    for (int i = 0; i < n; ++i) {
      mgr->AddAnnotation(kind + "word note " + std::to_string(i),
                         {{oid, CellMask(col)}})
          .status();
    }
  }

  /// A scan of Birds; with `propagate`, an AttachSummariesOp above it
  /// attaches the summary sets.
  OpPtr Scan(bool propagate = true) {
    OpPtr scan = std::make_unique<SeqScanOp>(birds);
    if (!propagate) return scan;
    return std::make_unique<AttachSummariesOp>(std::move(scan), mgr.get());
  }

  // Secondary indexes over the linked instances, built on first use and
  // owned here because index scans hold raw pointers to them.
  const SummaryBTree* ClassIndex() {
    if (class_index == nullptr) {
      class_index = *SummaryBTree::Create(&storage, &pool, mgr.get(),
                                          "ClassBird1",
                                          SummaryBTree::Options{});
    }
    return class_index.get();
  }
  const BaselineClassifierIndex* BaselineIndex() {
    if (baseline_index == nullptr) {
      baseline_index = *BaselineClassifierIndex::Create(
          &catalog, mgr.get(), "ClassBird1",
          BaselineClassifierIndex::Options{});
    }
    return baseline_index.get();
  }
  const SnippetKeywordIndex* KeywordIndex() {
    if (keyword_index == nullptr) {
      keyword_index = *SnippetKeywordIndex::Create(
          &storage, &pool, mgr.get(), "TextSummary1",
          SnippetKeywordIndex::Options{});
    }
    return keyword_index.get();
  }

  StorageManager storage;
  BufferPool pool;
  Catalog catalog;
  Table* birds;
  std::unique_ptr<AnnotationStore> annotations;
  std::unique_ptr<SummaryManager> mgr;
  // Declared after mgr: each index deregisters from it on destruction.
  std::unique_ptr<SummaryBTree> class_index;
  std::unique_ptr<BaselineClassifierIndex> baseline_index;
  std::unique_ptr<SnippetKeywordIndex> keyword_index;
};

}  // namespace insight

#endif  // INSIGHTNOTES_TESTS_ENGINE_TEST_UTIL_H_
