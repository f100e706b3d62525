#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "engine/execution_context.h"
#include "engine/parallel_ops.h"
#include "engine_test_util.h"

namespace insight {
namespace {

TEST(SeqScanTest, ScansAllRowsWithPropagation) {
  TestDb db(10);
  db.Annotate(1, "disease", 2);
  db.Annotate(5, "behavior", 1);
  auto scan = db.Scan(true);
  auto rows = CollectRows(scan.get());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 10u);
  int annotated = 0;
  for (const Row& row : *rows) {
    if (!row.summaries.empty()) ++annotated;
  }
  EXPECT_EQ(annotated, 2);
}

TEST(SeqScanTest, NoPropagationSkipsSummaries) {
  TestDb db(5);
  db.Annotate(1, "disease", 2);
  auto scan = db.Scan(false);
  auto rows = CollectRows(scan.get());
  ASSERT_TRUE(rows.ok());
  for (const Row& row : *rows) EXPECT_TRUE(row.summaries.empty());
}

TEST(IndexScanTest, RangeOverDataColumn) {
  TestDb db(20);
  ASSERT_TRUE(db.birds->CreateColumnIndex("weight").ok());
  IndexScanOp scan(db.birds, "weight", Value::Double(2.0), true,
                   Value::Double(3.0), true, db.mgr.get(), false);
  auto rows = CollectRows(&scan);
  ASSERT_TRUE(rows.ok());
  for (const Row& row : *rows) {
    const double w = row.data.at(2).AsDouble();
    EXPECT_GE(w, 2.0);
    EXPECT_LE(w, 3.0);
  }
  EXPECT_EQ(rows->size(), 5u);  // 2.0, 2.25, 2.5, 2.75, 3.0.
}

TEST(IndexScanTest, MissingIndexIsError) {
  TestDb db(5);
  IndexScanOp scan(db.birds, "name", std::nullopt, true,
                   std::nullopt, true, nullptr, false);
  EXPECT_TRUE(scan.Open().IsInvalidArgument());
}

TEST(SelectTest, DataPredicate) {
  TestDb db(10);
  SelectOp select(db.Scan(false),
                  Like(Col("family"), "family1"));
  auto rows = CollectRows(&select);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // Birds 1, 5, 9 of 10.
}

TEST(SummarySelectTest, LabelValuePredicate) {
  TestDb db(10);
  db.Annotate(2, "disease", 4);
  db.Annotate(3, "disease", 1);
  db.Annotate(4, "behavior", 5);
  SummarySelectOp select(
      db.Scan(true),
      Cmp(LabelValue("ClassBird1", "Disease"), CompareOp::kGt,
          Lit(Value::Int(2))));
  auto rows = CollectRows(&select);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].oid, 2u);
  // Qualifying rows keep ALL their summary objects (S semantics).
  EXPECT_EQ((*rows)[0].summaries.GetSize(), 3);
}

TEST(SummarySelectTest, KeywordPredicateOverSnippets) {
  TestDb db(10);
  // Every sentence carries the keywords, so whichever sentences the
  // summarizer elects, the snippet keeps them.
  std::string longtext =
      "Wikipedia hormone study one. Wikipedia hormone study two. "
      "Wikipedia hormone study three. Wikipedia hormone study four.";
  ASSERT_GT(longtext.size(), 80u);
  db.mgr->AddAnnotation(longtext, {{6, CellMask(0)}}).status();
  SummarySelectOp select(
      db.Scan(true),
      ContainsUnion("TextSummary1", {"wikipedia", "hormone"}));
  auto rows = CollectRows(&select);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].oid, 6u);
}

TEST(SummaryFilterTest, StructuralPredicateByName) {
  TestDb db(5);
  db.Annotate(1, "disease", 2);
  ObjectPredicate pred;
  pred.instance_name = "SimCluster";
  SummaryFilterOp filter(db.Scan(true), pred);
  auto rows = CollectRows(&filter);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 5u);  // F keeps every row.
  for (const Row& row : *rows) {
    if (row.oid == 1) {
      EXPECT_EQ(row.summaries.GetSize(), 1);
      EXPECT_EQ(row.summaries.GetSummaryObject(size_t{0})->instance_name,
                "SimCluster");
    } else {
      EXPECT_TRUE(row.summaries.empty());
    }
  }
}

TEST(SummaryFilterTest, StructuralPredicateByType) {
  TestDb db(3);
  db.Annotate(1, "disease", 1);
  ObjectPredicate pred;
  pred.type = SummaryType::kClassifier;
  SummaryFilterOp filter(db.Scan(true), pred);
  auto rows = CollectRows(&filter);
  ASSERT_TRUE(rows.ok());
  for (const Row& row : *rows) {
    for (const SummaryObject& obj : row.summaries.objects()) {
      EXPECT_EQ(obj.type, SummaryType::kClassifier);
    }
  }
}

TEST(ProjectTest, ReordersColumnsAndAdjustsSummaries) {
  TestDb db(5);
  // Annotation on column 0 (name) and another on column 2 (weight).
  db.mgr->AddAnnotation("diseaseword on name", {{1, CellMask(0)}}).status();
  db.mgr->AddAnnotation("diseaseword on weight", {{1, CellMask(2)}})
      .status();
  ProjectOp project(db.Scan(true), {"weight", "name"},
                    db.mgr->MakeResolver());
  auto rows = CollectRows(&project);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(project.schema().column(0).name, "weight");
  const Row* annotated = nullptr;
  for (const Row& row : *rows) {
    if (!row.summaries.empty()) annotated = &row;
  }
  ASSERT_NE(annotated, nullptr);
  // Both annotations survive (their columns are kept) with remapped masks.
  EXPECT_EQ(*annotated->summaries.GetSummaryObject("ClassBird1")
                 ->GetLabelValue("Disease"),
            2);
}

TEST(ProjectTest, DropsAnnotationEffectsOfRemovedColumns) {
  TestDb db(5);
  db.mgr->AddAnnotation("diseaseword on name", {{1, CellMask(0)}}).status();
  db.mgr->AddAnnotation("diseaseword on weight", {{1, CellMask(2)}})
      .status();
  ProjectOp project(db.Scan(true), {"name"}, db.mgr->MakeResolver());
  auto rows = CollectRows(&project);
  ASSERT_TRUE(rows.ok());
  for (const Row& row : *rows) {
    if (row.summaries.empty()) continue;
    EXPECT_EQ(*row.summaries.GetSummaryObject("ClassBird1")
                   ->GetLabelValue("Disease"),
              1);
  }
}

TEST(NestedLoopJoinTest, JoinsOnDataAndMergesSummaries) {
  TestDb db(6);
  db.Annotate(1, "disease", 2);

  // Second table: families with a region column, sharing no instances.
  Table* families = *db.catalog.CreateTable(
      "Families", Schema({{"fam", ValueType::kString},
                          {"region", ValueType::kString}}));
  for (int i = 0; i < 4; ++i) {
    families
        ->Insert(Tuple({Value::String("family" + std::to_string(i)),
                        Value::String(i % 2 == 0 ? "north" : "south")}))
        .status();
  }
  auto right = std::make_unique<SeqScanOp>(families, nullptr, false);
  NestedLoopJoinOp join(db.Scan(true), std::move(right),
                        Cmp(Col("family"), CompareOp::kEq, Col("fam")));
  auto rows = CollectRows(&join);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 6u);  // Every bird matches exactly one family.
  EXPECT_EQ(join.schema().num_columns(), 5u);
  int annotated = 0;
  for (const Row& row : *rows) {
    if (!row.summaries.empty()) {
      ++annotated;
      EXPECT_EQ(*row.summaries.GetSummaryObject("ClassBird1")
                     ->GetLabelValue("Disease"),
                2);
    }
  }
  EXPECT_EQ(annotated, 1);
}

TEST(IndexNLJoinTest, ProbesInnerIndexAndPreservesOuterOrder) {
  TestDb db(8);
  Table* families = *db.catalog.CreateTable(
      "Fam2", Schema({{"fam", ValueType::kString},
                      {"code", ValueType::kInt64}}));
  for (int i = 0; i < 4; ++i) {
    families
        ->Insert(Tuple({Value::String("family" + std::to_string(i)),
                        Value::Int(i)}))
        .status();
  }
  ASSERT_TRUE(families->CreateColumnIndex("fam").ok());
  IndexNLJoinOp join(db.Scan(false), families, "fam", Col("family"),
                     nullptr, false);
  auto rows = CollectRows(&join);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 8u);
  // Outer (heap) order preserved: bird0, bird1, ...
  for (size_t i = 0; i < rows->size(); ++i) {
    EXPECT_EQ((*rows)[i].data.at(0).AsString(),
              "bird" + std::to_string(i));
  }
}

TEST(SummaryJoinTest, NestedLoopComparisonForm) {
  // Two versions of the same table; join where disease counts differ.
  TestDb v1(5);
  v1.Annotate(1, "disease", 3);
  v1.Annotate(2, "disease", 2);

  std::vector<Row> v2_rows;
  {
    auto rows = CollectRows(v1.Scan(true).get());
    ASSERT_TRUE(rows.ok());
    v2_rows = *rows;
    // Tamper: bump bird1's disease count in "V2" by replacing its set.
    for (Row& row : v2_rows) {
      if (row.oid == 1) {
        SummaryObject* obj = row.summaries.GetSummaryObject("ClassBird1");
        obj->elements[0].push_back(ElementRef{9999, 1});
        obj->reps[0].count = 4;
      }
    }
  }
  SummaryJoinPredicate pred;
  pred.left_expr = And(Cmp(Col("name"), CompareOp::kEq, Col("name")),
                       Lit(Value::Bool(true)));  // Placeholder, replaced:
  pred.left_expr = LabelValue("ClassBird1", "Disease");
  pred.op = CompareOp::kNe;
  pred.right_expr = LabelValue("ClassBird1", "Disease");

  auto right = std::make_unique<VectorSourceOp>(v1.birds->schema(),
                                                std::move(v2_rows));
  SummaryJoinOp join(v1.Scan(true), std::move(right), std::move(pred));
  auto rows = CollectRows(&join);
  ASSERT_TRUE(rows.ok());
  // Pairs where counts differ. V1 counts: {1:3, 2:2}; V2: {1:4, 2:2}.
  // Un-annotated rows have NULL label values -> never join.
  // Differing pairs: (1,1):3 vs 4 yes; (1,2):3 vs 2 yes; (2,1):2 vs 4 yes;
  // (2,2) equal no.
  EXPECT_EQ(rows->size(), 3u);
}

TEST(SummaryJoinTest, IndexStrategyEqualityProbe) {
  TestDb left_db(5);
  left_db.Annotate(1, "disease", 3);
  left_db.Annotate(2, "disease", 1);

  TestDb right_db(5);
  right_db.Annotate(3, "disease", 3);
  right_db.Annotate(4, "disease", 2);
  auto right_index = *SummaryBTree::Create(
      &right_db.storage, &right_db.pool, right_db.mgr.get(), "ClassBird1",
      SummaryBTree::Options{});

  SummaryJoinOp join(left_db.Scan(true), right_db.birds,
                     right_db.mgr.get(), right_index.get(), "ClassBird1",
                     "Disease", true);
  auto rows = CollectRows(&join);
  ASSERT_TRUE(rows.ok());
  // Left bird1 (count 3) matches right bird3 (count 3); left bird2
  // (count 1) matches nothing; un-annotated left rows have no object.
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].data.at(0).AsString(), "bird0");  // left bird oid 1
  EXPECT_EQ((*rows)[0].data.at(3).AsString(), "bird2");  // right bird oid 3
}

TEST(SortTest, DataSortAscendingDescending) {
  TestDb db(10);
  std::vector<SortKey> keys;
  keys.push_back(SortKey{Col("weight"), true});
  SortOp sort(db.Scan(false), std::move(keys), SortOp::Mode::kMemory);
  auto rows = CollectRows(&sort);
  ASSERT_TRUE(rows.ok());
  for (size_t i = 1; i < rows->size(); ++i) {
    EXPECT_GE((*rows)[i - 1].data.at(2).AsDouble(),
              (*rows)[i].data.at(2).AsDouble());
  }
  EXPECT_FALSE(sort.summary_based());
}

TEST(SortTest, SummarySortByLabelValue) {
  TestDb db(6);
  db.Annotate(1, "disease", 5);
  db.Annotate(2, "disease", 1);
  db.Annotate(3, "disease", 9);
  std::vector<SortKey> keys;
  keys.push_back(SortKey{LabelValue("ClassBird1", "Disease"), true});
  SortOp sort(db.Scan(true), std::move(keys), SortOp::Mode::kMemory);
  EXPECT_TRUE(sort.summary_based());
  auto rows = CollectRows(&sort);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 6u);
  EXPECT_EQ((*rows)[0].oid, 3u);
  EXPECT_EQ((*rows)[1].oid, 1u);
  EXPECT_EQ((*rows)[2].oid, 2u);
  // NULL label values (no summaries) sort last under DESC.
}

TEST(SortTest, ExternalSortMatchesMemorySort) {
  TestDb db(50);
  for (int i = 1; i <= 50; ++i) {
    db.Annotate(static_cast<Oid>(i), "disease", (i * 13) % 7);
  }
  auto make_keys = [] {
    std::vector<SortKey> keys;
    keys.push_back(SortKey{LabelValue("ClassBird1", "Disease"), false});
    return keys;
  };
  SortOp mem(db.Scan(true), make_keys(), SortOp::Mode::kMemory);
  auto mem_rows = CollectRows(&mem);
  ASSERT_TRUE(mem_rows.ok());

  // Tiny budget forces several spilled runs.
  SortOp ext(db.Scan(true), make_keys(), SortOp::Mode::kExternal,
             &db.storage, &db.pool, /*memory_budget_bytes=*/4096);
  auto ext_rows = CollectRows(&ext);
  ASSERT_TRUE(ext_rows.ok());
  EXPECT_GT(ext.runs_spilled(), 1u);

  ASSERT_EQ(mem_rows->size(), ext_rows->size());
  const Schema& schema = db.birds->schema();
  auto key = LabelValue("ClassBird1", "Disease");
  for (size_t i = 0; i < mem_rows->size(); ++i) {
    EXPECT_EQ(key->Eval((*mem_rows)[i], schema)->ToString(),
              key->Eval((*ext_rows)[i], schema)->ToString())
        << "position " << i;
  }
}

TEST(HashAggregateTest, GroupCountsAndSummaryMerge) {
  TestDb db(8);
  db.Annotate(1, "disease", 2);   // bird0: family0
  db.Annotate(5, "disease", 3);   // bird4: family0
  db.Annotate(2, "behavior", 1);  // bird1: family1

  std::vector<AggregateSpec> aggs;
  aggs.push_back(AggregateSpec{AggregateSpec::Kind::kCount, nullptr, "cnt"});
  HashAggregateOp agg(db.Scan(true), {"family"}, std::move(aggs),
                      db.mgr->MakeResolver());
  auto rows = CollectRows(&agg);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 4u);
  for (const Row& row : *rows) {
    EXPECT_EQ(row.data.at(1).AsInt(), 2);  // 8 birds over 4 families.
    if (row.data.at(0).AsString() == "family0") {
      // The annotations were attached to column 0 (name); grouping on
      // family projects name out, eliminating their effects: the merged
      // classifier (if it survives) reports zero.
      const SummaryObject* obj =
          row.summaries.GetSummaryObject("ClassBird1");
      if (obj != nullptr) {
        EXPECT_EQ(*obj->GetLabelValue("Disease"), 0);
      }
    }
  }
}

TEST(HashAggregateTest, GroupedColumnAnnotationsSurviveMerge) {
  TestDb db(8);
  // Attach annotations to the FAMILY column so grouping keeps them.
  db.Annotate(1, "disease", 2, /*col=*/1);  // bird0: family0
  db.Annotate(5, "disease", 3, /*col=*/1);  // bird4: family0

  std::vector<AggregateSpec> aggs;
  aggs.push_back(AggregateSpec{AggregateSpec::Kind::kCount, nullptr, "cnt"});
  HashAggregateOp agg(db.Scan(true), {"family"}, std::move(aggs),
                      db.mgr->MakeResolver());
  auto rows = CollectRows(&agg);
  ASSERT_TRUE(rows.ok());
  bool found = false;
  for (const Row& row : *rows) {
    if (row.data.at(0).AsString() != "family0") continue;
    found = true;
    const SummaryObject* obj = row.summaries.GetSummaryObject("ClassBird1");
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(*obj->GetLabelValue("Disease"), 5);  // 2 + 3 merged.
  }
  EXPECT_TRUE(found);
}

TEST(HashAggregateTest, SumMinMaxAvg) {
  TestDb db(6);
  std::vector<AggregateSpec> aggs;
  aggs.push_back(AggregateSpec{AggregateSpec::Kind::kSum, Col("weight"),
                               "total"});
  aggs.push_back(AggregateSpec{AggregateSpec::Kind::kMin, Col("weight"),
                               "lightest"});
  aggs.push_back(AggregateSpec{AggregateSpec::Kind::kMax, Col("weight"),
                               "heaviest"});
  aggs.push_back(AggregateSpec{AggregateSpec::Kind::kAvg, Col("weight"),
                               "mean"});
  HashAggregateOp agg(db.Scan(false), {}, std::move(aggs),
                      NullResolver());
  auto rows = CollectRows(&agg);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  const Row& row = (*rows)[0];
  // Weights: 1.0, 1.25, ..., 2.25; sum = 9.75 (int-truncated to 9).
  EXPECT_EQ(row.data.at(0).AsInt(), 9);
  EXPECT_DOUBLE_EQ(row.data.at(1).AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(row.data.at(2).AsDouble(), 2.25);
  EXPECT_NEAR(row.data.at(3).AsDouble(), 9.75 / 6, 1e-9);
}

TEST(DistinctTest, CollapsesDuplicatesAndMergesSummaries) {
  TestDb db(4);
  db.Annotate(1, "disease", 1);
  db.Annotate(2, "disease", 2);
  // Project to family only -> birds 1 and 2 (family1, family2) stay
  // distinct; duplicates across the 4 families collapse pairwise? With 4
  // birds and 4 families all are distinct; instead project to a constant
  // shape: reuse family column (4 distinct) -> dedup on weight band.
  auto project = std::make_unique<ProjectOp>(
      db.Scan(true), std::vector<std::string>{"family"},
      db.mgr->MakeResolver());
  DistinctOp distinct{std::move(project)};
  auto rows = CollectRows(&distinct);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);
}

TEST(LimitTest, StopsEarly) {
  TestDb db(10);
  LimitOp limit(db.Scan(false), 3);
  auto rows = CollectRows(&limit);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST(ExplainTest, TreeRendering) {
  TestDb db(3);
  SummarySelectOp select(
      db.Scan(true), Cmp(LabelValue("ClassBird1", "Disease"), CompareOp::kGt,
                         Lit(Value::Int(0))));
  const std::string plan = select.ExplainTree();
  EXPECT_NE(plan.find("SummarySelect[S]"), std::string::npos);
  EXPECT_NE(plan.find("SeqScan(Birds"), std::string::npos);
}

// The paper's Example 1 (Figure 3) as an integration test: an SPJ query
// over two annotated relations with projection-before-merge semantics.
TEST(PaperExample1Test, SelectProjectJoinPropagation) {
  StorageManager storage(StorageManager::Backend::kMemory);
  BufferPool pool(&storage, 4096);
  Catalog catalog(&storage, &pool);

  // R(a, b, c, d): tuple r = (1, 2, 30, 40).
  Table* r_table = *catalog.CreateTable(
      "R", Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64},
                   {"c", ValueType::kInt64}, {"d", ValueType::kInt64}}));
  Oid r = *r_table->Insert(Tuple({Value::Int(1), Value::Int(2),
                                  Value::Int(30), Value::Int(40)}));
  auto r_store = *AnnotationStore::Create(&catalog, "R", 4);
  auto r_mgr = *SummaryManager::Create(&catalog, r_table, r_store.get());

  // S(x, y, z): tuple s = (1, 7, 9).
  Table* s_table = *catalog.CreateTable(
      "S", Schema({{"x", ValueType::kInt64}, {"y", ValueType::kInt64},
                   {"z", ValueType::kInt64}}));
  Oid s = *s_table->Insert(
      Tuple({Value::Int(1), Value::Int(7), Value::Int(9)}));
  auto s_store = *AnnotationStore::Create(&catalog, "S", 3);
  auto s_mgr = *SummaryManager::Create(&catalog, s_table, s_store.get());

  // A classifier shared by both relations (ClassBird2-style: merged on
  // join) — untrained, so everything classifies as the last label.
  auto model = std::make_shared<NaiveBayesClassifier>(
      std::vector<std::string>{"Provenance", "Comment"});
  SummaryInstance shared = SummaryInstance::Classifier(
      "ClassBird2", {"Provenance", "Comment"}, model);
  r_mgr->LinkInstance(shared).ok();
  s_mgr->LinkInstance(shared).ok();
  // An instance only on R (ClassBird1-style: propagates unchanged).
  auto model2 = std::make_shared<NaiveBayesClassifier>(
      std::vector<std::string>{"Behavior"});
  r_mgr->LinkInstance(SummaryInstance::Classifier("ClassBird1", {"Behavior"},
                                                  model2))
      .ok();

  // Annotations on r: 2 comments on kept columns (a, b), 1 comment on the
  // projected-out column c.
  r_mgr->AddAnnotation("comment on a", {{r, CellMask(0)}}).status();
  r_mgr->AddAnnotation("comment on b", {{r, CellMask(1)}}).status();
  r_mgr->AddAnnotation("comment on c", {{r, CellMask(2)}}).status();
  // Annotations on s: 1 comment on kept column z, 1 on projected-out y,
  // and x is kept through the join then projected at the end.
  s_mgr->AddAnnotation("comment on z", {{s, CellMask(2)}}).status();
  s_mgr->AddAnnotation("comment on y", {{s, CellMask(1)}}).status();

  // Query: Select r.a, r.b, s.z From R, S Where r.a = s.x And r.b = 2.
  // Plan per Figure 3: project early (keep join column), select, join,
  // final project.
  auto r_scan = std::make_unique<SeqScanOp>(r_table, r_mgr.get(), true);
  auto r_proj = std::make_unique<ProjectOp>(
      std::move(r_scan), std::vector<std::string>{"a", "b"},
      r_mgr->MakeResolver());
  auto r_sel = std::make_unique<SelectOp>(
      std::move(r_proj), Cmp(Col("b"), CompareOp::kEq, Lit(Value::Int(2))));

  auto s_scan = std::make_unique<SeqScanOp>(s_table, s_mgr.get(), true);
  auto s_proj = std::make_unique<ProjectOp>(
      std::move(s_scan), std::vector<std::string>{"x", "z"},
      s_mgr->MakeResolver());

  auto join = std::make_unique<NestedLoopJoinOp>(
      std::move(r_sel), std::move(s_proj),
      Cmp(Col("a"), CompareOp::kEq, Col("x")));
  ProjectOp final_proj(std::move(join), {"a", "b", "z"},
                       r_mgr->MakeResolver());

  auto rows = CollectRows(&final_proj);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  const Row& out = (*rows)[0];
  EXPECT_EQ(out.data.at(0).AsInt(), 1);
  EXPECT_EQ(out.data.at(2).AsInt(), 9);

  // ClassBird2 merged across both sides: r contributes 2 surviving
  // comments (a, b), s contributes 1 (z); c's and y's were eliminated by
  // the early projections.
  const SummaryObject* merged = out.summaries.GetSummaryObject("ClassBird2");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(*merged->GetLabelValue("Comment"), 3);
  // ClassBird1 exists only on R: propagates unchanged (2 kept comments).
  const SummaryObject* solo = out.summaries.GetSummaryObject("ClassBird1");
  ASSERT_NE(solo, nullptr);
  EXPECT_EQ(*solo->GetLabelValue("Behavior"), 2);
}

// ---------------------------------------------------------------------------
// Batch executor: rewind, batch-capacity invariance and EXPLAIN ANALYZE
// counters, parameterized over every operator's plan shape.
// ---------------------------------------------------------------------------

std::vector<std::string> Repr(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    out.push_back(std::to_string(row.oid) + "|" + row.data.ToString() + "|" +
                  row.summaries.ToString());
  }
  return out;
}

struct PlanCase {
  const char* name;
  OpPtr (*build)(TestDb&);
};

void PrintTo(const PlanCase& c, std::ostream* os) { *os << c.name; }

// A two-worker parallel region over Birds whose partitions split the rows
// by weight instead of by morsel, so each worker's share — and hence the
// gathered order — is deterministic.
OpPtr SplitGather(TestDb& db) {
  std::vector<OpPtr> partitions;
  for (CompareOp op : {CompareOp::kLt, CompareOp::kGe}) {
    OpPtr part = std::make_unique<SelectOp>(
        db.Scan(true), Cmp(Col("weight"), op, Lit(Value::Double(3.0))));
    partitions.push_back(
        std::make_unique<ExchangeOp>(std::move(part), partitions.size()));
  }
  return std::make_unique<GatherOp>(std::move(partitions), nullptr);
}

const PlanCase kPlanCases[] = {
    {"SeqScan", [](TestDb& db) { return db.Scan(true); }},
    {"IndexScan",
     [](TestDb& db) -> OpPtr {
       db.birds->CreateColumnIndex("weight").ok();
       return std::make_unique<IndexScanOp>(
           db.birds, "weight", Value::Double(1.5), true, Value::Double(5.0),
           true, db.mgr.get(), true);
     }},
    {"SummaryIndexScan",
     [](TestDb& db) -> OpPtr {
       return std::make_unique<SummaryIndexScanOp>(
           db.ClassIndex(), ClassifierProbe::GreaterThan("Disease", 0),
           db.mgr.get(), true);
     }},
    {"BaselineIndexScanDenormalized",
     [](TestDb& db) -> OpPtr {
       return std::make_unique<BaselineIndexScanOp>(
           db.BaselineIndex(), ClassifierProbe::GreaterThan("Disease", 0),
           db.mgr.get(), true, /*reconstruct_summaries=*/false);
     }},
    {"BaselineIndexScanReconstruct",
     [](TestDb& db) -> OpPtr {
       return std::make_unique<BaselineIndexScanOp>(
           db.BaselineIndex(), ClassifierProbe::GreaterThan("Disease", 0),
           db.mgr.get(), true, /*reconstruct_summaries=*/true);
     }},
    {"KeywordIndexScan",
     [](TestDb& db) -> OpPtr {
       return std::make_unique<KeywordIndexScanOp>(
           db.KeywordIndex(), std::vector<std::string>{"osprey"},
           db.mgr.get(), true);
     }},
    {"Select",
     [](TestDb& db) -> OpPtr {
       return std::make_unique<SelectOp>(db.Scan(false),
                                         Like(Col("family"), "family1"));
     }},
    {"SummarySelect",
     [](TestDb& db) -> OpPtr {
       return std::make_unique<SummarySelectOp>(
           db.Scan(true), Cmp(LabelValue("ClassBird1", "Disease"),
                              CompareOp::kGt, Lit(Value::Int(0))));
     }},
    {"SummaryFilter",
     [](TestDb& db) -> OpPtr {
       ObjectPredicate pred;
       pred.instance_name = "ClassBird1";
       return std::make_unique<SummaryFilterOp>(db.Scan(true), pred);
     }},
    {"Project",
     [](TestDb& db) -> OpPtr {
       return std::make_unique<ProjectOp>(
           db.Scan(true), std::vector<std::string>{"family", "name"},
           db.mgr->MakeResolver());
     }},
    {"HashJoin",
     [](TestDb& db) -> OpPtr {
       return std::make_unique<HashJoinOp>(db.Scan(true), db.Scan(false),
                                           "family", "family", nullptr);
     }},
    {"HashAggregate",
     [](TestDb& db) -> OpPtr {
       std::vector<AggregateSpec> aggs;
       aggs.push_back(
           AggregateSpec{AggregateSpec::Kind::kCount, nullptr, "cnt"});
       aggs.push_back(
           AggregateSpec{AggregateSpec::Kind::kSum, Col("weight"), "total"});
       return std::make_unique<HashAggregateOp>(
           db.Scan(true), std::vector<std::string>{"family"}, std::move(aggs),
           db.mgr->MakeResolver());
     }},
    {"SortMemory",
     [](TestDb& db) -> OpPtr {
       std::vector<SortKey> keys;
       keys.push_back(SortKey{Col("weight"), false});
       return std::make_unique<SortOp>(db.Scan(true), std::move(keys),
                                       SortOp::Mode::kMemory);
     }},
    {"SortExternal",
     [](TestDb& db) -> OpPtr {
       std::vector<SortKey> keys;
       keys.push_back(SortKey{Col("weight"), true});
       return std::make_unique<SortOp>(db.Scan(true), std::move(keys),
                                       SortOp::Mode::kExternal, &db.storage,
                                       &db.pool,
                                       /*memory_budget_bytes=*/2048);
     }},
    {"Limit",
     [](TestDb& db) -> OpPtr {
       return std::make_unique<LimitOp>(db.Scan(true), 7);
     }},
    // NestedLoopJoin's inner rescan is the strongest rewind dependency in
    // the tree.
    {"NestedLoopJoin",
     [](TestDb& db) -> OpPtr {
       return std::make_unique<NestedLoopJoinOp>(
           db.Scan(true), db.Scan(false),
           Cmp(Col("weight"), CompareOp::kLt, Lit(Value::Double(2.0))));
     }},
    {"IndexNLJoin",
     [](TestDb& db) -> OpPtr {
       db.birds->CreateColumnIndex("family").ok();
       return std::make_unique<IndexNLJoinOp>(db.Scan(true), db.birds,
                                              "family", Col("family"),
                                              db.mgr.get(), true);
     }},
    {"SummaryJoinNestedLoop",
     [](TestDb& db) -> OpPtr {
       SummaryJoinPredicate pred;
       pred.left_expr = LabelValue("ClassBird1", "Disease");
       pred.op = CompareOp::kEq;
       pred.right_expr = LabelValue("ClassBird1", "Disease");
       return std::make_unique<SummaryJoinOp>(db.Scan(true), db.Scan(true),
                                              std::move(pred));
     }},
    {"SummaryJoinIndex",
     [](TestDb& db) -> OpPtr {
       return std::make_unique<SummaryJoinOp>(
           db.Scan(true), db.birds, db.mgr.get(), db.ClassIndex(),
           "ClassBird1", "Disease", true);
     }},
    {"Gather", [](TestDb& db) { return SplitGather(db); }},
    // A join whose outer side is a parallel region: the gathered rows
    // stream into the join batch-wise.
    {"NestedLoopJoinOverGather",
     [](TestDb& db) -> OpPtr {
       return std::make_unique<NestedLoopJoinOp>(
           SplitGather(db), db.Scan(false),
           Cmp(Col("weight"), CompareOp::kLt, Lit(Value::Double(2.0))));
     }},
    {"Distinct",
     [](TestDb& db) -> OpPtr {
       auto project = std::make_unique<ProjectOp>(
           db.Scan(true), std::vector<std::string>{"family"},
           db.mgr->MakeResolver());
       return std::make_unique<DistinctOp>(std::move(project));
     }},
};

class BatchExecutorTest : public ::testing::TestWithParam<PlanCase> {
 protected:
  BatchExecutorTest() : db_(20) {
    db_.Annotate(1, "disease", 2);
    db_.Annotate(5, "behavior", 1);
    db_.Annotate(9, "disease", 4, /*col=*/1);
    db_.Annotate(14, "other", 3);
    // Long enough (> the TestDb snippet threshold) to get snippets the
    // keyword index can find.
    for (Oid oid : {3, 11, 17}) {
      std::string text;
      while (text.size() <= 85) text += "an osprey dived for a trout. ";
      db_.mgr->AddAnnotation(text, {{oid, CellMask(0)}}).ValueOrDie();
    }
  }

  // Runs the plan at the default capacity, then at `capacity` rows per
  // batch, and expects the same rows in the same order.
  void ExpectSameRowsAtCapacity(size_t capacity) {
    OpPtr op = GetParam().build(db_);
    auto baseline = CollectRows(op.get());
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    ExecutionContext ctx(&db_.storage, &db_.pool, capacity);
    op->AttachContext(&ctx);
    auto small = CollectRows(op.get());
    ASSERT_TRUE(small.ok()) << small.status().ToString();
    EXPECT_EQ(Repr(*baseline), Repr(*small));
  }

  TestDb db_;
};

// Satellite: re-running an already-consumed plan (Open -> drain -> Close,
// twice) must produce identical output — Open fully rewinds operator state
// including the batch-execution buffers and counters.
TEST_P(BatchExecutorTest, DoubleExecutionMatches) {
  OpPtr op = GetParam().build(db_);
  auto first = CollectRows(op.get());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = CollectRows(op.get());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(Repr(*first), Repr(*second));
  EXPECT_GT(first->size(), 0u);
  EXPECT_EQ(op->stats().rows, second->size());
}

// Row-at-a-time execution is one row per batch: every per-row state
// boundary (outer row, inner match, merge head) falls between two
// NextBatch calls.
TEST_P(BatchExecutorTest, BatchMatchesRowAtATime) {
  ExpectSameRowsAtCapacity(1);
}

// Tiny batches force every operator through its partial-batch paths.
TEST_P(BatchExecutorTest, TinyBatchesMatchDefaultCapacity) {
  ExpectSameRowsAtCapacity(3);
}

std::string PlanName(const ::testing::TestParamInfo<PlanCase>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Plans, BatchExecutorTest,
                         ::testing::ValuesIn(kPlanCases), PlanName);

// EXPLAIN ANALYZE must report what each operator really did. Run in CI
// under ThreadSanitizer too: the Gather cases' partition counters are
// written on worker threads and rendered here.
class ExplainAnalyzeInvariantTest : public BatchExecutorTest {};

void StampEstimates(PhysicalOperator* op) {
  op->set_estimated_rows(1);  // Any estimate: it makes actual= render.
  for (PhysicalOperator* child : op->children()) StampEstimates(child);
}

// actual= of every rendered operator, in plan (pre-)order.
std::vector<uint64_t> ParseActuals(const std::string& analyzed) {
  std::vector<uint64_t> out;
  for (size_t pos = analyzed.find("actual="); pos != std::string::npos;
       pos = analyzed.find("actual=", pos + 1)) {
    out.push_back(std::strtoull(analyzed.c_str() + pos + 7, nullptr, 10));
  }
  return out;
}

// Walks the executed plan `ran` alongside an unexecuted copy `fresh`. The
// rows an operator really emitted are what its copy's subtree emits when
// run on its own (every plan case is deterministic).
void CheckCounters(const PhysicalOperator& ran, PhysicalOperator* fresh,
                   const std::vector<uint64_t>& actuals, size_t* line) {
  ASSERT_LT(*line, actuals.size());
  const uint64_t actual = actuals[(*line)++];
  auto emitted = CollectRows(fresh);
  ASSERT_TRUE(emitted.ok()) << emitted.status().ToString();
  EXPECT_EQ(actual, emitted->size()) << ran.Describe();
  if (!emitted->empty()) {
    EXPECT_GT(ran.stats().rows, 0u) << ran.Describe();
    EXPECT_GT(ran.stats().batches, 0u) << ran.Describe();
  }
  const std::vector<PhysicalOperator*> kids = ran.children();
  const std::vector<PhysicalOperator*> fresh_kids = fresh->children();
  ASSERT_EQ(kids.size(), fresh_kids.size());
  for (size_t i = 0; i < kids.size(); ++i) {
    EXPECT_GE(ran.stats().total_ns(), kids[i]->stats().total_ns())
        << ran.Describe() << " over " << kids[i]->Describe();
    CheckCounters(*kids[i], fresh_kids[i], actuals, line);
  }
}

TEST_P(ExplainAnalyzeInvariantTest, CountersMatchEmittedRows) {
  OpPtr ran = GetParam().build(db_);
  StampEstimates(ran.get());
  ASSERT_TRUE(CollectRows(ran.get()).ok());
  const std::vector<uint64_t> actuals =
      ParseActuals(ran->ExplainAnalyzeTree());
  OpPtr fresh = GetParam().build(db_);
  size_t line = 0;
  CheckCounters(*ran, fresh.get(), actuals, &line);
  EXPECT_EQ(line, actuals.size());
}

INSTANTIATE_TEST_SUITE_P(Plans, ExplainAnalyzeInvariantTest,
                         ::testing::ValuesIn(kPlanCases), PlanName);

// Satellite: an external sort under a tiny budget must spill, and its
// batch-mode output must equal the in-memory sort's output row-for-row.
// The sort key (weight) is unique per row, so the comparison is total.
TEST(SortTest, ExternalBatchOutputMatchesMemoryRowForRow) {
  TestDb db(64);
  for (int i = 1; i <= 64; ++i) {
    db.Annotate(static_cast<Oid>(i), "disease", (i * 7) % 5);
  }
  auto make_keys = [] {
    std::vector<SortKey> keys;
    keys.push_back(SortKey{Col("weight"), false});
    return keys;
  };
  // The memory side runs one row per batch, the external side at the
  // default capacity.
  ExecutionContext one_row(&db.storage, &db.pool, /*batch_size=*/1);
  SortOp mem(db.Scan(true), make_keys(), SortOp::Mode::kMemory);
  mem.AttachContext(&one_row);
  auto mem_rows = CollectRows(&mem);
  ASSERT_TRUE(mem_rows.ok()) << mem_rows.status().ToString();

  SortOp ext(db.Scan(true), make_keys(), SortOp::Mode::kExternal, &db.storage,
             &db.pool, /*memory_budget_bytes=*/2048);
  auto ext_rows = CollectRows(&ext);
  ASSERT_TRUE(ext_rows.ok()) << ext_rows.status().ToString();
  EXPECT_GT(ext.runs_spilled(), 0u);
  ASSERT_EQ(mem_rows->size(), ext_rows->size());
  EXPECT_EQ(Repr(*mem_rows), Repr(*ext_rows));
}

}  // namespace
}  // namespace insight
