// Tests for the extensions beyond the paper's core: the hash join
// operator, the snippet keyword index, and their optimizer integration.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "engine_test_util.h"
#include "optimizer/optimizer.h"
#include "sindex/keyword_index.h"
#include "sql/database.h"

namespace insight {
namespace {

// ---------- HashJoinOp ----------

class HashJoinTest : public ::testing::Test {
 protected:
  HashJoinTest() : db(12) {
    families = *db.catalog.CreateTable(
        "Fam", Schema({{"fam", ValueType::kString},
                       {"region", ValueType::kString}}));
    for (int i = 0; i < 4; ++i) {
      families
          ->Insert(Tuple({Value::String("family" + std::to_string(i)),
                          Value::String(i % 2 == 0 ? "north" : "south")}))
          .status();
    }
  }

  TestDb db;
  Table* families;
};

TEST_F(HashJoinTest, MatchesNestedLoopResults) {
  db.Annotate(1, "disease", 2);
  auto nl_rows = [&] {
    NestedLoopJoinOp join(db.Scan(true), std::make_unique<SeqScanOp>(families),
                          Cmp(Col("family"), CompareOp::kEq, Col("fam")));
    return CollectRows(&join).ValueOrDie();
  }();
  auto hash_rows = [&] {
    HashJoinOp join(db.Scan(true), std::make_unique<SeqScanOp>(families),
                    "family", "fam", nullptr);
    return CollectRows(&join).ValueOrDie();
  }();
  ASSERT_EQ(nl_rows.size(), hash_rows.size());
  auto render = [](std::vector<Row> rows) {
    std::vector<std::string> out;
    for (const Row& row : rows) {
      out.push_back(row.data.ToString() + row.summaries.ToString());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(render(nl_rows), render(hash_rows));
}

TEST_F(HashJoinTest, PreservesProbeSideOrder) {
  HashJoinOp join(db.Scan(false), std::make_unique<SeqScanOp>(families),
                  "family", "fam", nullptr);
  auto rows = CollectRows(&join).ValueOrDie();
  ASSERT_EQ(rows.size(), 12u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].data.at(0).AsString(), "bird" + std::to_string(i));
  }
}

TEST_F(HashJoinTest, ResidualPredicateFilters) {
  HashJoinOp join(db.Scan(false), std::make_unique<SeqScanOp>(families),
                  "family", "fam",
                  Cmp(Col("region"), CompareOp::kEq,
                      Lit(Value::String("north"))));
  auto rows = CollectRows(&join).ValueOrDie();
  EXPECT_EQ(rows.size(), 6u);  // Families 0, 2 -> 3 birds each.
}

TEST_F(HashJoinTest, NullKeysNeverJoin) {
  Table* nully = *db.catalog.CreateTable(
      "Nully", Schema({{"k", ValueType::kString}}));
  nully->Insert(Tuple({Value::Null()})).status();
  nully->Insert(Tuple({Value::String("family1")})).status();
  HashJoinOp join(std::make_unique<SeqScanOp>(nully),
                  std::make_unique<SeqScanOp>(families),
                  "k", "fam", nullptr);
  auto rows = CollectRows(&join).ValueOrDie();
  EXPECT_EQ(rows.size(), 1u);
}

TEST_F(HashJoinTest, OptimizerPicksHashJoinWithoutInnerIndex) {
  QueryContext ctx(&db.catalog, &db.storage, &db.pool);
  ctx.RegisterRelation(db.birds, db.mgr.get()).ok();
  ctx.RegisterRelation(families, nullptr).ok();
  Optimizer opt(&ctx, OptimizerOptions{});
  LogicalPtr plan = LJoin(LScan("Birds"), LScan("Fam"),
                          Cmp(Col("family"), CompareOp::kEq, Col("fam")));
  auto op = opt.Optimize(plan->Clone());
  ASSERT_TRUE(op.ok());
  EXPECT_NE((*op)->ExplainTree().find("HashJoin"), std::string::npos)
      << (*op)->ExplainTree();

  OptimizerOptions no_hash;
  no_hash.enable_hash_join = false;
  Optimizer opt2(&ctx, no_hash);
  auto op2 = opt2.Optimize(std::move(plan));
  ASSERT_TRUE(op2.ok());
  EXPECT_NE((*op2)->ExplainTree().find("NestedLoopJoin"), std::string::npos);
}

// ---------- SnippetKeywordIndex ----------

class KeywordIndexTest : public ::testing::Test {
 protected:
  KeywordIndexTest() : db(10) {
    index = std::move(SnippetKeywordIndex::Create(
                          &db.storage, &db.pool, db.mgr.get(),
                          "TextSummary1", SnippetKeywordIndex::Options{}))
                .ValueOrDie();
  }

  // Long enough (>80 chars, TestDb snippet threshold) to get a snippet.
  void AddLong(Oid oid, const std::string& sentence) {
    std::string text;
    while (text.size() <= 85) text += sentence + " ";
    db.mgr->AddAnnotation(text, {{oid, CellMask(0)}}).ValueOrDie();
  }

  TestDb db;
  std::unique_ptr<SnippetKeywordIndex> index;
};

TEST_F(KeywordIndexTest, RejectsNonSnippetInstances) {
  auto result = SnippetKeywordIndex::Create(&db.storage, &db.pool,
                                            db.mgr.get(), "ClassBird1",
                                            SnippetKeywordIndex::Options{});
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(KeywordIndexTest, SearchFindsWholeWords) {
  AddLong(1, "the heron swallowed a stonewort shoot.");
  AddLong(2, "wikipedia hormone article for swans.");
  auto hits = index->Search("stonewort");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(*hits, std::vector<Oid>{1});
  EXPECT_TRUE(index->Search("stone")->empty());  // Not a whole word.
  EXPECT_EQ(index->Search("WIKIPEDIA")->size(), 1u);  // Case-insensitive.
}

TEST_F(KeywordIndexTest, SearchAllIntersectsPostings) {
  AddLong(1, "wikipedia article about swans.");
  AddLong(2, "hormone study on herons.");
  AddLong(3, "wikipedia hormone survey combined.");
  auto hits = index->SearchAll({"wikipedia", "hormone"});
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(*hits, std::vector<Oid>{3});
  EXPECT_TRUE(index->SearchAll({"wikipedia", "penguin"})->empty());
  EXPECT_TRUE(index->SearchAll({})->empty());
}

TEST_F(KeywordIndexTest, MaintainedOnRemovalAndTupleDelete) {
  AddLong(4, "unique keyword zanzibar appears here.");
  ASSERT_EQ(index->Search("zanzibar")->size(), 1u);
  // Find the annotation and remove it.
  auto anns = db.annotations->ForTuple(4).ValueOrDie();
  ASSERT_EQ(anns.size(), 1u);
  ASSERT_TRUE(db.mgr->RemoveAnnotation(anns[0].id).ok());
  EXPECT_TRUE(index->Search("zanzibar")->empty());

  AddLong(5, "another keyword quagga appears.");
  ASSERT_TRUE(db.mgr->OnTupleDeleted(5).ok());
  EXPECT_TRUE(index->Search("quagga")->empty());
}

TEST_F(KeywordIndexTest, BulkBuildMatchesIncremental) {
  AddLong(1, "alpha beta gamma words.");
  AddLong(2, "beta delta words.");
  auto bulk = std::move(SnippetKeywordIndex::Create(
                            &db.storage, &db.pool, db.mgr.get(),
                            "TextSummary1",
                            SnippetKeywordIndex::Options{}))
                  .ValueOrDie();
  EXPECT_EQ(*bulk->Search("beta"), *index->Search("beta"));
  EXPECT_EQ(*bulk->Search("alpha"), *index->Search("alpha"));
}

TEST_F(KeywordIndexTest, ScanOperatorFetchesTuples) {
  AddLong(3, "searchable snippet with osprey keyword.");
  AttachSummariesOp scan(std::make_unique<KeywordIndexScanOp>(
                             db.birds, index.get(),
                             std::vector<std::string>{"osprey"}),
                         db.mgr.get());
  auto rows = CollectRows(&scan).ValueOrDie();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].oid, 3u);
  EXPECT_FALSE(rows[0].summaries.empty());
}

// ---------- End-to-end through SQL ----------

TEST(KeywordIndexSqlTest, IndexableSnippetInstanceUsedByPlanner) {
  Database db;
  db.Execute("CREATE TABLE Docs (title TEXT)").ValueOrDie();
  SnippetSummarizer::Options snip;
  snip.min_chars = 60;
  snip.max_snippet_chars = 200;
  db.DefineSnippet("TextSummary1", snip).ok();
  db.Execute("ALTER TABLE Docs ADD INDEXABLE TextSummary1").ValueOrDie();
  for (int i = 0; i < 30; ++i) {
    db.Execute("INSERT INTO Docs VALUES ('doc" + std::to_string(i) + "')")
        .ValueOrDie();
  }
  db.Execute("ANNOTATE Docs TUPLE 7 WITH 'A wikipedia hormone study that "
             "is long enough to be summarized into a snippet object.'")
      .ValueOrDie();
  db.Execute("ANNOTATE Docs TUPLE 9 WITH 'A wikipedia entry about cranes "
             "that is long enough to be summarized into a snippet.'")
      .ValueOrDie();
  db.Execute("ANALYZE Docs").ValueOrDie();

  const std::string sql =
      "SELECT title FROM Docs WHERE "
      "$.getSummaryObject('TextSummary1').containsUnion('wikipedia', "
      "'hormone')";
  auto plan = db.Explain(sql).ValueOrDie();
  EXPECT_NE(plan.find("KeywordIndexScan"), std::string::npos) << plan;
  auto result = db.Execute(sql).ValueOrDie();
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].at(0).AsString(), "doc6");

  // containsSingle keeps a residual re-check above the scan.
  const std::string single_sql =
      "SELECT title FROM Docs WHERE "
      "$.getSummaryObject('TextSummary1').containsSingle('wikipedia', "
      "'cranes')";
  auto single_plan = db.Explain(single_sql).ValueOrDie();
  EXPECT_NE(single_plan.find("KeywordIndexScan"), std::string::npos)
      << single_plan;
  EXPECT_NE(single_plan.find("SummarySelect"), std::string::npos)
      << single_plan;
  auto single = db.Execute(single_sql).ValueOrDie();
  ASSERT_EQ(single.rows.size(), 1u);
  EXPECT_EQ(single.rows[0].at(0).AsString(), "doc8");
}

TEST(KeywordIndexSqlTest, ClusterIndexableIsRejected) {
  Database db;
  db.Execute("CREATE TABLE T (x TEXT)").ValueOrDie();
  db.DefineCluster("Clust").ok();
  EXPECT_EQ(db.Execute("ALTER TABLE T ADD INDEXABLE Clust").status().code(),
            StatusCode::kNotImplemented);
  // Non-indexable linking still works.
  EXPECT_TRUE(db.Execute("ALTER TABLE T ADD Clust").ok());
}


TEST(KeywordIndexSqlTest, DropAndRelinkIndexableInstance) {
  Database db;
  db.Execute("CREATE TABLE T (x TEXT)").ValueOrDie();
  db.DefineClassifier("C", {"A", "B"},
                      {{"aword aword", "A"}, {"bword bword", "B"}})
      .ok();
  db.Execute("ALTER TABLE T ADD INDEXABLE C").ValueOrDie();
  db.Execute("INSERT INTO T VALUES ('t1')").ValueOrDie();
  db.Execute("ANNOTATE T TUPLE 1 WITH 'aword note'").ValueOrDie();
  db.Execute("ALTER TABLE T DROP C").ValueOrDie();
  // Re-link as indexable: must not collide with the dropped index's file.
  db.Execute("ALTER TABLE T ADD INDEXABLE C").ValueOrDie();
  db.Execute("ANNOTATE T TUPLE 1 WITH 'aword again'").ValueOrDie();
  auto result = db.Execute(
      "SELECT x FROM T WHERE "
      "$.getSummaryObject('C').getLabelValue('A') = 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 1u);
}

}  // namespace
}  // namespace insight
