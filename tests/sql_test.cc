#include <gtest/gtest.h>

#include "sql/database.h"
#include "sql/parser.h"

namespace insight {
namespace {

// ---------- Parser unit tests ----------

TEST(LexerTest, TokenizesMixedInput) {
  auto tokens = Tokenize("SELECT a, b FROM t WHERE x >= 3.5 AND y = 'it''s'");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 13u);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_TRUE((*tokens)[0].Is("select"));
  // The escaped quote string.
  bool found = false;
  for (const Token& token : *tokens) {
    if (token.type == TokenType::kString) {
      EXPECT_EQ(token.text, "it's");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LexerTest, RejectsUnterminatedString) {
  EXPECT_TRUE(Tokenize("SELECT 'oops").status().IsParseError());
}

TEST(ParserTest, SimpleSelect) {
  auto stmt = ParseStatement("SELECT name, family FROM Birds");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->kind, Statement::Kind::kSelect);
  ASSERT_EQ(stmt->select->items.size(), 2u);
  EXPECT_EQ(stmt->select->items[0].name, "name");
  ASSERT_EQ(stmt->select->from.size(), 1u);
  EXPECT_EQ(stmt->select->from[0].table, "Birds");
}

TEST(ParserTest, SelectWithEverything) {
  auto stmt = ParseStatement(
      "SELECT family, COUNT(*) AS cnt FROM Birds b "
      "WHERE b.weight > 2.5 AND name LIKE 'Swan%' "
      "GROUP BY family ORDER BY family DESC LIMIT 10;");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStatement& select = *stmt->select;
  EXPECT_EQ(select.from[0].alias, "b");
  ASSERT_NE(select.where, nullptr);
  ASSERT_EQ(select.group_by.size(), 1u);
  ASSERT_EQ(select.order_by.size(), 1u);
  EXPECT_TRUE(select.order_by[0].descending);
  EXPECT_EQ(select.limit, 10u);
  EXPECT_TRUE(select.items[1].is_aggregate);
  EXPECT_EQ(select.items[1].name, "cnt");
}

TEST(ParserTest, SummaryFunctionSyntax) {
  auto expr = ParseExpression(
      "$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 5");
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  auto indexable = MatchIndexablePredicate(expr->get());
  ASSERT_TRUE(indexable.has_value());
  EXPECT_EQ(indexable->instance, "ClassBird1");
  EXPECT_EQ(indexable->label, "Disease");
  EXPECT_EQ(indexable->constant, 5);
}

TEST(ParserTest, QualifiedSummaryFunction) {
  auto expr = ParseExpression(
      "v1.$.getSummaryObject('C').getLabelValue('P') <> "
      "v2.$.getSummaryObject('C').getLabelValue('P')");
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  const auto* cmp = dynamic_cast<const CompareExpr*>(expr->get());
  ASSERT_NE(cmp, nullptr);
  const auto* lf = dynamic_cast<const SummaryFuncExpr*>(cmp->left());
  ASSERT_NE(lf, nullptr);
  EXPECT_EQ(lf->qualifier(), "v1");
}

TEST(ParserTest, ContainsFunctions) {
  auto expr = ParseExpression(
      "$.getSummaryObject('TextSummary1').containsUnion('Wikipedia', "
      "'hormone')");
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  const auto* func = dynamic_cast<const SummaryFuncExpr*>(expr->get());
  ASSERT_NE(func, nullptr);
  EXPECT_EQ(func->kind(), SummaryFuncKind::kContainsUnion);
  EXPECT_EQ(func->keywords().size(), 2u);
}

TEST(ParserTest, DdlStatements) {
  auto create = ParseStatement(
      "CREATE TABLE Birds (name TEXT, family VARCHAR(40), weight DOUBLE)");
  ASSERT_TRUE(create.ok()) << create.status().ToString();
  EXPECT_EQ(create->schema.num_columns(), 3u);
  EXPECT_EQ(create->schema.column(2).type, ValueType::kDouble);

  auto alter = ParseStatement("ALTER TABLE Birds ADD INDEXABLE ClassBird1");
  ASSERT_TRUE(alter.ok());
  EXPECT_EQ(alter->kind, Statement::Kind::kAlterAdd);
  EXPECT_TRUE(alter->indexable);
  EXPECT_EQ(alter->instance, "ClassBird1");

  auto drop = ParseStatement("ALTER TABLE Birds DROP ClassBird1");
  ASSERT_TRUE(drop.ok());
  EXPECT_EQ(drop->kind, Statement::Kind::kAlterDrop);

  auto annotate = ParseStatement(
      "ANNOTATE Birds TUPLE 7 COLUMN name, family WITH 'observed sick'");
  ASSERT_TRUE(annotate.ok()) << annotate.status().ToString();
  EXPECT_EQ(annotate->tuple_oid, 7u);
  EXPECT_EQ(annotate->columns.size(), 2u);
  EXPECT_EQ(annotate->text, "observed sick");

  auto zoom = ParseStatement("ZOOM IN ON Birds TUPLE 3 INSTANCE 'ClassBird1'");
  ASSERT_TRUE(zoom.ok());
  EXPECT_EQ(zoom->kind, Statement::Kind::kZoomIn);
  EXPECT_EQ(zoom->instance, "ClassBird1");
}

TEST(ParserTest, Errors) {
  EXPECT_TRUE(ParseStatement("FROB x").status().IsParseError());
  EXPECT_TRUE(ParseStatement("SELECT FROM t").status().IsParseError());
  EXPECT_TRUE(ParseStatement("SELECT a FROM t WHERE").status().IsParseError());
  EXPECT_TRUE(
      ParseStatement("SELECT a FROM t extra tokens here ,")
          .status()
          .IsParseError());
  EXPECT_TRUE(ParseExpression("$.getWrongFunc()").status().IsParseError());
}

// ---------- End-to-end Database tests ----------

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() {
    db.Execute("CREATE TABLE Birds (name TEXT, family TEXT, weight DOUBLE)")
        .ValueOrDie();
    db.DefineClassifier(
          "ClassBird1", {"Disease", "Behavior", "Other"},
          {{"diseaseword infection sick", "Disease"},
           {"behaviorword eating foraging", "Behavior"},
           {"otherword comment note", "Other"}})
        .ok();
    SnippetSummarizer::Options snip;
    snip.min_chars = 80;
    snip.max_snippet_chars = 60;
    db.DefineSnippet("TextSummary1", snip).ok();
    db.Execute("ALTER TABLE Birds ADD INDEXABLE ClassBird1").ValueOrDie();
    db.Execute("ALTER TABLE Birds ADD TextSummary1").ValueOrDie();
    for (int i = 0; i < 12; ++i) {
      db.Execute("INSERT INTO Birds VALUES ('bird" + std::to_string(i) +
                 "', 'family" + std::to_string(i % 3) + "', " +
                 std::to_string(1.0 + i * 0.5) + ")")
          .ValueOrDie();
    }
  }

  void Annotate(int oid, const std::string& kind, int n) {
    for (int i = 0; i < n; ++i) {
      db.Execute("ANNOTATE Birds TUPLE " + std::to_string(oid) + " WITH '" +
                 kind + "word note " + std::to_string(i) + "'")
          .ValueOrDie();
    }
  }

  Database db;
};

TEST_F(DatabaseTest, BasicSelect) {
  auto result = db.Execute("SELECT name FROM Birds WHERE family = 'family1'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 4u);
  EXPECT_EQ(result->schema.column(0).name, "name");
}

TEST_F(DatabaseTest, SelectStar) {
  auto result = db.Execute("SELECT * FROM Birds LIMIT 3");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->schema.num_columns(), 3u);
}

TEST_F(DatabaseTest, SummarySelectionUsesIndex) {
  Annotate(1, "disease", 4);
  Annotate(2, "disease", 2);
  db.Execute("ANALYZE Birds").ValueOrDie();
  const std::string sql =
      "SELECT name FROM Birds WHERE "
      "$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 3";
  auto plan = db.Explain(sql);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("SummaryIndexScan"), std::string::npos) << *plan;
  auto result = db.Execute(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].at(0).AsString(), "bird0");
}

TEST_F(DatabaseTest, SummaryFunctionInSelectList) {
  Annotate(3, "disease", 5);
  auto result = db.Execute(
      "SELECT name, $.getSummaryObject('ClassBird1')"
      ".getLabelValue('Disease') AS diseases FROM Birds "
      "WHERE $.getSummaryObject('ClassBird1').getLabelValue('Disease') > 0");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].at(1).AsInt(), 5);
  EXPECT_EQ(result->schema.column(1).name, "diseases");
}

TEST_F(DatabaseTest, SummarySortQuery) {
  Annotate(1, "disease", 2);
  Annotate(2, "disease", 7);
  Annotate(3, "disease", 4);
  auto result = db.Execute(
      "SELECT name FROM Birds WHERE "
      "$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 0 "
      "ORDER BY $.getSummaryObject('ClassBird1').getLabelValue('Disease') "
      "DESC");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0].at(0).AsString(), "bird1");
  EXPECT_EQ(result->rows[1].at(0).AsString(), "bird2");
  EXPECT_EQ(result->rows[2].at(0).AsString(), "bird0");
}

TEST_F(DatabaseTest, AggregationWithSummaries) {
  Annotate(1, "behavior", 3);  // bird0, family0
  Annotate(4, "behavior", 2);  // bird3, family0
  auto result = db.Execute(
      "SELECT family, COUNT(*) AS birds FROM Birds GROUP BY family");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 3u);
  for (const Tuple& row : result->rows) {
    EXPECT_EQ(row.at(1).AsInt(), 4);
  }
}

TEST_F(DatabaseTest, JoinTwoTables) {
  db.Execute("CREATE TABLE Regions (fam TEXT, region TEXT)").ValueOrDie();
  db.Execute("INSERT INTO Regions VALUES ('family0', 'north'), "
             "('family1', 'south'), ('family2', 'east')")
      .ValueOrDie();
  auto result = db.Execute(
      "SELECT name, region FROM Birds, Regions "
      "WHERE family = fam AND region = 'south'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 4u);
  for (const Tuple& row : result->rows) {
    EXPECT_EQ(row.at(1).AsString(), "south");
  }
}

TEST_F(DatabaseTest, SummaryJoinBetweenVersions) {
  // Fig. 16 Q2 shape: two versions joined on id with differing counts.
  db.Execute("CREATE TABLE BirdsV2 (name TEXT, family TEXT, weight DOUBLE)")
      .ValueOrDie();
  db.Execute("ALTER TABLE BirdsV2 ADD ClassBird1").ValueOrDie();
  for (int i = 0; i < 12; ++i) {
    db.Execute("INSERT INTO BirdsV2 VALUES ('bird" + std::to_string(i) +
               "', 'familyX', 1.0)")
        .ValueOrDie();
  }
  Annotate(1, "disease", 2);  // Birds bird0 -> 2.
  db.Execute("ANNOTATE BirdsV2 TUPLE 1 WITH 'diseaseword note'")
      .ValueOrDie();  // V2 bird0 -> 1 (differs).
  Annotate(2, "disease", 1);  // Birds bird1 -> 1.
  db.Execute("ANNOTATE BirdsV2 TUPLE 2 WITH 'diseaseword note'")
      .ValueOrDie();  // V2 bird1 -> 1 (same).

  auto result = db.Execute(
      "SELECT v1.name FROM Birds v1, BirdsV2 v2 "
      "WHERE v1.name = v2.name AND "
      "v1.$.getSummaryObject('ClassBird1').getLabelValue('Disease') <> "
      "v2.$.getSummaryObject('ClassBird1').getLabelValue('Disease')");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].at(0).AsString(), "bird0");
}

TEST_F(DatabaseTest, ZoomInCommand) {
  Annotate(5, "disease", 2);
  Annotate(5, "behavior", 1);
  auto result = db.Execute("ZOOM IN ON Birds TUPLE 5");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->annotations.size(), 3u);

  // Instance-scoped zoom-in still returns every contributing annotation
  // (classifier objects reference all of them).
  result = db.Execute("ZOOM IN ON Birds TUPLE 5 INSTANCE 'ClassBird1'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->annotations.size(), 3u);
}

TEST_F(DatabaseTest, ZoomInAfterSummaryQueryWorkflow) {
  // The paper's Q1 workflow: summary query, then zoom into a hit.
  Annotate(7, "disease", 3);
  auto hits = db.Execute(
      "SELECT name FROM Birds WHERE "
      "$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 3");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->rows.size(), 1u);
  auto zoom = db.ZoomIn("Birds", 7);
  ASSERT_TRUE(zoom.ok());
  EXPECT_EQ(zoom->size(), 3u);
  for (const Annotation& ann : *zoom) {
    EXPECT_NE(ann.text.find("diseaseword"), std::string::npos);
  }
}

TEST_F(DatabaseTest, SnippetKeywordSearch) {
  db.Execute(
        "ANNOTATE Birds TUPLE 9 WITH 'Wikipedia hormone study part one. "
        "Wikipedia hormone study part two. Wikipedia hormone part three.'")
      .ValueOrDie();
  auto result = db.Execute(
      "SELECT name FROM Birds WHERE "
      "$.getSummaryObject('TextSummary1').containsUnion('wikipedia', "
      "'hormone')");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].at(0).AsString(), "bird8");
}

TEST_F(DatabaseTest, DistinctAndOrderByData) {
  auto result = db.Execute(
      "SELECT DISTINCT family FROM Birds ORDER BY family");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0].at(0).AsString(), "family0");
  EXPECT_EQ(result->rows[2].at(0).AsString(), "family2");
}

TEST_F(DatabaseTest, DropInstanceStripsObjects) {
  Annotate(1, "disease", 1);
  db.Execute("ALTER TABLE Birds DROP TextSummary1").ValueOrDie();
  auto result = db.Execute(
      "SELECT name FROM Birds WHERE "
      "$.getSummaryObject('TextSummary1').containsUnion('x')");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
}

TEST_F(DatabaseTest, DeleteTupleCleansUp) {
  Annotate(2, "disease", 2);
  ASSERT_TRUE(db.DeleteTuple("Birds", 2).ok());
  auto result = db.Execute(
      "SELECT name FROM Birds WHERE "
      "$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 2");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
  auto all = db.Execute("SELECT * FROM Birds");
  EXPECT_EQ(all->rows.size(), 11u);
}

TEST_F(DatabaseTest, CreateDataIndexAndUseIt) {
  // Summary sets attach after the data filter, so a scan of the 12-row
  // fixture (one page) is cheaper than any index descent; at 4,012 rows
  // the point probe pays off. The added weights alternate below and above
  // 3.0, so no page's zone map can rule the probe out.
  for (int start = 100; start < 4100; start += 250) {
    std::string sql = "INSERT INTO Birds VALUES ";
    for (int i = start; i < start + 250; ++i) {
      const std::string weight =
          i % 2 == 0 ? std::to_string(i) + ".5" : "0." + std::to_string(i);
      sql += (i > start ? ", ('bird" : "('bird") + std::to_string(i) +
             "', 'family0', " + weight + ")";
    }
    db.Execute(sql).ValueOrDie();
  }
  db.Execute("CREATE INDEX ON Birds (weight)").ValueOrDie();
  db.Execute("ANALYZE Birds").ValueOrDie();
  auto plan = db.Explain("SELECT name FROM Birds WHERE weight = 3.0");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
  auto result = db.Execute("SELECT name FROM Birds WHERE weight = 3.0");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 1u);
}

TEST_F(DatabaseTest, UnknownDistinctOrGroupByColumnIsNotFound) {
  // Both used to abort the process in an operator constructor.
  auto distinct = db.Execute("SELECT DISTINCT nosuch FROM Birds");
  EXPECT_TRUE(distinct.status().IsNotFound()) << distinct.status().ToString();
  auto grouped =
      db.Execute("SELECT nosuch, COUNT(*) AS c FROM Birds GROUP BY nosuch");
  EXPECT_TRUE(grouped.status().IsNotFound()) << grouped.status().ToString();
  // The same statements over a real column still run.
  EXPECT_TRUE(db.Execute("SELECT DISTINCT family FROM Birds").ok());
  auto families =
      db.Execute("SELECT family, COUNT(*) AS c FROM Birds GROUP BY family");
  EXPECT_TRUE(families.ok()) << families.status().ToString();
}

TEST_F(DatabaseTest, QualifiedNamesBindToTheirFromEntry) {
  auto by_table = db.Execute("SELECT Birds.name FROM Birds WHERE "
                             "Birds.family = 'family1'");
  ASSERT_TRUE(by_table.ok()) << by_table.status().ToString();
  auto by_alias =
      db.Execute("SELECT b.name FROM Birds b WHERE b.family = 'family1'");
  ASSERT_TRUE(by_alias.ok()) << by_alias.status().ToString();
  auto bare = db.Execute("SELECT name FROM Birds WHERE family = 'family1'");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(by_table->rows.size(), bare->rows.size());
  EXPECT_EQ(by_alias->rows.size(), bare->rows.size());
  // An alias hides the table name; `*` headers keep their usual names.
  auto hidden = db.Execute("SELECT Birds.name FROM Birds b");
  EXPECT_TRUE(hidden.status().IsNotFound()) << hidden.status().ToString();
  auto star = db.Execute("SELECT * FROM Birds b LIMIT 1");
  ASSERT_TRUE(star.ok());
  EXPECT_EQ(star->schema.column(0).name, "b.name");
}

TEST_F(DatabaseTest, ResultToStringRendersTable) {
  auto result = db.Execute("SELECT name, weight FROM Birds LIMIT 2");
  ASSERT_TRUE(result.ok());
  const std::string rendered = result->ToString();
  EXPECT_NE(rendered.find("name"), std::string::npos);
  EXPECT_NE(rendered.find("bird0"), std::string::npos);
  EXPECT_NE(rendered.find("(2 rows)"), std::string::npos);
}

TEST_F(DatabaseTest, ErrorsSurfaceCleanly) {
  EXPECT_TRUE(db.Execute("SELECT x FROM NoSuchTable").status().IsNotFound());
  EXPECT_FALSE(db.Execute("SELECT nocolumn FROM Birds").ok());
  EXPECT_TRUE(db.Execute("gibberish").status().IsParseError());
}

// T(id INT, w DOUBLE, name TEXT): 3,000 rows and one all-NULL row, every
// column indexed, analyzed.
void CreateIndexedTableWithNullRow(Database* db) {
  db->Execute("CREATE TABLE T (id INT, w DOUBLE, name TEXT)").ValueOrDie();
  for (int start = 0; start < 3000; start += 500) {
    std::string sql = "INSERT INTO T VALUES ";
    for (int i = start; i < start + 500; ++i) {
      sql += (i > start ? ", (" : "(") + std::to_string(i) + ", " +
             std::to_string(i) + ".5, 'row" + std::to_string(i) + "')";
    }
    db->Execute(sql).ValueOrDie();
  }
  db->Execute("INSERT INTO T VALUES (NULL, NULL, NULL)").ValueOrDie();
  for (const char* column : {"id", "w", "name"}) {
    db->Execute(std::string("CREATE INDEX ON T (") + column + ")")
        .ValueOrDie();
  }
  db->Execute("ANALYZE T").ValueOrDie();
}

// `col = NULL` holds for no row in SQL, also when an index on the column
// could answer the probe (the index keys NULL like any other value).
TEST(DataIndexNullTest, EqualsNullMatchesNoRowAndPlansNoIndexScan) {
  Database db;
  CreateIndexedTableWithNullRow(&db);
  for (const char* where : {"id = NULL", "NULL = id", "w = NULL",
                            "NULL = w"}) {
    const std::string sql = std::string("SELECT name FROM T WHERE ") + where;
    auto plan = db.Explain(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan->find("IndexScan"), std::string::npos) << where << "\n"
                                                          << *plan;
    auto result = db.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows.size(), 0u) << where;
  }
}

// Likewise a NULL outer key probing the inner side's index joins nothing.
TEST(DataIndexNullTest, IndexJoinNeverMatchesNullKeys) {
  Database db;
  CreateIndexedTableWithNullRow(&db);
  db.Execute("CREATE TABLE A (k INT, tag TEXT)").ValueOrDie();
  db.Execute("INSERT INTO A VALUES (NULL, 'anull'), (1, 'a1')").ValueOrDie();
  db.Execute("ANALYZE A").ValueOrDie();
  const std::string join = "SELECT tag, name FROM A, T WHERE A.k = T.id";
  auto plan = db.Explain(join);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("IndexNLJoin"), std::string::npos) << *plan;
  auto result = db.Execute(join);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u) << result->ToString();
  EXPECT_EQ(result->rows[0].at(0).AsString(), "a1");
}

}  // namespace
}  // namespace insight
