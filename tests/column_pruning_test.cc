// Column-pruned heap scans. The optimizer hands each sequential scan the
// columns its statement reads and the scan leaves the others NULL; these
// cases make each clause that can read a column the ONLY reader of some
// column, so a read set that missed the clause returns wrong rows. Every
// query is checked against a brute-force evaluation of the loaded data,
// and the plan it runs renders exactly as its EXPLAIN.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "optimizer/optimizer.h"
#include "sql/database.h"
#include "summary/summary_algebra.h"

namespace insight {
namespace {

struct TRow {
  Oid oid;
  int64_t id;
  int64_t grp;
  int64_t val;
  std::string name;
  double score;
  std::string note;
};

struct URow {
  int64_t uid;
  int64_t ugrp;
  std::string label;
};

// T.name is column 3 and T.score column 4 (Project's column-mask case).
constexpr size_t kNamePos = 3;
constexpr size_t kScorePos = 4;

class ColumnPruningTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 300;

  void SetUp() override {
    std::mt19937 rng(42);
    ASSERT_TRUE(db_.CreateTable("T", Schema({{"id", ValueType::kInt64},
                                             {"grp", ValueType::kInt64},
                                             {"val", ValueType::kInt64},
                                             {"name", ValueType::kString},
                                             {"score", ValueType::kDouble},
                                             {"note", ValueType::kString}}))
                    .ok());
    std::vector<int> order(kRows);
    for (int i = 0; i < kRows; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    for (int i = 0; i < kRows; ++i) {
      TRow row{0,
               i,
               i % 7,
               static_cast<int64_t>(rng() % 100),
               "name" + std::to_string(i),
               order[i] * 0.5,
               "note" + std::to_string(i % 5)};
      auto oid = db_.Insert(
          "T", Tuple({Value::Int(row.id), Value::Int(row.grp),
                      Value::Int(row.val), Value::String(row.name),
                      Value::Double(row.score), Value::String(row.note)}));
      ASSERT_TRUE(oid.ok());
      row.oid = *oid;
      t_.push_back(row);
    }
    ASSERT_TRUE(db_.CreateTable("U", Schema({{"uid", ValueType::kInt64},
                                             {"ugrp", ValueType::kInt64},
                                             {"label", ValueType::kString}}))
                    .ok());
    for (int i = 0; i < 20; ++i) {
      URow row{100 + i, i % 9, "label" + std::to_string(i)};
      ASSERT_TRUE(db_.Insert("U", Tuple({Value::Int(row.uid),
                                         Value::Int(row.ugrp),
                                         Value::String(row.label)}))
                      .ok());
      u_.push_back(row);
    }
    // Duplicate-heavy relation for DISTINCT over whole rows.
    ASSERT_TRUE(db_.CreateTable("D", Schema({{"k", ValueType::kInt64},
                                             {"v", ValueType::kInt64}}))
                    .ok());
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(
          db_.Insert("D", Tuple({Value::Int(i % 3), Value::Int(i % 4)})).ok());
    }
    // Annotations on several columns of T, so projection eliminates some.
    ASSERT_TRUE(db_.DefineClassifier("ClassT", {"Disease", "Behavior", "Other"},
                                     {{"diseaseword sick", "Disease"},
                                      {"behaviorword flying", "Behavior"},
                                      {"otherword misc", "Other"}})
                    .ok());
    ASSERT_TRUE(db_.LinkInstance("T", "ClassT", false).ok());
    const char* kTexts[] = {"diseaseword note", "behaviorword note",
                            "otherword note"};
    for (int i = 0; i < 80; ++i) {
      const TRow& row = t_[static_cast<size_t>(i * 3 % kRows)];
      ASSERT_TRUE(db_.Annotate("T", kTexts[i % 3],
                               {{row.oid, CellMask(static_cast<size_t>(
                                              i % 6))}})
                      .ok());
    }
  }

  QueryResult Run(const std::string& sql) {
    auto result = db_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    ExpectPlanAsExplained(sql);
    return result.ok() ? std::move(result).ValueOrDie() : QueryResult{};
  }

  // The plan a query runs (pruned) renders exactly as its EXPLAIN.
  void ExpectPlanAsExplained(const std::string& sql) {
    auto explain = db_.Execute("EXPLAIN " + sql);
    auto analyzed = db_.ExplainAnalyze(sql);
    ASSERT_TRUE(explain.ok() && analyzed.ok()) << sql;
    const std::string& text = explain->message;
    const size_t begin = text.find("Physical plan:\n");
    const size_t end = text.find("Estimated rows");
    ASSERT_NE(begin, std::string::npos);
    const size_t from = begin + std::string("Physical plan:\n").size();
    const std::string plan = text.substr(
        from, end == std::string::npos ? std::string::npos : end - from);
    std::string ran;
    std::string lines = *analyzed;
    lines.erase(0, lines.find('\n') + 1);  // "Physical plan (analyzed):".
    size_t pos = 0;
    while (pos < lines.size()) {
      const size_t eol = lines.find('\n', pos);
      const std::string line = lines.substr(pos, eol - pos);
      pos = eol == std::string::npos ? lines.size() : eol + 1;
      if (line.rfind("Rows returned", 0) == 0) break;
      ran += line.substr(0, line.find("  (rows=")) + "\n";
    }
    EXPECT_EQ(ran, plan) << sql;
  }

  static std::vector<std::string> Rows(const QueryResult& result,
                                       bool sorted = true) {
    std::vector<std::string> out;
    for (const Tuple& row : result.rows) out.push_back(row.ToString());
    if (sorted) std::sort(out.begin(), out.end());
    return out;
  }

  static std::vector<std::string> Canon(std::vector<Tuple> rows,
                                        bool sorted = true) {
    std::vector<std::string> out;
    for (const Tuple& row : rows) out.push_back(row.ToString());
    if (sorted) std::sort(out.begin(), out.end());
    return out;
  }

  // Runs a logical plan whose caller reads `outputs`, and checks it
  // renders as the same plan lowered without a read set.
  std::vector<Row> RunPlan(const LogicalNode& plan,
                           std::vector<std::string> outputs) {
    Optimizer optimizer(db_.context(), db_.optimizer_options());
    auto pruned = optimizer.Optimize(plan.Clone(), std::move(outputs));
    auto whole = optimizer.Optimize(plan.Clone());
    EXPECT_TRUE(pruned.ok() && whole.ok());
    if (!pruned.ok() || !whole.ok()) return {};
    EXPECT_EQ((*pruned)->ExplainTree(), (*whole)->ExplainTree());
    auto rows = CollectRows(pruned->get());
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? std::move(rows).ValueOrDie() : std::vector<Row>{};
  }

  Database db_;
  std::vector<TRow> t_;
  std::vector<URow> u_;
};

TEST_F(ColumnPruningTest, ScansDecodeOnlyTheReadColumns) {
  // The WHERE and the caller's output read id and val; every other
  // column of the emitted rows is the NULL placeholder, at its position.
  auto plan = LSelect(LScanAs("T", "t"),
                      Cmp(Col("t.val"), CompareOp::kGe, Lit(Value::Int(0))));
  auto rows = RunPlan(*plan, {"t.id"});
  ASSERT_EQ(rows.size(), t_.size());
  for (const Row& row : rows) {
    ASSERT_EQ(row.data.size(), 6u);
    EXPECT_FALSE(row.data.at(0).is_null());
    EXPECT_TRUE(row.data.at(1).is_null());
    EXPECT_FALSE(row.data.at(2).is_null());
    for (size_t c = 3; c < 6; ++c) EXPECT_TRUE(row.data.at(c).is_null());
  }
}

TEST_F(ColumnPruningTest, SelectListIsTheOnlyReader) {
  std::vector<Tuple> expected;
  for (const TRow& row : t_) {
    if (row.id < 40) expected.push_back(Tuple({Value::String(row.name)}));
  }
  EXPECT_EQ(Rows(Run("SELECT name FROM T WHERE id < 40")), Canon(expected));
}

TEST_F(ColumnPruningTest, WhereConjunctIsTheOnlyReader) {
  std::vector<Tuple> expected;
  for (const TRow& row : t_) {
    if (row.val > 50) expected.push_back(Tuple({Value::Int(row.id)}));
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(Rows(Run("SELECT id FROM T WHERE val > 50")), Canon(expected));
}

TEST_F(ColumnPruningTest, JoinKeyIsTheOnlyReader) {
  std::vector<Tuple> expected;
  for (const TRow& x : t_) {
    for (const URow& y : u_) {
      if (x.grp == y.ugrp) {
        expected.push_back(Tuple({Value::Int(x.id), Value::Int(y.uid)}));
      }
    }
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(Rows(Run("SELECT x.id, y.uid FROM T x, U y WHERE x.grp = y.ugrp")),
            Canon(expected));
}

TEST_F(ColumnPruningTest, OrderByIsTheOnlyReader) {
  std::vector<TRow> sorted = t_;
  std::stable_sort(
      sorted.begin(), sorted.end(),
      [](const TRow& a, const TRow& b) { return a.score < b.score; });
  std::vector<Tuple> expected;
  for (const TRow& row : sorted) {
    expected.push_back(Tuple({Value::Int(row.id)}));
  }
  EXPECT_EQ(Rows(Run("SELECT id FROM T ORDER BY score"), /*sorted=*/false),
            Canon(expected, /*sorted=*/false));
}

TEST_F(ColumnPruningTest, GroupByIsTheOnlyReader) {
  std::map<int64_t, int64_t> counts;
  for (const TRow& row : t_) ++counts[row.grp];
  std::vector<Tuple> expected;
  for (const auto& [grp, n] : counts) {
    expected.push_back(Tuple({Value::Int(n)}));
  }
  EXPECT_EQ(Rows(Run("SELECT COUNT(*) AS n FROM T GROUP BY grp")),
            Canon(expected));
}

TEST_F(ColumnPruningTest, AggregateArgumentIsTheOnlyReader) {
  int64_t sum = 0;
  for (const TRow& row : t_) sum += row.val;
  EXPECT_EQ(Rows(Run("SELECT SUM(val) AS s FROM T")),
            Canon({Tuple({Value::Int(sum)})}));
}

TEST_F(ColumnPruningTest, DistinctReadsWholeRows) {
  // SQL DISTINCT projects first: the select list and the Project read k.
  std::set<int64_t> keys;
  for (int i = 0; i < 60; ++i) keys.insert(i % 3);
  std::vector<Tuple> expected;
  for (int64_t k : keys) expected.push_back(Tuple({Value::Int(k)}));
  EXPECT_EQ(Rows(Run("SELECT DISTINCT k FROM D")), Canon(expected));

  // A Distinct straight over the scan compares every column: v has no
  // other reader, and without it the pairs collapse to their keys.
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (int i = 0; i < 60; ++i) pairs.insert({i % 3, i % 4});
  std::vector<Tuple> whole;
  for (const auto& [k, v] : pairs) {
    whole.push_back(Tuple({Value::Int(k), Value::Int(v)}));
  }
  std::vector<Tuple> got;
  for (Row& row : RunPlan(*LDistinct(LScanAs("D", "d")), {"d.k"})) {
    got.push_back(std::move(row.data));
  }
  EXPECT_EQ(Canon(got), Canon(whole));
}

TEST_F(ColumnPruningTest, ProjectIsTheOnlyReaderAndKeepsColumnMasks) {
  // Project's column-mask elimination reads base positions: the pruned
  // scan keeps its width, so masks still name the right columns.
  auto plan = LProject(LScanAs("T", "t"), {"t.name", "t.score"});
  std::vector<Row> rows = RunPlan(*plan, {});
  ASSERT_EQ(rows.size(), t_.size());
  const RelationInfo* info = *db_.context()->Get("T");
  std::map<Oid, const TRow*> by_oid;
  for (const TRow& row : t_) by_oid[row.oid] = &row;
  size_t annotated = 0;
  for (const Row& row : rows) {
    ASSERT_EQ(by_oid.count(row.oid), 1u);
    const TRow& want = *by_oid[row.oid];
    EXPECT_EQ(row.data.ToString(),
              Tuple({Value::String(want.name), Value::Double(want.score)})
                  .ToString());
    auto full = info->mgr->GetSummaries(row.oid);
    ASSERT_TRUE(full.ok());
    auto projected =
        ProjectSummaries(*full, {kNamePos, kScorePos}, NullResolver());
    ASSERT_TRUE(projected.ok());
    EXPECT_EQ(row.summaries.ToString(), projected->ToString());
    if (!full->empty()) ++annotated;
  }
  EXPECT_GT(annotated, 50u);
}

TEST_F(ColumnPruningTest, SelfJoinPrunesEachAliasSeparately) {
  std::map<int64_t, std::string> name_by_id;
  for (const TRow& row : t_) name_by_id[row.id] = row.name;
  std::vector<Tuple> expected;
  for (const TRow& x : t_) {
    expected.push_back(
        Tuple({Value::Int(x.id), Value::String(name_by_id.at(x.val))}));
  }
  EXPECT_EQ(Rows(Run("SELECT x.id, y.name FROM T x, T y WHERE x.val = y.id")),
            Canon(expected));
}

TEST_F(ColumnPruningTest, StarReadsEveryColumn) {
  std::vector<Tuple> expected;
  for (const TRow& row : t_) {
    if (row.val > 90) {
      expected.push_back(Tuple({Value::Int(row.id), Value::Int(row.grp),
                                Value::Int(row.val), Value::String(row.name),
                                Value::Double(row.score),
                                Value::String(row.note)}));
    }
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(Rows(Run("SELECT * FROM T WHERE val > 90")), Canon(expected));
}

TEST_F(ColumnPruningTest, ParallelPartitionsPrune) {
  db_.optimizer_options().parallel_row_threshold = 10;
  db_.optimizer_options().morsel_pages = 1;
  db_.SetParallelism(4);
  const std::string sql = "SELECT name, score FROM T WHERE val > 50";
  auto explain = db_.Execute("EXPLAIN " + sql);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->message.find("ParallelScan"), std::string::npos)
      << explain->message;
  std::vector<Tuple> expected;
  for (const TRow& row : t_) {
    if (row.val > 50) {
      expected.push_back(
          Tuple({Value::String(row.name), Value::Double(row.score)}));
    }
  }
  EXPECT_EQ(Rows(Run(sql)), Canon(expected));
  db_.SetParallelism(1);
}

}  // namespace
}  // namespace insight
