// Differential tests for SQL name resolution. A seeded generator builds
// 2-3-table SELECTs over small tables that all share `id` and `name`
// columns: aliased and bare FROM entries, self-joins, qualified and
// unqualified references in WHERE / select list / GROUP BY / DISTINCT /
// ORDER BY, and names that must be rejected. Every statement runs through
// Database::Execute and is checked against a brute-force nested-loop
// evaluator that reads `SELECT *` of each base table: row multisets must
// match, and so must success versus failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "sql/database.h"

namespace insight {
namespace {

/// xorshift64*: deterministic across standard libraries.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint32_t Below(uint32_t n) {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return static_cast<uint32_t>((state_ * 0x2545F4914F6CDD1Dull) % n);
  }
  bool OneIn(uint32_t n) { return Below(n) == 0; }
  template <typename T>
  const T& Pick(const std::vector<T>& items) {
    return items[Below(static_cast<uint32_t>(items.size()))];
  }

 private:
  uint64_t state_;
};

struct TableDef {
  std::string name;
  std::vector<std::string> columns;  // id INT, name TEXT, <extra> INT.
  int rows;
};

const std::vector<TableDef>& Tables() {
  static const std::vector<TableDef> tables = {
      {"T1", {"id", "name", "a"}, 12},
      {"T2", {"id", "name", "b"}, 9},
      {"T3", {"id", "name", "c"}, 7},
  };
  return tables;
}

bool IsText(const std::string& column) { return column == "name"; }

// One FROM entry: a table and an optional alias.
struct FromEntry {
  size_t table;
  std::string alias;
  std::string Exposed() const {
    return alias.empty() ? Tables()[table].name : alias;
  }
};

// A column reference as written: `column` or `qualifier.column`.
struct Ref {
  std::string qualifier;
  std::string column;
  std::string Sql() const {
    return qualifier.empty() ? column : qualifier + "." + column;
  }
};

// `lhs <op> rhs` where rhs is a second reference or a literal.
struct Pred {
  Ref lhs;
  std::string op;
  std::optional<Ref> rhs;
  Value literal;
  std::string Sql() const {
    std::string out = lhs.Sql() + " " + op + " ";
    if (rhs.has_value()) return out + rhs->Sql();
    return out + (literal.type() == ValueType::kString
                      ? "'" + literal.AsString() + "'"
                      : literal.ToString());
  }
};

struct Query {
  enum class Mode { kPlain, kDistinct, kGroupBy };
  Mode mode = Mode::kPlain;
  std::vector<FromEntry> from;
  bool star = false;
  std::vector<Ref> items;  // Group columns in kGroupBy.
  std::vector<Pred> where;
  bool where_or = false;  // Join the WHERE predicates with OR.
  std::optional<Ref> order_by;

  std::string Sql() const {
    std::string sql = "SELECT ";
    if (mode == Mode::kDistinct) sql += "DISTINCT ";
    if (star) {
      sql += "*";
    } else {
      for (size_t i = 0; i < items.size(); ++i) {
        sql += (i > 0 ? ", " : "") + items[i].Sql();
      }
      if (mode == Mode::kGroupBy) sql += ", COUNT(*) AS cnt";
    }
    sql += " FROM ";
    for (size_t i = 0; i < from.size(); ++i) {
      sql += (i > 0 ? ", " : "") + Tables()[from[i].table].name;
      if (!from[i].alias.empty()) sql += " " + from[i].alias;
    }
    for (size_t i = 0; i < where.size(); ++i) {
      sql += i == 0 ? " WHERE " : (where_or ? " OR " : " AND ");
      sql += where[i].Sql();
    }
    if (mode == Mode::kGroupBy) {
      sql += " GROUP BY ";
      for (size_t i = 0; i < items.size(); ++i) {
        sql += (i > 0 ? ", " : "") + items[i].Sql();
      }
      sql += " ORDER BY cnt DESC";
    } else if (order_by.has_value()) {
      sql += " ORDER BY " + order_by->Sql() + " DESC";
    }
    return sql;
  }
};

// ---------- Brute-force reference ----------

// Where a reference landed: FROM entry and column ordinal.
struct Slot {
  size_t entry;
  size_t column;
};

class Reference {
 public:
  explicit Reference(const std::map<std::string, std::vector<Tuple>>& data)
      : data_(data) {}

  // The expected outcome: rows as sorted strings, or the status code the
  // binder must return (nullopt code: some error, code unspecified).
  struct Outcome {
    bool ok = true;
    std::optional<StatusCode> code;
    std::vector<std::string> rows;
    std::vector<std::string> star_header;
  };

  Outcome Evaluate(const Query& q) {
    Outcome out;
    std::set<std::string> exposed;
    for (const FromEntry& entry : q.from) {
      if (!exposed.insert(ToLower(entry.Exposed())).second) {
        out.ok = false;
        out.code = StatusCode::kInvalidArgument;
        return out;
      }
    }
    std::set<StatusCode> errors;
    auto resolve = [&](const Ref& ref) -> std::optional<Slot> {
      std::optional<Slot> found;
      bool qualifier_known = ref.qualifier.empty();
      for (size_t e = 0; e < q.from.size(); ++e) {
        if (!ref.qualifier.empty()) {
          if (!EqualsIgnoreCase(q.from[e].Exposed(), ref.qualifier)) continue;
          qualifier_known = true;
        }
        const auto& cols = Tables()[q.from[e].table].columns;
        auto it = std::find(cols.begin(), cols.end(), ToLower(ref.column));
        if (it == cols.end()) continue;
        if (found.has_value()) {
          errors.insert(StatusCode::kInvalidArgument);
          return std::nullopt;
        }
        found = Slot{e, static_cast<size_t>(it - cols.begin())};
      }
      if (!found.has_value() || !qualifier_known) {
        errors.insert(StatusCode::kNotFound);
        return std::nullopt;
      }
      return found;
    };
    std::vector<std::optional<Slot>> items;
    for (const Ref& ref : q.items) items.push_back(resolve(ref));
    struct BoundPred {
      std::optional<Slot> lhs;
      std::optional<Slot> rhs;
    };
    std::vector<BoundPred> preds;
    for (const Pred& pred : q.where) {
      preds.push_back(BoundPred{
          resolve(pred.lhs),
          pred.rhs.has_value() ? resolve(*pred.rhs) : std::nullopt});
    }
    std::optional<Slot> order;
    if (q.order_by.has_value()) order = resolve(*q.order_by);
    if (!errors.empty()) {
      out.ok = false;
      if (errors.size() == 1) out.code = *errors.begin();
      return out;
    }

    for (const FromEntry& entry : q.from) {
      for (const std::string& col : Tables()[entry.table].columns) {
        out.star_header.push_back(
            entry.alias.empty() ? col : entry.alias + "." + col);
      }
    }

    // Nested loops over every FROM combination.
    std::vector<const std::vector<Tuple>*> inputs;
    for (const FromEntry& entry : q.from) {
      inputs.push_back(&data_.at(Tables()[entry.table].name));
    }
    std::vector<size_t> pos(q.from.size(), 0);
    std::map<std::string, int64_t> groups;
    std::set<std::string> distinct;
    auto at = [&](const Slot& slot) -> const Value& {
      return (*inputs[slot.entry])[pos[slot.entry]].at(slot.column);
    };
    while (true) {
      bool any_empty = false;
      for (const auto* input : inputs) any_empty |= input->empty();
      if (any_empty) break;
      bool pass = !q.where_or || q.where.empty();
      for (size_t i = 0; i < q.where.size(); ++i) {
        const Value& l = at(*preds[i].lhs);
        const Value& r =
            q.where[i].rhs.has_value() ? at(*preds[i].rhs) : q.where[i].literal;
        const int c = l.Compare(r);
        const std::string& op = q.where[i].op;
        const bool holds = op == "=" ? c == 0 : op == "<" ? c < 0 : c > 0;
        pass = q.where_or ? (pass || holds) : (pass && holds);
      }
      if (pass) {
        std::string row;
        if (q.star) {
          for (size_t e = 0; e < inputs.size(); ++e) {
            row += (*inputs[e])[pos[e]].ToString();
          }
        } else {
          for (const auto& slot : items) row += at(*slot).ToString() + "|";
        }
        if (q.mode == Query::Mode::kGroupBy) {
          ++groups[row];
        } else if (q.mode == Query::Mode::kDistinct) {
          distinct.insert(row);
        } else {
          out.rows.push_back(row);
        }
      }
      size_t e = 0;
      while (e < pos.size() && ++pos[e] == inputs[e]->size()) pos[e++] = 0;
      if (e == pos.size()) break;
    }
    for (const auto& [row, count] : groups) {
      out.rows.push_back(row + std::to_string(count) + "|");
    }
    out.rows.insert(out.rows.end(), distinct.begin(), distinct.end());
    std::sort(out.rows.begin(), out.rows.end());
    return out;
  }

 private:
  const std::map<std::string, std::vector<Tuple>>& data_;
};

// Engine result rows rendered like the reference's.
std::vector<std::string> Render(const Query& q, const QueryResult& result) {
  std::vector<std::string> rows;
  for (const Tuple& tuple : result.rows) {
    std::string row;
    if (q.star) {
      // The reference renders one Tuple per FROM entry.
      size_t at = 0;
      for (const FromEntry& entry : q.from) {
        std::vector<Value> part;
        for (size_t c = 0; c < Tables()[entry.table].columns.size(); ++c) {
          part.push_back(tuple.at(at++));
        }
        row += Tuple(std::move(part)).ToString();
      }
    } else {
      for (size_t c = 0; c < tuple.size(); ++c) {
        row += tuple.at(c).ToString() + "|";
      }
    }
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ---------- Generator ----------

Ref GenRef(Rng& rng, const std::vector<FromEntry>& from,
           const std::string& column) {
  Ref ref;
  ref.column = column;
  std::vector<FromEntry> owners;  // Entries that have the column.
  for (const FromEntry& entry : from) {
    const auto& cols = Tables()[entry.table].columns;
    if (std::find(cols.begin(), cols.end(), column) != cols.end()) {
      owners.push_back(entry);
    }
  }
  const uint32_t roll = rng.Below(40);
  if (roll == 0) {
    ref.qualifier = "zz";  // Names no FROM entry.
  } else if (roll == 1) {
    // A table name: hidden when its entry is aliased.
    ref.qualifier = Tables()[rng.Pick(from).table].name;
  } else if (roll == 2) {
    ref.column = "nosuch";
  } else if (roll < 6) {
    ref.qualifier = rng.Pick(from).Exposed();  // May lack the column.
  } else if (roll < 12) {
    // Unqualified: ambiguous when several entries have the column.
  } else {
    ref.qualifier = rng.Pick(owners.empty() ? from : owners).Exposed();
  }
  if (rng.OneIn(3)) ref.qualifier = ToLower(ref.qualifier);  // Case-blind.
  return ref;
}

std::string GenColumn(Rng& rng, const std::vector<FromEntry>& from) {
  if (rng.OneIn(2)) return rng.OneIn(2) ? "id" : "name";
  return Tables()[rng.Pick(from).table].columns[2];  // Extra int column.
}

Query GenQuery(Rng& rng) {
  Query q;
  const size_t entries = 2 + rng.Below(2);
  const std::vector<std::string> aliases = {"", "", "x", "y", "z", "t1"};
  for (size_t i = 0; i < entries; ++i) {
    q.from.push_back(
        FromEntry{rng.Below(static_cast<uint32_t>(Tables().size())),
                  rng.Pick(aliases)});
  }
  const uint32_t mode = rng.Below(6);
  q.mode = mode == 0   ? Query::Mode::kDistinct
           : mode == 1 ? Query::Mode::kGroupBy
                       : Query::Mode::kPlain;
  q.star = q.mode == Query::Mode::kPlain && rng.OneIn(5);
  if (!q.star) {
    const size_t items = 1 + rng.Below(2);
    for (size_t i = 0; i < items; ++i) {
      q.items.push_back(GenRef(rng, q.from, GenColumn(rng, q.from)));
    }
  }
  const size_t preds = rng.Below(4);
  for (size_t i = 0; i < preds; ++i) {
    Pred pred;
    const std::string column = GenColumn(rng, q.from);
    pred.lhs = GenRef(rng, q.from, column);
    if (rng.OneIn(2)) {
      // Same-typed comparison, typically across two FROM entries.
      pred.op = "=";
      pred.rhs = GenRef(rng, q.from, IsText(column) ? "name" : "id");
    } else if (IsText(column)) {
      pred.op = "=";
      pred.literal = Value::String("n" + std::to_string(rng.Below(4)));
    } else {
      pred.op = rng.OneIn(2) ? "<" : ">";
      pred.literal = Value::Int(rng.Below(6));
    }
    q.where.push_back(std::move(pred));
  }
  q.where_or = q.where.size() > 1 && rng.OneIn(5);
  if (q.mode == Query::Mode::kPlain && rng.OneIn(3)) {
    q.order_by = GenRef(rng, q.from, GenColumn(rng, q.from));
  }
  return q;
}

// ---------- Fixture ----------

class BinderDifferentialTest : public ::testing::Test {
 protected:
  BinderDifferentialTest() {
    for (const TableDef& def : Tables()) {
      EXPECT_TRUE(db.Execute("CREATE TABLE " + def.name + " (id INT, name " +
                             "TEXT, " + def.columns[2] + " INT)")
                      .ok());
      std::string sql = "INSERT INTO " + def.name + " VALUES ";
      for (int i = 0; i < def.rows; ++i) {
        // Few distinct values so joins fan out and groups collide.
        sql += (i > 0 ? ", (" : "(") + std::to_string(i % 5) + ", 'n" +
               std::to_string(i % 4) + "', " + std::to_string(i % 3) + ")";
      }
      EXPECT_TRUE(db.Execute(sql).ok());
      auto all = db.Execute("SELECT * FROM " + def.name);
      EXPECT_TRUE(all.ok());
      if (all.ok()) data[def.name] = all->rows;
    }
    // An indexed, analyzed inner so index joins and scans are exercised.
    EXPECT_TRUE(db.Execute("CREATE INDEX ON T1 (id)").ok());
    EXPECT_TRUE(db.Execute("ANALYZE T1").ok());
  }

  Database db;
  std::map<std::string, std::vector<Tuple>> data;
};

TEST_F(BinderDifferentialTest, GeneratedStatementsMatchBruteForce) {
  Rng rng(0x5EED0B1D);
  Reference reference(data);
  int succeeded = 0;
  int rejected = 0;
  for (int round = 0; round < 600; ++round) {
    const Query q = GenQuery(rng);
    const std::string sql = q.Sql();
    SCOPED_TRACE(sql);
    const Reference::Outcome expected = reference.Evaluate(q);
    auto result = db.Execute(sql);
    ASSERT_EQ(result.ok(), expected.ok)
        << (result.ok() ? "accepted" : result.status().ToString());
    if (!expected.ok) {
      ++rejected;
      if (expected.code.has_value()) {
        EXPECT_EQ(result.status().code(), *expected.code)
            << result.status().ToString();
      }
      continue;
    }
    ++succeeded;
    EXPECT_EQ(Render(q, *result), expected.rows);
    if (q.star) {
      ASSERT_EQ(result->schema.num_columns(), expected.star_header.size());
      for (size_t c = 0; c < expected.star_header.size(); ++c) {
        EXPECT_EQ(result->schema.column(c).name, expected.star_header[c]);
      }
    }
  }
  // The generator must exercise both sides of the contract.
  EXPECT_GT(succeeded, 150);
  EXPECT_GT(rejected, 150);
}

// The acceptance repros: A(id, name) 2,000 rows indexed on id, B(id, tag)
// 500 rows, both analyzed.
class BinderReproTest : public ::testing::Test {
 protected:
  BinderReproTest() {
    Fill("A", "name", 2000);
    Fill("B", "tag", 500);
    EXPECT_TRUE(db.Execute("CREATE INDEX ON A (id)").ok());
    EXPECT_TRUE(db.Execute("ANALYZE A").ok());
    EXPECT_TRUE(db.Execute("ANALYZE B").ok());
  }

  void Fill(const std::string& table, const std::string& text, int rows) {
    EXPECT_TRUE(db.Execute("CREATE TABLE " + table + " (id INT, " + text +
                           " TEXT)")
                    .ok());
    for (int start = 0; start < rows; start += 250) {
      std::string sql = "INSERT INTO " + table + " VALUES ";
      for (int i = start; i < start + 250; ++i) {
        sql += (i > start ? ", (" : "(") + std::to_string(i) + ", '" + text +
               std::to_string(i) + "')";
      }
      EXPECT_TRUE(db.Execute(sql).ok());
    }
  }

  size_t Rows(const std::string& sql) {
    auto result = db.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return result.ok() ? result->rows.size() : 0;
  }

  // First line of EXPLAIN ANALYZE (the plan root) and its q-error.
  std::string Root(const std::string& sql, double* qerror = nullptr) {
    auto plan = db.ExplainAnalyze(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (!plan.ok()) return "";
    const size_t start = plan->find('\n') + 1;
    const std::string root = plan->substr(start, plan->find('\n', start) -
                                                     start);
    const size_t q = root.find("q-err=");
    if (qerror != nullptr && q != std::string::npos) {
      *qerror = std::strtod(root.c_str() + q + 6, nullptr);
    }
    return root;
  }

  Database db;
};

TEST_F(BinderDifferentialTest, AcceptanceReprosAreFixedCases) {
  // Shapes of the acceptance repros on the generator's tables; the sized
  // versions with plan checks are BinderReproTest.
  for (const char* sql : {"SELECT T1.name FROM T1, T2 WHERE T1.id = T2.id",
                          "SELECT x.name FROM T1 x, T2 y WHERE x.id = y.id",
                          "SELECT x.name FROM T1 x, T1 y WHERE x.id = y.id"}) {
    EXPECT_TRUE(db.Execute(sql).ok()) << sql;
  }
  for (const char* sql :
       {"SELECT name FROM T1, T2 WHERE id = 3",
        "SELECT x.name FROM T1 x WHERE T2.id = 3",
        "SELECT z.id FROM T1 x WHERE x.id = 3",
        "SELECT zz.$.getSize() FROM T1", "SELECT * FROM T1, T1",
        "SELECT * FROM T1 x, T2 x", "SELECT T1.id FROM T1 x"}) {
    EXPECT_FALSE(db.Execute(sql).ok()) << sql;
  }
}

TEST_F(BinderReproTest, QualifiedEquiJoinResolves) {
  // (a) Used to fail with "ambiguous column name: A.id".
  EXPECT_EQ(Rows("SELECT A.name FROM A, B WHERE A.id = B.id"), 500u);
}

TEST_F(BinderReproTest, AliasedEquiJoinPlansAHashOrIndexJoin) {
  // (b) Used to run a nested loop over 1,000,000 pairs, q-error 222.
  const std::string sql = "SELECT x.name FROM A x, B y WHERE x.id = y.id";
  EXPECT_EQ(Rows(sql), 500u);
  double qerror = 0;
  const std::string root = Root(sql, &qerror);
  EXPECT_TRUE(root.find("HashJoin") == 0 || root.find("IndexNLJoin") == 0)
      << root;
  EXPECT_GE(qerror, 1.0);
  EXPECT_LE(qerror, 2.0) << root;
}

TEST_F(BinderReproTest, QualifiedPredicatesPlanLikeBareOnes) {
  // (c) Qualified forms used to fall back to a 667-row SeqScan guess.
  // Both forms now estimate from A's statistics and plan alike. A carries
  // no summary instance, so no plan attaches summary sets, and A's ids
  // are clustered, so a zone-pruned scan can undercut an index probe.
  const auto plan_of = [&](const std::string& sql) {
    auto plan = db.Explain(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? plan->substr(plan->find("Physical plan:")) : "";
  };
  for (const char* sql : {"SELECT name FROM A WHERE A.id < 100",
                          "SELECT name FROM A WHERE id < 100"}) {
    const std::string root = Root(sql);
    EXPECT_NE(root.find("est=100 "), std::string::npos) << root;
    EXPECT_EQ(root.find("AttachSummaries"), std::string::npos) << root;
  }
  EXPECT_EQ(plan_of("SELECT name FROM A WHERE A.id < 100"),
            plan_of("SELECT name FROM A WHERE id < 100"));
  for (const char* sql : {"SELECT x.name FROM A x WHERE x.id = 7",
                          "SELECT name FROM A WHERE id = 7"}) {
    const std::string root = Root(sql);
    EXPECT_NE(root.find("est=1 "), std::string::npos) << root;
  }
  const std::string bare = plan_of("SELECT name FROM A WHERE id = 7");
  EXPECT_EQ(plan_of("SELECT name FROM A WHERE A.id = 7"), bare);
  EXPECT_EQ(bare.find("propagate"), std::string::npos) << bare;
}

TEST_F(BinderReproTest, WrongOrAmbiguousNamesAreRejected) {
  // (d) ambiguous, (e) a table not in FROM, (f) an unknown alias, (g) an
  // unknown `$` qualifier: all used to return rows.
  EXPECT_TRUE(db.Execute("SELECT name FROM A, B WHERE id = 3")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db.Execute("SELECT x.name FROM A x WHERE B.id = 3")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(
      db.Execute("SELECT z.id FROM A x WHERE x.id = 3").status().IsNotFound());
  EXPECT_TRUE(db.Execute("SELECT zz.$.getSummaryObject('X')."
                         "getLabelValue('Y') FROM A")
                  .status()
                  .IsNotFound());
}

TEST_F(BinderReproTest, DuplicateExposedNamesAreRejected) {
  EXPECT_TRUE(db.Execute("SELECT * FROM A, A").status().IsInvalidArgument());
  EXPECT_TRUE(
      db.Execute("SELECT * FROM A x, B x").status().IsInvalidArgument());
  EXPECT_TRUE(
      db.Execute("SELECT * FROM A x, B X").status().IsInvalidArgument());
}

TEST_F(BinderReproTest, SelfJoinUsesAHashOrIndexJoin) {
  const std::string sql = "SELECT x.name FROM A x, A y WHERE x.id = y.id";
  EXPECT_EQ(Rows(sql), 2000u);
  const std::string root = Root(sql);
  EXPECT_TRUE(root.find("HashJoin") == 0 || root.find("IndexNLJoin") == 0)
      << root;
}

}  // namespace
}  // namespace insight
