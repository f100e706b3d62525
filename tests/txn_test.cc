// SQL-level transaction semantics: BEGIN/COMMIT/ROLLBACK statement
// handling, snapshot-isolation visibility across concurrent handles,
// first-writer-wins conflict aborts, and durability of explicit
// transactions across a WAL reopen. Each Execute call carries its own
// txn handle, so one Database models many concurrent sessions.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "sql/database.h"
#include "txn/transaction_manager.h"

namespace insight {
namespace {

std::string MakeTempDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  std::string dir = ::testing::TempDir() + "/insight_txn_" + tag + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  return dir;
}

class TxnSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE Birds (name TEXT, family TEXT)")
                    .ok());
    ASSERT_TRUE(db_.DefineClassifier("C", {"Disease", "Other"},
                                     {{"diseaseword infection", "Disease"},
                                      {"otherword note", "Other"}})
                    .ok());
    ASSERT_TRUE(db_.Execute("ALTER TABLE Birds ADD INDEXABLE C").ok());
    ASSERT_TRUE(
        db_.Execute("INSERT INTO Birds VALUES ('seed1', 'f0')").ok());
    ASSERT_TRUE(
        db_.Execute("INSERT INTO Birds VALUES ('seed2', 'f1')").ok());
  }

  /// Row count as seen through `handle` (0 = fresh latest snapshot).
  size_t CountRows(uint64_t* handle) {
    uint64_t none = 0;
    auto result =
        db_.Execute("SELECT * FROM Birds", handle ? handle : &none);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->rows.size() : 0;
  }

  bool SeesRow(uint64_t* handle, const std::string& name) {
    uint64_t none = 0;
    auto result =
        db_.Execute("SELECT * FROM Birds", handle ? handle : &none);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return false;
    for (const Tuple& row : result->rows) {
      if (row.at(0).AsString() == name) return true;
    }
    return false;
  }

  Database db_;
};

TEST_F(TxnSqlTest, BeginCommitRoundTrip) {
  uint64_t txn = 0;
  auto begun = db_.Execute("BEGIN", &txn);
  ASSERT_TRUE(begun.ok()) << begun.status().ToString();
  EXPECT_NE(txn, 0u);
  EXPECT_NE(begun->message.find("started"), std::string::npos);

  ASSERT_TRUE(
      db_.Execute("INSERT INTO Birds VALUES ('mine', 'f2')", &txn).ok());
  // Own writes are visible inside the transaction...
  EXPECT_TRUE(SeesRow(&txn, "mine"));
  // ...but not to other sessions until commit.
  EXPECT_FALSE(SeesRow(nullptr, "mine"));

  auto committed = db_.Execute("COMMIT", &txn);
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(txn, 0u);
  EXPECT_TRUE(SeesRow(nullptr, "mine"));
}

TEST_F(TxnSqlTest, RollbackDiscardsEverything) {
  uint64_t txn = 0;
  ASSERT_TRUE(db_.Execute("BEGIN", &txn).ok());
  ASSERT_TRUE(
      db_.Execute("INSERT INTO Birds VALUES ('gone', 'f2')", &txn).ok());
  ASSERT_TRUE(
      db_.Execute("ANNOTATE Birds TUPLE 1 WITH 'diseaseword doomed'", &txn)
          .ok());
  ASSERT_TRUE(db_.Execute("ROLLBACK", &txn).ok());
  EXPECT_EQ(txn, 0u);
  EXPECT_FALSE(SeesRow(nullptr, "gone"));
  // The annotation died with the transaction.
  auto zoom = db_.Execute("ZOOM IN ON Birds TUPLE 1");
  if (zoom.ok()) {
    for (const Annotation& ann : zoom->annotations) {
      EXPECT_EQ(ann.text.find("doomed"), std::string::npos);
    }
  }
}

TEST_F(TxnSqlTest, SnapshotPinnedAtBegin) {
  uint64_t reader = 0;
  ASSERT_TRUE(db_.Execute("BEGIN", &reader).ok());
  const size_t before = CountRows(&reader);

  // Another session commits a row while the reader is open.
  ASSERT_TRUE(db_.Execute("INSERT INTO Birds VALUES ('late', 'f3')").ok());

  // Snapshot isolation: the open transaction keeps reading its snapshot.
  EXPECT_EQ(CountRows(&reader), before);
  EXPECT_FALSE(SeesRow(&reader, "late"));
  // A fresh latest-snapshot read sees the committed row immediately.
  EXPECT_TRUE(SeesRow(nullptr, "late"));

  ASSERT_TRUE(db_.Execute("COMMIT", &reader).ok());
  EXPECT_TRUE(SeesRow(nullptr, "late"));
}

TEST_F(TxnSqlTest, StatementErrorsAreReported) {
  uint64_t txn = 0;
  // Transaction control without a transaction.
  EXPECT_TRUE(db_.Execute("COMMIT", &txn).status().IsInvalidArgument());
  EXPECT_TRUE(db_.Execute("ROLLBACK", &txn).status().IsInvalidArgument());
  // Nested BEGIN.
  ASSERT_TRUE(db_.Execute("BEGIN", &txn).ok());
  EXPECT_TRUE(db_.Execute("BEGIN", &txn).status().IsInvalidArgument());
  // DDL inside an open transaction is rejected, and the txn survives.
  EXPECT_TRUE(db_.Execute("CREATE TABLE Other (x TEXT)", &txn)
                  .status()
                  .IsInvalidArgument());
  ASSERT_TRUE(
      db_.Execute("INSERT INTO Birds VALUES ('still-open', 'f2')", &txn)
          .ok());
  ASSERT_TRUE(db_.Execute("COMMIT", &txn).ok());
  EXPECT_TRUE(SeesRow(nullptr, "still-open"));
}

TEST_F(TxnSqlTest, FailedDmlPoisonsTheTransaction) {
  uint64_t txn = 0;
  ASSERT_TRUE(db_.Execute("BEGIN", &txn).ok());
  ASSERT_TRUE(
      db_.Execute("INSERT INTO Birds VALUES ('poisoned', 'f2')", &txn).ok());
  // Wrong arity: the statement fails and the whole transaction rolls
  // back, clearing the handle.
  EXPECT_FALSE(db_.Execute("INSERT INTO Birds VALUES ('x')", &txn).ok());
  EXPECT_EQ(txn, 0u);
  EXPECT_FALSE(SeesRow(nullptr, "poisoned"));
}

TEST_F(TxnSqlTest, FirstWriterWinsConflict) {
  uint64_t a = 0, b = 0;
  ASSERT_TRUE(db_.Execute("BEGIN", &a).ok());
  ASSERT_TRUE(db_.Execute("BEGIN", &b).ok());

  // Both transactions touch tuple 1's summary entries; the second writer
  // loses and is auto-aborted.
  ASSERT_TRUE(
      db_.Execute("ANNOTATE Birds TUPLE 1 WITH 'diseaseword first'", &a)
          .ok());
  auto conflicted =
      db_.Execute("ANNOTATE Birds TUPLE 1 WITH 'diseaseword second'", &b);
  ASSERT_FALSE(conflicted.ok());
  EXPECT_TRUE(conflicted.status().IsAborted())
      << conflicted.status().ToString();
  EXPECT_EQ(b, 0u);  // Auto-abort cleared the loser's handle.

  // The winner commits normally.
  ASSERT_TRUE(db_.Execute("COMMIT", &a).ok());
  auto zoom = db_.Execute("ZOOM IN ON Birds TUPLE 1");
  ASSERT_TRUE(zoom.ok()) << zoom.status().ToString();
  bool saw_first = false;
  for (const Annotation& ann : zoom->annotations) {
    if (ann.text.find("first") != std::string::npos) saw_first = true;
    EXPECT_EQ(ann.text.find("second"), std::string::npos);
  }
  EXPECT_TRUE(saw_first);
}

TEST_F(TxnSqlTest, CommitAfterAutoAbortIsARetryableError) {
  uint64_t a = 0, b = 0;
  ASSERT_TRUE(db_.Execute("BEGIN", &a).ok());
  ASSERT_TRUE(db_.Execute("BEGIN", &b).ok());
  const uint64_t b_id = b;
  ASSERT_TRUE(
      db_.Execute("ANNOTATE Birds TUPLE 2 WITH 'diseaseword win'", &a).ok());
  ASSERT_FALSE(
      db_.Execute("ANNOTATE Birds TUPLE 2 WITH 'diseaseword lose'", &b).ok());
  ASSERT_EQ(b, 0u);  // Auto-abort cleared the handle.

  // A client that has not noticed the abort retries COMMIT with the dead
  // id: it gets a retryable kAborted telling it to restart from BEGIN.
  b = b_id;
  auto late_commit = db_.Execute("COMMIT", &b);
  ASSERT_FALSE(late_commit.ok());
  EXPECT_TRUE(late_commit.status().IsAborted())
      << late_commit.status().ToString();
  EXPECT_NE(late_commit.status().message().find("retry from BEGIN"),
            std::string::npos);
  EXPECT_EQ(b, 0u);

  // ROLLBACK of an already-aborted transaction is an idempotent ack.
  b = b_id;
  EXPECT_TRUE(db_.Execute("ROLLBACK", &b).ok());
  EXPECT_EQ(b, 0u);

  ASSERT_TRUE(db_.Execute("COMMIT", &a).ok());

  // A fresh BEGIN works fine after the conflict (retry path).
  ASSERT_TRUE(db_.Execute("BEGIN", &b).ok());
  ASSERT_TRUE(
      db_.Execute("ANNOTATE Birds TUPLE 2 WITH 'diseaseword retry'", &b)
          .ok());
  ASSERT_TRUE(db_.Execute("COMMIT", &b).ok());
}

TEST_F(TxnSqlTest, TransactionManagerStatsTrackLifecycle) {
  TransactionManager* mgr = db_.txn_manager();
  const uint64_t begun = mgr->txns_begun();
  const uint64_t aborted = mgr->txns_aborted();
  const size_t active = mgr->active_txns();
  uint64_t txn = 0;
  ASSERT_TRUE(db_.Execute("BEGIN", &txn).ok());
  EXPECT_EQ(mgr->active_txns(), active + 1);
  ASSERT_TRUE(db_.Execute("ROLLBACK", &txn).ok());
  EXPECT_EQ(mgr->active_txns(), active);
  EXPECT_GT(mgr->txns_aborted(), aborted);
  EXPECT_GT(mgr->txns_begun(), begun);
}

TEST(TxnDurabilityTest, ExplicitTransactionSurvivesReopen) {
  const std::string dir = MakeTempDir("reopen");
  Database::Options options;
  options.backend = StorageManager::Backend::kFile;
  options.directory = dir;
  options.wal_sync = Database::WalSyncMode::kGroupCommit;
  {
    auto db = Database::Open(dir, options).ValueOrDie();
    ASSERT_TRUE(
        db->Execute("CREATE TABLE Birds (name TEXT, family TEXT)").ok());
    uint64_t txn = 0;
    ASSERT_TRUE(db->Execute("BEGIN", &txn).ok());
    ASSERT_TRUE(
        db->Execute("INSERT INTO Birds VALUES ('durable1', 'f0')", &txn)
            .ok());
    ASSERT_TRUE(
        db->Execute("INSERT INTO Birds VALUES ('durable2', 'f1')", &txn)
            .ok());
    ASSERT_TRUE(db->Execute("COMMIT", &txn).ok());

    // A second transaction left open at close must not replay.
    uint64_t open_txn = 0;
    ASSERT_TRUE(db->Execute("BEGIN", &open_txn).ok());
    ASSERT_TRUE(
        db->Execute("INSERT INTO Birds VALUES ('limbo', 'f2')", &open_txn)
            .ok());
    ASSERT_TRUE(db->WalSync().ok());
    // Drop the database with the transaction still open (simulated crash:
    // no COMMIT record was ever appended for it).
  }
  auto db = Database::Open(dir, options).ValueOrDie();
  auto rows = db->Execute("SELECT * FROM Birds").ValueOrDie();
  ASSERT_EQ(rows.rows.size(), 2u);
  for (const Tuple& row : rows.rows) {
    EXPECT_NE(row.at(0).AsString(), "limbo");
  }
  std::filesystem::remove_all(dir);
}

TEST(TxnDurabilityTest, OpenAcrossCheckpointCommitsAfterItAndSurvives) {
  const std::string dir = MakeTempDir("across_ckpt");
  Database::Options options;
  options.backend = StorageManager::Backend::kFile;
  options.directory = dir;
  options.wal_sync = Database::WalSyncMode::kGroupCommit;
  {
    auto db = Database::Open(dir, options).ValueOrDie();
    ASSERT_TRUE(
        db->Execute("CREATE TABLE Birds (name TEXT, family TEXT)").ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db->Execute("INSERT INTO Birds VALUES ('pre" +
                              std::to_string(i) + "', 'f')")
                      .ok());
    }
    uint64_t txn = 0;
    ASSERT_TRUE(db->Execute("BEGIN", &txn).ok());
    const Lsn txn_begin = db->wal()->last_lsn();
    ASSERT_TRUE(
        db->Execute("INSERT INTO Birds VALUES ('before', 'f')", &txn).ok());
    uint64_t doomed = 0;
    ASSERT_TRUE(db->Execute("BEGIN", &doomed).ok());
    ASSERT_TRUE(
        db->Execute("INSERT INTO Birds VALUES ('undone', 'f')", &doomed)
            .ok());
    // The checkpoint drops the log prefix but keeps the records of the
    // transactions open across it, from the older one's begin on.
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_EQ(db->wal()->first_lsn(), txn_begin);
    ASSERT_TRUE(
        db->Execute("INSERT INTO Birds VALUES ('after', 'f')", &txn).ok());
    ASSERT_TRUE(db->Execute("COMMIT", &txn).ok());
    ASSERT_TRUE(db->Execute("ROLLBACK", &doomed).ok());
    // The next checkpoint has nothing open to keep.
    const Lsn begin = db->wal()->next_lsn();
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_EQ(db->wal()->first_lsn(), begin);
  }
  {
    auto db = Database::Open(dir, options).ValueOrDie();
    EXPECT_EQ(db->recovery_stats().records_seen, 2u);
    auto rows = db->Execute("SELECT name FROM Birds").ValueOrDie();
    ASSERT_EQ(rows.rows.size(), 22u);
    // A transaction open across the checkpoint, committed before a crash.
    uint64_t txn = 0;
    ASSERT_TRUE(db->Execute("BEGIN", &txn).ok());
    ASSERT_TRUE(
        db->Execute("INSERT INTO Birds VALUES ('late1', 'f')", &txn).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(
        db->Execute("INSERT INTO Birds VALUES ('late2', 'f')", &txn).ok());
    ASSERT_TRUE(db->Execute("COMMIT", &txn).ok());
  }
  auto db = Database::Open(dir, options).ValueOrDie();
  auto rows = db->Execute("SELECT name FROM Birds").ValueOrDie();
  std::vector<std::string> names;
  for (const Tuple& row : rows.rows) names.push_back(row.at(0).AsString());
  EXPECT_EQ(names.size(), 24u);
  for (const char* want : {"before", "after", "late1", "late2"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << want;
  }
  EXPECT_EQ(std::find(names.begin(), names.end(), "undone"), names.end());
  std::filesystem::remove_all(dir);
}

TEST(TxnDurabilityTest, RolledBackTransactionNeverReplays) {
  const std::string dir = MakeTempDir("rollback");
  Database::Options options;
  options.backend = StorageManager::Backend::kFile;
  options.directory = dir;
  options.wal_sync = Database::WalSyncMode::kGroupCommit;
  {
    auto db = Database::Open(dir, options).ValueOrDie();
    ASSERT_TRUE(
        db->Execute("CREATE TABLE Birds (name TEXT, family TEXT)").ok());
    uint64_t txn = 0;
    ASSERT_TRUE(db->Execute("BEGIN", &txn).ok());
    ASSERT_TRUE(
        db->Execute("INSERT INTO Birds VALUES ('undone', 'f0')", &txn).ok());
    ASSERT_TRUE(db->Execute("ROLLBACK", &txn).ok());
    ASSERT_TRUE(
        db->Execute("INSERT INTO Birds VALUES ('kept', 'f1')").ok());
    ASSERT_TRUE(db->WalSync().ok());
  }
  auto db = Database::Open(dir, options).ValueOrDie();
  auto rows = db->Execute("SELECT * FROM Birds").ValueOrDie();
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0].at(0).AsString(), "kept");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace insight
