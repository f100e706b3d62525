#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "sindex/summary_btree.h"
#include "sql/database.h"
#include "wal/crash_point.h"

namespace insight {
namespace {

std::string MakeTempDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  std::string dir = ::testing::TempDir() + "/insight_rec_" + tag + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  return dir;
}

Schema BirdsSchema() {
  return Schema({{"name", ValueType::kString},
                 {"family", ValueType::kString},
                 {"weight", ValueType::kDouble}});
}

Tuple MakeBird(const std::string& name, const std::string& family,
               double weight) {
  return Tuple({Value::String(name), Value::String(family),
                Value::Double(weight)});
}

Status DefineBirdClassifier(Database* db) {
  return db->DefineClassifier(
      "ClassBird1", {"Disease", "Behavior", "Other"},
      {{"diseaseword infection sick", "Disease"},
       {"behaviorword eating foraging", "Behavior"},
       {"otherword comment note", "Other"}});
}

/// Sorted data-tuple OIDs a probe returns — the unit of index agreement.
std::vector<Oid> ProbeOids(const SummaryBTree& index,
                           const ClassifierProbe& probe) {
  auto hits = index.Search(probe);
  EXPECT_TRUE(hits.ok()) << hits.status().ToString();
  std::vector<Oid> oids;
  if (hits.ok()) {
    for (const SummaryIndexHit& hit : *hits) {
      // Resolve the backward pointer to the data tuple's OID; a dangling
      // pointer here would itself be an index/heap divergence.
      Oid oid = kInvalidOid;
      auto tuple = index.FetchDataTuple(hit, &oid);
      EXPECT_TRUE(tuple.ok()) << tuple.status().ToString();
      oids.push_back(oid);
    }
  }
  std::sort(oids.begin(), oids.end());
  return oids;
}

/// Rebuilds the recovered database's logical content (tuples + raw
/// annotations, same OIDs and annotation ids) into a fresh in-memory
/// database and asserts the recovered Summary-BTree answers every
/// equality/range probe exactly like the from-scratch index.
void ExpectIndexMatchesFreshRebuild(Database* recovered,
                                    const std::string& context) {
  Table* birds = *recovered->GetTable("Birds");
  auto* mgr = *recovered->GetManager("Birds");

  Database reference;
  ASSERT_TRUE(reference.CreateTable("Birds", birds->schema()).ok());
  ASSERT_TRUE(DefineBirdClassifier(&reference).ok());
  ASSERT_TRUE(reference.LinkInstance("Birds", "ClassBird1", true).ok());

  Table* ref_birds = *reference.GetTable("Birds");
  auto it = birds->Scan();
  Oid oid;
  Tuple tuple;
  while (it.Next(&oid, &tuple)) {
    ASSERT_TRUE(ref_birds->InsertWithOid(oid, tuple).ok()) << context;
  }
  auto* ref_mgr = *reference.GetManager("Birds");
  ASSERT_TRUE(mgr->annotations()
                  ->ForEachAnnotation([&](const Annotation& ann) {
                    return ref_mgr->AddAnnotationWithId(ann.id, ann.text,
                                                        ann.targets);
                  })
                  .ok())
      << context;

  const SummaryBTree* got = *recovered->GetSummaryIndex("Birds", "ClassBird1");
  const SummaryBTree* want = *reference.GetSummaryIndex("Birds", "ClassBird1");
  EXPECT_EQ(got->num_entries(), want->num_entries()) << context;
  for (const char* label : {"Disease", "Behavior", "Other"}) {
    for (int64_t count = 0; count <= 6; ++count) {
      EXPECT_EQ(ProbeOids(*got, ClassifierProbe::Equal(label, count)),
                ProbeOids(*want, ClassifierProbe::Equal(label, count)))
          << context << ": Equal(" << label << ", " << count << ")";
    }
    EXPECT_EQ(ProbeOids(*got, ClassifierProbe::Range(label, 1, 5)),
              ProbeOids(*want, ClassifierProbe::Range(label, 1, 5)))
        << context << ": Range(" << label << ")";
    EXPECT_EQ(ProbeOids(*got, ClassifierProbe::GreaterThan(label, 0)),
              ProbeOids(*want, ClassifierProbe::GreaterThan(label, 0)))
        << context << ": GreaterThan(" << label << ")";
  }
}

// ---------- Clean close / reopen ----------

TEST(RecoveryTest, CleanCloseReopenRoundTrip) {
  const std::string dir = MakeTempDir("clean");
  {
    auto db = Database::Open(dir).ValueOrDie();
    ASSERT_TRUE(db->CreateTable("Birds", BirdsSchema()).ok());
    ASSERT_TRUE(DefineBirdClassifier(db.get()).ok());
    ASSERT_TRUE(db->LinkInstance("Birds", "ClassBird1", true).ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(db->Insert("Birds", MakeBird("bird" + std::to_string(i),
                                               "family" + std::to_string(i % 2),
                                               1.0 + i))
                      .ok());
    }
    ASSERT_TRUE(
        db->Annotate("Birds", "diseaseword outbreak", {{1, CellMask(0)}})
            .ok());
    ASSERT_TRUE(
        db->Annotate("Birds", "diseaseword lesion", {{1, CellMask(0)}}).ok());
    ASSERT_TRUE(
        db->Annotate("Birds", "behaviorword foraging", {{2, CellMask(1)}})
            .ok());
  }

  auto db = Database::Open(dir).ValueOrDie();
  EXPECT_GT(db->recovery_stats().records_seen, 0u);
  Table* birds = *db->GetTable("Birds");
  EXPECT_EQ(birds->num_rows(), 6u);
  EXPECT_EQ((*birds->Get(3)).at(0).AsString(), "bird2");

  const SummaryBTree* index = *db->GetSummaryIndex("Birds", "ClassBird1");
  EXPECT_EQ(ProbeOids(*index, ClassifierProbe::Equal("Disease", 2)),
            std::vector<Oid>{1});
  EXPECT_EQ(ProbeOids(*index, ClassifierProbe::Equal("Behavior", 1)),
            std::vector<Oid>{2});
  ExpectIndexMatchesFreshRebuild(db.get(), "clean reopen");
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, DeletesAndRemovalsReplayToo) {
  const std::string dir = MakeTempDir("deletes");
  AnnId removed_ann = 0;
  {
    auto db = Database::Open(dir).ValueOrDie();
    ASSERT_TRUE(db->CreateTable("Birds", BirdsSchema()).ok());
    ASSERT_TRUE(DefineBirdClassifier(db.get()).ok());
    ASSERT_TRUE(db->LinkInstance("Birds", "ClassBird1", true).ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(db->Insert("Birds", MakeBird("b" + std::to_string(i), "f",
                                               1.0))
                      .ok());
    }
    ASSERT_TRUE(db->DeleteTuple("Birds", 3).ok());
    removed_ann =
        *db->Annotate("Birds", "diseaseword doomed", {{1, CellMask(0)}});
    ASSERT_TRUE(
        db->Annotate("Birds", "diseaseword kept", {{1, CellMask(0)}}).ok());
    ASSERT_TRUE(db->RemoveAnnotation("Birds", removed_ann).ok());
  }

  auto db = Database::Open(dir).ValueOrDie();
  Table* birds = *db->GetTable("Birds");
  EXPECT_EQ(birds->num_rows(), 3u);
  EXPECT_TRUE(birds->Get(3).status().IsNotFound());
  // Only the surviving annotation counts toward the summary.
  const SummaryBTree* index = *db->GetSummaryIndex("Birds", "ClassBird1");
  EXPECT_EQ(ProbeOids(*index, ClassifierProbe::Equal("Disease", 1)),
            std::vector<Oid>{1});
  EXPECT_TRUE(
      ProbeOids(*index, ClassifierProbe::Equal("Disease", 2)).empty());
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, AnnotationIdsNeverRepeatAcrossRestarts) {
  const std::string dir = MakeTempDir("annid");
  AnnId before = 0;
  {
    auto db = Database::Open(dir).ValueOrDie();
    ASSERT_TRUE(db->CreateTable("Birds", BirdsSchema()).ok());
    ASSERT_TRUE(db->Insert("Birds", MakeBird("b", "f", 1.0)).ok());
    before = *db->Annotate("Birds", "note one", {{1, CellMask(0)}});
  }
  auto db = Database::Open(dir).ValueOrDie();
  AnnId after = *db->Annotate("Birds", "note two", {{1, CellMask(0)}});
  EXPECT_GT(after, before);
  std::filesystem::remove_all(dir);
}

// ---------- Checkpoints ----------

TEST(RecoveryTest, CheckpointPlusTailReplay) {
  const std::string dir = MakeTempDir("ckpt");
  {
    auto db = Database::Open(dir).ValueOrDie();
    ASSERT_TRUE(db->CreateTable("Birds", BirdsSchema()).ok());
    ASSERT_TRUE(DefineBirdClassifier(db.get()).ok());
    ASSERT_TRUE(db->LinkInstance("Birds", "ClassBird1", true).ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          db->Insert("Birds", MakeBird("pre" + std::to_string(i), "f", 1.0))
              .ok());
    }
    ASSERT_TRUE(
        db->Annotate("Birds", "diseaseword early", {{1, CellMask(0)}}).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    // Tail past the checkpoint.
    ASSERT_TRUE(db->Insert("Birds", MakeBird("post", "f", 2.0)).ok());
    ASSERT_TRUE(
        db->Annotate("Birds", "behaviorword late", {{5, CellMask(0)}}).ok());
  }

  auto db = Database::Open(dir).ValueOrDie();
  const auto& stats = db->recovery_stats();
  EXPECT_NE(stats.checkpoint_begin_lsn, kInvalidLsn);
  EXPECT_GT(stats.snapshot_ops, 0u);
  EXPECT_GT(stats.records_applied, 0u);

  Table* birds = *db->GetTable("Birds");
  EXPECT_EQ(birds->num_rows(), 5u);
  EXPECT_EQ((*birds->Get(5)).at(0).AsString(), "post");
  const SummaryBTree* index = *db->GetSummaryIndex("Birds", "ClassBird1");
  EXPECT_EQ(ProbeOids(*index, ClassifierProbe::Equal("Disease", 1)),
            std::vector<Oid>{1});
  EXPECT_EQ(ProbeOids(*index, ClassifierProbe::Equal("Behavior", 1)),
            std::vector<Oid>{5});
  ExpectIndexMatchesFreshRebuild(db.get(), "checkpoint + tail");
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, CheckpointReplacesTheLog) {
  const std::string dir = MakeTempDir("replace");
  const std::string log = dir + "/wal.log";
  {
    auto db = Database::Open(dir).ValueOrDie();
    ASSERT_TRUE(db->CreateTable("Birds", BirdsSchema()).ok());
    ASSERT_TRUE(DefineBirdClassifier(db.get()).ok());
    ASSERT_TRUE(db->LinkInstance("Birds", "ClassBird1", true).ok());
    uint64_t last_checkpointed_bytes = 0;
    for (int round = 0; round < 5; ++round) {
      for (int i = 0; i < 40; ++i) {
        const Oid oid = *db->Insert(
            "Birds", MakeBird("b" + std::to_string(round * 40 + i), "f", 1));
        ASSERT_TRUE(db->Annotate("Birds", "diseaseword note",
                                 {{oid, CellMask(0)}})
                        .ok());
      }
      ASSERT_TRUE(db->WalSync().ok());
      ASSERT_TRUE(db->Checkpoint().ok());
      // Two records replace the log: the snapshot and its end marker. No
      // earlier snapshot and none of this round's ops stay behind.
      auto records = db->wal()->ReadAll().ValueOrDie();
      ASSERT_EQ(records.size(), 2u) << "round " << round;
      EXPECT_EQ(records[0].type, WalRecordType::kCheckpointBegin);
      EXPECT_EQ(records[1].type, WalRecordType::kCheckpointEnd);
      const uint64_t bytes = std::filesystem::file_size(log);
      EXPECT_EQ(bytes, db->wal()->size_bytes());
      EXPECT_EQ(bytes, records[0].payload.size() + records[1].payload.size() +
                           2 * (8 + 9));
      EXPECT_GT(bytes, last_checkpointed_bytes) << "round " << round;
      last_checkpointed_bytes = bytes;
    }
    ASSERT_TRUE(db->Insert("Birds", MakeBird("tail", "f", 1)).ok());
  }
  EXPECT_FALSE(std::filesystem::exists(log + ".tmp"));
  auto db = Database::Open(dir).ValueOrDie();
  EXPECT_EQ(db->recovery_stats().records_seen, 3u);
  EXPECT_EQ(db->recovery_stats().records_applied, 2u);  // End + insert.
  EXPECT_EQ((*db->GetTable("Birds"))->num_rows(), 201u);
  ExpectIndexMatchesFreshRebuild(db.get(), "replaced log");
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, AutomaticCheckpointTriggersOnOpBudget) {
  const std::string dir = MakeTempDir("autockpt");
  Database::Options options;
  options.checkpoint_every_ops = 5;
  {
    auto db = Database::Open(dir, options).ValueOrDie();
    ASSERT_TRUE(db->CreateTable("Birds", BirdsSchema()).ok());
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(
          db->Insert("Birds", MakeBird("b" + std::to_string(i), "f", 1.0))
              .ok());
    }
    auto records = db->wal()->ReadAll().ValueOrDie();
    const bool has_checkpoint =
        std::any_of(records.begin(), records.end(), [](const WalRecord& r) {
          return r.type == WalRecordType::kCheckpointEnd;
        });
    EXPECT_TRUE(has_checkpoint);
  }
  auto db = Database::Open(dir, options).ValueOrDie();
  EXPECT_NE(db->recovery_stats().checkpoint_begin_lsn, kInvalidLsn);
  EXPECT_EQ((*db->GetTable("Birds"))->num_rows(), 12u);
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, FileBackendSurvivesReopenWithStalePages) {
  // kFile backend: page files persist across the close but are derived
  // state; Open discards them and rebuilds from the log.
  const std::string dir = MakeTempDir("filepages");
  Database::Options options;
  options.backend = StorageManager::Backend::kFile;
  {
    auto db = Database::Open(dir, options).ValueOrDie();
    ASSERT_TRUE(db->CreateTable("Birds", BirdsSchema()).ok());
    ASSERT_TRUE(db->Insert("Birds", MakeBird("persisted", "f", 1.0)).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  auto db = Database::Open(dir, options).ValueOrDie();
  Table* birds = *db->GetTable("Birds");
  EXPECT_EQ(birds->num_rows(), 1u);
  EXPECT_EQ((*birds->Get(1)).at(0).AsString(), "persisted");
  std::filesystem::remove_all(dir);
}

// ---------- Kill-point matrix ----------
//
// For every registered crash point: a death-test child reopens the
// committed database, arms the point, and drives a workload that touches
// the full durability protocol (append, group-commit fsync, index
// maintenance, checkpoint, page flush + sync). The child must die at the
// armed point with the crash exit code. The parent then recovers the
// directory and asserts (a) all committed effects are visible, (b) no
// torn partial effects exist, and (c) the recovered Summary-BTree answers
// probes exactly like an index rebuilt from scratch.

constexpr int kCommittedRows = 6;

Database::Options CrashOptions(const std::string& dir) {
  Database::Options options;
  options.backend = StorageManager::Backend::kFile;
  options.directory = dir;
  options.buffer_pool_frames = 256;
  options.wal_sync = Database::WalSyncMode::kGroupCommit;
  return options;
}

void BuildCommittedState(const std::string& dir) {
  auto db = Database::Open(dir, CrashOptions(dir)).ValueOrDie();
  ASSERT_TRUE(db->CreateTable("Birds", BirdsSchema()).ok());
  ASSERT_TRUE(DefineBirdClassifier(db.get()).ok());
  ASSERT_TRUE(db->LinkInstance("Birds", "ClassBird1", true).ok());
  for (int i = 0; i < kCommittedRows; ++i) {
    ASSERT_TRUE(db->Insert("Birds", MakeBird("bird" + std::to_string(i),
                                             "family" + std::to_string(i % 2),
                                             1.0 + i))
                    .ok());
  }
  ASSERT_TRUE(
      db->Annotate("Birds", "diseaseword committed a", {{1, CellMask(0)}})
          .ok());
  ASSERT_TRUE(
      db->Annotate("Birds", "diseaseword committed b", {{1, CellMask(0)}})
          .ok());
  ASSERT_TRUE(
      db->Annotate("Birds", "behaviorword committed", {{2, CellMask(1)}})
          .ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(db->WalSync().ok());
}

/// Runs in the death-test child: every statement below may terminate the
/// process at the armed point. Reaching the end means the point was never
/// hit, which the death test reports as a failure (exit 0 != 86).
void RunCrashingWorkload(const std::string& dir, const std::string& point) {
  auto opened = Database::Open(dir, CrashOptions(dir));
  if (!opened.ok()) std::_Exit(11);
  std::unique_ptr<Database> db = std::move(*opened);
  ArmCrashPoint(point);

  // Appends (wal_append); buffered under group commit so several records
  // share the next fsync (wal_sync_partial needs a batch of >= 2).
  db->Insert("Birds", MakeBird("crash-a", "familyX", 9.1)).status();
  db->Insert("Birds", MakeBird("crash-b", "familyX", 9.2)).status();
  // Tuple 1 already has summaries: these updates traverse the
  // Summary-BTree delete+re-insert protocol (sbtree_maintenance).
  db->Annotate("Birds", "diseaseword in flight", {{1, CellMask(0)}}).status();
  db->Annotate("Birds", "diseaseword in flight 2", {{1, CellMask(0)}})
      .status();
  // Autocommit SQL DML runs as its own transaction: the commit hook
  // appends the commit record (txn_commit_appended) and forces it durable
  // (txn_commit_durable).
  db->Execute("INSERT INTO Birds VALUES ('crash-txn', 'familyX', 9.3)")
      .status();
  // An explicit transaction that rolls back crosses txn_abort_mid; its
  // row and its annotation must never surface after recovery no matter
  // where the crash lands.
  uint64_t txn = 0;
  db->Execute("BEGIN", &txn).status();
  db->Execute("INSERT INTO Birds VALUES ('rollback-row', 'familyX', 9.4)",
              &txn)
      .status();
  db->Execute("ANNOTATE Birds TUPLE 1 WITH 'rollbackword never lands'", &txn)
      .status();
  db->Execute("ROLLBACK", &txn).status();
  // Group-commit fsync (wal_sync_begin/partial/before_fsync/after_fsync).
  db->WalSync().ok();
  // Snapshot + page flush + data fsync (checkpoint_begin,
  // bufferpool_flush_page, pagestore_sync, checkpoint_after_flush,
  // checkpoint_end).
  db->Checkpoint().ok();
  std::_Exit(0);
}

void VerifyRecovered(const std::string& dir, const std::string& point) {
  auto db = Database::Open(dir, CrashOptions(dir)).ValueOrDie();
  Table* birds = *db->GetTable("Birds");

  // (a) Committed state is fully visible.
  ASSERT_GE(birds->num_rows(), static_cast<uint64_t>(kCommittedRows))
      << point;
  for (Oid oid = 1; oid <= kCommittedRows; ++oid) {
    auto tuple = birds->Get(oid);
    ASSERT_TRUE(tuple.ok()) << point << ": committed oid " << oid;
    EXPECT_EQ(tuple->at(0).AsString(), "bird" + std::to_string(oid - 1))
        << point;
  }

  // (b) No torn effects: every surviving row decodes, and only the two
  // in-flight facade inserts plus the autocommit txn insert may exist
  // beyond the committed ones. The rolled-back transaction's row must
  // never surface, at any crash point.
  uint64_t scanned = 0;
  bool saw_autocommit_txn_row = false;
  auto it = birds->Scan();
  Oid oid;
  Tuple tuple;
  while (it.Next(&oid, &tuple)) {
    EXPECT_FALSE(tuple.at(0).AsString().empty()) << point;
    EXPECT_NE(tuple.at(0).AsString(), "rollback-row") << point;
    if (tuple.at(0).AsString() == "crash-txn") saw_autocommit_txn_row = true;
    ++scanned;
  }
  EXPECT_EQ(scanned, birds->num_rows()) << point;
  EXPECT_LE(scanned, static_cast<uint64_t>(kCommittedRows + 3)) << point;
  if (point == "txn_commit_durable") {
    // The crash hit after the commit record was fsynced: the autocommit
    // transaction is committed and recovery must preserve it.
    EXPECT_TRUE(saw_autocommit_txn_row) << point;
  }

  // The rolled-back transaction's annotation never surfaces either (the
  // Summary-BTree rebuild check below would miss a leak that made it into
  // the store itself, so inspect the raw annotations directly).
  auto* mgr = *db->GetManager("Birds");
  ASSERT_TRUE(mgr->annotations()
                  ->ForEachAnnotation([&](const Annotation& ann) {
                    EXPECT_EQ(ann.text.find("rollbackword"),
                              std::string::npos)
                        << point;
                    return Status::OK();
                  })
                  .ok())
      << point;

  // Committed annotations survived: tuple 1 carries at least its two
  // committed Disease notes, tuple 2 its Behavior note.
  const SummaryBTree* index = *db->GetSummaryIndex("Birds", "ClassBird1");
  const std::vector<Oid> disease =
      ProbeOids(*index, ClassifierProbe::Range("Disease", 2, 4));
  EXPECT_TRUE(std::find(disease.begin(), disease.end(), 1u) != disease.end())
      << point;
  EXPECT_EQ(ProbeOids(*index, ClassifierProbe::Equal("Behavior", 1)),
            std::vector<Oid>{2})
      << point;

  // (c) Index agreement with a from-scratch rebuild.
  ExpectIndexMatchesFreshRebuild(db.get(), "kill point " + point);
}

class KillPointMatrixTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredPoints, KillPointMatrixTest,
    ::testing::ValuesIn(RegisteredCrashPoints()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST_P(KillPointMatrixTest, CrashThenRecoverConverges) {
  const std::string point = GetParam();
  const std::string dir = MakeTempDir("kill_" + point);
  BuildCommittedState(dir);
  // "fast"-style death test: the child is forked right here, so it shares
  // `dir` and the on-disk committed state with this process.
  EXPECT_EXIT(RunCrashingWorkload(dir, point),
              ::testing::ExitedWithCode(kCrashPointExitCode), "")
      << point;
  VerifyRecovered(dir, point);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace insight
