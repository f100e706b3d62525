// Interleaved transaction stress: N writer threads run explicit
// BEGIN/.../COMMIT transactions (with deliberate rollbacks and
// first-writer-wins conflicts on shared tuples) against one Database
// while reader threads scan at latest snapshots. Afterwards the visible
// state must equal a serial replay of exactly the committed
// transactions — nothing from a rolled-back or conflict-aborted attempt
// may surface, and every committed effect must. Run under tsan this
// also exercises the retired statement gate: readers never block on the
// write path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sindex/summary_btree.h"
#include "sql/database.h"

namespace insight {
namespace {

constexpr int kWriterThreads = 4;
constexpr int kReaderThreads = 2;
constexpr int kTxnsPerThread = 24;
constexpr int kSharedTuples = 4;  // Seed rows all writers contend on.

struct CommittedTxn {
  std::string row_name;      // Empty when the txn inserted no row.
  Oid annotated_tuple = 0;   // 0 when the txn annotated nothing.
  std::string annotation;
};

void SetUpSchema(Database* db) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE Items (name TEXT, family TEXT)").ok());
  ASSERT_TRUE(db->DefineClassifier("C", {"Disease", "Other"},
                                   {{"diseaseword infection", "Disease"},
                                    {"otherword note", "Other"}})
                  .ok());
  ASSERT_TRUE(db->Execute("ALTER TABLE Items ADD INDEXABLE C").ok());
  for (int i = 0; i < kSharedTuples; ++i) {
    ASSERT_TRUE(db->Execute("INSERT INTO Items VALUES ('seed" +
                            std::to_string(i) + "', 'f0')")
                    .ok());
  }
}

std::vector<Oid> ProbeOids(const SummaryBTree& index,
                           const ClassifierProbe& probe) {
  auto hits = index.Search(probe);
  EXPECT_TRUE(hits.ok()) << hits.status().ToString();
  std::vector<Oid> oids;
  if (hits.ok()) {
    for (const SummaryIndexHit& hit : *hits) {
      Oid oid = kInvalidOid;
      auto tuple = index.FetchDataTuple(hit, &oid);
      EXPECT_TRUE(tuple.ok()) << tuple.status().ToString();
      oids.push_back(oid);
    }
  }
  std::sort(oids.begin(), oids.end());
  return oids;
}

/// Classifier label counts of one tuple's stored summary set, keyed by
/// (instance, label).
std::map<std::pair<std::string, std::string>, int64_t> LabelCounts(
    SummaryManager* mgr, Oid oid) {
  auto set = mgr->GetSummaries(oid);
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  std::map<std::pair<std::string, std::string>, int64_t> counts;
  if (!set.ok()) return counts;
  for (const SummaryObject& obj : set->objects()) {
    if (obj.type != SummaryType::kClassifier) continue;
    for (const Representative& rep : obj.reps) {
      counts[{obj.instance_name, rep.text}] = rep.count;
    }
  }
  return counts;
}

std::multiset<std::string> ZoomTexts(Database* db, Oid oid) {
  auto annotations = db->ZoomIn("Items", oid);
  EXPECT_TRUE(annotations.ok()) << annotations.status().ToString();
  std::multiset<std::string> texts;
  if (!annotations.ok()) return texts;
  for (const Annotation& ann : *annotations) texts.insert(ann.text);
  return texts;
}

/// One writer's workload: each iteration retries a whole transaction
/// from BEGIN until it commits (first-writer-wins losers back off and
/// retry), except every fifth iteration which deliberately rolls back.
void RunWriter(Database* db, int tid, std::vector<CommittedTxn>* committed,
               std::atomic<int>* conflicts) {
  for (int i = 0; i < kTxnsPerThread; ++i) {
    const std::string row_name =
        "t" + std::to_string(tid) + "-" + std::to_string(i);
    const Oid shared = 1 + static_cast<Oid>((tid + i) % kSharedTuples);
    const std::string annotation = "diseaseword stress " + row_name;
    const bool rollback = (i % 5 == 4);

    for (;;) {
      uint64_t txn = 0;
      ASSERT_TRUE(db->Execute("BEGIN", &txn).ok());
      auto inserted = db->Execute(
          "INSERT INTO Items VALUES ('" + row_name + "', 'f1')", &txn);
      if (!inserted.ok()) {
        ASSERT_TRUE(inserted.status().IsAborted())
            << inserted.status().ToString();
        conflicts->fetch_add(1);
        std::this_thread::yield();
        continue;  // Auto-aborted; retry from BEGIN.
      }
      auto annotated =
          db->Execute("ANNOTATE Items TUPLE " + std::to_string(shared) +
                          " WITH '" + annotation + "'",
                      &txn);
      if (!annotated.ok()) {
        ASSERT_TRUE(annotated.status().IsAborted())
            << annotated.status().ToString();
        conflicts->fetch_add(1);
        std::this_thread::yield();
        continue;
      }
      if (rollback) {
        ASSERT_TRUE(db->Execute("ROLLBACK", &txn).ok());
        break;  // Deliberate abort: nothing to record, no retry.
      }
      auto commit = db->Execute("COMMIT", &txn);
      if (!commit.ok()) {
        ASSERT_TRUE(commit.status().IsAborted())
            << commit.status().ToString();
        conflicts->fetch_add(1);
        std::this_thread::yield();
        continue;
      }
      committed->push_back(CommittedTxn{row_name, shared, annotation});
      break;
    }
  }
}

std::string SummaryBytes(const SummarySet& set) {
  std::string bytes;
  set.Serialize(&bytes);
  return bytes;
}

/// A propagating SELECT * inside a transaction attaches to every row
/// exactly the summary set a per-OID GetSummaries reads at that
/// transaction's snapshot, while writers keep committing around it.
/// `annotated_rows` (optional) receives the rows with a non-empty set.
void ExpectPropagationMatchesGetSummaries(Database* db,
                                          size_t* annotated_rows = nullptr) {
  uint64_t txn = 0;
  ASSERT_TRUE(db->Execute("BEGIN", &txn).ok());
  const Snapshot snap = db->txn_manager()->Find(txn)->snapshot();
  auto result = db->Execute("SELECT * FROM Items", &txn);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->summaries.size(), result->rows.size());
  // Row names are unique, so they map each output row back to its OID.
  std::map<std::string, Oid> oid_of;
  Table* items = *db->GetTable("Items");
  auto it = items->Scan(snap);
  Oid oid = kInvalidOid;
  Tuple tuple;
  while (it.Next(&oid, &tuple)) oid_of[tuple.at(0).AsString()] = oid;
  SummaryManager* mgr = *db->GetManager("Items");
  for (size_t i = 0; i < result->rows.size(); ++i) {
    const std::string name = result->rows[i].at(0).AsString();
    ASSERT_EQ(oid_of.count(name), 1u) << name;
    auto want = mgr->GetSummaries(oid_of[name], snap);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(SummaryBytes(result->summaries[i]), SummaryBytes(*want))
        << name;
    if (annotated_rows != nullptr && !want->empty()) ++*annotated_rows;
  }
  ASSERT_TRUE(db->Execute("COMMIT", &txn).ok());
}

/// Readers hammer latest-snapshot SELECTs while writers commit. Each
/// result must be internally consistent (no torn rows) and row counts
/// must never move backwards across successive snapshots. Every round
/// also checks propagation at a transaction's snapshot.
void RunReader(Database* db, std::atomic<bool>* stop) {
  size_t last_count = 0;
  while (!stop->load(std::memory_order_acquire)) {
    auto result = db->Execute("SELECT * FROM Items");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const Tuple& row : result->rows) {
      ASSERT_FALSE(row.at(0).AsString().empty());
    }
    ASSERT_GE(result->rows.size(), last_count);
    last_count = result->rows.size();
    ExpectPropagationMatchesGetSummaries(db);
  }
}

TEST(TxnStressTest, InterleavedTxnsEqualSerialReplayOfCommitted) {
  Database db;
  SetUpSchema(&db);

  std::vector<std::vector<CommittedTxn>> per_thread(kWriterThreads);
  std::atomic<int> conflicts{0};
  std::atomic<bool> stop{false};

  // Guarantee at least one first-writer-wins conflict: hold an intent on
  // tuple 1 until some writer has lost against it, then roll back so the
  // losers' retries can win.
  uint64_t blocker = 0;
  ASSERT_TRUE(db.Execute("BEGIN", &blocker).ok());
  ASSERT_TRUE(
      db.Execute("ANNOTATE Items TUPLE 1 WITH 'diseaseword blocker'",
                 &blocker)
          .ok());

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaderThreads; ++r) {
    threads.emplace_back(RunReader, &db, &stop);
  }
  for (int t = 0; t < kWriterThreads; ++t) {
    threads.emplace_back(RunWriter, &db, t, &per_thread[t], &conflicts);
  }
  while (conflicts.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(db.Execute("ROLLBACK", &blocker).ok());
  for (size_t i = kReaderThreads; i < threads.size(); ++i) threads[i].join();
  stop.store(true, std::memory_order_release);
  for (int r = 0; r < kReaderThreads; ++r) threads[r].join();

  std::vector<CommittedTxn> committed;
  for (const auto& v : per_thread) {
    committed.insert(committed.end(), v.begin(), v.end());
  }
  // Every non-rollback iteration must eventually have committed: the
  // write gate serializes statements, so each retry round has a winner.
  const size_t expected =
      static_cast<size_t>(kWriterThreads) * (kTxnsPerThread -
                                             kTxnsPerThread / 5);
  ASSERT_EQ(committed.size(), expected);

  // (1) Visible rows = seeds + exactly the committed inserts.
  auto rows = db.Execute("SELECT * FROM Items").ValueOrDie();
  std::multiset<std::string> got_names;
  for (const Tuple& row : rows.rows) {
    got_names.insert(row.at(0).AsString());
  }
  std::multiset<std::string> want_names;
  for (int i = 0; i < kSharedTuples; ++i) {
    want_names.insert("seed" + std::to_string(i));
  }
  for (const CommittedTxn& txn : committed) want_names.insert(txn.row_name);
  EXPECT_EQ(got_names, want_names);

  // (2) Visible annotations = exactly the committed ones.
  auto* mgr = *db.GetManager("Items");
  std::multiset<std::string> got_annotations;
  ASSERT_TRUE(mgr->annotations()
                  ->ForEachAnnotation([&](const Annotation& ann) {
                    got_annotations.insert(ann.text);
                    return Status::OK();
                  })
                  .ok());
  std::multiset<std::string> want_annotations;
  for (const CommittedTxn& txn : committed) {
    want_annotations.insert(txn.annotation);
  }
  EXPECT_EQ(got_annotations, want_annotations);

  // (3) The Summary-BTree answers probes exactly like a database that
  // replayed only the committed transactions serially. The contended
  // tuples are the pre-stress seeds, so their OIDs agree across runs.
  Database reference;
  SetUpSchema(&reference);
  for (const CommittedTxn& txn : committed) {
    ASSERT_TRUE(reference
                    .Execute("ANNOTATE Items TUPLE " +
                             std::to_string(txn.annotated_tuple) + " WITH '" +
                             txn.annotation + "'")
                    .ok());
  }
  const SummaryBTree* got = *db.GetSummaryIndex("Items", "C");
  const SummaryBTree* want = *reference.GetSummaryIndex("Items", "C");
  const int64_t max_count =
      static_cast<int64_t>(kWriterThreads) * kTxnsPerThread + 1;
  for (const char* label : {"Disease", "Other"}) {
    EXPECT_EQ(ProbeOids(*got, ClassifierProbe::GreaterThan(label, 0)),
              ProbeOids(*want, ClassifierProbe::GreaterThan(label, 0)))
        << label;
    EXPECT_EQ(ProbeOids(*got, ClassifierProbe::Range(label, 1, max_count)),
              ProbeOids(*want, ClassifierProbe::Range(label, 1, max_count)))
        << label;
  }

  // (4) The stored summary sets and zoom-ins of the contended tuples
  // match the reference too: rolled-back and conflict-aborted attempts
  // left nothing in the storage rows, and every commit is counted once.
  SummaryManager* want_mgr = *reference.GetManager("Items");
  for (Oid oid = 1; oid <= static_cast<Oid>(kSharedTuples); ++oid) {
    EXPECT_FALSE(LabelCounts(want_mgr, oid).empty()) << oid;
    EXPECT_EQ(LabelCounts(mgr, oid), LabelCounts(want_mgr, oid)) << oid;
    EXPECT_EQ(ZoomTexts(&db, oid), ZoomTexts(&reference, oid)) << oid;
  }
  EXPECT_GT(conflicts.load(), 0)
      << "the workload never conflicted; contention is not being tested";

  // (5) Propagation at a snapshot once the writers are done: the
  // contended tuples carry summaries, so the check is not vacuous.
  size_t annotated_rows = 0;
  ExpectPropagationMatchesGetSummaries(&db, &annotated_rows);
  EXPECT_GE(annotated_rows, static_cast<size_t>(kSharedTuples));
}

/// Snapshot stability under concurrent commits: a transaction opened
/// before a burst of writes must read the same row count throughout.
TEST(TxnStressTest, OpenSnapshotIsStableWhileWritersCommit) {
  Database db;
  SetUpSchema(&db);

  uint64_t reader = 0;
  ASSERT_TRUE(db.Execute("BEGIN", &reader).ok());
  auto before = db.Execute("SELECT * FROM Items", &reader).ValueOrDie();

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriterThreads; ++t) {
    writers.emplace_back([&db, t] {
      for (int i = 0; i < 10; ++i) {
        auto st = db.Execute("INSERT INTO Items VALUES ('w" +
                             std::to_string(t) + "-" + std::to_string(i) +
                             "', 'f2')");
        ASSERT_TRUE(st.ok()) << st.status().ToString();
      }
    });
  }
  for (auto& w : writers) w.join();

  // The open snapshot still sees only its pinned state.
  auto during = db.Execute("SELECT * FROM Items", &reader).ValueOrDie();
  EXPECT_EQ(during.rows.size(), before.rows.size());
  ASSERT_TRUE(db.Execute("COMMIT", &reader).ok());

  // A fresh snapshot sees everything.
  auto after = db.Execute("SELECT * FROM Items").ValueOrDie();
  EXPECT_EQ(after.rows.size(),
            before.rows.size() + kWriterThreads * 10);
}

}  // namespace
}  // namespace insight
