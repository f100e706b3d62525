// Summary-BTree probes racing the index's write path. Reader threads,
// each with its own transaction handle, probe a label range and a top-k
// through the Summary-BTree while a writer ANNOTATEs, commits and rolls
// back. Every probe is checked against a brute-force scan of the same
// label at the same reader's snapshot: an aborted insert's entry, or a
// deleted key, must never surface as a hit, even while the writer's
// abort and GC closures remove sidecar records and tree entries. The
// writer must keep committing while the readers probe. Also in the CI
// tsan stress list.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "engine_test_util.h"
#include "sindex/summary_btree.h"
#include "sql/database.h"
#include "txn/transaction_manager.h"

namespace insight {
namespace {

constexpr int kItems = 600;
// The writer annotates only these tuples, so their Disease counts climb
// through the probed range while the index plan stays the cheapest.
constexpr int kHotItems = 10;
// Writer transactions, half of them rolled back. The hot counts stay
// below 999, so the keys keep their width; the width rebuild has its own
// test below.
constexpr int kWriterTxns = 1500;
constexpr int kReaderThreads = 3;
constexpr int kProbesPerReader = 300;

const std::string kDisease =
    "$.getSummaryObject('C').getLabelValue('Disease')";

void SetUpItems(Database* db) {
  ASSERT_TRUE(db->Execute("CREATE TABLE Items (name TEXT)").ok());
  ASSERT_TRUE(db->DefineClassifier("C", {"Disease", "Other"},
                                   {{"diseaseword infection", "Disease"},
                                    {"otherword note", "Other"}})
                  .ok());
  ASSERT_TRUE(db->Execute("ALTER TABLE Items ADD INDEXABLE C").ok());
  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE(
        db->Execute("INSERT INTO Items VALUES ('i" + std::to_string(i) + "')")
            .ok());
  }
  // Every tuple annotated, so the top-k may read the index.
  for (int i = 1; i <= kItems; ++i) {
    for (int n = 0; n < 1 + i % 3; ++n) {
      ASSERT_TRUE(db->Execute("ANNOTATE Items TUPLE " + std::to_string(i) +
                              " WITH 'diseaseword infection'")
                      .ok());
    }
  }
  ASSERT_TRUE(db->Execute("ANALYZE Items").ok());
}

// name -> Disease count, by a full scan at the handle's snapshot.
std::map<std::string, int64_t> Counts(Database* db, uint64_t* txn) {
  auto all = db->Execute("SELECT name, " + kDisease + " FROM Items", txn);
  EXPECT_TRUE(all.ok()) << all.status().ToString();
  std::map<std::string, int64_t> counts;
  if (!all.ok()) return counts;
  for (const Tuple& row : all->rows) {
    counts[row.at(0).AsString()] = row.at(1).is_null() ? 0 : row.at(1).AsInt();
  }
  return counts;
}

TEST(SummaryBTreeConcurrencyTest, ProbesMatchBruteForceWhileWriting) {
  Database db;
  SetUpItems(&db);
  const std::string range_sql = "SELECT name FROM Items WHERE " + kDisease +
                                " >= 5 AND " + kDisease + " <= 6";
  const std::string topk_sql = "SELECT name, " + kDisease +
                               " FROM Items ORDER BY " + kDisease +
                               " DESC LIMIT 10";
  for (const std::string& sql : {range_sql, topk_sql}) {
    auto plan = db.Explain(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_NE(plan->find("SummaryIndexScan("), std::string::npos) << *plan;
  }

  std::atomic<bool> done{false};
  std::atomic<int> commits{0};
  std::atomic<int> rollbacks{0};
  std::thread writer([&] {
    for (int i = 0; !done.load() && i < kWriterTxns; ++i) {
      uint64_t txn = 0;
      ASSERT_TRUE(db.Execute("BEGIN", &txn).ok());
      const int tuple = 1 + (i * 7) % kHotItems;
      auto annotated = db.Execute("ANNOTATE Items TUPLE " +
                                      std::to_string(tuple) +
                                      " WITH 'diseaseword infection'",
                                  &txn);
      if (!annotated.ok()) {
        ASSERT_TRUE(annotated.status().IsAborted())
            << annotated.status().ToString();
        continue;
      }
      if (i % 2 == 1) {
        ASSERT_TRUE(db.Execute("ROLLBACK", &txn).ok());
        rollbacks.fetch_add(1);
      } else {
        auto commit = db.Execute("COMMIT", &txn);
        ASSERT_TRUE(commit.ok() || commit.status().IsAborted())
            << commit.status().ToString();
        if (commit.ok()) commits.fetch_add(1);
      }
    }
  });

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaderThreads; ++r) {
    readers.emplace_back([&] {
      for (int p = 0; p < kProbesPerReader; ++p) {
        uint64_t txn = 0;
        ASSERT_TRUE(db.Execute("BEGIN", &txn).ok());
        auto range = db.Execute(range_sql, &txn);
        auto topk = db.Execute(topk_sql, &txn);
        const std::map<std::string, int64_t> counts = Counts(&db, &txn);
        ASSERT_TRUE(db.Execute("COMMIT", &txn).ok());
        ASSERT_TRUE(range.ok()) << range.status().ToString();
        ASSERT_TRUE(topk.ok()) << topk.status().ToString();

        std::vector<std::string> got;
        for (const Tuple& row : range->rows) got.push_back(row.at(0).AsString());
        std::vector<std::string> want;
        std::vector<int64_t> top;
        for (const auto& [name, count] : counts) {
          if (count >= 5 && count <= 6) want.push_back(name);
          top.push_back(count);
        }
        std::sort(got.begin(), got.end());
        std::sort(top.rbegin(), top.rend());
        top.resize(std::min<size_t>(10, top.size()));
        std::vector<int64_t> got_top;
        for (const Tuple& row : topk->rows) {
          got_top.push_back(row.at(1).AsInt());
          // Each top-k row carries its own count at this snapshot.
          auto it = counts.find(row.at(0).AsString());
          if (it == counts.end() || it->second != row.at(1).AsInt()) {
            mismatches.fetch_add(1);
          }
        }
        EXPECT_EQ(got, want) << "range probe " << p;
        EXPECT_EQ(got_top, top) << "top-k probe " << p;
        if (got != want || got_top != top) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  // The writer made progress while the readers held the index.
  const int commits_during_reads = commits.load();
  done.store(true);
  writer.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(commits_during_reads, 0);
  EXPECT_GT(rollbacks.load(), 0);
}

// A width rebuild re-itemizes the latest committed storage rows. An entry
// whose delete committed after an open reader's snapshot is not in them,
// yet that reader must still find it through the index.
TEST(SummaryBTreeConcurrencyTest, WidthRebuildKeepsEntriesOldSnapshotsSee) {
  TestDb db(20);
  TransactionManager txns;
  SummaryBTree::Options opts;
  opts.count_width = 1;  // Rebuild at count 10.
  auto index = *SummaryBTree::Create(&db.storage, &db.pool, db.mgr.get(),
                                     "ClassBird1", opts);
  db.Annotate(1, "disease", 5);
  db.Annotate(2, "disease", 9);
  Transaction* reader = *txns.Begin();
  auto annotate_once = [&](Oid oid) {
    Transaction* txn = *txns.Begin();
    {
      TxnScope scope(txn);
      db.Annotate(oid, "disease", 1);
    }
    ASSERT_TRUE(txns.Commit(txn->id()).ok());
  };
  annotate_once(1);  // 5 -> 6, committed after the reader's snapshot.
  annotate_once(2);  // 9 -> 10: the keys widen and the tree is rebuilt.
  ASSERT_EQ(index->count_width(), 2);

  auto old_hits =
      index->Search(ClassifierProbe::Equal("Disease", 5), reader->snapshot());
  ASSERT_TRUE(old_hits.ok()) << old_hits.status().ToString();
  ASSERT_EQ(old_hits->size(), 1u);
  Oid oid = kInvalidOid;
  ASSERT_TRUE(
      index->FetchDataTuple((*old_hits)[0], &oid, reader->snapshot()).ok());
  EXPECT_EQ(oid, 1u);
  auto new_hits = index->Search(ClassifierProbe::Equal("Disease", 5),
                                Snapshot::Latest());
  ASSERT_TRUE(new_hits.ok());
  EXPECT_TRUE(new_hits->empty());
  ASSERT_TRUE(txns.Commit(reader->id()).ok());
}

}  // namespace
}  // namespace insight
