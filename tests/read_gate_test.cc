// A read never waits for a writer: SELECT, EXPLAIN and EXPLAIN ANALYZE
// plan from the live label statistics under their own shared lock and
// read at a snapshot, so none of them takes the transaction manager's
// write gate. The stress test races label reads against a writer that
// annotates and a thread that runs ANALYZE; CI runs it under tsan.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sql/database.h"

namespace insight {
namespace {

constexpr int kItems = 40;

const char kLabelSelect[] =
    "SELECT name FROM Items WHERE "
    "$.getSummaryObject('C').getLabelValue('Disease') >= 1";

void SetUpItems(Database* db) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE Items (name TEXT, family TEXT)").ok());
  ASSERT_TRUE(db->DefineClassifier("C", {"Disease", "Other"},
                                   {{"diseaseword infection", "Disease"},
                                    {"otherword note", "Other"}})
                  .ok());
  ASSERT_TRUE(db->Execute("ALTER TABLE Items ADD INDEXABLE C").ok());
  for (int i = 0; i < kItems; ++i) {
    ASSERT_TRUE(db->Execute("INSERT INTO Items VALUES ('item" +
                            std::to_string(i) + "', 'f" +
                            std::to_string(i % 3) + "')")
                    .ok());
  }
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(db->Execute("ANNOTATE Items TUPLE " + std::to_string(i) +
                            " WITH 'diseaseword infection'")
                    .ok());
  }
  ASSERT_TRUE(db->Execute("ANALYZE Items").ok());
}

TEST(ReadGateTest, ReadsCompleteWhileWriteGateHeld) {
  Database db;
  SetUpItems(&db);
  std::promise<void> held;
  std::promise<void> release;
  std::thread holder([&] {
    std::lock_guard<std::recursive_mutex> gate(db.txn_manager()->write_mu());
    held.set_value();
    release.get_future().wait();
  });
  held.get_future().wait();
  // The reads run on their own thread, so a read blocked on the gate
  // fails the wait below instead of hanging the test.
  std::future<std::string> reads = std::async(std::launch::async, [&] {
    uint64_t txn = 0;
    auto rows = db.Execute(kLabelSelect, &txn);
    if (!rows.ok()) return "SELECT: " + rows.status().ToString();
    if (rows->rows.size() != 4) return std::string("SELECT: wrong rows");
    auto explained =
        db.Execute(std::string("EXPLAIN ") + kLabelSelect, &txn);
    if (!explained.ok()) return "EXPLAIN: " + explained.status().ToString();
    auto plan = db.Explain(kLabelSelect);
    if (!plan.ok()) return "Explain: " + plan.status().ToString();
    auto analyzed = db.ExplainAnalyze(kLabelSelect);
    if (!analyzed.ok()) {
      return "ExplainAnalyze: " + analyzed.status().ToString();
    }
    return std::string();
  });
  const bool finished = reads.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  release.set_value();
  holder.join();
  EXPECT_TRUE(finished) << "a read waited for the write gate";
  EXPECT_EQ(reads.get(), "");
}

// Readers plan label selects and EXPLAINs from the live statistics while
// one writer annotates (feeding them) and another thread re-ANALYZEs
// (replacing them). Each reader's label-select count never falls, since
// its snapshots only move forward, and the final count and live
// statistics match the annotated tuples. Every thread runs a fixed
// number of statements with pauses between them, so that the three kinds
// overlap and ANALYZE, which waits for the DDL gate's readers to drain,
// gets in meanwhile.
TEST(LiveStatsStressTest, ReadersPlanWhileWriterAnnotatesAndAnalyzeRuns) {
  constexpr int kReaders = 3;
  constexpr int kReads = 80;
  constexpr int kWrites = 150;
  constexpr int kAnalyzes = 20;
  Database db;
  SetUpItems(&db);
  std::set<int> annotated = {1, 2, 3, 4};

  std::thread writer([&] {
    uint64_t txn = 0;
    for (int i = 0; i < kWrites; ++i) {
      const int tuple = 1 + (i * 7) % kItems;
      auto done = db.Execute("ANNOTATE Items TUPLE " + std::to_string(tuple) +
                                 " WITH 'diseaseword infection " +
                                 std::to_string(i) + "'",
                             &txn);
      ASSERT_TRUE(done.ok()) << done.status().ToString();
      annotated.insert(tuple);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  std::thread analyzer([&] {
    uint64_t txn = 0;
    for (int i = 0; i < kAnalyzes; ++i) {
      auto done = db.Execute("ANALYZE Items", &txn);
      ASSERT_TRUE(done.ok()) << done.status().ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t txn = 0;
      size_t last = 0;
      for (int i = 0; i < kReads; ++i) {
        auto rows = db.Execute(kLabelSelect, &txn);
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        EXPECT_GE(rows->rows.size(), last);
        last = rows->rows.size();
        auto plan = i % 2 == 0 ? db.Explain(kLabelSelect)
                               : db.ExplainAnalyze(kLabelSelect);
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        EXPECT_NE(plan->find("Physical plan"), std::string::npos) << *plan;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  writer.join();
  analyzer.join();
  for (std::thread& reader : readers) reader.join();

  auto rows = db.Execute(kLabelSelect);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), annotated.size());
  const RelationInfo* info = *db.context()->Get("Items");
  EXPECT_EQ(info->AnnotatedRows(), annotated.size());
  EXPECT_EQ(info->LabelDistinctEst(SketchPolicy{false}, "C", "Other"), 1u);
}

}  // namespace
}  // namespace insight
