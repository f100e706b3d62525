// Top-k over summaries. `ORDER BY label [DESC] LIMIT k` over a bare scan
// reads the Summary-BTree in label order, either direction, and fetches
// only k hits when the statistics prove every tuple carries the
// instance's object; otherwise it sorts, and the sort under a limit keeps
// a bounded k-row heap. Both must return what the unbounded stable sort
// returns first.
//
//  1. TopKSortTest: SortOp with a limit against the same SortOp without
//     one, in memory and external mode, over ties and NULLs.
//  2. TopKDifferentialTest: ASC/DESC x LIMIT {none, 1, inside a tie
//     group, more than the row count}, on backward and conventional
//     pointers, a complete and an incomplete instance, at the latest, an
//     older and an open writer's snapshot, against the same statement
//     planned with use_summary_indexes=false.
//  3. TopKPlanTest: the plans and their EXPLAIN ANALYZE estimates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/parallel_ops.h"
#include "engine_test_util.h"
#include "optimizer/optimizer.h"
#include "txn/transaction_manager.h"

namespace insight {
namespace {

std::vector<std::string> Repr(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    std::string bytes;
    row.summaries.Serialize(&bytes);
    out.push_back(std::to_string(row.oid) + "|" + row.data.ToString() + "|" +
                  bytes);
  }
  return out;
}

// ---------- 1. SortOp with and without a limit ----------

TEST(TopKSortTest, LimitReturnsTheFirstRowsOfTheUnboundedSort) {
  const Schema schema({{"k", ValueType::kInt64}, {"j", ValueType::kInt64}});
  std::vector<Row> input;
  for (int64_t i = 0; i < 40; ++i) {
    Row row;
    row.oid = static_cast<Oid>(i + 1);
    // Keys 0..4 with NULLs: long tie groups that straddle every limit.
    row.data = Tuple({i % 7 == 3 ? Value::Null() : Value::Int((i * 3) % 5),
                      Value::Int(i % 2)});
    input.push_back(std::move(row));
  }
  auto keys = [](bool desc, bool two_keys) {
    std::vector<SortKey> out;
    out.push_back(SortKey{Col("k"), desc});
    if (two_keys) out.push_back(SortKey{Col("j"), !desc});
    return out;
  };
  StorageManager storage(StorageManager::Backend::kMemory);
  BufferPool pool(&storage, 64);
  for (bool desc : {false, true}) {
    for (bool two_keys : {false, true}) {
      SortOp full(std::make_unique<VectorSourceOp>(schema, input),
                  keys(desc, two_keys), SortOp::Mode::kMemory);
      auto expected = CollectRows(&full);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ASSERT_EQ(expected->size(), input.size());
      for (SortOp::Mode mode :
           {SortOp::Mode::kMemory, SortOp::Mode::kExternal}) {
        for (uint64_t limit : {1, 2, 5, 8, 13, 39, 40, 100}) {
          SCOPED_TRACE(std::string(desc ? "DESC" : "ASC") +
                       (two_keys ? ", two keys" : ", one key") +
                       (mode == SortOp::Mode::kMemory ? ", memory"
                                                      : ", external") +
                       ", limit " + std::to_string(limit));
          // A tiny budget spills a run every couple of rows, so ties meet
          // again in the merge.
          SortOp sort(std::make_unique<VectorSourceOp>(schema, input),
                      keys(desc, two_keys), mode, &storage, &pool,
                      /*memory_budget_bytes=*/40);
          sort.set_limit(limit);
          auto rows = CollectRows(&sort);
          ASSERT_TRUE(rows.ok()) << rows.status().ToString();
          const size_t n = std::min<size_t>(limit, expected->size());
          std::vector<Row> prefix(expected->begin(),
                                  expected->begin() + static_cast<long>(n));
          EXPECT_EQ(Repr(*rows), Repr(prefix));
          EXPECT_EQ(sort.stats().rows, n);
          // One row fits the budget; two or more spill.
          if (mode == SortOp::Mode::kExternal && limit > 1) {
            EXPECT_GT(sort.runs_spilled(), 0u);
          }
        }
      }
    }
  }
}

// Re-running a limited sort (Open again) returns the same rows.
TEST(TopKSortTest, ReopenedLimitedSortRepeatsItself) {
  TestDb db(30);
  for (int i = 1; i <= 30; ++i) {
    db.Annotate(static_cast<Oid>(i), "disease", i % 3);
  }
  std::vector<SortKey> keys;
  keys.push_back(SortKey{LabelValue("ClassBird1", "Disease"), true});
  SortOp sort(db.Scan(true), std::move(keys), SortOp::Mode::kMemory);
  sort.set_limit(4);
  auto first = CollectRows(&sort);
  auto second = CollectRows(&sort);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->size(), 4u);
  EXPECT_EQ(Repr(*first), Repr(*second));
}

// ---------- 2. Index top-k against the sort ----------

constexpr int kBirds = 60;

// The Birds state, with every tuple annotated (`complete`) or every
// fourth left bare: committed history, an older reader, later commits
// that move counts and delete a tuple, a rolled-back transaction and an
// open writer's uncommitted annotations.
class TopKState {
 public:
  explicit TopKState(bool complete) : db(kBirds) {
    db.ClassIndex();  // Indexes first, so maintenance tracks every write.
    SummaryBTree::Options conv;
    conv.pointer_mode = SummaryBTree::PointerMode::kConventional;
    conventional = *SummaryBTree::Create(&db.storage, &db.pool, db.mgr.get(),
                                         "ClassBird1", conv);
    for (Oid oid = 1; oid <= static_cast<Oid>(kBirds); ++oid) {
      if (!complete && oid % 4 == 0) continue;
      // Disease counts 0..3: long tie groups. The behavior note makes a
      // Disease count of 0 an indexed object too.
      db.Annotate(oid, "behavior", 1);
      db.Annotate(oid, "disease", static_cast<int>(oid % 4));
    }
    old_reader = *txns.Begin();

    Commit([&] {
      for (Oid oid : {2, 5, 9, 13, 21}) db.Annotate(oid, "disease", 2);
      EXPECT_TRUE(db.mgr->OnTupleDeleted(kDeleted).ok());
      EXPECT_TRUE(db.birds->Delete(kDeleted).ok());
    });

    Transaction* doomed = *txns.Begin();
    {
      TxnScope scope(doomed);
      db.Annotate(6, "disease", 5);
    }
    EXPECT_TRUE(txns.Abort(doomed->id()).ok());

    open_writer = *txns.Begin();
    {
      TxnScope scope(open_writer);
      db.Annotate(10, "disease", 4);
      db.Annotate(17, "disease", 1);
    }

    for (auto* ctx : {&backward_ctx, &conventional_ctx}) {
      *ctx = std::make_unique<QueryContext>(&db.catalog, &db.storage,
                                            &db.pool);
      EXPECT_TRUE((*ctx)->RegisterRelation(db.birds, db.mgr.get()).ok());
      EXPECT_TRUE((*ctx)->Analyze("Birds").ok());
    }
    EXPECT_TRUE(backward_ctx
                    ->RegisterSummaryIndex("Birds", "ClassBird1",
                                           db.ClassIndex())
                    .ok());
    EXPECT_TRUE(conventional_ctx
                    ->RegisterSummaryIndex("Birds", "ClassBird1",
                                           conventional.get())
                    .ok());
  }

  ~TopKState() {
    txns.Abort(open_writer->id()).ok();
    txns.Commit(old_reader->id()).ok();
  }

  static constexpr Oid kDeleted = 7;

  TestDb db;
  std::unique_ptr<SummaryBTree> conventional;
  TransactionManager txns;
  Transaction* old_reader = nullptr;
  Transaction* open_writer = nullptr;
  std::unique_ptr<QueryContext> backward_ctx;
  std::unique_ptr<QueryContext> conventional_ctx;

 private:
  void Commit(const std::function<void()>& writes) {
    Transaction* txn = *txns.Begin();
    {
      TxnScope scope(txn);
      writes();
    }
    EXPECT_TRUE(txns.Commit(txn->id()).ok());
  }
};

struct TopKCase {
  const char* name;
  bool conventional;
  bool complete;
};

void PrintTo(const TopKCase& c, std::ostream* os) { *os << c.name; }

// One run's output: each row's sort key and its rendering, in order.
struct Ranked {
  std::vector<std::string> keys;
  std::vector<std::string> rows;
  std::string plan;
};

class TopKDifferentialTest : public ::testing::TestWithParam<TopKCase> {
 protected:
  TopKDifferentialTest() : state_(GetParam().complete) {}

  QueryContext* ctx() {
    return GetParam().conventional ? state_.conventional_ctx.get()
                                   : state_.backward_ctx.get();
  }

  // ORDER BY Disease [DESC] [LIMIT limit] (0 = no limit).
  Ranked Run(const OptimizerOptions& options, bool desc, uint64_t limit) {
    std::vector<SortKey> keys;
    keys.push_back(SortKey{LabelValue("ClassBird1", "Disease"), desc});
    LogicalPtr plan = LSort(LScan("Birds"), std::move(keys));
    if (limit > 0) plan = LLimit(std::move(plan), limit);
    Optimizer optimizer(ctx(), options);
    auto op = optimizer.Optimize(std::move(plan));
    EXPECT_TRUE(op.ok()) << op.status().ToString();
    Ranked out;
    if (!op.ok()) return out;
    auto rows = CollectRows(op->get());
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    out.plan = (*op)->ExplainTree();
    if (!rows.ok()) return out;
    auto key = LabelValue("ClassBird1", "Disease");
    for (const Row& row : *rows) {
      auto v = key->Eval(row);
      EXPECT_TRUE(v.ok()) << v.status().ToString();
      out.keys.push_back(v.ok() ? v->ToString() : "?");
    }
    out.rows = Repr(*rows);
    return out;
  }

  // `got` holds the first rows of `full` up to ties: the same key
  // sequence, every complete tie group as the same multiset, and the
  // boundary group as a sub-multiset of the full group.
  static void ExpectPrefixUpToTies(const Ranked& got, const Ranked& full) {
    ASSERT_LE(got.keys.size(), full.keys.size());
    ASSERT_TRUE(std::equal(got.keys.begin(), got.keys.end(),
                           full.keys.begin()))
        << "key sequence differs";
    auto group = [](const Ranked& r, const std::string& key) {
      std::multiset<std::string> out;
      for (size_t i = 0; i < r.keys.size(); ++i) {
        if (r.keys[i] == key) out.insert(r.rows[i]);
      }
      return out;
    };
    for (size_t i = 0; i < got.keys.size(); ++i) {
      if (i > 0 && got.keys[i] == got.keys[i - 1]) continue;
      const auto mine = group(got, got.keys[i]);
      const auto theirs = group(full, got.keys[i]);
      if (mine.size() == theirs.size()) {
        EXPECT_EQ(mine, theirs) << "tie group " << got.keys[i];
      } else {
        // Only the last group may be cut by the limit.
        EXPECT_EQ(got.keys.back(), got.keys[i]);
        EXPECT_TRUE(std::includes(theirs.begin(), theirs.end(),
                                  mine.begin(), mine.end()))
            << "boundary group " << got.keys[i];
      }
    }
  }

  void ExpectSameAtSnapshot(const Snapshot& snap, const char* label) {
    SCOPED_TRACE(label);
    ctx()->exec_context()->set_snapshot(snap);
    OptimizerOptions indexed;
    OptimizerOptions sorted;
    sorted.use_summary_indexes = false;
    OptimizerOptions spilled = sorted;
    spilled.sort_mode = SortOp::Mode::kExternal;
    spilled.sort_memory_budget = 512;

    for (bool desc : {false, true}) {
      const Ranked full = Run(sorted, desc, 0);
      ASSERT_FALSE(full.keys.empty());
      // A limit that ends inside a tie group: one past the start of the
      // first group of three or more.
      uint64_t inside = 0;
      for (size_t i = 0; i + 2 < full.keys.size(); ++i) {
        if (full.keys[i] == full.keys[i + 2] &&
            (i == 0 || full.keys[i - 1] != full.keys[i])) {
          inside = i + 2;
          break;
        }
      }
      ASSERT_GT(inside, 0u);
      for (uint64_t limit :
           {uint64_t{0}, uint64_t{1}, inside,
            static_cast<uint64_t>(full.keys.size() + 10)}) {
        SCOPED_TRACE(std::string(desc ? "DESC" : "ASC") + " LIMIT " +
                     std::to_string(limit));
        const Ranked by_index = Run(indexed, desc, limit);
        const Ranked by_sort = Run(sorted, desc, limit);
        const Ranked by_spill = Run(spilled, desc, limit);
        const size_t expected =
            limit == 0 ? full.keys.size()
                       : std::min<size_t>(limit, full.keys.size());
        EXPECT_EQ(by_index.keys.size(), expected) << by_index.plan;
        EXPECT_EQ(by_index.keys, by_sort.keys) << by_index.plan;
        ExpectPrefixUpToTies(by_index, full);
        // The bounded sort is the unbounded stable sort's prefix, in
        // either sort mode.
        EXPECT_EQ(by_sort.rows,
                  std::vector<std::string>(
                      full.rows.begin(),
                      full.rows.begin() + static_cast<long>(expected)));
        EXPECT_EQ(by_spill.rows, by_sort.rows);

        EXPECT_NE(by_sort.plan.find("SummarySort[O]"), std::string::npos);
        if (GetParam().complete) {
          EXPECT_EQ(by_index.plan.find("SummarySort"), std::string::npos)
              << by_index.plan;
          EXPECT_NE(by_index.plan.find(desc ? "SummaryIndexScan(Disease DESC"
                                            : "SummaryIndexScan(Disease,"),
                    std::string::npos)
              << by_index.plan;
        } else {
          // Missing objects would drop rows from an index scan.
          EXPECT_NE(by_index.plan.find("SummarySort[O]"), std::string::npos)
              << by_index.plan;
        }
      }
    }
  }

  TopKState state_;
};

TEST_P(TopKDifferentialTest, IndexTopKMatchesSortTopK) {
  ExpectSameAtSnapshot(Snapshot::Latest(), "latest");
  ExpectSameAtSnapshot(state_.old_reader->snapshot(), "older snapshot");
  ExpectSameAtSnapshot(state_.open_writer->snapshot(),
                       "uncommitted writer's snapshot");
}

INSTANTIATE_TEST_SUITE_P(
    Instances, TopKDifferentialTest,
    ::testing::Values(TopKCase{"BackwardComplete", false, true},
                      TopKCase{"ConventionalComplete", true, true},
                      TopKCase{"BackwardIncomplete", false, false},
                      TopKCase{"ConventionalIncomplete", true, false}),
    [](const ::testing::TestParamInfo<TopKCase>& info) {
      return std::string(info.param.name);
    });

// ---------- 3. Plans and estimates ----------

class TopKPlanTest : public ::testing::Test {
 protected:
  TopKPlanTest() : db(300) {
    for (Oid oid = 1; oid <= 300; ++oid) {
      db.Annotate(oid, "behavior", 1);
      db.Annotate(oid, "disease", static_cast<int>(oid % 9));
    }
    ctx = std::make_unique<QueryContext>(&db.catalog, &db.storage, &db.pool);
    EXPECT_TRUE(ctx->RegisterRelation(db.birds, db.mgr.get()).ok());
    EXPECT_TRUE(
        ctx->RegisterSummaryIndex("Birds", "ClassBird1", db.ClassIndex())
            .ok());
    EXPECT_TRUE(ctx->Analyze("Birds").ok());
  }

  // Runs `plan` and returns its EXPLAIN ANALYZE rendering, after checking
  // that it returns `rows` rows and every line's q-error is at most 2.
  std::string Analyze(LogicalPtr plan, const OptimizerOptions& options,
                      size_t rows) {
    Optimizer optimizer(ctx.get(), options);
    auto op = optimizer.Optimize(std::move(plan));
    EXPECT_TRUE(op.ok()) << op.status().ToString();
    if (!op.ok()) return "";
    auto out = CollectRows(op->get());
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    const std::string tree = (*op)->ExplainAnalyzeTree();
    EXPECT_EQ(out.ok() ? out->size() : 0, rows) << tree;
    size_t lines = 0;
    for (size_t pos = tree.find("q-err="); pos != std::string::npos;
         pos = tree.find("q-err=", pos + 1)) {
      ++lines;
      EXPECT_LE(std::strtod(tree.c_str() + pos + 6, nullptr), 2.0) << tree;
    }
    EXPECT_GT(lines, 0u) << tree;
    return tree;
  }

  static LogicalPtr TopK(bool desc, uint64_t k) {
    std::vector<SortKey> keys;
    keys.push_back(SortKey{LabelValue("ClassBird1", "Disease"), desc});
    return LLimit(LSort(LScan("Birds"), std::move(keys)), k);
  }

  TestDb db;
  std::unique_ptr<QueryContext> ctx;
};

TEST_F(TopKPlanTest, DescendingTopKReadsKIndexHits) {
  const std::string tree = Analyze(TopK(true, 50), {}, 50);
  EXPECT_NE(tree.find("Limit(50)"), std::string::npos) << tree;
  EXPECT_NE(tree.find("SummaryIndexScan(Disease DESC, backward-ptrs)  "
                      "(rows=50 "),
            std::string::npos)
      << tree;
  EXPECT_EQ(tree.find("SummarySort"), std::string::npos) << tree;
  // Ascending takes the same path.
  const std::string asc = Analyze(TopK(false, 50), {}, 50);
  EXPECT_NE(asc.find("SummaryIndexScan(Disease, backward-ptrs)  (rows=50 "),
            std::string::npos)
      << asc;
}

TEST_F(TopKPlanTest, SortUnderALimitEmitsKRows) {
  for (SortOp::Mode mode : {SortOp::Mode::kMemory, SortOp::Mode::kExternal}) {
    OptimizerOptions options;
    options.use_summary_indexes = false;
    options.sort_mode = mode;
    options.sort_memory_budget = 1024;
    const std::string tree = Analyze(TopK(true, 50), options, 50);
    // The sort holds and emits k rows, not a whole input batch.
    const size_t sort = tree.find("SummarySort[O](");
    ASSERT_NE(sort, std::string::npos) << tree;
    EXPECT_NE(tree.find("(rows=50 ", sort), std::string::npos) << tree;
    EXPECT_LT(tree.find("(rows=50 ", sort), tree.find('\n', sort)) << tree;
  }
}

TEST_F(TopKPlanTest, ParallelGatherUnderALimitEmitsKRows) {
  ctx->exec_context()->set_parallelism(2);
  OptimizerOptions options;
  options.parallel_row_threshold = 0;
  options.morsel_pages = 1;
  const std::string tree = Analyze(LLimit(LScan("Birds"), 10), options, 10);
  ctx->exec_context()->set_parallelism(1);
  EXPECT_NE(tree.find("Gather("), std::string::npos) << tree;
}

}  // namespace
}  // namespace insight
