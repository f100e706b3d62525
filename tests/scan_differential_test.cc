// Scan differential test: every propagating access path attaches its
// summary sets a batch at a time (SummaryManager::AttachSummaries) — the
// bare scans through an AttachSummariesOp above them, the Summary-BTree
// and Baseline index scans inside themselves. Each path runs with and
// without propagation at several MVCC snapshots and
// batch capacities; the rows must match each other, and every attached
// summary set must equal both the per-row GetSummaries reference and a
// brute-force heap scan of the storage table at the same snapshot.
//
// The state covers an older snapshot, another transaction's uncommitted
// versions, a rolled-back first ANNOTATE, a deleted tuple and a storage
// slot reused after vacuum.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/parallel_ops.h"
#include "engine_test_util.h"
#include "txn/transaction_manager.h"

namespace insight {
namespace {

constexpr int kBirds = 400;

std::string SummaryBytes(const SummarySet& set) {
  std::string bytes;
  set.Serialize(&bytes);
  return bytes;
}

std::string LongText(const std::string& words) {
  std::string text;
  while (text.size() <= 85) text += words;
  return text;
}

class ScanDifferentialState {
 public:
  ScanDifferentialState() : db(kBirds) {
    EXPECT_TRUE(db.birds->CreateColumnIndex("family").ok());
    // Indexes first, so incremental maintenance tracks every write below.
    db.ClassIndex();
    db.BaselineIndex();
    db.KeywordIndex();
    SummaryBTree::Options conv;
    conv.pointer_mode = SummaryBTree::PointerMode::kConventional;
    conventional = *SummaryBTree::Create(&db.storage, &db.pool, db.mgr.get(),
                                         "ClassBird1", conv);

    // Committed history (no transaction: visible to every snapshot).
    // Every third tuple stays un-annotated.
    for (Oid oid = 1; oid <= static_cast<Oid>(kBirds); ++oid) {
      if (oid % 3 == 0) continue;
      db.Annotate(oid, oid % 2 == 0 ? "disease" : "behavior",
                  1 + static_cast<int>(oid % 4));
      if (oid % 5 == 1) {
        Add(oid, LongText("an osprey dived for a trout. "));
      }
    }

    // A storage slot reused after vacuum: delete the tuple whose storage
    // row was written last (so it sits on the heap's fill page), let GC
    // reclaim that row, then give a never-annotated tuple its first
    // summary set, which takes the dead slot.
    const RowLocation victim_slot =
        (*db.mgr->storage_table()->GetVersions(kVictim))[0].loc;
    Commit([&] {
      EXPECT_TRUE(db.mgr->OnTupleDeleted(kVictim).ok());
      EXPECT_TRUE(db.birds->Delete(kVictim).ok());
    });
    EXPECT_TRUE(db.mgr->storage_table()->GetVersions(kVictim)->empty());
    Commit([&] { Add(kReuser, "diseaseword note reuse"); });
    const auto reuser = *db.mgr->storage_table()->GetVersions(kReuser);
    EXPECT_EQ(reuser.size(), 1u);
    slot_reused = !reuser.empty() && reuser[0].loc == victim_slot;

    // The older snapshot predates everything below.
    old_reader = *txns.Begin();

    // Committed after it: new versions of annotated tuples, a first
    // ANNOTATE and a deleted tuple.
    Commit([&] {
      for (Oid oid : {1, 2, 4, 5}) Add(oid, "behaviorword note later");
      Add(kFirstLater, LongText("the osprey nest held a trout. "));
      EXPECT_TRUE(db.mgr->OnTupleDeleted(kDeleted).ok());
      EXPECT_TRUE(db.birds->Delete(kDeleted).ok());
    });

    // A rolled-back first ANNOTATE (and a rolled-back update).
    Transaction* doomed = *txns.Begin();
    {
      TxnScope scope(doomed);
      Add(kRolledBack, LongText("an osprey rolled back. "));
      Add(7, "diseaseword rolled back");
    }
    EXPECT_TRUE(txns.Abort(doomed->id()).ok());

    // Another transaction's uncommitted versions, left open.
    open_writer = *txns.Begin();
    {
      TxnScope scope(open_writer);
      Add(8, "diseaseword uncommitted");
      Add(kUncommittedFirst, LongText("an osprey not yet committed. "));
    }
  }

  ~ScanDifferentialState() {
    txns.Abort(open_writer->id()).ok();
    txns.Commit(old_reader->id()).ok();
  }

  // The storage rows visible to `snap`, read by a heap scan (no OID
  // index), as re-serialized summary sets.
  std::map<Oid, std::string> StoredAt(const Snapshot& snap) {
    std::map<Oid, std::string> out;
    auto it = db.mgr->storage_table()->Scan(snap);
    Oid oid = kInvalidOid;
    Tuple row;
    while (it.Next(&oid, &row)) {
      out[oid] = SummaryBytes(*SummarySet::Deserialize(row.at(0).AsString()));
    }
    return out;
  }

  static constexpr Oid kVictim = kBirds;  // Last storage row written.
  static constexpr Oid kReuser = 12;
  static constexpr Oid kDeleted = 14;
  static constexpr Oid kFirstLater = 15;
  static constexpr Oid kRolledBack = 18;
  static constexpr Oid kUncommittedFirst = 21;

  TestDb db;
  std::unique_ptr<SummaryBTree> conventional;
  TransactionManager txns;
  Transaction* old_reader = nullptr;
  Transaction* open_writer = nullptr;
  bool slot_reused = false;

 private:
  void Add(Oid oid, const std::string& text) {
    EXPECT_TRUE(db.mgr->AddAnnotation(text, {{oid, CellMask(0)}}).ok());
  }
  void Commit(const std::function<void()>& writes) {
    Transaction* txn = *txns.Begin();
    {
      TxnScope scope(txn);
      writes();
    }
    EXPECT_TRUE(txns.Commit(txn->id()).ok());
  }
};

struct PathCase {
  const char* name;
  // Builds the access path; `propagate` toggles summary attachment.
  std::function<OpPtr(ScanDifferentialState&, bool propagate)> build;
  bool ordered = true;  // False when row order is nondeterministic.
  // Summary-index paths emit rows in ascending Disease count (the
  // interesting order Rules 3-6 rely on), which batching must keep.
  bool disease_ordered = false;
};

void PrintTo(const PathCase& c, std::ostream* os) { *os << c.name; }

// A bare access path, under an AttachSummariesOp when propagating.
OpPtr Attached(ScanDifferentialState& s, bool propagate, OpPtr scan) {
  if (!propagate) return scan;
  return std::make_unique<AttachSummariesOp>(std::move(scan), s.db.mgr.get());
}

// Each partition attaches its own batches, as in optimizer plans.
OpPtr Parallel(ScanDifferentialState& s, bool propagate, size_t workers) {
  auto morsels = std::make_shared<MorselSource>(s.db.birds->heap_pages(), 1);
  std::vector<OpPtr> partitions;
  for (size_t w = 0; w < workers; ++w) {
    partitions.push_back(std::make_unique<ExchangeOp>(
        Attached(s, propagate,
                 std::make_unique<ParallelScanOp>(s.db.birds, morsels)),
        w));
  }
  return std::make_unique<GatherOp>(std::move(partitions), morsels);
}

ClassifierProbe AllDisease() {
  ClassifierProbe probe;
  probe.label = "Disease";
  return probe;
}

const PathCase kPaths[] = {
    {"SeqScan",
     [](ScanDifferentialState& s, bool p) -> OpPtr {
       return Attached(s, p, std::make_unique<SeqScanOp>(s.db.birds));
     }},
    {"ParallelScan2",
     [](ScanDifferentialState& s, bool p) { return Parallel(s, p, 2); },
     false},
    {"ParallelScan3",
     [](ScanDifferentialState& s, bool p) { return Parallel(s, p, 3); },
     false},
    {"IndexScan",
     [](ScanDifferentialState& s, bool p) -> OpPtr {
       return Attached(s, p,
                       std::make_unique<IndexScanOp>(
                           s.db.birds, "family", Value::String("family0"),
                           true, Value::String("family9"), true));
     }},
    {"SummaryIndexScanBackward",
     [](ScanDifferentialState& s, bool p) -> OpPtr {
       return std::make_unique<SummaryIndexScanOp>(
           s.db.ClassIndex(), AllDisease(), s.db.mgr.get(), p);
     },
     true, true},
    {"SummaryIndexScanConventional",
     [](ScanDifferentialState& s, bool p) -> OpPtr {
       return std::make_unique<SummaryIndexScanOp>(
           s.conventional.get(), AllDisease(), s.db.mgr.get(), p);
     },
     true, true},
    {"BaselineIndexScanDenormalized",
     [](ScanDifferentialState& s, bool p) -> OpPtr {
       return std::make_unique<BaselineIndexScanOp>(
           s.db.BaselineIndex(), AllDisease(), s.db.mgr.get(), p,
           /*reconstruct_summaries=*/false);
     },
     true, true},
    {"KeywordIndexScan",
     [](ScanDifferentialState& s, bool p) -> OpPtr {
       return Attached(s, p,
                       std::make_unique<KeywordIndexScanOp>(
                           s.db.birds, s.db.KeywordIndex(),
                           std::vector<std::string>{"osprey"}));
     }},
};

std::string RowKey(const Row& row) {
  return std::to_string(row.oid) + "|" + row.data.ToString();
}

class ScanDifferentialTest : public ::testing::TestWithParam<PathCase> {
 protected:
  Result<std::vector<Row>> Run(bool propagate, const Snapshot& snap,
                               size_t capacity) {
    OpPtr op = GetParam().build(state_, propagate);
    ExecutionContext ctx(&state_.db.storage, &state_.db.pool, capacity);
    ctx.set_snapshot(snap);
    op->AttachContext(&ctx);
    auto rows = CollectRows(op.get());
    if (rows.ok() && !GetParam().ordered) {
      std::sort(rows->begin(), rows->end(), [](const Row& a, const Row& b) {
        return a.oid < b.oid;
      });
    }
    return rows;
  }

  // Runs the path at `snap` and returns how many rows carried a
  // non-empty summary set.
  size_t ExpectMatchesReference(const Snapshot& snap, const char* label) {
    const std::map<Oid, std::string> stored = state_.StoredAt(snap);
    const std::string empty = SummaryBytes(SummarySet());
    size_t annotated = 0;
    for (size_t capacity : {size_t{1}, size_t{7}, RowBatch::kDefaultCapacity}) {
      SCOPED_TRACE(std::string(label) + " capacity " +
                   std::to_string(capacity));
      auto bare = Run(false, snap, capacity);
      auto propagated = Run(true, snap, capacity);
      EXPECT_TRUE(bare.ok()) << bare.status().ToString();
      EXPECT_TRUE(propagated.ok()) << propagated.status().ToString();
      if (!bare.ok() || !propagated.ok()) return annotated;
      EXPECT_FALSE(bare->empty());
      EXPECT_EQ(propagated->size(), bare->size());
      if (propagated->size() != bare->size()) return annotated;
      annotated = 0;
      for (size_t i = 0; i < bare->size(); ++i) {
        const Row& row = (*propagated)[i];
        EXPECT_EQ(RowKey(row), RowKey((*bare)[i]));
        EXPECT_TRUE((*bare)[i].summaries.empty());
        auto it = stored.find(row.oid);
        const std::string& want = it == stored.end() ? empty : it->second;
        EXPECT_EQ(SummaryBytes(row.summaries), want) << "oid " << row.oid;
        auto one = state_.db.mgr->GetSummaries(row.oid, snap);
        EXPECT_TRUE(one.ok());
        if (one.ok()) {
          EXPECT_EQ(SummaryBytes(*one), want) << "oid " << row.oid;
        }
        if (!row.summaries.empty()) ++annotated;
      }
      if (GetParam().disease_ordered) {
        const auto disease = LabelValue("ClassBird1", "Disease");
        for (size_t i = 1; i < propagated->size(); ++i) {
          EXPECT_LE(disease->Eval((*propagated)[i - 1])
                        ->Compare(*disease->Eval((*propagated)[i])),
                    0)
              << "position " << i;
        }
      }
    }
    return annotated;
  }

  ScanDifferentialState state_;
};

TEST_P(ScanDifferentialTest, MatchesPerRowReference) {
  EXPECT_TRUE(state_.slot_reused)
      << "the reused-slot case did not land on the vacuumed slot";
  ASSERT_GE(state_.db.birds->heap_pages(), 2u);

  EXPECT_GT(ExpectMatchesReference(Snapshot::Latest(), "latest"), 0u);
  EXPECT_GT(ExpectMatchesReference(state_.old_reader->snapshot(), "older"),
            0u);
  EXPECT_GT(
      ExpectMatchesReference(state_.open_writer->snapshot(), "uncommitted"),
      0u);
  Transaction* fresh = *state_.txns.Begin();
  EXPECT_GT(ExpectMatchesReference(fresh->snapshot(), "fresh"), 0u);
  ASSERT_TRUE(state_.txns.Commit(fresh->id()).ok());
}

INSTANTIATE_TEST_SUITE_P(Paths, ScanDifferentialTest,
                         ::testing::ValuesIn(kPaths),
                         [](const ::testing::TestParamInfo<PathCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace insight
