// Summary-first access differential test. A summary predicate the
// optimizer may drive from the summary storage heap (SummaryStorageScan,
// the driving conjuncts in place, then FetchBase of the tuples that pass)
// must return exactly what a brute-force evaluation returns: every base
// tuple visible at the statement's snapshot, its data conjuncts, then its
// summary conjuncts over its own GetSummaries set at that snapshot.
//
// Seeded statements mix containsUnion/containsSingle, getSize comparisons,
// classifier and non-classifier label predicates, object presence, their
// negations and data conjuncts, under seeded draws of the access-path
// switches, at the latest snapshot (another transaction's versions
// uncommitted), an older snapshot and the open writer's own snapshot. The
// state covers un-annotated tuples, a deleted tuple, a rolled-back first
// ANNOTATE and an uncommitted one. Fixed cases pin the plans: predicates
// true on an empty set keep the base-first plan, a keyword predicate
// takes the summary-first one, and a corrupt storage row fails it.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine_test_util.h"
#include "optimizer/optimizer.h"
#include "txn/transaction_manager.h"

namespace insight {
namespace {

constexpr int kBirds = 300;

const char* const kWords[] = {"osprey", "trout", "heron", "marsh", "nest"};

std::string LongText(const std::string& words) {
  std::string text;
  while (text.size() <= 85) text += words;
  return text;
}

class SummaryFirstState {
 public:
  SummaryFirstState() : db(kBirds) {
    EXPECT_TRUE(db.birds->CreateColumnIndex("family").ok());
    EXPECT_TRUE(db.birds->CreateColumnIndex("name").ok());
    db.ClassIndex();
    db.BaselineIndex();
    db.KeywordIndex();

    // Committed history; every third tuple stays un-annotated.
    for (Oid oid = 1; oid <= static_cast<Oid>(kBirds); ++oid) {
      if (oid % 3 == 0) continue;
      db.Annotate(oid, oid % 2 == 0 ? "disease" : "behavior",
                  1 + static_cast<int>(oid % 4));
      if (oid % 4 == 1) {
        Add(oid, LongText(std::string("a ") + kWords[oid % 5] + " by the " +
                          kWords[(oid / 5) % 5] + ". "));
      }
    }
    old_reader = *txns.Begin();

    // Committed after the older snapshot: new versions, a first ANNOTATE
    // and a deleted tuple.
    Commit([&] {
      for (Oid oid : {1, 2, 5, 13}) Add(oid, LongText("the heron and trout. "));
      Add(kFirstLater, LongText("an osprey over the marsh. "));
      EXPECT_TRUE(db.mgr->OnTupleDeleted(kDeleted).ok());
      EXPECT_TRUE(db.birds->Delete(kDeleted).ok());
    });

    // A rolled-back first ANNOTATE.
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
      Add(kUncommittedFirst, LongText("a trout not yet committed. "));
    }

    ctx = std::make_unique<QueryContext>(&db.catalog, &db.storage, &db.pool);
    EXPECT_TRUE(ctx->RegisterRelation(db.birds, db.mgr.get()).ok());
    EXPECT_TRUE(
        ctx->RegisterSummaryIndex("Birds", "ClassBird1", db.ClassIndex()).ok());
    EXPECT_TRUE(ctx->RegisterBaselineIndex("Birds", "ClassBird1",
                                           db.BaselineIndex())
                    .ok());
    EXPECT_TRUE(
        ctx->RegisterKeywordIndex("Birds", "TextSummary1", db.KeywordIndex())
            .ok());
    EXPECT_TRUE(ctx->Analyze("Birds").ok());
  }

  ~SummaryFirstState() {
    txns.Abort(open_writer->id()).ok();
    txns.Commit(old_reader->id()).ok();
  }

  static constexpr Oid kDeleted = 10;
  static constexpr Oid kFirstLater = 12;
  static constexpr Oid kRolledBack = 15;
  static constexpr Oid kUncommittedFirst = 18;

  TestDb db;
  TransactionManager txns;
  Transaction* old_reader = nullptr;
  Transaction* open_writer = nullptr;
  std::unique_ptr<QueryContext> ctx;

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

// ---------- Predicates ----------

ExprPtr Int(int64_t v) { return Lit(Value::Int(v)); }

CompareOp AnyOp(Rng* rng) {
  static constexpr CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                       CompareOp::kLt, CompareOp::kLe,
                                       CompareOp::kGt, CompareOp::kGe};
  return kOps[static_cast<size_t>(rng->Uniform(0, 5))];
}

std::vector<std::string> AnyWords(Rng* rng) {
  std::vector<std::string> words = {kWords[rng->Uniform(0, 4)]};
  if (rng->NextBool(0.6)) words.emplace_back(kWords[rng->Uniform(0, 4)]);
  return words;
}

// One summary atom: keyword functions, set and object sizes, classifier
// labels, a label probe on a snippet or cluster instance (a type error on
// every object it finds), and object presence.
ExprPtr SummaryAtom(Rng* rng) {
  switch (rng->Uniform(0, 7)) {
    case 0:
      return ContainsUnion("TextSummary1", AnyWords(rng));
    case 1:
      return ContainsSingle("TextSummary1", AnyWords(rng));
    case 2:
      return Cmp(std::make_unique<SummaryFuncExpr>(), AnyOp(rng),
                 Int(rng->Uniform(0, 3)));
    case 3:
      return Cmp(std::make_unique<SummaryFuncExpr>(SummaryFuncKind::kObjectSize,
                                                   "SimCluster"),
                 AnyOp(rng), Int(rng->Uniform(0, 3)));
    case 4:
    case 5: {
      static const char* const kLabels[] = {"Disease", "Behavior", "Other"};
      return Cmp(LabelValue("ClassBird1", kLabels[rng->Uniform(0, 2)]),
                 AnyOp(rng), Int(rng->Uniform(0, 4)));
    }
    case 6:
      return Cmp(LabelValue(rng->NextBool(0.5) ? "TextSummary1" : "SimCluster",
                            "Disease"),
                 AnyOp(rng), Int(rng->Uniform(0, 2)));
    default:
      return std::make_unique<SummaryFuncExpr>(SummaryFuncKind::kHasObject,
                                               "TextSummary1");
  }
}

ExprPtr DataAtom(Rng* rng) {
  switch (rng->Uniform(0, 2)) {
    case 0:
      return Cmp(Col("weight"), AnyOp(rng),
                 Lit(Value::Double(1.0 + 0.25 * rng->Uniform(0, kBirds))));
    case 1:
      return Cmp(Col("family"), CompareOp::kEq,
                 Lit(Value::String("family" +
                                   std::to_string(rng->Uniform(0, 3)))));
    default:
      return Cmp(Col("name"), CompareOp::kEq,
                 Lit(Value::String("bird" +
                                   std::to_string(rng->Uniform(0, kBirds)))));
  }
}

struct Statement {
  ExprPtr data;     // Nullable.
  ExprPtr summary;  // Conjunction of summary atoms.

  LogicalPtr Plan() const {
    LogicalPtr scan = LScan("Birds");
    if (data != nullptr) scan = LSelect(std::move(scan), data->Clone());
    return LSummarySelect(std::move(scan), summary->Clone());
  }
  std::string ToString() const {
    return (data != nullptr ? data->ToString() + " AND " : std::string()) +
           summary->ToString();
  }
};

Statement Draw(Rng* rng) {
  Statement st;
  const int atoms = static_cast<int>(rng->Uniform(1, 2));
  for (int i = 0; i < atoms; ++i) {
    ExprPtr atom = SummaryAtom(rng);
    if (rng->NextBool(0.25)) atom = Not(std::move(atom));
    if (rng->NextBool(0.1)) atom = Or(std::move(atom), SummaryAtom(rng));
    st.summary = st.summary == nullptr ? std::move(atom)
                                       : And(std::move(st.summary),
                                             std::move(atom));
  }
  if (rng->NextBool(0.4)) st.data = DataAtom(rng);
  return st;
}

OptimizerOptions DrawOptions(Rng* rng) {
  OptimizerOptions opts;
  opts.use_summary_indexes = rng->NextBool(0.5);
  opts.use_baseline_indexes = rng->NextBool(0.5);
  opts.use_data_indexes = rng->NextBool(0.5);
  opts.enable_rewrite_rules = rng->NextBool(0.5);
  return opts;
}

// Rows as sorted "oid|data|summary bytes" keys (a multiset).
std::vector<std::string> Render(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    std::string bytes;
    row.summaries.Serialize(&bytes);
    out.push_back(std::to_string(row.oid) + "|" + row.data.ToString() + "|" +
                  bytes);
  }
  std::sort(out.begin(), out.end());
  return out;
}

class SummaryFirstDifferentialTest : public ::testing::Test {
 protected:
  // The reference: every base tuple visible at `snap`, its data conjunct,
  // then its summary conjuncts over its own set.
  Result<std::vector<Row>> BruteForce(const Statement& st,
                                      const Snapshot& snap) {
    ExprPtr data = st.data != nullptr ? st.data->Clone() : nullptr;
    ExprPtr summary = st.summary->Clone();
    const Schema& schema = state_.db.birds->schema();
    if (data != nullptr) INSIGHT_RETURN_NOT_OK(data->Resolve(schema));
    INSIGHT_RETURN_NOT_OK(summary->Resolve(schema));
    std::vector<Row> out;
    auto it = state_.db.birds->Scan(snap);
    Row row;
    while (it.Next(&row.oid, &row.data)) {
      if (data != nullptr) {
        INSIGHT_ASSIGN_OR_RETURN(bool pass, data->EvalBool(row));
        if (!pass) continue;
      }
      INSIGHT_ASSIGN_OR_RETURN(row.summaries,
                               state_.db.mgr->GetSummaries(row.oid, snap));
      INSIGHT_ASSIGN_OR_RETURN(bool pass, summary->EvalBool(row));
      if (pass) out.push_back(row);
    }
    return out;
  }

  // Plans and runs `st` at `snap`; returns the plan, and its rows in
  // `*rows` (or the failure).
  std::string Run(const Statement& st, const OptimizerOptions& opts,
                   const Snapshot& snap, Result<std::vector<Row>>* rows) {
    state_.ctx->exec_context()->set_snapshot(snap);
    Optimizer optimizer(state_.ctx.get(), opts);
    Result<OpPtr> plan = optimizer.Optimize(st.Plan());
    if (!plan.ok()) {
      *rows = plan.status();
      return "";
    }
    *rows = CollectRows(plan->get());
    return (*plan)->ExplainTree();
  }

  // Runs `st` against the reference; true when it took the summary-first
  // path.
  bool ExpectMatches(const Statement& st, const OptimizerOptions& opts,
                     const Snapshot& snap, const char* label) {
    SCOPED_TRACE(std::string(label) + ": " + st.ToString());
    Result<std::vector<Row>> rows = std::vector<Row>{};
    const std::string tree = Run(st, opts, snap, &rows);
    Result<std::vector<Row>> want = BruteForce(st, snap);
    if (!want.ok()) {
      EXPECT_FALSE(rows.ok()) << "reference failed with "
                              << want.status().ToString() << "\n"
                              << tree;
    } else {
      EXPECT_TRUE(rows.ok()) << rows.status().ToString() << "\n" << tree;
      if (rows.ok()) {
        EXPECT_EQ(Render(*rows), Render(*want)) << tree;
      }
    }
    return tree.find("SummaryStorageScan(") != std::string::npos;
  }

  std::vector<std::pair<Snapshot, const char*>> Snapshots() const {
    return {{Snapshot::Latest(), "latest"},
            {state_.old_reader->snapshot(), "older snapshot"},
            {state_.open_writer->snapshot(), "open writer's snapshot"}};
  }

  SummaryFirstState state_;
};

TEST_F(SummaryFirstDifferentialTest, SeededStatementsMatchBruteForce) {
  Rng rng(20261020);
  size_t summary_first = 0;
  size_t base_first = 0;
  for (int i = 0; i < 150; ++i) {
    const Statement st = Draw(&rng);
    for (int draw = 0; draw < 3; ++draw) {
      const OptimizerOptions opts = DrawOptions(&rng);
      for (const auto& [snap, label] : Snapshots()) {
        (ExpectMatches(st, opts, snap, label) ? summary_first : base_first)++;
      }
    }
  }
  // Both access paths are exercised.
  std::printf("summary-first %zu, base-first %zu\n", summary_first, base_first);
  EXPECT_GT(summary_first, 100u);
  EXPECT_GT(base_first, 100u);
}

// Predicates true on an empty set, and a label probe that is a type error
// on the objects it finds, keep the base-first plan; the first two return
// un-annotated tuples.
TEST_F(SummaryFirstDifferentialTest, EmptySetTruePredicatesKeepBaseFirst) {
  std::vector<Statement> cases;
  cases.push_back({nullptr, Not(ContainsUnion("TextSummary1", {"osprey"}))});
  cases.push_back(
      {nullptr, Cmp(std::make_unique<SummaryFuncExpr>(), CompareOp::kEq,
                    Int(0))});
  cases.push_back({Cmp(Col("family"), CompareOp::kEq,
                       Lit(Value::String("family1"))),
                   Cmp(LabelValue("SimCluster", "Disease"), CompareOp::kGt,
                       Int(0))});
  for (size_t c = 0; c < cases.size(); ++c) {
    for (const auto& [snap, label] : Snapshots()) {
      EXPECT_FALSE(ExpectMatches(cases[c], OptimizerOptions{}, snap, label));
      if (c == 2) continue;
      Result<std::vector<Row>> rows = std::vector<Row>{};
      Run(cases[c], OptimizerOptions{}, snap, &rows);
      ASSERT_TRUE(rows.ok());
      EXPECT_TRUE(std::any_of(rows->begin(), rows->end(), [](const Row& r) {
        return r.summaries.empty();
      }));
    }
  }
}

// The analytics shape: a keyword predicate with no keyword index reads the
// storage heap, tests each set in place and fetches only the hits.
TEST_F(SummaryFirstDifferentialTest, KeywordPredicatePlansSummaryFirst) {
  OptimizerOptions opts;
  opts.use_summary_indexes = false;  // No keyword index.
  const Statement st{nullptr,
                     ContainsUnion("TextSummary1", {"osprey", "marsh"})};
  for (const auto& [snap, label] : Snapshots()) {
    Result<std::vector<Row>> rows = std::vector<Row>{};
    const std::string tree = Run(st, opts, snap, &rows);
    const size_t fetch = tree.find("FetchBase(Birds, propagate)");
    const size_t select = tree.find("SummarySelect[S]");
    const size_t scan = tree.find("SummaryStorageScan(Birds_SummaryStorage)");
    ASSERT_NE(fetch, std::string::npos) << tree;
    EXPECT_LT(fetch, select) << tree;
    EXPECT_LT(select, scan) << tree;
    EXPECT_EQ(tree.find("AttachSummaries"), std::string::npos) << tree;
    EXPECT_EQ(tree.find("SeqScan"), std::string::npos) << tree;
    EXPECT_TRUE(ExpectMatches(st, opts, snap, label));
    ASSERT_TRUE(rows.ok());
    EXPECT_FALSE(rows->empty());
  }
}

// FromStored's full check runs on every storage row the path reads.
TEST(SummaryFirstCorruptionTest, CorruptStorageRowIsCorruption) {
  TestDb db(200);
  for (Oid oid = 1; oid <= 120; ++oid) {
    db.mgr
        ->AddAnnotation(LongText("an osprey by the marsh. "),
                        {{oid, CellMask(0)}})
        .ValueOrDie();
  }
  QueryContext ctx(&db.catalog, &db.storage, &db.pool);
  ASSERT_TRUE(ctx.RegisterRelation(db.birds, db.mgr.get()).ok());
  ASSERT_TRUE(ctx.Analyze("Birds").ok());
  ASSERT_TRUE(db.mgr->storage_table()
                  ->Update(40, Tuple({Value::String("not a summary set")}))
                  .ok());
  Optimizer optimizer(&ctx, OptimizerOptions{});
  auto plan = optimizer.Optimize(
      LSummarySelect(LScan("Birds"), ContainsUnion("TextSummary1", {"trout"})));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_NE((*plan)->ExplainTree().find("SummaryStorageScan("),
            std::string::npos)
      << (*plan)->ExplainTree();
  auto rows = CollectRows(plan->get());
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kCorruption)
      << rows.status().ToString();
}

}  // namespace
}  // namespace insight
