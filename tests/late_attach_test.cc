// Late-vs-early summary attach differential test. The optimizer lowers a
// propagating access path bare and places one AttachSummariesOp as late as
// the plan allows: above data filters, LIMIT and data-keyed sorts, below
// the first operator that reads or rewrites summary sets. Every plan shape
// here runs twice — once as the optimizer plans it, and once hand-built
// with the attach directly over the access path —
// and the two must return identical row multisets with identical summary
// sets, at the latest snapshot (with another transaction's versions
// uncommitted), an older snapshot and the open writer's own snapshot.
//
// The state covers un-annotated tuples (no storage row), new versions
// committed after the older snapshot, a deleted tuple, a rolled-back first
// ANNOTATE and another transaction's uncommitted first ANNOTATE.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "engine/parallel_ops.h"
#include "engine_test_util.h"
#include "optimizer/optimizer.h"
#include "txn/transaction_manager.h"

namespace insight {
namespace {

constexpr int kBirds = 400;

std::string LongText(const std::string& words) {
  std::string text;
  while (text.size() <= 85) text += words;
  return text;
}

class LateAttachState {
 public:
  LateAttachState() : db(kBirds) {
    // Un-annotated rows whose names and weights alternate around the
    // originals', so zone maps cannot prune their pages for a point probe
    // on `name` (with a weight residual), and the name index pays.
    for (int i = 0; i < kBirds; ++i) {
      const bool low = i % 2 == 0;
      EXPECT_TRUE(db.birds
                      ->Insert(Tuple({Value::String((low ? "a" : "z") +
                                                    std::to_string(i)),
                                      Value::String("family" +
                                                    std::to_string(i % 4)),
                                      Value::Double(low ? 0.001 * i
                                                        : 300.0 + i)}))
                      .ok());
    }
    EXPECT_TRUE(db.birds->CreateColumnIndex("family").ok());
    EXPECT_TRUE(db.birds->CreateColumnIndex("name").ok());
    // Indexes first, so incremental maintenance tracks every write below.
    db.ClassIndex();
    db.KeywordIndex();
    SummaryBTree::Options conv;
    conv.pointer_mode = SummaryBTree::PointerMode::kConventional;
    conventional = *SummaryBTree::Create(&db.storage, &db.pool, db.mgr.get(),
                                         "ClassBird1", conv);

    // Committed history; every third tuple stays un-annotated.
    for (Oid oid = 1; oid <= static_cast<Oid>(kBirds); ++oid) {
      if (oid % 3 == 0) continue;
      db.Annotate(oid, oid % 2 == 0 ? "disease" : "behavior",
                  1 + static_cast<int>(oid % 5));
      if (oid % 5 == 1) Add(oid, LongText("an osprey dived for a trout. "));
      // Some on `family` too, so its projections keep (and merge) sets.
      if (oid % 7 == 0) db.Annotate(oid, "behavior", 2, /*col=*/1);
    }
    old_reader = *txns.Begin();

    // Committed after the older snapshot: new versions, a first ANNOTATE
    // and a deleted tuple.
    Commit([&] {
      for (Oid oid : {1, 2, 4, 5, 40}) Add(oid, "diseaseword note later");
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

    for (auto* ctx : {&backward_ctx, &conventional_ctx}) {
      *ctx = std::make_unique<QueryContext>(&db.catalog, &db.storage,
                                            &db.pool);
      EXPECT_TRUE((*ctx)->RegisterRelation(db.birds, db.mgr.get()).ok());
      EXPECT_TRUE((*ctx)
                      ->RegisterKeywordIndex("Birds", "TextSummary1",
                                             db.KeywordIndex())
                      .ok());
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

  ~LateAttachState() {
    txns.Abort(open_writer->id()).ok();
    txns.Commit(old_reader->id()).ok();
  }

  static constexpr Oid kDeleted = 14;
  static constexpr Oid kFirstLater = 15;
  static constexpr Oid kRolledBack = 18;
  static constexpr Oid kUncommittedFirst = 21;

  TestDb db;
  std::unique_ptr<SummaryBTree> conventional;
  TransactionManager txns;
  Transaction* old_reader = nullptr;
  Transaction* open_writer = nullptr;
  std::unique_ptr<QueryContext> backward_ctx;
  std::unique_ptr<QueryContext> conventional_ctx;

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

// ---------- Expression and operator helpers ----------

ExprPtr Weight(CompareOp op, double w, const std::string& rel = "") {
  return Cmp(Col(rel.empty() ? "weight" : rel + ".weight"), op,
             Lit(Value::Double(w)));
}
ExprPtr Disease(CompareOp op, int64_t v) {
  return Cmp(LabelValue("ClassBird1", "Disease"), op, Lit(Value::Int(v)));
}
ExprPtr SetSize() { return std::make_unique<SummaryFuncExpr>(); }

std::vector<SortKey> Keys(ExprPtr first, bool desc, ExprPtr second = nullptr) {
  std::vector<SortKey> keys;
  keys.push_back(SortKey{std::move(first), desc});
  if (second != nullptr) keys.push_back(SortKey{std::move(second), false});
  return keys;
}

SummaryJoinPredicate DiseaseEquality() {
  SummaryJoinPredicate pred;
  pred.left_expr = LabelValue("ClassBird1", "Disease");
  pred.op = CompareOp::kEq;
  pred.right_expr = LabelValue("ClassBird1", "Disease");
  return pred;
}

// The early arm's access path: a sequential scan with the attach directly
// above it.
OpPtr Scan(LateAttachState& s, const std::string& rel = "") {
  auto scan = std::make_unique<SeqScanOp>(s.db.birds);
  if (!rel.empty()) scan->Qualify(rel);
  return std::make_unique<AttachSummariesOp>(std::move(scan), s.db.mgr.get());
}
OpPtr Select(OpPtr child, ExprPtr pred) {
  return std::make_unique<SelectOp>(std::move(child), std::move(pred));
}
OpPtr SSelect(OpPtr child, ExprPtr pred) {
  return std::make_unique<SummarySelectOp>(std::move(child), std::move(pred));
}
OpPtr Limit(OpPtr child, uint64_t n) {
  return std::make_unique<LimitOp>(std::move(child), n);
}

struct Shape {
  const char* name;
  std::function<LogicalPtr()> logical;
  // The same query with the attach directly over the access path.
  std::function<OpPtr(LateAttachState&, ExecutionContext*)> early;
  // The optimizer's plan must contain `plan_has` and place its attach
  // above the first line containing `attach_above` (both optional).
  const char* plan_has = nullptr;
  const char* attach_above = nullptr;
  OptimizerOptions options = {};
  size_t workers = 1;
  bool conventional = false;  // Plan over the conventional-pointer index.
};

void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.name; }

OptimizerOptions ExternalSort() {
  OptimizerOptions opts;
  opts.sort_mode = SortOp::Mode::kExternal;
  opts.sort_memory_budget = 512;
  return opts;
}
OptimizerOptions NoSummaryIndexes() {
  OptimizerOptions opts;
  opts.use_summary_indexes = false;
  return opts;
}
// The summary-first access path: the fetch right above the storage side's
// in-place summary selection.
constexpr const char* kSummaryFirst =
    "FetchBase(Birds, propagate)\n    SummarySelect[S]";

OptimizerOptions Parallel() {
  OptimizerOptions opts;
  opts.parallel_row_threshold = 0;
  opts.morsel_pages = 1;
  return opts;
}

const Shape kShapes[] = {
    {"DataFilter",
     [] { return LSelect(LScan("Birds"), Weight(CompareOp::kLt, 30)); },
     [](LateAttachState& s, ExecutionContext*) {
       return Select(Scan(s), Weight(CompareOp::kLt, 30));
     },
     "SeqScan(Birds)\n", "Select[\xcf\x83]"},
    {"Limit", [] { return LLimit(LScan("Birds"), 7); },
     [](LateAttachState& s, ExecutionContext*) { return Limit(Scan(s), 7); },
     "SeqScan(Birds)\n", "Limit(7)"},
    {"FilterLimit",
     [] {
       return LLimit(LSelect(LScan("Birds"), Weight(CompareOp::kGt, 20)), 9);
     },
     [](LateAttachState& s, ExecutionContext*) {
       return Limit(Select(Scan(s), Weight(CompareOp::kGt, 20)), 9);
     },
     "SeqScan(Birds)\n", "Limit(9)"},
    {"DataSortLimit",
     [] {
       return LLimit(LSort(LSelect(LScan("Birds"), Weight(CompareOp::kLt, 100)),
                           Keys(Col("weight"), true)),
                     11);
     },
     [](LateAttachState& s, ExecutionContext* exec) {
       return Limit(std::make_unique<SortOp>(
                        exec, Select(Scan(s), Weight(CompareOp::kLt, 100)),
                        Keys(Col("weight"), true), SortOp::Mode::kMemory),
                    11);
     },
     "Sort(weight DESC, memory)", "Limit(11)"},
    {"SpilledDataSortLimit",
     [] {
       return LLimit(LSort(LSelect(LScan("Birds"), Weight(CompareOp::kLt, 100)),
                           Keys(Col("weight"), true)),
                     40);
     },
     [](LateAttachState& s, ExecutionContext* exec) {
       return Limit(std::make_unique<SortOp>(
                        exec, Select(Scan(s), Weight(CompareOp::kLt, 100)),
                        Keys(Col("weight"), true), SortOp::Mode::kExternal,
                        512),
                    40);
     },
     "Sort(weight DESC, external)", "Limit(40)", ExternalSort()},
    {"SummarySelect",
     [] {
       return LSummarySelect(
           LSelect(LScan("Birds"), Weight(CompareOp::kLt, 60)),
           Disease(CompareOp::kGe, 2));
     },
     [](LateAttachState& s, ExecutionContext*) {
       return SSelect(Select(Scan(s), Weight(CompareOp::kLt, 60)),
                      Disease(CompareOp::kGe, 2));
     },
     // Without the index, the label conjunct (false on an empty set)
     // drives from the storage heap; the data conjunct stays above the
     // fetch.
     kSummaryFirst, nullptr, NoSummaryIndexes()},
    {"SummaryNotOr",
     [] {
       return LSummarySelect(
           LScan("Birds"),
           Or(Not(Disease(CompareOp::kGt, 2)),
              Cmp(Col("family"), CompareOp::kEq,
                  Lit(Value::String("family2")))));
     },
     [](LateAttachState& s, ExecutionContext*) {
       return SSelect(Scan(s), Or(Not(Disease(CompareOp::kGt, 2)),
                                  Cmp(Col("family"), CompareOp::kEq,
                                      Lit(Value::String("family2")))));
     },
     "SummarySelect[S]"},
    // A summary predicate under a data-select node (NOT over a label) and
    // $.getSize(), which names no instance: both read the set and are
    // false on an empty one, so both drive from the storage heap, below
    // the data conjunct.
    {"NotLabelInDataSelect",
     [] {
       return LSelect(LSelect(LScan("Birds"), Weight(CompareOp::kLt, 90)),
                      Not(Disease(CompareOp::kLt, 3)));
     },
     [](LateAttachState& s, ExecutionContext*) {
       return SSelect(Select(Scan(s), Weight(CompareOp::kLt, 90)),
                      Not(Disease(CompareOp::kLt, 3)));
     },
     kSummaryFirst, nullptr, NoSummaryIndexes()},
    {"SetSizeInDataSelect",
     [] {
       return LSelect(LSelect(LScan("Birds"), Weight(CompareOp::kLt, 80)),
                      Cmp(SetSize(), CompareOp::kGt, Lit(Value::Int(1))));
     },
     [](LateAttachState& s, ExecutionContext*) {
       return Select(Select(Scan(s), Weight(CompareOp::kLt, 80)),
                     Cmp(SetSize(), CompareOp::kGt, Lit(Value::Int(1))));
     },
     kSummaryFirst},
    {"SummaryFilter",
     [] {
       ObjectPredicate pred;
       pred.instance_name = "ClassBird1";
       return LSummaryFilter(
           LSelect(LScan("Birds"), Weight(CompareOp::kLt, 40)), pred);
     },
     [](LateAttachState& s, ExecutionContext*) -> OpPtr {
       ObjectPredicate pred;
       pred.instance_name = "ClassBird1";
       return std::make_unique<SummaryFilterOp>(
           Select(Scan(s), Weight(CompareOp::kLt, 40)), pred);
     },
     "SummaryFilter[F]", "Select[\xcf\x83]"},
    {"SummarySort",
     [] {
       return LSort(LSelect(LScan("Birds"), Weight(CompareOp::kLt, 50)),
                    Keys(LabelValue("ClassBird1", "Disease"), true,
                         Col("weight")));
     },
     [](LateAttachState& s, ExecutionContext* exec) -> OpPtr {
       return std::make_unique<SortOp>(
           exec, Select(Scan(s), Weight(CompareOp::kLt, 50)),
           Keys(LabelValue("ClassBird1", "Disease"), true, Col("weight")),
           SortOp::Mode::kMemory);
     },
     "SummarySort[O]", "Select[\xcf\x83]"},
    {"SummaryTopK",
     [] {
       return LLimit(LSort(LScan("Birds"),
                           Keys(LabelValue("ClassBird1", "Disease"), true,
                                Col("weight"))),
                     10);
     },
     [](LateAttachState& s, ExecutionContext* exec) {
       return Limit(std::make_unique<SortOp>(
                        exec, Scan(s),
                        Keys(LabelValue("ClassBird1", "Disease"), true,
                             Col("weight")),
                        SortOp::Mode::kMemory),
                    10);
     },
     "SummarySort[O]", "SeqScan(Birds)\n"},
    {"SummaryJoinIndex",
     [] {
       return LSummaryJoin(
           LSelect(LScanAs("Birds", "a"), Weight(CompareOp::kLt, 8, "a")),
           LScanAs("Birds", "b"), DiseaseEquality());
     },
     [](LateAttachState& s, ExecutionContext*) -> OpPtr {
       return std::make_unique<SummaryJoinOp>(
           Select(Scan(s, "a"), Weight(CompareOp::kLt, 8, "a")), Scan(s, "b"),
           DiseaseEquality());
     },
     "equality, index)", "Select[\xcf\x83]"},
    {"SummaryJoinNestedLoop",
     [] {
       return LSummaryJoin(
           LSelect(LScanAs("Birds", "a"), Weight(CompareOp::kLt, 8, "a")),
           LScanAs("Birds", "b"), DiseaseEquality());
     },
     [](LateAttachState& s, ExecutionContext*) -> OpPtr {
       return std::make_unique<SummaryJoinOp>(
           Select(Scan(s, "a"), Weight(CompareOp::kLt, 8, "a")), Scan(s, "b"),
           DiseaseEquality());
     },
     "nested-loop)", "Select[\xcf\x83]", NoSummaryIndexes()},
    {"HashJoin",
     [] {
       return LJoin(
           LSelect(LScanAs("Birds", "a"), Weight(CompareOp::kLt, 20, "a")),
           LScanAs("Birds", "b"),
           Cmp(Col("a.weight"), CompareOp::kEq, Col("b.weight")));
     },
     [](LateAttachState& s, ExecutionContext*) -> OpPtr {
       return std::make_unique<HashJoinOp>(
           Select(Scan(s, "a"), Weight(CompareOp::kLt, 20, "a")), Scan(s, "b"),
           "a.weight", "b.weight", nullptr);
     },
     "HashJoin(", "Select[\xcf\x83]"},
    {"IndexNLJoin",
     [] {
       return LJoin(
           LSelect(LScanAs("Birds", "a"), Weight(CompareOp::kLt, 5, "a")),
           LScanAs("Birds", "b"),
           Cmp(Col("a.family"), CompareOp::kEq, Col("b.family")));
     },
     [](LateAttachState& s, ExecutionContext*) -> OpPtr {
       return std::make_unique<HashJoinOp>(
           Select(Scan(s, "a"), Weight(CompareOp::kLt, 5, "a")), Scan(s, "b"),
           "a.family", "b.family", nullptr);
     },
     "IndexNLJoin(", "Select[\xcf\x83]"},
    {"Distinct",
     [] {
       return LDistinct(LProject(
           LSelect(LScan("Birds"), Weight(CompareOp::kLt, 70)), {"family"}));
     },
     [](LateAttachState& s, ExecutionContext*) -> OpPtr {
       return std::make_unique<DistinctOp>(std::make_unique<ProjectOp>(
           Select(Scan(s), Weight(CompareOp::kLt, 70)),
           std::vector<std::string>{"family"}, s.db.mgr->MakeResolver()));
     },
     "Distinct", "Select[\xcf\x83]"},
    {"GroupBy",
     [] {
       std::vector<AggregateSpec> aggs;
       aggs.push_back(AggregateSpec{AggregateSpec::Kind::kCount, nullptr, "n"});
       return LAggregate(LSelect(LScan("Birds"), Weight(CompareOp::kLt, 70)),
                         {"family"}, std::move(aggs));
     },
     [](LateAttachState& s, ExecutionContext*) -> OpPtr {
       std::vector<AggregateSpec> aggs;
       aggs.push_back(AggregateSpec{AggregateSpec::Kind::kCount, nullptr, "n"});
       return std::make_unique<HashAggregateOp>(
           Select(Scan(s), Weight(CompareOp::kLt, 70)),
           std::vector<std::string>{"family"}, std::move(aggs),
           s.db.mgr->MakeResolver());
     },
     "HashAggregate", "Select[\xcf\x83]"},
    {"IndexScanResidual",
     [] {
       return LSelect(LScan("Birds"),
                      And(Cmp(Col("name"), CompareOp::kEq,
                              Lit(Value::String("bird37"))),
                          Weight(CompareOp::kLt, 50)));
     },
     [](LateAttachState& s, ExecutionContext*) {
       return Select(Scan(s), And(Cmp(Col("name"), CompareOp::kEq,
                                      Lit(Value::String("bird37"))),
                                  Weight(CompareOp::kLt, 50)));
     },
     "IndexScan(Birds.name", "Select[\xcf\x83]"},
    {"SummaryIndexBackwardResidual",
     [] {
       return LSummarySelect(
           LSelect(LScan("Birds"), Weight(CompareOp::kLt, 80)),
           Disease(CompareOp::kEq, 3));
     },
     [](LateAttachState& s, ExecutionContext*) {
       return SSelect(Select(Scan(s), Weight(CompareOp::kLt, 80)),
                      Disease(CompareOp::kEq, 3));
     },
     "backward-ptrs", "Select[\xcf\x83]"},
    {"SummaryIndexConventionalResidual",
     [] {
       return LSummarySelect(
           LSelect(LScan("Birds"), Weight(CompareOp::kLt, 80)),
           Disease(CompareOp::kEq, 3));
     },
     [](LateAttachState& s, ExecutionContext*) {
       return SSelect(Select(Scan(s), Weight(CompareOp::kLt, 80)),
                      Disease(CompareOp::kEq, 3));
     },
     "propagate, conventional-ptrs", nullptr, {}, 1, true},
    {"KeywordIndexUnion",
     [] {
       return LSummarySelect(
           LSelect(LScan("Birds"), Weight(CompareOp::kLt, 90)),
           ContainsUnion("TextSummary1", {"osprey", "trout"}));
     },
     [](LateAttachState& s, ExecutionContext*) {
       return SSelect(Select(Scan(s), Weight(CompareOp::kLt, 90)),
                      ContainsUnion("TextSummary1", {"osprey", "trout"}));
     },
     "KeywordIndexScan(", "Select[\xcf\x83]"},
    // containsSingle: both words in one snippet.
    {"KeywordIndexSingle",
     [] {
       return LSummarySelect(
           LSelect(LScan("Birds"), Weight(CompareOp::kLt, 90)),
           ContainsSingle("TextSummary1", {"trout", "osprey"}));
     },
     [](LateAttachState& s, ExecutionContext*) {
       return SSelect(Select(Scan(s), Weight(CompareOp::kLt, 90)),
                      ContainsSingle("TextSummary1", {"trout", "osprey"}));
     },
     "KeywordIndexScan(", "Select[\xcf\x83]"},
    {"ParallelFilter",
     [] { return LSelect(LScan("Birds"), Weight(CompareOp::kLt, 70)); },
     [](LateAttachState& s, ExecutionContext*) {
       return Select(Scan(s), Weight(CompareOp::kLt, 70));
     },
     "Gather", "Select[\xcf\x83]", Parallel(), 2},
    {"ParallelSummarySelect",
     [] {
       return LSummarySelect(
           LSelect(LScan("Birds"), Weight(CompareOp::kLt, 90)),
           Disease(CompareOp::kGe, 1));
     },
     [](LateAttachState& s, ExecutionContext*) {
       return SSelect(Select(Scan(s), Weight(CompareOp::kLt, 90)),
                      Disease(CompareOp::kGe, 1));
     },
     "Gather", "Select[\xcf\x83]",
     [] {
       OptimizerOptions opts = Parallel();
       opts.use_summary_indexes = false;
       return opts;
     }(),
     3},
};

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

// The row keys (up to the data) found in only one of two renderings.
std::string Difference(const std::vector<std::string>& late,
                       const std::vector<std::string>& early) {
  std::vector<std::string> only_late;
  std::vector<std::string> only_early;
  std::set_difference(late.begin(), late.end(), early.begin(), early.end(),
                      std::back_inserter(only_late));
  std::set_difference(early.begin(), early.end(), late.begin(), late.end(),
                      std::back_inserter(only_early));
  std::string out;
  for (const auto* side : {&only_late, &only_early}) {
    out += side == &only_late ? "only late:" : "; only early:";
    for (const std::string& key : *side) {
      out += " " + key.substr(0, key.find(']') + 1);
    }
  }
  return out;
}

class LateAttachDifferentialTest : public ::testing::TestWithParam<Shape> {
 protected:
  // Runs both arms at `snap`; returns the number of rows carrying a
  // non-empty summary set.
  size_t ExpectSameAtSnapshot(const Snapshot& snap, const char* label) {
    SCOPED_TRACE(label);
    const Shape& shape = GetParam();
    QueryContext* ctx = shape.conventional ? state_.conventional_ctx.get()
                                           : state_.backward_ctx.get();
    ExecutionContext* exec = ctx->exec_context();
    exec->set_snapshot(snap);
    exec->set_parallelism(shape.workers);

    Optimizer optimizer(ctx, shape.options);
    auto late = optimizer.Optimize(shape.logical());
    EXPECT_TRUE(late.ok()) << late.status().ToString();
    if (!late.ok()) return 0;
    const std::string tree = (*late)->ExplainTree();
    if (shape.plan_has != nullptr) {
      EXPECT_NE(tree.find(shape.plan_has), std::string::npos) << tree;
    }
    if (shape.attach_above != nullptr) {
      const size_t attach = tree.find("AttachSummaries(Birds, propagate)");
      EXPECT_NE(attach, std::string::npos) << tree;
      EXPECT_LT(attach, tree.find(shape.attach_above)) << tree;
    }
    // Only the attach, the conventional-pointer index, which attaches
    // inside itself, and the summary-first fetch, whose rows keep the
    // sets the storage scan read, print `propagate`.
    for (size_t pos = tree.find("propagate"); pos != std::string::npos;
         pos = tree.find("propagate", pos + 1)) {
      const size_t begin = tree.rfind('\n', pos) + 1;  // npos + 1 == 0.
      const std::string line = tree.substr(begin, tree.find('\n', pos) - begin);
      EXPECT_TRUE(line.find("AttachSummaries(") != std::string::npos ||
                  line.find("conventional-ptrs") != std::string::npos ||
                  line.find("FetchBase(") != std::string::npos)
          << line;
    }
    if (shape.workers > 1) {
      size_t attaches = 0;
      for (size_t pos = tree.find("AttachSummaries"); pos != std::string::npos;
           pos = tree.find("AttachSummaries", pos + 1)) {
        ++attaches;
      }
      EXPECT_EQ(attaches, shape.workers) << tree;  // One per partition.
    }
    auto late_rows = CollectRows(late->get());
    EXPECT_TRUE(late_rows.ok()) << late_rows.status().ToString();

    OpPtr early = shape.early(state_, exec);
    early->AttachContext(exec);
    auto early_rows = CollectRows(early.get());
    EXPECT_TRUE(early_rows.ok()) << early_rows.status().ToString();
    exec->set_parallelism(1);
    if (!late_rows.ok() || !early_rows.ok()) return 0;

    EXPECT_FALSE(early_rows->empty());
    const auto late_keys = Render(*late_rows);
    const auto early_keys = Render(*early_rows);
    EXPECT_TRUE(late_keys == early_keys)
        << Difference(late_keys, early_keys) << "\n"
        << tree;
    size_t annotated = 0;
    for (const Row& row : *late_rows) {
      annotated += row.summaries.empty() ? 0 : 1;
    }
    return annotated;
  }

  LateAttachState state_;
};

TEST_P(LateAttachDifferentialTest, LateMatchesEarly) {
  EXPECT_GT(ExpectSameAtSnapshot(Snapshot::Latest(), "latest"), 0u);
  EXPECT_GT(
      ExpectSameAtSnapshot(state_.old_reader->snapshot(), "older snapshot"),
      0u);
  EXPECT_GT(ExpectSameAtSnapshot(state_.open_writer->snapshot(),
                                 "uncommitted writer's snapshot"),
            0u);
}

INSTANTIATE_TEST_SUITE_P(Shapes, LateAttachDifferentialTest,
                         ::testing::ValuesIn(kShapes),
                         [](const ::testing::TestParamInfo<Shape>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace insight
