// Figure 16 — Usability case study of the NEW extensions: basic
// InsightNotes (summaries propagate but cannot be queried; post-
// processing happens client-side) vs InsightNotes+ (summary-based
// operators + indexes + optimizer).
//
// The paper's times include human query-writing; the engine-side
// comparison here isolates the automatable part: the basic arm runs the
// closest expressible query and post-processes its result client-side,
// the plus arm runs the native summary-based query.
//
// Paper result: Q1 5.2 min -> 40 s; Q2 8.1 min -> 54 s; Q3 infeasible
// (45,000 reported tuples) -> 52 s. All 100% accurate.

#include <algorithm>

#include "bench_util.h"

using namespace insight;
using namespace insight::bench;

namespace {

int64_t DiseaseOf(const Row& row) {
  const SummaryObject* obj = row.summaries.GetSummaryObject("ClassBird1");
  if (obj == nullptr) return 0;
  auto value = obj->GetLabelValue("Disease");
  return value.ok() ? *value : 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config = ParseArgs(argc, argv);
  PrintHeader("Figure 16: usability study, basic InsightNotes vs "
              "InsightNotes+",
              "Q1 5.2min->40s, Q2 8.1min->54s, Q3 infeasible->52s "
              "(manual-minutes are human time; here both arms are "
              "machine-run, so ratios are conservative)",
              config);
  Database db;
  BirdsWorkloadOptions opts = CorpusOptions(config, 100);
  opts.synonyms_per_bird = 0;
  GenerateBirdsWorkload(&db, opts).ValueOrDie();
  // Second version of the table for Q2 (divergent annotations).
  db.Execute("CREATE TABLE BirdsV2 (id INT, common_name TEXT)").ValueOrDie();
  db.Execute("ALTER TABLE BirdsV2 ADD INDEXABLE ClassBird1").ValueOrDie();
  {
    Rng rng(config.seed + 3);
    for (size_t i = 0; i < config.birds(); ++i) {
      db.Execute("INSERT INTO BirdsV2 VALUES (" + std::to_string(i + 1) +
                 ", 'bird" + std::to_string(i) + "')")
          .ValueOrDie();
      const int notes = static_cast<int>(rng.Uniform(0, 4));
      for (int a = 0; a < notes; ++a) {
        db.Annotate("BirdsV2",
                    GenerateAnnotationText(AnnotationTopic::kDisease, 200,
                                           &rng),
                    {{static_cast<Oid>(i + 1), RowMask(2)}})
            .ValueOrDie();
      }
    }
  }
  (void)db.Analyze("Birds");
  (void)db.Analyze("BirdsV2");
  SummaryManager* mgr = *db.GetManager("Birds");
  Table* birds = *db.GetTable("Birds");

  std::printf("%-34s %14s %14s %8s\n", "query", "basic(ms)", "plus(ms)",
              "speedup");

  // --- Q1: sort by disease-annotation count. Basic InsightNotes cannot
  // sort on summaries: it retrieves everything (with summaries) and the
  // client sorts. ---
  {
    const double basic_ms = MedianMillis(config.query_repeats, [&] {
      AttachSummariesOp scan(std::make_unique<SeqScanOp>(birds), mgr);
      std::vector<Row> rows = CollectRows(&scan).ValueOrDie();
      std::stable_sort(rows.begin(), rows.end(),
                       [](const Row& a, const Row& b) {
                         return DiseaseOf(a) < DiseaseOf(b);
                       });
    });
    const double plus_ms = MedianMillis(config.query_repeats, [&] {
      db.Execute(
            "SELECT common_name FROM Birds ORDER BY "
            "$.getSummaryObject('ClassBird1').getLabelValue('Disease')")
          .ValueOrDie();
    });
    std::printf("%-34s %14.1f %14.1f %7.1fx\n",
                "Q1 summary-based sort", basic_ms, plus_ms,
                basic_ms / plus_ms);
  }

  // --- Q2: join V1 x V2 on id, keep pairs whose provenance/disease
  // counts differ. Basic: data join (all pairs with summaries), client
  // checks the summary predicate over 450 joined tuples. ---
  {
    SummaryManager* mgr2 = *db.GetManager("BirdsV2");
    Table* birds2 = *db.GetTable("BirdsV2");
    const double basic_ms = MedianMillis(config.query_repeats, [&] {
      // Engine does the data join; the summary predicate is manual.
      auto left = std::make_unique<AttachSummariesOp>(
          std::make_unique<SeqScanOp>(birds), mgr);
      auto right = std::make_unique<AttachSummariesOp>(
          std::make_unique<SeqScanOp>(birds2), mgr2);
      // Basic InsightNotes merges summaries in the join, after which the
      // per-side counts are gone — the student had to re-query each side
      // tuple-by-tuple. Emulate with per-pair summary lookups.
      NestedLoopJoinOp join(std::move(left), std::move(right),
                            Cmp(Col("id"), CompareOp::kEq, Col("id")));
      size_t differing = 0;
      for (const Row& row : CollectRows(&join).ValueOrDie()) {
        const int64_t joined_id = row.data.at(0).AsInt();
        SummarySet v1 =
            mgr->GetSummaries(static_cast<Oid>(joined_id)).ValueOrDie();
        SummarySet v2 =
            mgr2->GetSummaries(static_cast<Oid>(joined_id)).ValueOrDie();
        auto count = [](const SummarySet& set) -> int64_t {
          const SummaryObject* obj = set.GetSummaryObject("ClassBird1");
          if (obj == nullptr) return 0;
          auto v = obj->GetLabelValue("Disease");
          return v.ok() ? *v : 0;
        };
        if (count(v1) != count(v2)) ++differing;
      }
    });
    const double plus_ms = MedianMillis(config.query_repeats, [&] {
      db.Execute(
            "SELECT v1.id FROM Birds v1, BirdsV2 v2 WHERE v1.id = v2.id "
            "AND v1.$.getSummaryObject('ClassBird1')"
            ".getLabelValue('Disease') <> "
            "v2.$.getSummaryObject('ClassBird1')"
            ".getLabelValue('Disease')")
          .ValueOrDie();
    });
    std::printf("%-34s %14.1f %14.1f %7.1fx\n",
                "Q2 summary-based version join", basic_ms, plus_ms,
                basic_ms / plus_ms);
  }

  // --- Q3: select birds with more than N disease annotations (a
  // handful qualify, as in the paper's 10-of-45,000). Basic: ALL tuples
  // come back and the client filters. ---
  {
    const int64_t threshold =
        PickThresholdConstant(&db, "Birds", "ClassBird1", "Disease", 0.02);
    const double basic_ms = MedianMillis(config.query_repeats, [&] {
      AttachSummariesOp scan(std::make_unique<SeqScanOp>(birds), mgr);
      std::vector<Row> rows = CollectRows(&scan).ValueOrDie();
      size_t kept = 0;
      for (const Row& row : rows) {
        if (DiseaseOf(row) > threshold) ++kept;
      }
    });
    const double plus_ms = MedianMillis(config.query_repeats, [&] {
      db.Execute(
            "SELECT common_name FROM Birds WHERE "
            "$.getSummaryObject('ClassBird1').getLabelValue('Disease') > " +
            std::to_string(threshold))
          .ValueOrDie();
    });
    std::printf("%-34s %14.1f %14.1f %7.1fx\n",
                "Q3 summary-based selection", basic_ms, plus_ms,
                basic_ms / plus_ms);
  }
  return 0;
}
