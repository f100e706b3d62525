// Figure 15 — Effectiveness of Rule 11: switching the order between a
// data-based join and a summary-based join.
//
// Setup mirrors the paper: R = Birds, S = Reports (sharing the
// TextSummary1 instance, so the summary-based join J runs a keyword
// search over their combined snippet objects — no summary index can
// help), and T = a replica of R joined 1-1 through an indexed id column.
//
//   default plan:    (J(R, S))  then  NL-join with T
//   optimized plan:  (R index-join T)  then  J with S      [Rule 11]
//
// Paper result: ~3.5x speedup.

#include "bench_util.h"

using namespace insight;
using namespace insight::bench;

int main(int argc, char** argv) {
  BenchConfig config = ParseArgs(argc, argv);
  PrintHeader("Figure 15: Rule 11 (swap data-join and summary-join order)",
              "optimized order ~3.5x faster", config);

  std::printf("%-10s %6s %14s %14s %8s\n", "x-axis", "rows",
              "default(ms)", "optimized(ms)", "speedup");
  for (size_t per_bird : std::vector<size_t>{10, 50, 200}) {
    Database db;
    BirdsWorkloadOptions opts = CorpusOptions(config, per_bird);
    opts.synonyms_per_bird = 0;
    GenerateBirdsWorkload(&db, opts).ValueOrDie();

    // S: Reports, sharing TextSummary1 (linked from the same prototype).
    db.Execute("CREATE TABLE Reports (rep_id INT, title TEXT)")
        .ValueOrDie();
    db.Execute("ALTER TABLE Reports ADD TextSummary1").ValueOrDie();
    Rng rng(config.seed + 5);
    const size_t num_reports = std::max<size_t>(20, config.birds() / 10);
    for (size_t i = 0; i < num_reports; ++i) {
      db.Execute("INSERT INTO Reports VALUES (" + std::to_string(i + 1) +
                 ", 'report" + std::to_string(i) + "')")
          .ValueOrDie();
      // One long annotation per report so it has snippet objects.
      db.Annotate("Reports",
                  GenerateAnnotationText(
                      static_cast<AnnotationTopic>(i % kNumTopics), 1400,
                      &rng),
                  {{static_cast<Oid>(i + 1), RowMask(2)}})
          .ValueOrDie();
    }

    // T: replica of Birds ids, indexed.
    db.Execute("CREATE TABLE BirdsT (tid INT, tag TEXT)").ValueOrDie();
    for (size_t i = 0; i < config.birds(); ++i) {
      db.Execute("INSERT INTO BirdsT VALUES (" + std::to_string(i + 1) +
                 ", 'tag" + std::to_string(i) + "')")
          .ValueOrDie();
    }
    db.Execute("CREATE INDEX ON BirdsT (tid)").ValueOrDie();
    (void)db.Analyze("Birds");
    (void)db.Analyze("Reports");
    (void)db.Analyze("BirdsT");

    // J: keyword search over the COMBINED TextSummary1 objects.
    auto build_plan = [&] {
      SummaryJoinPredicate pred;
      pred.merged_expr =
          ContainsUnion("TextSummary1", {"wingspan", "station"});
      LogicalPtr sjoin =
          LSummaryJoin(LScan("Birds"), LScan("Reports"), std::move(pred));
      return LJoin(std::move(sjoin), LScan("BirdsT"),
                   Cmp(Col("id"), CompareOp::kEq, Col("tid")));
    };

    size_t rows = 0;
    auto run = [&](bool optimizations) {
      db.optimizer_options().enable_rewrite_rules = optimizations;
      db.optimizer_options().use_data_indexes = optimizations;
      db.optimizer_options().use_summary_indexes = false;
      db.optimizer_options().use_baseline_indexes = false;
      // The paper's engine implements only NL and index joins.
      db.optimizer_options().enable_hash_join = false;
      return MedianMillis(std::max(1, config.query_repeats / 2), [&] {
        rows = db.Run(build_plan()).ValueOrDie().size();
      });
    };
    const double default_ms = run(false);
    const double optimized_ms = run(true);
    std::printf("%-10s %6zu %14.1f %14.1f %7.1fx\n",
                BenchConfig::PaperAxisLabel(per_bird).c_str(), rows,
                default_ms, optimized_ms, default_ms / optimized_ms);
  }
  return 0;
}
