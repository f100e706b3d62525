// Figure 14 — Effectiveness of optimization Rules 2 and 5 on Example 4:
//
//   SELECT ... FROM Birds R JOIN Synonyms S ON R.common_name = S.bird_name
//   WHERE  ClassBird1.Disease > 5        (summary-based selection S)
//   ORDER BY ClassBird1.Disease          (summary-based sort O)
//
// Synonyms does not carry ClassBird1, so Rule 2 legally pushes the S
// operator below the join (where the Summary-BTree answers it in sorted
// order) and Rule 5 lets that order survive the join, eliminating O.
//
// Arms follow the paper: {NLoop, Index} join x {Mem, Disk} sort, each
// with the optimizations disabled vs enabled.
//
// Paper result: ~15x speedup in all four combinations.

#include "bench_util.h"

using namespace insight;
using namespace insight::bench;

namespace {

LogicalPtr BuildExample4Plan(int64_t threshold) {
  LogicalPtr join =
      LJoin(LScan("Birds"), LScan("Synonyms"),
            Cmp(Col("common_name"), CompareOp::kEq, Col("bird_name")));
  LogicalPtr select = LSummarySelect(
      std::move(join), Cmp(LabelValue("ClassBird1", "Disease"),
                           CompareOp::kGt, Lit(Value::Int(threshold))));
  std::vector<SortKey> keys;
  keys.push_back(SortKey{LabelValue("ClassBird1", "Disease"), false});
  return LSort(std::move(select), std::move(keys));
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config = ParseArgs(argc, argv);
  PrintHeader("Figure 14: transformation Rules 2 & 5 "
              "(S pushdown + order-preserving join)",
              "optimized plan ~15x faster across {NLoop, Index} join x "
              "{Mem, Disk} sort",
              config);
  Database db;
  BirdsWorkloadOptions opts = CorpusOptions(config, 200);  // The 9M point.
  GenerateBirdsWorkload(&db, opts).ValueOrDie();
  (void)db.Analyze("Birds");
  (void)db.Analyze("Synonyms");

  // Threshold sized so a handful of percent of birds qualify.
  const int64_t threshold =
      PickThresholdConstant(&db, "Birds", "ClassBird1", "Disease", 0.03);

  struct Arm {
    const char* name;
    bool index_join;
    SortOp::Mode sort_mode;
  };
  const Arm arms[] = {
      {"NLoop-Mem", false, SortOp::Mode::kMemory},
      {"NLoop-Disk", false, SortOp::Mode::kExternal},
      {"Index-Mem", true, SortOp::Mode::kMemory},
      {"Index-Disk", true, SortOp::Mode::kExternal},
  };
  std::printf("%-12s %6s %14s %14s %8s\n", "join/sort", "rows",
              "disabled(ms)", "enabled(ms)", "speedup");
  for (const Arm& arm : arms) {
    size_t rows = 0;
    auto run = [&](bool optimizations) {
      db.optimizer_options().enable_rewrite_rules = optimizations;
      db.optimizer_options().use_summary_indexes = optimizations;
      db.optimizer_options().use_baseline_indexes = false;
      db.optimizer_options().use_data_indexes = arm.index_join;
      // The paper's engine implements only NL and index joins.
      db.optimizer_options().enable_hash_join = false;
      db.optimizer_options().sort_mode = arm.sort_mode;
      // A tight budget so the Disk arms really spill.
      db.optimizer_options().sort_memory_budget = 64 * 1024;
      return MedianMillis(std::max(1, config.query_repeats / 2), [&] {
        rows = db.Run(BuildExample4Plan(threshold)).ValueOrDie().size();
      });
    };
    const double disabled_ms = run(false);
    const double enabled_ms = run(true);
    std::printf("%-12s %6zu %14.1f %14.1f %7.1fx\n", arm.name, rows,
                disabled_ms, enabled_ms, disabled_ms / enabled_ms);
  }
  return 0;
}
