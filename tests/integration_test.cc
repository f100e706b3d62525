// Cross-module integration and property tests:
//   - optimizer plan-equivalence fuzzing: any combination of rewrite
//     rules, index choices, and join algorithms must return the same rows
//   - end-to-end run on the file-backed storage manager
//   - external vs in-memory sort equivalence through SQL

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "common/rng.h"
#include "optimizer/optimizer.h"
#include "sql/database.h"
#include "workload/birds_workload.h"

namespace insight {
namespace {

std::vector<std::string> RenderSorted(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) out.push_back(row.data.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

// Builds a random logical plan over the workload tables using the
// summary-based and standard operators, returning the same plan for the
// same seed.
LogicalPtr RandomPlan(Rng* rng) {
  LogicalPtr plan = LScan("Birds");
  const int shape = static_cast<int>(rng->Uniform(0, 5));
  // Optional data predicate.
  if (rng->NextBool(0.6)) {
    plan = LSelect(std::move(plan),
                   Cmp(Col("wingspan"), CompareOp::kGt,
                       Lit(Value::Double(rng->NextDouble() * 3))));
  }
  // Optional summary predicate.
  if (rng->NextBool(0.8)) {
    static const char* kLabels[] = {"Disease", "Anatomy", "Behavior",
                                    "Other"};
    static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kGt,
                                     CompareOp::kLt, CompareOp::kGe};
    plan = LSummarySelect(
        std::move(plan),
        Cmp(LabelValue("ClassBird1", kLabels[rng->Uniform(0, 3)]),
            kOps[rng->Uniform(0, 3)], Lit(Value::Int(rng->Uniform(0, 6)))));
  }
  if (shape == 1) {
    // Join with the synonyms table.
    plan = LJoin(std::move(plan), LScan("Synonyms"),
                 Cmp(Col("common_name"), CompareOp::kEq, Col("bird_name")));
  } else if (shape == 2) {
    // Summary filter.
    ObjectPredicate pred;
    pred.type = rng->NextBool() ? SummaryType::kClassifier
                                : SummaryType::kSnippet;
    plan = LSummaryFilter(std::move(plan), pred);
  } else if (shape == 3) {
    std::vector<AggregateSpec> aggs;
    aggs.push_back(
        AggregateSpec{AggregateSpec::Kind::kCount, nullptr, "cnt"});
    plan = LAggregate(std::move(plan), {"family"}, std::move(aggs));
  } else if (shape == 4) {
    std::vector<SortKey> keys;
    keys.push_back(SortKey{LabelValue("ClassBird1", "Disease"),
                           rng->NextBool()});
    plan = LSort(std::move(plan), std::move(keys));
  }
  return plan;
}

class PlanEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanEquivalenceTest, AllOptimizerConfigsAgree) {
  Database db;
  BirdsWorkloadOptions opts;
  opts.seed = 7;
  opts.num_birds = 60;
  opts.annotations_per_bird = 6;
  opts.synonyms_per_bird = 2;
  GenerateBirdsWorkload(&db, opts).ValueOrDie();
  db.Execute("ANALYZE Birds").ValueOrDie();
  db.Execute("ANALYZE Synonyms").ValueOrDie();

  Rng rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const uint64_t plan_seed = rng.Next();
    // Reference: everything off.
    Rng plan_rng(plan_seed);
    db.optimizer_options() = OptimizerOptions{};
    db.optimizer_options().enable_rewrite_rules = false;
    db.optimizer_options().use_summary_indexes = false;
    db.optimizer_options().use_baseline_indexes = false;
    db.optimizer_options().use_data_indexes = false;
    db.optimizer_options().enable_hash_join = false;
    auto reference = db.Run(RandomPlan(&plan_rng));
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    struct Config {
      bool rules, sidx, didx, hash;
      SortOp::Mode sort;
    };
    const Config configs[] = {
        {true, true, true, true, SortOp::Mode::kMemory},
        {true, false, true, false, SortOp::Mode::kExternal},
        {false, true, false, true, SortOp::Mode::kMemory},
        {true, true, false, false, SortOp::Mode::kExternal},
    };
    for (const Config& config : configs) {
      Rng same_rng(plan_seed);
      db.optimizer_options() = OptimizerOptions{};
      db.optimizer_options().enable_rewrite_rules = config.rules;
      db.optimizer_options().use_summary_indexes = config.sidx;
      db.optimizer_options().use_baseline_indexes = false;
      db.optimizer_options().use_data_indexes = config.didx;
      db.optimizer_options().enable_hash_join = config.hash;
      db.optimizer_options().sort_mode = config.sort;
      db.optimizer_options().sort_memory_budget = 16 * 1024;
      auto result = db.Run(RandomPlan(&same_rng));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(RenderSorted(*reference), RenderSorted(*result))
          << "trial " << trial << " rules=" << config.rules
          << " sidx=" << config.sidx << " didx=" << config.didx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanEquivalenceTest,
                         ::testing::Values(1, 2, 3));

TEST(FileBackendTest, EndToEndOnDisk) {
  const std::string dir = ::testing::TempDir() + "/insight_filedb";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    Database::Options options;
    options.backend = StorageManager::Backend::kFile;
    options.directory = dir;
    options.buffer_pool_frames = 64;  // Tiny pool: force real evictions.
    Database db(options);
    db.Execute("CREATE TABLE Birds (name TEXT, family TEXT)").ValueOrDie();
    db.DefineClassifier("C", {"Disease", "Other"},
                        {{"diseaseword infection", "Disease"},
                         {"otherword note", "Other"}})
        .ok();
    db.Execute("ALTER TABLE Birds ADD INDEXABLE C").ValueOrDie();
    for (int i = 0; i < 200; ++i) {
      db.Execute("INSERT INTO Birds VALUES ('bird" + std::to_string(i) +
                 "', 'f" + std::to_string(i % 5) + "')")
          .ValueOrDie();
    }
    for (int i = 0; i < 300; ++i) {
      db.Execute("ANNOTATE Birds TUPLE " + std::to_string(1 + i % 200) +
                 " WITH '" + (i % 3 == 0 ? "diseaseword sick" : "otherword")
                 + " note " + std::to_string(i) + "'")
          .ValueOrDie();
    }
    auto result = db.Execute(
        "SELECT name FROM Birds WHERE "
        "$.getSummaryObject('C').getLabelValue('Disease') > 0");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->rows.size(), 0u);
    // Page files materialized on disk.
    size_t files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      (void)entry;
      ++files;
    }
    EXPECT_GT(files, 5u);
  }
  std::filesystem::remove_all(dir);
}

TEST(SqlSortModesTest, ExternalSortMatchesMemory) {
  Database db;
  BirdsWorkloadOptions opts;
  opts.num_birds = 80;
  opts.annotations_per_bird = 5;
  opts.synonyms_per_bird = 0;
  GenerateBirdsWorkload(&db, opts).ValueOrDie();
  const std::string sql =
      "SELECT common_name FROM Birds ORDER BY "
      "$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC, "
      "common_name";
  db.optimizer_options().sort_mode = SortOp::Mode::kMemory;
  auto mem = db.Execute(sql).ValueOrDie();
  db.optimizer_options().sort_mode = SortOp::Mode::kExternal;
  db.optimizer_options().sort_memory_budget = 8 * 1024;
  auto ext = db.Execute(sql).ValueOrDie();
  ASSERT_EQ(mem.rows.size(), ext.rows.size());
  for (size_t i = 0; i < mem.rows.size(); ++i) {
    EXPECT_TRUE(mem.rows[i] == ext.rows[i]) << i;
  }
}

}  // namespace
}  // namespace insight
