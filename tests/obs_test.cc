#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/task_scheduler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/database.h"
#include "storage/buffer_pool.h"

namespace insight {
namespace {

std::string TempPath(const std::string& tag) {
  static std::atomic<int> counter{0};
  return ::testing::TempDir() + "/insight_obs_" + tag + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1));
}

// Every test starts from zeroed global metrics with instrumentation on.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetMetricsEnabled(true);
    MetricsRegistry::Global().ResetAll();
  }
  void TearDown() override { SetMetricsEnabled(true); }

  // A populated plain table big enough for multi-page scans.
  static void FillBirds(Database* db, int rows) {
    Schema schema({{"id", ValueType::kInt64},
                   {"family", ValueType::kString},
                   {"weight", ValueType::kDouble}});
    ASSERT_TRUE(db->CreateTable("Birds", schema).ok());
    for (int i = 0; i < rows; ++i) {
      ASSERT_TRUE(db->Insert("Birds",
                             Tuple({Value::Int(i),
                                    Value::String("family" +
                                                  std::to_string(i % 4)),
                                    Value::Double(i * 0.5)}))
                      .ok());
    }
  }
};

// ---------- Registry units ----------

TEST_F(ObsTest, CounterGaugeHistogramBasics) {
  Counter c;
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);

  Gauge g;
  g.Set(7);
  g.Add(-3);
  EXPECT_EQ(g.value(), 4);

  Histogram h({1.0, 10.0});
  h.Observe(0.5);
  h.Observe(5.0);
  h.Observe(100.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 105.5);
  EXPECT_EQ(h.bucket(0), 1u);  // <= 1
  EXPECT_EQ(h.bucket(1), 1u);  // (1, 10]
  EXPECT_EQ(h.bucket(2), 1u);  // +Inf
}

TEST_F(ObsTest, DisabledPathLeavesCountersUntouched) {
  EngineMetrics& m = EngineMetrics::Get();
  SetMetricsEnabled(false);
  m.bufferpool_hits->Add(10);
  m.wal_durable_lag->Set(99);
  m.query_millis->Observe(5);
  EXPECT_EQ(m.bufferpool_hits->value(), 0u);
  EXPECT_EQ(m.wal_durable_lag->value(), 0);
  EXPECT_EQ(m.query_millis->count(), 0u);
  SetMetricsEnabled(true);
  m.bufferpool_hits->Add(1);
  EXPECT_EQ(m.bufferpool_hits->value(), 1u);
}

TEST_F(ObsTest, DisabledEngineRunsWithoutTouchingAnyMetric) {
  SetMetricsEnabled(false);
  Database db;
  FillBirds(&db, 200);
  auto result = db.Execute("SELECT id FROM Birds WHERE weight < 50.0");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EngineMetrics& m = EngineMetrics::Get();
  EXPECT_EQ(m.bufferpool_hits->value(), 0u);
  EXPECT_EQ(m.bufferpool_misses->value(), 0u);
  EXPECT_EQ(m.heap_pages_scanned->value(), 0u);
  EXPECT_EQ(m.queries_total->value(), 0u);
  EXPECT_EQ(m.query_millis->count(), 0u);
}

TEST_F(ObsTest, PrometheusExposition) {
  MetricsRegistry& r = MetricsRegistry::Global();
  r.GetCounter("obs_test_events_total", "events for the format test")
      ->Add(3);
  r.GetGauge("obs_test_depth", "depth for the format test")->Set(-2);
  Histogram* h =
      r.GetHistogram("obs_test_latency", {1, 10}, "latency for the test");
  h->Observe(0.5);
  h->Observe(5);
  h->Observe(100);
  const std::string text = r.ToPrometheus();
  EXPECT_NE(text.find("# HELP obs_test_events_total events"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_events_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("obs_test_depth -2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_latency histogram"),
            std::string::npos);
  // Prometheus buckets are cumulative: le="10" counts the le="1" hits too.
  EXPECT_NE(text.find("obs_test_latency_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_latency_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_latency_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_latency_count 3"), std::string::npos);
  EXPECT_NE(text.find("obs_test_latency_sum 105.5"), std::string::npos);
}

TEST_F(ObsTest, JsonSnapshot) {
  MetricsRegistry& r = MetricsRegistry::Global();
  r.GetCounter("obs_test_json_total", "json test")->Add(7);
  const std::string json = r.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test_json_total\":7"), std::string::npos);
}

// ---------- Ground-truth agreement ----------

TEST_F(ObsTest, BufferPoolCountersMatchNativeStats) {
  Database db;
  FillBirds(&db, 500);
  // Reset both sides at the same point, then run one cold-ish scan.
  db.pool()->ResetStats();
  MetricsRegistry::Global().ResetAll();
  auto result = db.Execute("SELECT id FROM Birds");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 500u);

  const BufferPoolStats native = db.pool()->stats();
  EngineMetrics& m = EngineMetrics::Get();
  EXPECT_GT(native.hits + native.misses, 0u);
  EXPECT_EQ(m.bufferpool_hits->value(), native.hits);
  EXPECT_EQ(m.bufferpool_misses->value(), native.misses);
  EXPECT_EQ(m.bufferpool_evictions->value(), native.evictions);
  EXPECT_EQ(m.bufferpool_writebacks->value(), native.writebacks);
}

TEST_F(ObsTest, HeapPagesScannedMatchesScanCount) {
  Database db;
  FillBirds(&db, 500);
  MetricsRegistry::Global().ResetAll();
  EngineMetrics& m = EngineMetrics::Get();
  ASSERT_TRUE(db.Execute("SELECT id FROM Birds").ok());
  const uint64_t one_scan = m.heap_pages_scanned->value();
  EXPECT_GT(one_scan, 0u);
  // A table of 500 three-column rows spans multiple pages but far fewer
  // than one page per row.
  EXPECT_LT(one_scan, 500u);
  ASSERT_TRUE(db.Execute("SELECT id FROM Birds").ok());
  // A second identical scan touches exactly the same pages again.
  EXPECT_EQ(m.heap_pages_scanned->value(), 2 * one_scan);
}

TEST_F(ObsTest, WalFsyncCountMatchesSyncMode) {
  EngineMetrics& m = EngineMetrics::Get();
  {
    // kEveryOp: every logged operation commits with its own fsync.
    auto db = Database::Open(TempPath("everyop")).ValueOrDie();
    Schema schema({{"id", ValueType::kInt64}});
    ASSERT_TRUE(db->CreateTable("T", schema).ok());
    MetricsRegistry::Global().ResetAll();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(db->Insert("T", Tuple({Value::Int(i)})).ok());
    }
    EXPECT_EQ(m.wal_appends->value(), 5u);
    EXPECT_EQ(m.wal_fsyncs->value(), 5u);
    EXPECT_GT(m.wal_append_bytes->value(), 0u);
    // Everything appended is durable.
    EXPECT_EQ(m.wal_durable_lag->value(), 0);
  }
  {
    // kNever: appends only, no forced syncs.
    Database::Options options;
    options.wal_sync = Database::WalSyncMode::kNever;
    auto db = Database::Open(TempPath("never"), options).ValueOrDie();
    Schema schema({{"id", ValueType::kInt64}});
    ASSERT_TRUE(db->CreateTable("T", schema).ok());
    MetricsRegistry::Global().ResetAll();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(db->Insert("T", Tuple({Value::Int(i)})).ok());
    }
    EXPECT_EQ(m.wal_appends->value(), 5u);
    EXPECT_EQ(m.wal_fsyncs->value(), 0u);
    // One explicit barrier syncs the whole tail at once.
    ASSERT_TRUE(db->WalSync().ok());
    EXPECT_EQ(m.wal_fsyncs->value(), 1u);
    EXPECT_EQ(m.wal_durable_lag->value(), 0);
  }
}

TEST_F(ObsTest, SchedulerCountersCountEveryTask) {
  TaskScheduler scheduler(2);
  MetricsRegistry::Global().ResetAll();
  EngineMetrics& m = EngineMetrics::Get();
  std::atomic<int> ran{0};
  std::vector<TaskScheduler::Task> tasks;
  for (int i = 0; i < 50; ++i) {
    tasks.push_back([&ran] { ran.fetch_add(1); });
  }
  scheduler.RunAndWait(std::move(tasks));
  EXPECT_EQ(ran.load(), 50);
  EXPECT_EQ(m.scheduler_submits->value(), 50u);
  // Every submitted task left a queue through PopBack or StealFront.
  EXPECT_EQ(m.scheduler_tasks_run->value(), 50u);
  EXPECT_LE(m.scheduler_steals->value(), 50u);
  EXPECT_EQ(m.scheduler_queue_depth->value(), 0);
}

// ---------- Query-layer observability ----------

TEST_F(ObsTest, ExplainAnalyzeShowsEstimatesAndQError) {
  Database db;
  FillBirds(&db, 200);
  ASSERT_TRUE(db.Analyze("Birds").ok());
  auto plan = db.ExplainAnalyze("SELECT id FROM Birds WHERE weight < 50.0");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("est="), std::string::npos) << *plan;
  EXPECT_NE(plan->find("actual="), std::string::npos) << *plan;
  EXPECT_NE(plan->find("q-err="), std::string::npos) << *plan;
}

TEST_F(ObsTest, QueryCountersAndQErrorHistogram) {
  Database db;
  FillBirds(&db, 200);
  ASSERT_TRUE(db.Analyze("Birds").ok());
  MetricsRegistry::Global().ResetAll();
  EngineMetrics& m = EngineMetrics::Get();
  ASSERT_TRUE(db.Execute("SELECT id FROM Birds").ok());
  ASSERT_TRUE(db.Execute("SELECT id FROM Birds WHERE weight < 10.0").ok());
  EXPECT_EQ(m.queries_total->value(), 2u);
  EXPECT_EQ(m.query_millis->count(), 2u);
  // Each executed plan reported at least one per-operator q-error sample.
  EXPECT_GE(m.plan_qerror->count(), 2u);
}

TEST_F(ObsTest, SlowQueryLogCapturesPlan) {
  Database db;
  FillBirds(&db, 200);
  db.slow_query_log()->set_threshold_ms(0);  // Every query is "slow".
  MetricsRegistry::Global().ResetAll();
  const std::string sql = "SELECT id FROM Birds WHERE weight < 50.0";
  ASSERT_TRUE(db.Execute(sql).ok());
  ASSERT_EQ(db.slow_query_log()->size(), 1u);
  const QueryTrace trace = db.slow_query_log()->Snapshot()[0];
  EXPECT_EQ(trace.statement, sql);
  EXPECT_FALSE(trace.spans.empty());
  EXPECT_NE(trace.plan.find("rows="), std::string::npos) << trace.plan;
  EXPECT_EQ(EngineMetrics::Get().slow_queries_total->value(), 1u);

  // Capacity bounds the ring.
  db.slow_query_log()->set_capacity(2);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(db.Execute(sql).ok());
  EXPECT_EQ(db.slow_query_log()->size(), 2u);
}

TEST_F(ObsTest, QErrorDefinition) {
  EXPECT_DOUBLE_EQ(QError(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(QError(10, 100), 10.0);
  EXPECT_DOUBLE_EQ(QError(100, 10), 10.0);
  // Floored at 1 row on both sides: empty results stay finite.
  EXPECT_DOUBLE_EQ(QError(0, 50), 50.0);
  EXPECT_DOUBLE_EQ(QError(50, 0), 50.0);
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);
}

TEST_F(ObsTest, CardinalityFeedbackTriggersReanalyze) {
  Database db;
  // Histogram tier only: the online sketches would keep the estimate
  // fresh and the feedback loop (under test here) would never trigger.
  db.optimizer_options().use_sketch_statistics = false;
  FillBirds(&db, 10);
  ASSERT_TRUE(db.Analyze("Birds").ok());
  // Grow the table 50x behind the statistics' back: the next scan's
  // estimate is off by ~50, past the feedback threshold.
  for (int i = 10; i < 500; ++i) {
    ASSERT_TRUE(db.Insert("Birds",
                          Tuple({Value::Int(i), Value::String("familyX"),
                                 Value::Double(i * 0.5)}))
                    .ok());
  }
  db.optimizer_options().feedback_qerror_threshold = 5.0;
  ASSERT_TRUE(db.Execute("SELECT id FROM Birds").ok());
  const RelationInfo* info = *db.context()->Get("Birds");
  EXPECT_GE(info->worst_qerror, 5.0);
  EXPECT_TRUE(info->needs_analyze);
  // The next statement's RefreshStats upgrades to a full ANALYZE.
  ASSERT_TRUE(db.Execute("SELECT id FROM Birds").ok());
  info = *db.context()->Get("Birds");
  EXPECT_FALSE(info->needs_analyze);
  ASSERT_TRUE(info->stats.has_value());
  EXPECT_EQ(info->stats->num_rows, 500u);
}

// Feedback must learn only from real misestimates: with fresh statistics,
// every scan under a nested-loop join and an index join reports the rows
// it really produced, so neither join flags a table for re-ANALYZE.
TEST_F(ObsTest, FreshStatisticsJoinsLeaveFeedbackQuiet) {
  Database db;
  ASSERT_TRUE(db.CreateTable("A", Schema({{"aid", ValueType::kInt64},
                                          {"name", ValueType::kString}}))
                  .ok());
  ASSERT_TRUE(db.CreateTable("B", Schema({{"bid", ValueType::kInt64}})).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.Insert("A", Tuple({Value::Int(i),
                                      Value::String("a" + std::to_string(i))}))
                    .ok());
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.Insert("B", Tuple({Value::Int(i * 4)})).ok());
  }
  ASSERT_TRUE(db.Execute("CREATE INDEX ON B (bid)").ok());
  ASSERT_TRUE(db.Analyze("A").ok());
  ASSERT_TRUE(db.Analyze("B").ok());
  db.optimizer_options().feedback_qerror_threshold = 5.0;
  const std::pair<const char*, const char*> joins[] = {
      {"SELECT name FROM A, B WHERE aid < bid", "NestedLoopJoin"},
      {"SELECT name FROM A, B WHERE aid = bid", "IndexNLJoin"}};
  for (const auto& [sql, join] : joins) {
    auto plan = db.ExplainAnalyze(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan->find(join), std::string::npos) << *plan;
    for (const char* table : {"A", "B"}) {
      const RelationInfo* info = *db.context()->Get(table);
      EXPECT_FALSE(info->needs_analyze) << sql << " flagged " << table;
      EXPECT_LT(info->worst_qerror, 5.0) << sql << " on " << table;
    }
  }
}

TEST_F(ObsTest, FeedbackDisabledByDefaultDoesNotReanalyze) {
  Database db;
  // Histogram tier only, so the stale estimate shows up as a q-error.
  db.optimizer_options().use_sketch_statistics = false;
  FillBirds(&db, 10);
  ASSERT_TRUE(db.Analyze("Birds").ok());
  for (int i = 10; i < 500; ++i) {
    ASSERT_TRUE(db.Insert("Birds",
                          Tuple({Value::Int(i), Value::String("familyX"),
                                 Value::Double(i * 0.5)}))
                    .ok());
  }
  ASSERT_TRUE(db.Execute("SELECT id FROM Birds").ok());
  const RelationInfo* info = *db.context()->Get("Birds");
  // The q-error is still recorded for diagnostics, but nothing is flagged.
  EXPECT_GT(info->worst_qerror, 1.0);
  EXPECT_FALSE(info->needs_analyze);
  ASSERT_TRUE(db.Execute("SELECT id FROM Birds").ok());
  info = *db.context()->Get("Birds");
  ASSERT_TRUE(info->stats.has_value());
  EXPECT_EQ(info->stats->num_rows, 10u);  // Stale, by design.
}

TEST_F(ObsTest, DumpMetricsExposesEverySubsystem) {
  Database db;
  FillBirds(&db, 100);
  ASSERT_TRUE(db.Execute("SELECT id FROM Birds").ok());
  const std::string text = db.DumpMetrics();
  for (const char* name :
       {"insight_bufferpool_hits_total", "insight_bufferpool_misses_total",
        "insight_wal_fsyncs_total", "insight_scheduler_tasks_run_total",
        "insight_sbtree_probes_total", "insight_btree_probes_total",
        "insight_heap_pages_scanned_total", "insight_queries_total",
        "insight_query_millis", "insight_plan_qerror",
        "insight_scan_pages_skipped_total", "insight_zonemap_widenings_total",
        "insight_zonemap_stale_marks_total",
        "insight_zonemap_page_rebuilds_total"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  const std::string json = db.DumpMetricsJson();
  EXPECT_NE(json.find("\"insight_queries_total\""), std::string::npos);
}

}  // namespace
}  // namespace insight
