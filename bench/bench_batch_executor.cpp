// Batch executor ablation — the same scan+select plan driven through
// NextBatch at several batch capacities; then the batch plan against its
// morsel-driven parallel form at several worker counts.
//
// Expectation: throughput converges as capacity grows (larger batches
// amortize virtual dispatch, Result construction, and per-batch column
// lookup in the predicate). Parallel speedup tracks the host's core count
// (a 1-core machine shows ~1.0x).
//
// Emits BENCH_parallel.json with the parallel-vs-serial numbers,
// BENCH_obs.json with the metrics-overhead arm (the same batch plan with
// engine instrumentation on vs off), and BENCH_scan.json with the
// zone-map data-skipping arm (a selective predicate over a clustered
// column, zone pruning on vs off, plus a full-scan arm where pruning
// cannot help and must not hurt). With --smoke the process exits
// nonzero when any worker count regresses to more than 2x the serial
// time, a wrong row count is returned, the instrumented run exceeds
// 1.10x the uninstrumented one, the zone-pruned scan returns different
// hits or skips zero pages, or the pruned full scan exceeds 2x the
// unpruned one — the CI bench-smoke gates.

#include <thread>

#include "bench_util.h"
#include "engine/execution_context.h"
#include "engine/operators.h"
#include "engine/parallel_ops.h"
#include "engine/row_batch.h"
#include "obs/metrics.h"

using namespace insight;
using namespace insight::bench;

namespace {

ExprPtr WeightPredicate() {
  // ~25% selectivity over the generated weights.
  return Cmp(Col("weight"), CompareOp::kLt, Lit(Value::Double(25.0)));
}

OpPtr BuildPlan(Table* table) {
  auto scan = std::make_unique<SeqScanOp>(table, nullptr, false);
  return std::make_unique<SelectOp>(std::move(scan), WeightPredicate());
}

// The same plan in morsel-parallel form: N partition pipelines (parallel
// scan + the cloned selection) under one gather.
OpPtr BuildParallelPlan(Table* table, size_t workers) {
  auto morsels = std::make_shared<MorselSource>(table->heap_pages());
  std::vector<OpPtr> partitions;
  partitions.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    OpPtr part =
        std::make_unique<ParallelScanOp>(table, nullptr, false, morsels);
    part = std::make_unique<SelectOp>(std::move(part), WeightPredicate());
    partitions.push_back(std::make_unique<ExchangeOp>(std::move(part), w));
  }
  return std::make_unique<GatherOp>(std::move(partitions), morsels);
}

size_t DriveBatches(PhysicalOperator* op, RowBatch* batch) {
  INSIGHT_CHECK(op->Open().ok());
  size_t n = 0;
  while (op->NextBatch(batch).ValueOrDie()) n += batch->size();
  op->Close();
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config = ParseArgs(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  PrintHeader("Ablation: batch capacity and parallelism for scan+select",
              "throughput converges as batch capacity grows", config);

  const size_t num_rows = static_cast<size_t>(200000 * config.scale);
  StorageManager storage(StorageManager::Backend::kMemory);
  BufferPool pool(&storage, 4096);
  Catalog catalog(&storage, &pool);
  Table* table = *catalog.CreateTable(
      "Birds", Schema({{"name", ValueType::kString},
                       {"family", ValueType::kString},
                       {"weight", ValueType::kDouble}}));
  for (size_t i = 0; i < num_rows; ++i) {
    table
        ->Insert(Tuple({Value::String("bird" + std::to_string(i)),
                        Value::String("family" + std::to_string(i % 64)),
                        Value::Double(static_cast<double>(i % 100))}))
        .ValueOrDie();
  }

  OpPtr plan = BuildPlan(table);
  size_t hits = 0;
  double serial_ms = 0;
  for (size_t capacity : {64u, 256u, 1024u, 4096u}) {
    ExecutionContext ctx(&storage, &pool, capacity);
    plan->AttachContext(&ctx);
    RowBatch batch;
    batch.set_capacity(capacity);
    const double batch_ms = MedianMillis(
        config.query_repeats, [&] { hits = DriveBatches(plan.get(), &batch); });
    std::printf("batch=%-6zu %10zu rows -> %8zu hits %10.2f ms\n", capacity,
                num_rows, hits, batch_ms);
    if (capacity == 1024u) serial_ms = batch_ms;  // Parallel baseline.
  }
  const size_t serial_hits = hits;

  std::printf("--- morsel-driven parallel vs serial (batch=1024, %u cores)\n",
              std::thread::hardware_concurrency());
  FILE* json = std::fopen("BENCH_parallel.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"parallel_scan_select\",\n"
                 "  \"rows\": %zu,\n  \"hardware_threads\": %u,\n"
                 "  \"serial_ms\": %.3f,\n  \"arms\": [",
                 num_rows, std::thread::hardware_concurrency(), serial_ms);
  }
  bool smoke_failed = false;
  bool first_arm = true;
  for (size_t workers : {1u, 2u, 4u}) {
    TaskScheduler scheduler(workers);
    ExecutionContext ctx(&storage, &pool, 1024);
    ctx.set_parallelism(workers);
    ctx.set_scheduler(&scheduler);
    OpPtr parallel = BuildParallelPlan(table, workers);
    parallel->AttachContext(&ctx);
    RowBatch batch;
    batch.set_capacity(1024);
    size_t parallel_hits = 0;
    const double parallel_ms = MedianMillis(config.query_repeats, [&] {
      parallel_hits = DriveBatches(parallel.get(), &batch);
    });
    const double speedup = parallel_ms > 0 ? serial_ms / parallel_ms : 0.0;
    std::printf("workers=%-4zu %10zu rows -> %8zu hits %10.2f ms (%.2fx)\n",
                workers, num_rows, parallel_hits, parallel_ms, speedup);
    if (json != nullptr) {
      std::fprintf(json, "%s\n    {\"workers\": %zu, \"ms\": %.3f, "
                         "\"speedup\": %.3f}",
                   first_arm ? "" : ",", workers, parallel_ms, speedup);
      first_arm = false;
    }
    if (parallel_hits != serial_hits) {
      std::fprintf(stderr, "FAIL: workers=%zu returned %zu hits, serial %zu\n",
                   workers, parallel_hits, serial_hits);
      smoke_failed = true;
    }
    if (parallel_ms > 2.0 * serial_ms) {
      std::fprintf(stderr,
                   "FAIL: workers=%zu is %.2fx slower than serial (>2x)\n",
                   workers, parallel_ms / serial_ms);
      smoke_failed = true;
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_parallel.json\n");
  }

  // --- metrics overhead: the serial batch=1024 plan with the engine
  // instrumentation enabled vs disabled. The observability layer promises
  // near-zero cost; gate it at 1.10x (with a small absolute-delta escape
  // hatch so sub-millisecond timing noise cannot fail a tiny --scale run).
  std::printf("--- metrics overhead (batch=1024, enabled vs disabled)\n");
  {
    ExecutionContext ctx(&storage, &pool, 1024);
    plan->AttachContext(&ctx);
    RowBatch batch;
    batch.set_capacity(1024);
    SetMetricsEnabled(true);
    size_t on_hits = 0;
    const double on_ms = MedianMillis(config.query_repeats, [&] {
      on_hits = DriveBatches(plan.get(), &batch);
    });
    SetMetricsEnabled(false);
    size_t off_hits = 0;
    const double off_ms = MedianMillis(config.query_repeats, [&] {
      off_hits = DriveBatches(plan.get(), &batch);
    });
    SetMetricsEnabled(true);
    const double ratio = off_ms > 0 ? on_ms / off_ms : 1.0;
    std::printf("metrics=on   %10zu rows -> %8zu hits %10.2f ms\n", num_rows,
                on_hits, on_ms);
    std::printf("metrics=off  %10zu rows -> %8zu hits %10.2f ms (%.3fx)\n",
                num_rows, off_hits, off_ms, ratio);
    FILE* obs_json = std::fopen("BENCH_obs.json", "w");
    if (obs_json != nullptr) {
      std::fprintf(obs_json,
                   "{\n  \"bench\": \"metrics_overhead\",\n"
                   "  \"rows\": %zu,\n  \"batch_capacity\": 1024,\n"
                   "  \"metrics_on_ms\": %.3f,\n  \"metrics_off_ms\": %.3f,\n"
                   "  \"ratio\": %.4f,\n  \"gate\": 1.10\n}\n",
                   num_rows, on_ms, off_ms, ratio);
      std::fclose(obs_json);
      std::printf("wrote BENCH_obs.json\n");
    }
    if (on_hits != off_hits) {
      std::fprintf(stderr, "FAIL: metrics arm returned %zu hits vs %zu\n",
                   on_hits, off_hits);
      smoke_failed = true;
    }
    if (ratio > 1.10 && on_ms - off_ms > 1.0) {
      std::fprintf(stderr,
                   "FAIL: instrumentation overhead %.3fx (> 1.10x gate, "
                   "+%.2f ms)\n",
                   ratio, on_ms - off_ms);
      smoke_failed = true;
    }
  }
  // --- zone-map data skipping: a selective predicate over a clustered
  // int column (ids inserted in increasing order, so every heap page
  // covers a narrow id range). The pruned scan should touch only the
  // tail pages; the unpruned scan reads everything. The full-scan arm
  // (id >= 0) prunes nothing and gates the probe overhead at 2x.
  std::printf("--- zone-map skipping (selective scan, batch=1024)\n");
  {
    const size_t scan_rows = static_cast<size_t>(1000000 * config.scale);
    Table* events = *catalog.CreateTable(
        "Events", Schema({{"id", ValueType::kInt64},
                          {"grp", ValueType::kInt64},
                          {"payload", ValueType::kString}}));
    for (size_t i = 0; i < scan_rows; ++i) {
      events
          ->Insert(Tuple({Value::Int(static_cast<int64_t>(i)),
                          Value::Int(static_cast<int64_t>(i % 97)),
                          Value::String("ev" + std::to_string(i % 1000))}))
          .ValueOrDie();
    }
    const int64_t hi =
        static_cast<int64_t>(scan_rows) - 1000;  // ~0.1% selectivity.
    ExecutionContext ctx(&storage, &pool, 1024);

    // One plan per arm: selective / full, each pruned / unpruned.
    auto build = [&](int64_t bound, bool prune, SeqScanOp** scan_out) {
      auto scan = std::make_unique<SeqScanOp>(events, nullptr, false);
      if (prune) {
        ZoneProbe probe;
        probe.kind = ZoneProbe::Kind::kColumn;
        probe.column = 0;  // "id"
        probe.op = ZoneOp::kGe;
        probe.constant = Value::Int(bound);
        ZonePredicate pred;
        pred.probes.push_back(std::move(probe));
        scan->SetZonePredicate(std::move(pred));
      }
      *scan_out = scan.get();
      OpPtr plan = std::make_unique<SelectOp>(
          std::move(scan),
          Cmp(Col("id"), CompareOp::kGe, Lit(Value::Int(bound))));
      plan->AttachContext(&ctx);
      return plan;
    };

    RowBatch batch;
    batch.set_capacity(1024);
    struct Arm {
      const char* name;
      int64_t bound;
      bool prune;
      double ms = 0;
      size_t hits = 0;
      uint64_t pages_skipped = 0;
    };
    Arm arms[] = {{"selective zone=off", hi, false},
                  {"selective zone=on", hi, true},
                  {"full zone=off", 0, false},
                  {"full zone=on", 0, true}};
    for (Arm& arm : arms) {
      SeqScanOp* scan = nullptr;
      OpPtr plan = build(arm.bound, arm.prune, &scan);
      arm.ms = MedianMillis(config.query_repeats, [&] {
        arm.hits = DriveBatches(plan.get(), &batch);
      });
      arm.pages_skipped = scan->pages_skipped();
      std::printf("%-20s %10zu rows -> %8zu hits %10.2f ms (%zu/%zu pages "
                  "skipped)\n",
                  arm.name, scan_rows, arm.hits, arm.ms,
                  static_cast<size_t>(arm.pages_skipped),
                  static_cast<size_t>(events->heap_pages()));
    }
    const double skip_speedup = arms[1].ms > 0 ? arms[0].ms / arms[1].ms : 0.0;
    const double full_ratio = arms[2].ms > 0 ? arms[3].ms / arms[2].ms : 1.0;
    std::printf("selective speedup %.2fx, full-scan overhead %.3fx\n",
                skip_speedup, full_ratio);

    FILE* scan_json = std::fopen("BENCH_scan.json", "w");
    if (scan_json != nullptr) {
      std::fprintf(scan_json,
                   "{\n  \"bench\": \"zone_map_selective_scan\",\n"
                   "  \"rows\": %zu,\n  \"heap_pages\": %zu,\n"
                   "  \"selectivity\": %.6f,\n  \"arms\": [",
                   scan_rows, static_cast<size_t>(events->heap_pages()),
                   scan_rows > 0
                       ? static_cast<double>(arms[1].hits) / scan_rows
                       : 0.0);
      for (size_t i = 0; i < 4; ++i) {
        std::fprintf(scan_json,
                     "%s\n    {\"name\": \"%s\", \"ms\": %.3f, "
                     "\"hits\": %zu, \"pages_skipped\": %zu}",
                     i == 0 ? "" : ",", arms[i].name, arms[i].ms,
                     arms[i].hits,
                     static_cast<size_t>(arms[i].pages_skipped));
      }
      std::fprintf(scan_json,
                   "\n  ],\n  \"selective_speedup\": %.3f,\n"
                   "  \"full_scan_ratio\": %.4f,\n"
                   "  \"full_scan_gate\": 2.0\n}\n",
                   skip_speedup, full_ratio);
      std::fclose(scan_json);
      std::printf("wrote BENCH_scan.json\n");
    }
    if (arms[0].hits != arms[1].hits || arms[2].hits != arms[3].hits) {
      std::fprintf(stderr,
                   "FAIL: zone pruning changed hit counts (%zu vs %zu "
                   "selective, %zu vs %zu full)\n",
                   arms[0].hits, arms[1].hits, arms[2].hits, arms[3].hits);
      smoke_failed = true;
    }
    if (arms[1].pages_skipped == 0) {
      std::fprintf(stderr, "FAIL: selective zone=on skipped zero pages\n");
      smoke_failed = true;
    }
    if (full_ratio > 2.0 && arms[3].ms - arms[2].ms > 1.0) {
      std::fprintf(stderr,
                   "FAIL: pruned full scan %.3fx unpruned (> 2x gate)\n",
                   full_ratio);
      smoke_failed = true;
    }
  }

  if (smoke && smoke_failed) return 1;
  return 0;
}
