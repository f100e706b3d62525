// Durability ablation — what the write-ahead log costs on the insert
// path and what recovery costs at restart.
//
//   1. Per-insert commit latency: no WAL at all, WAL without forcing
//      (append only), WAL with an fsync per operation, and group commit
//      at several batch sizes (one WalSync per batch).
//   2. Recovery time against log size: replaying logs of growing length
//      through Database::Open, with and without a checkpoint covering
//      most of the log.
//   3. Log size under automatic checkpoints: each checkpoint replaces the
//      log, so after several of them the file holds one snapshot plus
//      the tail written since.
//
// Expectation: group commit amortizes the fsync, so per-insert overhead
// approaches the append-only floor as the batch grows (< 2x the no-WAL
// baseline by batch 64 on a local filesystem). Recovery time is linear
// in the replayed tail, and a checkpoint cuts it to the snapshot plus
// the tail: two records plus the tail are replayed.
//
// Emits BENCH_wal.json. With --smoke the process exits nonzero when a
// recovered database loses rows, or when the log after several automatic
// checkpoints exceeds twice the last snapshot plus the tail — cheap
// end-to-end durability and log-retention gates.

#include <unistd.h>

#include <filesystem>
#include <string>

#include "bench_util.h"
#include "sql/database.h"

using namespace insight;
using namespace insight::bench;

namespace {

std::string FreshDir(std::string tag) {
  for (char& c : tag) {
    if (c == '/') c = '-';
  }
  const std::string dir = "/tmp/insight_bench_wal_" + tag + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

Schema BirdsSchema() {
  return Schema({{"name", ValueType::kString},
                 {"family", ValueType::kString},
                 {"weight", ValueType::kDouble}});
}

Tuple MakeBird(size_t i) {
  return Tuple({Value::String("bird" + std::to_string(i)),
                Value::String("family" + std::to_string(i % 16)),
                Value::Double(static_cast<double>(i % 100))});
}

/// Microseconds per insert for one arm. `sync_batch` == 0 means "let the
/// configured sync mode decide" (kEveryOp forces inside Insert's LogOp);
/// > 0 issues one WalSync per that many inserts (group commit).
double InsertMicros(Database* db, size_t inserts, size_t sync_batch) {
  Stopwatch timer;
  for (size_t i = 0; i < inserts; ++i) {
    db->Insert("Birds", MakeBird(i)).ValueOrDie();
    if (sync_batch > 0 && (i + 1) % sync_batch == 0) {
      INSIGHT_CHECK(db->WalSync().ok());
    }
  }
  if (sync_batch > 0) INSIGHT_CHECK(db->WalSync().ok());
  return timer.ElapsedMillis() * 1000.0 / static_cast<double>(inserts);
}

struct RecoveryPoint {
  size_t ops = 0;
  bool checkpointed = false;
  uint64_t log_bytes = 0;
  size_t records_seen = 0;
  double open_ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config = ParseArgs(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  PrintHeader("Durability: WAL commit latency and recovery time",
              "group commit < 2x no-WAL per insert by batch 64; "
              "recovery linear in the replayed tail",
              config);

  const size_t inserts = static_cast<size_t>(200000 * config.scale);
  bool smoke_failed = false;

  // ---- 1. Per-insert commit latency ----

  double no_wal_us = 0.0;
  {
    Database db;  // No directory, no log.
    db.CreateTable("Birds", BirdsSchema()).ValueOrDie();
    no_wal_us = InsertMicros(&db, inserts, 0);
  }
  std::printf("%-22s %8zu inserts %10.2f us/insert (1.00x)\n", "no-wal",
              inserts, no_wal_us);

  auto timed_arm = [&](const char* label, Database::WalSyncMode mode,
                       size_t sync_batch) {
    const std::string dir = FreshDir(label);
    Database::Options options;
    options.wal_sync = mode;
    auto db = Database::Open(dir, options).ValueOrDie();
    db->CreateTable("Birds", BirdsSchema()).ValueOrDie();
    const double us = InsertMicros(db.get(), inserts, sync_batch);
    std::printf("%-22s %8zu inserts %10.2f us/insert (%.2fx)\n", label,
                inserts, us, us / no_wal_us);
    db.reset();
    std::filesystem::remove_all(dir);
    return us;
  };

  const double never_us =
      timed_arm("wal-append-only", Database::WalSyncMode::kNever, 0);
  const double every_op_us =
      timed_arm("wal-fsync-every-op", Database::WalSyncMode::kEveryOp, 0);

  struct GroupArm {
    size_t batch;
    double us;
  };
  std::vector<GroupArm> group_arms;
  for (size_t batch : {8u, 64u, 256u}) {
    const std::string label = "group-commit/" + std::to_string(batch);
    const double us = timed_arm(label.c_str(),
                                Database::WalSyncMode::kGroupCommit, batch);
    group_arms.push_back({batch, us});
  }

  // ---- 2. Recovery time vs log size ----

  std::printf("--- recovery time vs log size\n");
  std::vector<RecoveryPoint> recovery;
  const size_t base_ops = inserts / 4 < 250 ? 250 : inserts / 4;
  for (size_t ops : {base_ops, base_ops * 4, base_ops * 8}) {
    for (bool checkpointed : {false, true}) {
      RecoveryPoint point;
      point.ops = ops;
      point.checkpointed = checkpointed;
      const std::string dir =
          FreshDir("rec_" + std::to_string(ops) +
                   (checkpointed ? "_ckpt" : "_plain"));
      {
        Database::Options options;
        options.wal_sync = Database::WalSyncMode::kGroupCommit;
        auto db = Database::Open(dir, options).ValueOrDie();
        db->CreateTable("Birds", BirdsSchema()).ValueOrDie();
        for (size_t i = 0; i < ops; ++i) {
          db->Insert("Birds", MakeBird(i)).ValueOrDie();
        }
        INSIGHT_CHECK(db->WalSync().ok());
        // Checkpoint near the end: recovery restores the snapshot and
        // replays only the short tail after it.
        if (checkpointed) INSIGHT_CHECK(db->Checkpoint().ok());
      }
      point.log_bytes = std::filesystem::file_size(dir + "/wal.log");
      Stopwatch timer;
      auto db = Database::Open(dir).ValueOrDie();
      point.open_ms = timer.ElapsedMillis();
      point.records_seen = db->recovery_stats().records_seen;
      const uint64_t rows = (*db->GetTable("Birds"))->num_rows();
      if (rows != ops) {
        std::fprintf(stderr, "FAIL: recovered %llu of %zu rows\n",
                     static_cast<unsigned long long>(rows), ops);
        smoke_failed = true;
      }
      std::printf("ops=%-8zu %-6s log=%8.2f KB  recover %8.2f ms "
                  "(%zu records)\n",
                  ops, checkpointed ? "ckpt" : "plain",
                  point.log_bytes / 1024.0, point.open_ms,
                  point.records_seen);
      db.reset();
      std::filesystem::remove_all(dir);
      recovery.push_back(point);
    }
  }

  // ---- 3. Log size under automatic checkpoints ----

  uint64_t auto_log_bytes = 0;
  uint64_t auto_snapshot_bytes = 0;
  uint64_t auto_tail_bytes = 0;
  {
    constexpr size_t kEvery = 250;
    const size_t ops = kEvery * 6 + kEvery / 2;  // Six checkpoints + tail.
    const std::string dir = FreshDir("autockpt");
    Database::Options options;
    options.wal_sync = Database::WalSyncMode::kGroupCommit;
    options.checkpoint_every_ops = kEvery;
    {
      auto db = Database::Open(dir, options).ValueOrDie();
      db->CreateTable("Birds", BirdsSchema()).ValueOrDie();
      for (size_t i = 0; i < ops; ++i) {
        db->Insert("Birds", MakeBird(i)).ValueOrDie();
      }
      INSIGHT_CHECK(db->WalSync().ok());
      // Framed sizes: the last snapshot record, and everything after it
      // but its end marker.
      bool after_snapshot = false;
      for (const WalRecord& rec : db->wal()->ReadAll().ValueOrDie()) {
        const uint64_t framed = 8 + 9 + rec.payload.size();
        if (rec.type == WalRecordType::kCheckpointBegin) {
          auto_snapshot_bytes = framed;
          auto_tail_bytes = 0;
          after_snapshot = true;
        } else if (after_snapshot &&
                   rec.type != WalRecordType::kCheckpointEnd) {
          auto_tail_bytes += framed;
        }
      }
    }
    auto_log_bytes = std::filesystem::file_size(dir + "/wal.log");
    std::filesystem::remove_all(dir);
    const bool bounded =
        auto_snapshot_bytes > 0 &&
        auto_log_bytes <= 2 * auto_snapshot_bytes + auto_tail_bytes;
    std::printf("--- log after %zu ops, checkpoint every %zu: %.2f KB "
                "(last snapshot %.2f KB, tail %.2f KB)%s\n",
                ops, kEvery, auto_log_bytes / 1024.0,
                auto_snapshot_bytes / 1024.0, auto_tail_bytes / 1024.0,
                bounded ? "" : "  FAIL");
    if (!bounded) {
      std::fprintf(stderr,
                   "FAIL: log of %llu bytes exceeds twice the last snapshot "
                   "(%llu) plus the tail (%llu)\n",
                   static_cast<unsigned long long>(auto_log_bytes),
                   static_cast<unsigned long long>(auto_snapshot_bytes),
                   static_cast<unsigned long long>(auto_tail_bytes));
      smoke_failed = true;
    }
  }

  // ---- JSON artifact ----

  FILE* json = std::fopen("BENCH_wal.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"wal_durability\",\n"
                 "  \"inserts\": %zu,\n"
                 "  \"insert_latency_us\": {\n"
                 "    \"no_wal\": %.3f,\n"
                 "    \"wal_append_only\": %.3f,\n"
                 "    \"wal_fsync_every_op\": %.3f,\n"
                 "    \"group_commit\": [",
                 inserts, no_wal_us, never_us, every_op_us);
    for (size_t i = 0; i < group_arms.size(); ++i) {
      std::fprintf(json,
                   "%s\n      {\"batch\": %zu, \"us_per_insert\": %.3f, "
                   "\"overhead_vs_no_wal\": %.3f}",
                   i == 0 ? "" : ",", group_arms[i].batch, group_arms[i].us,
                   group_arms[i].us / no_wal_us);
    }
    std::fprintf(json, "\n    ]\n  },\n  \"recovery\": [");
    for (size_t i = 0; i < recovery.size(); ++i) {
      const RecoveryPoint& point = recovery[i];
      std::fprintf(json,
                   "%s\n    {\"ops\": %zu, \"checkpointed\": %s, "
                   "\"log_bytes\": %llu, \"records_seen\": %zu, "
                   "\"recover_ms\": %.3f}",
                   i == 0 ? "" : ",", point.ops,
                   point.checkpointed ? "true" : "false",
                   static_cast<unsigned long long>(point.log_bytes),
                   point.records_seen, point.open_ms);
    }
    std::fprintf(json,
                 "\n  ],\n  \"auto_checkpoint_log\": {\"log_bytes\": %llu, "
                 "\"last_snapshot_bytes\": %llu, \"tail_bytes\": %llu},\n"
                 "  \"host\": %s\n}\n",
                 static_cast<unsigned long long>(auto_log_bytes),
                 static_cast<unsigned long long>(auto_snapshot_bytes),
                 static_cast<unsigned long long>(auto_tail_bytes),
                 HostJson().c_str());
    std::fclose(json);
    std::printf("wrote BENCH_wal.json\n");
  }

  if (smoke && smoke_failed) return 1;
  return 0;
}
