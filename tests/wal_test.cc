#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "storage/storage_manager.h"
#include "types/tuple.h"
#include "wal/crash_point.h"
#include "wal/fault_injection.h"
#include "wal/log_manager.h"
#include "wal/recovery_manager.h"
#include "wal/wal_record.h"

namespace insight {
namespace {

std::string TempPath(const std::string& tag) {
  static std::atomic<int> counter{0};
  return ::testing::TempDir() + "/insight_wal_" + tag + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void AppendBytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void OverwriteByte(const std::string& path, size_t offset, char value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&value, 1);
}

// ---------- Payload codecs ----------

TEST(WalRecordCodecTest, InsertRoundTrip) {
  WalInsert op;
  op.table = "birds";
  op.oid = 42;
  op.tuple = Tuple({Value::Int(7), Value::String("heron"), Value::Double(2.5)});
  auto back = WalInsert::Decode(op.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->table, "birds");
  EXPECT_EQ(back->oid, 42u);
  EXPECT_EQ(back->tuple.at(0).AsInt(), 7);
  EXPECT_EQ(back->tuple.at(1).AsString(), "heron");
  EXPECT_EQ(back->tuple.at(2).AsDouble(), 2.5);
}

TEST(WalRecordCodecTest, AnnotateRoundTrip) {
  WalAnnotate op;
  op.table = "birds";
  op.ann_id = 9;
  op.text = "observed disease";
  op.targets = {{1, 0x3}, {5, 0x1}};
  auto back = WalAnnotate::Decode(op.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ann_id, 9u);
  EXPECT_EQ(back->text, "observed disease");
  ASSERT_EQ(back->targets.size(), 2u);
  EXPECT_EQ(back->targets[1].first, 5u);
  EXPECT_EQ(back->targets[1].second, 0x1u);
}

TEST(WalRecordCodecTest, InstanceDefRoundTrip) {
  WalInstanceDef def;
  def.kind = WalInstanceDef::Kind::kClassifier;
  def.name = "ClassBird1";
  def.labels = {"Disease", "Behavior"};
  def.training = {{"diseaseword sick", "Disease"}, {"eats bugs", "Behavior"}};
  auto back = WalInstanceDef::Decode(def.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->kind, WalInstanceDef::Kind::kClassifier);
  EXPECT_EQ(back->name, "ClassBird1");
  EXPECT_EQ(back->labels, def.labels);
  EXPECT_EQ(back->training, def.training);
}

TEST(WalRecordCodecTest, SnapshotRoundTrip) {
  WalSnapshot snap;
  snap.next_ann_id = 17;
  snap.ops = {{WalRecordType::kCreateTable, "p1"},
              {WalRecordType::kInsert, "p2"}};
  auto back = WalSnapshot::Decode(snap.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->next_ann_id, 17u);
  ASSERT_EQ(back->ops.size(), 2u);
  EXPECT_EQ(back->ops[0].first, WalRecordType::kCreateTable);
  EXPECT_EQ(back->ops[1].second, "p2");
}

TEST(WalRecordCodecTest, MalformedPayloadIsCorruptionNotCrash) {
  EXPECT_EQ(WalInsert::Decode("zz").status().code(), StatusCode::kCorruption);
  EXPECT_EQ(WalSnapshot::Decode("x").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(WalCheckpointEnd::Decode("").status().code(),
            StatusCode::kCorruption);
}

// ---------- CRC32 ----------

/// The textbook bytewise CRC32 (IEEE, reflected) the sliced kernel must
/// reproduce.
uint32_t BytewiseCrc32(std::string_view data, uint32_t seed) {
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownVectors) {
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtAnyLengthAlignmentAndSeed) {
  std::mt19937_64 rng(20151);
  std::string buffer(4096 + 16, '\0');
  for (char& c : buffer) c = static_cast<char>(rng());
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t align = rng() % 16;
    const size_t len = trial < 64 ? static_cast<size_t>(trial)
                                  : static_cast<size_t>(rng() % 4096);
    const std::string_view data(buffer.data() + align, len);
    const uint32_t seed = trial % 3 == 0 ? 0u : static_cast<uint32_t>(rng());
    ASSERT_EQ(Crc32(data, seed), BytewiseCrc32(data, seed))
        << "len " << len << " align " << align << " seed " << seed;
    // Chaining over any split equals one pass over the whole.
    const size_t split = len == 0 ? 0 : rng() % (len + 1);
    ASSERT_EQ(Crc32(data.substr(split), Crc32(data.substr(0, split), seed)),
              Crc32(data, seed))
        << "len " << len << " split " << split;
  }
}

// ---------- LogManager ----------

TEST(LogManagerTest, AppendSyncReadAllRoundTrip) {
  const std::string path = TempPath("roundtrip");
  auto wal = LogManager::Open(path).ValueOrDie();
  for (int i = 0; i < 5; ++i) {
    auto lsn = wal->Append(WalRecordType::kNoop, "payload" + std::to_string(i));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, static_cast<Lsn>(i + 1));
  }
  EXPECT_EQ(wal->durable_lsn(), kInvalidLsn);  // Nothing forced yet.
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(wal->durable_lsn(), 5u);

  auto records = wal->ReadAll().ValueOrDie();
  ASSERT_EQ(records.size(), 5u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, i + 1);
    EXPECT_EQ(records[i].type, WalRecordType::kNoop);
    EXPECT_EQ(records[i].payload, "payload" + std::to_string(i));
  }
  std::filesystem::remove(path);
}

TEST(LogManagerTest, UnsyncedTailIsNotOnDisk) {
  const std::string path = TempPath("unsynced");
  auto wal = LogManager::Open(path).ValueOrDie();
  ASSERT_TRUE(wal->Append(WalRecordType::kNoop, "durable").ok());
  ASSERT_TRUE(wal->Sync().ok());
  ASSERT_TRUE(wal->Append(WalRecordType::kNoop, "buffered").ok());
  auto records = wal->ReadAll().ValueOrDie();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "durable");
  std::filesystem::remove(path);
}

TEST(LogManagerTest, ReopenContinuesDenseLsnSequence) {
  const std::string path = TempPath("reopen");
  {
    auto wal = LogManager::Open(path).ValueOrDie();
    ASSERT_TRUE(wal->Append(WalRecordType::kNoop, "one").ok());
    ASSERT_TRUE(wal->Append(WalRecordType::kNoop, "two").ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  auto wal = LogManager::Open(path).ValueOrDie();
  EXPECT_EQ(wal->last_lsn(), 2u);
  EXPECT_EQ(wal->durable_lsn(), 2u);
  auto lsn = wal->Append(WalRecordType::kNoop, "three");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 3u);
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(wal->ReadAll().ValueOrDie().size(), 3u);
  std::filesystem::remove(path);
}

TEST(LogManagerTest, TornTailIsTruncatedOnReopen) {
  const std::string path = TempPath("torn");
  {
    auto wal = LogManager::Open(path).ValueOrDie();
    ASSERT_TRUE(wal->Append(WalRecordType::kNoop, "keep-a").ok());
    ASSERT_TRUE(wal->Append(WalRecordType::kNoop, "keep-b").ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  const auto intact_size = std::filesystem::file_size(path);
  // Simulate a crash mid-append: a frame header promising 100 body bytes
  // followed by only a few of them.
  std::string torn("\x64\x00\x00\x00\x00\x00\x00\x00partial", 15);
  AppendBytes(path, torn);

  auto wal = LogManager::Open(path).ValueOrDie();
  auto records = wal->ReadAll().ValueOrDie();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].payload, "keep-b");
  EXPECT_EQ(std::filesystem::file_size(path), intact_size);
  // The log stays writable past the truncation point.
  ASSERT_TRUE(wal->Append(WalRecordType::kNoop, "after").ok());
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(wal->ReadAll().ValueOrDie().size(), 3u);
  std::filesystem::remove(path);
}

TEST(LogManagerTest, ChecksumFailureCutsThePrefixThere) {
  const std::string path = TempPath("crc");
  {
    auto wal = LogManager::Open(path).ValueOrDie();
    ASSERT_TRUE(wal->Append(WalRecordType::kNoop, "first").ok());
    ASSERT_TRUE(wal->Append(WalRecordType::kNoop, "second").ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  // Flip one payload byte of the LAST record on disk; its CRC now fails,
  // so reopen keeps only the first record.
  const auto size = std::filesystem::file_size(path);
  OverwriteByte(path, static_cast<size_t>(size - 1), '!');
  auto wal = LogManager::Open(path).ValueOrDie();
  auto records = wal->ReadAll().ValueOrDie();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "first");
  std::filesystem::remove(path);
}

TEST(LogManagerTest, ScanValidPrefixReportsValidEnd) {
  const std::string path = TempPath("scan");
  {
    auto wal = LogManager::Open(path).ValueOrDie();
    ASSERT_TRUE(wal->Append(WalRecordType::kNoop, "x").ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  std::string image = ReadFile(path);
  const size_t intact = image.size();
  image += "garbage-tail";
  uint64_t valid_end = 0;
  auto records = LogManager::ScanValidPrefix(image, &valid_end);
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(valid_end, intact);
  std::filesystem::remove(path);
}

// ---------- LogManager::Rewrite ----------

/// Appends `n` durable kNoop records "r<lsn>".
void AppendNoops(LogManager* wal, int n) {
  for (int i = 0; i < n; ++i) {
    const Lsn lsn = wal->next_lsn();
    ASSERT_TRUE(
        wal->Append(WalRecordType::kNoop, "r" + std::to_string(lsn)).ok());
  }
  ASSERT_TRUE(wal->Sync().ok());
}

TEST(LogRewriteTest, KeepsTheWindowAndContinuesLsns) {
  const std::string path = TempPath("rewrite");
  {
    auto wal = LogManager::Open(path).ValueOrDie();
    AppendNoops(wal.get(), 10);
    const std::string big(3u << 20, 'x');  // Spans several write chunks.
    ASSERT_TRUE(wal->Rewrite(7, [&](LogManager::RewriteWriter* out) {
                     EXPECT_EQ(out->next_lsn(), 11u);
                     INSIGHT_RETURN_NOT_OK(
                         out->BeginRecord(WalRecordType::kCheckpointBegin));
                     for (size_t i = 0; i < big.size(); i += 1000) {
                       INSIGHT_RETURN_NOT_OK(
                           out->AppendPayload(std::string_view(big).substr(
                               i, 1000)));
                     }
                     INSIGHT_RETURN_NOT_OK(out->EndRecord());
                     return out->Append(WalRecordType::kNoop, "after");
                   })
                    .ok());
    EXPECT_EQ(wal->first_lsn(), 7u);
    EXPECT_EQ(wal->durable_lsn(), 12u);
    EXPECT_EQ(std::filesystem::file_size(path), wal->size_bytes());
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    // Appends continue the sequence in the new file.
    auto lsn = wal->Append(WalRecordType::kNoop, "r13");
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, 13u);
    ASSERT_TRUE(wal->Sync().ok());
  }
  auto wal = LogManager::Open(path).ValueOrDie();
  EXPECT_EQ(wal->first_lsn(), 7u);
  EXPECT_EQ(wal->next_lsn(), 14u);
  auto records = wal->ReadAll().ValueOrDie();
  ASSERT_EQ(records.size(), 7u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, 7 + i);
  }
  EXPECT_EQ(records[0].payload, "r7");
  EXPECT_EQ(records[4].type, WalRecordType::kCheckpointBegin);
  EXPECT_EQ(records[4].payload, std::string(3u << 20, 'x'));
  EXPECT_EQ(records[5].payload, "after");
  EXPECT_EQ(records[6].payload, "r13");
  std::filesystem::remove(path);
}

TEST(LogRewriteTest, KeepFromIsClampedAndAnEmptyResultRejected) {
  const std::string path = TempPath("rewrite_clamp");
  auto wal = LogManager::Open(path).ValueOrDie();
  AppendNoops(wal.get(), 5);
  // Nothing kept and nothing written would lose the LSN sequence.
  EXPECT_TRUE(wal->Rewrite(100, nullptr).IsInvalidArgument());
  EXPECT_EQ(wal->ReadAll().ValueOrDie().size(), 5u);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // Below the window clamps to the whole file.
  ASSERT_TRUE(wal->Rewrite(0, nullptr).ok());
  EXPECT_EQ(wal->first_lsn(), 1u);
  EXPECT_EQ(wal->ReadAll().ValueOrDie().size(), 5u);
  // Appends are refused while a rewrite runs.
  ASSERT_TRUE(wal->Rewrite(4, [&](LogManager::RewriteWriter*) {
                   EXPECT_FALSE(wal->Append(WalRecordType::kNoop, "x").ok());
                   return Status::OK();
                 })
                  .ok());
  EXPECT_EQ(wal->first_lsn(), 4u);
  EXPECT_EQ(wal->next_lsn(), 6u);
  std::filesystem::remove(path);
}

TEST(LogRewriteTest, FailedFillLeavesTheOldLog) {
  const std::string path = TempPath("rewrite_fail");
  auto wal = LogManager::Open(path).ValueOrDie();
  AppendNoops(wal.get(), 3);
  const Status st = wal->Rewrite(3, [](LogManager::RewriteWriter* out) {
    INSIGHT_RETURN_NOT_OK(out->Append(WalRecordType::kNoop, "lost"));
    return Status::IOError("injected");
  });
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(wal->first_lsn(), 1u);
  EXPECT_EQ(wal->next_lsn(), 4u);
  EXPECT_EQ(wal->ReadAll().ValueOrDie().size(), 3u);
  ASSERT_TRUE(wal->Append(WalRecordType::kNoop, "r4").ok());
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_EQ(wal->ReadAll().ValueOrDie().size(), 4u);
  std::filesystem::remove(path);
}

TEST(LogRewriteTest, OpenDeletesALeftoverReplacement) {
  const std::string path = TempPath("rewrite_leftover");
  {
    auto wal = LogManager::Open(path).ValueOrDie();
    AppendNoops(wal.get(), 2);
  }
  AppendBytes(path + ".tmp", "half a replacement log");
  auto wal = LogManager::Open(path).ValueOrDie();
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(wal->ReadAll().ValueOrDie().size(), 2u);
  std::filesystem::remove(path);
}

TEST(LogRewriteTest, CursorsReseekByLsnAndReportTruncation) {
  const std::string path = TempPath("rewrite_cursor");
  auto wal = LogManager::Open(path).ValueOrDie();
  AppendNoops(wal.get(), 10);
  auto ahead = wal->SeekTo(8).ValueOrDie();
  auto behind = wal->SeekTo(2).ValueOrDie();
  ASSERT_EQ(wal->ReadDurableFrom(&ahead, 1, 1u << 20).ValueOrDie().size(),
            1u);  // ahead now at 9.
  ASSERT_TRUE(wal->Rewrite(6, [](LogManager::RewriteWriter* out) {
                   return out->Append(WalRecordType::kNoop, "r11");
                 })
                  .ok());
  // A cursor into the replaced file finds its next record by LSN.
  auto rest = wal->ReadDurableFrom(&ahead, 100, 1u << 20).ValueOrDie();
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0].lsn, 9u);
  EXPECT_EQ(rest[0].payload, "r9");
  EXPECT_EQ(rest[2].payload, "r11");
  // One whose next record was dropped learns where the log now starts.
  auto lost = wal->ReadDurableFrom(&behind, 100, 1u << 20);
  ASSERT_TRUE(lost.status().IsOutOfRange());
  EXPECT_NE(lost.status().ToString().find("first retained LSN is 6"),
            std::string::npos)
      << lost.status().ToString();
  auto seek = wal->SeekTo(5);
  ASSERT_TRUE(seek.status().IsOutOfRange());
  EXPECT_NE(seek.status().ToString().find("first retained LSN is 6"),
            std::string::npos);
  auto from6 = wal->SeekTo(6).ValueOrDie();
  EXPECT_EQ(wal->ReadDurableFrom(&from6, 100, 1u << 20).ValueOrDie().size(),
            6u);
  std::filesystem::remove(path);
}

TEST(LogRewriteTest, ReadersRunWhileTheFileIsReplaced) {
  const std::string path = TempPath("rewrite_race");
  auto wal = LogManager::Open(path).ValueOrDie();
  AppendNoops(wal.get(), 50);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread reader([&] {
    // Seeking to the first LSN races a rewrite that drops it: retry.
    auto seek_first = [&] {
      for (;;) {
        auto cursor = wal->SeekTo(wal->first_lsn());
        if (cursor.ok()) return *cursor;
        if (!cursor.status().IsOutOfRange()) failures.fetch_add(1);
      }
    };
    LogManager::TailCursor cursor = seek_first();
    while (!stop.load()) {
      auto batch = wal->ReadDurableFrom(&cursor, 7, 1u << 20);
      if (batch.ok()) {
        for (const WalRecord& r : *batch) {
          if (r.payload != "r" + std::to_string(r.lsn)) failures.fetch_add(1);
        }
        continue;
      }
      if (!batch.status().IsOutOfRange()) failures.fetch_add(1);
      cursor = seek_first();
    }
  });
  for (int round = 0; round < 40; ++round) {
    AppendNoops(wal.get(), 5);
    ASSERT_TRUE(wal->Rewrite(wal->next_lsn() - 20, nullptr).ok());
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wal->ReadAll().ValueOrDie().size(), 20u);
  std::filesystem::remove(path);
}

TEST(LogManagerTest, GroupCommitFromManyThreads) {
  const std::string path = TempPath("group");
  auto wal = LogManager::Open(path).ValueOrDie();
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto lsn = wal->Append(WalRecordType::kNoop, "op");
        if (!lsn.ok() || !wal->Commit(*lsn).ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wal->last_lsn(), static_cast<Lsn>(kThreads * kOpsPerThread));
  EXPECT_EQ(wal->durable_lsn(), wal->last_lsn());

  auto records = wal->ReadAll().ValueOrDie();
  ASSERT_EQ(records.size(), static_cast<size_t>(kThreads * kOpsPerThread));
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, i + 1) << "LSNs must be dense and ordered";
  }
  std::filesystem::remove(path);
}

TEST(LogManagerTest, SyncToLsnBeyondLastAppendedSucceeds) {
  const std::string path = TempPath("beyond");
  auto wal = LogManager::Open(path).ValueOrDie();
  ASSERT_TRUE(wal->Append(WalRecordType::kNoop, "only").ok());
  // A reserved stamp whose operation failed before logging: the pool may
  // still ask for it. Everything that exists must be forced; no hang.
  ASSERT_TRUE(wal->SyncToLsn(1000).ok());
  EXPECT_EQ(wal->durable_lsn(), 1u);
  std::filesystem::remove(path);
}

// ---------- WAL-before-data gate in the buffer pool ----------

class RecordingBridge : public WalBridge {
 public:
  uint64_t DurableLsn() const override { return durable_; }
  Status SyncToLsn(uint64_t lsn) override {
    synced_.push_back(lsn);
    if (lsn > durable_) durable_ = lsn;
    return Status::OK();
  }

  uint64_t durable_ = 0;
  std::vector<uint64_t> synced_;
};

TEST(WalBeforeDataTest, FlushForcesTheLogFirst) {
  StorageManager storage(StorageManager::Backend::kMemory);
  BufferPool pool(&storage, 8);
  RecordingBridge bridge;
  pool.SetWalBridge(&bridge);
  pool.SetCurrentLsn(5);

  FileId file = *storage.CreateFile("f");
  PageId id;
  {
    auto guard = pool.NewPage(file, &id);
    ASSERT_TRUE(guard.ok());
    guard->data()[0] = 'd';
    guard->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_EQ(bridge.synced_.size(), 1u) << "flush must force the log";
  EXPECT_EQ(bridge.synced_[0], 5u);
}

TEST(WalBeforeDataTest, AlreadyDurablePagesFlushWithoutForcing) {
  StorageManager storage(StorageManager::Backend::kMemory);
  BufferPool pool(&storage, 8);
  RecordingBridge bridge;
  bridge.durable_ = 10;  // The log is ahead of every page.
  pool.SetWalBridge(&bridge);
  pool.SetCurrentLsn(7);

  FileId file = *storage.CreateFile("f");
  PageId id;
  {
    auto guard = pool.NewPage(file, &id);
    ASSERT_TRUE(guard.ok());
    guard->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_TRUE(bridge.synced_.empty());
}

TEST(WalBeforeDataTest, EvictionForcesTheLogToo) {
  StorageManager storage(StorageManager::Backend::kMemory);
  BufferPool pool(&storage, 8);  // Single shard; easy to overflow.
  RecordingBridge bridge;
  pool.SetWalBridge(&bridge);
  FileId file = *storage.CreateFile("f");
  // Dirty more pages than frames so eviction must write one back.
  for (int i = 0; i < 40; ++i) {
    pool.SetCurrentLsn(static_cast<uint64_t>(i + 1));
    PageId id;
    auto guard = pool.NewPage(file, &id);
    ASSERT_TRUE(guard.ok());
    guard->MarkDirty();
  }
  EXPECT_FALSE(bridge.synced_.empty())
      << "evicting a dirty page must force the log first";
}

// ---------- Fault injection ----------

TEST(FaultInjectionTest, FailsWritesAfterBudget) {
  FaultInjectingPageStore::Options options;
  options.fail_writes_after = 2;
  FaultInjectingPageStore store(std::make_unique<InMemoryPageStore>(),
                                options);
  ASSERT_EQ(*store.AllocatePage(), 0u);
  Page page;
  page.Zero();
  EXPECT_TRUE(store.WritePage(0, page).ok());
  EXPECT_TRUE(store.WritePage(0, page).ok());
  EXPECT_EQ(store.WritePage(0, page).code(), StatusCode::kIOError);
  EXPECT_EQ(store.writes(), 3u);
}

TEST(FaultInjectionTest, TornWritePersistsHalfThePage) {
  FaultInjectingPageStore::Options options;
  options.fail_writes_after = 1;
  options.torn_write = true;
  FaultInjectingPageStore store(std::make_unique<InMemoryPageStore>(),
                                options);
  ASSERT_EQ(*store.AllocatePage(), 0u);
  Page zeros;
  zeros.Zero();
  ASSERT_TRUE(store.WritePage(0, zeros).ok());

  Page ones;
  std::memset(ones.data, 'x', kPageSize);
  EXPECT_EQ(store.WritePage(0, ones).code(), StatusCode::kIOError);

  Page got;
  ASSERT_TRUE(store.ReadPage(0, &got).ok());
  EXPECT_EQ(got.data[0], 'x') << "first half must carry the torn write";
  EXPECT_EQ(got.data[kPageSize / 2 - 1], 'x');
  EXPECT_EQ(got.data[kPageSize / 2], 0) << "second half must be the old data";
  EXPECT_EQ(got.data[kPageSize - 1], 0);
}

TEST(FaultInjectionTest, CountsEveryOperation) {
  FaultInjectingPageStore store(std::make_unique<InMemoryPageStore>(), {});
  ASSERT_EQ(*store.AllocatePage(), 0u);
  Page page;
  page.Zero();
  ASSERT_TRUE(store.WritePage(0, page).ok());
  ASSERT_TRUE(store.ReadPage(0, &page).ok());
  ASSERT_TRUE(store.Sync().ok());
  EXPECT_EQ(store.writes(), 1u);
  EXPECT_EQ(store.reads(), 1u);
  EXPECT_EQ(store.syncs(), 1u);
}

TEST(StorageManagerInterceptorTest, WrapsEveryCreatedStore) {
  StorageManager storage(StorageManager::Backend::kMemory);
  std::vector<std::string> wrapped;
  storage.set_store_interceptor(
      [&](const std::string& name, std::unique_ptr<PageStore> base) {
        wrapped.push_back(name);
        return std::make_unique<FaultInjectingPageStore>(
            std::move(base), FaultInjectingPageStore::Options{});
      });
  FileId file = *storage.CreateFile("data");
  EXPECT_EQ(wrapped, std::vector<std::string>{"data"});
  auto* store = static_cast<FaultInjectingPageStore*>(storage.GetStore(file));
  ASSERT_EQ(*store->AllocatePage(), 0u);
  Page page;
  page.Zero();
  ASSERT_TRUE(store->WritePage(0, page).ok());
  EXPECT_EQ(store->writes(), 1u);
}

// ---------- Crash points ----------

TEST(CrashPointTest, RegistryCoversTheDurabilityProtocol) {
  const auto& points = RegisteredCrashPoints();
  EXPECT_GE(points.size(), 8u);
  for (const char* required :
       {"wal_append", "wal_sync_before_fsync", "wal_sync_after_fsync",
        "bufferpool_flush_page", "pagestore_sync", "checkpoint_begin",
        "checkpoint_end", "sbtree_maintenance"}) {
    EXPECT_NE(std::find(points.begin(), points.end(), required),
              points.end())
        << required;
  }
}

TEST(CrashPointTest, UnarmedHitIsANoop) {
  DisarmCrashPoints();
  HitCrashPoint("wal_append");  // Must return.
  EXPECT_FALSE(CrashPointArmed("wal_append"));
  ArmCrashPoint("some_point");
  EXPECT_TRUE(CrashPointArmed("some_point"));
  DisarmCrashPoints();
  EXPECT_FALSE(CrashPointArmed("some_point"));
}

TEST(CrashPointDeathTest, ArmedHitExitsWithTheCrashCode) {
  EXPECT_EXIT(
      {
        ArmCrashPoint("unit_test_point");
        HitCrashPoint("unit_test_point");
      },
      ::testing::ExitedWithCode(kCrashPointExitCode), "");
}

// ---------- FilePageStore hardening ----------

TEST(FilePageStoreHardeningTest, SyncSucceedsAndShortReadsAreIOErrors) {
  const std::string path = TempPath("fps") + ".db";
  auto store = FilePageStore::Open(path).ValueOrDie();
  ASSERT_EQ(*store->AllocatePage(), 0u);
  Page page;
  page.Zero();
  page.data[0] = 'p';
  ASSERT_TRUE(store->WritePage(0, page).ok());
  EXPECT_TRUE(store->Sync().ok());

  // Truncate the file under the store: the next read comes up short and
  // must surface as IOError, not as silently zero-filled data.
  std::filesystem::resize_file(path, kPageSize / 2);
  Page out;
  EXPECT_EQ(store->ReadPage(0, &out).code(), StatusCode::kIOError);
  store.reset();
  std::filesystem::remove(path);
}

TEST(FilePageStoreHardeningTest, SyncContainingDirectoryIsOk) {
  const std::string dir = TempPath("dirsync");
  std::filesystem::create_directories(dir);
  EXPECT_TRUE(SyncContainingDirectory(dir + "/somefile").ok());
  std::filesystem::remove_all(dir);
}

// ---------- Transactional replay decisions ----------

/// Records which row inserts replay, to assert recovery's commit/abort
/// decisions without standing up a full database.
class CapturingTarget : public ReplayTarget {
 public:
  Status ReplayAnnIdFloor(uint64_t) override { return Status::OK(); }
  Status ReplayCreateTable(const WalCreateTable&) override {
    return Status::OK();
  }
  Status ReplayCreateIndex(const WalCreateIndex&) override {
    return Status::OK();
  }
  Status ReplayInsert(const WalInsert& op) override {
    inserted_oids.push_back(op.oid);
    return Status::OK();
  }
  Status ReplayDelete(const WalDelete&) override { return Status::OK(); }
  Status ReplayDefineInstance(const WalInstanceDef&) override {
    return Status::OK();
  }
  Status ReplayLinkInstance(const WalLinkInstance&) override {
    return Status::OK();
  }
  Status ReplayUnlinkInstance(const WalUnlinkInstance&) override {
    return Status::OK();
  }
  Status ReplayAnnotate(const WalAnnotate&) override { return Status::OK(); }
  Status ReplayRemoveAnnotation(const WalRemoveAnnotation&) override {
    return Status::OK();
  }
  Status ReplayStatsSketch(const WalStatsSketch&) override {
    return Status::OK();
  }

  std::vector<Oid> inserted_oids;
};

/// Builds a decoded log with dense 1-based LSNs from (type, payload)
/// pairs, the shape LogManager::ReadAll hands to recovery.
std::vector<WalRecord> MakeLog(
    std::vector<std::pair<WalRecordType, std::string>> entries) {
  std::vector<WalRecord> records;
  Lsn lsn = 1;
  for (auto& [type, payload] : entries) {
    records.push_back(WalRecord{lsn++, type, std::move(payload)});
  }
  return records;
}

std::string TxnInsertOp(uint64_t txn_id, Oid oid) {
  WalInsert ins;
  ins.table = "t";
  ins.oid = oid;
  ins.tuple = Tuple({Value::Int(static_cast<int64_t>(oid))});
  WalTxnOp op;
  op.txn_id = txn_id;
  op.inner_type = WalRecordType::kInsert;
  op.inner_payload = ins.Encode();
  return op.Encode();
}

TEST(TxnReplayTest, AbortAfterCommitRevokesTheCommit) {
  // The commit hook appended the record but failed before it was known
  // durable; the txn was rolled back in memory and an abort record
  // followed. Recovery must keep it rolled back.
  auto records = MakeLog({
      {WalRecordType::kTxnBegin, WalTxnBegin{7}.Encode()},
      {WalRecordType::kTxnOp, TxnInsertOp(7, 100)},
      {WalRecordType::kTxnCommit, WalTxnCommit{7}.Encode()},
      {WalRecordType::kTxnAbort, WalTxnAbort{7}.Encode()},
  });
  CapturingTarget target;
  auto stats = RecoveryManager::Replay(records, &target);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(target.inserted_oids.empty());
  EXPECT_EQ(stats->txns_committed, 0u);
  EXPECT_GE(stats->txns_discarded, 1u);
}

TEST(TxnReplayTest, AbortOfLaterIncarnationDoesNotRevokeEarlierCommit) {
  // Txn ids restart after a reboot: the abort belongs to the second
  // incarnation of id 7 and must not revoke the first one's commit.
  auto records = MakeLog({
      {WalRecordType::kTxnBegin, WalTxnBegin{7}.Encode()},
      {WalRecordType::kTxnOp, TxnInsertOp(7, 100)},
      {WalRecordType::kTxnCommit, WalTxnCommit{7}.Encode()},
      {WalRecordType::kTxnBegin, WalTxnBegin{7}.Encode()},
      {WalRecordType::kTxnOp, TxnInsertOp(7, 200)},
      {WalRecordType::kTxnAbort, WalTxnAbort{7}.Encode()},
  });
  CapturingTarget target;
  auto stats = RecoveryManager::Replay(records, &target);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(target.inserted_oids, std::vector<Oid>({100}));
  EXPECT_EQ(stats->txns_committed, 1u);
}

TEST(TxnReplayTest, ReusedTxnIdOpsDoNotLeakAcrossIncarnations) {
  // Ops logged by a later incarnation of a reused id must not ride an
  // earlier incarnation's commit record.
  auto records = MakeLog({
      {WalRecordType::kTxnBegin, WalTxnBegin{7}.Encode()},
      {WalRecordType::kTxnOp, TxnInsertOp(7, 100)},
      {WalRecordType::kTxnCommit, WalTxnCommit{7}.Encode()},
      {WalRecordType::kTxnBegin, WalTxnBegin{7}.Encode()},
      {WalRecordType::kTxnOp, TxnInsertOp(7, 200)},
      // Crash: the second incarnation never resolves.
  });
  CapturingTarget target;
  auto stats = RecoveryManager::Replay(records, &target);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(target.inserted_oids, std::vector<Oid>({100}));
  EXPECT_EQ(stats->txns_committed, 1u);
  EXPECT_GE(stats->txns_discarded, 1u);
}

TEST(TxnReplayTest, PlainAbortStillDiscardsAndOthersCommit) {
  auto records = MakeLog({
      {WalRecordType::kTxnBegin, WalTxnBegin{1}.Encode()},
      {WalRecordType::kTxnOp, TxnInsertOp(1, 100)},
      {WalRecordType::kTxnAbort, WalTxnAbort{1}.Encode()},
      {WalRecordType::kTxnBegin, WalTxnBegin{2}.Encode()},
      {WalRecordType::kTxnOp, TxnInsertOp(2, 200)},
      {WalRecordType::kTxnCommit, WalTxnCommit{2}.Encode()},
  });
  CapturingTarget target;
  auto stats = RecoveryManager::Replay(records, &target);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(target.inserted_oids, std::vector<Oid>({200}));
  EXPECT_EQ(stats->txns_committed, 1u);
  EXPECT_EQ(stats->txns_discarded, 1u);
}

}  // namespace
}  // namespace insight
