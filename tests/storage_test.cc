#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/storage_manager.h"

namespace insight {
namespace {

/// Fresh unique temp directory for one file-backed test case.
std::string MakeTempDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  std::string dir = ::testing::TempDir() + "/insight_" + tag + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string BackendName(
    const ::testing::TestParamInfo<StorageManager::Backend>& info) {
  return info.param == StorageManager::Backend::kFile ? "File" : "Memory";
}

TEST(PageStoreTest, InMemoryReadWrite) {
  InMemoryPageStore store;
  ASSERT_EQ(*store.AllocatePage(), 0u);
  ASSERT_EQ(*store.AllocatePage(), 1u);
  Page page;
  page.Zero();
  page.data[0] = 'x';
  ASSERT_TRUE(store.WritePage(1, page).ok());
  Page out;
  ASSERT_TRUE(store.ReadPage(1, &out).ok());
  EXPECT_EQ(out.data[0], 'x');
  EXPECT_TRUE(store.ReadPage(2, &out).IsOutOfRange());
  EXPECT_EQ(store.size_bytes(), 2 * kPageSize);
}

TEST(PageStoreTest, FileBackedPersists) {
  const std::string path = ::testing::TempDir() + "/insight_fps_test.db";
  std::filesystem::remove(path);
  {
    auto store = FilePageStore::Open(path);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_EQ(*(*store)->AllocatePage(), 0u);
    Page page;
    page.Zero();
    std::snprintf(page.data, sizeof(page.data), "persisted");
    ASSERT_TRUE((*store)->WritePage(0, page).ok());
  }
  {
    auto store = FilePageStore::Open(path);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->num_pages(), 1u);
    Page out;
    ASSERT_TRUE((*store)->ReadPage(0, &out).ok());
    EXPECT_STREQ(out.data, "persisted");
  }
  std::filesystem::remove(path);
}

TEST(RowLocationTest, PackUnpackRoundTrip) {
  RowLocation loc{12345, 678};
  RowLocation back = RowLocation::Unpack(loc.Pack());
  EXPECT_EQ(back, loc);
}

/// Runs every buffer-pool case on both backends: the in-memory store and
/// real page files in a temp directory.
class BufferPoolTest
    : public ::testing::TestWithParam<StorageManager::Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == StorageManager::Backend::kFile) {
      dir_ = MakeTempDir("pool");
    }
    storage_ = std::make_unique<StorageManager>(GetParam(), dir_);
    pool_ = std::make_unique<BufferPool>(storage_.get(), 8);
  }
  void TearDown() override {
    pool_ = nullptr;
    storage_ = nullptr;
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  StorageManager& storage() { return *storage_; }
  BufferPool& pool() { return *pool_; }

  std::string dir_;
  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<BufferPool> pool_;
};

INSTANTIATE_TEST_SUITE_P(Backends, BufferPoolTest,
                         ::testing::Values(StorageManager::Backend::kMemory,
                                           StorageManager::Backend::kFile),
                         BackendName);

TEST_P(BufferPoolTest, NewFetchRoundTrip) {
  FileId file = *storage().CreateFile("f");
  PageId id;
  {
    auto guard = pool().NewPage(file, &id);
    ASSERT_TRUE(guard.ok());
    guard->data()[0] = 'a';
    guard->MarkDirty();
  }
  auto guard = pool().FetchPage(file, id);
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(guard->data()[0], 'a');
}

TEST_P(BufferPoolTest, EvictionWritesBackDirtyPages) {
  FileId file = *storage().CreateFile("f");
  // Create far more pages than frames; each gets a distinct first byte.
  std::vector<PageId> ids;
  for (int i = 0; i < 50; ++i) {
    PageId id;
    auto guard = pool().NewPage(file, &id);
    ASSERT_TRUE(guard.ok());
    guard->data()[0] = static_cast<char>('A' + (i % 26));
    guard->MarkDirty();
    ids.push_back(id);
  }
  // All pages readable with correct content after eviction churn.
  for (int i = 0; i < 50; ++i) {
    auto guard = pool().FetchPage(file, ids[i]);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->data()[0], static_cast<char>('A' + (i % 26)));
  }
  EXPECT_GT(pool().stats().writebacks, 0u);
  EXPECT_GT(pool().stats().misses, 0u);
}

TEST_P(BufferPoolTest, HitCounting) {
  FileId file = *storage().CreateFile("f");
  PageId id;
  pool().NewPage(file, &id)->Release();
  pool().ResetStats();
  for (int i = 0; i < 5; ++i) {
    auto g = pool().FetchPage(file, id);
    ASSERT_TRUE(g.ok());
  }
  EXPECT_EQ(pool().stats().hits, 5u);
  EXPECT_EQ(pool().stats().misses, 0u);
}

TEST_P(BufferPoolTest, AllFramesPinnedIsResourceExhausted) {
  FileId file = *storage().CreateFile("f");
  std::vector<PageGuard> guards;
  for (size_t i = 0; i < pool().capacity(); ++i) {
    PageId id;
    auto g = pool().NewPage(file, &id);
    ASSERT_TRUE(g.ok());
    guards.push_back(std::move(*g));
  }
  PageId id;
  auto g = pool().NewPage(file, &id);
  EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted);
}

// Regression: move-assigning onto a guard that already holds a pin must
// release that pin. A leak here permanently wedges a frame.
TEST_P(BufferPoolTest, MoveAssignReleasesHeldPin) {
  FileId file = *storage().CreateFile("f");
  std::vector<PageGuard> guards;
  for (size_t i = 0; i < pool().capacity(); ++i) {
    PageId id;
    auto g = pool().NewPage(file, &id);
    ASSERT_TRUE(g.ok());
    guards.push_back(std::move(*g));
  }
  PageId id;
  EXPECT_EQ(pool().NewPage(file, &id).status().code(),
            StatusCode::kResourceExhausted);
  // Overwriting guards[0] unpins its frame, so exactly one frame becomes
  // evictable and the pool can admit a new page again.
  guards[0] = std::move(guards[1]);
  EXPECT_TRUE(guards[0].valid());
  EXPECT_FALSE(guards[1].valid());
  auto admitted = pool().NewPage(file, &id);
  EXPECT_TRUE(admitted.ok()) << admitted.status().ToString();
}

// Regression: self-move-assignment must keep the guard intact — neither
// dropping the pin nor double-unpinning on destruction.
TEST_P(BufferPoolTest, SelfMoveAssignKeepsPin) {
  FileId file = *storage().CreateFile("f");
  PageId id;
  auto g = pool().NewPage(file, &id);
  ASSERT_TRUE(g.ok());
  PageGuard guard = std::move(*g);
  guard.data()[0] = 'z';
  guard.MarkDirty();
  PageGuard& alias = guard;
  guard = std::move(alias);
  ASSERT_TRUE(guard.valid());
  EXPECT_EQ(guard.data()[0], 'z');
  // Exactly one pin is held: this Release would CHECK-fail on an unpinned
  // frame if the self-move had already unpinned it.
  guard.Release();
  auto again = pool().FetchPage(file, id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->data()[0], 'z');
}

TEST_P(BufferPoolTest, FlushAllPersistsToStore) {
  FileId file = *storage().CreateFile("f");
  PageId id;
  {
    auto g = pool().NewPage(file, &id);
    g->data()[7] = 'z';
    g->MarkDirty();
  }
  ASSERT_TRUE(pool().FlushAll().ok());
  Page raw;
  ASSERT_TRUE(storage().GetStore(file)->ReadPage(id, &raw).ok());
  EXPECT_EQ(raw.data[7], 'z');
}

class HeapFileTest
    : public ::testing::TestWithParam<StorageManager::Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == StorageManager::Backend::kFile) {
      dir_ = MakeTempDir("heap");
    }
    storage_ = std::make_unique<StorageManager>(GetParam(), dir_);
    pool_ = std::make_unique<BufferPool>(storage_.get(), 64);
    file_ = *storage_->CreateFile("heap");
    heap_ = std::make_unique<HeapFile>(pool_.get(), file_);
  }
  void TearDown() override {
    heap_ = nullptr;
    pool_ = nullptr;
    storage_ = nullptr;
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  StorageManager& storage() { return *storage_; }
  BufferPool& pool() { return *pool_; }

  std::string dir_;
  std::unique_ptr<StorageManager> storage_;
  std::unique_ptr<BufferPool> pool_;
  FileId file_;
  std::unique_ptr<HeapFile> heap_;
};

INSTANTIATE_TEST_SUITE_P(Backends, HeapFileTest,
                         ::testing::Values(StorageManager::Backend::kMemory,
                                           StorageManager::Backend::kFile),
                         BackendName);

TEST_P(HeapFileTest, InsertGetRoundTrip) {
  auto loc = heap_->Insert("hello world");
  ASSERT_TRUE(loc.ok());
  auto rec = heap_->Get(*loc);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(*rec, "hello world");
}

TEST_P(HeapFileTest, ManyRecordsSpanPages) {
  std::map<uint64_t, std::string> expected;
  for (int i = 0; i < 2000; ++i) {
    std::string rec = "record-" + std::to_string(i) +
                      std::string(static_cast<size_t>(i % 97), 'x');
    auto loc = heap_->Insert(rec);
    ASSERT_TRUE(loc.ok());
    expected[loc->Pack()] = rec;
  }
  for (const auto& [packed, rec] : expected) {
    auto got = heap_->Get(RowLocation::Unpack(packed));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, rec);
  }
}

TEST_P(HeapFileTest, OverflowRecordRoundTrip) {
  // Larger than one page: exercises the overflow chain.
  std::string big(3 * kPageSize + 123, 'q');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + i % 26);
  }
  auto loc = heap_->Insert(big);
  ASSERT_TRUE(loc.ok());
  auto rec = heap_->Get(*loc);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(*rec, big);
}

TEST_P(HeapFileTest, DeleteMakesRecordUnreachable) {
  auto loc = heap_->Insert("doomed");
  ASSERT_TRUE(loc.ok());
  ASSERT_TRUE(heap_->Delete(*loc).ok());
  EXPECT_TRUE(heap_->Get(*loc).status().IsNotFound());
  EXPECT_TRUE(heap_->Delete(*loc).IsNotFound());
}

TEST_P(HeapFileTest, UpdateInPlaceKeepsLocation) {
  auto loc = heap_->Insert("0123456789");
  ASSERT_TRUE(loc.ok());
  auto new_loc = heap_->Update(*loc, "01234");
  ASSERT_TRUE(new_loc.ok());
  EXPECT_EQ(*new_loc, *loc);
  EXPECT_EQ(*heap_->Get(*new_loc), "01234");
}

TEST_P(HeapFileTest, UpdateGrowingRecordStaysAddressable) {
  auto loc = heap_->Insert("tiny");
  ASSERT_TRUE(loc.ok());
  std::string bigger(500, 'b');
  auto new_loc = heap_->Update(*loc, bigger);
  ASSERT_TRUE(new_loc.ok());
  EXPECT_EQ(*heap_->Get(*new_loc), bigger);
  // The old location is either dead or (when the freed slot was reused
  // in place) now holds the new record — never the stale one.
  auto old = heap_->Get(*loc);
  EXPECT_TRUE(old.status().IsNotFound() || *old == bigger);
}

TEST_P(HeapFileTest, RepeatedGrowingUpdatesReuseSpace) {
  // The summary-storage pattern: one record rewritten slightly larger
  // hundreds of times. With slot headroom + compaction + overflow reuse,
  // the file stays near the final record size instead of the sum of all
  // intermediate sizes.
  auto loc = heap_->Insert("x");
  ASSERT_TRUE(loc.ok());
  RowLocation cur = *loc;
  std::string record;
  for (int i = 0; i < 400; ++i) {
    record.append(100, static_cast<char>('a' + i % 26));
    auto new_loc = heap_->Update(cur, record);
    ASSERT_TRUE(new_loc.ok());
    cur = *new_loc;
  }
  EXPECT_EQ(*heap_->Get(cur), record);
  // Final record ~40 KB; the sum of intermediates is ~8 MB. Allow a
  // generous 8x final-size footprint — far below the no-reuse blowup.
  const uint64_t file_bytes = storage().GetStore(file_)->size_bytes();
  EXPECT_LT(file_bytes, 8 * 400 * 100 + 64 * 1024) << file_bytes;
}

TEST_P(HeapFileTest, ScanSeesLiveRecordsOnly) {
  std::vector<RowLocation> locs;
  for (int i = 0; i < 100; ++i) {
    locs.push_back(*heap_->Insert("rec" + std::to_string(i)));
  }
  for (int i = 0; i < 100; i += 2) ASSERT_TRUE(heap_->Delete(locs[i]).ok());

  int count = 0;
  auto it = heap_->Scan();
  RowLocation loc;
  std::string rec;
  while (it.Next(&loc, &rec)) {
    EXPECT_EQ(rec.substr(0, 3), "rec");
    const int i = std::stoi(rec.substr(3));
    EXPECT_EQ(i % 2, 1) << "deleted record visible in scan";
    ++count;
  }
  EXPECT_EQ(count, 50);
}

TEST_P(HeapFileTest, ScanReassemblesOverflowRecords) {
  std::string big(2 * kPageSize, 'Z');
  heap_->Insert("small-one").status();
  heap_->Insert(big).status();
  heap_->Insert("small-two").status();

  int smalls = 0;
  int bigs = 0;
  auto it = heap_->Scan();
  RowLocation loc;
  std::string rec;
  while (it.Next(&loc, &rec)) {
    if (rec.size() == big.size()) {
      EXPECT_EQ(rec, big);
      ++bigs;
    } else {
      ++smalls;
    }
  }
  EXPECT_EQ(bigs, 1);
  EXPECT_EQ(smalls, 2);
}

// Property sweep: random interleavings of insert/update/delete mirror a
// std::map reference model.
class HeapFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HeapFuzzTest, MatchesReferenceModel) {
  StorageManager storage(StorageManager::Backend::kMemory);
  BufferPool pool(&storage, 128);
  FileId file = *storage.CreateFile("fuzz");
  HeapFile heap(&pool, file);

  Rng rng(GetParam());
  std::map<uint64_t, std::string> model;  // packed loc -> payload
  for (int step = 0; step < 3000; ++step) {
    const int op = static_cast<int>(rng.Uniform(0, 9));
    if (op < 5 || model.empty()) {
      std::string payload(static_cast<size_t>(rng.Uniform(0, 300)),
                          static_cast<char>('a' + rng.Uniform(0, 25)));
      auto loc = heap.Insert(payload);
      ASSERT_TRUE(loc.ok());
      ASSERT_EQ(model.count(loc->Pack()), 0u) << "location reused while live";
      model[loc->Pack()] = payload;
    } else if (op < 7) {
      auto it = model.begin();
      std::advance(it, rng.Uniform(0, static_cast<int64_t>(model.size()) - 1));
      ASSERT_TRUE(heap.Delete(RowLocation::Unpack(it->first)).ok());
      model.erase(it);
    } else {
      auto it = model.begin();
      std::advance(it, rng.Uniform(0, static_cast<int64_t>(model.size()) - 1));
      std::string payload(static_cast<size_t>(rng.Uniform(0, 600)), 'u');
      auto new_loc = heap.Update(RowLocation::Unpack(it->first), payload);
      ASSERT_TRUE(new_loc.ok());
      model.erase(it);
      model[new_loc->Pack()] = payload;
    }
  }
  // Final state: everything retrievable and scan count matches.
  for (const auto& [packed, payload] : model) {
    auto got = heap.Get(RowLocation::Unpack(packed));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, payload);
  }
  size_t scanned = 0;
  auto it = heap.Scan();
  RowLocation loc;
  std::string rec;
  while (it.Next(&loc, &rec)) {
    ++scanned;
    ASSERT_EQ(model.count(loc.Pack()), 1u);
    EXPECT_EQ(model[loc.Pack()], rec);
  }
  EXPECT_EQ(scanned, model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapFuzzTest,
                         ::testing::Values(1, 2, 3, 17, 99));

// ---------- Concurrency (sharded pool) ----------

TEST(BufferPoolConcurrencyTest, ParallelPinUnpinStress) {
  StorageManager storage(StorageManager::Backend::kMemory);
  BufferPool pool(&storage, 64);  // 64 frames -> 16 shards.
  FileId file = *storage.CreateFile("f");
  // 4x more pages than frames so threads continuously evict and reload.
  constexpr int kPages = 256;
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    PageId id;
    auto guard = pool.NewPage(file, &id);
    ASSERT_TRUE(guard.ok());
    std::snprintf(guard->data(), 16, "page-%d", i);
    guard->MarkDirty();
    ids.push_back(id);
  }

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(1000 + t));
      char expect[16];
      for (int op = 0; op < kOpsPerThread; ++op) {
        const int i = static_cast<int>(rng.Uniform(0, kPages - 1));
        auto guard = pool.FetchPage(file, ids[i], LatchMode::kShared);
        if (!guard.ok()) {  // Transient: own shard momentarily all-pinned.
          continue;
        }
        std::snprintf(expect, sizeof(expect), "page-%d", i);
        if (std::string_view(guard->data(), std::strlen(expect)) != expect) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // Every page still intact after the churn.
  for (int i = 0; i < kPages; ++i) {
    auto guard = pool.FetchPage(file, ids[i]);
    ASSERT_TRUE(guard.ok());
    char expect[16];
    std::snprintf(expect, sizeof(expect), "page-%d", i);
    EXPECT_STREQ(guard->data(), expect);
  }
}

TEST(BufferPoolConcurrencyTest, ExclusiveLatchSerializesWriters) {
  StorageManager storage(StorageManager::Backend::kMemory);
  BufferPool pool(&storage, 16);
  FileId file = *storage.CreateFile("f");
  PageId id;
  {
    auto guard = pool.NewPage(file, &id);
    ASSERT_TRUE(guard.ok());
    std::memset(guard->data(), 0, kPageSize);
    guard->MarkDirty();
  }
  // Each writer overwrites the whole first 64 bytes with its own byte
  // under the exclusive latch; shared-latch readers must never observe a
  // torn mix.
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kOps = 500;
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int op = 0; op < kOps; ++op) {
        auto guard = pool.FetchPage(file, id, LatchMode::kExclusive);
        if (!guard.ok()) continue;
        std::memset(guard->data(), 'a' + w, 64);
        guard->MarkDirty();
      }
      stop.store(true);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        auto guard = pool.FetchPage(file, id, LatchMode::kShared);
        if (!guard.ok()) continue;
        const char first = guard->data()[0];
        for (int i = 1; i < 64; ++i) {
          if (guard->data()[i] != first) {
            torn.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(torn.load(), 0);
}

}  // namespace
}  // namespace insight
