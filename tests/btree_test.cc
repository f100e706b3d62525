#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "index/btree.h"
#include "index/key_codec.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/storage_manager.h"

namespace insight {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest()
      : storage_(StorageManager::Backend::kMemory), pool_(&storage_, 256) {
    FileId file = *storage_.CreateFile("idx");
    tree_ = std::make_unique<BTree>(*BTree::Create(&pool_, file));
  }

  StorageManager storage_;
  BufferPool pool_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, EmptyTree) {
  EXPECT_EQ(tree_->num_entries(), 0u);
  EXPECT_FALSE(*tree_->Contains("anything"));
  auto it = tree_->ScanAll();
  ASSERT_TRUE(it.ok());
  EXPECT_FALSE(it->Valid());
}

TEST_F(BTreeTest, InsertLookup) {
  ASSERT_TRUE(tree_->Insert("disease:008", 100).ok());
  ASSERT_TRUE(tree_->Insert("disease:002", 200).ok());
  ASSERT_TRUE(tree_->Insert("anatomy:025", 300).ok());
  EXPECT_EQ(tree_->num_entries(), 3u);
  EXPECT_TRUE(*tree_->Contains("disease:008"));
  EXPECT_FALSE(*tree_->Contains("disease:003"));
  auto hits = tree_->Lookup("disease:002");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0], 200u);
}

TEST_F(BTreeTest, DuplicateKeysKeepAllPayloads) {
  for (uint64_t v = 1; v <= 5; ++v) {
    ASSERT_TRUE(tree_->Insert("same", v * 10).ok());
  }
  auto hits = tree_->Lookup("same");
  ASSERT_TRUE(hits.ok());
  std::vector<uint64_t> expected = {10, 20, 30, 40, 50};
  EXPECT_EQ(*hits, expected);  // (key, value) order sorts payloads.
}

TEST_F(BTreeTest, DeleteExactEntry) {
  ASSERT_TRUE(tree_->Insert("k", 1).ok());
  ASSERT_TRUE(tree_->Insert("k", 2).ok());
  ASSERT_TRUE(tree_->Delete("k", 1).ok());
  EXPECT_TRUE(tree_->Delete("k", 1).IsNotFound());
  auto hits = tree_->Lookup("k");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0], 2u);
}

TEST_F(BTreeTest, RangeScanInclusiveExclusive) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        tree_->Insert("key:" + ZeroPad(i, 3), static_cast<uint64_t>(i)).ok());
  }
  // [10, 20] inclusive.
  auto it = tree_->RangeScan("key:010", true, "key:020", true);
  ASSERT_TRUE(it.ok());
  std::vector<uint64_t> got;
  for (; it->Valid(); it->Next()) got.push_back(it->value());
  ASSERT_EQ(got.size(), 11u);
  EXPECT_EQ(got.front(), 10u);
  EXPECT_EQ(got.back(), 20u);

  // (10, 20) exclusive.
  it = tree_->RangeScan("key:010", false, "key:020", false);
  ASSERT_TRUE(it.ok());
  got.clear();
  for (; it->Valid(); it->Next()) got.push_back(it->value());
  ASSERT_EQ(got.size(), 9u);
  EXPECT_EQ(got.front(), 11u);
  EXPECT_EQ(got.back(), 19u);
}

TEST_F(BTreeTest, RangeScanEmptyRange) {
  tree_->Insert("b", 1).ok();
  auto it = tree_->RangeScan("c", true, "d", true);
  ASSERT_TRUE(it.ok());
  EXPECT_FALSE(it->Valid());
  it = tree_->RangeScan("b", false, "b", false);
  ASSERT_TRUE(it.ok());
  EXPECT_FALSE(it->Valid());
}

TEST_F(BTreeTest, SplitsGrowHeight) {
  // Enough entries with sizable keys to force multiple levels.
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(tree_->Insert("key-padded-for-size:" + ZeroPad(i, 8),
                              static_cast<uint64_t>(i))
                    .ok());
  }
  EXPECT_GE(tree_->height(), 2u);
  EXPECT_EQ(tree_->num_entries(), 20000u);
  // Everything still findable and in order.
  auto it = tree_->ScanAll();
  ASSERT_TRUE(it.ok());
  uint64_t expected = 0;
  for (; it->Valid(); it->Next()) {
    EXPECT_EQ(it->value(), expected++);
  }
  EXPECT_EQ(expected, 20000u);
}

TEST_F(BTreeTest, LookupManyDescendsOncePerLeafRun) {
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(tree_->Insert("key:" + ZeroPad(i, 6), i).ok());
  }
  ASSERT_GE(tree_->height(), 2u);
  std::vector<std::string> keys;
  for (int i = 0; i < 10000; i += 2) keys.push_back("key:" + ZeroPad(i, 6));
  Counter* probes = EngineMetrics::Get().btree_probes;
  const uint64_t before = probes->value();
  auto hits = tree_->LookupMany(keys);
  ASSERT_TRUE(hits.ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ((*hits)[i], std::vector<uint64_t>{2 * i});
  }
  // btree_probes counts descents: one per leaf the walk lands on, far
  // fewer than one per key.
  const uint64_t descents = probes->value() - before;
  EXPECT_GE(descents, 2u);
  EXPECT_LE(descents, 40u);

  // Unsorted keys are refused rather than answered wrongly.
  std::swap(keys[0], keys[1]);
  EXPECT_TRUE(tree_->LookupMany(keys).status().IsInvalidArgument());
}

TEST_F(BTreeTest, ReopenPreservesContents) {
  FileId file = *storage_.CreateFile("idx2");
  {
    BTree t = *BTree::Create(&pool_, file);
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(t.Insert("k" + ZeroPad(i, 4), i).ok());
    }
  }
  BTree t = *BTree::Open(&pool_, file);
  EXPECT_EQ(t.num_entries(), 500u);
  EXPECT_TRUE(*t.Contains("k0123"));
}

// A node whose count or one slot offset points outside the page makes
// every operation that reads it return Corruption; none reads or writes
// past the page (asan checks that), and none changes the tree.
TEST_F(BTreeTest, CorruptNodeReturnsCorruption) {
  FileId file = *storage_.CreateFile("corrupt");
  BTree tree = *BTree::Create(&pool_, file);
  const std::string probe = "key:" + ZeroPad(10, 4);
  auto is_corruption = [](const Status& s) {
    return s.code() == StatusCode::kCorruption;
  };
  // Writes 0xFFFF over the u16 at `offset` of `page`, checks every
  // operation on `probe`, then restores the bytes.
  auto corrupt = [&](PageId page, size_t offset, const std::string& what) {
    char saved[2];
    {
      PageGuard guard = *pool_.FetchPage(file, page);
      std::memcpy(saved, guard.data() + offset, 2);
      std::memset(guard.data() + offset, 0xFF, 2);
    }
    EXPECT_TRUE(is_corruption(tree.Lookup(probe).status())) << what;
    const std::vector<std::string> keys = {probe};
    EXPECT_TRUE(is_corruption(tree.LookupMany(keys).status())) << what;
    EXPECT_TRUE(
        is_corruption(tree.RangeScan(probe, true, probe, true).status()))
        << what;
    EXPECT_TRUE(is_corruption(tree.Insert(probe, 99))) << what;
    EXPECT_TRUE(is_corruption(tree.Delete(probe, 10))) << what;
    {
      PageGuard guard = *pool_.FetchPage(file, page);
      std::memcpy(guard.data() + offset, saved, 2);
    }
    EXPECT_EQ(*tree.Lookup(probe), std::vector<uint64_t>{10}) << what;
  };
  // Node header: u8 type, u16 count, u32 next leaf, u32 child 0 (internal
  // only), then the u16 slot offsets.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree.Insert("key:" + ZeroPad(i, 4), i).ok());
  }
  ASSERT_EQ(tree.height(), 1u);  // The root leaf is page 1.
  corrupt(1, 1, "leaf count");
  corrupt(1, 7 + 2 * 10, "leaf slot offset");
  for (int i = 50; i < 3000; ++i) {
    ASSERT_TRUE(tree.Insert("key:" + ZeroPad(i, 4), i).ok());
  }
  // The first split made pages 2 (right leaf) and 3 (the new root).
  ASSERT_EQ(tree.height(), 2u);
  corrupt(3, 1, "internal count");
  corrupt(3, 11, "internal slot offset");
  EXPECT_EQ(tree.num_entries(), 3000u);
}

TEST(BTreeEntryCompareTest, OrdersByKeyThenValue) {
  EXPECT_LT(CompareEntries("a", 9, "b", 1), 0);
  EXPECT_GT(CompareEntries("b", 1, "a", 9), 0);
  EXPECT_LT(CompareEntries("a", 1, "a", 2), 0);
  EXPECT_EQ(CompareEntries("a", 1, "a", 1), 0);
}

TEST(KeyCodecTest, NumericOrderPreserved) {
  const double values[] = {-1e9, -3.5, -1, -0.0, 0.0, 0.25, 1, 7, 1e9};
  for (double a : values) {
    for (double b : values) {
      const bool key_lt =
          EncodeIndexKey(Value::Double(a)) < EncodeIndexKey(Value::Double(b));
      EXPECT_EQ(a < b, key_lt) << a << " vs " << b;
    }
  }
}

TEST(KeyCodecTest, IntAndDoubleSameImage) {
  EXPECT_EQ(EncodeIndexKey(Value::Int(42)),
            EncodeIndexKey(Value::Double(42.0)));
}

TEST(KeyCodecTest, StringOrderPreserved) {
  EXPECT_LT(EncodeIndexKey(Value::String("Anatomy")),
            EncodeIndexKey(Value::String("Behavior")));
}

TEST(KeyCodecTest, NegativeAndPositiveZeroShareOneKey) {
  EXPECT_EQ(EncodeIndexKey(Value::Double(-0.0)),
            EncodeIndexKey(Value::Double(0.0)));
  EXPECT_EQ(EncodeIndexKey(Value::Double(-0.0)),
            EncodeIndexKey(Value::Int(0)));
}

TEST(KeyCodecTest, NanCanonicalizedAboveAllNumbers) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double neg_nan = -qnan;  // Sign-bit NaN: used to bit-invert and
                                 // sort below -inf while +NaN sorted above
                                 // +inf — two keys for "equal" values.
  const std::string nan_key = EncodeIndexKey(Value::Double(qnan));
  EXPECT_EQ(nan_key, EncodeIndexKey(Value::Double(neg_nan)));
  // NaN sorts above every real number (Value::Compare's order) but still
  // below the MaxNumericKey sentinel so numeric range scans cover it.
  const double reals[] = {-std::numeric_limits<double>::infinity(), -1e300,
                          -1.0, 0.0, 1.0, 1e300,
                          std::numeric_limits<double>::infinity()};
  for (double r : reals) {
    EXPECT_GT(nan_key, EncodeIndexKey(Value::Double(r))) << r;
  }
  EXPECT_LT(nan_key, MaxNumericKey());
}

TEST(ValueCompareTest, NanTotalOrder) {
  const Value nan = Value::Double(std::numeric_limits<double>::quiet_NaN());
  const Value neg_nan =
      Value::Double(-std::numeric_limits<double>::quiet_NaN());
  const Value inf = Value::Double(std::numeric_limits<double>::infinity());
  // NaN used to compare "equal" (0) to everything, breaking strict-weak
  // ordering for sorts and B-Tree key comparisons.
  EXPECT_EQ(nan.Compare(nan), 0);
  EXPECT_EQ(nan.Compare(neg_nan), 0);
  EXPECT_GT(nan.Compare(inf), 0);
  EXPECT_GT(nan.Compare(Value::Double(0.0)), 0);
  EXPECT_GT(nan.Compare(Value::Int(1)), 0);
  EXPECT_LT(Value::Double(0.0).Compare(nan), 0);
  EXPECT_LT(Value::Int(-5).Compare(nan), 0);
  // Hash must agree with the equality NaN == NaN.
  EXPECT_EQ(nan.Hash(), neg_nan.Hash());
  EXPECT_EQ(Value::Double(-0.0).Compare(Value::Double(0.0)), 0);
}

TEST(KeyCodecTest, RangeSentinels) {
  EXPECT_LT(MinNumericKey(), EncodeIndexKey(Value::Int(-1000000)));
  EXPECT_GT(MaxNumericKey(), EncodeIndexKey(Value::Int(1000000)));
  // MinStringKey equals the encoding of "" (the smallest string); range
  // scans use it as an inclusive lower bound.
  EXPECT_LE(MinStringKey(), EncodeIndexKey(Value::String("")));
  EXPECT_GT(MaxStringKey(), EncodeIndexKey(Value::String(
                                std::string(100, '\xFF'))));
}

// Property sweep: the tree mirrors a reference multiset of (key, value)
// under random inserts/deletes, across several seeds.
// Differential tests of the tree against std::multimap. The model
// iterates in (key, insertion) order; the tree orders duplicates by
// payload, so every comparison sorts the model's payloads per key.
using Model = std::multimap<std::string, uint64_t>;

std::vector<uint64_t> ModelLookup(const Model& model, const std::string& key) {
  std::vector<uint64_t> out;
  auto [lo, hi] = model.equal_range(key);
  for (auto it = lo; it != hi; ++it) out.push_back(it->second);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, uint64_t>> ModelRange(
    const Model& model, const std::string& lo, bool lo_inclusive,
    const std::string& hi, bool hi_inclusive) {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (const auto& [k, v] : model) {
    if (lo_inclusive ? k < lo : k <= lo) continue;
    if (hi_inclusive ? k > hi : k >= hi) continue;
    out.emplace_back(k, v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// LookupMany over `keys` (sorted here) and Lookup of each key both match
// the model.
void ExpectLookupsMatch(const BTree& tree, const Model& model,
                        std::vector<std::string> keys) {
  std::sort(keys.begin(), keys.end());
  auto many = tree.LookupMany(keys);
  ASSERT_TRUE(many.ok()) << many.status().ToString();
  ASSERT_EQ(many->size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::vector<uint64_t> expected = ModelLookup(model, keys[i]);
    EXPECT_EQ((*many)[i], expected) << "LookupMany key " << keys[i];
    auto one = tree.Lookup(keys[i]);
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(*one, expected) << "Lookup key " << keys[i];
  }
}

void ExpectRangeMatches(const BTree& tree, const Model& model,
                        const std::string& lo, bool lo_inclusive,
                        const std::string& hi, bool hi_inclusive) {
  auto it = tree.RangeScan(lo, lo_inclusive, hi, hi_inclusive);
  ASSERT_TRUE(it.ok());
  std::vector<std::pair<std::string, uint64_t>> got;
  for (; it->Valid(); it->Next()) got.emplace_back(it->key(), it->value());
  EXPECT_EQ(got, ModelRange(model, lo, lo_inclusive, hi, hi_inclusive))
      << (lo_inclusive ? "[" : "(") << lo << ", " << hi
      << (hi_inclusive ? "]" : ")");
}

std::string FuzzKey(int64_t i) { return "k" + ZeroPad(i, 4); }

class BTreeFuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  BTreeFuzzTest()
      : storage_(StorageManager::Backend::kMemory),
        pool_(&storage_, 512),
        file_(*storage_.CreateFile("fuzz")) {
    tree_ = std::make_unique<BTree>(*BTree::Create(&pool_, file_));
  }

  void Insert(const std::string& key, uint64_t value) {
    ASSERT_TRUE(tree_->Insert(key, value).ok());
    model_.emplace(key, value);
  }
  void Erase(Model::iterator it) {
    ASSERT_TRUE(tree_->Delete(it->first, it->second).ok());
    model_.erase(it);
  }

  // The whole tree against the model: ScanAll is strictly ascending by
  // (key, value) and equals it, and LookupMany of every model key returns
  // exactly that key's payloads.
  void ExpectStructureMatches(const BTree& tree) {
    ASSERT_EQ(tree.num_entries(), model_.size());
    auto it = tree.ScanAll();
    ASSERT_TRUE(it.ok()) << it.status().ToString();
    std::vector<std::pair<std::string, uint64_t>> got;
    for (; it->Valid(); it->Next()) {
      if (!got.empty()) {
        ASSERT_LT(CompareEntries(got.back().first, got.back().second,
                                 it->key(), it->value()),
                  0)
            << "ScanAll out of order at entry " << got.size();
      }
      got.emplace_back(it->key(), it->value());
    }
    std::vector<std::pair<std::string, uint64_t>> expected(model_.begin(),
                                                           model_.end());
    std::sort(expected.begin(), expected.end());
    ASSERT_TRUE(got == expected) << got.size() << " entries scanned, "
                                 << expected.size() << " in the model";
    std::vector<std::string> keys;
    for (auto k = model_.begin(); k != model_.end();
         k = model_.upper_bound(k->first)) {
      keys.push_back(k->first);
    }
    ExpectLookupsMatch(tree, model_, keys);
  }

  StorageManager storage_;
  BufferPool pool_;
  FileId file_;
  std::unique_ptr<BTree> tree_;
  Model model_;
};

TEST_P(BTreeFuzzTest, MatchesReferenceModel) {
  Rng rng(GetParam());
  for (int step = 0; step < 5000; ++step) {
    const std::string key = FuzzKey(rng.Uniform(0, 300));
    if (rng.NextBool(0.7) || model_.empty()) {
      Insert(key, static_cast<uint64_t>(rng.Uniform(0, 1 << 20)));
    } else {
      auto it = model_.begin();
      std::advance(it,
                   rng.Uniform(0, static_cast<int64_t>(model_.size()) - 1));
      Erase(it);
    }
  }
  ASSERT_EQ(tree_->num_entries(), model_.size());

  // Full-scan equivalence.
  std::vector<std::pair<std::string, uint64_t>> expected(model_.begin(),
                                                         model_.end());
  std::sort(expected.begin(), expected.end());
  auto it = tree_->ScanAll();
  ASSERT_TRUE(it.ok());
  std::vector<std::pair<std::string, uint64_t>> got;
  for (; it->Valid(); it->Next()) got.emplace_back(it->key(), it->value());
  EXPECT_EQ(got, expected);

  // Random ranges, every mix of strict and inclusive bounds, match the
  // model entry for entry.
  for (int q = 0; q < 50; ++q) {
    std::string lo = FuzzKey(rng.Uniform(0, 300));
    std::string hi = FuzzKey(rng.Uniform(0, 300));
    if (lo > hi) std::swap(lo, hi);
    ExpectRangeMatches(*tree_, model_, lo, rng.NextBool(0.5), hi,
                       rng.NextBool(0.5));
  }

  // Random sorted key lists with repeats, absent keys inside the key
  // space (never inserted, or deleted) and keys below and above it.
  for (int q = 0; q < 20; ++q) {
    std::vector<std::string> keys;
    const int64_t n = rng.Uniform(1, 200);
    for (int64_t i = 0; i < n; ++i) {
      keys.push_back(FuzzKey(rng.Uniform(0, 320)));
    }
    keys.push_back(keys.front());  // A repeat.
    keys.push_back("a");           // Below every key.
    keys.push_back("z");           // Above every key.
    ExpectLookupsMatch(*tree_, model_, keys);
  }
}

TEST_P(BTreeFuzzTest, LookupManyDuplicatesStraddleLeafSplits) {
  // Thousands of entries share one key, interleaved with neighbours, so
  // that key's run spans several leaves and its first leaf also holds
  // smaller keys.
  Rng rng(GetParam());
  for (int i = 0; i < 6000; ++i) {
    if (rng.NextBool(0.6)) {
      Insert(FuzzKey(500), static_cast<uint64_t>(rng.Uniform(0, 1 << 30)));
    } else {
      Insert(FuzzKey(rng.Uniform(0, 1000)),
             static_cast<uint64_t>(rng.Uniform(0, 1 << 30)));
    }
  }
  ASSERT_GE(tree_->height(), 2u);
  ExpectLookupsMatch(*tree_, model_,
                     {FuzzKey(499), FuzzKey(500), FuzzKey(500), FuzzKey(501),
                      "a", "z"});
  std::vector<std::string> all;
  for (int64_t i = 0; i <= 1000; ++i) all.push_back(FuzzKey(i));
  ExpectLookupsMatch(*tree_, model_, all);
  ExpectRangeMatches(*tree_, model_, FuzzKey(500), true, FuzzKey(500), true);
  ExpectRangeMatches(*tree_, model_, FuzzKey(499), false, FuzzKey(501), false);
  ExpectRangeMatches(*tree_, model_, FuzzKey(500), false, FuzzKey(900), true);
}

TEST_P(BTreeFuzzTest, LookupManyAcrossLeavesEmptiedByLazyDeletes) {
  Rng rng(GetParam());
  for (int64_t i = 0; i < 8000; ++i) {
    Insert(FuzzKey(i), static_cast<uint64_t>(rng.Uniform(0, 1 << 20)));
    if (i % 7 == 0) Insert(FuzzKey(i), static_cast<uint64_t>(i));
  }
  // Deletes never merge leaves, so emptying a contiguous middle band and
  // the tail leaves whole leaves behind with no entries.
  const int64_t band_lo = rng.Uniform(1000, 3000);
  const int64_t band_hi = band_lo + rng.Uniform(2000, 3000);
  for (auto it = model_.lower_bound(FuzzKey(band_lo));
       it != model_.end() && it->first <= FuzzKey(band_hi);) {
    auto next = std::next(it);
    Erase(it);
    it = next;
  }
  for (auto it = model_.lower_bound(FuzzKey(7000)); it != model_.end();) {
    auto next = std::next(it);
    Erase(it);
    it = next;
  }
  // Scattered deletes too, so some runs thin out rather than vanish.
  for (int i = 0; i < 500 && !model_.empty(); ++i) {
    auto it = model_.begin();
    std::advance(it, rng.Uniform(0, static_cast<int64_t>(model_.size()) - 1));
    Erase(it);
  }
  ASSERT_EQ(tree_->num_entries(), model_.size());

  std::vector<std::string> all;
  for (int64_t i = 0; i < 8200; i += 1 + rng.Uniform(0, 2)) {
    all.push_back(FuzzKey(i));
  }
  ExpectLookupsMatch(*tree_, model_, all);
  ExpectLookupsMatch(*tree_, model_,
                     {FuzzKey(band_lo - 1), FuzzKey(band_lo),
                      FuzzKey(band_hi), FuzzKey(band_hi + 1), FuzzKey(7999)});
  ExpectRangeMatches(*tree_, model_, FuzzKey(band_lo - 10), true,
                     FuzzKey(band_hi + 10), false);
  ExpectRangeMatches(*tree_, model_, FuzzKey(band_lo), false, FuzzKey(8100),
                     true);
}

// Keys from 1 byte to the 4,096-byte limit (three to a page at the top)
// grow a tree of height >= 4 through internal splits, while interleaved
// deletes thin runs of duplicates, remove whole runs and empty bands of
// leaves. Every batch ends with a whole-tree check against the model, and
// the edited pages are finally read back through a fresh buffer pool.
TEST_P(BTreeFuzzTest, VariableLengthKeysKeepStructure) {
  Rng rng(GetParam());
  // Key i keeps one length, so its repeats are duplicates; lengths below
  // the stem's collide on shared prefixes and make more.
  std::vector<std::string> key_of;
  for (int64_t i = 0; i < 300; ++i) {
    const double kind = rng.NextDouble();
    const int64_t len = kind < 0.2   ? rng.Uniform(1, 16)
                        : kind < 0.5 ? 4096
                                     : rng.Uniform(1, 4096);
    std::string key =
        FuzzKey(i) + std::string(4096, static_cast<char>('a' + i % 26));
    key.resize(static_cast<size_t>(len));
    key_of.push_back(std::move(key));
  }
  uint64_t next_value = 0;
  uint32_t max_height = 0;
  for (int batch = 0; batch < 14; ++batch) {
    const double insert_share = batch < 8 ? 0.85 : 0.6;
    for (int op = 0; op < 200; ++op) {
      const std::string& key = rng.Pick(key_of);
      const double kind = rng.NextDouble();
      if (kind < insert_share || model_.empty()) {
        Insert(key, next_value++);
      } else if (kind < insert_share + 0.02) {
        // A whole run of duplicates.
        auto [lo, hi] = model_.equal_range(key);
        while (lo != hi) Erase(lo++);
      } else if (kind < insert_share + 0.04) {
        // A band of neighbouring entries: empties whole leaves.
        auto it = model_.lower_bound(key);
        for (int n = 0; n < 12 && it != model_.end(); ++n) Erase(it++);
      } else {
        auto it = model_.begin();
        std::advance(
            it, rng.Uniform(0, static_cast<int64_t>(model_.size()) - 1));
        Erase(it);
      }
    }
    max_height = std::max(max_height, tree_->height());
    ExpectStructureMatches(*tree_);
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(max_height, 4u);

  ASSERT_TRUE(pool_.FlushAll().ok());
  BufferPool fresh(&storage_, 64);
  auto reopened = BTree::Open(&fresh, file_);
  ASSERT_TRUE(reopened.ok());
  ExpectStructureMatches(*reopened);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeFuzzTest,
                         ::testing::Values(7, 21, 42, 1234));

}  // namespace
}  // namespace insight
