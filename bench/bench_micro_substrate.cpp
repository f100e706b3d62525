// Micro-benchmarks of the substrate primitives (google-benchmark):
// B-Tree insert/lookup, heap insert/fetch, tuple serialization, Naive
// Bayes classification, whole-word keyword matching, and the summary
// merge kernel. These put numbers on the cost-model constants in
// src/optimizer/optimizer.cc.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "index/btree.h"
#include "mining/naive_bayes.h"
#include "storage/heap_file.h"
#include "summary/summary_algebra.h"
#include "wal/wal_record.h"
#include "workload/birds_workload.h"

namespace insight {
namespace {

void BM_BTreeInsert(benchmark::State& state) {
  StorageManager storage(StorageManager::Backend::kMemory);
  BufferPool pool(&storage, 4096);
  FileId file = *storage.CreateFile("bt");
  BTree tree = std::move(BTree::Create(&pool, file)).ValueOrDie();
  Rng rng(1);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Insert("key:" + ZeroPad(rng.Uniform(0, 999999), 6), i++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeLookup(benchmark::State& state) {
  StorageManager storage(StorageManager::Backend::kMemory);
  BufferPool pool(&storage, 4096);
  FileId file = *storage.CreateFile("bt");
  BTree tree = std::move(BTree::Create(&pool, file)).ValueOrDie();
  for (int64_t i = 0; i < state.range(0); ++i) {
    (void)tree.Insert("key:" + ZeroPad(i, 6), static_cast<uint64_t>(i));
  }
  Rng rng(2);
  for (auto _ : state) {
    auto hits =
        tree.Lookup("key:" + ZeroPad(rng.Uniform(0, state.range(0) - 1), 6));
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup)->Arg(1000)->Arg(10000)->Arg(50000)->Arg(100000);

// One batch of 1,024 random keys, sorted, resolved by a single LookupMany
// walk (one descent per leaf run). Items are keys, so per-key cost is
// 1 / items_per_second, comparable with BM_BTreeLookup's.
void BM_BTreeLookupMany(benchmark::State& state) {
  constexpr int64_t kBatch = 1024;
  StorageManager storage(StorageManager::Backend::kMemory);
  BufferPool pool(&storage, 4096);
  FileId file = *storage.CreateFile("bt");
  BTree tree = std::move(BTree::Create(&pool, file)).ValueOrDie();
  for (int64_t i = 0; i < state.range(0); ++i) {
    (void)tree.Insert("key:" + ZeroPad(i, 6), static_cast<uint64_t>(i));
  }
  Rng rng(2);
  std::vector<std::string> keys;
  for (auto _ : state) {
    state.PauseTiming();
    keys.clear();
    for (int64_t k = 0; k < kBatch; ++k) {
      keys.push_back("key:" + ZeroPad(rng.Uniform(0, state.range(0) - 1), 6));
    }
    std::sort(keys.begin(), keys.end());
    state.ResumeTiming();
    auto hits = tree.LookupMany(keys);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_BTreeLookupMany)->Arg(10000)->Arg(100000);

void BM_HeapInsert(benchmark::State& state) {
  StorageManager storage(StorageManager::Backend::kMemory);
  BufferPool pool(&storage, 4096);
  FileId file = *storage.CreateFile("heap");
  HeapFile heap(&pool, file);
  const std::string record(static_cast<size_t>(state.range(0)), 'r');
  for (auto _ : state) {
    benchmark::DoNotOptimize(heap.Insert(record));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HeapInsert)->Arg(100)->Arg(2000);

void BM_HeapGet(benchmark::State& state) {
  StorageManager storage(StorageManager::Backend::kMemory);
  BufferPool pool(&storage, 4096);
  FileId file = *storage.CreateFile("heap");
  HeapFile heap(&pool, file);
  std::vector<RowLocation> locations;
  for (int i = 0; i < 10000; ++i) {
    locations.push_back(
        std::move(heap.Insert("record-" + std::to_string(i))).ValueOrDie());
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        heap.Get(locations[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(locations.size()) - 1))]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapGet);

void BM_NaiveBayesClassify(benchmark::State& state) {
  NaiveBayesClassifier model({"Disease", "Anatomy", "Behavior", "Other"});
  Rng rng(4);
  for (size_t topic = 0; topic < kNumTopics; ++topic) {
    for (int i = 0; i < 6; ++i) {
      (void)model.Train(
          GenerateAnnotationText(static_cast<AnnotationTopic>(topic), 150,
                                 &rng),
          AnnotationTopicLabel(static_cast<AnnotationTopic>(topic)));
    }
  }
  const std::string doc =
      GenerateAnnotationText(AnnotationTopic::kDisease, 400, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ClassifyIndex(doc));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NaiveBayesClassify);

// Whole-word keyword match over generated snippet-sized texts, as a
// containsSingle/containsUnion predicate runs it: Arg(0) is the reference
// (TokenizeWords, one lower-cased string per word), Arg(1) the in-place
// ContainsWord kernel. The "time/byte" counter is the per-text-byte
// cost in seconds (printed with an SI prefix: "1.5n" is 1.5 ns).
void BM_ContainsWord(benchmark::State& state) {
  Rng rng(7);
  std::vector<std::string> snippets;
  size_t bytes = 0;
  for (int i = 0; i < 256; ++i) {
    snippets.push_back(GenerateAnnotationText(DrawTopic(&rng), 380, &rng));
    bytes += snippets.back().size();
  }
  const bool kernel = state.range(0) == 1;
  for (auto _ : state) {
    size_t hits = 0;
    for (const std::string& text : snippets) {
      if (kernel) {
        hits += ContainsWord(text, "outbreak") ? 1 : 0;
      } else {
        for (const std::string& word : TokenizeWords(text)) {
          if (word == "outbreak") {
            ++hits;
            break;
          }
        }
      }
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["time/byte"] = benchmark::Counter(
      static_cast<double>(bytes) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetBytesProcessed(static_cast<int64_t>(bytes) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ContainsWord)->Arg(0)->Arg(1);

SummaryObject MakeClassifierObject(uint32_t instance, int elements,
                                   Rng* rng) {
  SummaryObject obj;
  obj.instance_id = instance;
  obj.type = SummaryType::kClassifier;
  obj.instance_name = "C";
  obj.reps = {{"A", 0, 0}, {"B", 0, 0}};
  obj.elements.resize(2);
  for (int i = 0; i < elements; ++i) {
    const size_t label = static_cast<size_t>(rng->Uniform(0, 1));
    obj.elements[label].push_back(
        {static_cast<AnnId>(rng->Uniform(1, 10000)), 0x1});
  }
  for (size_t i = 0; i < 2; ++i) {
    std::map<AnnId, uint64_t> dedup;
    for (auto& e : obj.elements[i]) dedup[e.ann_id] |= e.column_mask;
    obj.elements[i].clear();
    for (auto& [id, mask] : dedup) obj.elements[i].push_back({id, mask});
    obj.reps[i].count = static_cast<int64_t>(obj.elements[i].size());
  }
  return obj;
}

void BM_MergeSummaries(benchmark::State& state) {
  Rng rng(5);
  SummarySet left({MakeClassifierObject(1, static_cast<int>(state.range(0)),
                                        &rng)});
  SummarySet right({MakeClassifierObject(1, static_cast<int>(state.range(0)),
                                         &rng)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(MergeSummaries(left, right, 4));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MergeSummaries)->Arg(10)->Arg(100)->Arg(1000);

void BM_SummaryObjectSerialize(benchmark::State& state) {
  Rng rng(6);
  SummaryObject obj = MakeClassifierObject(1, 200, &rng);
  for (auto _ : state) {
    std::string buf;
    obj.Serialize(&buf);
    benchmark::DoNotOptimize(buf);
  }
}
BENCHMARK(BM_SummaryObjectSerialize);

// CRC32 over one buffer: every WAL record, replication frame and
// checkpoint snapshot pays it. Arg = bytes (a small record, a page, a
// large snapshot chunk); bytes_per_second is the kernel's throughput.
void BM_Crc32(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::string data(len, '\0');
  for (char& c : data) c = static_cast<char>(rng.Uniform(0, 255));
  for (auto _ : state) benchmark::DoNotOptimize(Crc32(data));
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(len));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(1 << 20);

}  // namespace
}  // namespace insight

BENCHMARK_MAIN();
