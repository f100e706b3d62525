// The benchmark's three workloads. Each one builds its database from a
// seed, computes the expected answers it checks replies against, and
// produces a closed-loop statement stream per client. See README.md for
// why these three were chosen and which layers each one loads.

#ifndef INSIGHTNOTES_PERFBENCH_WORKLOADS_H_
#define INSIGHTNOTES_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sindex/summary_btree.h"
#include "sql/database.h"

namespace perfbench {

/// A reply reduced to what the checks read; built from a wire NetResult
/// or an in-process QueryResult alike.
struct Reply {
  const std::vector<insight::Tuple>* rows = nullptr;
  size_t annotations = 0;
};

/// One statement of a workload's stream and the check its reply must pass.
struct Op {
  std::string sql;
  int cls = 0;          // Index into Workload::classes().
  bool write = false;   // Mutates state: never executed twice.
  bool select = false;  // A SELECT: EXPLAIN / EXPLAIN ANALYZE apply.
  std::function<bool(const Reply&)> check;
};

/// One client's statement stream: the same (seed, client) replays the
/// same statements, from its first one.
struct Stream {
  Stream(uint64_t seed, size_t client_index)
      : client(client_index),
        rng(seed * 1000003ULL + 101ULL * (client + 1)),
        salt(rng.Next()) {}
  size_t client;
  uint64_t seq = 0;  // Statements drawn so far.
  insight::Rng rng;
  uint64_t salt;  // Seeded offset for choices made in rotation.
};

struct WorkloadConfig {
  uint64_t seed = 1;
  /// Durable workloads create (and remove) their directories under here.
  std::string data_dir;
  /// Client threads / connections the load may use (capped at nproc).
  size_t thread_budget = 1;
};

class Workload {
 public:
  explicit Workload(WorkloadConfig config) : config_(std::move(config)) {}
  virtual ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual const char* name() const = 0;
  /// Statement classes, in the order Op::cls indexes them.
  virtual std::vector<std::string> classes() const = 0;
  /// The classes read_p50_ms is taken from: the workload's short reads.
  virtual std::vector<int> read_classes() const = 0;
  /// Statements per client in one throughput block: whole rotations where
  /// the mix is a rotation, else enough for a random mix to even out.
  virtual size_t rate_window() const = 0;
  virtual size_t clients() const = 0;
  /// Threads for the in-process (no wire) throughput probe; 1 where the
  /// checks keep single-writer state.
  virtual size_t inproc_threads() const { return clients(); }

  /// Builds the database from nothing. Timed by the caller: this is
  /// set-up. Call Teardown() first so dropping an earlier database is not
  /// timed.
  insight::Status Setup();
  /// Drops the database and removes its directory.
  void Teardown();
  /// Derives expected answers and mirrors from the built database.
  virtual insight::Status Prepare() = 0;
  /// The next statement of `stream`.
  Op Next(Stream* stream) {
    Op op = Draw(*stream);
    ++stream->seq;
    return op;
  }

  /// Corpus, instance and flush-policy facts for the configuration record
  /// (a JSON object body without braces).
  virtual std::string ConfigJson() const = 0;
  /// Whether the working set should exceed the buffer pool (else fit).
  virtual bool exceeds_pool() const = 0;

  /// Table sampled by the per-layer summary and zoom timings, its row
  /// count, and the instance to zoom into ("" for none).
  virtual std::string main_table() const = 0;
  virtual size_t main_rows() const = 0;
  virtual std::string zoom_instance() const { return ""; }
  /// Summary-BTree probes this workload issues (empty: no index).
  virtual std::vector<insight::ClassifierProbe> SindexProbes() const {
    return {};
  }

  /// Bytes the database occupies: its directory (pages plus log) when
  /// durable, else its allocated pages.
  double StoredBytes() const;
  /// Raw user bytes ingested so far: tuple values plus annotation text.
  virtual double user_bytes() const { return user_bytes_; }
  /// Pages allocated across all files, against the pool's frames.
  uint64_t PagesAllocated() const;

  insight::Database* db() { return db_.get(); }
  const WorkloadConfig& config() const { return config_; }

 protected:
  virtual insight::Status Build() = 0;
  /// Statement number `stream.seq` of the stream, drawing from its rng.
  virtual Op Draw(Stream& stream) = 0;
  /// Opens a durable database in a fresh directory.
  insight::Status OpenDurable(insight::Database::Options options);
  /// Sums tuple bytes of `table` plus its annotation text bytes.
  insight::Status CountUserBytes(const std::string& table);

  WorkloadConfig config_;
  std::unique_ptr<insight::Database> db_;
  std::string dir_;  // Empty for in-memory databases.
  double user_bytes_ = 0;

 private:
  int setups_ = 0;
};

/// "analytics", "curation" or "served"; null for any other name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       WorkloadConfig config);

/// Annotation texts with the curation length mix (150-2,000 characters,
/// 15% above the 1,000-character snippet threshold), for module timings.
std::vector<std::string> GenerateTexts(uint64_t seed, size_t count);

}  // namespace perfbench

#endif  // INSIGHTNOTES_PERFBENCH_WORKLOADS_H_
