#ifndef INSIGHTNOTES_OBS_METRICS_H_
#define INSIGHTNOTES_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace insight {

/// Process-wide instrumentation switch. Every Counter/Gauge/Histogram
/// mutation checks it first with one relaxed atomic load, so a disabled
/// engine pays a predictable branch per instrumentation point and the
/// metric cells are never written (the "untouched when disabled"
/// guarantee the tests pin down). Reads (value(), dumps) work either way.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

namespace obs_internal {

extern std::atomic<bool> g_metrics_enabled;

inline bool Enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Stable small per-thread index used to spread counter increments across
/// cache lines (sharded counters).
inline size_t ThreadSlot() {
  static std::atomic<size_t> next{0};
  thread_local const size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace obs_internal

/// Monotonic event counter, sharded across cache lines so concurrent
/// workers (buffer-pool shards, WAL group commit, morsel workers) do not
/// serialize on one cache line.
class Counter {
 public:
  static constexpr size_t kShards = 8;  // Power of two.

  void Add(uint64_t n = 1) {
    if (!obs_internal::Enabled()) return;
    cells_[obs_internal::ThreadSlot() & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Cell& cell : cells_) cell.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::array<Cell, kShards> cells_;
};

/// Last-value metric (queue depth, durable-LSN lag).
class Gauge {
 public:
  void Set(int64_t v) {
    if (!obs_internal::Enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t d) {
    if (!obs_internal::Enabled()) return;
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Fixed-bucket latency/size histogram: cumulative-style buckets with
/// caller-chosen finite upper bounds plus an implicit +Inf bucket. Lock
/// free; Observe is a linear probe over a handful of bounds plus two
/// relaxed atomics.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  /// Count in bucket i (i == bounds().size() is the +Inf bucket).
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  const std::vector<double>& bounds() const { return bounds_; }

  void Reset();

 private:
  std::vector<double> bounds_;  // Ascending, finite.
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds+1 cells.
  std::atomic<uint64_t> count_{0};
  /// Sum kept as bit-cast double updated by CAS (works without C++20
  /// atomic<double>::fetch_add support on every toolchain).
  std::atomic<uint64_t> sum_bits_{0};
};

/// Named metric registry with Prometheus-style text and JSON snapshot
/// rendering. Registration is idempotent (same name returns the same
/// object) and cheap enough for construction paths; hot paths cache the
/// returned pointer (metrics are never deregistered, so pointers stay
/// valid for the process lifetime).
class MetricsRegistry {
 public:
  /// The engine-wide registry every subsystem publishes into.
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name, std::string help = "");
  Gauge* GetGauge(const std::string& name, std::string help = "");
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds,
                          std::string help = "");

  bool enabled() const { return MetricsEnabled(); }
  void set_enabled(bool enabled) { SetMetricsEnabled(enabled); }

  /// Prometheus text exposition (# HELP / # TYPE / samples).
  std::string ToPrometheus() const;
  /// One JSON object: {"counters":{..},"gauges":{..},"histograms":{..}}.
  std::string ToJson() const;

  /// Zeroes every registered metric (tests and bench arms).
  void ResetAll();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    std::string help;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* Find(const std::string& name);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  // Registration order.
};

/// One handle per engine instrumentation point, resolved once from the
/// global registry. Subsystems call e.g.
/// `EngineMetrics::Get().bufferpool_hits->Add(1)`; when metrics are
/// disabled the Add is a single branch.
struct EngineMetrics {
  // Buffer pool.
  Counter* bufferpool_hits;
  Counter* bufferpool_misses;
  Counter* bufferpool_evictions;
  Counter* bufferpool_writebacks;
  Counter* bufferpool_allocations;
  Counter* bufferpool_latch_waits;
  // Write-ahead log.
  Counter* wal_appends;
  Counter* wal_append_bytes;
  Counter* wal_fsyncs;
  Histogram* wal_group_commit_records;  // Records made durable per fsync.
  Histogram* wal_sync_micros;           // Leader write+fsync latency.
  Gauge* wal_durable_lag;               // last_lsn - durable_lsn.
  Gauge* wal_log_bytes;                 // Size of the log file on disk.
  Histogram* checkpoint_micros;         // Whole-checkpoint latency.
  // Task scheduler.
  Counter* scheduler_submits;
  Counter* scheduler_steals;
  Counter* scheduler_tasks_run;
  Gauge* scheduler_queue_depth;
  // Summary-BTree.
  Counter* sbtree_probes;
  Counter* sbtree_backward_derefs;
  Counter* sbtree_key_inserts;
  Counter* sbtree_key_deletes;
  Counter* sbtree_rebuilds;
  // Data access paths.
  // B-Tree descents (root to leaf): one per Lookup, RangeScan or
  // ScanAll, and one per leaf run of a batched LookupMany, so a batch of
  // sorted keys landing on one leaf counts once. Chained-leaf steps within
  // a walk are not descents and are not counted.
  Counter* btree_probes;
  Counter* heap_pages_scanned;
  Counter* scan_pages_skipped;      // Heap pages pruned by zone maps.
  Counter* zonemap_widenings;       // Page-zone bound widenings on write.
  Counter* zonemap_stale_marks;     // Pages flagged for bound re-derivation.
  Counter* zonemap_page_rebuilds;   // Stale pages re-derived by maintenance.
  // Online statistics (src/stats).
  Counter* stats_sketch_updates;    // DML/summary ops absorbed by sketches.
  Counter* stats_sketch_estimates;  // Operators estimated from the sketch
                                    // tier (EXPLAIN ANALYZE src=sketch).
  Counter* stats_histogram_estimates;  // Operators estimated from the
                                       // ANALYZE histograms.
  Counter* stats_rescans_skipped;  // Feedback re-ANALYZEs skipped because
                                   // the sketches reported low churn.
  // Query layer.
  Counter* queries_total;
  Counter* slow_queries_total;
  Histogram* query_millis;
  Histogram* plan_qerror;  // Estimated-vs-actual q-error per operator.
  // Network service (insightd).
  Counter* net_connections_opened;
  Counter* net_connections_closed;
  Counter* net_connections_rejected;  // Admission-control turn-aways.
  Gauge* net_active_connections;
  Counter* net_requests_total;
  Counter* net_request_errors;
  Counter* net_frames_corrupt;  // Bad CRC / unknown type / oversized.
  Counter* net_idle_disconnects;
  Counter* net_bytes_received;
  Counter* net_bytes_sent;
  Histogram* net_request_millis;

  Gauge* repl_subscribers;        // Live replica subscriptions (primary).
  Counter* repl_records_shipped;  // WAL records sent to replicas.
  Counter* repl_records_applied;  // WAL records applied (replica).
  Gauge* repl_ship_lag;           // durable_lsn - min acked LSN (primary).
  Gauge* repl_applied_lsn;        // Durable applied frontier (replica).
  Counter* repl_reconnects;       // Feed reconnect attempts (replica).
  Counter* repl_wait_lsn_waits;   // Statements that blocked on wait_lsn.

  static EngineMetrics& Get();
};

}  // namespace insight

#endif  // INSIGHTNOTES_OBS_METRICS_H_
