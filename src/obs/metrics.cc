#include "obs/metrics.h"

#include <cstdio>
#include <cstring>

namespace insight {

namespace obs_internal {
std::atomic<bool> g_metrics_enabled{true};
}  // namespace obs_internal

bool MetricsEnabled() { return obs_internal::Enabled(); }

void SetMetricsEnabled(bool enabled) {
  obs_internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

// ---------- Histogram ----------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double v) {
  if (!obs_internal::Enabled()) return;
  size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t seen = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    double cur;
    std::memcpy(&cur, &seen, 8);
    cur += v;
    uint64_t next;
    std::memcpy(&next, &cur, 8);
    if (sum_bits_.compare_exchange_weak(seen, next,
                                        std::memory_order_relaxed)) {
      break;
    }
  }
}

double Histogram::sum() const {
  const uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  double out;
  std::memcpy(&out, &bits, 8);
  return out;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

// ---------- MetricsRegistry ----------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Entry* MetricsRegistry::Find(const std::string& name) {
  for (auto& entry : entries_) {
    if (entry->name == name) return entry.get();
  }
  return nullptr;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     std::string help) {
  std::lock_guard<std::mutex> lk(mu_);
  if (Entry* e = Find(name)) return e->counter.get();
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = std::move(help);
  entry->kind = Kind::kCounter;
  entry->counter = std::make_unique<Counter>();
  Counter* out = entry->counter.get();
  entries_.push_back(std::move(entry));
  return out;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, std::string help) {
  std::lock_guard<std::mutex> lk(mu_);
  if (Entry* e = Find(name)) return e->gauge.get();
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = std::move(help);
  entry->kind = Kind::kGauge;
  entry->gauge = std::make_unique<Gauge>();
  Gauge* out = entry->gauge.get();
  entries_.push_back(std::move(entry));
  return out;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds,
                                         std::string help) {
  std::lock_guard<std::mutex> lk(mu_);
  if (Entry* e = Find(name)) return e->histogram.get();
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = std::move(help);
  entry->kind = Kind::kHistogram;
  entry->histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  Histogram* out = entry->histogram.get();
  entries_.push_back(std::move(entry));
  return out;
}

namespace {

void AppendNumber(std::string* out, double v) {
  char buf[48];
  // Integral values render without a fraction so counters read naturally.
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  *out += buf;
}

}  // namespace

std::string MetricsRegistry::ToPrometheus() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  for (const auto& entry : entries_) {
    if (!entry->help.empty()) {
      out += "# HELP " + entry->name + " " + entry->help + "\n";
    }
    switch (entry->kind) {
      case Kind::kCounter:
        out += "# TYPE " + entry->name + " counter\n" + entry->name + " ";
        AppendNumber(&out, static_cast<double>(entry->counter->value()));
        out += "\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + entry->name + " gauge\n" + entry->name + " ";
        AppendNumber(&out, static_cast<double>(entry->gauge->value()));
        out += "\n";
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry->histogram;
        out += "# TYPE " + entry->name + " histogram\n";
        uint64_t cumulative = 0;
        for (size_t i = 0; i < h.bounds().size(); ++i) {
          cumulative += h.bucket(i);
          out += entry->name + "_bucket{le=\"";
          AppendNumber(&out, h.bounds()[i]);
          out += "\"} ";
          AppendNumber(&out, static_cast<double>(cumulative));
          out += "\n";
        }
        out += entry->name + "_bucket{le=\"+Inf\"} ";
        AppendNumber(&out, static_cast<double>(h.count()));
        out += "\n" + entry->name + "_sum ";
        AppendNumber(&out, h.sum());
        out += "\n" + entry->name + "_count ";
        AppendNumber(&out, static_cast<double>(h.count()));
        out += "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string counters, gauges, histograms;
  for (const auto& entry : entries_) {
    switch (entry->kind) {
      case Kind::kCounter:
        if (!counters.empty()) counters += ",";
        counters += "\"" + entry->name + "\":";
        AppendNumber(&counters, static_cast<double>(entry->counter->value()));
        break;
      case Kind::kGauge:
        if (!gauges.empty()) gauges += ",";
        gauges += "\"" + entry->name + "\":";
        AppendNumber(&gauges, static_cast<double>(entry->gauge->value()));
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry->histogram;
        if (!histograms.empty()) histograms += ",";
        histograms += "\"" + entry->name + "\":{\"count\":";
        AppendNumber(&histograms, static_cast<double>(h.count()));
        histograms += ",\"sum\":";
        AppendNumber(&histograms, h.sum());
        histograms += ",\"buckets\":[";
        for (size_t i = 0; i <= h.bounds().size(); ++i) {
          if (i > 0) histograms += ",";
          histograms += "[";
          if (i < h.bounds().size()) {
            AppendNumber(&histograms, h.bounds()[i]);
          } else {
            histograms += "\"+Inf\"";
          }
          histograms += ",";
          AppendNumber(&histograms, static_cast<double>(h.bucket(i)));
          histograms += "]";
        }
        histograms += "]}";
        break;
      }
    }
  }
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges +
         "},\"histograms\":{" + histograms + "}}";
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& entry : entries_) {
    switch (entry->kind) {
      case Kind::kCounter:
        entry->counter->Reset();
        break;
      case Kind::kGauge:
        entry->gauge->Reset();
        break;
      case Kind::kHistogram:
        entry->histogram->Reset();
        break;
    }
  }
}

// ---------- EngineMetrics ----------

EngineMetrics& EngineMetrics::Get() {
  static EngineMetrics* metrics = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    auto* m = new EngineMetrics();
    m->bufferpool_hits =
        r.GetCounter("insight_bufferpool_hits_total",
                     "Page requests served from the buffer pool");
    m->bufferpool_misses =
        r.GetCounter("insight_bufferpool_misses_total",
                     "Page requests that read from the backing store");
    m->bufferpool_evictions =
        r.GetCounter("insight_bufferpool_evictions_total",
                     "Valid frames evicted by the clock sweep");
    m->bufferpool_writebacks =
        r.GetCounter("insight_bufferpool_writebacks_total",
                     "Dirty pages written back on eviction or flush");
    m->bufferpool_allocations =
        r.GetCounter("insight_bufferpool_allocations_total",
                     "New pages allocated through the pool");
    m->bufferpool_latch_waits =
        r.GetCounter("insight_bufferpool_latch_waits_total",
                     "Page latch acquisitions that had to block");
    m->wal_appends = r.GetCounter("insight_wal_appends_total",
                                  "Records appended to the log tail");
    m->wal_append_bytes = r.GetCounter("insight_wal_append_bytes_total",
                                       "Framed bytes appended to the log");
    m->wal_fsyncs = r.GetCounter("insight_wal_fsyncs_total",
                                 "Group-commit leader fsyncs");
    m->wal_group_commit_records = r.GetHistogram(
        "insight_wal_group_commit_records", {1, 2, 4, 8, 16, 32, 64, 128, 256},
        "Records made durable per group-commit fsync");
    m->wal_sync_micros = r.GetHistogram(
        "insight_wal_sync_micros",
        {50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000},
        "Leader write+fsync latency in microseconds");
    m->wal_durable_lag =
        r.GetGauge("insight_wal_durable_lag",
                   "Appended-but-not-durable records (last - durable LSN)");
    m->wal_log_bytes = r.GetGauge("insight_wal_log_bytes",
                                  "Bytes of the log file on disk");
    m->checkpoint_micros = r.GetHistogram(
        "insight_checkpoint_micros",
        {1000, 2500, 5000, 10000, 15000, 20000, 30000, 40000, 60000, 80000,
         100000, 250000, 500000, 1000000},
        "Checkpoint latency in microseconds (snapshot, page flush, log "
        "swap)");
    m->scheduler_submits = r.GetCounter("insight_scheduler_submits_total",
                                        "Tasks submitted to the scheduler");
    m->scheduler_steals =
        r.GetCounter("insight_scheduler_steals_total",
                     "Tasks taken from another worker's deque");
    m->scheduler_tasks_run = r.GetCounter("insight_scheduler_tasks_run_total",
                                          "Tasks dequeued for execution");
    m->scheduler_queue_depth =
        r.GetGauge("insight_scheduler_queue_depth",
                   "Queued (not yet started) scheduler tasks");
    m->sbtree_probes = r.GetCounter("insight_sbtree_probes_total",
                                    "Summary-BTree probe evaluations");
    m->sbtree_backward_derefs =
        r.GetCounter("insight_sbtree_backward_derefs_total",
                     "Backward-pointer heap dereferences");
    m->sbtree_key_inserts = r.GetCounter("insight_sbtree_key_inserts_total",
                                         "Maintenance key inserts");
    m->sbtree_key_deletes = r.GetCounter("insight_sbtree_key_deletes_total",
                                         "Maintenance key deletes");
    m->sbtree_rebuilds = r.GetCounter("insight_sbtree_rebuilds_total",
                                      "Count-width widening rebuilds");
    m->btree_probes = r.GetCounter(
        "insight_btree_probes_total",
        "Data B-Tree descents (lookups, range scans, batched-lookup leaves)");
    m->heap_pages_scanned = r.GetCounter("insight_heap_pages_scanned_total",
                                         "Heap pages visited by scans");
    m->scan_pages_skipped =
        r.GetCounter("insight_scan_pages_skipped_total",
                     "Heap pages skipped by zone-map pruning");
    m->zonemap_widenings =
        r.GetCounter("insight_zonemap_widenings_total",
                     "Page-zone bound widenings on the write path");
    m->zonemap_stale_marks =
        r.GetCounter("insight_zonemap_stale_marks_total",
                     "Pages marked stale for bound re-derivation");
    m->zonemap_page_rebuilds =
        r.GetCounter("insight_zonemap_page_rebuilds_total",
                     "Stale pages re-derived by zone-map maintenance");
    m->queries_total =
        r.GetCounter("insight_queries_total", "SELECT statements executed");
    m->slow_queries_total = r.GetCounter(
        "insight_slow_queries_total",
        "Queries at or above the slow-query threshold");
    m->query_millis = r.GetHistogram(
        "insight_query_millis", {1, 5, 10, 50, 100, 500, 1000, 5000},
        "SELECT wall time in milliseconds");
    m->plan_qerror = r.GetHistogram(
        "insight_plan_qerror", {1, 2, 4, 8, 16, 32, 64, 128},
        "Per-operator estimated-vs-actual cardinality q-error");
    m->net_connections_opened =
        r.GetCounter("insight_net_connections_opened_total",
                     "Client connections accepted and adopted by a loop");
    m->net_connections_closed =
        r.GetCounter("insight_net_connections_closed_total",
                     "Client connections closed (any reason)");
    m->net_connections_rejected =
        r.GetCounter("insight_net_connections_rejected_total",
                     "Connections turned away by admission control");
    m->net_active_connections =
        r.GetGauge("insight_net_active_connections",
                   "Currently admitted client sessions");
    m->net_requests_total = r.GetCounter(
        "insight_net_requests_total", "Query frames executed by the server");
    m->net_request_errors =
        r.GetCounter("insight_net_request_errors_total",
                     "Query frames that returned an Error frame");
    m->net_frames_corrupt =
        r.GetCounter("insight_net_frames_corrupt_total",
                     "Frames rejected for bad CRC, unknown type, or size");
    m->net_idle_disconnects =
        r.GetCounter("insight_net_idle_disconnects_total",
                     "Sessions closed by the idle-timeout sweep");
    m->net_bytes_received = r.GetCounter("insight_net_bytes_received_total",
                                         "Bytes read from client sockets");
    m->net_bytes_sent = r.GetCounter("insight_net_bytes_sent_total",
                                     "Bytes written to client sockets");
    m->net_request_millis = r.GetHistogram(
        "insight_net_request_millis", {1, 5, 10, 50, 100, 500, 1000, 5000},
        "Server-side statement wall time in milliseconds");
    m->repl_subscribers = r.GetGauge("insight_repl_subscribers",
                                     "Live replica subscriptions");
    m->repl_records_shipped =
        r.GetCounter("insight_repl_records_shipped_total",
                     "WAL records shipped to replicas");
    m->repl_records_applied =
        r.GetCounter("insight_repl_records_applied_total",
                     "Replicated WAL records applied locally");
    m->repl_ship_lag =
        r.GetGauge("insight_repl_ship_lag",
                   "Durable LSN minus the smallest replica-acked LSN");
    m->repl_applied_lsn = r.GetGauge(
        "insight_repl_applied_lsn", "Durable applied frontier on a replica");
    m->repl_reconnects = r.GetCounter("insight_repl_reconnects_total",
                                      "Replica feed reconnect attempts");
    m->repl_wait_lsn_waits =
        r.GetCounter("insight_repl_wait_lsn_waits_total",
                     "Statements that blocked waiting for a replicated LSN");
    m->stats_sketch_updates =
        r.GetCounter("insight_stats_sketch_updates_total",
                     "DML and summary ops absorbed by the online sketches");
    m->stats_sketch_estimates =
        r.GetCounter("insight_stats_sketch_estimates_total",
                     "Operators whose cardinality came from the sketch tier");
    m->stats_histogram_estimates = r.GetCounter(
        "insight_stats_histogram_estimates_total",
        "Operators whose cardinality came from the ANALYZE histograms");
    m->stats_rescans_skipped = r.GetCounter(
        "insight_stats_rescans_skipped_total",
        "Feedback re-ANALYZEs skipped because sketches reported low churn");
    return m;
  }();
  return *metrics;
}

}  // namespace insight
