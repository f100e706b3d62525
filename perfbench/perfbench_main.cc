// End-to-end benchmark program for InsightNotes+.
//
//   perfbench --workload <analytics|curation|served> --seed N --seconds S
//             --trace <0|1> [--data-dir DIR] [--trace-dir DIR]
//
// Builds the workload's database (timed: the median of three builds is
// setup_s), serves it from an in-process InsightServer on loopback, and
// drives it with closed-loop InsightClient connections over statement
// streams drawn from the seed: each client sends its next statement only
// after the previous reply arrived and was checked. A failed or wrong
// reply counts as failed.
//
// --trace 0 prints the end-to-end metrics. --trace 1 is the attribution
// run: it replays the same seeded stream with spans recorded around the
// public calls of each layer, reads engine counter deltas at the same
// boundaries, times module functions from outside, and prints the
// per-layer metrics. The last stdout line is always one JSON object with
// keys correct, attempted, failed and metrics; earlier lines are the host
// and configuration record and a human-readable report.

#include <malloc.h>
#include <sys/utsname.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_stats.h"
#include "mining/clustream.h"
#include "mining/naive_bayes.h"
#include "mining/snippet.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "sql/parser.h"
#include "workload/birds_workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using insight::Database;
using insight::EngineMetrics;
using insight::InsightClient;
using insight::InsightServer;
using insight::Rng;
using insight::Status;

// ---------------------------------------------------------------------------
// Metric catalogue. Names and units match BENCHMARK.json.

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"stmts_per_s", "1/s"},
    {"rss_mb", "MB"},
    {"read_p50_ms", "ms"},
    {"stored_bytes_per_user_byte", "ratio"},
};

const MetricDef kPerLayer[] = {
    {"net.overhead_us", "us"},
    {"net.bytes_out_per_stmt", "B"},
    {"sql.parse_us", "us"},
    {"sql.inproc_stmts_per_s", "1/s"},
    {"sql.inproc_scaling", "ratio"},
    {"optimizer.plan_us", "us"},
    {"optimizer.qerror_p50", "ratio"},
    {"optimizer.qerror_max", "ratio"},
    {"engine.exec_ms.q_select", "ms"},
    {"engine.exec_ms.q_range", "ms"},
    {"engine.exec_ms.q_topk", "ms"},
    {"engine.exec_ms.q_join", "ms"},
    {"engine.exec_ms.q_keyword", "ms"},
    {"engine.exec_ms.q_filter", "ms"},
    {"engine.self_ms.scan", "ms"},
    {"engine.self_ms.filter", "ms"},
    {"engine.self_ms.sort", "ms"},
    {"engine.self_ms.join", "ms"},
    {"engine.rows_examined_per_row_out", "ratio"},
    {"summary.get_us", "us"},
    {"summary.propagated_rows_per_stmt", "count"},
    {"sindex.search_us", "us"},
    {"sindex.probes_per_stmt", "count"},
    {"sindex.backward_derefs_per_stmt", "count"},
    {"sindex.key_writes_per_annotate", "count"},
    {"index.btree_probes_per_stmt", "count"},
    {"annotation.zoom_us", "us"},
    {"mining.classify_us", "us"},
    {"mining.snippet_us", "us"},
    {"mining.cluster_add_us", "us"},
    {"storage.hit_ratio", "ratio"},
    {"storage.misses_per_stmt", "count"},
    {"storage.evictions_per_stmt", "count"},
    {"storage.writebacks_per_stmt", "count"},
    {"storage.latch_waits_per_stmt", "count"},
    {"storage.pages_scanned_per_stmt", "count"},
    {"storage.skip_ratio", "ratio"},
    {"wal.fsyncs_per_write", "count"},
    {"wal.bytes_per_write", "B"},
    {"wal.sync_p50_us", "us"},
    {"wal.records_per_group", "count"},
    {"txn.aborts_per_write", "count"},
    {"stats.sketch_updates_per_write", "count"},
    {"stats.estimates_per_query", "count"},
    {"obs.trace_overhead", "ratio"},
};

/// Metric values of one run plus the reasons some are unavailable.
class MetricSet {
 public:
  explicit MetricSet(const MetricDef* defs, size_t n) : defs_(defs, defs + n) {}

  void Set(const std::string& name, double value) { values_[name] = value; }
  /// Records that a metric does not apply to this workload; it reads 0.
  void NotApplicable(const std::string& name, const std::string& why) {
    values_[name] = 0.0;
    reasons_[name] = why;
  }

  /// Prints the reasons, then the result object as the last line.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const auto& [name, why] : reasons_) {
      std::printf("# n/a %s: %s\n", name.c_str(), why.c_str());
    }
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& def : defs_) {
      auto it = values_.find(def.name);
      const double v = it == values_.end() ? 0.0 : it->second;
      if (it == values_.end()) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                     def.name);
      }
      if (!first) out += ", ";
      first = false;
      out += "\"" + std::string(def.name) + "\": {\"value\": " +
             JsonNumber(v) + ", \"unit\": \"" + def.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<MetricDef> defs_;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> reasons_;
};

// ---------------------------------------------------------------------------
// Arguments, host record, small utilities.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string data_dir = ".bench_build/data";
  std::string trace_dir = ".bench_build/traces";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0) ||
          args->seconds > 120) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (key == "--data-dir") {
      args->data_dir = value;
    } else if (key == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A memory figure of this process from /proc/self/status, in MB:
/// "VmHWM" (peak resident set) or "VmRSS" (current).
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintRecord(const Args& args, const Workload& w) {
  utsname uts{};
  ::uname(&uts);
  std::printf(
      "{\"host\": {\"hardware_threads\": %u, \"machine\": %s, \"kernel\": "
      "%s, \"build_type\": %s, \"compiler\": %s}, \"config\": "
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"clients\": %zu, \"thread_budget\": %zu, %s}}\n",
      std::thread::hardware_concurrency(), JsonString(uts.machine).c_str(),
      JsonString(uts.release).c_str(), JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(), JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace, w.clients(),
      w.config().thread_budget, w.ConfigJson().c_str());
}

Reply FromNet(const insight::NetResult& r) {
  return Reply{&r.rows, r.annotations.size()};
}

Reply FromQuery(const insight::QueryResult& r) {
  return Reply{&r.rows, r.annotations.size()};
}

// ---------------------------------------------------------------------------
// Closed-loop load over the wire.

struct Sample {
  int cls = 0;
  double ms = 0;
  size_t client = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
};

/// Outcome tallies shared by every phase of a run.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> aborted{0};

  void Count(bool ok, const Status& status, const std::string& sql) {
    attempted.fetch_add(1);
    if (ok) return;
    if (status.IsAborted()) aborted.fetch_add(1);
    if (failed.fetch_add(1) < 5) {
      std::fprintf(stderr, "perfbench: failed statement (%s): %.160s\n",
                   status.ok() ? "wrong reply" : status.ToString().c_str(),
                   sql.c_str());
    }
  }
};

/// Executes one statement over the wire and checks its reply.
bool ExecuteWire(InsightClient* client, const Op& op, Tally* tally) {
  auto r = client->Execute(op.sql);
  const bool ok = r.ok() && op.check(FromNet(*r));
  tally->Count(ok, r.ok() ? Status::OK() : r.status(), op.sql);
  return ok;
}

struct PhaseResult {
  /// Statements sent inside the measured window, each client's in order.
  std::vector<Sample> samples;
  uint64_t ops = 0;  // All statements of the phase.
  uint64_t writes = 0;
  uint64_t selects = 0;
  std::vector<uint64_t> per_class;
  std::vector<Span> spans;  // One root span per statement when traced.
};

/// Throughput of `clients` concurrent closed loops: `clients` times the
/// median rate of the consecutive blocks of `window` statements each loop
/// completed. A burst of host noise slows a few blocks and leaves the
/// median alone; a block spanning whole mix cycles keeps the statement mix
/// alike in every block. Samples are grouped into loops by Sample::client.
double WindowedRate(const PhaseResult& phase, size_t window, size_t clients) {
  std::map<size_t, std::vector<const Sample*>> by_loop;
  for (const Sample& s : phase.samples) by_loop[s.client].push_back(&s);
  std::vector<double> rates;
  for (const auto& [loop, seq] : by_loop) {
    for (size_t i = window; i <= seq.size(); i += window) {
      const int64_t ns = seq[i - 1]->done_ns - seq[i - window]->sent_ns;
      if (ns > 0) rates.push_back(static_cast<double>(window) * 1e9 / ns);
    }
  }
  return static_cast<double>(clients) * Quantile(std::move(rates), 0.5);
}

/// `clients` closed-loop connections replay their seeded streams; the
/// first `warmup_s` seconds are not measured.
PhaseResult RunClosedLoop(Workload* w, uint16_t port, uint64_t seed,
                          double warmup_s, double seconds, bool trace,
                          Tally* tally) {
  const size_t n = w->clients();
  const std::vector<std::string> names = w->classes();
  const size_t classes = names.size();
  std::vector<PhaseResult> parts(n);
  std::latch connected(static_cast<std::ptrdiff_t>(n) + 1);
  std::atomic<int64_t> window_start{0};
  std::atomic<int64_t> window_end{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      PhaseResult& part = parts[c];
      part.per_class.assign(classes, 0);
      auto conn = InsightClient::Connect("127.0.0.1", port);
      connected.count_down();
      while (!go.load()) std::this_thread::yield();
      if (!conn.ok()) {
        tally->Count(false, conn.status(), "connect");
        return;
      }
      InsightClient* client = conn->get();
      Stream stream(seed, c);
      const int64_t start = window_start.load();
      const int64_t end = window_end.load();
      uint64_t request = (static_cast<uint64_t>(c) << 40) + 1;
      while (true) {
        const int64_t sent = NowNs();
        if (sent >= end) break;
        Op op = w->Next(&stream);
        const int64_t t0 = NowNs();
        ExecuteWire(client, op, tally);
        const int64_t t1 = NowNs();
        ++part.ops;
        ++part.per_class[static_cast<size_t>(op.cls)];
        part.writes += op.write ? 1 : 0;
        part.selects += op.select ? 1 : 0;
        if (t0 >= start) {
          part.samples.push_back(Sample{op.cls,
                                        static_cast<double>(t1 - t0) / 1e6,
                                        c, t0, t1});
        }
        if (trace) {
          Span s;
          s.id = request;
          s.request = request++;
          s.name = names[static_cast<size_t>(op.cls)];
          s.start_ns = t0;
          s.end_ns = t1;
          part.spans.push_back(std::move(s));
        }
      }
    });
  }
  connected.arrive_and_wait();
  const int64_t start = NowNs() + static_cast<int64_t>(warmup_s * 1e9);
  window_start.store(start);
  window_end.store(start + static_cast<int64_t>(seconds * 1e9));
  go.store(true);
  for (auto& t : threads) t.join();

  PhaseResult out;
  out.per_class.assign(classes, 0);
  for (size_t c = 0; c < n; ++c) {
    PhaseResult& part = parts[c];
    out.samples.insert(out.samples.end(), part.samples.begin(),
                       part.samples.end());
    out.spans.insert(out.spans.end(), part.spans.begin(), part.spans.end());
    out.ops += part.ops;
    out.writes += part.writes;
    out.selects += part.selects;
    for (size_t k = 0; k < classes && k < part.per_class.size(); ++k) {
      out.per_class[k] += part.per_class[k];
    }
  }
  return out;
}

/// The same streams through Database::Execute from `threads` threads, no
/// wire; returns statements per second.
double RunInProcess(Workload* w, uint64_t seed, size_t threads,
                    double seconds, Tally* tally) {
  std::atomic<uint64_t> done{0};
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  const int64_t start = NowNs();
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Stream stream(seed ^ 0x5eedULL, t);
      uint64_t txn = 0;
      while (NowNs() < end) {
        Op op = w->Next(&stream);
        auto r = w->db()->Execute(op.sql, &txn);
        const bool ok = r.ok() && op.check(FromQuery(*r));
        tally->Count(ok, r.ok() ? Status::OK() : r.status(), op.sql);
        done.fetch_add(1);
      }
    });
  }
  for (auto& t : pool) t.join();
  return static_cast<double>(done.load()) /
         (static_cast<double>(NowNs() - start) / 1e9);
}

// ---------------------------------------------------------------------------
// Engine counters read at phase boundaries.

struct HistogramState {
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  double sum = 0;
};

HistogramState CaptureHistogram(const insight::Histogram* h) {
  HistogramState s;
  for (size_t i = 0; i <= h->bounds().size(); ++i) {
    s.buckets.push_back(h->bucket(i));
  }
  s.count = h->count();
  s.sum = h->sum();
  return s;
}

/// Median of the observations made between two captures, interpolated
/// inside the bucket it falls in.
double HistogramMedian(const insight::Histogram* h, const HistogramState& a,
                       const HistogramState& b) {
  const uint64_t total = b.count - a.count;
  if (total == 0) return 0.0;
  const double half = static_cast<double>(total) / 2.0;
  double cum = 0;
  const auto& bounds = h->bounds();
  for (size_t i = 0; i < b.buckets.size(); ++i) {
    const double in = static_cast<double>(b.buckets[i] - a.buckets[i]);
    if (in > 0 && cum + in >= half) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      if (i == bounds.size()) return lo;
      return lo + (bounds[i] - lo) * (half - cum) / in;
    }
    cum += in;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

struct Counters {
  std::map<std::string, uint64_t> c;
  HistogramState wal_sync;
  HistogramState wal_group;

  static Counters Capture() {
    const EngineMetrics& m = EngineMetrics::Get();
    Counters s;
    s.c = {
        {"hits", m.bufferpool_hits->value()},
        {"misses", m.bufferpool_misses->value()},
        {"evictions", m.bufferpool_evictions->value()},
        {"writebacks", m.bufferpool_writebacks->value()},
        {"latch_waits", m.bufferpool_latch_waits->value()},
        {"pages_scanned", m.heap_pages_scanned->value()},
        {"pages_skipped", m.scan_pages_skipped->value()},
        {"wal_fsyncs", m.wal_fsyncs->value()},
        {"wal_bytes", m.wal_append_bytes->value()},
        {"sbtree_probes", m.sbtree_probes->value()},
        {"sbtree_derefs", m.sbtree_backward_derefs->value()},
        {"sbtree_key_writes",
         m.sbtree_key_inserts->value() + m.sbtree_key_deletes->value()},
        {"btree_probes", m.btree_probes->value()},
        {"sketch_updates", m.stats_sketch_updates->value()},
        {"estimates", m.stats_sketch_estimates->value() +
                          m.stats_histogram_estimates->value()},
        {"net_bytes_sent", m.net_bytes_sent->value()},
    };
    s.wal_sync = CaptureHistogram(m.wal_sync_micros);
    s.wal_group = CaptureHistogram(m.wal_group_commit_records);
    return s;
  }

  double Delta(const Counters& before, const std::string& key) const {
    return static_cast<double>(c.at(key) - before.c.at(key));
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Attribution: spans around the public calls of each layer.

class SpanLog {
 public:
  uint64_t Begin(const std::string& name, uint64_t parent, uint64_t request) {
    Span s;
    s.id = next_id_++;
    s.parent = parent;
    s.request = request;
    s.name = name;
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void End(uint64_t id) { Find(id)->end_ns = NowNs(); }
  /// Adds a span with given bounds (operator intervals read from EXPLAIN
  /// ANALYZE rather than observed).
  uint64_t Add(const std::string& name, uint64_t parent, uint64_t request,
               int64_t start, int64_t end) {
    Span s;
    s.id = next_id_++;
    s.parent = parent;
    s.request = request;
    s.name = name;
    s.start_ns = start;
    s.end_ns = end;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  Span* Find(uint64_t id) { return &spans_[id - first_id_]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  static constexpr uint64_t first_id_ = 1ULL << 62;  // Disjoint from wire ids.
  uint64_t next_id_ = first_id_;
  std::vector<Span> spans_;
};

/// Parsed EXPLAIN ANALYZE operator line.
struct OperatorLine {
  int depth = 0;
  std::string describe;
  uint64_t rows = 0;
  double time_ms = 0;
  double qerror = -1;  // < 0 when the line carries no estimate.
};

std::vector<OperatorLine> ParseAnalyzed(const std::string& text) {
  std::vector<OperatorLine> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const size_t counters = line.find("  (rows=");
    if (counters == std::string::npos) continue;
    OperatorLine op;
    const size_t indent = line.find_first_not_of(' ');
    op.depth = static_cast<int>(indent / 2);
    op.describe = line.substr(indent, counters - indent);
    unsigned long long rows = 0;
    std::sscanf(line.c_str() + counters, "  (rows=%llu", &rows);
    op.rows = rows;
    const size_t t = line.find("time=", counters);
    if (t != std::string::npos) op.time_ms = std::strtod(line.c_str() + t + 5, nullptr);
    const size_t q = line.find("q-err=", counters);
    if (q != std::string::npos) op.qerror = std::strtod(line.c_str() + q + 6, nullptr);
    out.push_back(std::move(op));
  }
  return out;
}

/// The engine.self_ms bucket of an operator, or "" for other operators.
std::string OperatorKind(const std::string& describe) {
  if (describe.find("Join") != std::string::npos) return "join";
  if (describe.find("Sort") != std::string::npos) return "sort";
  if (describe.find("Scan") != std::string::npos) return "scan";
  if (describe.rfind("Select", 0) == 0 ||
      describe.rfind("SummarySelect", 0) == 0 ||
      describe.rfind("SummaryFilter", 0) == 0) {
    return "filter";
  }
  return "";
}

struct AttributionResult {
  uint64_t selects_analyzed = 0;
  double leaf_rows = 0;
  double root_rows = 0;
  double propagated_rows = 0;
  std::vector<double> qerrors;
};

/// Replays client 0's stream single-threaded for `seconds`, recording per
/// statement: parse; the wire round trip; for reads the in-process
/// Execute; for SELECTs Explain and ExplainAnalyze, whose operator tree
/// becomes child spans laid out serially inside the analyze span.
AttributionResult Attribute(Workload* w, InsightClient* client, uint64_t seed,
                            double seconds, SpanLog* log, Tally* tally) {
  AttributionResult res;
  const std::vector<std::string> names = w->classes();
  Stream stream(seed, 0);
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  uint64_t request = 1ULL << 50;
  uint64_t txn = 0;
  while (NowNs() < end) {
    Op op = w->Next(&stream);
    const uint64_t req = request++;
    const uint64_t root = log->Begin(names[static_cast<size_t>(op.cls)], 0, req);
    uint64_t s = log->Begin("sql.parse", root, req);
    (void)insight::ParseStatement(op.sql);
    log->End(s);
    auto wire = [&] {
      const uint64_t id = log->Begin("net.roundtrip", root, req);
      ExecuteWire(client, op, tally);
      log->End(id);
    };
    auto in_process = [&] {
      const uint64_t id = log->Begin("sql.execute", root, req);
      auto r = w->db()->Execute(op.sql, &txn);
      log->End(id);
      const bool ok = r.ok() && op.check(FromQuery(*r));
      tally->Count(ok, r.ok() ? Status::OK() : r.status(), op.sql);
    };
    // A write runs once, over the wire. A read runs both ways, in turns
    // of order, so warming caches favours neither side of the difference.
    if (op.write) {
      wire();
    } else if (req % 2 == 0) {
      wire();
      in_process();
    } else {
      in_process();
      wire();
    }
    if (op.select) {
      s = log->Begin("optimizer.explain", root, req);
      auto plan = w->db()->Explain(op.sql);
      log->End(s);
      tally->Count(plan.ok(), plan.status(), op.sql);
      const uint64_t analyze = log->Begin("engine.analyze", root, req);
      auto analyzed = w->db()->ExplainAnalyze(op.sql);
      log->End(analyze);
      tally->Count(analyzed.ok(), analyzed.status(), op.sql);
      if (analyzed.ok()) {
        ++res.selects_analyzed;
        const std::vector<OperatorLine> ops = ParseAnalyzed(*analyzed);
        // Stack of (depth, span id, start of the next child).
        std::vector<std::tuple<int, uint64_t, int64_t>> stack;
        const int64_t base = log->Find(analyze)->start_ns;
        for (size_t i = 0; i < ops.size(); ++i) {
          const OperatorLine& o = ops[i];
          while (!stack.empty() && std::get<0>(stack.back()) >= o.depth) {
            stack.pop_back();
          }
          const uint64_t parent = stack.empty() ? analyze : std::get<1>(stack.back());
          int64_t start = base;
          if (!stack.empty()) start = std::get<2>(stack.back());
          const int64_t len = static_cast<int64_t>(o.time_ms * 1e6);
          const uint64_t id =
              log->Add("op." + o.describe, parent, req, start, start + len);
          if (!stack.empty()) std::get<2>(stack.back()) += len;
          stack.emplace_back(o.depth, id, start);
          const bool leaf = i + 1 == ops.size() || ops[i + 1].depth <= o.depth;
          if (leaf) res.leaf_rows += static_cast<double>(o.rows);
          if (o.depth == 0) res.root_rows += static_cast<double>(o.rows);
          if (o.describe.find("propagate") != std::string::npos) {
            res.propagated_rows += static_cast<double>(o.rows);
          }
          if (o.qerror >= 0) res.qerrors.push_back(o.qerror);
        }
      }
    }
    log->End(root);
  }
  return res;
}

/// Microseconds per call of `fn(i)` for i in [0, n), median.
template <typename Fn>
double MedianMicros(size_t n, Fn&& fn) {
  std::vector<double> us;
  us.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t t0 = NowNs();
    fn(i);
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return Quantile(std::move(us), 0.5);
}

/// A classifier trained like the corpus's ClassBird1 instance.
insight::NaiveBayesClassifier TrainClassifier() {
  insight::NaiveBayesClassifier model(
      {"Disease", "Anatomy", "Behavior", "Other"});
  Rng rng(7);
  for (size_t topic = 0; topic < insight::kNumTopics; ++topic) {
    const auto t = static_cast<insight::AnnotationTopic>(topic);
    for (int doc = 0; doc < 6; ++doc) {
      (void)model.Train(insight::GenerateAnnotationText(t, 120, &rng),
                        insight::AnnotationTopicLabel(t));
    }
  }
  return model;
}

void WriteSpans(const Args& args, const std::vector<Span>& spans) {
  std::error_code ec;
  std::filesystem::create_directories(args.trace_dir, ec);
  const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".spans.jsonl";
  std::ofstream out(path, std::ios::trunc);
  const std::vector<int64_t> self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":" << JsonString(s.name)
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"self_ns\":" << self[i] << "}\n";
  }
  std::printf("# spans: %zu written to %s\n", spans.size(), path.c_str());
}

// ---------------------------------------------------------------------------
// The two kinds of run.

struct Server {
  std::unique_ptr<InsightServer> server;
  Status Start(Database* db, size_t io_threads) {
    InsightServer::Options options;
    options.port = 0;
    options.io_threads = io_threads;
    server = std::make_unique<InsightServer>(db, options);
    return server->Start();
  }
  uint16_t port() const { return server->port(); }
  ~Server() {
    if (server) server->Shutdown();
  }
};

/// Builds the workload's database once (timed: that is set-up), derives
/// its expected answers and records its working set against the pool.
Status SetUp(Workload* w, double* seconds) {
  w->Teardown();
  // Hand the dropped database's memory back, so each round's resident set
  // and allocator state start alike.
  ::malloc_trim(0);
  const int64_t t0 = NowNs();
  INSIGHT_RETURN_NOT_OK(w->Setup());
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  INSIGHT_RETURN_NOT_OK(w->Prepare());
  const uint64_t pages = w->PagesAllocated();
  const size_t frames = w->db()->pool()->capacity();
  const bool exceeds = pages > frames;
  std::printf("# working set: %llu pages allocated, %zu buffer-pool frames "
              "(%s; intended: %s)\n",
              static_cast<unsigned long long>(pages), frames,
              exceeds ? "exceeds" : "fits",
              w->exceeds_pool() ? "exceeds" : "fits");
  if (exceeds != w->exceeds_pool()) {
    std::fprintf(stderr,
                 "perfbench: WARNING: %s working set %s the buffer pool "
                 "(%llu pages, %zu frames), not as designed\n",
                 w->name(), exceeds ? "exceeds" : "fits in",
                 static_cast<unsigned long long>(pages), frames);
  }
  return Status::OK();
}

/// Serves the workload's database and runs one closed-loop phase on it.
Status Serve(Workload* w, uint64_t seed, double warmup_s, double seconds,
             bool trace, Tally* tally, PhaseResult* out) {
  Server server;
  INSIGHT_RETURN_NOT_OK(server.Start(w->db(), w->clients()));
  *out = RunClosedLoop(w, server.port(), seed, warmup_s, seconds, trace,
                       tally);
  return Status::OK();
}

void PrintClassReport(const Workload& w, const PhaseResult& phase) {
  const std::vector<std::string> names = w.classes();
  for (size_t k = 0; k < names.size(); ++k) {
    std::vector<double> ms;
    for (const Sample& s : phase.samples) {
      if (static_cast<size_t>(s.cls) == k) ms.push_back(s.ms);
    }
    const double tail = SupportedPercentile(ms.size());
    std::printf("# %-12s n=%-6zu p50=%.3fms", names[k].c_str(), ms.size(),
                Quantile(ms, 0.5));
    if (tail > 50.0) {
      std::printf(" p%g=%.3fms", tail, Quantile(ms, tail / 100.0));
    }
    std::printf("\n");
  }
}

/// Latencies of the samples whose class is one of `classes`.
std::vector<double> LatenciesOf(const PhaseResult& phase,
                                const std::vector<int>& classes) {
  std::vector<double> ms;
  for (const Sample& s : phase.samples) {
    if (std::find(classes.begin(), classes.end(), s.cls) != classes.end()) {
      ms.push_back(s.ms);
    }
  }
  return ms;
}

/// The untraced run: kRounds rounds of set-up followed by a third of the
/// measured seconds on the fresh database. Spreading the window over the
/// whole run samples more of the host's slow and fast spells than one
/// block would, and set-up repeats anyway for setup_s.
int RunUntraced(const Args& args, Workload* w) {
  constexpr int kRounds = 3;
  MetricSet metrics(kEndToEnd, std::size(kEndToEnd));
  Tally tally;
  std::vector<double> setups, stored, rss;
  PhaseResult all;
  for (int round = 0; round < kRounds; ++round) {
    double setup_s = 0;
    PhaseResult phase;
    Status st = SetUp(w, &setup_s);
    if (st.ok()) {
      st = Serve(w, args.seed + 7919ULL * static_cast<uint64_t>(round), 0.5,
                 args.seconds / kRounds, false, &tally, &phase);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
      return 1;
    }
    setups.push_back(setup_s);
    stored.push_back(Ratio(w->StoredBytes(), w->user_bytes()));
    // Resident set of the serving process with the round's database open.
    rss.push_back(StatusMb("VmRSS"));
    std::printf("# round %d: set-up %s s, %llu statements, resident %s MB "
                "(process peak so far %s MB)\n",
                round, JsonNumber(setup_s).c_str(),
                static_cast<unsigned long long>(phase.ops),
                JsonNumber(rss.back()).c_str(),
                JsonNumber(StatusMb("VmHWM")).c_str());
    for (Sample& s : phase.samples) {
      s.client += static_cast<size_t>(round) * w->clients();
      all.samples.push_back(s);
    }
  }
  const std::vector<double> read_ms = LatenciesOf(all, w->read_classes());
  PrintClassReport(*w, all);
  metrics.Set("setup_s", Quantile(setups, 0.5));
  metrics.Set("stmts_per_s",
              WindowedRate(all, w->rate_window(), w->clients()));
  metrics.Set("rss_mb", Quantile(rss, 0.5));
  metrics.Set("read_p50_ms", Quantile(read_ms, 0.5));
  metrics.Set("stored_bytes_per_user_byte", Quantile(stored, 0.5));
  const uint64_t failed = tally.failed.load();
  const bool correct = failed == 0 && !read_ms.empty();
  metrics.Print(correct, tally.attempted.load(), failed);
  return correct ? 0 : 1;
}

int RunTraced(const Args& args, Workload* w) {
  MetricSet metrics(kPerLayer, std::size(kPerLayer));
  Tally tally;
  double setup_s = 0;
  Status st = SetUp(w, &setup_s);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const double half = args.seconds / 2;
  PhaseResult untraced, traced;
  Counters before, after;
  uint64_t aborted = 0;  // Aborted replies in the traced phase.
  AttributionResult attr;
  SpanLog log;
  {
    Server server;
    st = server.Start(w->db(), w->clients());
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: server: %s\n", st.ToString().c_str());
      return 1;
    }
    untraced = RunClosedLoop(w, server.port(), args.seed, 0.5, half, false,
                             &tally);
    before = Counters::Capture();
    aborted = tally.aborted.load();
    traced = RunClosedLoop(w, server.port(), args.seed, 0.5, half, true,
                           &tally);
    after = Counters::Capture();
    aborted = tally.aborted.load() - aborted;
    auto client = InsightClient::Connect("127.0.0.1", server.port());
    if (!client.ok()) {
      std::fprintf(stderr, "perfbench: connect: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    attr = Attribute(w, client->get(), args.seed, args.seconds / 4, &log,
                     &tally);
  }

  // Counter ratios over the traced wire phase.
  const double stmts = static_cast<double>(traced.ops);
  const double writes = static_cast<double>(traced.writes);
  const double selects = static_cast<double>(traced.selects);
  auto d = [&](const char* key) { return after.Delta(before, key); };
  metrics.Set("net.bytes_out_per_stmt", Ratio(d("net_bytes_sent"), stmts));
  metrics.Set("sindex.probes_per_stmt", Ratio(d("sbtree_probes"), stmts));
  metrics.Set("sindex.backward_derefs_per_stmt",
              Ratio(d("sbtree_derefs"), stmts));
  metrics.Set("index.btree_probes_per_stmt", Ratio(d("btree_probes"), stmts));
  const double hits = d("hits"), misses = d("misses");
  metrics.Set("storage.hit_ratio", Ratio(hits, hits + misses));
  metrics.Set("storage.misses_per_stmt", Ratio(misses, stmts));
  metrics.Set("storage.evictions_per_stmt", Ratio(d("evictions"), stmts));
  metrics.Set("storage.writebacks_per_stmt", Ratio(d("writebacks"), stmts));
  metrics.Set("storage.latch_waits_per_stmt", Ratio(d("latch_waits"), stmts));
  metrics.Set("storage.pages_scanned_per_stmt",
              Ratio(d("pages_scanned"), stmts));
  metrics.Set("storage.skip_ratio",
              Ratio(d("pages_skipped"), d("pages_skipped") + d("pages_scanned")));
  metrics.Set("stats.estimates_per_query", Ratio(d("estimates"), selects));

  const std::vector<std::string> classes = w->classes();
  const auto annotate_it = std::find(classes.begin(), classes.end(), "annotate");
  const double annotates =
      annotate_it == classes.end()
          ? 0.0
          : static_cast<double>(
                traced.per_class[static_cast<size_t>(annotate_it - classes.begin())]);
  if (annotates > 0) {
    metrics.Set("sindex.key_writes_per_annotate",
                Ratio(d("sbtree_key_writes"), annotates));
  } else {
    metrics.NotApplicable("sindex.key_writes_per_annotate",
                          "the workload issues no ANNOTATE");
  }
  const EngineMetrics& em = EngineMetrics::Get();
  if (writes > 0) {
    metrics.Set("stats.sketch_updates_per_write",
                Ratio(d("sketch_updates"), writes));
    metrics.Set("txn.aborts_per_write",
                Ratio(static_cast<double>(aborted), writes));
  } else {
    metrics.NotApplicable("stats.sketch_updates_per_write",
                          "read-only workload");
    metrics.NotApplicable("txn.aborts_per_write", "read-only workload");
  }
  if (writes > 0 && w->db()->wal() != nullptr) {
    metrics.Set("wal.fsyncs_per_write", Ratio(d("wal_fsyncs"), writes));
    metrics.Set("wal.bytes_per_write", Ratio(d("wal_bytes"), writes));
    metrics.Set("wal.sync_p50_us",
                HistogramMedian(em.wal_sync_micros, before.wal_sync,
                                after.wal_sync));
    const double groups =
        static_cast<double>(after.wal_group.count - before.wal_group.count);
    metrics.Set("wal.records_per_group",
                Ratio(after.wal_group.sum - before.wal_group.sum, groups));
  } else {
    for (const char* name : {"wal.fsyncs_per_write", "wal.bytes_per_write",
                             "wal.sync_p50_us", "wal.records_per_group"}) {
      metrics.NotApplicable(name, "in-memory, read-only workload: no log");
    }
  }
  const double untraced_rate =
      WindowedRate(untraced, w->rate_window(), w->clients());
  const double traced_rate =
      WindowedRate(traced, w->rate_window(), w->clients());
  metrics.Set("obs.trace_overhead", Ratio(untraced_rate, traced_rate));

  // Span-derived timings from the attribution replay.
  const std::vector<Span>& spans = log.spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<uint64_t, std::map<std::string, int64_t>> per_request;
  std::map<uint64_t, std::string> request_class;
  std::map<std::string, double> self_by_kind;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent == 0) {
      request_class[s.request] = s.name;
      continue;
    }
    if (s.name.rfind("op.", 0) == 0) {
      const std::string kind = OperatorKind(s.name.substr(3));
      if (!kind.empty()) self_by_kind[kind] += static_cast<double>(self[i]);
      continue;
    }
    per_request[s.request][s.name] = s.end_ns - s.start_ns;
  }
  std::vector<double> parse_us, overhead_us, plan_us;
  std::map<std::string, std::vector<double>> exec_ms;
  for (const auto& [req, durations] : per_request) {
    auto get = [&](const char* name) -> int64_t {
      auto it = durations.find(name);
      return it == durations.end() ? -1 : it->second;
    };
    const int64_t parse = get("sql.parse"), rt = get("net.roundtrip"),
                  exec = get("sql.execute"), explain = get("optimizer.explain");
    if (parse >= 0) parse_us.push_back(parse / 1e3);
    if (rt >= 0 && exec >= 0) overhead_us.push_back((rt - exec) / 1e3);
    if (explain >= 0 && parse >= 0) plan_us.push_back((explain - parse) / 1e3);
    if (exec >= 0 && explain >= 0) {
      exec_ms[request_class[req]].push_back((exec - explain) / 1e6);
    }
  }
  metrics.Set("sql.parse_us", Quantile(parse_us, 0.5));
  metrics.Set("net.overhead_us", Quantile(overhead_us, 0.5));
  if (plan_us.empty()) {
    metrics.NotApplicable("optimizer.plan_us", "no SELECT was replayed");
  } else {
    metrics.Set("optimizer.plan_us", Quantile(plan_us, 0.5));
  }
  for (const char* t :
       {"q_select", "q_range", "q_topk", "q_join", "q_keyword", "q_filter"}) {
    const std::string name = std::string("engine.exec_ms.") + t;
    auto it = exec_ms.find(t);
    if (it == exec_ms.end()) {
      metrics.NotApplicable(name, "analytics template; not in this workload");
    } else {
      metrics.Set(name, Quantile(it->second, 0.5));
    }
  }
  const double analyzed = static_cast<double>(attr.selects_analyzed);
  for (const char* kind : {"scan", "filter", "sort", "join"}) {
    metrics.Set(std::string("engine.self_ms.") + kind,
                Ratio(self_by_kind[kind] / 1e6, analyzed));
  }
  metrics.Set("engine.rows_examined_per_row_out",
              Ratio(attr.leaf_rows, attr.root_rows));
  metrics.Set("summary.propagated_rows_per_stmt",
              Ratio(attr.propagated_rows, analyzed));
  metrics.Set("optimizer.qerror_p50", Quantile(attr.qerrors, 0.5));
  metrics.Set("optimizer.qerror_max",
              attr.qerrors.empty()
                  ? 0.0
                  : *std::max_element(attr.qerrors.begin(), attr.qerrors.end()));

  // Module functions timed from outside on sampled inputs.
  Rng rng(args.seed ^ 0xa5a5ULL);
  const std::string table = w->main_table();
  const int64_t rows = static_cast<int64_t>(w->main_rows());
  auto mgr = w->db()->GetManager(table);
  if (mgr.ok()) {
    metrics.Set("summary.get_us", MedianMicros(400, [&](size_t) {
                  (void)(*mgr)->GetSummaries(
                      static_cast<insight::Oid>(rng.Uniform(1, rows)));
                }));
  }
  metrics.Set("annotation.zoom_us", MedianMicros(200, [&](size_t) {
                (void)w->db()->ZoomIn(
                    table, static_cast<insight::Oid>(rng.Uniform(1, rows)),
                    w->zoom_instance());
              }));
  const std::vector<insight::ClassifierProbe> probes = w->SindexProbes();
  auto index = w->db()->GetSummaryIndex("Birds", "ClassBird1");
  if (!probes.empty() && index.ok()) {
    metrics.Set("sindex.search_us", MedianMicros(200, [&](size_t i) {
                  (void)(*index)->Search(probes[i % probes.size()]);
                }));
  } else {
    metrics.NotApplicable("sindex.search_us", "no Summary-BTree in this workload");
  }
  const std::vector<std::string> texts = GenerateTexts(args.seed + 99, 300);
  const insight::NaiveBayesClassifier classifier = TrainClassifier();
  metrics.Set("mining.classify_us", MedianMicros(texts.size(), [&](size_t i) {
                (void)classifier.ClassifyIndex(texts[i]);
              }));
  insight::SnippetSummarizer::Options snippet_options;
  snippet_options.min_chars = 1000;
  snippet_options.max_snippet_chars = 400;
  const insight::SnippetSummarizer snippet(snippet_options);
  std::vector<std::string> long_texts;
  for (const std::string& t : texts) {
    if (snippet.ShouldSummarize(t)) long_texts.push_back(t);
  }
  metrics.Set("mining.snippet_us", MedianMicros(long_texts.size(), [&](size_t i) {
                (void)snippet.Summarize(long_texts[i]);
              }));
  std::vector<insight::TextFeature> features;
  for (const std::string& t : texts) features.push_back(insight::FeaturizeText(t));
  insight::CluStream clusters;
  metrics.Set("mining.cluster_add_us", MedianMicros(features.size(), [&](size_t i) {
                (void)clusters.Add(features[i]);
              }));

  // The stream through Database::Execute, no wire: 1 thread, then N.
  const double slice = std::max(1.0, args.seconds / 8);
  const double one = RunInProcess(w, args.seed, 1, slice, &tally);
  const size_t n = w->inproc_threads();
  if (n > 1) {
    const double many = RunInProcess(w, args.seed, n, slice, &tally);
    metrics.Set("sql.inproc_stmts_per_s", many);
    metrics.Set("sql.inproc_scaling", Ratio(many, one));
    std::printf("# in-process: %s stmts/s at 1 thread, %s at %zu\n",
                JsonNumber(one).c_str(), JsonNumber(many).c_str(), n);
  } else {
    metrics.Set("sql.inproc_stmts_per_s", one);
    metrics.Set("sql.inproc_scaling", 1.0);
    std::printf("# in-process: %s stmts/s at 1 thread (single-writer "
                "workload, scaling fixed at 1)\n",
                JsonNumber(one).c_str());
  }

  std::vector<Span> all = traced.spans;
  all.insert(all.end(), spans.begin(), spans.end());
  WriteSpans(args, all);
  std::printf("# traced phase: %llu statements (%llu writes), untraced %s "
              "stmts/s, traced %s stmts/s\n",
              static_cast<unsigned long long>(traced.ops),
              static_cast<unsigned long long>(traced.writes),
              JsonNumber(untraced_rate).c_str(),
              JsonNumber(traced_rate).c_str());
  const uint64_t failed = tally.failed.load();
  metrics.Print(failed == 0, tally.attempted.load(), failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  for (const MetricDef& def : kEndToEnd) {
    if (!ValidMetricName(def.name)) return 3;
  }
  for (const MetricDef& def : kPerLayer) {
    if (!ValidMetricName(def.name)) return 3;
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <analytics|curation|served> "
                 "--seed N --seconds S --trace <0|1> [--data-dir DIR] "
                 "[--trace-dir DIR]\n");
    return 2;
  }
  WorkloadConfig config;
  config.seed = args.seed;
  config.data_dir = args.data_dir;
  config.thread_budget = std::clamp<size_t>(std::thread::hardware_concurrency(),
                                            1, 4);
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, config);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  PrintRecord(args, *w);
  const int rc = args.trace ? RunTraced(args, w.get()) : RunUntraced(args, w.get());
  w->Teardown();
  return rc;
}
