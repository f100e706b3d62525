#ifndef INSIGHTNOTES_SQL_DATABASE_H_
#define INSIGHTNOTES_SQL_DATABASE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "annotation/annotation_store.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"
#include "sql/statement_executor.h"
#include "stats/sketch_registry.h"
#include "summary/summary_manager.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"
#include "wal/recovery_manager.h"
#include "wal/replica_applier.h"

namespace insight {

/// The top-level InsightNotes+ engine facade: storage, catalog, annotation
/// and summary managers, summary indexes, optimizer, and the SQL surface.
///
///   Database db;
///   db.CreateTable("Birds", schema);
///   db.DefineClassifier("ClassBird1", labels, training);
///   db.Execute("ALTER TABLE Birds ADD INDEXABLE ClassBird1");
///   db.Execute("ANNOTATE Birds TUPLE 1 WITH 'observed disease'");
///   db.Execute("SELECT * FROM Birds WHERE "
///              "$.getSummaryObject('ClassBird1')"
///              ".getLabelValue('Disease') > 0");
///
/// Statement execution itself lives in StatementExecutor; this class owns
/// *policy*: MVCC transactions (TransactionManager), the DDL gate, WAL
/// journaling, and recovery.
class Database : public ReplayTarget {
 public:
  /// When the write-ahead log is forced to disk.
  enum class WalSyncMode {
    kEveryOp,      // Commit (fsync) after every logged operation.
    kGroupCommit,  // Sync only at statement end / WalSync() / checkpoint;
                   // concurrent committers share one fsync (leader runs
                   // it, followers wait on the durable LSN).
    kNever,        // Tests/benches only: appends without forcing.
  };

  struct Options {
    StorageManager::Backend backend = StorageManager::Backend::kMemory;
    std::string directory;        // File backend and/or WAL.
    size_t buffer_pool_frames = 4096;
    WalSyncMode wal_sync = WalSyncMode::kEveryOp;
    /// >0: automatic fuzzy checkpoint after this many logged operations.
    uint64_t checkpoint_every_ops = 0;
    /// Statements longer than this are rejected with ResourceExhausted
    /// before tokenization, bounding allocation on untrusted input (the
    /// network path feeds Execute() directly).
    size_t max_statement_bytes = 1u << 20;
  };

  Database() : Database(Options{}) {}
  explicit Database(Options options);

  /// Opens (creating if needed) a durable database rooted at `directory`:
  /// recovers from `<directory>/wal.log` (replaying the tail past the
  /// last complete checkpoint; only committed transactions replay), then
  /// attaches the log so further DML is journaled. Page files are derived
  /// state rebuilt by replay — the catalog is logical — so recovery works
  /// even from the log alone.
  static Result<std::unique_ptr<Database>> Open(const std::string& directory,
                                                Options options);
  static Result<std::unique_ptr<Database>> Open(const std::string& directory);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // ---- Schema / data ----

  /// Creates an annotatable relation (annotation store + summary manager
  /// are provisioned automatically).
  Result<Table*> CreateTable(const std::string& name, Schema schema);

  Result<Oid> Insert(const std::string& table, Tuple tuple);

  /// Deletes a tuple, its summary-storage row, and its index entries.
  Status DeleteTuple(const std::string& table, Oid oid);

  // ---- Summary instances ----

  /// Registers an instance prototype usable in `ALTER TABLE .. ADD`.
  Status DefineInstance(SummaryInstance instance);

  /// Convenience: defines a Classifier instance with a Naive Bayes model
  /// trained on (text, label) seed pairs.
  Status DefineClassifier(
      const std::string& name, std::vector<std::string> labels,
      const std::vector<std::pair<std::string, std::string>>& training);
  Status DefineSnippet(const std::string& name,
                       SnippetSummarizer::Options options = {});
  Status DefineCluster(const std::string& name, double min_similarity = 0.3);

  /// `ALTER TABLE <table> ADD [INDEXABLE] <instance>` (Section 4).
  Status LinkInstance(const std::string& table, const std::string& instance,
                      bool indexable);
  Status UnlinkInstance(const std::string& table,
                        const std::string& instance);

  /// Builds a secondary B-Tree index on a data column (the SQL
  /// `CREATE INDEX` routes here so the DDL is journaled).
  Status CreateColumnIndex(const std::string& table,
                           const std::string& column);

  /// Builds the baseline (normalized) index too — comparison arms of the
  /// benches only; production setups use only LinkInstance(indexable).
  Status AddBaselineIndex(const std::string& table,
                          const std::string& instance);

  // ---- Annotations ----

  Result<AnnId> Annotate(const std::string& table, const std::string& text,
                         const std::vector<AnnotationTarget>& targets);
  Status RemoveAnnotation(const std::string& table, AnnId ann);

  /// Zoom-in: raw annotations of one tuple, optionally restricted to one
  /// instance's summary object, and further to one representative of it —
  /// a class label (`label`) or a Rep[] position (`rep_index`), the
  /// paper's "zoom into specific summaries of interest".
  Result<std::vector<Annotation>> ZoomIn(
      const std::string& table, Oid oid, const std::string& instance = "",
      const std::string& label = "", int rep_index = -1,
      const Snapshot& snap = Snapshot::Latest());

  // ---- Queries & transactions ----

  /// Parses, plans, optimizes, and executes one statement under MVCC
  /// snapshot isolation. Readers never block: each SELECT pins a snapshot
  /// of the latest committed state (or its transaction's snapshot) and
  /// runs with no statement gate. Mutating statements are serialized on
  /// the transaction manager's write gate and run inside a transaction —
  /// an implicit per-statement one in autocommit, or the session's
  /// explicit one between BEGIN and COMMIT/ROLLBACK.
  ///
  /// `txn_handle` carries the session's open transaction across calls:
  /// pass 0 when none is open; BEGIN stores the new transaction's id in
  /// it, COMMIT/ROLLBACK clear it. A conflicting write inside a
  /// transaction auto-aborts it (first-writer-wins) and surfaces
  /// kAborted — safe for the client to retry from BEGIN.
  Result<QueryResult> Execute(const std::string& sql, uint64_t* txn_handle);

  /// Single-session convenience: keeps the embedded caller's transaction
  /// handle internally (the CLI and embedded REPL path).
  Result<QueryResult> Execute(const std::string& sql);

  /// The optimized physical plan for a SELECT (EXPLAIN).
  Result<std::string> Explain(const std::string& sql);

  /// EXPLAIN ANALYZE: executes the SELECT batch-at-a-time and returns the
  /// plan annotated with per-operator runtime counters (rows, batches,
  /// inclusive wall-time).
  Result<std::string> ExplainAnalyze(const std::string& sql);

  /// Programmatic path: optimize and run a hand-built logical plan.
  Result<std::vector<Row>> Run(LogicalPtr plan);
  Result<OpPtr> Plan(LogicalPtr plan);

  Status Analyze(const std::string& table);

  /// MVCC policy owner: timestamps, snapshots, conflicts, version GC.
  TransactionManager* txn_manager() { return &txn_mgr_; }

  // ---- Observability ----

  /// Prometheus-style text exposition of every engine metric (buffer
  /// pool, WAL, scheduler, Summary-BTree, access paths, query layer).
  std::string DumpMetrics() const;
  /// The same snapshot as one JSON object
  /// ({"counters":{..},"gauges":{..},"histograms":{..}}).
  std::string DumpMetricsJson() const;

  /// Bounded in-memory log of the slowest SELECTs with their analyzed
  /// plans. Tune via set_threshold_ms()/set_capacity().
  SlowQueryLog* slow_query_log() { return &slow_query_log_; }

  // ---- Durability ----

  /// Fuzzy checkpoint: replaces the log with a fresh file that holds the
  /// records still needed (those of transactions open across the
  /// checkpoint and those a subscribed replica has not acknowledged),
  /// then a logical snapshot of the whole database (CheckpointBegin,
  /// streamed in as it is built), then CheckpointEnd; the data pages are
  /// flushed and synced in between. Recovery restores the latest sealed
  /// snapshot and replays only the log tail after it. Runs under the
  /// write gate so no writer is mid-statement; open transactions are fine
  /// (the snapshot holds committed state only, and their ops replay from
  /// the log if they commit). Error when WAL is off or on a replica.
  Status Checkpoint();

  /// Registers the oldest LSN a reader outside the database (a
  /// replication shipper) still needs; checkpoints keep the log from
  /// there on. An empty function clears it.
  void SetLogRetention(std::function<Lsn()> floor);

  /// Re-derives stale page zone maps on every table (the widen-only write
  /// path loosens bounds; this is the tightening half). Checkpoint runs it
  /// automatically; callers may also invoke it directly after bulk
  /// deletes/aborts to restore skipping effectiveness sooner.
  Status MaintainZoneMaps();

  /// Forces the log to disk (group-commit barrier). OK when WAL is off.
  Status WalSync();

  /// The attached log, or null when this database is not journaled.
  LogManager* wal() { return wal_.get(); }

  /// What recovery did when this database was Open()ed.
  const RecoveryManager::Stats& recovery_stats() const {
    return recovery_stats_;
  }

  // ---- Replication ----

  /// A replica applies a primary's shipped WAL verbatim and serves only
  /// reads; everything else redirects (kReadOnly) to the primary.
  enum class Role { kPrimary, kReplica };

  Role role() const { return role_.load(std::memory_order_acquire); }

  /// Switches into replica mode: statements other than SELECT / EXPLAIN
  /// / ZOOM IN are rejected with kReadOnly, local journaling is
  /// suppressed (shipped records are already log records and are
  /// appended verbatim), and in-flight transaction buffers are primed
  /// from the local log so a stream resuming mid-transaction applies
  /// correctly. Requires a journaled database (Open()).
  Status EnterReplicaMode();

  /// Promotes a replica to primary: journaling resumes and DML/DDL is
  /// accepted again. Buffered ops of transactions the old primary never
  /// committed are dropped — their commit record never shipped, which is
  /// exactly the recovery contract. No-op on a primary.
  Status Promote();

  /// Applies one shipped WAL record: appends it to the local log
  /// verbatim (records must arrive dense at the local next_lsn, so the
  /// replica's log stays a byte-equal window of the primary's) and, when
  /// the record seals an apply unit, applies it inside a local MVCC
  /// transaction so concurrent readers observe the commit atomically. A
  /// kCheckpointEnd also drops the local log prefix it supersedes.
  /// Durability and applied-LSN publication are batched by the caller
  /// (WalSync + AdvanceAppliedLsn).
  Status ApplyReplicated(const WalRecord& rec);

  /// Highest replicated LSN whose effects new snapshots observe.
  Lsn applied_lsn() const {
    return applied_lsn_.load(std::memory_order_acquire);
  }
  void AdvanceAppliedLsn(Lsn lsn);
  /// Blocks until applied_lsn() >= lsn; false on timeout. Primaries
  /// satisfy any wait immediately (their state is the source).
  bool WaitForAppliedLsn(Lsn lsn, std::chrono::milliseconds timeout);

  // ---- ReplayTarget (crash recovery; applies without re-logging) ----

  Status ReplayAnnIdFloor(uint64_t next_ann_id) override;
  Status ReplayCreateTable(const WalCreateTable& op) override;
  Status ReplayCreateIndex(const WalCreateIndex& op) override;
  Status ReplayInsert(const WalInsert& op) override;
  Status ReplayDelete(const WalDelete& op) override;
  Status ReplayDefineInstance(const WalInstanceDef& op) override;
  Status ReplayLinkInstance(const WalLinkInstance& op) override;
  Status ReplayUnlinkInstance(const WalUnlinkInstance& op) override;
  Status ReplayAnnotate(const WalAnnotate& op) override;
  Status ReplayRemoveAnnotation(const WalRemoveAnnotation& op) override;
  Status ReplayStatsSketch(const WalStatsSketch& op) override;

  // ---- Accessors ----

  /// Morsel-worker count the optimizer plans SELECTs for (1 = serial).
  /// Parallel plans appear only above OptimizerOptions'
  /// parallel_row_threshold and never under an ordering operator.
  void SetParallelism(size_t workers) {
    context_.exec_context()->set_parallelism(workers);
  }

  Catalog* catalog() { return &catalog_; }
  QueryContext* context() { return &context_; }
  StorageManager* storage() { return &storage_; }
  BufferPool* pool() { return &pool_; }
  OptimizerOptions& optimizer_options() { return optimizer_options_; }

  Result<Table*> GetTable(const std::string& name) {
    return catalog_.GetTable(name);
  }
  /// Online statistics (HyperLogLog / Count-Min) maintained inline on
  /// the DML path; the optimizer's second estimator tier reads it via
  /// RelationInfo::sketches.
  SketchRegistry* sketch_registry() { return &stats_registry_; }

  Result<SummaryManager*> GetManager(const std::string& table);
  Result<const SummaryBTree*> GetSummaryIndex(const std::string& table,
                                              const std::string& instance);
  Result<const SnippetKeywordIndex*> GetKeywordIndex(
      const std::string& table, const std::string& instance);

 private:
  struct AnnotatedRelation {
    std::unique_ptr<AnnotationStore> store;
    std::unique_ptr<SummaryManager> mgr;
    std::map<std::string, std::unique_ptr<SummaryBTree>> indexes;
    std::map<std::string, std::unique_ptr<BaselineClassifierIndex>>
        baseline_indexes;
    std::map<std::string, std::unique_ptr<SnippetKeywordIndex>>
        keyword_indexes;
  };

  /// Installs the WAL hooks that journal transaction lifecycle records
  /// (kTxnBegin / kTxnCommit / kTxnAbort) into the transaction manager.
  void InstallWalHooks();

  /// The one read path (Execute's SELECT / EXPLAIN / ZOOM IN, Explain,
  /// ExplainAnalyze): the shared DDL gate and one snapshot, never the
  /// write gate, except to re-ANALYZE a table feedback flagged.
  Result<QueryResult> ExecuteRead(const Statement& stmt,
                                  const std::string& sql, SelectMode mode,
                                  uint64_t* txn_handle);
  /// Explain()/ExplainAnalyze(): parse `sql` and read it in `mode`.
  Result<std::string> ExplainRead(const std::string& sql, SelectMode mode);
  /// Runs the feedback re-ANALYZE of `select`'s flagged FROM tables under
  /// the exclusive DDL gate and the write gate.
  Status AnalyzeFlagged(const SelectStatement& select);
  /// Write path of Execute(): DML runs inside a transaction (the
  /// session's or an implicit autocommit one) under the write gate; DDL
  /// requires autocommit and takes the DDL gate exclusively.
  Result<QueryResult> ExecuteWrite(const Statement& stmt,
                                   uint64_t* txn_handle);
  Result<QueryResult> ExecuteBegin(uint64_t* txn_handle);
  Result<QueryResult> ExecuteCommit(uint64_t* txn_handle);
  Result<QueryResult> ExecuteRollback(uint64_t* txn_handle);

  /// Triggers the automatic checkpoint when the op budget is reached.
  /// Never runs while the calling thread is inside a transaction.
  Status MaybeAutoCheckpoint();

  /// ResourceExhausted when `sql` exceeds Options::max_statement_bytes.
  Status CheckStatementSize(const std::string& sql) const;

  /// WAL is live: attached and not currently replaying (replayed ops are
  /// already in the log and must not be re-journaled).
  bool WalEnabled() const { return wal_ != nullptr && !replaying_; }

  /// Appends one record and commits it per the sync mode. Inside a
  /// transaction the record is wrapped as kTxnOp (durability comes from
  /// the commit record); outside one it is a plain record.
  Status LogOp(WalRecordType type, std::string payload);

  /// Stamps the buffer pool with the LSN the next logged op will get, so
  /// pages it dirties cannot be flushed before that record is durable.
  void StampNextLsn() {
    if (WalEnabled()) pool_.SetCurrentLsn(wal_->next_lsn());
  }

  /// Streams the full logical state into `out`'s open record as a
  /// WalSnapshot payload.
  Status BuildSnapshot(LogManager::RewriteWriter* out);

  /// The LSN a log rewrite keeps from: `txn_floor` (what recovery needs)
  /// or the registered retention floor, whichever is older.
  Lsn LogRetentionFloor(Lsn txn_floor) const;

  Status DeleteTupleImpl(const std::string& table, Oid oid);

  /// Applies one sealed apply unit. DML units run inside a local MVCC
  /// transaction (atomic visibility flip at its commit timestamp); DDL
  /// units take the DDL gate exclusively like their primary-side
  /// originals.
  Status ApplyReplicatedUnit(const StreamingReplay::Unit& unit);

  /// Declared first: every other member may still force the log while it
  /// is torn down, so the log must be destroyed last.
  std::unique_ptr<LogManager> wal_;
  Options options_;
  bool replaying_ = false;
  std::atomic<uint64_t> ops_since_checkpoint_{0};
  bool in_checkpoint_ = false;
  /// kTxnBegin LSN of every open transaction, by id, and the retention
  /// floor SetLogRetention registered. Both guarded by the write gate.
  std::map<uint64_t, Lsn> open_txn_begin_lsns_;
  std::function<Lsn()> log_retention_;
  RecoveryManager::Stats recovery_stats_;
  /// WalInstanceDef payloads of instances defined through the typed
  /// Define{Classifier,Snippet,Cluster} API, re-emitted into checkpoint
  /// snapshots (lower-case name -> encoded payload, definition order).
  std::vector<std::pair<std::string, std::string>> instance_def_payloads_;

  /// MVCC policy. Replaces the old coarse statement gate: readers pin
  /// snapshots and never block; writers serialize on txn_mgr_.write_mu().
  TransactionManager txn_mgr_;

  /// Catalog-shape gate: DDL statements (CREATE/ALTER/ANALYZE/CREATE
  /// INDEX) hold it exclusively — they restructure relations_, planner
  /// registrations, and index objects that statements borrow raw pointers
  /// to. Every other statement holds it shared for its duration. This is
  /// NOT the old statement gate: DML vs DML and DML vs SELECT overlap.
  mutable std::shared_mutex ddl_mu_;

  /// The embedded single-session transaction handle (two-arg Execute
  /// callers manage their own). embedded_mu_ serializes the whole
  /// load/execute/store round-trip: two concurrent one-arg Execute
  /// callers must not clobber each other's handle (e.g. two BEGINs
  /// leaving one transaction orphaned open, pinning the GC horizon).
  std::mutex embedded_mu_;
  uint64_t embedded_txn_ = 0;

  /// Replication state. role_ gates Execute; the streaming replay and
  /// the applied-LSN frontier are driven by the single replica feed
  /// thread (readers touch only applied_lsn_/the condvar).
  std::atomic<Role> role_{Role::kPrimary};
  StreamingReplay streaming_replay_;
  std::atomic<Lsn> applied_lsn_{0};
  std::mutex applied_mu_;
  std::condition_variable applied_cv_;

  StorageManager storage_;
  BufferPool pool_;
  Catalog catalog_;
  OptimizerOptions optimizer_options_;
  std::map<std::string, AnnotatedRelation> relations_;  // Lower-case keys.
  std::map<std::string, SummaryInstance> instance_defs_;  // Prototypes.
  /// Online sketches. Declared after relations_: its destructor
  /// deregisters the per-label listeners from the summary managers in
  /// relations_, so it must be destroyed first.
  SketchRegistry stats_registry_;
  SlowQueryLog slow_query_log_;
  // Declared after relations_ deliberately: the context holds live
  // statistics whose destructors deregister from the summary managers
  // inside relations_, so it must be destroyed first.
  QueryContext context_;
  StatementExecutor executor_{this};
};

}  // namespace insight

#endif  // INSIGHTNOTES_SQL_DATABASE_H_
