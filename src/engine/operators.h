#ifndef INSIGHTNOTES_ENGINE_OPERATORS_H_
#define INSIGHTNOTES_ENGINE_OPERATORS_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/execution_context.h"
#include "engine/expression.h"
#include "engine/row.h"
#include "engine/row_batch.h"
#include "index/table.h"
#include "sindex/baseline_index.h"
#include "sindex/keyword_index.h"
#include "sindex/summary_btree.h"
#include "summary/summary_algebra.h"
#include "summary/summary_manager.h"

namespace insight {

/// Per-operator runtime counters, maintained by the Open()/NextBatch()
/// wrappers and rendered by EXPLAIN ANALYZE. Both times are inclusive:
/// time spent in this operator's call including its children's.
struct OperatorStats {
  uint64_t rows = 0;     // Rows emitted through NextBatch().
  uint64_t batches = 0;  // Non-empty batches emitted.
  uint64_t next_ns = 0;  // Wall-time inside NextBatch().
  uint64_t open_ns = 0;  // Wall-time inside Open() — pipeline breakers
                         // (sort, joins, aggregate, gather) drain their
                         // input here, so it must be reported too.

  /// Inclusive operator wall time. Monotonic down the tree: every child
  /// Open()/NextBatch() call happens inside the parent's timed calls.
  uint64_t total_ns() const { return open_ns + next_ns; }
};

/// Which statistics tier produced an operator's cardinality estimate.
/// Stamped by the optimizer alongside estimated_rows and rendered by
/// EXPLAIN ANALYZE as `src=histogram|sketch|feedback`.
enum class EstimateSource {
  kNone,       // No estimate / source unknown.
  kHistogram,  // ANALYZE-built histograms (possibly live-folded).
  kSketch,     // Online sketches overrode stale (or missing) histograms.
  kFeedback,   // Histograms rebuilt by the cardinality-feedback loop.
};

/// Lower-case tier name for plan rendering ("histogram", "sketch",
/// "feedback"; empty for kNone).
const char* EstimateSourceName(EstimateSource source);

/// Volcano-style physical operator. Standard SQL operators and the
/// paper's summary-based operators (S, F, J, O) share this interface and
/// mix freely in one plan (Section 3.2).
///
/// Execution is batch-at-a-time: drivers call NextBatch(), which times
/// the call, maintains the runtime counters, and delegates to the
/// operator's NextBatchImpl(). NextBatch() is the only row pull protocol,
/// so every row an operator emits is counted and timed for EXPLAIN
/// ANALYZE and the cardinality-feedback loop.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  /// Prepares the subtree for execution. Non-virtual: times the call into
  /// stats_.open_ns and delegates to the virtual OpenImpl(), so work a
  /// pipeline breaker does up front (draining and materializing its
  /// input) is visible to EXPLAIN ANALYZE instead of vanishing.
  Status Open();
  virtual void Close() {}

  /// Clears `batch` and refills it with up to batch->capacity() rows;
  /// false once the stream is exhausted (the batch comes back empty).
  /// Tags the batch with this operator's output schema.
  Result<bool> NextBatch(RowBatch* batch);

  virtual const Schema& schema() const = 0;
  /// One-line description for EXPLAIN-style plan dumps.
  virtual std::string Describe() const = 0;
  /// Extra EXPLAIN ANALYZE annotation appended after the counters (e.g.
  /// GatherOp's per-worker wall times). Empty for most operators.
  virtual std::string AnalyzeAnnotation() const { return ""; }
  virtual std::vector<PhysicalOperator*> children() const { return {}; }

  /// Multi-line plan rendering rooted at this operator.
  std::string ExplainTree(int indent = 0) const;
  /// ExplainTree plus per-operator runtime counters (rows, batches,
  /// wall-time); render after the plan has run — EXPLAIN ANALYZE.
  std::string ExplainAnalyzeTree(int indent = 0) const;

  /// Threads the shared ExecutionContext through the whole subtree
  /// (batch-size knob; storage handles for lazily-resolving operators).
  void AttachContext(ExecutionContext* ctx);
  ExecutionContext* exec_context() const { return exec_ctx_; }

  /// Batch capacity this plan runs at (the context's knob, or the
  /// RowBatch default when no context is attached).
  size_t batch_capacity() const {
    return exec_ctx_ != nullptr ? exec_ctx_->batch_size()
                                : RowBatch::kDefaultCapacity;
  }

  /// MVCC snapshot this plan reads at (the context's stamp, or the
  /// latest-committed view when no context is attached).
  Snapshot snapshot() const {
    return exec_ctx_ != nullptr ? exec_ctx_->snapshot() : Snapshot::Latest();
  }

  const OperatorStats& stats() const { return stats_; }

  /// Plan-time cardinality estimate, stamped onto the operator by the
  /// optimizer during lowering and diffed against the runtime row count
  /// by EXPLAIN ANALYZE (< 0: no estimate available).
  void set_estimated_rows(double rows) { est_rows_ = rows; }
  double estimated_rows() const { return est_rows_; }
  bool has_estimate() const { return est_rows_ >= 0; }

  /// Which statistics tier produced the estimate; EXPLAIN ANALYZE renders
  /// it as `src=` next to the q-error so misestimates can be attributed.
  void set_estimate_source(EstimateSource source) { est_source_ = source; }
  EstimateSource estimate_source() const { return est_source_; }

  /// Table whose statistics produced the estimate (access paths only);
  /// the cardinality-feedback loop reports misestimates back to it.
  void set_feedback_table(std::string table) {
    feedback_table_ = std::move(table);
  }
  const std::string& feedback_table() const { return feedback_table_; }

 protected:
  /// Per-operator preparation (what Open() used to be). Implementations
  /// call ResetExec() first, then open their children via the public
  /// Open().
  virtual Status OpenImpl() = 0;
  /// Batch production; `batch` arrives cleared. Implementations append
  /// rows until full() or end-of-stream and return !batch->empty().
  virtual Result<bool> NextBatchImpl(RowBatch* batch) = 0;

  /// Resets the per-execution counters; every Open() calls this first.
  void ResetExec() { stats_ = OperatorStats{}; }

  OperatorStats stats_;
  ExecutionContext* exec_ctx_ = nullptr;
  double est_rows_ = -1;
  EstimateSource est_source_ = EstimateSource::kNone;
  std::string feedback_table_;
};

using OpPtr = std::unique_ptr<PhysicalOperator>;

/// Runs a plan to completion, collecting all rows.
Result<std::vector<Row>> CollectRows(PhysicalOperator* root);

// ---------- Scans ----------

/// Heap-scan loop shared by SeqScanOp and ParallelScanOp: moves the live
/// tuples of `it` into `batch` as rows until the batch fills, attaching
/// each row's summary set when `mgr` is non-null. True once `it` runs dry.
Result<bool> ScanHeapInto(Table::Iterator* it, SummaryManager* mgr,
                          Snapshot snapshot, RowBatch* batch);

/// Full heap scan of a user relation; propagates summary objects when a
/// SummaryManager is supplied.
class SeqScanOp : public PhysicalOperator {
 public:
  SeqScanOp(Table* table, SummaryManager* mgr, bool propagate);
  /// Context form: resolves the table's SummaryManager from `ctx`.
  SeqScanOp(ExecutionContext* ctx, Table* table, bool propagate);

  Status OpenImpl() override;
  const Schema& schema() const override { return table_->schema(); }
  std::string Describe() const override;
  /// Pages whose zone maps refute this predicate are skipped before the
  /// buffer-pool fetch (optimizer-attached; empty disables pruning).
  void SetZonePredicate(ZonePredicate pred) { zone_pred_ = std::move(pred); }
  /// EXPLAIN ANALYZE: `pages_skipped=` per scan operator.
  std::string AnalyzeAnnotation() const override;
  uint64_t pages_skipped() const { return pages_skipped_; }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  Table* table_;
  SummaryManager* mgr_;
  bool propagate_;
  std::optional<Table::Iterator> it_;
  ZonePredicate zone_pred_;
  uint64_t pages_skipped_ = 0;
};

/// Data-column B-Tree index scan with an optional [lower, upper] value
/// range (either bound may be absent).
class IndexScanOp : public PhysicalOperator {
 public:
  IndexScanOp(Table* table, std::string column, std::optional<Value> lower,
              bool lower_inclusive, std::optional<Value> upper,
              bool upper_inclusive, SummaryManager* mgr, bool propagate);
  /// Context form: resolves the table's SummaryManager from `ctx`.
  IndexScanOp(ExecutionContext* ctx, Table* table, std::string column,
              std::optional<Value> lower, bool lower_inclusive,
              std::optional<Value> upper, bool upper_inclusive,
              bool propagate);

  Status OpenImpl() override;
  const Schema& schema() const override { return table_->schema(); }
  std::string Describe() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  /// Resolves one index hit: false when the entry is stale for this
  /// snapshot (no visible version, or the visible version's column value
  /// falls outside the probed range) — MVCC column indexes may carry
  /// entries for versions other snapshots see.
  Result<bool> FetchVisible(Oid oid, Tuple* tuple) const;

  Table* table_;
  std::string column_;
  std::optional<Value> lower_;
  bool lower_inclusive_;
  std::optional<Value> upper_;
  bool upper_inclusive_;
  SummaryManager* mgr_;
  bool propagate_;
  std::vector<Oid> oids_;
  size_t pos_ = 0;
  size_t col_pos_ = 0;
  std::string lower_key_;
  std::string upper_key_;
};

/// Summary-BTree index scan: evaluates a classifier probe and emits the
/// matching data tuples in ascending label-count order — the interesting
/// order Rules 3-6 exploit.
class SummaryIndexScanOp : public PhysicalOperator {
 public:
  SummaryIndexScanOp(const SummaryBTree* index, ClassifierProbe probe,
                     SummaryManager* mgr, bool propagate);
  /// Context form: resolves `table`'s SummaryManager from `ctx`.
  SummaryIndexScanOp(ExecutionContext* ctx, const SummaryBTree* index,
                     ClassifierProbe probe, const std::string& table,
                     bool propagate);

  Status OpenImpl() override;
  const Schema& schema() const override;
  std::string Describe() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  const SummaryBTree* index_;
  ClassifierProbe probe_;
  SummaryManager* mgr_;
  bool propagate_;
  std::vector<SummaryIndexHit> hits_;
  size_t pos_ = 0;
};

/// Baseline-scheme index scan (Fig. 4(c) comparison arm). When
/// `reconstruct_summaries` is set, the propagated Classifier object is
/// re-formed from the normalized rows instead of read from the
/// de-normalized storage — the slow path measured in Fig. 12.
class BaselineIndexScanOp : public PhysicalOperator {
 public:
  BaselineIndexScanOp(const BaselineClassifierIndex* index,
                      ClassifierProbe probe, SummaryManager* mgr,
                      bool propagate, bool reconstruct_summaries);

  Status OpenImpl() override;
  const Schema& schema() const override;
  std::string Describe() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  const BaselineClassifierIndex* index_;
  ClassifierProbe probe_;
  SummaryManager* mgr_;
  bool propagate_;
  bool reconstruct_summaries_;
  std::vector<SummaryIndexHit> hits_;
  size_t pos_ = 0;
};

/// Keyword-index scan: intersects the posting lists of the keywords over
/// a Snippet instance's inverted index and emits the matching tuples.
/// Exact for containsUnion predicates; a candidate superset for
/// containsSingle (the optimizer re-applies the predicate as a residual).
class KeywordIndexScanOp : public PhysicalOperator {
 public:
  KeywordIndexScanOp(const SnippetKeywordIndex* index,
                     std::vector<std::string> keywords, SummaryManager* mgr,
                     bool propagate);
  /// Context form: resolves `table`'s SummaryManager from `ctx`.
  KeywordIndexScanOp(ExecutionContext* ctx, const SnippetKeywordIndex* index,
                     std::vector<std::string> keywords,
                     const std::string& table, bool propagate);

  Status OpenImpl() override;
  const Schema& schema() const override;
  std::string Describe() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  const SnippetKeywordIndex* index_;
  std::vector<std::string> keywords_;
  SummaryManager* mgr_;
  bool propagate_;
  std::vector<Oid> oids_;
  size_t pos_ = 0;
};

/// In-memory row source (tests, intermediate materialization).
class VectorSourceOp : public PhysicalOperator {
 public:
  VectorSourceOp(Schema schema, std::vector<Row> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  Status OpenImpl() override {
    ResetExec();
    pos_ = 0;
    return Status::OK();
  }
  const Schema& schema() const override { return schema_; }
  std::string Describe() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override {
    while (!batch->full() && pos_ < rows_.size()) batch->Push(rows_[pos_++]);
    return !batch->empty();
  }

 private:
  Schema schema_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

// ---------- Selection family ----------

/// Standard selection sigma: passes rows whose data predicate holds;
/// summaries propagate unchanged.
class SelectOp : public PhysicalOperator {
 public:
  SelectOp(OpPtr child, ExprPtr predicate);

  Status OpenImpl() override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  OpPtr child_;
  ExprPtr predicate_;
  // Buffered child batch, its predicate flags, and the next input row to
  // consume.
  RowBatch input_;
  std::vector<uint8_t> flags_;
  size_t input_pos_ = 0;
};

/// Summary-based selection S (Section 3.2): passes rows whose
/// summary-based predicate over r.$ holds; all summary objects propagate
/// unchanged. A distinct physical operator (not a UDF) so the optimizer
/// can reason about it.
class SummarySelectOp : public PhysicalOperator {
 public:
  SummarySelectOp(OpPtr child, ExprPtr predicate);

  Status OpenImpl() override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {child_.get()};
  }
  const Expression* predicate() const { return predicate_.get(); }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  OpPtr child_;
  ExprPtr predicate_;
  RowBatch input_;
  std::vector<uint8_t> flags_;
  size_t input_pos_ = 0;
};

/// Object-level predicate for the summary-based filter F. Structural
/// predicates (instance name / summary type) are the pushable kind of
/// Rule 8; `custom` marks non-structural content predicates.
struct ObjectPredicate {
  std::optional<std::string> instance_name;
  std::optional<SummaryType> type;
  std::function<bool(const SummaryObject&)> custom;

  bool structural() const { return custom == nullptr; }
  bool Matches(const SummaryObject& obj) const;
  std::string ToString() const;
};

/// Summary-based filter F: every row passes, carrying only the summary
/// objects that satisfy the object predicate.
class SummaryFilterOp : public PhysicalOperator {
 public:
  SummaryFilterOp(OpPtr child, ObjectPredicate predicate);

  Status OpenImpl() override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  OpPtr child_;
  ObjectPredicate predicate_;
};

// ---------- Projection ----------

/// Projection pi: keeps the named columns and eliminates the projected-out
/// annotations' effects from every summary object (Theorems 1-2 of the
/// base system; Example 1).
class ProjectOp : public PhysicalOperator {
 public:
  ProjectOp(OpPtr child, std::vector<std::string> columns,
            AnnotationResolver resolver);

  Status OpenImpl() override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return schema_; }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  OpPtr child_;
  std::vector<std::string> columns_;
  AnnotationResolver resolver_;
  std::vector<size_t> indices_;
  Schema schema_;
};

// ---------- Joins ----------

/// Block nested-loop join on a data predicate over the concatenated
/// schema; summary sets of joining rows merge with common-annotation
/// dedup (Section 2.2). The right input is materialized.
class NestedLoopJoinOp : public PhysicalOperator {
 public:
  NestedLoopJoinOp(OpPtr left, OpPtr right, ExprPtr predicate);

  Status OpenImpl() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  OpPtr left_;
  OpPtr right_;
  ExprPtr predicate_;
  Schema schema_;
  std::vector<Row> right_rows_;
  // Outer-side state: buffered left batch, the row being joined, and the
  // next right row to pair it with.
  RowBatch left_input_;
  size_t left_pos_ = 0;
  Row current_left_;
  bool left_valid_ = false;
  size_t right_pos_ = 0;
};

/// Index nested-loop join: probes the inner table's column index with the
/// outer key expression (equi-join). Preserves the outer order — the
/// property Rules 5-6 need.
class IndexNLJoinOp : public PhysicalOperator {
 public:
  IndexNLJoinOp(OpPtr outer, Table* inner, std::string inner_column,
                ExprPtr outer_key, SummaryManager* inner_mgr,
                bool propagate_inner);

  Status OpenImpl() override;
  void Close() override { outer_->Close(); }
  const Schema& schema() const override { return schema_; }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {outer_.get()};
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  OpPtr outer_;
  Table* inner_;
  std::string inner_column_;
  ExprPtr outer_key_;
  SummaryManager* inner_mgr_;
  bool propagate_inner_;
  Schema schema_;
  RowBatch outer_input_;
  size_t outer_pos_ = 0;
  Row outer_row_;
  bool outer_valid_ = false;
  std::vector<Oid> matches_;
  size_t match_pos_ = 0;
  std::string join_key_;  // Encoded probe key; re-checked per version.
};

/// Hash join on one equi-key pair; non-equi residual conjuncts are
/// evaluated per candidate pair. The right (build) side is materialized
/// into a hash table; the left (probe) side streams, so the output
/// preserves the left order (Rule 5 applies, like the other join
/// algorithms here). Summary sets merge as in NestedLoopJoinOp.
class HashJoinOp : public PhysicalOperator {
 public:
  HashJoinOp(OpPtr left, OpPtr right, std::string left_key,
             std::string right_key, ExprPtr residual);

  Status OpenImpl() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  OpPtr left_;
  OpPtr right_;
  std::string left_key_;
  std::string right_key_;
  ExprPtr residual_;  // May be null.
  Schema schema_;
  size_t left_key_idx_ = 0;
  std::unordered_map<size_t, std::vector<Row>> table_;  // Hash -> rows.
  size_t right_key_idx_ = 0;
  Row current_left_;
  bool left_valid_ = false;
  const std::vector<Row>* bucket_ = nullptr;
  size_t bucket_pos_ = 0;
  RowBatch left_input_;
  size_t left_pos_ = 0;
};

/// Join predicate of the summary-based join J: either a comparison of a
/// summary expression evaluated on each side, or a predicate over the
/// would-be merged summary set.
struct SummaryJoinPredicate {
  // Comparison form: left_expr(r.$) <op> right_expr(s.$).
  ExprPtr left_expr;
  CompareOp op = CompareOp::kEq;
  ExprPtr right_expr;
  // Merged form: predicate over the merged row (set after summary merge).
  ExprPtr merged_expr;

  bool merged_form() const { return merged_expr != nullptr; }
  std::string ToString() const;
  SummaryJoinPredicate Clone() const;
  /// Instances referenced by the predicate (Rule 11 legality).
  void CollectInstances(std::vector<std::string>* out) const;
};

/// Summary-based join J (Section 3.2): joins tuples on predicates over
/// their summary sets. Strategies: block nested loop, or an index join
/// probing the inner side's Summary-BTree when the predicate is an
/// equality of classifier label values (the paper's two implementation
/// choices).
class SummaryJoinOp : public PhysicalOperator {
 public:
  /// Nested-loop strategy.
  SummaryJoinOp(OpPtr left, OpPtr right, SummaryJoinPredicate predicate);

  /// Index strategy: `label_instance`/`label` describe the equality
  /// "left.inst.label = right.inst.label" probe against the right table's
  /// Summary-BTree.
  SummaryJoinOp(OpPtr left, Table* right_table, SummaryManager* right_mgr,
                const SummaryBTree* right_index, std::string label_instance,
                std::string label, bool propagate_right);

  Status OpenImpl() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  /// Joins `current_left_` against the rest of its partners until they
  /// run out (left_valid_ drops) or `batch` fills.
  Status JoinNestedLoop(RowBatch* batch);
  Status JoinIndex(RowBatch* batch);

  OpPtr left_;
  OpPtr right_;  // Nested-loop strategy only.
  SummaryJoinPredicate predicate_;
  Schema schema_;
  // Outer-side state, shared by both strategies.
  RowBatch left_input_;
  size_t left_pos_ = 0;
  Row current_left_;
  bool left_valid_ = false;
  // Nested-loop state.
  std::vector<Row> right_rows_;
  size_t right_pos_ = 0;
  // Index strategy state.
  Table* right_table_ = nullptr;
  SummaryManager* right_mgr_ = nullptr;
  const SummaryBTree* right_index_ = nullptr;
  std::string label_instance_;
  std::string label_;
  bool propagate_right_ = true;
  std::vector<SummaryIndexHit> hits_;
  size_t hit_pos_ = 0;
  size_t left_arity_ = 0;
};

// ---------- Sort ----------

struct SortKey {
  ExprPtr expr;
  bool descending = false;
};

/// Sort operator serving both the standard ORDER BY and the paper's
/// summary-based sort O (keys may be summary functions). kMemory sorts
/// in RAM; kExternal spills sorted runs to temporary heap files and
/// k-way-merges them (the Disk arm of Fig. 14).
class SortOp : public PhysicalOperator {
 public:
  enum class Mode { kMemory, kExternal };

  /// `storage`/`pool` are required for kExternal (spill files).
  SortOp(OpPtr child, std::vector<SortKey> keys, Mode mode,
         StorageManager* storage = nullptr, BufferPool* pool = nullptr,
         size_t memory_budget_bytes = 4 << 20);
  /// Context form: storage and pool come from `ctx` (kExternal spills).
  SortOp(ExecutionContext* ctx, OpPtr child, std::vector<SortKey> keys,
         Mode mode, size_t memory_budget_bytes = 4 << 20);

  Status OpenImpl() override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {child_.get()};
  }

  bool summary_based() const;
  uint64_t runs_spilled() const { return runs_spilled_; }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  Result<int> CompareRows(const Row& a, const Row& b) const;
  Status SpillRun(std::vector<Row>* run);

  OpPtr child_;
  std::vector<SortKey> keys_;
  Mode mode_;
  StorageManager* storage_;
  BufferPool* pool_;
  size_t memory_budget_;
  std::vector<Row> sorted_;  // kMemory result buffer.
  size_t pos_ = 0;
  // kExternal state.
  struct Run {
    std::unique_ptr<HeapFile> file;
    std::optional<HeapFile::Iterator> it;
    std::optional<Row> head;
  };
  std::vector<Run> runs_;
  uint64_t runs_spilled_ = 0;
};

// ---------- Aggregation / distinct / limit ----------

struct AggregateSpec {
  enum class Kind { kCount, kSum, kMin, kMax, kAvg };
  Kind kind = Kind::kCount;
  ExprPtr arg;  // Null for COUNT(*).
  std::string output_name;
};

/// Hash aggregation with summary propagation: each group's summary set is
/// the merge of its members' sets, each first projected onto the grouping
/// columns (project-before-merge, Theorems 1-2).
class HashAggregateOp : public PhysicalOperator {
 public:
  HashAggregateOp(OpPtr child, std::vector<std::string> group_columns,
                  std::vector<AggregateSpec> aggregates,
                  AnnotationResolver resolver);

  Status OpenImpl() override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return schema_; }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  OpPtr child_;
  std::vector<std::string> group_columns_;
  std::vector<AggregateSpec> aggregates_;
  AnnotationResolver resolver_;
  Schema schema_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

/// Duplicate elimination over the data values; summary sets of collapsed
/// duplicates merge.
class DistinctOp : public PhysicalOperator {
 public:
  explicit DistinctOp(OpPtr child);

  Status OpenImpl() override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  OpPtr child_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

/// Pass-through that renames the child's columns (table aliases:
/// `FROM Birds v1` exposes `v1.name`, ...). Rows are untouched.
class RenameOp : public PhysicalOperator {
 public:
  /// Prefixes every child column with `alias.`.
  RenameOp(OpPtr child, const std::string& alias);

  Status OpenImpl() override {
    ResetExec();
    return child_->Open();
  }
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return schema_; }
  std::string Describe() const override { return "Rename(" + alias_ + ")"; }
  std::vector<PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override {
    return child_->NextBatch(batch);
  }

 private:
  OpPtr child_;
  std::string alias_;
  Schema schema_;
};

/// LIMIT n.
class LimitOp : public PhysicalOperator {
 public:
  LimitOp(OpPtr child, uint64_t limit) : child_(std::move(child)),
                                         limit_(limit) {}

  Status OpenImpl() override {
    ResetExec();
    emitted_ = 0;
    return child_->Open();
  }
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  OpPtr child_;
  uint64_t limit_;
  uint64_t emitted_ = 0;
};

}  // namespace insight

#endif  // INSIGHTNOTES_ENGINE_OPERATORS_H_
