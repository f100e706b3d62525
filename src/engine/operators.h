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
/// tuples of `it` into `batch` as bare rows until the batch fills. True
/// once `it` runs dry.
bool ScanHeapInto(Table::Iterator* it, RowBatch* batch);

/// Base of the access paths over one stored relation. A scan emits the
/// relation's columns under their base names, or as `rel.col` once the
/// optimizer names it after its FROM entry. SeqScanOp, ParallelScanOp,
/// IndexScanOp and KeywordIndexScanOp emit bare rows (empty summary sets);
/// an AttachSummariesOp above them attaches the sets.
class ScanOp : public PhysicalOperator {
 public:
  const Schema& schema() const override {
    return qualified_.has_value() ? *qualified_ : BaseSchema();
  }
  /// Emits every column as `rel.col`.
  void Qualify(const std::string& rel) {
    qualified_ = BaseSchema().Qualified(rel);
  }

 protected:
  /// The stored relation's own schema.
  virtual const Schema& BaseSchema() const = 0;

 private:
  std::optional<Schema> qualified_;
};

/// Full heap scan of a user relation.
class SeqScanOp : public ScanOp {
 public:
  explicit SeqScanOp(Table* table) : table_(table) {}

  Status OpenImpl() override;
  std::string Describe() const override;
  /// Pages whose zone maps refute this predicate are skipped before the
  /// buffer-pool fetch (optimizer-attached; empty disables pruning).
  void SetZonePredicate(ZonePredicate pred) { zone_pred_ = std::move(pred); }
  /// The relation's columns the statement reads (optimizer-attached; empty
  /// decodes every column). The others are skipped and left NULL, so the
  /// rows keep the relation's width and every column its position.
  void SetReadColumns(std::vector<bool> read) { read_ = std::move(read); }
  /// EXPLAIN ANALYZE: `pages_skipped=` per scan operator.
  std::string AnalyzeAnnotation() const override;
  uint64_t pages_skipped() const { return pages_skipped_; }

 protected:
  const Schema& BaseSchema() const override { return table_->schema(); }
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  Table* table_;
  std::optional<Table::Iterator> it_;
  ZonePredicate zone_pred_;
  std::vector<bool> read_;
  uint64_t pages_skipped_ = 0;
};

/// Data-column B-Tree index scan with an optional [lower, upper] value
/// range (either bound may be absent, but not both).
class IndexScanOp : public ScanOp {
 public:
  IndexScanOp(Table* table, std::string column, std::optional<Value> lower,
              bool lower_inclusive, std::optional<Value> upper,
              bool upper_inclusive);

  Status OpenImpl() override;
  std::string Describe() const override;

 protected:
  const Schema& BaseSchema() const override { return table_->schema(); }
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
  std::vector<Oid> oids_;
  size_t pos_ = 0;
  size_t col_pos_ = 0;
  std::string lower_key_;
  std::string upper_key_;
};

/// Summary-BTree index scan: evaluates a classifier probe and emits the
/// matching data tuples in label-count order — the interesting order
/// Rules 3-6 exploit. Ascending by default; `descending` emits the count
/// groups from highest to lowest, each group still in index payload order
/// (heap order for backward pointers). With `propagate` it attaches the
/// summary sets itself (SummaryBTree::FetchRows): the conventional-pointer
/// arm of Fig. 13 reads them from the storage rows its pointers land on.
class SummaryIndexScanOp : public ScanOp {
 public:
  SummaryIndexScanOp(const SummaryBTree* index, ClassifierProbe probe,
                     SummaryManager* mgr, bool propagate,
                     bool descending = false);

  Status OpenImpl() override;
  std::string Describe() const override;
  /// LIMIT pushdown: fetch (and attach) only the first `limit` hits in
  /// scan order (0 = no limit). Every hit is one row, so this is exact.
  void set_limit(uint64_t limit) { limit_ = limit; }

 protected:
  const Schema& BaseSchema() const override;
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  const SummaryBTree* index_;
  ClassifierProbe probe_;
  SummaryManager* mgr_;
  bool propagate_;
  bool descending_;
  uint64_t limit_ = 0;
  std::vector<SummaryIndexHit> hits_;
  size_t pos_ = 0;
};

/// Baseline-scheme index scan (Fig. 4(c) comparison arm). When
/// `reconstruct_summaries` is set, the propagated Classifier object is
/// re-formed from the normalized rows instead of read from the
/// de-normalized storage — the slow path measured in Fig. 12.
class BaselineIndexScanOp : public ScanOp {
 public:
  BaselineIndexScanOp(const BaselineClassifierIndex* index,
                      ClassifierProbe probe, SummaryManager* mgr,
                      bool propagate, bool reconstruct_summaries);

  Status OpenImpl() override;
  std::string Describe() const override;

 protected:
  const Schema& BaseSchema() const override;
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
/// The posting lists hold the words of every stored summary version, so
/// at a given snapshot the result is a candidate superset for both
/// containsUnion and containsSingle (the optimizer re-applies the
/// predicate as a residual); it never misses a match, because the lists
/// are built with the same TokenizeWords words ContainsWord matches.
class KeywordIndexScanOp : public ScanOp {
 public:
  KeywordIndexScanOp(Table* table, const SnippetKeywordIndex* index,
                     std::vector<std::string> keywords);

  Status OpenImpl() override;
  std::string Describe() const override;

 protected:
  const Schema& BaseSchema() const override { return table_->schema(); }
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  Table* table_;
  const SnippetKeywordIndex* index_;
  std::vector<std::string> keywords_;
  std::vector<Oid> oids_;
  size_t pos_ = 0;
};

/// Summary-first access, storage side: scans `<rel>_SummaryStorage` at
/// the statement's snapshot and emits one row per storage row: the
/// tuple's OID (a storage row's OID is its tuple's), an empty data tuple
/// and the row's set, checked by SummarySet::FromStored (a corrupt row
/// fails the scan with Corruption). A tuple without annotations has no
/// storage row, so a plan drives from this scan only under summary
/// conjuncts that hold for no empty set; FetchBaseOp supplies the data.
class SummaryStorageScanOp : public PhysicalOperator {
 public:
  explicit SummaryStorageScanOp(SummaryManager* mgr) : mgr_(mgr) {}

  Status OpenImpl() override;
  /// No data columns: the rows carry only their OIDs and sets.
  const Schema& schema() const override { return schema_; }
  std::string Describe() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  SummaryManager* mgr_;
  Schema schema_;
  std::optional<Table::Iterator> it_;
};

/// Summary-first access, base side: resolves each input batch's OIDs to
/// the base tuples visible at the statement's snapshot with one
/// Table::GetMany walk, in OID order. Each row keeps the set it arrived
/// with, so nothing is attached twice; a row whose tuple is not visible
/// is dropped.
class FetchBaseOp : public ScanOp {
 public:
  FetchBaseOp(OpPtr child, Table* table)
      : child_(std::move(child)), table_(table) {}

  Status OpenImpl() override;
  void Close() override { child_->Close(); }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {child_.get()};
  }
  /// The relation's columns the statement reads, as
  /// SeqScanOp::SetReadColumns (empty decodes every column).
  void SetReadColumns(std::vector<bool> read) { read_ = std::move(read); }

 protected:
  const Schema& BaseSchema() const override { return table_->schema(); }
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  OpPtr child_;
  Table* table_;
  std::vector<bool> read_;
  RowBatch input_;
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
  // Buffered child batch and the next input row to consume.
  RowBatch input_;
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

// ---------- Late propagation ----------

/// Summary propagation as a 1:1 batch transform: attaches each row's
/// summary set (by its OID) with one SummaryManager::AttachSummaries call
/// per batch, at the plan's snapshot. The optimizer lowers propagating
/// access paths bare and places this operator as late as the plan allows
/// — above data filters, LIMIT and data-keyed sorts, directly below the
/// first operator that reads or rewrites summary sets — so no set is
/// fetched for a row the query drops.
class AttachSummariesOp : public PhysicalOperator {
 public:
  AttachSummariesOp(OpPtr child, SummaryManager* mgr);

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
  SummaryManager* mgr_;
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
/// property Rules 5-6 need. The inner rows carry their summary sets when
/// `inner_mgr` is given (null: empty sets).
class IndexNLJoinOp : public PhysicalOperator {
 public:
  IndexNLJoinOp(OpPtr outer, Table* inner, std::string inner_column,
                ExprPtr outer_key, SummaryManager* inner_mgr);

  Status OpenImpl() override;
  void Close() override { outer_->Close(); }
  const Schema& schema() const override { return schema_; }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {outer_.get()};
  }
  /// Emits the inner table's columns as `rel.col`.
  void QualifyInner(const std::string& rel) {
    schema_ = Schema::Concat(outer_->schema(), inner_->schema().Qualified(rel));
    inner_rel_ = rel;
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  /// Loads the current outer row's inner matches into `matches_`: one
  /// Table::GetMany walk for the index hits, then (with an inner manager)
  /// one AttachSummaries call for their summary sets.
  Status FetchInner();

  OpPtr outer_;
  Table* inner_;
  std::string inner_rel_;  // Exposed name; empty: the table's own.
  std::string inner_column_;
  ExprPtr outer_key_;
  SummaryManager* inner_mgr_;  // Null: inner rows carry no summary sets.
  Schema schema_;
  const BTree* index_ = nullptr;  // Bound at Open.
  size_t inner_pos_ = 0;          // inner_column_'s position in the inner.
  RowBatch outer_input_;
  size_t outer_pos_ = 0;
  Row outer_row_;
  bool outer_valid_ = false;
  RowBatch matches_;  // The current outer row's visible inner matches.
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
  SummaryJoinOp(OpPtr left, Table* right_table,
                const SummaryBTree* right_index, std::string label_instance,
                std::string label, bool propagate_right);

  Status OpenImpl() override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override;
  /// Index strategy: emits the right table's columns as `rel.col`.
  void QualifyInner(const std::string& rel) {
    schema_ = Schema::Concat(left_->schema(),
                             right_table_->schema().Qualified(rel));
  }

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
  const SummaryBTree* right_index_ = nullptr;
  std::string label_instance_;
  std::string label_;
  bool propagate_right_ = true;
  std::vector<SummaryIndexHit> hits_;
  size_t hit_pos_ = 0;  // Next hit to fetch.
  RowBatch fetched_;    // The fetched run of hits, rows in hit order.
  size_t fetched_pos_ = 0;
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
/// k-way-merges them (the Disk arm of Fig. 14). Each row's keys are
/// evaluated once, as it arrives (or as a spilled row is read back), so
/// comparisons never evaluate and a key that fails to evaluate fails the
/// statement whatever the input size. The sort is stable: ties keep their
/// arrival order. Under a LIMIT k (set_limit) it keeps a bounded k-row
/// heap instead of the whole input, and emits exactly the first k rows of
/// the unbounded sort.
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
  /// LIMIT pushdown: emit only the first `limit` rows (0 = no limit), and
  /// hold at most that many while sorting (per spilled run in kExternal).
  void set_limit(uint64_t limit) { limit_ = limit; }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  /// A row decorated with its evaluated sort keys and arrival position.
  struct KeyedRow {
    std::vector<Value> keys;
    Row row;
    uint64_t seq = 0;    // Arrival position: breaks ties (stability).
    size_t bytes = 0;    // Serialized size (kExternal budget accounting).
  };
  Result<KeyedRow> Decorate(Row row) const;
  /// Key order (DESC keys reversed); equal keys compare false.
  bool Less(const KeyedRow& a, const KeyedRow& b) const;
  /// Less, then arrival order: the total order of a stable sort.
  bool Before(const KeyedRow& a, const KeyedRow& b) const;
  /// Sorts `run` and writes it to a fresh temporary heap file.
  Status SpillRun(std::vector<KeyedRow>* run);

  OpPtr child_;
  std::vector<SortKey> keys_;
  Mode mode_;
  StorageManager* storage_;
  BufferPool* pool_;
  size_t memory_budget_;
  uint64_t limit_ = 0;
  std::vector<KeyedRow> sorted_;  // kMemory result buffer.
  size_t pos_ = 0;                // Rows emitted so far.
  // kExternal state.
  struct Run {
    std::unique_ptr<HeapFile> file;
    std::optional<HeapFile::Iterator> it;
    std::optional<KeyedRow> head;
    /// Reads the next row of the run into `head` (empty at the end).
    Status Advance(const SortOp& op);
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
  std::vector<size_t> group_indices_;  // group_columns_' child positions.
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
