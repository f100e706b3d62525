#include <chrono>
#include <cstdio>

#include "common/string_util.h"
#include "engine/operators.h"
#include "index/key_codec.h"
#include "obs/trace.h"

namespace insight {

Status PhysicalOperator::Open() {
  const auto start = std::chrono::steady_clock::now();
  Status st = OpenImpl();  // Calls ResetExec(), zeroing stats_ first.
  stats_.open_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return st;
}

Result<bool> PhysicalOperator::NextBatch(RowBatch* batch) {
  const auto start = std::chrono::steady_clock::now();
  batch->Clear();
  Result<bool> result = NextBatchImpl(batch);
  stats_.next_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  if (result.ok() && *result) {
    ++stats_.batches;
    stats_.rows += batch->size();
  }
  batch->set_schema(&schema());
  return result;
}

void PhysicalOperator::AttachContext(ExecutionContext* ctx) {
  exec_ctx_ = ctx;
  for (PhysicalOperator* child : children()) child->AttachContext(ctx);
}

std::string PhysicalOperator::ExplainTree(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += Describe();
  out += "\n";
  for (const PhysicalOperator* child : children()) {
    out += child->ExplainTree(indent + 1);
  }
  return out;
}

const char* EstimateSourceName(EstimateSource source) {
  switch (source) {
    case EstimateSource::kHistogram:
      return "histogram";
    case EstimateSource::kSketch:
      return "sketch";
    case EstimateSource::kFeedback:
      return "feedback";
    case EstimateSource::kNone:
      break;
  }
  return "";
}

std::string PhysicalOperator::ExplainAnalyzeTree(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += Describe();
  char counters[96];
  std::snprintf(counters, sizeof(counters),
                "  (rows=%llu batches=%llu time=%.3fms)",
                static_cast<unsigned long long>(stats_.rows),
                static_cast<unsigned long long>(stats_.batches),
                static_cast<double>(stats_.total_ns()) / 1e6);
  out += counters;
  if (has_estimate()) {
    char est[96];
    if (est_source_ != EstimateSource::kNone) {
      std::snprintf(est, sizeof(est),
                    "  (est=%.0f actual=%llu q-err=%.2f src=%s)", est_rows_,
                    static_cast<unsigned long long>(stats_.rows),
                    QError(est_rows_, static_cast<double>(stats_.rows)),
                    EstimateSourceName(est_source_));
    } else {
      std::snprintf(est, sizeof(est), "  (est=%.0f actual=%llu q-err=%.2f)",
                    est_rows_, static_cast<unsigned long long>(stats_.rows),
                    QError(est_rows_, static_cast<double>(stats_.rows)));
    }
    out += est;
  }
  out += AnalyzeAnnotation();
  out += "\n";
  for (const PhysicalOperator* child : children()) {
    out += child->ExplainAnalyzeTree(indent + 1);
  }
  return out;
}

Result<std::vector<Row>> CollectRows(PhysicalOperator* root) {
  INSIGHT_RETURN_NOT_OK(root->Open());
  std::vector<Row> rows;
  RowBatch batch;
  batch.set_capacity(root->batch_capacity());
  while (true) {
    INSIGHT_ASSIGN_OR_RETURN(bool has, root->NextBatch(&batch));
    if (!has) break;
    rows.reserve(rows.size() + batch.size());
    for (Row& row : batch) rows.push_back(std::move(row));
  }
  root->Close();
  return rows;
}

// ---------- SeqScanOp ----------

Result<bool> ScanHeapInto(Table::Iterator* it, SummaryManager* mgr,
                          Snapshot snapshot, RowBatch* batch) {
  while (!batch->full()) {
    Row row;
    if (!it->Next(&row.oid, &row.data)) return true;
    if (mgr != nullptr) {
      INSIGHT_ASSIGN_OR_RETURN(row.summaries,
                               mgr->GetSummaries(row.oid, snapshot));
    }
    batch->Push(std::move(row));
  }
  return false;
}

SeqScanOp::SeqScanOp(Table* table, SummaryManager* mgr, bool propagate)
    : table_(table), mgr_(mgr), propagate_(propagate && mgr != nullptr) {}

SeqScanOp::SeqScanOp(ExecutionContext* ctx, Table* table, bool propagate)
    : SeqScanOp(table, ctx->ManagerFor(table->name()), propagate) {
  exec_ctx_ = ctx;
}

Status SeqScanOp::OpenImpl() {
  ResetExec();
  pages_skipped_ = 0;
  it_.emplace(table_->Scan(snapshot()));
  if (!zone_pred_.empty() && table_->zone_maps() != nullptr) {
    it_->EnableZonePruning(table_->zone_maps(), zone_pred_, &pages_skipped_);
  }
  return Status::OK();
}

Result<bool> SeqScanOp::NextBatchImpl(RowBatch* batch) {
  auto scanned =
      ScanHeapInto(&*it_, propagate_ ? mgr_ : nullptr, snapshot(), batch);
  if (!scanned.ok()) return scanned.status();
  return !batch->empty();
}

std::string SeqScanOp::AnalyzeAnnotation() const {
  return "  pages_skipped=" + std::to_string(pages_skipped_);
}

std::string SeqScanOp::Describe() const {
  return "SeqScan(" + table_->name() +
         (propagate_ ? ", propagate" : "") + ")";
}

// ---------- IndexScanOp ----------

IndexScanOp::IndexScanOp(Table* table, std::string column,
                         std::optional<Value> lower, bool lower_inclusive,
                         std::optional<Value> upper, bool upper_inclusive,
                         SummaryManager* mgr, bool propagate)
    : table_(table),
      column_(std::move(column)),
      lower_(std::move(lower)),
      lower_inclusive_(lower_inclusive),
      upper_(std::move(upper)),
      upper_inclusive_(upper_inclusive),
      mgr_(mgr),
      propagate_(propagate && mgr != nullptr) {}

IndexScanOp::IndexScanOp(ExecutionContext* ctx, Table* table,
                         std::string column, std::optional<Value> lower,
                         bool lower_inclusive, std::optional<Value> upper,
                         bool upper_inclusive, bool propagate)
    : IndexScanOp(table, std::move(column), std::move(lower),
                  lower_inclusive, std::move(upper), upper_inclusive,
                  ctx->ManagerFor(table->name()), propagate) {
  exec_ctx_ = ctx;
}

Status IndexScanOp::OpenImpl() {
  ResetExec();
  pos_ = 0;
  oids_.clear();
  const BTree* index = table_->GetColumnIndex(column_);
  if (index == nullptr) {
    return Status::InvalidArgument("no index on " + table_->name() + "." +
                                   column_);
  }
  INSIGHT_ASSIGN_OR_RETURN(col_pos_, table_->schema().IndexOf(column_));
  // Type-class sentinels when a bound is missing.
  const Value& probe = lower_.has_value() ? *lower_ : *upper_;
  const bool string_typed = probe.type() == ValueType::kString;
  lower_key_ = lower_.has_value()
                   ? EncodeIndexKey(*lower_)
                   : (string_typed ? MinStringKey() : MinNumericKey());
  upper_key_ = upper_.has_value()
                   ? EncodeIndexKey(*upper_)
                   : (string_typed ? MaxStringKey() : MaxNumericKey());
  INSIGHT_ASSIGN_OR_RETURN(
      BTree::Iterator it,
      index->RangeScan(lower_key_, lower_inclusive_, upper_key_,
                       upper_inclusive_));
  for (; it.Valid(); it.Next()) oids_.push_back(it.value());
  return it.status();
}

Result<bool> IndexScanOp::FetchVisible(Oid oid, Tuple* tuple) const {
  auto row = table_->Get(oid, snapshot());
  if (!row.ok()) {
    if (row.status().IsNotFound()) return false;  // Stale index entry.
    return row.status();
  }
  // Re-verify against the probed range: the index holds entries for
  // every stored version of the row; the one visible here may carry a
  // different column value.
  const std::string key = EncodeIndexKey(row.ValueOrDie().at(col_pos_));
  if (key < lower_key_ || (key == lower_key_ && !lower_inclusive_)) {
    return false;
  }
  if (key > upper_key_ || (key == upper_key_ && !upper_inclusive_)) {
    return false;
  }
  *tuple = std::move(row.ValueOrDie());
  return true;
}

Result<bool> IndexScanOp::NextBatchImpl(RowBatch* batch) {
  while (!batch->full() && pos_ < oids_.size()) {
    const Oid oid = oids_[pos_++];
    Tuple tuple;
    INSIGHT_ASSIGN_OR_RETURN(bool visible, FetchVisible(oid, &tuple));
    if (!visible) continue;
    Row row;
    row.data = std::move(tuple);
    row.oid = oid;
    if (propagate_) {
      INSIGHT_ASSIGN_OR_RETURN(row.summaries,
                               mgr_->GetSummaries(oid, snapshot()));
    }
    batch->Push(std::move(row));
  }
  return !batch->empty();
}

std::string IndexScanOp::Describe() const {
  std::string out = "IndexScan(" + table_->name() + "." + column_;
  if (lower_.has_value()) {
    out += lower_inclusive_ ? ", >= " : ", > ";
    out += lower_->ToString();
  }
  if (upper_.has_value()) {
    out += upper_inclusive_ ? ", <= " : ", < ";
    out += upper_->ToString();
  }
  if (propagate_) out += ", propagate";
  return out + ")";
}

// ---------- SummaryIndexScanOp ----------

SummaryIndexScanOp::SummaryIndexScanOp(const SummaryBTree* index,
                                       ClassifierProbe probe,
                                       SummaryManager* mgr, bool propagate)
    : index_(index), probe_(std::move(probe)), mgr_(mgr),
      propagate_(propagate) {}

SummaryIndexScanOp::SummaryIndexScanOp(ExecutionContext* ctx,
                                       const SummaryBTree* index,
                                       ClassifierProbe probe,
                                       const std::string& table,
                                       bool propagate)
    : SummaryIndexScanOp(index, std::move(probe), ctx->ManagerFor(table),
                         propagate) {
  exec_ctx_ = ctx;
}

const Schema& SummaryIndexScanOp::schema() const {
  return mgr_->base()->schema();
}

Status SummaryIndexScanOp::OpenImpl() {
  ResetExec();
  pos_ = 0;
  INSIGHT_ASSIGN_OR_RETURN(hits_, index_->Search(probe_, snapshot()));
  return Status::OK();
}

Result<bool> SummaryIndexScanOp::NextBatchImpl(RowBatch* batch) {
  while (!batch->full() && pos_ < hits_.size()) {
    const SummaryIndexHit& hit = hits_[pos_++];
    Oid oid = kInvalidOid;
    Row row;
    if (propagate_) {
      INSIGHT_ASSIGN_OR_RETURN(
          row.data, index_->FetchDataTupleWithSummaries(hit, &row.summaries,
                                                        &oid, snapshot()));
    } else {
      INSIGHT_ASSIGN_OR_RETURN(row.data,
                               index_->FetchDataTuple(hit, &oid, snapshot()));
    }
    row.oid = oid;
    batch->Push(std::move(row));
  }
  return !batch->empty();
}

std::string SummaryIndexScanOp::Describe() const {
  std::string out = "SummaryIndexScan(" + probe_.label;
  if (probe_.lower.has_value()) {
    out += probe_.lower_inclusive ? " >= " : " > ";
    out += std::to_string(*probe_.lower);
  }
  if (probe_.upper.has_value()) {
    out += probe_.upper_inclusive ? " <= " : " < ";
    out += std::to_string(*probe_.upper);
  }
  if (propagate_) out += ", propagate";
  out += index_->pointer_mode() == SummaryBTree::PointerMode::kBackward
             ? ", backward-ptrs"
             : ", conventional-ptrs";
  return out + ")";
}

// ---------- BaselineIndexScanOp ----------

BaselineIndexScanOp::BaselineIndexScanOp(
    const BaselineClassifierIndex* index, ClassifierProbe probe,
    SummaryManager* mgr, bool propagate, bool reconstruct_summaries)
    : index_(index),
      probe_(std::move(probe)),
      mgr_(mgr),
      propagate_(propagate),
      reconstruct_summaries_(reconstruct_summaries) {}

const Schema& BaselineIndexScanOp::schema() const {
  return mgr_->base()->schema();
}

Status BaselineIndexScanOp::OpenImpl() {
  ResetExec();
  pos_ = 0;
  INSIGHT_ASSIGN_OR_RETURN(hits_, index_->Search(probe_));
  return Status::OK();
}

Result<bool> BaselineIndexScanOp::NextBatchImpl(RowBatch* batch) {
  while (!batch->full() && pos_ < hits_.size()) {
    const SummaryIndexHit& hit = hits_[pos_++];
    Oid oid = kInvalidOid;
    Row row;
    INSIGHT_ASSIGN_OR_RETURN(row.data, index_->FetchDataTuple(hit, &oid));
    row.oid = oid;
    if (propagate_) {
      if (reconstruct_summaries_) {
        // Fig. 12 arm: re-form the object from its normalized primitives.
        INSIGHT_ASSIGN_OR_RETURN(SummaryObject obj,
                                 index_->ReconstructObject(oid));
        row.summaries = SummarySet({std::move(obj)});
      } else {
        INSIGHT_ASSIGN_OR_RETURN(row.summaries,
                                 mgr_->GetSummaries(oid, snapshot()));
      }
    }
    batch->Push(std::move(row));
  }
  return !batch->empty();
}

std::string BaselineIndexScanOp::Describe() const {
  std::string out = "BaselineIndexScan(" + probe_.label;
  if (propagate_) {
    out += reconstruct_summaries_ ? ", propagate:reconstruct"
                                  : ", propagate:denormalized";
  }
  return out + ")";
}

// ---------- KeywordIndexScanOp ----------

KeywordIndexScanOp::KeywordIndexScanOp(const SnippetKeywordIndex* index,
                                       std::vector<std::string> keywords,
                                       SummaryManager* mgr, bool propagate)
    : index_(index),
      keywords_(std::move(keywords)),
      mgr_(mgr),
      propagate_(propagate) {}

KeywordIndexScanOp::KeywordIndexScanOp(ExecutionContext* ctx,
                                       const SnippetKeywordIndex* index,
                                       std::vector<std::string> keywords,
                                       const std::string& table,
                                       bool propagate)
    : KeywordIndexScanOp(index, std::move(keywords), ctx->ManagerFor(table),
                         propagate) {
  exec_ctx_ = ctx;
}

const Schema& KeywordIndexScanOp::schema() const {
  return mgr_->base()->schema();
}

Status KeywordIndexScanOp::OpenImpl() {
  ResetExec();
  pos_ = 0;
  INSIGHT_ASSIGN_OR_RETURN(oids_, index_->SearchAll(keywords_));
  return Status::OK();
}

Result<bool> KeywordIndexScanOp::NextBatchImpl(RowBatch* batch) {
  while (!batch->full() && pos_ < oids_.size()) {
    const Oid oid = oids_[pos_++];
    auto data = mgr_->base()->Get(oid, snapshot());
    if (!data.ok()) {
      if (data.status().IsNotFound()) continue;
      return data.status();
    }
    Row row;
    row.data = std::move(data.ValueOrDie());
    row.oid = oid;
    if (propagate_) {
      INSIGHT_ASSIGN_OR_RETURN(row.summaries,
                               mgr_->GetSummaries(oid, snapshot()));
    }
    batch->Push(std::move(row));
  }
  return !batch->empty();
}

std::string KeywordIndexScanOp::Describe() const {
  return "KeywordIndexScan(" + Join(keywords_, ", ") +
         (propagate_ ? ", propagate)" : ")");
}

std::string VectorSourceOp::Describe() const {
  return "VectorSource(" + std::to_string(rows_.size()) + " rows)";
}

// ---------- Selection family ----------

namespace {

/// Shared batch filter loop for SelectOp / SummarySelectOp: pull child
/// batches, evaluate the predicate batch-wise (amortized column
/// resolution), and move the passing rows into `batch` until it fills.
Result<bool> FilterNextBatch(PhysicalOperator* child,
                             const Expression* predicate, size_t capacity,
                             RowBatch* input, std::vector<uint8_t>* flags,
                             size_t* input_pos, RowBatch* batch) {
  if (input->capacity() != capacity) input->set_capacity(capacity);
  while (!batch->full()) {
    if (*input_pos >= input->size()) {
      INSIGHT_ASSIGN_OR_RETURN(bool has, child->NextBatch(input));
      if (!has) break;
      flags->clear();
      INSIGHT_RETURN_NOT_OK(
          predicate->EvalBoolBatch(*input, child->schema(), flags));
      *input_pos = 0;
    }
    for (; *input_pos < input->size() && !batch->full(); ++*input_pos) {
      if ((*flags)[*input_pos] != 0) {
        batch->Push(std::move(input->rows()[*input_pos]));
      }
    }
  }
  return !batch->empty();
}

}  // namespace

SelectOp::SelectOp(OpPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

Status SelectOp::OpenImpl() {
  ResetExec();
  input_.Clear();
  input_pos_ = 0;
  return child_->Open();
}

Result<bool> SelectOp::NextBatchImpl(RowBatch* batch) {
  return FilterNextBatch(child_.get(), predicate_.get(), batch_capacity(),
                         &input_, &flags_, &input_pos_, batch);
}

std::string SelectOp::Describe() const {
  return "Select[\xcf\x83](" + predicate_->ToString() + ")";
}

SummarySelectOp::SummarySelectOp(OpPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

Status SummarySelectOp::OpenImpl() {
  ResetExec();
  input_.Clear();
  input_pos_ = 0;
  return child_->Open();
}

Result<bool> SummarySelectOp::NextBatchImpl(RowBatch* batch) {
  return FilterNextBatch(child_.get(), predicate_.get(), batch_capacity(),
                         &input_, &flags_, &input_pos_, batch);
}

std::string SummarySelectOp::Describe() const {
  return "SummarySelect[S](" + predicate_->ToString() + ")";
}

bool ObjectPredicate::Matches(const SummaryObject& obj) const {
  if (instance_name.has_value() &&
      !EqualsIgnoreCase(obj.instance_name, *instance_name)) {
    return false;
  }
  if (type.has_value() && obj.type != *type) return false;
  if (custom != nullptr && !custom(obj)) return false;
  return true;
}

std::string ObjectPredicate::ToString() const {
  std::vector<std::string> parts;
  if (instance_name.has_value()) {
    parts.push_back("getSummaryName() = '" + *instance_name + "'");
  }
  if (type.has_value()) {
    parts.push_back(std::string("getSummaryType() = '") +
                    SummaryTypeToString(*type) + "'");
  }
  if (custom != nullptr) parts.push_back("<custom>");
  return parts.empty() ? "true" : Join(parts, " AND ");
}

SummaryFilterOp::SummaryFilterOp(OpPtr child, ObjectPredicate predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

Status SummaryFilterOp::OpenImpl() {
  ResetExec();
  return child_->Open();
}

Result<bool> SummaryFilterOp::NextBatchImpl(RowBatch* batch) {
  // 1:1 transform: filter each row's summary set in place.
  INSIGHT_ASSIGN_OR_RETURN(bool has, child_->NextBatch(batch));
  if (!has) return false;
  for (Row& row : *batch) {
    std::vector<SummaryObject> kept;
    for (SummaryObject& obj : row.summaries.objects()) {
      if (predicate_.Matches(obj)) kept.push_back(std::move(obj));
    }
    row.summaries = SummarySet(std::move(kept));
  }
  return true;
}

std::string SummaryFilterOp::Describe() const {
  return "SummaryFilter[F](" + predicate_.ToString() + ")";
}

// ---------- Projection ----------

ProjectOp::ProjectOp(OpPtr child, std::vector<std::string> columns,
                     AnnotationResolver resolver)
    : child_(std::move(child)),
      columns_(std::move(columns)),
      resolver_(std::move(resolver)) {
  for (const std::string& name : columns_) {
    auto idx = child_->schema().IndexOf(name);
    INSIGHT_CHECK(idx.ok()) << "projection of unknown column " << name;
    indices_.push_back(*idx);
  }
  schema_ = child_->schema().Project(indices_);
}

Status ProjectOp::OpenImpl() {
  ResetExec();
  return child_->Open();
}

Result<bool> ProjectOp::NextBatchImpl(RowBatch* batch) {
  INSIGHT_ASSIGN_OR_RETURN(bool has, child_->NextBatch(batch));
  if (!has) return false;
  for (Row& row : *batch) {
    row.data = row.data.Project(indices_);
    if (!row.summaries.empty()) {
      INSIGHT_ASSIGN_OR_RETURN(
          row.summaries,
          ProjectSummaries(row.summaries, indices_, resolver_));
    }
  }
  return true;
}

std::string ProjectOp::Describe() const {
  return "Project[\xcf\x80](" + Join(columns_, ", ") + ")";
}

RenameOp::RenameOp(OpPtr child, const std::string& alias)
    : child_(std::move(child)), alias_(alias) {
  for (const Column& col : child_->schema().columns()) {
    // Re-qualify: strip any existing prefix, then apply the alias.
    const size_t dot = col.name.rfind('.');
    const std::string base =
        dot == std::string::npos ? col.name : col.name.substr(dot + 1);
    schema_.AddColumn({alias_ + "." + base, col.type}).ok();
  }
}

Result<bool> LimitOp::NextBatchImpl(RowBatch* batch) {
  if (emitted_ >= limit_) return false;
  INSIGHT_ASSIGN_OR_RETURN(bool has, child_->NextBatch(batch));
  if (!has) return false;
  batch->Truncate(static_cast<size_t>(limit_ - emitted_));
  emitted_ += batch->size();
  return !batch->empty();
}

std::string LimitOp::Describe() const {
  return "Limit(" + std::to_string(limit_) + ")";
}

}  // namespace insight
