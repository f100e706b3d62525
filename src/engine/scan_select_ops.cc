#include <algorithm>
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

bool ScanHeapInto(Table::Iterator* it, RowBatch* batch) {
  while (!batch->full()) {
    Row row;
    if (!it->Next(&row.oid, &row.data)) return true;
    batch->Push(std::move(row));
  }
  return false;
}

Status SeqScanOp::OpenImpl() {
  ResetExec();
  pages_skipped_ = 0;
  it_.emplace(table_->Scan(snapshot()));
  it_->SetReadColumns(read_);
  if (!zone_pred_.empty() && table_->zone_maps() != nullptr) {
    it_->EnableZonePruning(table_->zone_maps(), zone_pred_, &pages_skipped_);
  }
  return Status::OK();
}

Result<bool> SeqScanOp::NextBatchImpl(RowBatch* batch) {
  ScanHeapInto(&*it_, batch);
  return !batch->empty();
}

std::string SeqScanOp::AnalyzeAnnotation() const {
  return "  pages_skipped=" + std::to_string(pages_skipped_);
}

std::string SeqScanOp::Describe() const {
  return "SeqScan(" + table_->name() + ")";
}

// ---------- IndexScanOp ----------

IndexScanOp::IndexScanOp(Table* table, std::string column,
                         std::optional<Value> lower, bool lower_inclusive,
                         std::optional<Value> upper, bool upper_inclusive)
    : table_(table),
      column_(std::move(column)),
      lower_(std::move(lower)),
      lower_inclusive_(lower_inclusive),
      upper_(std::move(upper)),
      upper_inclusive_(upper_inclusive) {}

Status IndexScanOp::OpenImpl() {
  ResetExec();
  pos_ = 0;
  oids_.clear();
  const BTree* index = table_->GetColumnIndex(column_);
  if (index == nullptr) {
    return Status::InvalidArgument("no index on " + table_->name() + "." +
                                   column_);
  }
  if (!lower_.has_value() && !upper_.has_value()) {
    return Status::InvalidArgument("index scan of " + table_->name() + "." +
                                   column_ + " has no bound");
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
  return out + ")";
}

// ---------- SummaryIndexScanOp ----------

SummaryIndexScanOp::SummaryIndexScanOp(const SummaryBTree* index,
                                       ClassifierProbe probe,
                                       SummaryManager* mgr, bool propagate,
                                       bool descending)
    : index_(index), probe_(std::move(probe)), mgr_(mgr),
      propagate_(propagate), descending_(descending) {}

const Schema& SummaryIndexScanOp::BaseSchema() const {
  return mgr_->base()->schema();
}

Status SummaryIndexScanOp::OpenImpl() {
  ResetExec();
  pos_ = 0;
  INSIGHT_ASSIGN_OR_RETURN(hits_, index_->Search(probe_, snapshot()));
  if (descending_) {
    // Reverse the ascending count groups, keeping each group's payload
    // order, and stop once the limit is covered.
    std::vector<SummaryIndexHit> desc;
    desc.reserve(hits_.size());
    for (size_t end = hits_.size(); end > 0;) {
      size_t begin = end - 1;
      while (begin > 0 && hits_[begin - 1].count == hits_[end - 1].count) {
        --begin;
      }
      desc.insert(desc.end(), hits_.begin() + static_cast<long>(begin),
                  hits_.begin() + static_cast<long>(end));
      if (limit_ > 0 && desc.size() >= limit_) break;
      end = begin;
    }
    hits_ = std::move(desc);
  }
  if (limit_ > 0 && hits_.size() > limit_) hits_.resize(limit_);
  return Status::OK();
}

Result<bool> SummaryIndexScanOp::NextBatchImpl(RowBatch* batch) {
  const size_t n = std::min(batch->capacity(), hits_.size() - pos_);
  INSIGHT_RETURN_NOT_OK(index_->FetchRows(
      std::span<const SummaryIndexHit>(hits_).subspan(pos_, n), propagate_,
      snapshot(), batch));
  pos_ += n;
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
  if (descending_) out += " DESC";
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

const Schema& BaselineIndexScanOp::BaseSchema() const {
  return mgr_->base()->schema();
}

Status BaselineIndexScanOp::OpenImpl() {
  ResetExec();
  pos_ = 0;
  INSIGHT_ASSIGN_OR_RETURN(hits_, index_->Search(probe_, snapshot()));
  return Status::OK();
}

Result<bool> BaselineIndexScanOp::NextBatchImpl(RowBatch* batch) {
  while (!batch->full() && pos_ < hits_.size()) {
    const SummaryIndexHit& hit = hits_[pos_++];
    Oid oid = kInvalidOid;
    Row row;
    INSIGHT_ASSIGN_OR_RETURN(row.data,
                             index_->FetchDataTuple(hit, &oid, snapshot()));
    row.oid = oid;
    if (propagate_ && reconstruct_summaries_) {
      // Fig. 12 arm: re-form the object from its normalized primitives.
      INSIGHT_ASSIGN_OR_RETURN(SummaryObject obj,
                               index_->ReconstructObject(oid));
      row.summaries = SummarySet({std::move(obj)});
    }
    batch->Push(std::move(row));
  }
  if (propagate_ && !reconstruct_summaries_) {
    INSIGHT_RETURN_NOT_OK(mgr_->AttachSummaries(batch, snapshot()));
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

KeywordIndexScanOp::KeywordIndexScanOp(Table* table,
                                       const SnippetKeywordIndex* index,
                                       std::vector<std::string> keywords)
    : table_(table), index_(index), keywords_(std::move(keywords)) {}

Status KeywordIndexScanOp::OpenImpl() {
  ResetExec();
  pos_ = 0;
  INSIGHT_ASSIGN_OR_RETURN(oids_, index_->SearchAll(keywords_));
  return Status::OK();
}

Result<bool> KeywordIndexScanOp::NextBatchImpl(RowBatch* batch) {
  // Posting-list OIDs ascend, so each run of them is one GetMany walk.
  while (!batch->full() && pos_ < oids_.size()) {
    const auto run = std::span<const Oid>(oids_).subspan(
        pos_, std::min(batch->capacity() - batch->size(),
                       oids_.size() - pos_));
    pos_ += run.size();
    INSIGHT_ASSIGN_OR_RETURN(auto tuples, table_->GetMany(run, snapshot()));
    for (size_t i = 0; i < run.size(); ++i) {
      if (!tuples[i].has_value()) continue;  // Not visible to us.
      Row row;
      row.data = std::move(*tuples[i]);
      row.oid = run[i];
      batch->Push(std::move(row));
    }
  }
  return !batch->empty();
}

std::string KeywordIndexScanOp::Describe() const {
  return "KeywordIndexScan(" + Join(keywords_, ", ") + ")";
}

// ---------- Summary-first access ----------

Status SummaryStorageScanOp::OpenImpl() {
  ResetExec();
  it_.emplace(mgr_->storage_table()->Scan(snapshot()));
  return Status::OK();
}

Result<bool> SummaryStorageScanOp::NextBatchImpl(RowBatch* batch) {
  Tuple stored;
  while (!batch->full()) {
    Row row;
    if (!it_->Next(&row.oid, &stored)) break;
    INSIGHT_ASSIGN_OR_RETURN(
        row.summaries, SummarySet::FromStored(std::move(stored.at(0)).AsString()));
    batch->Push(std::move(row));
  }
  return !batch->empty();
}

std::string SummaryStorageScanOp::Describe() const {
  return "SummaryStorageScan(" + mgr_->storage_table()->name() + ")";
}

Status FetchBaseOp::OpenImpl() {
  ResetExec();
  input_.Clear();
  return child_->Open();
}

Result<bool> FetchBaseOp::NextBatchImpl(RowBatch* batch) {
  if (input_.capacity() != batch->capacity()) {
    input_.set_capacity(batch->capacity());
  }
  while (batch->empty()) {
    INSIGHT_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&input_));
    if (!has) break;
    // Storage rows come in heap order, which is mostly OID order.
    std::vector<Row>& rows = input_.rows();
    auto by_oid = [](const Row& a, const Row& b) { return a.oid < b.oid; };
    if (!std::is_sorted(rows.begin(), rows.end(), by_oid)) {
      std::sort(rows.begin(), rows.end(), by_oid);
    }
    std::vector<Oid> oids;
    oids.reserve(rows.size());
    for (const Row& row : rows) oids.push_back(row.oid);
    INSIGHT_ASSIGN_OR_RETURN(auto tuples,
                             table_->GetMany(oids, snapshot(), read_));
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!tuples[i].has_value()) continue;  // Not visible to us.
      rows[i].data = std::move(*tuples[i]);
      batch->Push(std::move(rows[i]));
    }
  }
  return !batch->empty();
}

std::string FetchBaseOp::Describe() const {
  return "FetchBase(" + table_->name() + ", propagate)";
}

std::string VectorSourceOp::Describe() const {
  return "VectorSource(" + std::to_string(rows_.size()) + " rows)";
}

// ---------- Selection family ----------

namespace {

/// Shared batch filter loop for SelectOp / SummarySelectOp: pull child
/// batches and move the rows the predicate passes into `batch` until it
/// fills.
Result<bool> FilterNextBatch(PhysicalOperator* child,
                             const Expression* predicate, size_t capacity,
                             RowBatch* input, size_t* input_pos,
                             RowBatch* batch) {
  if (input->capacity() != capacity) input->set_capacity(capacity);
  while (!batch->full()) {
    if (*input_pos >= input->size()) {
      INSIGHT_ASSIGN_OR_RETURN(bool has, child->NextBatch(input));
      if (!has) break;
      *input_pos = 0;
    }
    for (; *input_pos < input->size() && !batch->full(); ++*input_pos) {
      Row& row = input->rows()[*input_pos];
      INSIGHT_ASSIGN_OR_RETURN(bool pass, predicate->EvalBool(row));
      if (pass) batch->Push(std::move(row));
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
  INSIGHT_RETURN_NOT_OK(predicate_->Resolve(child_->schema()));
  return child_->Open();
}

Result<bool> SelectOp::NextBatchImpl(RowBatch* batch) {
  return FilterNextBatch(child_.get(), predicate_.get(), batch_capacity(),
                         &input_, &input_pos_, batch);
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
  INSIGHT_RETURN_NOT_OK(predicate_->Resolve(child_->schema()));
  return child_->Open();
}

Result<bool> SummarySelectOp::NextBatchImpl(RowBatch* batch) {
  return FilterNextBatch(child_.get(), predicate_.get(), batch_capacity(),
                         &input_, &input_pos_, batch);
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

// ---------- AttachSummariesOp ----------

AttachSummariesOp::AttachSummariesOp(OpPtr child, SummaryManager* mgr)
    : child_(std::move(child)), mgr_(mgr) {}

Status AttachSummariesOp::OpenImpl() {
  ResetExec();
  return child_->Open();
}

Result<bool> AttachSummariesOp::NextBatchImpl(RowBatch* batch) {
  INSIGHT_ASSIGN_OR_RETURN(bool has, child_->NextBatch(batch));
  if (!has) return false;
  INSIGHT_RETURN_NOT_OK(mgr_->AttachSummaries(batch, snapshot()));
  return true;
}

std::string AttachSummariesOp::Describe() const {
  return "AttachSummaries(" + mgr_->base()->name() + ", propagate)";
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
