#include <algorithm>
#include <atomic>
#include <numeric>
#include <unordered_map>

#include "common/string_util.h"
#include "engine/operators.h"
#include "index/key_codec.h"

namespace insight {

namespace {

/// Outer (probe) side of the joins: moves the next row of `child` into
/// `*row`, refilling `input` one batch at a time; false at end of stream.
/// Rows leave in child order, so every join preserves its outer order
/// (Rule 5).
Result<bool> PullOuterRow(PhysicalOperator* child, RowBatch* input,
                          size_t* pos, Row* row) {
  if (*pos >= input->size()) {
    const size_t capacity = child->batch_capacity();
    if (input->capacity() != capacity) input->set_capacity(capacity);
    INSIGHT_ASSIGN_OR_RETURN(bool has, child->NextBatch(input));
    if (!has) return false;
    *pos = 0;
  }
  *row = std::move(input->rows()[(*pos)++]);
  return true;
}

}  // namespace

// ---------- NestedLoopJoinOp ----------

NestedLoopJoinOp::NestedLoopJoinOp(OpPtr left, OpPtr right, ExprPtr predicate)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)) {
  schema_ = Schema::Concat(left_->schema(), right_->schema());
}

Status NestedLoopJoinOp::OpenImpl() {
  ResetExec();
  INSIGHT_RETURN_NOT_OK(predicate_->Resolve(schema_));
  INSIGHT_RETURN_NOT_OK(left_->Open());
  // CollectRows opens, drains and closes the right side.
  INSIGHT_ASSIGN_OR_RETURN(right_rows_, CollectRows(right_.get()));
  left_input_.Clear();
  left_pos_ = 0;
  left_valid_ = false;
  right_pos_ = 0;
  return Status::OK();
}

Result<bool> NestedLoopJoinOp::NextBatchImpl(RowBatch* batch) {
  const size_t left_arity = left_->schema().num_columns();
  while (!batch->full()) {
    if (!left_valid_) {
      INSIGHT_ASSIGN_OR_RETURN(
          left_valid_,
          PullOuterRow(left_.get(), &left_input_, &left_pos_, &current_left_));
      if (!left_valid_) break;
      right_pos_ = 0;
    }
    while (right_pos_ < right_rows_.size() && !batch->full()) {
      const Row& right = right_rows_[right_pos_++];
      Row candidate;
      candidate.data = Tuple::Concat(current_left_.data, right.data);
      // Evaluate the data predicate before paying for the summary merge.
      INSIGHT_ASSIGN_OR_RETURN(bool pass, predicate_->EvalBool(candidate));
      if (!pass) continue;
      INSIGHT_ASSIGN_OR_RETURN(
          candidate.summaries,
          MergeSummaries(current_left_.summaries, right.summaries,
                         left_arity));
      batch->Push(std::move(candidate));
    }
    if (right_pos_ >= right_rows_.size()) left_valid_ = false;
  }
  return !batch->empty();
}

void NestedLoopJoinOp::Close() {
  left_->Close();
  right_rows_.clear();
}

std::string NestedLoopJoinOp::Describe() const {
  return "NestedLoopJoin(" + predicate_->ToString() + ")";
}

// ---------- IndexNLJoinOp ----------

IndexNLJoinOp::IndexNLJoinOp(OpPtr outer, Table* inner,
                             std::string inner_column, ExprPtr outer_key,
                             SummaryManager* inner_mgr)
    : outer_(std::move(outer)),
      inner_(inner),
      inner_column_(std::move(inner_column)),
      outer_key_(std::move(outer_key)),
      inner_mgr_(inner_mgr) {
  schema_ = Schema::Concat(outer_->schema(), inner_->schema());
}

Status IndexNLJoinOp::OpenImpl() {
  ResetExec();
  index_ = inner_->GetColumnIndex(inner_column_);
  if (index_ == nullptr) {
    return Status::InvalidArgument("index join needs an index on " +
                                   inner_->name() + "." + inner_column_);
  }
  INSIGHT_ASSIGN_OR_RETURN(inner_pos_,
                           inner_->schema().IndexOf(inner_column_));
  INSIGHT_RETURN_NOT_OK(outer_key_->Resolve(outer_->schema()));
  outer_input_.Clear();
  outer_pos_ = 0;
  outer_valid_ = false;
  match_pos_ = 0;
  matches_.Clear();
  return outer_->Open();
}

Result<bool> IndexNLJoinOp::NextBatchImpl(RowBatch* batch) {
  const size_t outer_arity = outer_->schema().num_columns();
  while (!batch->full()) {
    if (!outer_valid_) {
      INSIGHT_ASSIGN_OR_RETURN(
          outer_valid_,
          PullOuterRow(outer_.get(), &outer_input_, &outer_pos_, &outer_row_));
      if (!outer_valid_) break;
      INSIGHT_ASSIGN_OR_RETURN(Value key, outer_key_->Eval(outer_row_));
      if (key.is_null()) {  // Equals no row, though the index keys NULL.
        outer_valid_ = false;
        continue;
      }
      join_key_ = EncodeIndexKey(key);
      INSIGHT_RETURN_NOT_OK(FetchInner());
    }
    while (match_pos_ < matches_.size() && !batch->full()) {
      const Row& inner = matches_[match_pos_++];
      Row row;
      row.data = Tuple::Concat(outer_row_.data, inner.data);
      INSIGHT_ASSIGN_OR_RETURN(
          row.summaries,
          MergeSummaries(outer_row_.summaries, inner.summaries, outer_arity));
      batch->Push(std::move(row));
    }
    if (match_pos_ >= matches_.size()) outer_valid_ = false;
  }
  return !batch->empty();
}

Status IndexNLJoinOp::FetchInner() {
  matches_.Clear();
  match_pos_ = 0;
  INSIGHT_ASSIGN_OR_RETURN(std::vector<uint64_t> hits,
                           index_->Lookup(join_key_));
  // One GetMany walk over the hits in OID order; rows keep hit order.
  std::vector<size_t> order(hits.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return hits[a] < hits[b]; });
  std::vector<Oid> oids;
  oids.reserve(hits.size());
  for (size_t i : order) oids.push_back(static_cast<Oid>(hits[i]));
  INSIGHT_ASSIGN_OR_RETURN(auto tuples, inner_->GetMany(oids, snapshot()));
  std::vector<std::optional<Tuple>> by_hit(hits.size());
  for (size_t k = 0; k < order.size(); ++k) {
    by_hit[order[k]] = std::move(tuples[k]);
  }
  for (size_t i = 0; i < hits.size(); ++i) {
    // Column indexes keep entries for every stored version: skip oids
    // with no version visible to this snapshot, and re-verify the indexed
    // value against the visible version.
    if (!by_hit[i].has_value() ||
        EncodeIndexKey(by_hit[i]->at(inner_pos_)) != join_key_) {
      continue;
    }
    matches_.Push(Row{static_cast<Oid>(hits[i]), std::move(*by_hit[i]),
                    SummarySet()});
  }
  if (inner_mgr_ != nullptr) {
    INSIGHT_RETURN_NOT_OK(inner_mgr_->AttachSummaries(&matches_, snapshot()));
  }
  return Status::OK();
}

std::string IndexNLJoinOp::Describe() const {
  return "IndexNLJoin(" + (inner_rel_.empty() ? inner_->name() : inner_rel_) +
         "." + inner_column_ + " = " + outer_key_->ToString() + ")";
}

// ---------- HashJoinOp ----------

HashJoinOp::HashJoinOp(OpPtr left, OpPtr right, std::string left_key,
                       std::string right_key, ExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      residual_(std::move(residual)) {
  schema_ = Schema::Concat(left_->schema(), right_->schema());
}

Status HashJoinOp::OpenImpl() {
  ResetExec();
  if (residual_ != nullptr) {
    INSIGHT_RETURN_NOT_OK(residual_->Resolve(schema_));
  }
  INSIGHT_ASSIGN_OR_RETURN(left_key_idx_,
                           left_->schema().IndexOf(left_key_));
  INSIGHT_ASSIGN_OR_RETURN(right_key_idx_,
                           right_->schema().IndexOf(right_key_));
  INSIGHT_RETURN_NOT_OK(left_->Open());
  INSIGHT_RETURN_NOT_OK(right_->Open());
  table_.clear();
  // Drain the build side batch-at-a-time.
  RowBatch build;
  build.set_capacity(batch_capacity());
  while (true) {
    INSIGHT_ASSIGN_OR_RETURN(bool has, right_->NextBatch(&build));
    if (!has) break;
    for (Row& row : build) {
      const Value& key = row.data.at(right_key_idx_);
      if (!key.is_null()) {
        table_[key.Hash()].push_back(std::move(row));
      }
    }
  }
  right_->Close();
  left_valid_ = false;
  bucket_ = nullptr;
  left_input_.Clear();
  left_pos_ = 0;
  return Status::OK();
}

Result<bool> HashJoinOp::NextBatchImpl(RowBatch* batch) {
  const size_t left_arity = left_->schema().num_columns();
  while (!batch->full()) {
    if (!left_valid_) {
      INSIGHT_ASSIGN_OR_RETURN(
          left_valid_,
          PullOuterRow(left_.get(), &left_input_, &left_pos_, &current_left_));
      if (!left_valid_) break;
      bucket_ = nullptr;
      bucket_pos_ = 0;
      const Value& key = current_left_.data.at(left_key_idx_);
      if (!key.is_null()) {
        auto it = table_.find(key.Hash());
        if (it != table_.end()) bucket_ = &it->second;
      }
    }
    while (bucket_ != nullptr && bucket_pos_ < bucket_->size() &&
           !batch->full()) {
      const Row& right = (*bucket_)[bucket_pos_++];
      // Re-check equality (hash buckets may mix values).
      if (current_left_.data.at(left_key_idx_)
              .Compare(right.data.at(right_key_idx_)) != 0) {
        continue;
      }
      Row candidate;
      candidate.data = Tuple::Concat(current_left_.data, right.data);
      if (residual_ != nullptr) {
        INSIGHT_ASSIGN_OR_RETURN(bool pass, residual_->EvalBool(candidate));
        if (!pass) continue;
      }
      INSIGHT_ASSIGN_OR_RETURN(
          candidate.summaries,
          MergeSummaries(current_left_.summaries, right.summaries,
                         left_arity));
      batch->Push(std::move(candidate));
    }
    if (bucket_ == nullptr || bucket_pos_ >= bucket_->size()) {
      left_valid_ = false;
    }
  }
  return !batch->empty();
}

void HashJoinOp::Close() {
  left_->Close();
  table_.clear();
}

std::string HashJoinOp::Describe() const {
  std::string out = "HashJoin(" + left_key_ + " = " + right_key_;
  if (residual_ != nullptr) out += " AND " + residual_->ToString();
  return out + ")";
}

// ---------- SummaryJoinOp ----------

std::string SummaryJoinPredicate::ToString() const {
  if (merged_form()) return "merged: " + merged_expr->ToString();
  return left_expr->ToString() + " " + CompareOpToString(op) + " " +
         right_expr->ToString();
}

SummaryJoinPredicate SummaryJoinPredicate::Clone() const {
  SummaryJoinPredicate out;
  if (left_expr != nullptr) out.left_expr = left_expr->Clone();
  out.op = op;
  if (right_expr != nullptr) out.right_expr = right_expr->Clone();
  if (merged_expr != nullptr) out.merged_expr = merged_expr->Clone();
  return out;
}

void SummaryJoinPredicate::CollectInstances(
    std::vector<std::string>* out) const {
  if (left_expr != nullptr) left_expr->CollectInstances(out);
  if (right_expr != nullptr) right_expr->CollectInstances(out);
  if (merged_expr != nullptr) merged_expr->CollectInstances(out);
}

SummaryJoinOp::SummaryJoinOp(OpPtr left, OpPtr right,
                             SummaryJoinPredicate predicate)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)) {
  schema_ = Schema::Concat(left_->schema(), right_->schema());
}

SummaryJoinOp::SummaryJoinOp(OpPtr left, Table* right_table,
                             const SummaryBTree* right_index,
                             std::string label_instance, std::string label,
                             bool propagate_right)
    : left_(std::move(left)),
      right_table_(right_table),
      right_index_(right_index),
      label_instance_(std::move(label_instance)),
      label_(std::move(label)),
      propagate_right_(propagate_right) {
  schema_ = Schema::Concat(left_->schema(), right_table_->schema());
}

std::vector<PhysicalOperator*> SummaryJoinOp::children() const {
  if (right_ != nullptr) return {left_.get(), right_.get()};
  return {left_.get()};
}

Status SummaryJoinOp::OpenImpl() {
  ResetExec();
  left_input_.Clear();
  left_pos_ = 0;
  left_valid_ = false;
  left_arity_ = left_->schema().num_columns();
  if (predicate_.merged_form()) {
    INSIGHT_RETURN_NOT_OK(predicate_.merged_expr->Resolve(schema_));
  } else if (right_ != nullptr) {
    INSIGHT_RETURN_NOT_OK(predicate_.left_expr->Resolve(left_->schema()));
    INSIGHT_RETURN_NOT_OK(predicate_.right_expr->Resolve(right_->schema()));
  }
  INSIGHT_RETURN_NOT_OK(left_->Open());
  if (right_ != nullptr) {
    // CollectRows opens, drains and closes the right side.
    INSIGHT_ASSIGN_OR_RETURN(right_rows_, CollectRows(right_.get()));
    right_pos_ = 0;
  }
  return Status::OK();
}

Result<bool> SummaryJoinOp::NextBatchImpl(RowBatch* batch) {
  while (!batch->full()) {
    if (!left_valid_) {
      INSIGHT_ASSIGN_OR_RETURN(
          left_valid_,
          PullOuterRow(left_.get(), &left_input_, &left_pos_, &current_left_));
      if (!left_valid_) break;
      right_pos_ = 0;
      hits_.clear();
      hit_pos_ = 0;
      fetched_.Clear();
      fetched_pos_ = 0;
      if (right_ == nullptr) {
        // Probe: right tuples whose label count equals the left tuple's.
        const SummaryObject* obj =
            current_left_.summaries.GetSummaryObject(label_instance_);
        if (obj != nullptr) {
          auto count = obj->GetLabelValue(label_);
          if (count.ok()) {
            INSIGHT_ASSIGN_OR_RETURN(
                hits_, right_index_->Search(
                           ClassifierProbe::Equal(label_, *count), snapshot()));
          }
        }
      }
    }
    INSIGHT_RETURN_NOT_OK(right_ != nullptr ? JoinNestedLoop(batch)
                                            : JoinIndex(batch));
  }
  return !batch->empty();
}

Status SummaryJoinOp::JoinNestedLoop(RowBatch* batch) {
  while (right_pos_ < right_rows_.size() && !batch->full()) {
    const Row& right = right_rows_[right_pos_++];
    bool pass = false;
    Row merged;
    if (predicate_.merged_form()) {
      merged.data = Tuple::Concat(current_left_.data, right.data);
      INSIGHT_ASSIGN_OR_RETURN(
          merged.summaries,
          MergeSummaries(current_left_.summaries, right.summaries,
                         left_arity_));
      INSIGHT_ASSIGN_OR_RETURN(pass, predicate_.merged_expr->EvalBool(merged));
    } else {
      INSIGHT_ASSIGN_OR_RETURN(Value lv,
                               predicate_.left_expr->Eval(current_left_));
      INSIGHT_ASSIGN_OR_RETURN(Value rv, predicate_.right_expr->Eval(right));
      if (!lv.is_null() && !rv.is_null()) {
        pass = EvalCompare(predicate_.op, lv.Compare(rv));
      }
      if (pass) {
        merged.data = Tuple::Concat(current_left_.data, right.data);
        INSIGHT_ASSIGN_OR_RETURN(
            merged.summaries,
            MergeSummaries(current_left_.summaries, right.summaries,
                           left_arity_));
      }
    }
    if (pass) batch->Push(std::move(merged));
  }
  if (right_pos_ >= right_rows_.size()) left_valid_ = false;
  return Status::OK();
}

Status SummaryJoinOp::JoinIndex(RowBatch* batch) {
  while (!batch->full()) {
    if (fetched_pos_ >= fetched_.size()) {
      // The next run of hits, resolved with one SummaryBTree::FetchRows.
      if (hit_pos_ >= hits_.size()) break;
      const size_t n = std::min(batch_capacity(), hits_.size() - hit_pos_);
      fetched_.Clear();
      fetched_pos_ = 0;
      INSIGHT_RETURN_NOT_OK(right_index_->FetchRows(
          std::span<const SummaryIndexHit>(hits_).subspan(hit_pos_, n),
          propagate_right_, snapshot(), &fetched_));
      hit_pos_ += n;
    }
    const Row& right = fetched_[fetched_pos_++];
    Row row;
    row.data = Tuple::Concat(current_left_.data, right.data);
    INSIGHT_ASSIGN_OR_RETURN(
        row.summaries,
        MergeSummaries(current_left_.summaries, right.summaries, left_arity_));
    batch->Push(std::move(row));
  }
  if (hit_pos_ >= hits_.size() && fetched_pos_ >= fetched_.size()) {
    left_valid_ = false;
  }
  return Status::OK();
}

void SummaryJoinOp::Close() {
  left_->Close();
  right_rows_.clear();
}

std::string SummaryJoinOp::Describe() const {
  if (right_ != nullptr) {
    return "SummaryJoin[J](" + predicate_.ToString() + ", nested-loop)";
  }
  return "SummaryJoin[J](" + label_instance_ + "." + label_ +
         " equality, index)";
}

// ---------- SortOp ----------

SortOp::SortOp(OpPtr child, std::vector<SortKey> keys, Mode mode,
               StorageManager* storage, BufferPool* pool,
               size_t memory_budget_bytes)
    : child_(std::move(child)),
      keys_(std::move(keys)),
      mode_(mode),
      storage_(storage),
      pool_(pool),
      memory_budget_(memory_budget_bytes) {}

SortOp::SortOp(ExecutionContext* ctx, OpPtr child, std::vector<SortKey> keys,
               Mode mode, size_t memory_budget_bytes)
    : SortOp(std::move(child), std::move(keys), mode, ctx->storage(),
             ctx->pool(), memory_budget_bytes) {
  exec_ctx_ = ctx;
}

bool SortOp::summary_based() const {
  for (const SortKey& key : keys_) {
    if (key.expr->IsSummaryBased()) return true;
  }
  return false;
}

Result<SortOp::KeyedRow> SortOp::Decorate(Row row) const {
  KeyedRow keyed;
  keyed.keys.reserve(keys_.size());
  for (const SortKey& key : keys_) {
    INSIGHT_ASSIGN_OR_RETURN(Value v, key.expr->Eval(row));
    keyed.keys.push_back(std::move(v));
  }
  keyed.row = std::move(row);
  return keyed;
}

bool SortOp::Less(const KeyedRow& a, const KeyedRow& b) const {
  for (size_t i = 0; i < keys_.size(); ++i) {
    int c = a.keys[i].Compare(b.keys[i]);
    if (keys_[i].descending) c = -c;
    if (c != 0) return c < 0;
  }
  return false;
}

bool SortOp::Before(const KeyedRow& a, const KeyedRow& b) const {
  if (Less(a, b)) return true;
  return !Less(b, a) && a.seq < b.seq;
}

namespace {
std::atomic<uint64_t> g_spill_counter{1};
}  // namespace

Status SortOp::SpillRun(std::vector<KeyedRow>* run) {
  std::sort(run->begin(), run->end(),
            [this](const KeyedRow& a, const KeyedRow& b) {
              return Before(a, b);
            });
  INSIGHT_ASSIGN_OR_RETURN(
      FileId file,
      storage_->CreateFile("tmp.sort." +
                           std::to_string(g_spill_counter.fetch_add(1))));
  Run r;
  r.file = std::make_unique<HeapFile>(pool_, file);
  for (const KeyedRow& keyed : *run) {
    std::string buf;
    keyed.row.Serialize(&buf);
    INSIGHT_RETURN_NOT_OK(r.file->Insert(buf).status());
  }
  runs_.push_back(std::move(r));
  ++runs_spilled_;
  run->clear();
  return Status::OK();
}

Status SortOp::Run::Advance(const SortOp& op) {
  head.reset();
  RowLocation loc;
  std::string rec;
  if (!it->Next(&loc, &rec)) return Status::OK();
  INSIGHT_ASSIGN_OR_RETURN(Row row, Row::Deserialize(rec));
  INSIGHT_ASSIGN_OR_RETURN(head, op.Decorate(std::move(row)));
  return Status::OK();
}

Status SortOp::OpenImpl() {
  ResetExec();
  pos_ = 0;
  sorted_.clear();
  runs_.clear();
  for (SortKey& key : keys_) {
    INSIGHT_RETURN_NOT_OK(key.expr->Resolve(child_->schema()));
  }
  INSIGHT_RETURN_NOT_OK(child_->Open());
  if (mode_ == Mode::kExternal &&
      (storage_ == nullptr || pool_ == nullptr)) {
    return Status::InvalidArgument("external sort needs storage + pool");
  }
  // Under a limit, `buffer` is a max-heap (by Before) of the best rows so
  // far: a row that does not precede a full heap's top can never be among
  // the first limit_ rows, since every row in the heap precedes it.
  auto before = [this](const KeyedRow& a, const KeyedRow& b) {
    return Before(a, b);
  };
  size_t bytes = 0;
  uint64_t seq = 0;
  std::vector<KeyedRow> buffer;
  RowBatch input;
  input.set_capacity(batch_capacity());
  while (true) {
    INSIGHT_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&input));
    if (!has) break;
    for (Row& row : input) {
      INSIGHT_ASSIGN_OR_RETURN(KeyedRow keyed, Decorate(std::move(row)));
      keyed.seq = seq++;
      if (mode_ == Mode::kExternal) {
        std::string tmp;
        keyed.row.Serialize(&tmp);
        keyed.bytes = tmp.size();
      }
      if (limit_ > 0 && buffer.size() == limit_) {
        if (!Before(keyed, buffer.front())) continue;
        std::pop_heap(buffer.begin(), buffer.end(), before);
        bytes -= buffer.back().bytes;
        buffer.pop_back();
      }
      bytes += keyed.bytes;
      buffer.push_back(std::move(keyed));
      if (limit_ > 0) std::push_heap(buffer.begin(), buffer.end(), before);
      if (mode_ == Mode::kExternal && bytes > memory_budget_) {
        INSIGHT_RETURN_NOT_OK(SpillRun(&buffer));
        bytes = 0;
      }
    }
  }
  child_->Close();

  if (mode_ == Mode::kMemory || runs_.empty()) {
    std::sort(buffer.begin(), buffer.end(), before);
    sorted_ = std::move(buffer);
    return Status::OK();
  }
  // Final partial run, then prime the k-way merge heads.
  if (!buffer.empty()) INSIGHT_RETURN_NOT_OK(SpillRun(&buffer));
  for (Run& run : runs_) {
    run.it.emplace(run.file->Scan());
    INSIGHT_RETURN_NOT_OK(run.Advance(*this));
  }
  return Status::OK();
}

Result<bool> SortOp::NextBatchImpl(RowBatch* batch) {
  if (runs_.empty()) {
    while (!batch->full() && pos_ < sorted_.size()) {
      batch->Push(std::move(sorted_[pos_++].row));
    }
    return !batch->empty();
  }
  while (!batch->full() && (limit_ == 0 || pos_ < limit_)) {
    // K-way merge step: emit the smallest live head (the earliest run's
    // among equal keys, which keeps the sort stable), then refill it.
    size_t best = runs_.size();
    for (size_t i = 0; i < runs_.size(); ++i) {
      if (!runs_[i].head.has_value()) continue;
      if (best == runs_.size() || Less(*runs_[i].head, *runs_[best].head)) {
        best = i;
      }
    }
    if (best == runs_.size()) break;
    batch->Push(std::move(runs_[best].head->row));
    ++pos_;
    INSIGHT_RETURN_NOT_OK(runs_[best].Advance(*this));
  }
  return !batch->empty();
}

std::string SortOp::Describe() const {
  std::string out = summary_based() ? "SummarySort[O](" : "Sort(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += keys_[i].expr->ToString();
    if (keys_[i].descending) out += " DESC";
  }
  out += mode_ == Mode::kMemory ? ", memory)" : ", external)";
  return out;
}

// ---------- HashAggregateOp ----------

HashAggregateOp::HashAggregateOp(OpPtr child,
                                 std::vector<std::string> group_columns,
                                 std::vector<AggregateSpec> aggregates,
                                 AnnotationResolver resolver)
    : child_(std::move(child)),
      group_columns_(std::move(group_columns)),
      aggregates_(std::move(aggregates)),
      resolver_(std::move(resolver)) {
  // One column per output value, repeats included (GROUP BY a, a), so
  // every name keeps its row position.
  std::vector<Column> columns;
  for (const std::string& name : group_columns_) {
    auto idx = child_->schema().IndexOf(name);
    INSIGHT_CHECK(idx.ok()) << "group by unknown column " << name;
    group_indices_.push_back(*idx);
    columns.push_back(child_->schema().column(*idx));
  }
  for (const AggregateSpec& agg : aggregates_) {
    const ValueType type = agg.kind == AggregateSpec::Kind::kAvg
                               ? ValueType::kDouble
                               : ValueType::kInt64;
    columns.push_back({agg.output_name, type});
  }
  schema_ = Schema(std::move(columns));
}

Status HashAggregateOp::OpenImpl() {
  ResetExec();
  pos_ = 0;
  results_.clear();
  for (AggregateSpec& spec : aggregates_) {
    if (spec.arg != nullptr) {
      INSIGHT_RETURN_NOT_OK(spec.arg->Resolve(child_->schema()));
    }
  }
  INSIGHT_RETURN_NOT_OK(child_->Open());

  struct GroupState {
    Tuple key;
    SummarySet summaries;
    std::vector<double> sums;
    std::vector<Value> mins;
    std::vector<Value> maxs;
    std::vector<int64_t> counts;  // Per-aggregate non-null counts.
    int64_t rows = 0;
    size_t order;  // First-seen order for deterministic output.
  };
  std::unordered_map<std::string, GroupState> groups;
  std::vector<std::string> group_order;

  auto accumulate = [&](const Row& row) -> Status {
    Tuple key = row.data.Project(group_indices_);
    std::string key_bytes;
    key.Serialize(&key_bytes);
    auto [it, inserted] = groups.try_emplace(key_bytes);
    GroupState& state = it->second;
    if (inserted) {
      state.key = key;
      state.sums.assign(aggregates_.size(), 0.0);
      state.mins.assign(aggregates_.size(), Value::Null());
      state.maxs.assign(aggregates_.size(), Value::Null());
      state.counts.assign(aggregates_.size(), 0);
      state.order = group_order.size();
      group_order.push_back(key_bytes);
    }
    ++state.rows;
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      const AggregateSpec& spec = aggregates_[a];
      if (spec.arg == nullptr) continue;  // COUNT(*) uses state.rows.
      INSIGHT_ASSIGN_OR_RETURN(Value v, spec.arg->Eval(row));
      if (v.is_null()) continue;
      ++state.counts[a];
      switch (spec.kind) {
        case AggregateSpec::Kind::kSum:
        case AggregateSpec::Kind::kAvg:
          state.sums[a] += v.AsDouble();
          break;
        case AggregateSpec::Kind::kMin:
          if (state.mins[a].is_null() || v.Compare(state.mins[a]) < 0) {
            state.mins[a] = v;
          }
          break;
        case AggregateSpec::Kind::kMax:
          if (state.maxs[a].is_null() || v.Compare(state.maxs[a]) > 0) {
            state.maxs[a] = v;
          }
          break;
        case AggregateSpec::Kind::kCount:
          break;
      }
    }
    // Summary propagation: project the member's set onto the grouping
    // columns, then merge into the group's set (project-before-merge).
    if (!row.summaries.empty()) {
      INSIGHT_ASSIGN_OR_RETURN(
          SummarySet projected,
          ProjectSummaries(row.summaries, group_indices_, resolver_));
      INSIGHT_ASSIGN_OR_RETURN(
          state.summaries, MergeSummaries(state.summaries, projected, 0));
    }
    return Status::OK();
  };

  RowBatch input;
  input.set_capacity(batch_capacity());
  while (true) {
    INSIGHT_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&input));
    if (!has) break;
    for (const Row& row : input) INSIGHT_RETURN_NOT_OK(accumulate(row));
  }
  child_->Close();

  for (const std::string& key_bytes : group_order) {
    GroupState& state = groups[key_bytes];
    Row out;
    out.data = state.key;
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      const AggregateSpec& spec = aggregates_[a];
      switch (spec.kind) {
        case AggregateSpec::Kind::kCount:
          out.data.Append(Value::Int(spec.arg == nullptr ? state.rows
                                                         : state.counts[a]));
          break;
        case AggregateSpec::Kind::kSum:
          out.data.Append(Value::Int(static_cast<int64_t>(state.sums[a])));
          break;
        case AggregateSpec::Kind::kAvg:
          out.data.Append(state.counts[a] == 0
                              ? Value::Null()
                              : Value::Double(state.sums[a] /
                                              state.counts[a]));
          break;
        case AggregateSpec::Kind::kMin:
          out.data.Append(state.mins[a]);
          break;
        case AggregateSpec::Kind::kMax:
          out.data.Append(state.maxs[a]);
          break;
      }
    }
    out.summaries = std::move(state.summaries);
    results_.push_back(std::move(out));
  }
  return Status::OK();
}

Result<bool> HashAggregateOp::NextBatchImpl(RowBatch* batch) {
  while (!batch->full() && pos_ < results_.size()) {
    batch->Push(results_[pos_++]);
  }
  return !batch->empty();
}

std::string HashAggregateOp::Describe() const {
  std::string out = "HashAggregate(group by " + Join(group_columns_, ", ");
  out += "; " + std::to_string(aggregates_.size()) + " aggregates)";
  return out;
}

// ---------- DistinctOp ----------

DistinctOp::DistinctOp(OpPtr child) : child_(std::move(child)) {}

Status DistinctOp::OpenImpl() {
  ResetExec();
  pos_ = 0;
  results_.clear();
  INSIGHT_RETURN_NOT_OK(child_->Open());
  std::unordered_map<std::string, size_t> seen;
  RowBatch input;
  input.set_capacity(batch_capacity());
  while (true) {
    INSIGHT_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&input));
    if (!has) break;
    for (Row& row : input) {
      std::string key;
      row.data.Serialize(&key);
      auto it = seen.find(key);
      if (it == seen.end()) {
        seen.emplace(std::move(key), results_.size());
        results_.push_back(std::move(row));
      } else {
        // Duplicate elimination merges the collapsed rows' summaries.
        Row& kept = results_[it->second];
        INSIGHT_ASSIGN_OR_RETURN(
            kept.summaries,
            MergeSummaries(kept.summaries, row.summaries, 0));
      }
    }
  }
  child_->Close();
  return Status::OK();
}

Result<bool> DistinctOp::NextBatchImpl(RowBatch* batch) {
  while (!batch->full() && pos_ < results_.size()) {
    batch->Push(results_[pos_++]);
  }
  return !batch->empty();
}

std::string DistinctOp::Describe() const { return "Distinct"; }

}  // namespace insight
