#include "engine/parallel_ops.h"

#include <chrono>
#include <cstdio>

namespace insight {

// ---------- ParallelScanOp ----------

ParallelScanOp::ParallelScanOp(Table* table, SummaryManager* mgr,
                               bool propagate,
                               std::shared_ptr<MorselSource> morsels)
    : table_(table),
      mgr_(mgr),
      propagate_(propagate && mgr != nullptr),
      morsels_(std::move(morsels)) {
  INSIGHT_CHECK(morsels_ != nullptr) << "parallel scan without morsels";
}

ParallelScanOp::ParallelScanOp(ExecutionContext* ctx, Table* table,
                               bool propagate,
                               std::shared_ptr<MorselSource> morsels)
    : ParallelScanOp(table, ctx->ManagerFor(table->name()), propagate,
                     std::move(morsels)) {
  exec_ctx_ = ctx;
}

Status ParallelScanOp::OpenImpl() {
  ResetExec();
  it_.reset();
  pages_skipped_ = 0;
  return Status::OK();
}

void ParallelScanOp::OpenMorsel(PageId begin, PageId end) {
  it_.emplace(table_->ScanRange(begin, end, snapshot()));
  if (!zone_pred_.empty() && table_->zone_maps() != nullptr) {
    it_->EnableZonePruning(table_->zone_maps(), zone_pred_,
                           &pages_skipped_);
  }
}

Result<bool> ParallelScanOp::NextBatchImpl(RowBatch* batch) {
  while (!batch->full()) {
    if (!it_.has_value()) {
      PageId begin, end;
      if (!morsels_->Next(&begin, &end)) break;
      OpenMorsel(begin, end);
    }
    INSIGHT_ASSIGN_OR_RETURN(
        bool morsel_done,
        ScanHeapInto(&*it_, propagate_ ? mgr_ : nullptr, snapshot(), batch));
    if (morsel_done) it_.reset();
  }
  return !batch->empty();
}

std::string ParallelScanOp::AnalyzeAnnotation() const {
  return "  pages_skipped=" + std::to_string(pages_skipped_);
}

std::string ParallelScanOp::Describe() const {
  return "ParallelScan(" + table_->name() + ", morsel=" +
         std::to_string(morsels_->morsel_pages()) + "p" +
         (propagate_ ? ", propagate" : "") + ")";
}

// ---------- ExchangeOp ----------

ExchangeOp::ExchangeOp(OpPtr child, size_t worker_id)
    : child_(std::move(child)), worker_id_(worker_id) {}

Status ExchangeOp::OpenImpl() {
  ResetExec();
  return child_->Open();
}

Result<bool> ExchangeOp::NextBatchImpl(RowBatch* batch) {
  return child_->NextBatch(batch);
}

std::string ExchangeOp::Describe() const {
  return "Exchange(worker=" + std::to_string(worker_id_) + ")";
}

// ---------- GatherOp ----------

GatherOp::GatherOp(std::vector<OpPtr> partitions,
                   std::shared_ptr<MorselSource> morsels)
    : partitions_(std::move(partitions)), morsels_(std::move(morsels)) {
  INSIGHT_CHECK(!partitions_.empty()) << "gather without partitions";
  results_.resize(partitions_.size());
  worker_ns_.resize(partitions_.size(), 0);
}

TaskScheduler* GatherOp::scheduler() const {
  if (exec_ctx_ != nullptr && exec_ctx_->scheduler() != nullptr) {
    return exec_ctx_->scheduler();
  }
  return TaskScheduler::Default();
}

Status GatherOp::OpenImpl() {
  ResetExec();
  worker_pos_ = 0;
  row_pos_ = 0;
  gathered_.store(0, std::memory_order_relaxed);
  if (morsels_ != nullptr) morsels_->Reset();
  const size_t n = partitions_.size();
  std::vector<Status> statuses(n, Status::OK());
  for (auto& buffer : results_) buffer.clear();

  // One drain task per partition. Each task touches only its own slots,
  // so the only synchronization needed is the barrier in RunAndWait.
  std::vector<TaskScheduler::Task> tasks;
  tasks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    tasks.push_back([this, i, &statuses] {
      const auto start = std::chrono::steady_clock::now();
      PhysicalOperator* part = partitions_[i].get();
      Status st = part->Open();
      if (st.ok()) {
        RowBatch batch;
        batch.set_capacity(part->batch_capacity());
        while (true) {
          // LIMIT pushdown: once the fleet has gathered enough rows,
          // stop pulling batches and halt the morsel source so sibling
          // workers stop claiming new page ranges too.
          if (limit_hint_ > 0 &&
              gathered_.load(std::memory_order_relaxed) >= limit_hint_) {
            if (morsels_ != nullptr) morsels_->Halt();
            break;
          }
          Result<bool> has = part->NextBatch(&batch);
          if (!has.ok()) {
            st = has.status();
            break;
          }
          if (!*has) break;
          auto& buffer = results_[i];
          buffer.reserve(buffer.size() + batch.size());
          for (Row& row : batch) buffer.push_back(std::move(row));
          if (limit_hint_ > 0) {
            const uint64_t total =
                gathered_.fetch_add(batch.size(),
                                    std::memory_order_relaxed) +
                batch.size();
            if (total >= limit_hint_) {
              if (morsels_ != nullptr) morsels_->Halt();
              break;
            }
          }
        }
        part->Close();
      }
      statuses[i] = std::move(st);
      worker_ns_[i] = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    });
  }
  scheduler()->RunAndWait(std::move(tasks));  // The gather barrier.
  for (Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Result<bool> GatherOp::NextBatchImpl(RowBatch* batch) {
  while (!batch->full() && worker_pos_ < results_.size()) {
    std::vector<Row>& buffer = results_[worker_pos_];
    if (row_pos_ >= buffer.size()) {
      ++worker_pos_;
      row_pos_ = 0;
      continue;
    }
    batch->Push(std::move(buffer[row_pos_++]));
  }
  return !batch->empty();
}

void GatherOp::Close() {
  // Partitions were closed by their drain tasks; free the buffers.
  for (auto& buffer : results_) {
    buffer.clear();
    buffer.shrink_to_fit();
  }
}

std::string GatherOp::Describe() const {
  std::string out = "Gather(workers=" + std::to_string(partitions_.size());
  if (morsels_ != nullptr) {
    out += ", morsel=" + std::to_string(morsels_->morsel_pages()) + "p";
  }
  return out + ")";
}

std::string GatherOp::AnalyzeAnnotation() const {
  std::string out = "  workers=" + std::to_string(partitions_.size()) +
                    " worker_ms=[";
  for (size_t i = 0; i < worker_ns_.size(); ++i) {
    if (i > 0) out += ", ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(worker_ns_[i]) / 1e6);
    out += buf;
  }
  return out + "]";
}

std::vector<PhysicalOperator*> GatherOp::children() const {
  std::vector<PhysicalOperator*> out;
  out.reserve(partitions_.size());
  for (const OpPtr& partition : partitions_) out.push_back(partition.get());
  return out;
}

}  // namespace insight
