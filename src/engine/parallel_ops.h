#ifndef INSIGHTNOTES_ENGINE_PARALLEL_OPS_H_
#define INSIGHTNOTES_ENGINE_PARALLEL_OPS_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/task_scheduler.h"
#include "engine/operators.h"

namespace insight {

/// Atomic dispenser of page-range morsels over one heap file's extent.
/// Every ParallelScanOp partition of a plan shares one source, so the
/// workers self-balance: a worker that lands on cheap pages simply pulls
/// the next morsel sooner (classic morsel-driven scheduling).
class MorselSource {
 public:
  static constexpr PageId kDefaultMorselPages = 16;  // 256 KiB of heap.

  explicit MorselSource(PageId num_pages,
                        PageId morsel_pages = kDefaultMorselPages)
      : num_pages_(num_pages),
        morsel_pages_(morsel_pages == 0 ? kDefaultMorselPages
                                        : morsel_pages) {}

  /// Claims the next page range [begin, end); false when the extent is
  /// exhausted or the source was halted.
  bool Next(PageId* begin, PageId* end) {
    if (halted_.load(std::memory_order_relaxed)) return false;
    const PageId start = next_.fetch_add(morsel_pages_);
    if (start >= num_pages_) return false;
    *begin = start;
    *end = std::min<PageId>(num_pages_, start + morsel_pages_);
    return true;
  }

  /// Early-termination signal (LIMIT satisfied): every subsequent Next()
  /// returns false on every worker. Cleared by Reset().
  void Halt() { halted_.store(true, std::memory_order_relaxed); }
  bool halted() const { return halted_.load(std::memory_order_relaxed); }

  /// Rewinds for re-execution (GatherOp::Open).
  void Reset() {
    next_.store(0);
    halted_.store(false, std::memory_order_relaxed);
  }

  PageId num_pages() const { return num_pages_; }
  PageId morsel_pages() const { return morsel_pages_; }

 private:
  std::atomic<PageId> next_{0};
  std::atomic<bool> halted_{false};
  PageId num_pages_;
  PageId morsel_pages_;
};

/// One worker partition of a parallel heap scan: repeatedly claims a
/// page-range morsel from the shared source and emits the live tuples of
/// that range. Summary objects propagate exactly like SeqScanOp.
class ParallelScanOp : public PhysicalOperator {
 public:
  ParallelScanOp(Table* table, SummaryManager* mgr, bool propagate,
                 std::shared_ptr<MorselSource> morsels);
  /// Context form: resolves the table's SummaryManager from `ctx`.
  ParallelScanOp(ExecutionContext* ctx, Table* table, bool propagate,
                 std::shared_ptr<MorselSource> morsels);

  Status OpenImpl() override;
  const Schema& schema() const override { return table_->schema(); }
  std::string Describe() const override;
  /// Same zone-map pruning as SeqScanOp, applied per claimed morsel.
  void SetZonePredicate(ZonePredicate pred) { zone_pred_ = std::move(pred); }
  std::string AnalyzeAnnotation() const override;
  uint64_t pages_skipped() const { return pages_skipped_; }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  /// Positions it_ on a claimed morsel, zone pruning armed.
  void OpenMorsel(PageId begin, PageId end);

  Table* table_;
  SummaryManager* mgr_;
  bool propagate_;
  std::shared_ptr<MorselSource> morsels_;
  std::optional<Table::Iterator> it_;  // Current morsel's iterator.
  ZonePredicate zone_pred_;
  uint64_t pages_skipped_ = 0;
};

/// Worker-side boundary of a parallel region: a pass-through tagging one
/// partition pipeline with its worker id. Its runtime counters ARE the
/// per-worker statistics (rows, wall time) EXPLAIN ANALYZE renders.
class ExchangeOp : public PhysicalOperator {
 public:
  ExchangeOp(OpPtr child, size_t worker_id);

  Status OpenImpl() override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }
  std::string Describe() const override;
  std::vector<PhysicalOperator*> children() const override {
    return {child_.get()};
  }

  size_t worker_id() const { return worker_id_; }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  OpPtr child_;
  size_t worker_id_;
};

/// Merge side of a parallel region. Open() schedules every partition on
/// the task scheduler, each worker draining its pipeline into a private
/// buffer; the gather barrier joins them, and the merged union streams
/// upward. Row order across partitions is nondeterministic — the
/// optimizer only plans gathers where order does not matter (never under
/// a sort / O).
class GatherOp : public PhysicalOperator {
 public:
  /// `morsels` may be null (partitions that self-partition some other
  /// way); when set it is Reset() on every Open so re-execution works.
  GatherOp(std::vector<OpPtr> partitions,
           std::shared_ptr<MorselSource> morsels);

  Status OpenImpl() override;
  void Close() override;
  const Schema& schema() const override { return partitions_[0]->schema(); }
  std::string Describe() const override;
  /// EXPLAIN ANALYZE extra: per-worker drain wall times.
  std::string AnalyzeAnnotation() const override;
  std::vector<PhysicalOperator*> children() const override;

  size_t num_workers() const { return partitions_.size(); }
  /// Per-worker drain wall time, filled by Open().
  const std::vector<uint64_t>& worker_ns() const { return worker_ns_; }

  /// LIMIT pushdown hint: once the workers have gathered this many rows
  /// in total, the drain halts the morsel source and winds down instead
  /// of scanning the rest of the table (0 = no limit). Legal because
  /// gather order is nondeterministic — any `limit` rows satisfy the
  /// query; residual predicates above the gather must NOT use this.
  void set_limit(uint64_t limit) { limit_hint_ = limit; }
  uint64_t limit_hint() const { return limit_hint_; }

 protected:
  Result<bool> NextBatchImpl(RowBatch* batch) override;

 private:
  TaskScheduler* scheduler() const;

  std::vector<OpPtr> partitions_;
  std::shared_ptr<MorselSource> morsels_;
  std::vector<std::vector<Row>> results_;  // One buffer per worker.
  std::vector<uint64_t> worker_ns_;
  size_t worker_pos_ = 0;
  size_t row_pos_ = 0;
  uint64_t limit_hint_ = 0;
  std::atomic<uint64_t> gathered_{0};  // Drain-phase early-stop counter.
};

}  // namespace insight

#endif  // INSIGHTNOTES_ENGINE_PARALLEL_OPS_H_
