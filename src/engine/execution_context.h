#ifndef INSIGHTNOTES_ENGINE_EXECUTION_CONTEXT_H_
#define INSIGHTNOTES_ENGINE_EXECUTION_CONTEXT_H_

#include <cstddef>

#include "engine/row_batch.h"
#include "txn/txn.h"

namespace insight {

class BufferPool;
class StorageManager;
class TaskScheduler;

/// Shared runtime state threaded through a physical plan: the storage
/// handles, the MVCC snapshot and the batch-size knob. Operators resolve
/// their wiring here instead of each constructor re-plumbing
/// `BufferPool*` / `StorageManager*` parameters, and the batch executor
/// reads its capacity from here so one knob tunes a whole plan.
///
/// The parallelism knob sets the number of morsel workers the optimizer
/// plans for (1 = serial; the default). Parallel plans execute on
/// `scheduler()` — when unset, GatherOp falls back to the process-wide
/// TaskScheduler::Default().
class ExecutionContext {
 public:
  ExecutionContext() = default;
  ExecutionContext(StorageManager* storage, BufferPool* pool,
                   size_t batch_size = RowBatch::kDefaultCapacity)
      : storage_(storage), pool_(pool) {
    set_batch_size(batch_size);
  }

  StorageManager* storage() const { return storage_; }
  BufferPool* pool() const { return pool_; }

  size_t batch_size() const { return batch_size_; }
  void set_batch_size(size_t batch_size) {
    batch_size_ = batch_size == 0 ? RowBatch::kDefaultCapacity : batch_size;
  }

  /// Morsel workers the optimizer plans for; 1 disables parallelism.
  size_t parallelism() const { return parallelism_; }
  void set_parallelism(size_t parallelism) {
    parallelism_ = parallelism == 0 ? 1 : parallelism;
  }

  /// Worker pool parallel plans run on (null = process default).
  TaskScheduler* scheduler() const { return scheduler_; }
  void set_scheduler(TaskScheduler* scheduler) { scheduler_ = scheduler; }

  /// MVCC snapshot every scan/probe in the plan reads at. The executor
  /// stamps a per-query copy of the context with the session's snapshot
  /// (the transaction's, or latest-committed for autocommit reads).
  const Snapshot& snapshot() const { return snapshot_; }
  void set_snapshot(const Snapshot& snap) { snapshot_ = snap; }

 private:
  StorageManager* storage_ = nullptr;
  BufferPool* pool_ = nullptr;
  size_t batch_size_ = RowBatch::kDefaultCapacity;
  size_t parallelism_ = 1;
  TaskScheduler* scheduler_ = nullptr;
  Snapshot snapshot_ = Snapshot::Latest();
};

}  // namespace insight

#endif  // INSIGHTNOTES_ENGINE_EXECUTION_CONTEXT_H_
