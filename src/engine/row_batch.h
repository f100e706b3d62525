#ifndef INSIGHTNOTES_ENGINE_ROW_BATCH_H_
#define INSIGHTNOTES_ENGINE_ROW_BATCH_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "engine/row.h"

namespace insight {

/// A batch of rows — the unit flowing between operators in
/// batch-at-a-time execution. Capacity is a soft bound the producer
/// honours (`full()` gates the fill loop); the vector itself never
/// reallocates past the reserved capacity during a fill.
class RowBatch {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  /// Does not reserve: buffers held as operator members stay empty until
  /// a batch execution actually fills them (set_capacity reserves).
  explicit RowBatch(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? kDefaultCapacity : capacity) {}

  size_t capacity() const { return capacity_; }
  void set_capacity(size_t capacity) {
    if (capacity == 0) capacity = kDefaultCapacity;
    capacity_ = capacity;
    rows_.reserve(capacity_);
  }

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  bool full() const { return rows_.size() >= capacity_; }

  /// Drops the rows; keeps capacity.
  void Clear() { rows_.clear(); }

  void Push(Row row) { rows_.push_back(std::move(row)); }

  /// Keeps only the first `n` rows (LIMIT).
  void Truncate(size_t n) {
    if (n < rows_.size()) rows_.resize(n);
  }

  Row& operator[](size_t i) { return rows_[i]; }
  const Row& operator[](size_t i) const { return rows_[i]; }

  std::vector<Row>& rows() { return rows_; }
  const std::vector<Row>& rows() const { return rows_; }

  std::vector<Row>::iterator begin() { return rows_.begin(); }
  std::vector<Row>::iterator end() { return rows_.end(); }
  std::vector<Row>::const_iterator begin() const { return rows_.begin(); }
  std::vector<Row>::const_iterator end() const { return rows_.end(); }

 private:
  size_t capacity_;
  std::vector<Row> rows_;
};

}  // namespace insight

#endif  // INSIGHTNOTES_ENGINE_ROW_BATCH_H_
