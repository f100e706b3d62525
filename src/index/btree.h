#ifndef INSIGHTNOTES_INDEX_BTREE_H_
#define INSIGHTNOTES_INDEX_BTREE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace insight {

/// An entry in the tree: a byte-string key plus a 64-bit payload (packed
/// RowLocation or OID). Duplicate keys are supported; entries order by
/// (key, value) so every stored entry is unique and deletion is exact.
struct BTreeEntry {
  std::string key;
  uint64_t value = 0;
};

/// Three-way comparison on (key, value).
int CompareEntries(std::string_view a_key, uint64_t a_val,
                   std::string_view b_key, uint64_t b_val);

/// Disk-resident B+Tree over the buffer pool. One tree per page file.
/// Page 0 is a meta page (root pointer, entry count, height); leaves are
/// chained for range scans.
///
/// Nodes are slotted pages worked on where they are pinned: descents,
/// lookups, scans, Contains, Delete and any insert that does not split
/// binary-search keys in place through a slot-offset array and shift
/// bytes within the one page; none of them decodes a node. Only a split
/// lists a page's entries (as views into a copy of it) to build the two
/// halves. A bad node header or slot offset is Corruption, never a read
/// outside the page.
///
/// Deletion is lazy (no merge/borrow): removing entries never shrinks the
/// tree, matching the paper's workload where class-label counts are
/// deleted and immediately re-inserted on every annotation update.
///
/// Thread-safe via one internal reader/writer latch per tree: mutators
/// are exclusive, probes shared. Scans materialize their result set
/// under the shared latch and release it before returning, so no latch
/// is ever held across query execution.
class BTree {
 public:
  /// Creates a fresh tree in an empty page file.
  static Result<BTree> Create(BufferPool* pool, FileId file);

  /// Opens an existing tree.
  static Result<BTree> Open(BufferPool* pool, FileId file);

  BTree(BTree&&) = default;
  BTree& operator=(BTree&&) = default;

  Status Insert(std::string_view key, uint64_t value);

  /// Removes the exact (key, value) entry; NotFound if absent.
  Status Delete(std::string_view key, uint64_t value);

  /// True if at least one entry with this key exists.
  Result<bool> Contains(std::string_view key) const;

  /// Collects the payloads of all entries with exactly this key: the
  /// one-key call of LookupMany.
  Result<std::vector<uint64_t>> Lookup(std::string_view key) const;

  /// Batch point lookup. `keys` must be ascending (repeats allowed);
  /// result `i` holds the payloads of key `i` in entry order (empty when
  /// absent). One sorted walk: the tree is descended once per run of keys
  /// that land on the same leaf, not once per key, and each descent counts
  /// as one `btree_probes`. InvalidArgument when `keys` is not sorted.
  Result<std::vector<std::vector<uint64_t>>> LookupMany(
      std::span<const std::string> keys) const;

  /// Forward iterator over a [lower, upper] key range. The range is
  /// materialized when the iterator is created (under the tree latch);
  /// iteration itself touches no shared state, so concurrent mutators
  /// cannot invalidate a live iterator.
  class Iterator {
   public:
    bool Valid() const { return pos_ < entries_.size(); }
    const std::string& key() const { return entries_[pos_].key; }
    uint64_t value() const { return entries_[pos_].value; }

    /// Advances; clears Valid() at the end of the range.
    void Next() {
      if (pos_ < entries_.size()) ++pos_;
    }

    const Status& status() const { return status_; }

   private:
    friend class BTree;
    Iterator() = default;

    std::vector<BTreeEntry> entries_;  // Materialized result set.
    size_t pos_ = 0;
    Status status_;
  };

  /// Entries with lower <= key <= upper (flags make either bound strict).
  /// Matches the paper's range probe: start key "label:c1", stop key
  /// "label:c2".
  Result<Iterator> RangeScan(std::string_view lower, bool lower_inclusive,
                             std::string_view upper,
                             bool upper_inclusive) const;

  /// All entries in key order.
  Result<Iterator> ScanAll() const;

  uint64_t num_entries() const {
    std::shared_lock<std::shared_mutex> lk(*latch_);
    return num_entries_;
  }
  uint32_t height() const {
    std::shared_lock<std::shared_mutex> lk(*latch_);
    return height_;
  }

 private:
  BTree(BufferPool* pool, FileId file)
      : pool_(pool),
        file_(file),
        latch_(std::make_unique<std::shared_mutex>()) {}

  // Node pages and their entries, read and edited in place (btree.cc).
  class Node;
  struct Entry;

  struct SplitResult {
    std::string sep_key;
    uint64_t sep_value;
    PageId new_page;
  };

  /// Pins a node page; Corruption when its header is bad.
  Result<Node> Pin(PageId page) const;
  /// Allocates and pins an empty node (`link`: next leaf, or child 0).
  Result<Node> NewNode(bool leaf, PageId link);

  Status ReadMeta();
  Status WriteMeta();

  /// Recursive insert; returns a split descriptor when `page` split.
  Result<std::optional<SplitResult>> InsertRec(PageId page,
                                               std::string_view key,
                                               uint64_t value);
  /// Splits `node`, which has no room for `extra` at slot `pos`.
  Result<std::optional<SplitResult>> Split(Node* node, size_t pos,
                                           const Entry& extra);

  /// Leaf that may contain (key, value); descends the tree.
  Result<Node> FindLeaf(std::string_view key, uint64_t value) const;

  /// RangeScan, with no upper bound when `upper` is null.
  Result<Iterator> Scan(std::string_view lower, bool lower_inclusive,
                        const std::string_view* upper,
                        bool upper_inclusive) const;

  BufferPool* pool_;
  FileId file_;
  // unique_ptr keeps BTree movable (shared_mutex is not).
  mutable std::unique_ptr<std::shared_mutex> latch_;
  PageId root_ = kInvalidPageId;
  uint64_t num_entries_ = 0;
  uint32_t height_ = 1;
};

}  // namespace insight

#endif  // INSIGHTNOTES_INDEX_BTREE_H_
