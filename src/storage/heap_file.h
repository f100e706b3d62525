#ifndef INSIGHTNOTES_STORAGE_HEAP_FILE_H_
#define INSIGHTNOTES_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace insight {

/// Slotted-page heap file holding variable-length records (serialized
/// tuples, raw annotations, or summary-storage rows). Records larger than
/// one page spill into an overflow chain, so a single summary-storage row
/// can hold hundreds of snippets.
///
/// Space management is designed for the summary-storage access pattern —
/// rows that are rewritten slightly larger on every annotation arrival:
///   - slots carry a capacity (with growth headroom on updates), so most
///     rewrites happen in place;
///   - deleted slots are remembered and their space reclaimed by in-page
///     compaction before a page is abandoned;
///   - freed overflow pages go to a free list and are reused.
///
/// A RowLocation identifies a record and stays stable across in-place
/// updates; updates that no longer fit relocate the record and return the
/// new location (callers owning secondary indexes must re-point them —
/// the Table layer does).
class HeapFile {
 public:
  /// Wraps an existing (possibly empty) page file.
  HeapFile(BufferPool* pool, FileId file) : pool_(pool), file_(file) {}

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;
  HeapFile(HeapFile&&) = default;

  Result<RowLocation> Insert(std::string_view record);

  /// Fetches the full record (reassembling overflow chains).
  Result<std::string> Get(RowLocation loc) const;

  Status Delete(RowLocation loc);

  /// Rewrites the record. Returns the (possibly new) location.
  Result<RowLocation> Update(RowLocation loc, std::string_view record);

  /// Overwrites `bytes` at byte offset `offset` inside the stored record
  /// without moving it (MVCC version restamping: begin/end timestamps
  /// live in a fixed-width record prefix). The overwritten span must lie
  /// within the record's existing bytes and, for overflow records, within
  /// the first chunk of the chain.
  Status OverwriteRecordBytes(RowLocation loc, size_t offset,
                              std::string_view bytes);

  /// Forward scan over all live records, or over the page range
  /// [begin, end) for morsel-driven parallel scans (each worker walks a
  /// disjoint range; records whose home slot lies in the range are
  /// emitted, overflow chains are followed wherever they live).
  class Iterator {
   public:
    explicit Iterator(const HeapFile* heap,
                      PageId begin = 0,
                      PageId end = kInvalidPageId)
        : heap_(heap), page_(begin), end_(end) {}

    /// Advances to the next record; false at end. On corruption logs and
    /// stops (heap pages we wrote ourselves only corrupt on engine bugs).
    bool Next(RowLocation* loc, std::string* record);

    /// Page-granular pruning hook (zone maps). Returning true skips the
    /// page entirely: it is never pinned, never fetched from the backing
    /// store, and not counted by the pages-scanned metric. Consulted only
    /// at page boundaries, so installing it mid-page takes effect on the
    /// next page.
    using PageFilter = std::function<bool(PageId)>;
    void set_page_filter(PageFilter filter) { filter_ = std::move(filter); }

   private:
    const HeapFile* heap_;
    PageId page_ = 0;
    PageId end_ = kInvalidPageId;  // Exclusive; kInvalidPageId = open.
    uint16_t slot_ = 0;
    PageFilter filter_;
    std::vector<char> page_copy_;  // The page the slots are served from.
  };

  Iterator Scan() const { return Iterator(this); }
  /// Scan restricted to heap pages [begin, end).
  Iterator ScanRange(PageId begin, PageId end) const {
    return Iterator(this, begin, end);
  }

  FileId file_id() const { return file_; }
  /// Pages currently allocated in the backing store (scan extent; some
  /// may be overflow or freed pages, which range scans skip).
  PageId num_pages() const { return pool_->FileNumPages(file_); }

  /// Maximum record bytes stored inline in one page.
  static size_t MaxInlineRecordSize();

 private:
  friend class Iterator;

  Result<std::string> ReadOverflowChain(PageId first, uint32_t total) const;
  Status FreeOverflowChain(PageId first);
  Result<PageId> WriteOverflowChain(std::string_view payload);
  Result<PageId> AllocOverflowPage(PageGuard* guard);

  /// Inserts an already-encoded cell, reserving `capacity` bytes
  /// (capacity >= cell size; the slack is in-place growth headroom).
  Result<RowLocation> InsertCell(std::string_view cell, size_t capacity);

  /// Attempts insertion into one specific page (compacting it if its
  /// fragmented space suffices). Returns the slot, or -1 if it can't fit.
  Result<int> TryInsertInPage(PageId page_id, std::string_view cell,
                              size_t capacity);

  BufferPool* pool_;
  FileId file_;
  PageId fill_page_ = kInvalidPageId;   // Last page with known free space.
  std::set<PageId> pages_with_space_;   // Pages with reclaimable space.
  std::vector<PageId> free_overflow_;   // Freed overflow pages, reusable.
};

}  // namespace insight

#endif  // INSIGHTNOTES_STORAGE_HEAP_FILE_H_
