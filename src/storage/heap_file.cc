#include "storage/heap_file.h"

#include <cstring>

#include "common/logging.h"
#include "obs/metrics.h"

namespace insight {

// Heap page layout:
//   [0]   u8   page_type (1 = heap, 2 = overflow, 0 = freed)
//   [1,2] u16  slot_count
//   [3,4] u16  data_start (offset of lowest record byte; records grow down)
//   [8..] slot array, 4 bytes each: u16 offset (0 = dead), u16 capacity
// Record cell (stored within its slot's capacity):
//   u8 flag: 0 = inline, 1 = overflow
//   inline:   u16 length, then payload bytes
//   overflow: u32 first_overflow_page, u32 total_length
//
// Overflow page layout:
//   [0]    u8  page_type = 2
//   [1..4] u32 next_page (kInvalidPageId at chain end)
//   [5..8] u32 chunk_len
//   [9..]  chunk bytes

namespace {

constexpr uint8_t kHeapPageType = 1;
constexpr uint8_t kOverflowPageType = 2;
constexpr size_t kHeaderSize = 8;
constexpr size_t kSlotSize = 4;
constexpr size_t kOverflowHeader = 9;
constexpr size_t kInlineCellHeader = 3;  // flag + u16 length.
constexpr size_t kOverflowCellSize = 9;  // flag + u32 + u32.

uint16_t GetU16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
void SetU16(char* p, uint16_t v) { std::memcpy(p, &v, 2); }
uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
void SetU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }

uint16_t SlotCount(const char* page) { return GetU16(page + 1); }
void SetSlotCount(char* page, uint16_t n) { SetU16(page + 1, n); }
uint16_t DataStart(const char* page) { return GetU16(page + 3); }
void SetDataStart(char* page, uint16_t v) { SetU16(page + 3, v); }

void InitHeapPage(char* page) {
  page[0] = static_cast<char>(kHeapPageType);
  SetSlotCount(page, 0);
  SetDataStart(page, static_cast<uint16_t>(kPageSize));
}

size_t SlotPos(uint16_t slot) { return kHeaderSize + slot * kSlotSize; }

uint16_t SlotOffset(const char* page, uint16_t slot) {
  return GetU16(page + SlotPos(slot));
}
uint16_t SlotCapacity(const char* page, uint16_t slot) {
  return GetU16(page + SlotPos(slot) + 2);
}
void SetSlot(char* page, uint16_t slot, uint16_t offset, uint16_t capacity) {
  SetU16(page + SlotPos(slot), offset);
  SetU16(page + SlotPos(slot) + 2, capacity);
}

// Contiguous free bytes between the slot array and the data area,
// assuming `extra_slots` more slot entries.
size_t ContiguousFree(const char* page, int extra_slots) {
  const size_t slots_end = SlotPos(SlotCount(page)) +
                           static_cast<size_t>(extra_slots) * kSlotSize;
  const size_t data_start = DataStart(page);
  return data_start > slots_end ? data_start - slots_end : 0;
}

// Total reclaimable bytes: contiguous space + dead slot capacities.
size_t TotalFree(const char* page, int extra_slots) {
  size_t total = ContiguousFree(page, extra_slots);
  const uint16_t count = SlotCount(page);
  for (uint16_t s = 0; s < count; ++s) {
    if (SlotOffset(page, s) == 0) total += SlotCapacity(page, s);
  }
  return total;
}

// Slides all live records to the end of the page, erasing dead-slot
// holes. Slot indices (and thus RowLocations) are unchanged.
void CompactPage(char* page) {
  const uint16_t count = SlotCount(page);
  char buffer[kPageSize];
  size_t write = kPageSize;
  struct Move {
    uint16_t slot;
    uint16_t capacity;
    size_t new_offset;
  };
  std::vector<Move> moves;
  for (uint16_t s = 0; s < count; ++s) {
    const uint16_t offset = SlotOffset(page, s);
    if (offset == 0) {
      SetSlot(page, s, 0, 0);
      continue;
    }
    const uint16_t capacity = SlotCapacity(page, s);
    write -= capacity;
    std::memcpy(buffer + write, page + offset, capacity);
    moves.push_back(Move{s, capacity, write});
  }
  std::memcpy(page + write, buffer + write, kPageSize - write);
  for (const Move& move : moves) {
    SetSlot(page, move.slot, static_cast<uint16_t>(move.new_offset),
            move.capacity);
  }
  SetDataStart(page, static_cast<uint16_t>(write));
}

}  // namespace

size_t HeapFile::MaxInlineRecordSize() {
  return kPageSize - kHeaderSize - kSlotSize - kInlineCellHeader;
}

Result<int> HeapFile::TryInsertInPage(PageId page_id, std::string_view cell,
                                      size_t capacity) {
  INSIGHT_ASSIGN_OR_RETURN(
      PageGuard guard,
      pool_->FetchPage(file_, page_id, LatchMode::kExclusive));
  char* page = guard.data();
  if (page[0] != static_cast<char>(kHeapPageType)) return -1;

  // Preferred: reuse a dead slot entry (no new slot bytes needed).
  int dead_slot = -1;
  const uint16_t count = SlotCount(page);
  for (uint16_t s = 0; s < count; ++s) {
    if (SlotOffset(page, s) == 0) {
      dead_slot = s;
      break;
    }
  }
  const int extra_slots = dead_slot >= 0 ? 0 : 1;
  if (dead_slot < 0 && count >= UINT16_MAX - 1) return -1;
  if (ContiguousFree(page, extra_slots) < capacity) {
    if (TotalFree(page, extra_slots) < capacity) return -1;
    CompactPage(page);
    guard.MarkDirty();
    if (ContiguousFree(page, extra_slots) < capacity) return -1;
  }
  const uint16_t new_start =
      static_cast<uint16_t>(DataStart(page) - capacity);
  std::memcpy(page + new_start, cell.data(), cell.size());
  const uint16_t slot =
      dead_slot >= 0 ? static_cast<uint16_t>(dead_slot) : count;
  SetSlot(page, slot, new_start, static_cast<uint16_t>(capacity));
  if (dead_slot < 0) SetSlotCount(page, count + 1);
  SetDataStart(page, new_start);
  guard.MarkDirty();
  return slot;
}

Result<RowLocation> HeapFile::InsertCell(std::string_view cell,
                                         size_t capacity) {
  INSIGHT_CHECK(capacity >= cell.size());
  // Try the remembered fill page, then pages with reclaimable space,
  // then a fresh page.
  if (fill_page_ != kInvalidPageId) {
    INSIGHT_ASSIGN_OR_RETURN(int slot,
                             TryInsertInPage(fill_page_, cell, capacity));
    if (slot >= 0) {
      return RowLocation{fill_page_, static_cast<uint16_t>(slot)};
    }
  }
  for (auto it = pages_with_space_.begin(); it != pages_with_space_.end();) {
    const PageId candidate = *it;
    if (candidate == fill_page_) {
      it = pages_with_space_.erase(it);
      continue;
    }
    INSIGHT_ASSIGN_OR_RETURN(int slot,
                             TryInsertInPage(candidate, cell, capacity));
    if (slot >= 0) {
      return RowLocation{candidate, static_cast<uint16_t>(slot)};
    }
    // Candidate could not host this record; drop it from the set so
    // repeated large inserts don't rescan it (small records may still
    // fit, but the set re-learns via future deletes).
    it = pages_with_space_.erase(it);
  }
  PageId page_id;
  INSIGHT_ASSIGN_OR_RETURN(
      PageGuard guard,
      pool_->NewPage(file_, &page_id, LatchMode::kExclusive));
  InitHeapPage(guard.data());
  guard.MarkDirty();
  guard.Release();
  INSIGHT_ASSIGN_OR_RETURN(int slot, TryInsertInPage(page_id, cell, capacity));
  if (slot < 0) {
    return Status::Internal("record does not fit an empty page");
  }
  fill_page_ = page_id;
  return RowLocation{page_id, static_cast<uint16_t>(slot)};
}

namespace {

std::string EncodeInlineCell(std::string_view record) {
  std::string cell;
  cell.reserve(record.size() + kInlineCellHeader);
  cell.push_back('\0');
  cell.push_back(static_cast<char>(record.size() & 0xFF));
  cell.push_back(static_cast<char>((record.size() >> 8) & 0xFF));
  cell.append(record.data(), record.size());
  return cell;
}

}  // namespace

Result<RowLocation> HeapFile::Insert(std::string_view record) {
  if (record.size() <= MaxInlineRecordSize()) {
    const std::string cell = EncodeInlineCell(record);
    return InsertCell(cell, cell.size());
  }
  INSIGHT_ASSIGN_OR_RETURN(PageId first, WriteOverflowChain(record));
  std::string cell(kOverflowCellSize, '\0');
  cell[0] = '\1';
  SetU32(cell.data() + 1, first);
  SetU32(cell.data() + 5, static_cast<uint32_t>(record.size()));
  return InsertCell(cell, cell.size());
}

Result<PageId> HeapFile::AllocOverflowPage(PageGuard* guard) {
  if (!free_overflow_.empty()) {
    const PageId page = free_overflow_.back();
    free_overflow_.pop_back();
    INSIGHT_ASSIGN_OR_RETURN(
        *guard, pool_->FetchPage(file_, page, LatchMode::kExclusive));
    return page;
  }
  PageId page;
  INSIGHT_ASSIGN_OR_RETURN(*guard,
                           pool_->NewPage(file_, &page, LatchMode::kExclusive));
  return page;
}

Result<PageId> HeapFile::WriteOverflowChain(std::string_view payload) {
  constexpr size_t kChunk = kPageSize - kOverflowHeader;
  PageId first = kInvalidPageId;
  PageId prev = kInvalidPageId;
  size_t pos = 0;
  while (pos < payload.size() || first == kInvalidPageId) {
    const size_t len = std::min(kChunk, payload.size() - pos);
    PageGuard guard;
    INSIGHT_ASSIGN_OR_RETURN(PageId page_id, AllocOverflowPage(&guard));
    char* page = guard.data();
    page[0] = static_cast<char>(kOverflowPageType);
    SetU32(page + 1, kInvalidPageId);
    SetU32(page + 5, static_cast<uint32_t>(len));
    std::memcpy(page + kOverflowHeader, payload.data() + pos, len);
    guard.MarkDirty();
    guard.Release();
    if (prev != kInvalidPageId) {
      INSIGHT_ASSIGN_OR_RETURN(
          PageGuard prev_guard,
          pool_->FetchPage(file_, prev, LatchMode::kExclusive));
      SetU32(prev_guard.data() + 1, page_id);
      prev_guard.MarkDirty();
    } else {
      first = page_id;
    }
    prev = page_id;
    pos += len;
    if (pos >= payload.size()) break;
  }
  return first;
}

Result<std::string> HeapFile::ReadOverflowChain(PageId first,
                                                uint32_t total) const {
  std::string out;
  out.reserve(total);
  PageId cur = first;
  while (cur != kInvalidPageId) {
    INSIGHT_ASSIGN_OR_RETURN(
        PageGuard guard, pool_->FetchPage(file_, cur, LatchMode::kShared));
    const char* page = guard.data();
    if (page[0] != static_cast<char>(kOverflowPageType)) {
      return Status::Corruption("overflow chain hits non-overflow page");
    }
    const uint32_t len = GetU32(page + 5);
    out.append(page + kOverflowHeader, len);
    cur = GetU32(page + 1);
  }
  if (out.size() != total) {
    return Status::Corruption("overflow chain length mismatch");
  }
  return out;
}

Status HeapFile::FreeOverflowChain(PageId first) {
  PageId cur = first;
  while (cur != kInvalidPageId) {
    INSIGHT_ASSIGN_OR_RETURN(
        PageGuard guard, pool_->FetchPage(file_, cur, LatchMode::kExclusive));
    char* page = guard.data();
    const PageId next = GetU32(page + 1);
    page[0] = 0;
    guard.MarkDirty();
    free_overflow_.push_back(cur);
    cur = next;
  }
  return Status::OK();
}

Result<std::string> HeapFile::Get(RowLocation loc) const {
  INSIGHT_ASSIGN_OR_RETURN(
      PageGuard guard,
      pool_->FetchPage(file_, loc.page_id, LatchMode::kShared));
  const char* page = guard.data();
  if (page[0] != static_cast<char>(kHeapPageType)) {
    return Status::Corruption("not a heap page");
  }
  if (loc.slot >= SlotCount(page)) {
    return Status::NotFound("slot out of range");
  }
  const uint16_t offset = SlotOffset(page, loc.slot);
  if (offset == 0) return Status::NotFound("deleted record");
  if (page[offset] == '\0') {
    const uint16_t len = GetU16(page + offset + 1);
    return std::string(page + offset + kInlineCellHeader, len);
  }
  const PageId first = GetU32(page + offset + 1);
  const uint32_t total = GetU32(page + offset + 5);
  return ReadOverflowChain(first, total);
}

Status HeapFile::Delete(RowLocation loc) {
  INSIGHT_ASSIGN_OR_RETURN(
      PageGuard guard,
      pool_->FetchPage(file_, loc.page_id, LatchMode::kExclusive));
  char* page = guard.data();
  if (loc.slot >= SlotCount(page)) return Status::NotFound("slot");
  const uint16_t offset = SlotOffset(page, loc.slot);
  if (offset == 0) return Status::NotFound("already deleted");
  if (page[offset] == '\1') {
    const PageId first = GetU32(page + offset + 1);
    guard.Release();
    INSIGHT_RETURN_NOT_OK(FreeOverflowChain(first));
    INSIGHT_ASSIGN_OR_RETURN(
        guard, pool_->FetchPage(file_, loc.page_id, LatchMode::kExclusive));
    page = guard.data();
  }
  // Keep the capacity in the dead slot entry for free-space accounting.
  SetU16(page + SlotPos(loc.slot), 0);
  guard.MarkDirty();
  pages_with_space_.insert(loc.page_id);
  return Status::OK();
}

Result<RowLocation> HeapFile::Update(RowLocation loc,
                                     std::string_view record) {
  // In-place rewrite whenever the new cell fits the slot's capacity.
  if (record.size() + kInlineCellHeader <= MaxInlineRecordSize()) {
    INSIGHT_ASSIGN_OR_RETURN(
        PageGuard guard,
        pool_->FetchPage(file_, loc.page_id, LatchMode::kExclusive));
    char* page = guard.data();
    if (loc.slot < SlotCount(page)) {
      const uint16_t offset = SlotOffset(page, loc.slot);
      const uint16_t capacity = SlotCapacity(page, loc.slot);
      if (offset != 0 && page[offset] == '\0' &&
          record.size() + kInlineCellHeader <= capacity) {
        SetU16(page + offset + 1, static_cast<uint16_t>(record.size()));
        std::memcpy(page + offset + kInlineCellHeader, record.data(),
                    record.size());
        guard.MarkDirty();
        return loc;
      }
    }
  }
  // Relocate with growth headroom (25%), since a record that grew once
  // tends to keep growing (the summary-storage pattern).
  INSIGHT_RETURN_NOT_OK(Delete(loc));
  if (record.size() + kInlineCellHeader <= MaxInlineRecordSize()) {
    const std::string cell = EncodeInlineCell(record);
    const size_t max_capacity = MaxInlineRecordSize() + kInlineCellHeader;
    const size_t capacity =
        std::min(max_capacity, cell.size() + record.size() / 4);
    return InsertCell(cell, capacity);
  }
  return Insert(record);
}

Status HeapFile::OverwriteRecordBytes(RowLocation loc, size_t offset,
                                      std::string_view bytes) {
  INSIGHT_ASSIGN_OR_RETURN(
      PageGuard guard,
      pool_->FetchPage(file_, loc.page_id, LatchMode::kExclusive));
  char* page = guard.data();
  if (page[0] != static_cast<char>(kHeapPageType)) {
    return Status::Corruption("not a heap page");
  }
  if (loc.slot >= SlotCount(page)) return Status::NotFound("slot");
  const uint16_t cell = SlotOffset(page, loc.slot);
  if (cell == 0) return Status::NotFound("deleted record");
  if (page[cell] == '\0') {
    const uint16_t len = GetU16(page + cell + 1);
    if (offset + bytes.size() > len) {
      return Status::InvalidArgument("record overwrite out of bounds");
    }
    std::memcpy(page + cell + kInlineCellHeader + offset, bytes.data(),
                bytes.size());
    guard.MarkDirty();
    return Status::OK();
  }
  const PageId first = GetU32(page + cell + 1);
  const uint32_t total = GetU32(page + cell + 5);
  if (offset + bytes.size() > total) {
    return Status::InvalidArgument("record overwrite out of bounds");
  }
  guard.Release();
  INSIGHT_ASSIGN_OR_RETURN(
      PageGuard ovf, pool_->FetchPage(file_, first, LatchMode::kExclusive));
  char* opage = ovf.data();
  if (opage[0] != static_cast<char>(kOverflowPageType)) {
    return Status::Corruption("overflow chain hits non-overflow page");
  }
  const uint32_t chunk_len = GetU32(opage + 5);
  if (offset + bytes.size() > chunk_len) {
    return Status::InvalidArgument(
        "record overwrite crosses overflow chunks");
  }
  std::memcpy(opage + kOverflowHeader + offset, bytes.data(), bytes.size());
  ovf.MarkDirty();
  return Status::OK();
}

bool HeapFile::Iterator::Next(RowLocation* loc, std::string* record) {
  while (true) {
    if (page_ >= end_) return false;  // Range morsel exhausted.
    // slot_ == 0 marks this iterator's first visit to the page: copy it
    // once under its shared latch and unpin it, so the page's slots are
    // served without a pin or latch per row and none is held between
    // calls.
    if (slot_ == 0) {
      if (filter_ && filter_(page_)) {
        ++page_;  // Pruned before the fetch: the page is never pinned.
        continue;
      }
      auto guard_result =
          heap_->pool_->FetchPage(heap_->file_, page_, LatchMode::kShared);
      if (!guard_result.ok()) return false;  // Past last page.
      EngineMetrics::Get().heap_pages_scanned->Add(1);
      page_copy_.resize(kPageSize);
      std::memcpy(page_copy_.data(), guard_result->data(), kPageSize);
    }
    const char* page = page_copy_.data();
    if (page[0] != static_cast<char>(kHeapPageType)) {
      ++page_;  // Overflow or freed page: skip.
      slot_ = 0;
      continue;
    }
    const uint16_t count = SlotCount(page);
    while (slot_ < count) {
      const uint16_t s = slot_++;
      const uint16_t offset = SlotOffset(page, s);
      if (offset == 0) continue;
      *loc = RowLocation{page_, s};
      if (page[offset] == '\0') {
        const uint16_t len = GetU16(page + offset + 1);
        record->assign(page + offset + kInlineCellHeader, len);
        return true;
      }
      const PageId first = GetU32(page + offset + 1);
      const uint32_t total = GetU32(page + offset + 5);
      auto chain = heap_->ReadOverflowChain(first, total);
      if (!chain.ok()) {
        INSIGHT_LOG(Error) << "heap scan: " << chain.status().ToString();
        return false;
      }
      *record = std::move(chain).ValueOrDie();
      return true;
    }
    ++page_;
    slot_ = 0;
  }
}

}  // namespace insight
