#include "index/btree.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"

namespace insight {

// Page layouts (all little-endian):
//   Meta page (page 0):  u8 type=3, u32 root, u64 num_entries, u32 height
//   Node page:           u8 type (4=internal, 5=leaf), u16 count,
//                        u32 next_leaf (leaves only),
//                        u32 child0 (internal only),
//                        count x u16 slot offset, ascending (key, value),
//                        free space, then the cells.
//     Cells are packed down from the page end in slot order: slot 0's
//     cell ends at the page end, slot i's ends where slot i - 1's
//     begins, so a key's length follows from the neighbouring offsets.
//     leaf cell:          u64 value, key bytes
//     internal cell:      u64 value, u32 child, key bytes
//     Child i + 1 of an internal node is the child in slot i's cell: the
//     subtree of entries >= slot i's (key, value).
// Searches read keys in place through the slot offsets, and an insert or
// delete that does not split shifts bytes inside its one page. Only a
// split lists a page's entries and deals them into two pages.
namespace {
constexpr uint8_t kMetaType = 3;
constexpr uint8_t kInternalType = 4;
constexpr uint8_t kLeafType = 5;

// Split when a node's bytes in use would exceed this. Leaves room so the
// post-split halves accept a few more entries before resplitting.
constexpr size_t kNodeSizeLimit = kPageSize - 64;

}  // namespace

// One entry of a node, its key viewed in place.
struct BTree::Entry {
  std::string_view key;
  uint64_t value = 0;
  PageId child = kInvalidPageId;  // Internal only: the child right of it.
};

// A node page read and edited in place. Every offset is checked against
// the page before use: a bad one reads as an empty entry and turns
// status() into Corruption, so a damaged page never sends a read or a
// write outside itself.
class BTree::Node {
 public:
  Node(PageGuard guard, PageId id)
      : guard_(std::move(guard)), p_(guard_.data()), id_(id) {
    CheckHeader();
  }
  // An unpinned copy of a page.
  explicit Node(char* image) : p_(image) { CheckHeader(); }

  PageId id() const { return id_; }
  const char* data() const { return p_; }
  void Unpin() { guard_.Release(); }

  bool leaf() const { return p_[0] == static_cast<char>(kLeafType); }
  size_t count() const { return Get<uint16_t>(1); }
  PageId next_leaf() const { return Get<uint32_t>(3); }
  // Child i of an internal node, 0 <= i <= count().
  PageId child(size_t i) const {
    return i == 0 ? Get<uint32_t>(7) : At(i - 1).child;
  }
  // Per-cell bytes besides the key.
  size_t fixed() const { return leaf() ? 8 : 12; }

  // Corruption once the header or any offset read was out of bounds.
  Status status() const {
    if (!corrupt_) return Status::OK();
    return Status::Corruption("btree: bad node on page " +
                              std::to_string(id_));
  }

  Entry At(size_t i) const {
    const size_t begin = Off(i);
    const size_t end = End(i);
    if (begin < SlotsEnd() || begin + fixed() > end || end > kPageSize) {
      corrupt_ = true;
      return {};
    }
    Entry e;
    std::memcpy(&e.value, p_ + begin, 8);
    if (!leaf()) std::memcpy(&e.child, p_ + begin + 8, 4);
    e.key = {p_ + begin + fixed(), end - begin - fixed()};
    return e;
  }

  // First slot whose entry is >= (key, value), or > it when `upper`.
  // Descents take the upper bound: a separator equal to the probe routes
  // right of itself.
  size_t Bound(std::string_view key, uint64_t value, bool upper) const {
    size_t lo = 0;
    size_t hi = count();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      const Entry e = At(mid);
      const int c = CompareEntries(e.key, e.value, key, value);
      if (c < 0 || (upper && c == 0)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // Writes `e` into slot `pos`, shifting the later slots and their cells;
  // false (page untouched) when the node would outgrow kNodeSizeLimit.
  bool TryInsert(size_t pos, const Entry& e) {
    const size_t len = fixed() + e.key.size();
    if (SlotsEnd() + 2 + kPageSize - Low() + len > kNodeSizeLimit) {
      return false;
    }
    const size_t n = count();
    const size_t low = Low();
    const size_t end = End(pos);
    if (end < low || end > kPageSize) {
      corrupt_ = true;
      return true;
    }
    std::memmove(p_ + low - len, p_ + low, end - low);
    for (size_t i = n; i > pos; --i) SetOff(i, Off(i - 1) - len);
    SetOff(pos, end - len);
    char* cell = p_ + end - len;
    std::memcpy(cell, &e.value, 8);
    if (!leaf()) std::memcpy(cell + 8, &e.child, 4);
    std::memcpy(cell + fixed(), e.key.data(), e.key.size());
    Set<uint16_t>(1, static_cast<uint16_t>(n + 1));
    guard_.MarkDirty();
    return true;
  }

  // Removes slot `pos` and its cell.
  void Erase(size_t pos) {
    const size_t n = count();
    const size_t low = Low();
    const size_t begin = Off(pos);
    const size_t end = End(pos);
    if (begin < low || begin > end || end > kPageSize) {
      corrupt_ = true;
      return;
    }
    const size_t len = end - begin;
    std::memmove(p_ + low + len, p_ + low, begin - low);
    for (size_t i = pos + 1; i < n; ++i) SetOff(i - 1, Off(i) + len);
    Set<uint16_t>(1, static_cast<uint16_t>(n - 1));
    guard_.MarkDirty();
  }

  // Empties the page into a node of the given kind. `link` is the next
  // leaf of a leaf, child 0 of an internal node.
  void Format(bool is_leaf, PageId link) {
    p_[0] = static_cast<char>(is_leaf ? kLeafType : kInternalType);
    Set<uint16_t>(1, 0);
    Set<uint32_t>(3, is_leaf ? link : kInvalidPageId);
    if (!is_leaf) Set<uint32_t>(7, link);
    corrupt_ = false;
    guard_.MarkDirty();
  }

 private:
  template <typename T>
  T Get(size_t pos) const {
    T v;
    std::memcpy(&v, p_ + pos, sizeof(T));
    return v;
  }
  template <typename T>
  void Set(size_t pos, T v) {
    std::memcpy(p_ + pos, &v, sizeof(T));
  }

  size_t Header() const { return leaf() ? 7 : 11; }
  size_t SlotsEnd() const { return Header() + 2 * count(); }
  size_t Off(size_t i) const { return Get<uint16_t>(Header() + 2 * i); }
  void SetOff(size_t i, size_t off) {
    Set<uint16_t>(Header() + 2 * i, static_cast<uint16_t>(off));
  }
  size_t End(size_t i) const { return i == 0 ? kPageSize : Off(i - 1); }
  // Where the cells begin: the lowest cell offset, or the page end.
  size_t Low() const { return count() == 0 ? kPageSize : Off(count() - 1); }

  // A node type, and a slot array and cell start inside the page.
  void CheckHeader() {
    corrupt_ = (p_[0] != static_cast<char>(kInternalType) && !leaf()) ||
               SlotsEnd() > kPageSize || Low() < SlotsEnd() ||
               Low() > kPageSize;
  }

  PageGuard guard_;
  char* p_ = nullptr;
  PageId id_ = kInvalidPageId;
  mutable bool corrupt_ = false;
};

int CompareEntries(std::string_view a_key, uint64_t a_val,
                   std::string_view b_key, uint64_t b_val) {
  const int c = a_key.compare(b_key);
  if (c != 0) return c < 0 ? -1 : 1;
  if (a_val != b_val) return a_val < b_val ? -1 : 1;
  return 0;
}

Result<BTree> BTree::Create(BufferPool* pool, FileId file) {
  BTree tree(pool, file);
  // Page 0: meta. Page 1: empty root leaf.
  PageId meta_page;
  {
    INSIGHT_ASSIGN_OR_RETURN(PageGuard guard, pool->NewPage(file, &meta_page));
    guard.MarkDirty();
  }
  if (meta_page != 0) {
    return Status::InvalidArgument("BTree::Create needs an empty file");
  }
  INSIGHT_ASSIGN_OR_RETURN(Node root, tree.NewNode(true, kInvalidPageId));
  tree.root_ = root.id();
  INSIGHT_RETURN_NOT_OK(tree.WriteMeta());
  return tree;
}

Result<BTree> BTree::Open(BufferPool* pool, FileId file) {
  BTree tree(pool, file);
  INSIGHT_RETURN_NOT_OK(tree.ReadMeta());
  return tree;
}

Status BTree::ReadMeta() {
  INSIGHT_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(file_, 0));
  const char* p = guard.data();
  if (p[0] != static_cast<char>(kMetaType)) {
    return Status::Corruption("btree: bad meta page");
  }
  std::memcpy(&root_, p + 1, 4);
  std::memcpy(&num_entries_, p + 5, 8);
  std::memcpy(&height_, p + 13, 4);
  return Status::OK();
}

Status BTree::WriteMeta() {
  INSIGHT_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(file_, 0));
  char* p = guard.data();
  p[0] = static_cast<char>(kMetaType);
  std::memcpy(p + 1, &root_, 4);
  std::memcpy(p + 5, &num_entries_, 8);
  std::memcpy(p + 13, &height_, 4);
  guard.MarkDirty();
  return Status::OK();
}

Result<BTree::Node> BTree::Pin(PageId page) const {
  INSIGHT_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(file_, page));
  Node node(std::move(guard), page);
  INSIGHT_RETURN_NOT_OK(node.status());
  return node;
}

Result<BTree::Node> BTree::NewNode(bool leaf, PageId link) {
  PageId page;
  INSIGHT_ASSIGN_OR_RETURN(PageGuard guard, pool_->NewPage(file_, &page));
  Node node(std::move(guard), page);
  node.Format(leaf, link);
  return node;
}

Result<std::optional<BTree::SplitResult>> BTree::InsertRec(
    PageId page, std::string_view key, uint64_t value) {
  INSIGHT_ASSIGN_OR_RETURN(Node node, Pin(page));
  Entry entry{key, value};
  const size_t pos = node.Bound(key, value, !node.leaf());
  const PageId child = node.leaf() ? kInvalidPageId : node.child(pos);
  INSIGHT_RETURN_NOT_OK(node.status());
  std::optional<SplitResult> child_split;
  if (!node.leaf()) {
    // The page stays unpinned while the subtree takes the entry; only a
    // child split brings it back, to take the new separator.
    node.Unpin();
    INSIGHT_ASSIGN_OR_RETURN(child_split, InsertRec(child, key, value));
    if (!child_split.has_value()) return child_split;
    INSIGHT_ASSIGN_OR_RETURN(node, Pin(page));
    entry = {child_split->sep_key, child_split->sep_value,
             child_split->new_page};
  }
  const bool fits = node.TryInsert(pos, entry);
  INSIGHT_RETURN_NOT_OK(node.status());
  if (fits) return std::optional<SplitResult>{};
  return Split(&node, pos, entry);
}

Result<std::optional<BTree::SplitResult>> BTree::Split(
    Node* node, size_t pos, const Entry& extra) {
  // The one place a page's entries are listed, as views into a copy of
  // it with `extra` at `pos`, and dealt into it and a new right sibling.
  std::string image(node->data(), kPageSize);
  const Node old(image.data());
  std::vector<Entry> entries;
  entries.reserve(old.count() + 1);
  for (size_t i = 0; i < old.count(); ++i) entries.push_back(old.At(i));
  INSIGHT_RETURN_NOT_OK(old.status());
  entries.insert(entries.begin() + static_cast<ptrdiff_t>(pos), extra);

  // Halves by count, which keeps page counts where equal-sized keys put
  // them; only keys of kilobytes can make a half outgrow its page, and
  // then the cut moves toward the other half.
  const bool leaf = old.leaf();
  auto bytes = [&](size_t from, size_t to) {
    size_t sum = 0;
    for (size_t i = from; i < to; ++i) {
      sum += 2 + old.fixed() + entries[i].key.size();
    }
    return sum;
  };
  const size_t cap = kNodeSizeLimit - 11;  // Less the largest header.
  size_t mid = entries.size() / 2;
  while (bytes(0, mid) > cap) --mid;
  while (bytes(leaf ? mid : mid + 1, entries.size()) > cap) ++mid;

  // A leaf's separator is its right half's first entry. An internal
  // node's moves up, its child becoming the right half's child 0.
  const Entry& sep = entries[mid];
  INSIGHT_ASSIGN_OR_RETURN(
      Node right, NewNode(leaf, leaf ? old.next_leaf() : sep.child));
  for (size_t i = leaf ? mid : mid + 1; i < entries.size(); ++i) {
    right.TryInsert(right.count(), entries[i]);
  }
  SplitResult split{std::string(sep.key), sep.value, right.id()};
  node->Format(leaf, leaf ? right.id() : old.child(0));
  for (size_t i = 0; i < mid; ++i) node->TryInsert(i, entries[i]);
  return std::optional<SplitResult>(std::move(split));
}

Status BTree::Insert(std::string_view key, uint64_t value) {
  if (key.size() > 4096) {
    return Status::InvalidArgument("btree key too large");
  }
  std::unique_lock<std::shared_mutex> lk(*latch_);
  INSIGHT_ASSIGN_OR_RETURN(auto split, InsertRec(root_, key, value));
  if (split.has_value()) {
    INSIGHT_ASSIGN_OR_RETURN(Node root, NewNode(false, root_));
    root.TryInsert(0, {split->sep_key, split->sep_value, split->new_page});
    root_ = root.id();
    ++height_;
  }
  ++num_entries_;
  return WriteMeta();
}

Result<BTree::Node> BTree::FindLeaf(std::string_view key,
                                    uint64_t value) const {
  INSIGHT_ASSIGN_OR_RETURN(Node node, Pin(root_));
  while (!node.leaf()) {
    const PageId child = node.child(node.Bound(key, value, true));
    INSIGHT_RETURN_NOT_OK(node.status());
    INSIGHT_ASSIGN_OR_RETURN(node, Pin(child));
  }
  return node;
}

Status BTree::Delete(std::string_view key, uint64_t value) {
  std::unique_lock<std::shared_mutex> lk(*latch_);
  INSIGHT_ASSIGN_OR_RETURN(Node leaf, FindLeaf(key, value));
  const size_t pos = leaf.Bound(key, value, false);
  const Entry e = pos < leaf.count() ? leaf.At(pos) : Entry{};
  INSIGHT_RETURN_NOT_OK(leaf.status());
  if (pos == leaf.count() || CompareEntries(e.key, e.value, key, value)) {
    return Status::NotFound("btree: entry not found");
  }
  leaf.Erase(pos);
  INSIGHT_RETURN_NOT_OK(leaf.status());
  --num_entries_;
  return WriteMeta();
}

Result<bool> BTree::Contains(std::string_view key) const {
  INSIGHT_ASSIGN_OR_RETURN(std::vector<uint64_t> hits, Lookup(key));
  return !hits.empty();
}

Result<std::vector<uint64_t>> BTree::Lookup(std::string_view key) const {
  const std::string k(key);
  INSIGHT_ASSIGN_OR_RETURN(auto hits, LookupMany({&k, 1}));
  return std::move(hits.front());
}

Result<std::vector<std::vector<uint64_t>>> BTree::LookupMany(
    std::span<const std::string> keys) const {
  if (!std::is_sorted(keys.begin(), keys.end())) {
    return Status::InvalidArgument("btree: LookupMany keys not sorted");
  }
  std::vector<std::vector<uint64_t>> out(keys.size());
  std::shared_lock<std::shared_mutex> lk(*latch_);
  // `leaf` is the current leaf. Every entry of the leaves chained before
  // it sorts below the next key to look up, so while that key's lower
  // bound falls inside `leaf` (or `leaf` is the last leaf) the walk needs
  // no descent.
  std::optional<Node> leaf;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0 && keys[i] == keys[i - 1]) {
      out[i] = out[i - 1];
      continue;
    }
    size_t pos = leaf ? leaf->Bound(keys[i], 0, false) : 0;
    if (!leaf ||
        (pos == leaf->count() && leaf->next_leaf() != kInvalidPageId)) {
      EngineMetrics::Get().btree_probes->Add(1);
      INSIGHT_ASSIGN_OR_RETURN(leaf, FindLeaf(keys[i], 0));
      pos = leaf->Bound(keys[i], 0, false);
    }
    // A key's entries may continue into the following leaves (duplicates
    // straddling a split, or a leaf emptied by lazy deletes).
    while (true) {
      for (; pos < leaf->count(); ++pos) {
        const Entry e = leaf->At(pos);
        if (e.key != keys[i]) break;
        out[i].push_back(e.value);
      }
      INSIGHT_RETURN_NOT_OK(leaf->status());
      if (pos < leaf->count() || leaf->next_leaf() == kInvalidPageId) break;
      INSIGHT_ASSIGN_OR_RETURN(leaf, Pin(leaf->next_leaf()));
      pos = 0;
    }
  }
  return out;
}

Result<BTree::Iterator> BTree::RangeScan(std::string_view lower,
                                         bool lower_inclusive,
                                         std::string_view upper,
                                         bool upper_inclusive) const {
  return Scan(lower, lower_inclusive, &upper, upper_inclusive);
}

Result<BTree::Iterator> BTree::ScanAll() const {
  return Scan("", true, nullptr, false);
}

Result<BTree::Iterator> BTree::Scan(std::string_view lower,
                                    bool lower_inclusive,
                                    const std::string_view* upper,
                                    bool upper_inclusive) const {
  EngineMetrics::Get().btree_probes->Add(1);
  std::shared_lock<std::shared_mutex> lk(*latch_);
  Iterator it;
  if (upper == nullptr) it.entries_.reserve(num_entries_);
  // Position at the first entry >= (lower, 0) (or > (lower, MAX) when the
  // lower bound is strict); every later leaf's entries lie past it. Then
  // copy entries along the leaf chain until the upper bound cuts it off.
  const uint64_t probe_val = lower_inclusive ? 0 : UINT64_MAX;
  INSIGHT_ASSIGN_OR_RETURN(Node leaf, FindLeaf(lower, probe_val));
  size_t pos = leaf.Bound(lower, probe_val, !lower_inclusive);
  while (true) {
    for (; pos < leaf.count(); ++pos) {
      const Entry e = leaf.At(pos);
      if (upper != nullptr) {
        const int c = e.key.compare(*upper);
        if (upper_inclusive ? c > 0 : c >= 0) break;
      }
      it.entries_.push_back(BTreeEntry{std::string(e.key), e.value});
    }
    INSIGHT_RETURN_NOT_OK(leaf.status());
    if (pos < leaf.count() || leaf.next_leaf() == kInvalidPageId) return it;
    INSIGHT_ASSIGN_OR_RETURN(leaf, Pin(leaf.next_leaf()));
    pos = 0;
  }
}

}  // namespace insight
