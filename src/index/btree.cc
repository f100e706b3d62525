#include "index/btree.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/serde.h"
#include "obs/metrics.h"

namespace insight {

// Page layouts (all little-endian):
//   Meta page (page 0):  u8 type=3, u32 root, u64 num_entries, u32 height
//   Node page:           u8 type (4=internal, 5=leaf), u16 count,
//                        u32 next_leaf (leaves only),
//     leaf entries:      count x { u16 key_len, key bytes, u64 value }
//     internal:          u32 child0, then count x
//                        { u16 key_len, key bytes, u64 value, u32 child }
namespace {
constexpr uint8_t kMetaType = 3;
constexpr uint8_t kInternalType = 4;
constexpr uint8_t kLeafType = 5;

// Split when a node's serialized size exceeds this. Leaves room so the
// post-split halves accept a few more entries before resplitting.
constexpr size_t kNodeSizeLimit = kPageSize - 64;

}  // namespace

int CompareEntries(std::string_view a_key, uint64_t a_val,
                   std::string_view b_key, uint64_t b_val) {
  const int c = a_key.compare(b_key);
  if (c != 0) return c < 0 ? -1 : 1;
  if (a_val != b_val) return a_val < b_val ? -1 : 1;
  return 0;
}

size_t BTree::Node::SerializedSize() const {
  size_t size = 1 + 2 + 4;  // type + count + next_leaf slot.
  if (is_leaf) {
    for (const std::string& k : keys) size += 2 + k.size() + 8;
  } else {
    size += 4;  // child0
    for (const std::string& k : keys) size += 2 + k.size() + 8 + 4;
  }
  return size;
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
  Node root;
  root.is_leaf = true;
  INSIGHT_ASSIGN_OR_RETURN(tree.root_, tree.AllocNode(root));
  tree.num_entries_ = 0;
  tree.height_ = 1;
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

Result<BTree::Node> BTree::ReadNode(PageId page) const {
  INSIGHT_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(file_, page));
  const char* p = guard.data();
  Node node;
  const uint8_t type = static_cast<uint8_t>(p[0]);
  if (type != kInternalType && type != kLeafType) {
    return Status::Corruption("btree: bad node type on page " +
                              std::to_string(page));
  }
  node.is_leaf = (type == kLeafType);
  uint16_t count;
  std::memcpy(&count, p + 1, 2);
  std::memcpy(&node.next_leaf, p + 3, 4);
  size_t pos = 7;
  auto read_u16 = [&](uint16_t* v) {
    std::memcpy(v, p + pos, 2);
    pos += 2;
  };
  auto read_u32 = [&](uint32_t* v) {
    std::memcpy(v, p + pos, 4);
    pos += 4;
  };
  auto read_u64 = [&](uint64_t* v) {
    std::memcpy(v, p + pos, 8);
    pos += 8;
  };
  if (!node.is_leaf) {
    uint32_t child0;
    read_u32(&child0);
    node.children.push_back(child0);
  }
  node.keys.reserve(count);
  node.values.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    uint16_t klen;
    read_u16(&klen);
    node.keys.emplace_back(p + pos, klen);
    pos += klen;
    uint64_t v;
    read_u64(&v);
    node.values.push_back(v);
    if (!node.is_leaf) {
      uint32_t child;
      read_u32(&child);
      node.children.push_back(child);
    }
  }
  return node;
}

Status BTree::WriteNode(PageId page, const Node& node) {
  INSIGHT_CHECK(node.SerializedSize() <= kPageSize)
      << "btree node overflows page";
  INSIGHT_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPage(file_, page));
  char* p = guard.data();
  p[0] = static_cast<char>(node.is_leaf ? kLeafType : kInternalType);
  const uint16_t count = static_cast<uint16_t>(node.keys.size());
  std::memcpy(p + 1, &count, 2);
  std::memcpy(p + 3, &node.next_leaf, 4);
  size_t pos = 7;
  auto put_u16 = [&](uint16_t v) {
    std::memcpy(p + pos, &v, 2);
    pos += 2;
  };
  auto put_u32 = [&](uint32_t v) {
    std::memcpy(p + pos, &v, 4);
    pos += 4;
  };
  auto put_u64 = [&](uint64_t v) {
    std::memcpy(p + pos, &v, 8);
    pos += 8;
  };
  if (!node.is_leaf) put_u32(node.children[0]);
  for (size_t i = 0; i < node.keys.size(); ++i) {
    put_u16(static_cast<uint16_t>(node.keys[i].size()));
    std::memcpy(p + pos, node.keys[i].data(), node.keys[i].size());
    pos += node.keys[i].size();
    put_u64(node.values[i]);
    if (!node.is_leaf) put_u32(node.children[i + 1]);
  }
  guard.MarkDirty();
  return Status::OK();
}

Result<PageId> BTree::AllocNode(const Node& node) {
  PageId page;
  INSIGHT_ASSIGN_OR_RETURN(PageGuard guard, pool_->NewPage(file_, &page));
  guard.Release();
  INSIGHT_RETURN_NOT_OK(WriteNode(page, node));
  return page;
}

namespace {

// Index of the first entry in (keys, values) that is >= (key, value).
size_t LowerBound(const std::vector<std::string>& keys,
                  const std::vector<uint64_t>& values, std::string_view key,
                  uint64_t value) {
  size_t lo = 0;
  size_t hi = keys.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (CompareEntries(keys[mid], values[mid], key, value) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Child slot to descend into for (key, value): the first separator that is
// greater than the probe routes left of itself.
size_t ChildIndex(const std::vector<std::string>& keys,
                  const std::vector<uint64_t>& values, std::string_view key,
                  uint64_t value) {
  size_t lo = 0;
  size_t hi = keys.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (CompareEntries(key, value, keys[mid], values[mid]) < 0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace

Result<std::optional<BTree::SplitResult>> BTree::InsertRec(
    PageId page, std::string_view key, uint64_t value) {
  INSIGHT_ASSIGN_OR_RETURN(Node node, ReadNode(page));
  if (node.is_leaf) {
    const size_t pos = LowerBound(node.keys, node.values, key, value);
    node.keys.insert(node.keys.begin() + pos, std::string(key));
    node.values.insert(node.values.begin() + pos, value);
  } else {
    const size_t child_idx = ChildIndex(node.keys, node.values, key, value);
    INSIGHT_ASSIGN_OR_RETURN(auto child_split,
                             InsertRec(node.children[child_idx], key, value));
    if (!child_split.has_value()) return std::optional<SplitResult>{};
    node.keys.insert(node.keys.begin() + child_idx, child_split->sep_key);
    node.values.insert(node.values.begin() + child_idx,
                       child_split->sep_value);
    node.children.insert(node.children.begin() + child_idx + 1,
                         child_split->new_page);
  }

  if (node.SerializedSize() <= kNodeSizeLimit) {
    INSIGHT_RETURN_NOT_OK(WriteNode(page, node));
    return std::optional<SplitResult>{};
  }

  // Split: right half moves to a new node.
  const size_t mid = node.keys.size() / 2;
  Node right;
  right.is_leaf = node.is_leaf;
  SplitResult split;
  if (node.is_leaf) {
    right.keys.assign(node.keys.begin() + mid, node.keys.end());
    right.values.assign(node.values.begin() + mid, node.values.end());
    node.keys.resize(mid);
    node.values.resize(mid);
    split.sep_key = right.keys.front();
    split.sep_value = right.values.front();
    right.next_leaf = node.next_leaf;
    INSIGHT_ASSIGN_OR_RETURN(split.new_page, AllocNode(right));
    node.next_leaf = split.new_page;
  } else {
    // The middle separator moves up; it is not duplicated in either half.
    split.sep_key = node.keys[mid];
    split.sep_value = node.values[mid];
    right.keys.assign(node.keys.begin() + mid + 1, node.keys.end());
    right.values.assign(node.values.begin() + mid + 1, node.values.end());
    right.children.assign(node.children.begin() + mid + 1,
                          node.children.end());
    node.keys.resize(mid);
    node.values.resize(mid);
    node.children.resize(mid + 1);
    INSIGHT_ASSIGN_OR_RETURN(split.new_page, AllocNode(right));
  }
  INSIGHT_RETURN_NOT_OK(WriteNode(page, node));
  return std::optional<SplitResult>(std::move(split));
}

Status BTree::Insert(std::string_view key, uint64_t value) {
  if (key.size() > 4096) {
    return Status::InvalidArgument("btree key too large");
  }
  std::unique_lock<std::shared_mutex> lk(*latch_);
  INSIGHT_ASSIGN_OR_RETURN(auto split, InsertRec(root_, key, value));
  if (split.has_value()) {
    Node new_root;
    new_root.is_leaf = false;
    new_root.keys.push_back(split->sep_key);
    new_root.values.push_back(split->sep_value);
    new_root.children.push_back(root_);
    new_root.children.push_back(split->new_page);
    INSIGHT_ASSIGN_OR_RETURN(root_, AllocNode(new_root));
    ++height_;
  }
  ++num_entries_;
  return WriteMeta();
}

Result<PageId> BTree::FindLeaf(std::string_view key, uint64_t value) const {
  PageId page = root_;
  while (true) {
    INSIGHT_ASSIGN_OR_RETURN(Node node, ReadNode(page));
    if (node.is_leaf) return page;
    page = node.children[ChildIndex(node.keys, node.values, key, value)];
  }
}

Status BTree::Delete(std::string_view key, uint64_t value) {
  std::unique_lock<std::shared_mutex> lk(*latch_);
  INSIGHT_ASSIGN_OR_RETURN(PageId leaf_page, FindLeaf(key, value));
  INSIGHT_ASSIGN_OR_RETURN(Node leaf, ReadNode(leaf_page));
  const size_t pos = LowerBound(leaf.keys, leaf.values, key, value);
  if (pos >= leaf.keys.size() ||
      CompareEntries(leaf.keys[pos], leaf.values[pos], key, value) != 0) {
    return Status::NotFound("btree: entry not found");
  }
  leaf.keys.erase(leaf.keys.begin() + pos);
  leaf.values.erase(leaf.values.begin() + pos);
  INSIGHT_RETURN_NOT_OK(WriteNode(leaf_page, leaf));
  --num_entries_;
  return WriteMeta();
}

Result<bool> BTree::Contains(std::string_view key) const {
  INSIGHT_ASSIGN_OR_RETURN(Iterator it,
                           RangeScan(key, true, key, true));
  return it.Valid();
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
  Node leaf;
  bool descended = false;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0 && keys[i] == keys[i - 1]) {
      out[i] = out[i - 1];
      continue;
    }
    size_t pos = LowerBound(leaf.keys, leaf.values, keys[i], 0);
    const bool last_leaf = descended && leaf.next_leaf == kInvalidPageId;
    if (pos == leaf.keys.size() && !last_leaf) {
      EngineMetrics::Get().btree_probes->Add(1);
      INSIGHT_ASSIGN_OR_RETURN(PageId page, FindLeaf(keys[i], 0));
      INSIGHT_ASSIGN_OR_RETURN(leaf, ReadNode(page));
      descended = true;
      pos = LowerBound(leaf.keys, leaf.values, keys[i], 0);
    }
    // A key's entries may continue into the following leaves (duplicates
    // straddling a split, or a leaf emptied by lazy deletes).
    while (true) {
      for (; pos < leaf.keys.size() && leaf.keys[pos] == keys[i]; ++pos) {
        out[i].push_back(leaf.values[pos]);
      }
      if (pos < leaf.keys.size() || leaf.next_leaf == kInvalidPageId) break;
      INSIGHT_ASSIGN_OR_RETURN(leaf, ReadNode(leaf.next_leaf));
      pos = 0;
    }
  }
  return out;
}

Result<BTree::Iterator> BTree::RangeScan(std::string_view lower,
                                         bool lower_inclusive,
                                         std::string_view upper,
                                         bool upper_inclusive) const {
  EngineMetrics::Get().btree_probes->Add(1);
  std::shared_lock<std::shared_mutex> lk(*latch_);
  Iterator it;
  // Position at the first entry >= (lower, 0) (or > (lower, MAX) when the
  // lower bound is strict), then collect leaf entries until the upper
  // bound cuts the walk off.
  const uint64_t probe_val = lower_inclusive ? 0 : UINT64_MAX;
  INSIGHT_ASSIGN_OR_RETURN(PageId leaf, FindLeaf(lower, probe_val));
  auto past_lower = [&](const std::string& key) {
    const int c = key.compare(std::string(lower));
    return lower_inclusive ? c >= 0 : c > 0;
  };
  auto within_upper = [&](const std::string& key) {
    const int c = key.compare(std::string(upper));
    return upper_inclusive ? c <= 0 : c < 0;
  };
  PageId page = leaf;
  while (page != kInvalidPageId) {
    INSIGHT_ASSIGN_OR_RETURN(Node node, ReadNode(page));
    for (size_t i = 0; i < node.keys.size(); ++i) {
      if (!past_lower(node.keys[i])) continue;
      if (!within_upper(node.keys[i])) return it;
      it.entries_.push_back(BTreeEntry{node.keys[i], node.values[i]});
    }
    page = node.next_leaf;
  }
  return it;
}

Result<BTree::Iterator> BTree::ScanAll() const {
  EngineMetrics::Get().btree_probes->Add(1);
  std::shared_lock<std::shared_mutex> lk(*latch_);
  Iterator it;
  it.entries_.reserve(num_entries_);
  PageId page = root_;
  while (true) {
    INSIGHT_ASSIGN_OR_RETURN(Node node, ReadNode(page));
    if (node.is_leaf) break;
    page = node.children[0];
  }
  while (page != kInvalidPageId) {
    INSIGHT_ASSIGN_OR_RETURN(Node node, ReadNode(page));
    for (size_t i = 0; i < node.keys.size(); ++i) {
      it.entries_.push_back(BTreeEntry{node.keys[i], node.values[i]});
    }
    page = node.next_leaf;
  }
  return it;
}

}  // namespace insight
