#include "annotation/annotation_store.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "common/logging.h"
#include "index/key_codec.h"

namespace insight {

namespace {
// Process-wide annotation id allocator (see AnnId's uniqueness contract).
std::atomic<uint64_t> g_next_ann_id{1};
}  // namespace

AnnId PeekNextAnnId() { return g_next_ann_id.load(); }

void EnsureAnnIdAtLeast(AnnId next) {
  uint64_t seen = g_next_ann_id.load();
  while (seen < next && !g_next_ann_id.compare_exchange_weak(seen, next)) {
  }
}

uint64_t RowMask(size_t num_columns) {
  INSIGHT_CHECK(num_columns <= 64) << "relations limited to 64 columns";
  if (num_columns == 64) return ~0ULL;
  return (1ULL << num_columns) - 1;
}

Result<std::unique_ptr<AnnotationStore>> AnnotationStore::Create(
    Catalog* catalog, const std::string& relation, size_t num_columns) {
  if (num_columns == 0 || num_columns > 64) {
    return Status::InvalidArgument("unsupported column count");
  }
  auto store =
      std::unique_ptr<AnnotationStore>(new AnnotationStore(num_columns));
  INSIGHT_ASSIGN_OR_RETURN(
      store->annotations_,
      catalog->CreateTable(relation + "_Annotations",
                           Schema({{"text", ValueType::kString}})));
  INSIGHT_ASSIGN_OR_RETURN(
      store->links_,
      catalog->CreateTable(relation + "_AnnLinks",
                           Schema({{"ann_id", ValueType::kInt64},
                                   {"tuple_oid", ValueType::kInt64},
                                   {"mask", ValueType::kInt64}})));
  INSIGHT_RETURN_NOT_OK(store->links_->CreateColumnIndex("ann_id"));
  INSIGHT_RETURN_NOT_OK(store->links_->CreateColumnIndex("tuple_oid"));
  return store;
}

Result<AnnId> AnnotationStore::Add(
    const std::string& text, const std::vector<AnnotationTarget>& targets) {
  if (targets.empty()) {
    return Status::InvalidArgument("annotation needs at least one target");
  }
  for (const AnnotationTarget& t : targets) {
    if (t.oid == kInvalidOid || t.column_mask == 0) {
      return Status::InvalidArgument("invalid annotation target");
    }
    if ((t.column_mask & ~RowMask(num_columns_)) != 0) {
      return Status::InvalidArgument("target mask references columns past " +
                                     std::to_string(num_columns_));
    }
  }
  const AnnId ann_id = g_next_ann_id.fetch_add(1);
  INSIGHT_RETURN_NOT_OK(
      annotations_->InsertWithOid(ann_id, Tuple({Value::String(text)})));
  for (const AnnotationTarget& t : targets) {
    INSIGHT_RETURN_NOT_OK(
        links_
            ->Insert(Tuple({Value::Int(static_cast<int64_t>(ann_id)),
                            Value::Int(static_cast<int64_t>(t.oid)),
                            Value::Int(static_cast<int64_t>(t.column_mask))}))
            .status());
  }
  return ann_id;
}

Status AnnotationStore::AddWithId(
    AnnId id, const std::string& text,
    const std::vector<AnnotationTarget>& targets) {
  if (id == 0) return Status::InvalidArgument("invalid annotation id 0");
  if (targets.empty()) {
    return Status::InvalidArgument("annotation needs at least one target");
  }
  for (const AnnotationTarget& t : targets) {
    if (t.oid == kInvalidOid || t.column_mask == 0) {
      return Status::InvalidArgument("invalid annotation target");
    }
    if ((t.column_mask & ~RowMask(num_columns_)) != 0) {
      return Status::InvalidArgument("target mask references columns past " +
                                     std::to_string(num_columns_));
    }
  }
  {
    Transaction* txn = CurrentTxn();
    const Snapshot snap =
        txn != nullptr ? txn->snapshot() : Snapshot::Latest();
    if (annotations_->Get(id, snap).ok()) {
      return Status::AlreadyExists("annotation " + std::to_string(id));
    }
  }
  INSIGHT_RETURN_NOT_OK(
      annotations_->InsertWithOid(id, Tuple({Value::String(text)})));
  for (const AnnotationTarget& t : targets) {
    INSIGHT_RETURN_NOT_OK(
        links_
            ->Insert(Tuple({Value::Int(static_cast<int64_t>(id)),
                            Value::Int(static_cast<int64_t>(t.oid)),
                            Value::Int(static_cast<int64_t>(t.column_mask))}))
            .status());
  }
  EnsureAnnIdAtLeast(id + 1);
  return Status::OK();
}

Status AnnotationStore::ForEachAnnotation(
    const std::function<Status(const Annotation&)>& fn) const {
  // One sequential pass over the links, grouped by annotation and, within
  // one, in link-OID order: the order the ann_id index lists them in.
  struct Link {
    AnnId ann_id;
    Oid link_oid;
    Oid tuple_oid;
    uint64_t mask;
    bool operator<(const Link& o) const {
      return ann_id != o.ann_id ? ann_id < o.ann_id : link_oid < o.link_oid;
    }
  };
  std::vector<Link> links;
  links.reserve(links_->num_rows());
  {
    Table::Iterator it = links_->Scan();
    Oid link_oid;
    Tuple link;
    while (it.Next(&link_oid, &link)) {
      links.push_back(Link{static_cast<AnnId>(link.at(0).AsInt()), link_oid,
                           static_cast<Oid>(link.at(1).AsInt()),
                           static_cast<uint64_t>(link.at(2).AsInt())});
    }
  }
  std::sort(links.begin(), links.end());

  // Merged with one pass over the texts, in their heap order.
  Table::Iterator it = annotations_->Scan();
  Oid ann_id;
  Tuple row;
  while (it.Next(&ann_id, &row)) {
    Annotation ann;
    ann.id = ann_id;
    ann.text = row.at(0).AsString();
    auto link = std::lower_bound(
        links.begin(), links.end(), ann_id,
        [](const Link& l, AnnId id) { return l.ann_id < id; });
    for (; link != links.end() && link->ann_id == ann_id; ++link) {
      // A tuple linked twice keeps its first link's mask.
      const bool seen = std::any_of(
          ann.targets.begin(), ann.targets.end(),
          [&](const AnnotationTarget& t) { return t.oid == link->tuple_oid; });
      if (!seen) {
        ann.targets.push_back(AnnotationTarget{link->tuple_oid, link->mask});
      }
    }
    INSIGHT_RETURN_NOT_OK(fn(ann));
  }
  return Status::OK();
}

Result<std::string> AnnotationStore::GetText(AnnId id,
                                             const Snapshot& snap) const {
  INSIGHT_ASSIGN_OR_RETURN(Tuple row, annotations_->Get(id, snap));
  return row.at(0).AsString();
}

Result<std::vector<Annotation>> AnnotationStore::ForTuple(
    Oid oid, const Snapshot& snap) const {
  const BTree* by_tuple = links_->GetColumnIndex("tuple_oid");
  INSIGHT_ASSIGN_OR_RETURN(
      std::vector<uint64_t> link_oids,
      by_tuple->Lookup(EncodeIndexKey(Value::Int(static_cast<int64_t>(oid)))));
  // One key's postings are in payload order: ascending, as GetMany wants.
  const std::vector<Oid> link_keys(link_oids.begin(), link_oids.end());
  INSIGHT_ASSIGN_OR_RETURN(auto links, links_->GetMany(link_keys, snap));
  std::vector<Annotation> out;
  out.reserve(links.size());
  for (const std::optional<Tuple>& link : links) {
    if (!link.has_value()) continue;  // Invisible version.
    if (static_cast<Oid>(link->at(1).AsInt()) != oid) continue;
    Annotation ann;
    ann.id = static_cast<AnnId>(link->at(0).AsInt());
    ann.targets.push_back(AnnotationTarget{
        oid, static_cast<uint64_t>(link->at(2).AsInt())});
    out.push_back(std::move(ann));
  }
  // Texts in one batch too, probed in id order.
  std::vector<Oid> ids;
  ids.reserve(out.size());
  for (const Annotation& ann : out) ids.push_back(ann.id);
  std::sort(ids.begin(), ids.end());
  INSIGHT_ASSIGN_OR_RETURN(auto texts, annotations_->GetMany(ids, snap));
  for (Annotation& ann : out) {
    const size_t i = static_cast<size_t>(
        std::lower_bound(ids.begin(), ids.end(), ann.id) - ids.begin());
    if (!texts[i].has_value()) {
      return Status::NotFound("oid " + std::to_string(ann.id));
    }
    ann.text = texts[i]->at(0).AsString();
  }
  return out;
}

Result<std::vector<Oid>> AnnotationStore::TuplesFor(
    AnnId id, const Snapshot& snap) const {
  const BTree* by_ann = links_->GetColumnIndex("ann_id");
  INSIGHT_ASSIGN_OR_RETURN(
      std::vector<uint64_t> link_oids,
      by_ann->Lookup(EncodeIndexKey(Value::Int(static_cast<int64_t>(id)))));
  std::vector<Oid> out;
  out.reserve(link_oids.size());
  for (uint64_t link_oid : link_oids) {
    auto link_or = links_->Get(link_oid, snap);
    if (!link_or.ok()) {
      if (link_or.status().IsNotFound()) continue;
      return link_or.status();
    }
    const Tuple& link = link_or.ValueOrDie();
    if (static_cast<AnnId>(link.at(0).AsInt()) != id) continue;
    const Oid oid = static_cast<Oid>(link.at(1).AsInt());
    bool seen = false;
    for (Oid existing : out) {
      if (existing == oid) {
        seen = true;
        break;
      }
    }
    if (!seen) out.push_back(oid);
  }
  return out;
}

Status AnnotationStore::Delete(AnnId id) {
  const BTree* by_ann = links_->GetColumnIndex("ann_id");
  INSIGHT_ASSIGN_OR_RETURN(
      std::vector<uint64_t> link_oids,
      by_ann->Lookup(EncodeIndexKey(Value::Int(static_cast<int64_t>(id)))));
  for (uint64_t link_oid : link_oids) {
    const Status st = links_->Delete(link_oid);
    // Stale index hits (dead versions, rows already gone) are fine;
    // conflicts (kAborted) and real failures are not.
    if (!st.ok() && !st.IsNotFound()) return st;
  }
  return annotations_->Delete(id);
}

uint64_t AnnotationStore::storage_bytes() const {
  return annotations_->heap_bytes() + annotations_->oid_index_bytes() +
         links_->heap_bytes() + links_->oid_index_bytes();
}

}  // namespace insight
