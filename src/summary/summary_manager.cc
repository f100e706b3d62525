#include "summary/summary_manager.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "common/string_util.h"
#include "engine/row_batch.h"

namespace insight {

namespace {

/// Flattens one summary set into zone-map label pairs (lowercased
/// "instance.label" -> count). Mirrors GetLabelValue's hierarchical
/// semantics: an inner label ("a" over leaves "a/b", "a/c") answers with
/// its subtree sum, so both the exact leaf counts and every inner-prefix
/// sum are emitted — bounds widened with both stay a superset of any
/// value the probe can observe.
void AppendLabelZoneCounts(const SummarySet& set,
                           std::vector<std::pair<std::string, int64_t>>* out) {
  for (const SummaryObject& obj : set.objects()) {
    if (obj.type != SummaryType::kClassifier) continue;
    const std::string prefix = ToLower(obj.instance_name) + ".";
    std::map<std::string, int64_t> inner_sums;
    for (const Representative& rep : obj.reps) {
      const std::string label = ToLower(rep.text);
      out->emplace_back(prefix + label, rep.count);
      for (size_t pos = label.find('/'); pos != std::string::npos;
           pos = label.find('/', pos + 1)) {
        inner_sums[label.substr(0, pos)] += rep.count;
      }
    }
    for (const auto& [inner, sum] : inner_sums) {
      out->emplace_back(prefix + inner, sum);
    }
  }
}

}  // namespace

Result<std::unique_ptr<SummaryManager>> SummaryManager::Create(
    Catalog* catalog, Table* base, AnnotationStore* annotations) {
  auto mgr = std::unique_ptr<SummaryManager>(
      new SummaryManager(base, annotations));
  INSIGHT_ASSIGN_OR_RETURN(
      mgr->storage_,
      catalog->CreateTable(base->name() + "_SummaryStorage",
                           Schema({{"blob", ValueType::kString}})));
  // Feed the base table's zone maps: label bounds must follow a row's
  // versions to whatever heap page they land on, and maintenance needs
  // the all-versions union when it re-derives a page.
  SummaryManager* raw = mgr.get();
  base->SetZoneLabelSource(
      [raw](Oid oid, std::vector<std::pair<std::string, int64_t>>* out) {
        return raw->CollectLabelZoneCounts(oid, out);
      });
  return mgr;
}

SummaryManager::~SummaryManager() {
  if (base_ != nullptr) base_->SetZoneLabelSource(nullptr);
}

Status SummaryManager::LinkInstance(SummaryInstance instance) {
  for (const SummaryInstance& existing : instances_) {
    if (EqualsIgnoreCase(existing.name(), instance.name())) {
      return Status::AlreadyExists("instance " + instance.name() +
                                   " already linked to " + base_->name());
    }
  }
  instances_.push_back(std::move(instance));
  return Status::OK();
}

Status SummaryManager::UnlinkInstance(const std::string& name) {
  size_t pos = instances_.size();
  for (size_t i = 0; i < instances_.size(); ++i) {
    if (EqualsIgnoreCase(instances_[i].name(), name)) {
      pos = i;
      break;
    }
  }
  if (pos == instances_.size()) {
    return Status::NotFound("instance " + name + " not linked");
  }
  const uint32_t instance_id = instances_[pos].id();
  instances_.erase(instances_.begin() + pos);

  // Strip the instance's objects from every storage row (admin scan).
  std::vector<std::pair<Oid, SummarySet>> rows;
  auto it = storage_->Scan();
  Oid tuple_oid;
  Tuple row;
  while (it.Next(&tuple_oid, &row)) {
    INSIGHT_ASSIGN_OR_RETURN(SummarySet set,
                             SummarySet::Deserialize(row.at(0).AsString()));
    rows.emplace_back(tuple_oid, std::move(set));
  }
  for (auto& [tuple_oid, set] : rows) {
    std::vector<SummaryObject> kept;
    const SummaryObject* removed = nullptr;
    SummaryObject removed_copy;
    for (SummaryObject& obj : set.objects()) {
      if (obj.instance_id == instance_id) {
        removed_copy = obj;
        removed = &removed_copy;
      } else {
        kept.push_back(std::move(obj));
      }
    }
    if (removed == nullptr) continue;
    INSIGHT_RETURN_NOT_OK(SaveSummaries(tuple_oid, /*exists=*/true,
                                        SummarySet(std::move(kept))));
    INSIGHT_RETURN_NOT_OK(Notify(tuple_oid, instance_id, removed, nullptr));
  }
  return Status::OK();
}

Result<const SummaryInstance*> SummaryManager::FindInstance(
    std::string_view name) const {
  for (const SummaryInstance& inst : instances_) {
    if (EqualsIgnoreCase(inst.name(), name)) return &inst;
  }
  return Status::NotFound("instance " + std::string(name) + " not linked to " +
                          base_->name());
}

bool SummaryManager::HasInstance(uint32_t instance_id) const {
  for (const SummaryInstance& inst : instances_) {
    if (inst.id() == instance_id) return true;
  }
  return false;
}

Status SummaryManager::CollectLabelZoneCounts(
    Oid tuple_oid, std::vector<std::pair<std::string, int64_t>>* out) const {
  // Union over every stored version of the summary row, any stamp: a
  // zone rebuilt from this union stays conservative for any snapshot.
  INSIGHT_ASSIGN_OR_RETURN(std::vector<Tuple> versions,
                           storage_->GetVersionTuples(tuple_oid));
  for (const Tuple& row : versions) {
    auto set = SummarySet::Deserialize(row.at(0).AsString());
    if (!set.ok()) continue;
    AppendLabelZoneCounts(*set, out);
  }
  return Status::OK();
}

Result<std::optional<SummarySet>> SummaryManager::ReadForWrite(
    Oid tuple_oid, const Snapshot& snap) const {
  auto row = storage_->Get(tuple_oid, snap);
  if (row.ok()) {
    INSIGHT_ASSIGN_OR_RETURN(
        SummarySet set,
        SummarySet::Deserialize(row.ValueOrDie().at(0).AsString()));
    return std::optional<SummarySet>(std::move(set));
  }
  if (!row.status().IsNotFound()) return row.status();
  // No version is visible. If another open transaction created one (or
  // committed it past our snapshot), two writers are racing to summarize
  // the same tuple: first writer wins.
  INSIGHT_RETURN_NOT_OK(storage_->CheckInsertConflict(tuple_oid, snap));
  return std::optional<SummarySet>();
}

Status SummaryManager::SaveSummaries(Oid tuple_oid, bool exists,
                                     const SummarySet& set) {
  std::string blob;
  set.Serialize(&blob);
  Tuple row({Value::String(std::move(blob))});
  INSIGHT_RETURN_NOT_OK(exists ? storage_->Update(tuple_oid, row)
                               : storage_->InsertWithOid(tuple_oid, row));
  // Every summary mutation funnels through here (including WAL replay
  // and snapshot restore), which is what makes "no label entry on a
  // tracked page => no annotated row there" a zone-map invariant: widen
  // the label bounds of every page holding a version of the tuple.
  std::vector<std::pair<std::string, int64_t>> counts;
  AppendLabelZoneCounts(set, &counts);
  if (!counts.empty()) {
    auto versions = base_->GetVersions(tuple_oid);
    if (versions.ok()) {
      std::vector<PageId> pages;
      for (const Table::VersionInfo& info : *versions) {
        pages.push_back(info.loc.page_id);
      }
      std::sort(pages.begin(), pages.end());
      pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
      for (PageId page : pages) {
        base_->zone_maps()->WidenLabels(page, counts);
      }
    }
  }
  return Status::OK();
}

Status SummaryManager::Notify(Oid oid, uint32_t instance_id,
                              const SummaryObject* before,
                              const SummaryObject* after) {
  auto it = listeners_.find(instance_id);
  if (it == listeners_.end()) return Status::OK();
  for (const auto& [id, listener] : it->second) {
    INSIGHT_RETURN_NOT_OK(listener(oid, before, after));
  }
  return Status::OK();
}

SummaryManager::ListenerId SummaryManager::AddListener(uint32_t instance_id,
                                                       Listener listener) {
  const ListenerId id = next_listener_id_++;
  listeners_[instance_id].emplace_back(id, std::move(listener));
  return id;
}

void SummaryManager::RemoveListener(ListenerId id) {
  for (auto& [instance_id, listeners] : listeners_) {
    for (size_t i = 0; i < listeners.size(); ++i) {
      if (listeners[i].first == id) {
        listeners.erase(listeners.begin() + static_cast<long>(i));
        return;
      }
    }
  }
}

AnnotationResolver SummaryManager::MakeResolver() const {
  AnnotationStore* store = annotations_;
  return [store](AnnId id) {
    Transaction* txn = CurrentTxn();
    return store->GetText(
        id, txn != nullptr ? txn->snapshot() : Snapshot::Latest());
  };
}

Result<AnnId> SummaryManager::AddAnnotation(
    const std::string& text, const std::vector<AnnotationTarget>& targets) {
  INSIGHT_ASSIGN_OR_RETURN(AnnId ann, annotations_->Add(text, targets));
  INSIGHT_RETURN_NOT_OK(SummarizeAdded(ann, text, targets));
  return ann;
}

Status SummaryManager::AddAnnotationWithId(
    AnnId ann, const std::string& text,
    const std::vector<AnnotationTarget>& targets) {
  INSIGHT_RETURN_NOT_OK(annotations_->AddWithId(ann, text, targets));
  return SummarizeAdded(ann, text, targets);
}

Status SummaryManager::SummarizeAdded(
    AnnId ann, const std::string& text,
    const std::vector<AnnotationTarget>& targets) {
  Transaction* txn = CurrentTxn();
  const Snapshot snap = txn != nullptr ? txn->snapshot() : Snapshot::Latest();
  // Group targets per tuple (an annotation may span cells of one tuple).
  std::map<Oid, uint64_t> per_tuple;
  for (const AnnotationTarget& t : targets) {
    per_tuple[t.oid] |= t.column_mask;
  }
  for (const auto& [oid, mask] : per_tuple) {
    INSIGHT_ASSIGN_OR_RETURN(std::optional<SummarySet> stored,
                             ReadForWrite(oid, snap));
    const bool exists = stored.has_value();
    SummarySet set = exists ? std::move(*stored) : SummarySet();
    // Apply every instance first, then persist, then notify: index
    // listeners must observe the storage row already in place (backward
    // and conventional pointers both resolve through it or the base heap).
    struct Event {
      uint32_t instance_id;
      std::optional<SummaryObject> before;
      SummaryObject after;
    };
    std::vector<Event> events;
    for (const SummaryInstance& inst : instances_) {
      SummaryObject* obj = nullptr;
      for (SummaryObject& candidate : set.objects()) {
        if (candidate.instance_id == inst.id()) {
          obj = &candidate;
          break;
        }
      }
      Event event;
      event.instance_id = inst.id();
      if (obj == nullptr) {
        set.Add(inst.NewObject(oid, next_obj_id_++));
        obj = &set.objects().back();
      } else {
        event.before = *obj;
      }
      INSIGHT_RETURN_NOT_OK(inst.ApplyAdd(obj, ann, text, mask));
      event.after = *obj;
      events.push_back(std::move(event));
    }
    INSIGHT_RETURN_NOT_OK(SaveSummaries(oid, exists, set));
    for (const Event& event : events) {
      INSIGHT_RETURN_NOT_OK(
          Notify(oid, event.instance_id,
                 event.before.has_value() ? &*event.before : nullptr,
                 &event.after));
    }
  }
  return Status::OK();
}

Status SummaryManager::RemoveAnnotation(AnnId ann) {
  Transaction* txn = CurrentTxn();
  const Snapshot snap = txn != nullptr ? txn->snapshot() : Snapshot::Latest();
  INSIGHT_ASSIGN_OR_RETURN(std::vector<Oid> tuples,
                           annotations_->TuplesFor(ann, snap));

  const AnnotationResolver resolver = MakeResolver();
  for (Oid oid : tuples) {
    INSIGHT_ASSIGN_OR_RETURN(std::optional<SummarySet> stored,
                             ReadForWrite(oid, snap));
    if (!stored.has_value()) continue;
    SummarySet& set = *stored;
    for (const SummaryInstance& inst : instances_) {
      SummaryObject* obj = set.GetSummaryObject(inst.name());
      if (obj == nullptr) continue;
      SummaryObject before = *obj;
      Status st = inst.ApplyRemove(obj, ann, resolver);
      if (st.IsNotFound()) continue;  // Not contributing to this object.
      INSIGHT_RETURN_NOT_OK(st);
      INSIGHT_RETURN_NOT_OK(Notify(oid, inst.id(), &before, obj));
    }
    INSIGHT_RETURN_NOT_OK(SaveSummaries(oid, /*exists=*/true, set));
  }
  return annotations_->Delete(ann);
}

Status SummaryManager::OnTupleDeleted(Oid oid) {
  Transaction* txn = CurrentTxn();
  const Snapshot snap = txn != nullptr ? txn->snapshot() : Snapshot::Latest();
  INSIGHT_ASSIGN_OR_RETURN(std::optional<SummarySet> stored,
                           ReadForWrite(oid, snap));
  if (!stored.has_value()) return Status::OK();
  for (const SummaryObject& obj : stored->objects()) {
    INSIGHT_RETURN_NOT_OK(Notify(oid, obj.instance_id, &obj, nullptr));
  }
  return storage_->Delete(oid);
}

Status SummaryManager::AttachSummaries(RowBatch* batch,
                                       const Snapshot& snap) const {
  std::vector<Row>& rows = batch->rows();
  std::vector<size_t> order(rows.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return rows[a].oid < rows[b].oid; });
  std::vector<Oid> oids;
  oids.reserve(rows.size());
  for (size_t i : order) oids.push_back(rows[i].oid);
  INSIGHT_ASSIGN_OR_RETURN(auto stored, storage_->GetMany(oids, snap));
  for (size_t k = 0; k < order.size(); ++k) {
    SummarySet& out = rows[order[k]].summaries;
    if (!stored[k].has_value()) {
      out = SummarySet();  // Un-annotated.
      continue;
    }
    INSIGHT_ASSIGN_OR_RETURN(
        out, SummarySet::FromStored(std::move(stored[k]->at(0)).AsString()));
  }
  return Status::OK();
}

Result<SummarySet> SummaryManager::GetSummaries(Oid oid,
                                                const Snapshot& snap) const {
  RowBatch batch(1);
  batch.Push(Row{oid, Tuple(), SummarySet()});
  INSIGHT_RETURN_NOT_OK(AttachSummaries(&batch, snap));
  return std::move(batch[0].summaries);
}

Status SummaryManager::ForEachSummaryRow(
    const std::function<Status(Oid, const SummarySet&)>& fn) const {
  auto it = storage_->Scan();
  Oid tuple_oid;
  Tuple row;
  while (it.Next(&tuple_oid, &row)) {
    INSIGHT_ASSIGN_OR_RETURN(SummarySet set,
                             SummarySet::Deserialize(row.at(0).AsString()));
    INSIGHT_RETURN_NOT_OK(fn(tuple_oid, set));
  }
  return Status::OK();
}

uint64_t SummaryManager::summary_storage_bytes() const {
  return storage_->heap_bytes() + storage_->oid_index_bytes();
}

}  // namespace insight
