#include "sindex/baseline_index.h"

#include "common/string_util.h"
#include "index/key_codec.h"

namespace insight {

Result<std::unique_ptr<BaselineClassifierIndex>>
BaselineClassifierIndex::Create(Catalog* catalog, SummaryManager* mgr,
                                const std::string& instance_name,
                                Options options) {
  INSIGHT_ASSIGN_OR_RETURN(const SummaryInstance* inst,
                           mgr->FindInstance(instance_name));
  if (inst->type() != SummaryType::kClassifier) {
    return Status::InvalidArgument("baseline scheme indexes Classifier-type "
                                   "instances");
  }
  auto index = std::unique_ptr<BaselineClassifierIndex>(
      new BaselineClassifierIndex(mgr, options));
  index->instance_id_ = inst->id();
  index->instance_name_ = inst->name();
  index->labels_ = inst->labels();
  INSIGHT_ASSIGN_OR_RETURN(
      index->normalized_,
      catalog->CreateTable(mgr->base()->name() + "_" + instance_name +
                               "_Normalized",
                           Schema({{"tuple_oid", ValueType::kInt64},
                                   {"label", ValueType::kString},
                                   {"cnt", ValueType::kInt64},
                                   {"derived", ValueType::kString}})));
  // Standard B-Tree on the system-maintained derived column, plus a
  // tuple_oid index so maintenance can find the rows to update.
  INSIGHT_RETURN_NOT_OK(index->normalized_->CreateColumnIndex("derived"));
  INSIGHT_RETURN_NOT_OK(index->normalized_->CreateColumnIndex("tuple_oid"));

  if (options.bulk_build) {
    BaselineClassifierIndex* raw = index.get();
    INSIGHT_RETURN_NOT_OK(mgr->ForEachSummaryRow(
        [raw](Oid oid, const SummarySet& set) -> Status {
          for (const SummaryObject& obj : set.objects()) {
            if (obj.instance_id != raw->instance_id_) continue;
            INSIGHT_RETURN_NOT_OK(raw->OnObjectChanged(oid, nullptr, &obj));
          }
          return Status::OK();
        }));
  }
  if (options.subscribe) {
    BaselineClassifierIndex* raw = index.get();
    index->listener_id_ =
        mgr->AddListener(inst->id(),
                         [raw](Oid oid, const SummaryObject* before,
                               const SummaryObject* after) {
                           return raw->OnObjectChanged(oid, before, after);
                         });
  }
  return index;
}

BaselineClassifierIndex::~BaselineClassifierIndex() {
  if (listener_id_.has_value()) mgr_->RemoveListener(*listener_id_);
}

std::string BaselineClassifierIndex::DerivedKey(std::string_view label,
                                                int64_t count) const {
  std::string key(label);
  key += '-';
  key += ZeroPad(count, options_.count_width);
  return key;
}

Result<Oid> BaselineClassifierIndex::FindRow(Oid tuple_oid,
                                             std::string_view label) const {
  const BTree* by_tuple = normalized_->GetColumnIndex("tuple_oid");
  INSIGHT_ASSIGN_OR_RETURN(
      std::vector<uint64_t> rows,
      by_tuple->Lookup(
          EncodeIndexKey(Value::Int(static_cast<int64_t>(tuple_oid)))));
  for (uint64_t row_oid : rows) {
    INSIGHT_ASSIGN_OR_RETURN(Tuple row, normalized_->Get(row_oid));
    if (EqualsIgnoreCase(row.at(1).AsString(), label)) return row_oid;
  }
  return kInvalidOid;
}

Status BaselineClassifierIndex::OnObjectChanged(Oid oid,
                                                const SummaryObject* before,
                                                const SummaryObject* after) {
  if (after == nullptr) {
    if (before == nullptr) return Status::OK();
    for (const Representative& rep : before->reps) {
      INSIGHT_ASSIGN_OR_RETURN(Oid row, FindRow(oid, rep.text));
      if (row != kInvalidOid) {
        INSIGHT_RETURN_NOT_OK(normalized_->Delete(row));
      }
    }
    return Status::OK();
  }
  for (size_t i = 0; i < after->reps.size(); ++i) {
    const Representative& rep = after->reps[i];
    if (before != nullptr && before->reps[i].count == rep.count) continue;
    const Tuple row({Value::Int(static_cast<int64_t>(oid)),
                     Value::String(rep.text), Value::Int(rep.count),
                     Value::String(DerivedKey(rep.text, rep.count))});
    if (before == nullptr) {
      INSIGHT_RETURN_NOT_OK(normalized_->Insert(row).status());
    } else {
      INSIGHT_ASSIGN_OR_RETURN(Oid existing, FindRow(oid, rep.text));
      if (existing == kInvalidOid) {
        INSIGHT_RETURN_NOT_OK(normalized_->Insert(row).status());
      } else {
        INSIGHT_RETURN_NOT_OK(normalized_->Update(existing, row));
      }
    }
  }
  return Status::OK();
}

Result<std::vector<SummaryIndexHit>> BaselineClassifierIndex::Search(
    const ClassifierProbe& probe, const Snapshot& snap) const {
  const int64_t max_count = [&] {
    int64_t m = 9;
    for (int i = 1; i < options_.count_width; ++i) m = m * 10 + 9;
    return m;
  }();
  const std::string lower =
      DerivedKey(probe.label, probe.lower.value_or(0));
  const std::string upper =
      DerivedKey(probe.label, probe.upper.value_or(max_count));
  const BTree* idx = normalized_->GetColumnIndex("derived");
  INSIGHT_ASSIGN_OR_RETURN(
      BTree::Iterator it,
      idx->RangeScan(EncodeIndexKey(Value::String(lower)),
                     probe.lower_inclusive,
                     EncodeIndexKey(Value::String(upper)),
                     probe.upper_inclusive));
  std::vector<SummaryIndexHit> hits;
  for (; it.Valid(); it.Next()) {
    // Index payload is the normalized-row OID; resolve to the data tuple
    // OID (first level of indirection). An entry of a version `snap` does
    // not see (uncommitted, rolled back, superseded or deleted) is stale.
    auto visible = normalized_->Get(it.value(), snap);
    if (!visible.ok()) {
      if (visible.status().IsNotFound()) continue;
      return visible.status();
    }
    const Tuple& row = visible.ValueOrDie();
    if (EncodeIndexKey(row.at(3)) != it.key()) continue;
    hits.push_back(SummaryIndexHit{
        row.at(2).AsInt(), static_cast<uint64_t>(row.at(0).AsInt()),
        static_cast<Oid>(row.at(0).AsInt())});
  }
  INSIGHT_RETURN_NOT_OK(it.status());
  return hits;
}

Result<Tuple> BaselineClassifierIndex::FetchDataTuple(
    const SummaryIndexHit& hit, Oid* oid_out, const Snapshot& snap) const {
  if (oid_out != nullptr) *oid_out = hit.oid;
  return mgr_->base()->Get(hit.oid, snap);  // OID-index probe + heap read.
}

Result<SummaryObject> BaselineClassifierIndex::ReconstructObject(
    Oid tuple_oid) const {
  const BTree* by_tuple = normalized_->GetColumnIndex("tuple_oid");
  INSIGHT_ASSIGN_OR_RETURN(
      std::vector<uint64_t> rows,
      by_tuple->Lookup(
          EncodeIndexKey(Value::Int(static_cast<int64_t>(tuple_oid)))));
  if (rows.empty()) {
    return Status::NotFound("tuple " + std::to_string(tuple_oid) +
                            " has no normalized classifier rows");
  }
  SummaryObject obj;
  obj.instance_id = instance_id_;
  obj.tuple_id = tuple_oid;
  obj.type = SummaryType::kClassifier;
  obj.instance_name = instance_name_;
  obj.reps.resize(labels_.size());
  obj.elements.resize(labels_.size());
  for (size_t i = 0; i < labels_.size(); ++i) {
    obj.reps[i] = Representative{labels_[i], 0, 0};
  }
  for (uint64_t row_oid : rows) {
    INSIGHT_ASSIGN_OR_RETURN(Tuple row, normalized_->Get(row_oid));
    for (size_t i = 0; i < labels_.size(); ++i) {
      if (EqualsIgnoreCase(labels_[i], row.at(1).AsString())) {
        obj.reps[i].count = row.at(2).AsInt();
        break;
      }
    }
  }
  return obj;
}

uint64_t BaselineClassifierIndex::replica_bytes() const {
  return normalized_->heap_bytes() + normalized_->oid_index_bytes();
}

uint64_t BaselineClassifierIndex::index_bytes() const {
  return normalized_->column_index_bytes("derived");
}

}  // namespace insight
