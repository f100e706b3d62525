#include "sindex/summary_btree.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "common/logging.h"
#include "common/string_util.h"
#include "engine/row_batch.h"
#include "obs/metrics.h"
#include "wal/crash_point.h"

namespace insight {

namespace {

// Distinguishes successive indexes over the same instance (drop +
// re-add, or parallel pointer-mode variants in benches).
std::atomic<uint64_t> g_sbt_counter{1};

int DigitsOf(int64_t v) {
  int digits = 1;
  while (v >= 10) {
    v /= 10;
    ++digits;
  }
  return digits;
}

// Parses the count back out of an itemized key ("Disease:008" -> 8).
int64_t CountOfKey(const std::string& key) {
  const size_t pos = key.rfind(':');
  if (pos == std::string::npos) return 0;
  return std::strtoll(key.c_str() + pos + 1, nullptr, 10);
}

}  // namespace

std::string SummaryBTree::ItemizeKey(std::string_view label, int64_t count,
                                     int width) {
  std::string key(label);
  key += ':';
  key += ZeroPad(count, width);
  return key;
}

Result<std::unique_ptr<SummaryBTree>> SummaryBTree::Create(
    StorageManager* storage, BufferPool* pool, SummaryManager* mgr,
    const std::string& instance_name, Options options) {
  INSIGHT_ASSIGN_OR_RETURN(const SummaryInstance* inst,
                           mgr->FindInstance(instance_name));
  if (inst->type() != SummaryType::kClassifier) {
    return Status::InvalidArgument(
        "Summary-BTree indexes Classifier-type instances; " + instance_name +
        " is a " + SummaryTypeToString(inst->type()) + " instance");
  }
  for (const std::string& label : inst->labels()) {
    if (label.find(':') != std::string::npos) {
      return Status::InvalidArgument("class label '" + label +
                                     "' contains the itemization separator");
    }
  }
  auto index = std::unique_ptr<SummaryBTree>(
      new SummaryBTree(storage, pool, mgr, options));
  index->instance_id_ = inst->id();
  index->instance_name_ = inst->name();
  const char* mode_tag =
      options.pointer_mode == PointerMode::kBackward ? "bwd" : "conv";
  INSIGHT_ASSIGN_OR_RETURN(
      index->file_,
      storage->CreateFile(mgr->base()->name() + ".sbt." +
                          ToLower(instance_name) + "." + mode_tag + "." +
                          std::to_string(g_sbt_counter.fetch_add(1)) +
                          ".idx"));
  INSIGHT_ASSIGN_OR_RETURN(BTree tree, BTree::Create(pool, index->file_));
  index->tree_ = std::make_unique<BTree>(std::move(tree));

  if (options.bulk_build) {
    SummaryBTree* raw = index.get();
    // Pass 1: size the ExtendedAnnotationCnt field so the build never
    // triggers a mid-bulk rebuild.
    int64_t max_count = 0;
    INSIGHT_RETURN_NOT_OK(mgr->ForEachSummaryRow(
        [raw, &max_count](Oid, const SummarySet& set) -> Status {
          for (const SummaryObject& obj : set.objects()) {
            if (obj.instance_id != raw->instance_id_) continue;
            for (const Representative& rep : obj.reps) {
              max_count = std::max(max_count, rep.count);
            }
          }
          return Status::OK();
        }));
    raw->width_ = std::max(raw->width_, DigitsOf(max_count));
    // Pass 2: itemize and insert; the backward pointer is computed once
    // per tuple, not once per label key.
    INSIGHT_RETURN_NOT_OK(mgr->ForEachSummaryRow(
        [raw](Oid oid, const SummarySet& set) -> Status {
          for (const SummaryObject& obj : set.objects()) {
            if (obj.instance_id != raw->instance_id_) continue;
            INSIGHT_ASSIGN_OR_RETURN(uint64_t payload,
                                     raw->MakePayload(oid));
            for (const Representative& rep : obj.reps) {
              ++raw->stats_.key_inserts;
              INSIGHT_RETURN_NOT_OK(raw->tree_->Insert(
                  ItemizeKey(rep.text, rep.count, raw->width_), payload));
            }
          }
          return Status::OK();
        }));
  }
  if (options.subscribe) {
    SummaryBTree* raw = index.get();
    index->listener_id_ =
        mgr->AddListener(inst->id(),
                         [raw](Oid oid, const SummaryObject* before,
                               const SummaryObject* after) {
                           return raw->OnObjectChanged(oid, before, after);
                         });
  }
  return index;
}

SummaryBTree::~SummaryBTree() {
  if (listener_id_.has_value()) mgr_->RemoveListener(*listener_id_);
}

Result<uint64_t> SummaryBTree::MakePayload(Oid oid) const {
  Transaction* txn = CurrentTxn();
  const Snapshot snap = txn != nullptr ? txn->snapshot() : Snapshot::Latest();
  if (options_.pointer_mode == PointerMode::kBackward) {
    // diskTupleLoc(): B-Tree probe on R's OID index, O(log_B M).
    INSIGHT_ASSIGN_OR_RETURN(RowLocation loc,
                             mgr_->base()->DiskTupleLoc(oid, snap));
    return loc.Pack();
  }
  // The summary-storage row's OID, which is the tuple's own OID.
  return static_cast<uint64_t>(oid);
}

bool SummaryBTree::EntryVisible(const std::string& label, int64_t count,
                                uint64_t payload, const Snapshot& snap) const {
  std::lock_guard<std::mutex> lk(ver_mu_);
  auto it = versions_.find(EntryId{label, count, payload});
  if (it == versions_.end()) return true;  // Long-committed entry.
  return VersionVisible(it->second.begin, it->second.end, snap);
}

Status SummaryBTree::InsertKey(std::string_view label, int64_t count,
                               Oid oid) {
  INSIGHT_ASSIGN_OR_RETURN(uint64_t payload, MakePayload(oid));
  ++stats_.key_inserts;
  EngineMetrics::Get().sbtree_key_inserts->Add(1);
  Transaction* txn = CurrentTxn();
  const EntryId id{std::string(label), count, payload};
  if (txn == nullptr) {
    {
      std::lock_guard<std::mutex> lk(ver_mu_);
      versions_.erase(id);
    }
    return tree_->Insert(ItemizeKey(label, count, width_), payload);
  }

  const Ts marker = txn->stamp();
  {
    std::lock_guard<std::mutex> lk(ver_mu_);
    auto it = versions_.find(id);
    if (it != versions_.end()) {
      EntryStamp& st = it->second;
      if (st.end == marker) {
        // Re-inserting an entry this transaction deleted earlier: cancel
        // the delete intent (its closures see end != marker and no-op).
        st.end = kTsInfinity;
        return Status::OK();
      }
      if (st.begin == marker && st.end == kTsInfinity) {
        return Status::OK();  // Already ours and live.
      }
      // Another transaction owns this entry, or a committed-dead copy is
      // still visible to an old snapshot; a single [begin, end) interval
      // cannot hold both histories. First writer (or history) wins.
      return Status::Aborted("summary index entry " + id.label + ":" +
                             std::to_string(count) + " is contended");
    }
    versions_.emplace(id, EntryStamp{marker, kTsInfinity});
  }
  INSIGHT_RETURN_NOT_OK(
      tree_->Insert(ItemizeKey(label, count, width_), payload));
  txn->OnCommit([this, id, marker](Ts commit_ts) {
    std::lock_guard<std::mutex> lk(ver_mu_);
    auto it = versions_.find(id);
    if (it != versions_.end() && it->second.begin == marker) {
      it->second.begin = commit_ts;
    }
  });
  txn->OnAbort([this, id, marker]() {
    bool drop = false;
    {
      std::lock_guard<std::mutex> lk(ver_mu_);
      auto it = versions_.find(id);
      if (it != versions_.end() && it->second.begin == marker) {
        versions_.erase(it);
        drop = true;
      }
    }
    if (drop) {
      const Status st =
          tree_->Delete(ItemizeKey(id.label, id.count, width_), id.payload);
      if (!st.ok() && !st.IsNotFound()) {
        INSIGHT_LOG(Error) << "summary index insert undo: " << st.ToString();
      }
    }
  });
  txn->OnGc([this, id](Ts horizon) {
    // Once every snapshot starts at/after the commit, the entry needs no
    // sidecar record anymore (implicit = committed forever).
    std::lock_guard<std::mutex> lk(ver_mu_);
    auto it = versions_.find(id);
    if (it != versions_.end() && !IsTxnStamp(it->second.begin) &&
        it->second.begin <= horizon && it->second.end == kTsInfinity) {
      versions_.erase(it);
    }
    return Status::OK();
  });
  return Status::OK();
}

Status SummaryBTree::DeleteKey(std::string_view label, int64_t count,
                               Oid oid) {
  INSIGHT_ASSIGN_OR_RETURN(uint64_t payload, MakePayload(oid));
  ++stats_.key_deletes;
  EngineMetrics::Get().sbtree_key_deletes->Add(1);
  Transaction* txn = CurrentTxn();
  const EntryId id{std::string(label), count, payload};
  if (txn == nullptr) {
    {
      std::lock_guard<std::mutex> lk(ver_mu_);
      versions_.erase(id);
    }
    return tree_->Delete(ItemizeKey(label, count, width_), payload);
  }

  const Ts marker = txn->stamp();
  bool physical = false;
  {
    std::lock_guard<std::mutex> lk(ver_mu_);
    auto it = versions_.find(id);
    if (it != versions_.end()) {
      EntryStamp& st = it->second;
      if (st.begin == marker && st.end == kTsInfinity) {
        // Deleting our own uncommitted insert: remove it outright (the
        // insert's closures see the record gone and no-op).
        versions_.erase(it);
        physical = true;
      } else if (IsTxnStamp(st.begin) || IsTxnStamp(st.end) ||
                 st.end != kTsInfinity) {
        return Status::Aborted("summary index entry " + id.label + ":" +
                               std::to_string(count) + " is contended");
      } else {
        st.end = marker;  // Committed entry: mark the delete intent.
      }
    } else {
      versions_.emplace(id, EntryStamp{0, marker});
    }
  }
  if (physical) {
    return tree_->Delete(ItemizeKey(label, count, width_), payload);
  }
  txn->OnCommit([this, id, marker](Ts commit_ts) {
    std::lock_guard<std::mutex> lk(ver_mu_);
    auto it = versions_.find(id);
    if (it != versions_.end() && it->second.end == marker) {
      it->second.end = commit_ts;
    }
  });
  txn->OnAbort([this, id, marker]() {
    std::lock_guard<std::mutex> lk(ver_mu_);
    auto it = versions_.find(id);
    if (it != versions_.end() && it->second.end == marker) {
      if (it->second.begin == 0) {
        versions_.erase(it);  // Back to the implicit committed state.
      } else {
        it->second.end = kTsInfinity;
      }
    }
  });
  txn->OnGc([this, id](Ts horizon) {
    bool drop = false;
    {
      std::lock_guard<std::mutex> lk(ver_mu_);
      auto it = versions_.find(id);
      if (it != versions_.end() && !IsTxnStamp(it->second.end) &&
          it->second.end != kTsInfinity && it->second.end <= horizon) {
        versions_.erase(it);
        drop = true;
      }
    }
    if (!drop) return Status::OK();
    return tree_->Delete(ItemizeKey(id.label, id.count, width_), id.payload);
  });
  return Status::OK();
}

Status SummaryBTree::OnObjectChanged(Oid oid, const SummaryObject* before,
                                     const SummaryObject* after) {
  if (before == nullptr && after == nullptr) return Status::OK();
  // Width check first: a count outgrowing the ExtendedAnnotationCnt field
  // rebuilds the whole index from (already persisted) summary storage, so
  // per-key maintenance for this event must not run on top of it.
  if (after != nullptr) {
    int64_t max_count = 0;
    for (const Representative& rep : after->reps) {
      max_count = std::max(max_count, rep.count);
    }
    if (DigitsOf(max_count) > width_) {
      INSIGHT_RETURN_NOT_OK(WidenAndRebuild(max_count));
      // Outside a transaction the rebuild already read the final storage
      // state, so the event is fully absorbed. Under a transaction it
      // read the latest *committed* state: the event's own delta still
      // needs versioned per-key maintenance below.
      if (CurrentTxn() == nullptr) return Status::OK();
    }
  }
  if (before == nullptr) {
    // Adding Annotation - Insertion: all k class labels enter the index.
    for (size_t i = 0; i < after->reps.size(); ++i) {
      INSIGHT_RETURN_NOT_OK(
          InsertKey(after->reps[i].text, after->reps[i].count, oid));
    }
    return Status::OK();
  }
  if (after == nullptr) {
    // Tuple (or instance) removal: all label keys leave.
    for (size_t i = 0; i < before->reps.size(); ++i) {
      INSIGHT_RETURN_NOT_OK(
          DeleteKey(before->reps[i].text, before->reps[i].count, oid));
    }
    return Status::OK();
  }
  // Adding Annotation - Update: delete + re-insert only the modified
  // labels (Section 4.1.2).
  if (before->reps.size() != after->reps.size()) {
    return Status::Internal("classifier label set changed under the index");
  }
  for (size_t i = 0; i < after->reps.size(); ++i) {
    if (before->reps[i].count == after->reps[i].count) continue;
    INSIGHT_RETURN_NOT_OK(
        DeleteKey(before->reps[i].text, before->reps[i].count, oid));
    // Recovery invariant under test: a crash here leaves the in-memory
    // index with the old key removed and the new one absent; replaying
    // the log's maintenance protocol must regenerate both consistently.
    INSIGHT_CRASH_POINT("sbtree_maintenance");
    INSIGHT_RETURN_NOT_OK(
        InsertKey(after->reps[i].text, after->reps[i].count, oid));
  }
  return Status::OK();
}

Status SummaryBTree::WidenAndRebuild(int64_t new_max_count) {
  ++stats_.rebuilds;
  EngineMetrics::Get().sbtree_rebuilds->Add(1);
  width_ = DigitsOf(new_max_count);
  ++rebuild_generation_;
  const char* mode_tag =
      options_.pointer_mode == PointerMode::kBackward ? "bwd" : "conv";
  INSIGHT_ASSIGN_OR_RETURN(
      FileId file,
      storage_->CreateFile(mgr_->base()->name() + ".sbt." +
                           ToLower(instance_name_) + "." + mode_tag + ".v" +
                           std::to_string(rebuild_generation_) + ".idx"));
  INSIGHT_ASSIGN_OR_RETURN(BTree tree, BTree::Create(pool_, file));
  file_ = file;
  tree_ = std::make_unique<BTree>(std::move(tree));
  // Re-itemize every object of this instance at the new width. The scan
  // sees the latest committed storage rows only, so uncommitted entries
  // (tracked in the sidecar) are re-applied afterwards.
  INSIGHT_RETURN_NOT_OK(mgr_->ForEachSummaryRow(
      [this](Oid oid, const SummarySet& set) -> Status {
        for (const SummaryObject& obj : set.objects()) {
          if (obj.instance_id != instance_id_) continue;
          INSIGHT_ASSIGN_OR_RETURN(uint64_t payload, MakePayload(oid));
          for (const Representative& rep : obj.reps) {
            INSIGHT_RETURN_NOT_OK(tree_->Insert(
                ItemizeKey(rep.text, rep.count, width_), payload));
          }
        }
        return Status::OK();
      }));
  std::vector<EntryId> uncommitted;
  {
    std::lock_guard<std::mutex> lk(ver_mu_);
    for (const auto& [id, st] : versions_) {
      if (IsTxnStamp(st.begin)) uncommitted.push_back(id);
    }
  }
  for (const EntryId& id : uncommitted) {
    INSIGHT_RETURN_NOT_OK(
        tree_->Insert(ItemizeKey(id.label, id.count, width_), id.payload));
  }
  return Status::OK();
}

Result<std::vector<SummaryIndexHit>> SummaryBTree::Search(
    const ClassifierProbe& probe, const Snapshot& snap) const {
  EngineMetrics::Get().sbtree_probes->Add(1);
  const int64_t max_count = [&] {
    int64_t m = 9;
    for (int i = 1; i < width_; ++i) m = m * 10 + 9;
    return m;
  }();
  const int64_t lo = probe.lower.value_or(0);
  const int64_t hi = probe.upper.value_or(max_count);
  const std::string lower_key = ItemizeKey(probe.label, lo, width_);
  const std::string upper_key = ItemizeKey(probe.label, hi, width_);
  INSIGHT_ASSIGN_OR_RETURN(
      BTree::Iterator it,
      tree_->RangeScan(lower_key, probe.lower_inclusive, upper_key,
                       probe.upper_inclusive));
  std::vector<SummaryIndexHit> hits;
  for (; it.Valid(); it.Next()) {
    const int64_t count = CountOfKey(it.key());
    if (!EntryVisible(probe.label, count, it.value(), snap)) continue;
    hits.push_back(SummaryIndexHit{count, it.value(), kInvalidOid});
  }
  INSIGHT_RETURN_NOT_OK(it.status());
  return hits;
}

Result<std::vector<SummaryIndexHit>> SummaryBTree::ScanLabel(
    const std::string& label, const Snapshot& snap) const {
  ClassifierProbe probe;
  probe.label = label;
  return Search(probe, snap);
}

Status SummaryBTree::FetchRows(std::span<const SummaryIndexHit> hits,
                               bool with_summaries, const Snapshot& snap,
                               RowBatch* out) const {
  if (options_.pointer_mode == PointerMode::kBackward) {
    // One direct heap read per hit; no SummaryStorage involvement unless
    // the summary sets are wanted.
    EngineMetrics::Get().sbtree_backward_derefs->Add(hits.size());
    for (const SummaryIndexHit& hit : hits) {
      Row row;
      INSIGHT_ASSIGN_OR_RETURN(
          row.data, mgr_->base()->GetAt(RowLocation::Unpack(hit.payload),
                                        &row.oid, snap));
      out->Push(std::move(row));
    }
    return with_summaries ? mgr_->AttachSummaries(out, snap) : Status::OK();
  }
  // Conventional: indexed-object row -> OID-index probe -> heap read (the
  // extra level of indirection of Fig. 4(c)). The storage row is read
  // even though its OID is the tuple's: the pointer lands on the indexed
  // object, and a tuple without a visible one is not a hit.
  std::vector<size_t> order(hits.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return hits[a].payload < hits[b].payload;
  });
  std::vector<Oid> oids;
  oids.reserve(hits.size());
  for (size_t i : order) oids.push_back(static_cast<Oid>(hits[i].payload));
  INSIGHT_ASSIGN_OR_RETURN(auto stored,
                           mgr_->storage_table()->GetMany(oids, snap));
  INSIGHT_ASSIGN_OR_RETURN(auto data, mgr_->base()->GetMany(oids, snap));
  std::vector<Row> rows(hits.size());
  for (size_t k = 0; k < order.size(); ++k) {
    if (!stored[k].has_value() || !data[k].has_value()) {
      return Status::NotFound("oid " + std::to_string(oids[k]));
    }
    Row& row = rows[order[k]];
    row.oid = oids[k];
    row.data = std::move(*data[k]);
    if (with_summaries) {
      INSIGHT_ASSIGN_OR_RETURN(
          row.summaries,
          SummarySet::FromStored(std::move(stored[k]->at(0)).AsString()));
    }
  }
  for (Row& row : rows) out->Push(std::move(row));
  return Status::OK();
}

Result<Tuple> SummaryBTree::FetchDataTuple(const SummaryIndexHit& hit,
                                           Oid* oid_out,
                                           const Snapshot& snap) const {
  RowBatch batch(1);
  INSIGHT_RETURN_NOT_OK(FetchRows({&hit, 1}, false, snap, &batch));
  if (oid_out != nullptr) *oid_out = batch[0].oid;
  return std::move(batch[0].data);
}

uint64_t SummaryBTree::size_bytes() const {
  PageStore* store = storage_->GetStore(file_);
  return store != nullptr ? store->size_bytes() : 0;
}

}  // namespace insight
