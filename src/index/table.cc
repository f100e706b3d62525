#include "index/table.h"

#include <algorithm>

#include "common/logging.h"
#include "common/serde.h"
#include "common/string_util.h"
#include "index/key_codec.h"
#include "obs/metrics.h"
#include "wal/crash_point.h"

namespace insight {

namespace {

// Byte offsets of the version stamps inside an encoded record
// (`oid || begin || end || tuple`, all u64 little-endian).
constexpr size_t kBeginOffset = 8;
constexpr size_t kEndOffset = 16;

std::string TsBytes(Ts ts) {
  std::string out;
  PutU64(&out, ts);
  return out;
}

std::string OidKey(Oid oid) {
  // Big-endian so lexicographic order equals numeric order.
  std::string key(8, '\0');
  for (int i = 0; i < 8; ++i) {
    key[i] = static_cast<char>((oid >> ((7 - i) * 8)) & 0xFF);
  }
  return key;
}

}  // namespace

Result<std::unique_ptr<Table>> Table::Create(StorageManager* storage,
                                             BufferPool* pool,
                                             std::string name,
                                             Schema schema) {
  auto table = std::unique_ptr<Table>(
      new Table(storage, pool, std::move(name), std::move(schema)));
  INSIGHT_ASSIGN_OR_RETURN(table->heap_file_,
                           storage->CreateFile(table->name_ + ".heap"));
  table->heap_ = std::make_unique<HeapFile>(pool, table->heap_file_);
  INSIGHT_ASSIGN_OR_RETURN(table->oid_index_file_,
                           storage->CreateFile(table->name_ + ".oid.idx"));
  INSIGHT_ASSIGN_OR_RETURN(BTree tree,
                           BTree::Create(pool, table->oid_index_file_));
  table->oid_index_ = std::make_unique<BTree>(std::move(tree));
  table->zones_ =
      std::make_unique<ZoneMapStore>(table->schema_.num_columns());
  return table;
}

std::string Table::EncodeRecord(Oid oid, Ts begin, Ts end,
                                const Tuple& tuple) {
  std::string rec;
  PutU64(&rec, oid);
  PutU64(&rec, begin);
  PutU64(&rec, end);
  tuple.Serialize(&rec);
  return rec;
}

Result<Table::DecodedRecord> Table::DecodeRecord(
    std::string_view rec, const std::vector<bool>& read) {
  SerdeReader reader(rec);
  DecodedRecord out;
  uint64_t oid;
  uint64_t begin;
  uint64_t end;
  if (!reader.ReadU64(&oid) || !reader.ReadU64(&begin) ||
      !reader.ReadU64(&end)) {
    return Status::Corruption("record: missing version header");
  }
  INSIGHT_ASSIGN_OR_RETURN(out.tuple, Tuple::Deserialize(&reader, read));
  out.oid = oid;
  out.begin = begin;
  out.end = end;
  return out;
}

Result<std::optional<Table::DecodedRecord>> Table::ReadVersion(
    Oid oid, RowLocation loc, const std::vector<bool>& read) const {
  auto rec = heap_->Get(loc);
  if (!rec.ok()) {
    // A concurrent GC/undo may have reclaimed this version between the
    // index probe and the heap read; it was invisible to us anyway.
    if (rec.status().IsNotFound()) return std::optional<DecodedRecord>();
    return rec.status();
  }
  INSIGHT_ASSIGN_OR_RETURN(DecodedRecord decoded,
                           DecodeRecord(rec.ValueOrDie(), read));
  if (decoded.oid != oid) {
    // Same race as NotFound, one step later: an aborted txn's undo freed
    // the slot and a concurrent insert reused it before our stale index
    // entry was pruned. The version that used to live here was never
    // committed, so it is invisible to every snapshot — skip it.
    return std::optional<DecodedRecord>();
  }
  return std::optional<DecodedRecord>(std::move(decoded));
}

Result<std::vector<std::pair<Table::DecodedRecord, RowLocation>>>
Table::LoadVersions(Oid oid) const {
  INSIGHT_ASSIGN_OR_RETURN(std::vector<uint64_t> hits,
                           oid_index_->Lookup(OidKey(oid)));
  std::vector<std::pair<DecodedRecord, RowLocation>> out;
  out.reserve(hits.size());
  for (uint64_t packed : hits) {
    const RowLocation loc = RowLocation::Unpack(packed);
    INSIGHT_ASSIGN_OR_RETURN(std::optional<DecodedRecord> decoded,
                             ReadVersion(oid, loc));
    if (decoded.has_value()) out.emplace_back(std::move(*decoded), loc);
  }
  return out;
}

Result<std::vector<Table::VersionInfo>> Table::GetVersions(Oid oid) const {
  INSIGHT_ASSIGN_OR_RETURN(auto versions, LoadVersions(oid));
  std::vector<VersionInfo> out;
  out.reserve(versions.size());
  for (const auto& [rec, loc] : versions) {
    out.push_back(VersionInfo{loc, rec.begin, rec.end});
  }
  return out;
}

Result<std::vector<Tuple>> Table::GetVersionTuples(Oid oid) const {
  INSIGHT_ASSIGN_OR_RETURN(auto versions, LoadVersions(oid));
  std::vector<Tuple> out;
  out.reserve(versions.size());
  for (auto& [rec, loc] : versions) {
    out.push_back(std::move(rec.tuple));
  }
  return out;
}

Status Table::CheckInsertConflict(Oid oid, const Snapshot& snap) const {
  INSIGHT_ASSIGN_OR_RETURN(auto versions, LoadVersions(oid));
  for (const auto& [rec, loc] : versions) {
    if (IsTxnStamp(rec.begin)) {
      if (StampTxnId(rec.begin) != snap.txn_id) {
        return Status::Aborted("row " + std::to_string(oid) + " in " + name_ +
                               " is being written by another transaction");
      }
    } else if (rec.begin > snap.read_ts) {
      return Status::Aborted("row " + std::to_string(oid) + " in " + name_ +
                             " was written after this snapshot");
    }
  }
  return Status::OK();
}

Result<Oid> Table::Insert(const Tuple& tuple) {
  if (tuple.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.size()) + " vs schema " +
        std::to_string(schema_.num_columns()));
  }
  const Oid oid = next_oid_.fetch_add(1, std::memory_order_relaxed);
  INSIGHT_RETURN_NOT_OK(InsertRecord(oid, tuple));
  return oid;
}

Status Table::InsertWithOid(Oid oid, const Tuple& tuple) {
  if (tuple.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.size()) + " vs schema " +
        std::to_string(schema_.num_columns()));
  }
  if (oid == kInvalidOid) {
    return Status::InvalidArgument("InsertWithOid: invalid oid");
  }
  INSIGHT_RETURN_NOT_OK(InsertRecord(oid, tuple));
  Oid cur = next_oid_.load(std::memory_order_relaxed);
  while (oid >= cur &&
         !next_oid_.compare_exchange_weak(cur, oid + 1,
                                          std::memory_order_relaxed)) {
  }
  return Status::OK();
}

Status Table::InsertRecord(Oid oid, const Tuple& tuple) {
  Transaction* txn = CurrentTxn();
  const Ts begin = txn != nullptr ? txn->stamp() : 0;
  INSIGHT_ASSIGN_OR_RETURN(
      RowLocation loc,
      heap_->Insert(EncodeRecord(oid, begin, kTsInfinity, tuple)));
  zones_->WidenTuple(loc.page_id, tuple);
  INSIGHT_RETURN_NOT_OK(oid_index_->Insert(OidKey(oid), loc.Pack()));
  if (txn != nullptr) {
    INSIGHT_RETURN_NOT_OK(IndexVersioned(true, oid, tuple, loc));
    const Ts marker = txn->stamp();
    txn->OnCommit([this, oid, marker](Ts commit_ts) {
      const Status st = Restamp(oid, true, marker, commit_ts);
      if (!st.ok()) {
        INSIGHT_LOG(Error) << name_ << ": commit restamp of row " << oid
                           << ": " << st.ToString();
      }
    });
    txn->OnAbort([this, oid, marker]() {
      const Status st = RemoveVersionWithBegin(oid, marker);
      if (!st.ok()) {
        INSIGHT_LOG(Error) << name_ << ": insert undo of row " << oid << ": "
                           << st.ToString();
      }
    });
  } else {
    INSIGHT_RETURN_NOT_OK(IndexInsert(oid, tuple));
  }
  num_rows_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

std::vector<std::string> Table::IndexedColumns() const {
  std::vector<std::string> columns;
  columns.reserve(column_indexes_.size());
  for (const auto& entry : column_indexes_) columns.push_back(entry.first);
  return columns;
}

Result<RowLocation> Table::DiskTupleLoc(Oid oid, const Snapshot& snap) const {
  INSIGHT_ASSIGN_OR_RETURN(auto versions, LoadVersions(oid));
  for (const auto& [rec, loc] : versions) {
    if (VersionVisible(rec.begin, rec.end, snap)) return loc;
  }
  return Status::NotFound("oid " + std::to_string(oid));
}

Result<Tuple> Table::Get(Oid oid, const Snapshot& snap) const {
  INSIGHT_ASSIGN_OR_RETURN(auto rows, GetMany({&oid, 1}, snap));
  if (!rows.front().has_value()) {
    return Status::NotFound("oid " + std::to_string(oid));
  }
  return std::move(*rows.front());
}

Result<std::vector<std::optional<Tuple>>> Table::GetMany(
    std::span<const Oid> oids, const Snapshot& snap,
    const std::vector<bool>& read) const {
  std::vector<std::string> keys;
  keys.reserve(oids.size());
  for (Oid oid : oids) keys.push_back(OidKey(oid));
  INSIGHT_ASSIGN_OR_RETURN(auto hits, oid_index_->LookupMany(keys));
  std::vector<std::optional<Tuple>> out(oids.size());
  for (size_t i = 0; i < oids.size(); ++i) {
    for (uint64_t packed : hits[i]) {
      INSIGHT_ASSIGN_OR_RETURN(
          std::optional<DecodedRecord> decoded,
          ReadVersion(oids[i], RowLocation::Unpack(packed), read));
      if (decoded.has_value() &&
          VersionVisible(decoded->begin, decoded->end, snap)) {
        out[i] = std::move(decoded->tuple);
        break;
      }
    }
  }
  return out;
}

Result<Tuple> Table::GetAt(RowLocation loc, Oid* oid_out,
                           const Snapshot& snap) const {
  INSIGHT_ASSIGN_OR_RETURN(std::string rec, heap_->Get(loc));
  INSIGHT_ASSIGN_OR_RETURN(DecodedRecord decoded, DecodeRecord(rec));
  if (oid_out != nullptr) *oid_out = decoded.oid;
  if (VersionVisible(decoded.begin, decoded.end, snap)) {
    return std::move(decoded.tuple);
  }
  // The version at `loc` is not ours to see; the visible sibling version
  // of the same row (if any) is.
  return Get(decoded.oid, snap);
}

Status Table::Delete(Oid oid) {
  Transaction* txn = CurrentTxn();
  INSIGHT_ASSIGN_OR_RETURN(auto versions, LoadVersions(oid));
  if (txn == nullptr) {
    // Immediate physical delete (replay / embedded single-writer mode).
    for (auto& [rec, loc] : versions) {
      if (!VersionVisible(rec.begin, rec.end, Snapshot::Latest())) continue;
      INSIGHT_RETURN_NOT_OK(IndexVersioned(false, oid, rec.tuple, loc));
      INSIGHT_RETURN_NOT_OK(heap_->Delete(loc));
      // Deletes never tighten zone bounds — the page keeps its (now
      // loose) superset bounds until maintenance re-derives them.
      zones_->MarkStale(loc.page_id);
      INSIGHT_RETURN_NOT_OK(oid_index_->Delete(OidKey(oid), loc.Pack()));
      num_rows_.fetch_sub(1, std::memory_order_relaxed);
      return Status::OK();
    }
    return Status::NotFound("oid " + std::to_string(oid));
  }

  const Snapshot snap = txn->snapshot();
  bool conflict = false;
  bool deleted_by_self = false;
  for (auto& [rec, loc] : versions) {
    if (!VersionVisible(rec.begin, rec.end, snap)) {
      // Classify WHY it is invisible: only evidence of a concurrent or
      // later writer is a (retryable) conflict. A version whose committed
      // end precedes the snapshot is simply a dead row kept alive by an
      // older lease — deterministically NotFound, never worth retrying.
      if (IsTxnStamp(rec.begin) && StampTxnId(rec.begin) != txn->id()) {
        conflict = true;  // Another transaction's uncommitted version.
      } else if (!IsTxnStamp(rec.begin) && rec.begin > snap.read_ts) {
        conflict = true;  // Committed after our snapshot: we lost the race.
      } else if (IsTxnStamp(rec.end)) {
        // Begin is visible to us, so the end stamp must be our own
        // (another txn's delete intent leaves the version visible).
        deleted_by_self = true;
      }
      continue;
    }
    // Writability (first-writer-wins): the visible version must still be
    // the live chain head.
    if (IsTxnStamp(rec.end)) {
      return StampTxnId(rec.end) == txn->id()
                 ? Status::NotFound("row deleted in this transaction")
                 : Status::Aborted("row " + std::to_string(oid) + " in " +
                                   name_ +
                                   " is being written by another transaction");
    }
    if (rec.end != kTsInfinity) {
      return Status::Aborted("row " + std::to_string(oid) + " in " + name_ +
                             " was superseded after this snapshot");
    }
    const Ts marker = txn->stamp();
    INSIGHT_RETURN_NOT_OK(
        heap_->OverwriteRecordBytes(loc, kEndOffset, TsBytes(marker)));
    num_rows_.fetch_sub(1, std::memory_order_relaxed);
    txn->OnAbort([this, oid, marker]() {
      const Status st = Restamp(oid, false, marker, kTsInfinity);
      if (!st.ok()) {
        INSIGHT_LOG(Error) << name_ << ": delete undo of row " << oid << ": "
                           << st.ToString();
      }
      num_rows_.fetch_add(1, std::memory_order_relaxed);
    });
    txn->OnCommit([this, oid, marker](Ts commit_ts) {
      const Status st = Restamp(oid, false, marker, commit_ts);
      if (!st.ok()) {
        INSIGHT_LOG(Error) << name_ << ": commit restamp of row " << oid
                           << ": " << st.ToString();
      }
    });
    txn->OnGc([this, oid](Ts horizon) { return VacuumOid(oid, horizon); });
    return Status::OK();
  }
  if (conflict) {
    return Status::Aborted("row " + std::to_string(oid) + " in " + name_ +
                           " is being written by another transaction");
  }
  if (deleted_by_self) {
    return Status::NotFound("row deleted in this transaction");
  }
  return Status::NotFound("oid " + std::to_string(oid));
}

Status Table::Update(Oid oid, const Tuple& tuple) {
  Transaction* txn = CurrentTxn();
  INSIGHT_ASSIGN_OR_RETURN(auto versions, LoadVersions(oid));
  if (txn == nullptr) {
    // In-place rewrite (replay / embedded single-writer mode).
    for (auto& [rec, loc] : versions) {
      if (!VersionVisible(rec.begin, rec.end, Snapshot::Latest())) continue;
      INSIGHT_ASSIGN_OR_RETURN(
          RowLocation new_loc,
          heap_->Update(loc,
                        EncodeRecord(oid, rec.begin, rec.end, tuple)));
      zones_->WidenTuple(new_loc.page_id, tuple);
      if (!(new_loc == loc)) {
        zones_->MarkStale(loc.page_id);  // Record moved away; widen-only.
        WidenOidLabels(new_loc.page_id, oid);
        INSIGHT_RETURN_NOT_OK(oid_index_->Delete(OidKey(oid), loc.Pack()));
        INSIGHT_RETURN_NOT_OK(oid_index_->Insert(OidKey(oid), new_loc.Pack()));
      }
      INSIGHT_RETURN_NOT_OK(IndexVersioned(false, oid, rec.tuple, new_loc));
      INSIGHT_RETURN_NOT_OK(IndexVersioned(true, oid, tuple, new_loc));
      return Status::OK();
    }
    return Status::NotFound("oid " + std::to_string(oid));
  }

  const Snapshot snap = txn->snapshot();
  bool conflict = false;
  bool deleted_by_self = false;
  for (auto& [rec, loc] : versions) {
    if (!VersionVisible(rec.begin, rec.end, snap)) {
      // Same classification as Delete: only concurrent/later writers are
      // conflicts; committed-dead-before-snapshot versions are NotFound.
      if (IsTxnStamp(rec.begin) && StampTxnId(rec.begin) != txn->id()) {
        conflict = true;
      } else if (!IsTxnStamp(rec.begin) && rec.begin > snap.read_ts) {
        conflict = true;
      } else if (IsTxnStamp(rec.end)) {
        deleted_by_self = true;
      }
      continue;
    }
    if (IsTxnStamp(rec.end)) {
      return StampTxnId(rec.end) == txn->id()
                 ? Status::NotFound("row deleted in this transaction")
                 : Status::Aborted("row " + std::to_string(oid) + " in " +
                                   name_ +
                                   " is being written by another transaction");
    }
    if (rec.end != kTsInfinity) {
      return Status::Aborted("row " + std::to_string(oid) + " in " + name_ +
                             " was superseded after this snapshot");
    }
    if (IsTxnStamp(rec.begin)) {
      // This transaction created the visible version (insert or earlier
      // update): rewrite it in place, no new version.
      INSIGHT_ASSIGN_OR_RETURN(
          RowLocation new_loc,
          heap_->Update(loc, EncodeRecord(oid, rec.begin, kTsInfinity,
                                          tuple)));
      zones_->WidenTuple(new_loc.page_id, tuple);
      if (!(new_loc == loc)) {
        zones_->MarkStale(loc.page_id);
        WidenOidLabels(new_loc.page_id, oid);
        INSIGHT_RETURN_NOT_OK(oid_index_->Delete(OidKey(oid), loc.Pack()));
        INSIGHT_RETURN_NOT_OK(oid_index_->Insert(OidKey(oid), new_loc.Pack()));
      }
      INSIGHT_RETURN_NOT_OK(IndexVersioned(false, oid, rec.tuple, new_loc));
      INSIGHT_RETURN_NOT_OK(IndexVersioned(true, oid, tuple, new_loc));
      return Status::OK();
    }
    // First write of a committed row by this transaction: end-stamp the
    // old version (write intent) and install the successor.
    const Ts marker = txn->stamp();
    INSIGHT_RETURN_NOT_OK(
        heap_->OverwriteRecordBytes(loc, kEndOffset, TsBytes(marker)));
    INSIGHT_ASSIGN_OR_RETURN(
        RowLocation new_loc,
        heap_->Insert(EncodeRecord(oid, marker, kTsInfinity, tuple)));
    zones_->WidenTuple(new_loc.page_id, tuple);
    // An annotated row's new version may land on a page that has never
    // seen its labels; carry the label bounds along.
    WidenOidLabels(new_loc.page_id, oid);
    INSIGHT_RETURN_NOT_OK(oid_index_->Insert(OidKey(oid), new_loc.Pack()));
    INSIGHT_RETURN_NOT_OK(IndexVersioned(true, oid, tuple, new_loc));
    txn->OnAbort([this, oid, marker]() {
      Status st = RemoveVersionWithBegin(oid, marker);
      if (st.ok()) {
        // RemoveVersionWithBegin counts the version as a lost row; the
        // old version comes back below, so the row never went away.
        num_rows_.fetch_add(1, std::memory_order_relaxed);
        st = Restamp(oid, false, marker, kTsInfinity);
      }
      if (!st.ok()) {
        INSIGHT_LOG(Error) << name_ << ": update undo of row " << oid << ": "
                           << st.ToString();
      }
    });
    txn->OnCommit([this, oid, marker](Ts commit_ts) {
      Status st = Restamp(oid, true, marker, commit_ts);
      if (st.ok()) st = Restamp(oid, false, marker, commit_ts);
      if (!st.ok()) {
        INSIGHT_LOG(Error) << name_ << ": commit restamp of row " << oid
                           << ": " << st.ToString();
      }
    });
    txn->OnGc([this, oid](Ts horizon) { return VacuumOid(oid, horizon); });
    return Status::OK();
  }
  if (conflict) {
    return Status::Aborted("row " + std::to_string(oid) + " in " + name_ +
                           " is being written by another transaction");
  }
  if (deleted_by_self) {
    return Status::NotFound("row deleted in this transaction");
  }
  return Status::NotFound("oid " + std::to_string(oid));
}

Status Table::Restamp(Oid oid, bool begin, Ts marker, Ts new_ts) {
  INSIGHT_ASSIGN_OR_RETURN(auto versions, LoadVersions(oid));
  bool found = false;
  for (const auto& [rec, loc] : versions) {
    if ((begin ? rec.begin : rec.end) != marker) continue;
    INSIGHT_RETURN_NOT_OK(heap_->OverwriteRecordBytes(
        loc, begin ? kBeginOffset : kEndOffset, TsBytes(new_ts)));
    found = true;
  }
  return found ? Status::OK()
               : Status::NotFound("no version of oid " + std::to_string(oid) +
                                  " carries the stamp");
}

Status Table::RemoveVersionWithBegin(Oid oid, Ts marker) {
  INSIGHT_ASSIGN_OR_RETURN(auto versions, LoadVersions(oid));
  bool found = false;
  for (const auto& [rec, loc] : versions) {
    if (rec.begin != marker) continue;
    INSIGHT_RETURN_NOT_OK(IndexVersioned(false, oid, rec.tuple, loc));
    INSIGHT_RETURN_NOT_OK(heap_->Delete(loc));
    // Abort undo never tightens bounds (widen-only invariant): the page
    // keeps the aborted version's superset bounds until maintenance.
    zones_->MarkStale(loc.page_id);
    INSIGHT_RETURN_NOT_OK(oid_index_->Delete(OidKey(oid), loc.Pack()));
    num_rows_.fetch_sub(1, std::memory_order_relaxed);
    found = true;
  }
  return found ? Status::OK()
               : Status::NotFound("no version of oid " + std::to_string(oid) +
                                  " carries the stamp");
}

Status Table::VacuumOid(Oid oid, Ts horizon) {
  INSIGHT_ASSIGN_OR_RETURN(auto versions, LoadVersions(oid));
  for (const auto& [rec, loc] : versions) {
    if (IsTxnStamp(rec.end) || rec.end == kTsInfinity || rec.end > horizon) {
      continue;
    }
    INSIGHT_RETURN_NOT_OK(IndexVersioned(false, oid, rec.tuple, loc));
    INSIGHT_RETURN_NOT_OK(heap_->Delete(loc));
    zones_->MarkStale(loc.page_id);  // GC vacuums; maintenance tightens.
    INSIGHT_RETURN_NOT_OK(oid_index_->Delete(OidKey(oid), loc.Pack()));
  }
  return Status::OK();
}

void Table::WidenOidLabels(PageId page, Oid oid) {
  if (!zone_label_source_) return;
  std::vector<std::pair<std::string, int64_t>> counts;
  if (!zone_label_source_(oid, &counts).ok()) return;
  zones_->WidenLabels(page, counts);
}

Status Table::MaintainZoneMaps() {
  for (PageId page : zones_->StalePages()) {
    INSIGHT_CRASH_POINT("zonemap_maintain");
    PageZone zone;
    zone.columns.resize(schema_.num_columns());
    std::vector<Oid> oids;
    HeapFile::Iterator it = heap_->ScanRange(page, page + 1);
    RowLocation loc;
    std::string raw;
    while (it.Next(&loc, &raw)) {
      auto decoded = DecodeRecord(raw);
      if (!decoded.ok()) continue;
      const DecodedRecord& rec = decoded.ValueOrDie();
      // Bounds cover EVERY stored version, whatever its stamp, so the
      // rebuilt zone is conservative for any snapshot still reading the
      // page. A page whose versions were all GC'd ends up any_rows=false
      // and is skippable by every probe.
      zone.Widen(rec.tuple);
      oids.push_back(rec.oid);
    }
    if (zone_label_source_ && !oids.empty()) {
      std::sort(oids.begin(), oids.end());
      oids.erase(std::unique(oids.begin(), oids.end()), oids.end());
      std::vector<std::pair<std::string, int64_t>> counts;
      for (Oid oid : oids) {
        counts.clear();
        if (!zone_label_source_(oid, &counts).ok()) continue;
        for (const auto& [key, count] : counts) {
          zone.WidenLabel(key, count);
        }
      }
    }
    zones_->ReplacePage(page, std::move(zone));
  }
  return Status::OK();
}

void Table::Iterator::EnableZonePruning(const ZoneMapStore* zones,
                                        ZonePredicate pred,
                                        uint64_t* pages_skipped) {
  if (zones == nullptr || pred.empty()) return;
  it_.set_page_filter(
      [zones, pred = std::move(pred), pages_skipped](PageId page) {
        if (!zones->CanSkip(page, pred)) return false;
        if (pages_skipped != nullptr) ++*pages_skipped;
        EngineMetrics::Get().scan_pages_skipped->Add(1);
        return true;
      });
}

Result<bool> Table::ValueInOtherVersion(Oid oid, size_t column_pos,
                                        const Value& value,
                                        RowLocation exclude) const {
  INSIGHT_ASSIGN_OR_RETURN(auto versions, LoadVersions(oid));
  const std::string key = EncodeIndexKey(value);
  for (const auto& [rec, loc] : versions) {
    if (loc == exclude) continue;
    if (EncodeIndexKey(rec.tuple.at(column_pos)) == key) return true;
  }
  return false;
}

Status Table::IndexInsert(Oid oid, const Tuple& tuple) {
  for (auto& [col, idx] : column_indexes_) {
    INSIGHT_RETURN_NOT_OK(
        idx.tree->Insert(EncodeIndexKey(tuple.at(idx.column_pos)), oid));
  }
  return Status::OK();
}

Status Table::IndexVersioned(bool insert, Oid oid, const Tuple& tuple,
                             RowLocation loc) {
  // Invariant: a column index holds (value, oid) iff SOME stored version
  // of `oid` has `value` — probes re-check visibility and value on the
  // fetched version, so surplus entries are only extra work, but a
  // missing entry would lose rows. Skip the insert when a sibling
  // version already put the pair in place, and the delete while another
  // version still needs it.
  for (auto& [col, idx] : column_indexes_) {
    const Value& v = tuple.at(idx.column_pos);
    INSIGHT_ASSIGN_OR_RETURN(
        bool shared, ValueInOtherVersion(oid, idx.column_pos, v, loc));
    if (shared) continue;
    const std::string key = EncodeIndexKey(v);
    INSIGHT_RETURN_NOT_OK(insert ? idx.tree->Insert(key, oid)
                                 : idx.tree->Delete(key, oid));
  }
  return Status::OK();
}

Status Table::CreateColumnIndex(const std::string& column) {
  const std::string key = ToLower(column);
  if (column_indexes_.count(key) > 0) {
    return Status::AlreadyExists("index on " + column);
  }
  INSIGHT_ASSIGN_OR_RETURN(size_t pos, schema_.IndexOf(column));
  ColumnIndex idx;
  idx.column_pos = pos;
  INSIGHT_ASSIGN_OR_RETURN(
      idx.file, storage_->CreateFile(name_ + ".col." + key + ".idx"));
  INSIGHT_ASSIGN_OR_RETURN(BTree tree, BTree::Create(pool_, idx.file));
  idx.tree = std::make_unique<BTree>(std::move(tree));
  // Backfill from the raw heap — every version of every row, so probes at
  // any snapshot resolve. Duplicate (value, oid) pairs from sibling
  // versions with equal values are collapsed.
  HeapFile::Iterator it = heap_->Scan();
  RowLocation loc;
  std::string raw;
  while (it.Next(&loc, &raw)) {
    auto decoded = DecodeRecord(raw);
    if (!decoded.ok()) continue;
    const DecodedRecord& rec = decoded.ValueOrDie();
    const std::string ekey = EncodeIndexKey(rec.tuple.at(pos));
    INSIGHT_ASSIGN_OR_RETURN(std::vector<uint64_t> existing,
                             idx.tree->Lookup(ekey));
    if (std::find(existing.begin(), existing.end(), rec.oid) !=
        existing.end()) {
      continue;
    }
    INSIGHT_RETURN_NOT_OK(idx.tree->Insert(ekey, rec.oid));
  }
  column_indexes_.emplace(key, std::move(idx));
  return Status::OK();
}

bool Table::HasColumnIndex(const std::string& column) const {
  return column_indexes_.count(ToLower(column)) > 0;
}

const BTree* Table::GetColumnIndex(const std::string& column) const {
  auto it = column_indexes_.find(ToLower(column));
  return it == column_indexes_.end() ? nullptr : it->second.tree.get();
}

bool Table::Iterator::Next(Oid* oid, Tuple* tuple) {
  RowLocation loc;
  while (it_.Next(&loc, &rec_)) {
    auto decoded = DecodeRecord(rec_, read_);
    if (!decoded.ok()) return false;
    DecodedRecord& d = decoded.ValueOrDie();
    if (!VersionVisible(d.begin, d.end, snap_)) continue;
    *oid = d.oid;
    *tuple = std::move(d.tuple);
    return true;
  }
  return false;
}

uint64_t Table::FileBytes(FileId file) const {
  PageStore* store = storage_->GetStore(file);
  return store != nullptr ? store->size_bytes() : 0;
}

uint64_t Table::column_index_bytes(const std::string& column) const {
  auto it = column_indexes_.find(ToLower(column));
  return it == column_indexes_.end() ? 0 : FileBytes(it->second.file);
}

}  // namespace insight
