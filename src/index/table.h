#ifndef INSIGHTNOTES_INDEX_TABLE_H_
#define INSIGHTNOTES_INDEX_TABLE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "index/btree.h"
#include "storage/heap_file.h"
#include "storage/storage_manager.h"
#include "storage/zone_map.h"
#include "txn/txn.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace insight {

/// A user relation: slotted heap file + a B-Tree on the OID column (the
/// paper's `diskTupleLoc()` helper with cost O(log_B M)) + optional
/// secondary B-Tree indexes on data columns.
///
/// Heap records are versioned: `oid || begin_ts || end_ts || tuple`. A row
/// may have several versions (same OID, disjoint [begin, end) lifetimes);
/// reads carry a Snapshot and see exactly one. When the calling thread has
/// a current transaction (CurrentTxn()), writes create/stamp versions and
/// register restamp/undo/GC closures on it; without one they apply with
/// begin=0 / end=forever — immediately visible to every snapshot — which
/// is the WAL-replay and embedded single-writer mode.
///
/// First-writer-wins: a transactional write to a row whose newest version
/// is uncommitted-by-another or committed past the writer's snapshot
/// returns kAborted.
class Table {
 public:
  /// Creates the heap and OID-index files under `name.*` in `storage`.
  static Result<std::unique_ptr<Table>> Create(StorageManager* storage,
                                               BufferPool* pool,
                                               std::string name,
                                               Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const {
    return num_rows_.load(std::memory_order_relaxed);
  }

  /// Inserts a tuple; assigns and returns its OID.
  Result<Oid> Insert(const Tuple& tuple);

  /// Inserts a tuple under a caller-chosen OID and bumps the allocator
  /// past it. WAL replay uses this to reproduce the original OIDs; the
  /// OID must not already be present.
  Status InsertWithOid(Oid oid, const Tuple& tuple);

  /// Next OID Insert would assign (checkpoint snapshots record it).
  Oid next_oid() const { return next_oid_.load(std::memory_order_relaxed); }

  /// Names of columns that have a secondary index, in index order.
  std::vector<std::string> IndexedColumns() const;

  /// Fetches the version visible to `snap` by OID (NotFound when none):
  /// the one-oid call of GetMany.
  Result<Tuple> Get(Oid oid, const Snapshot& snap = Snapshot::Latest()) const;

  /// Batch form of Get. `oids` must be ascending (repeats allowed); result
  /// `i` is the version of `oids[i]` visible to `snap`, or nullopt when no
  /// version is. A row's versions are tried in OID-index order and the
  /// first visible one wins; index entries whose slot was reclaimed or
  /// reused by another row are skipped. One BTree::LookupMany walk, so
  /// the OID index is descended once per leaf run, not once per row.
  Result<std::vector<std::optional<Tuple>>> GetMany(
      std::span<const Oid> oids,
      const Snapshot& snap = Snapshot::Latest()) const;

  /// The paper's diskTupleLoc(): heap location of the tuple version
  /// visible to `snap`, given its OID.
  Result<RowLocation> DiskTupleLoc(
      Oid oid, const Snapshot& snap = Snapshot::Latest()) const;

  /// Direct heap fetch by location (Summary-BTree backward pointers land
  /// here without touching the OID index). If the version at `loc` is not
  /// visible to `snap`, falls back to the visible sibling version of the
  /// same OID (NotFound when none).
  Result<Tuple> GetAt(RowLocation loc, Oid* oid_out = nullptr,
                      const Snapshot& snap = Snapshot::Latest()) const;

  /// Deletes the row (end-stamps its visible version under a transaction;
  /// physically removes it otherwise).
  Status Delete(Oid oid);

  /// Rewrites a tuple. Under a transaction this installs a new version
  /// and end-stamps the old one (first-writer-wins on conflicts); without
  /// one it rewrites in place.
  Status Update(Oid oid, const Tuple& tuple);

  /// Builds a secondary B-Tree index on one data column. Key = encoded
  /// column value, payload = OID. Backfills every existing version, so
  /// index probes at any snapshot find their rows (probes re-check
  /// visibility against the fetched version).
  Status CreateColumnIndex(const std::string& column);

  bool HasColumnIndex(const std::string& column) const;
  const BTree* GetColumnIndex(const std::string& column) const;

  /// One stored version of a row (diagnostics, conflict checks, GC).
  struct VersionInfo {
    RowLocation loc;
    Ts begin = 0;
    Ts end = kTsInfinity;
  };

  /// Every stored version of `oid`, any stamp (empty when unknown).
  Result<std::vector<VersionInfo>> GetVersions(Oid oid) const;

  /// Every stored version's tuple for `oid`, any stamp. Zone-map label
  /// maintenance unions label counts over these so rebuilt bounds stay
  /// conservative for every snapshot.
  Result<std::vector<Tuple>> GetVersionTuples(Oid oid) const;

  /// First-writer-wins admission check for inserting a row that `snap`
  /// believes absent but an index says may exist: kAborted when any
  /// version of `oid` was written by another open transaction or
  /// committed after the snapshot; OK when every version is dead history.
  Status CheckInsertConflict(Oid oid, const Snapshot& snap) const;

  /// Scan yielding (oid, tuple) versions visible to the iterator's
  /// snapshot, in heap order. The page-range form backs morsel-driven
  /// parallel scans: workers walk disjoint ranges.
  class Iterator {
   public:
    Iterator(const Table* table, Snapshot snap)
        : it_(table->heap_->Scan()), snap_(snap) {}
    Iterator(const Table* table, PageId begin, PageId end, Snapshot snap)
        : it_(table->heap_->ScanRange(begin, end)), snap_(snap) {}
    bool Next(Oid* oid, Tuple* tuple);

    /// Decodes only the columns `read` marks; the others are skipped by
    /// length and left NULL (Tuple::Deserialize). Empty: every column.
    void SetReadColumns(std::vector<bool> read) { read_ = std::move(read); }

    /// Installs zone-map pruning: pages `zones` can refute under `pred`
    /// are skipped before they are pinned. `pages_skipped` (optional)
    /// is bumped per pruned page and must outlive the iterator.
    void EnableZonePruning(const ZoneMapStore* zones, ZonePredicate pred,
                           uint64_t* pages_skipped);

   private:
    HeapFile::Iterator it_;
    Snapshot snap_;
    std::vector<bool> read_;
    std::string rec_;  // The current record's bytes, reused across rows.
  };
  Iterator Scan(const Snapshot& snap = Snapshot::Latest()) const {
    return Iterator(this, snap);
  }
  Iterator ScanRange(PageId begin, PageId end,
                     const Snapshot& snap = Snapshot::Latest()) const {
    return Iterator(this, begin, end, snap);
  }

  /// Heap-file scan extent in pages (the domain morsel sources split).
  PageId heap_pages() const { return heap_->num_pages(); }

  // ---- Zone maps (per-page min/max pruning state) ----
  /// Derived, memory-resident per-page bounds. Writes widen them, deletes
  /// and undo only mark pages stale (widen-only invariant), so scans may
  /// consult them at any time without false skips. Repopulated by
  /// recovery/replication replay through the ordinary write paths.
  ZoneMapStore* zone_maps() const { return zones_.get(); }

  /// Callback providing one row's summary-label counts (lowercased
  /// "instance.label" -> count, unioned over every stored summary
  /// version). SummaryManager installs it so label bounds follow a row to
  /// whatever page its versions land on.
  using ZoneLabelSource =
      std::function<Status(Oid, std::vector<std::pair<std::string, int64_t>>*)>;
  void SetZoneLabelSource(ZoneLabelSource source) {
    zone_label_source_ = std::move(source);
  }

  /// Re-derives bounds for every stale page from ALL stored versions
  /// (conservative for every snapshot). Callers serialize with writers —
  /// the engine runs it from its maintenance/checkpoint path.
  Status MaintainZoneMaps();

  /// Storage footprint of the heap file in bytes.
  uint64_t heap_bytes() const { return FileBytes(heap_file_); }
  /// Storage footprint of the OID index in bytes.
  uint64_t oid_index_bytes() const { return FileBytes(oid_index_file_); }
  /// Storage footprint of one secondary column index (0 when absent).
  uint64_t column_index_bytes(const std::string& column) const;

 private:
  Table(StorageManager* storage, BufferPool* pool, std::string name,
        Schema schema)
      : storage_(storage),
        pool_(pool),
        name_(std::move(name)),
        schema_(std::move(schema)) {}

  static std::string EncodeRecord(Oid oid, Ts begin, Ts end,
                                  const Tuple& tuple);
  struct DecodedRecord {
    Oid oid;
    Ts begin;
    Ts end;
    Tuple tuple;
  };
  /// `read` as in Tuple::Deserialize (empty: every column).
  static Result<DecodedRecord> DecodeRecord(std::string_view rec,
                                            const std::vector<bool>& read = {});

  /// Shared insert path: stamps per CurrentTxn() and registers closures.
  Status InsertRecord(Oid oid, const Tuple& tuple);

  /// Reads and decodes the version of `oid` at `loc`; nullopt when the
  /// slot was reclaimed or now holds another row (a stale index entry).
  Result<std::optional<DecodedRecord>> ReadVersion(Oid oid,
                                                   RowLocation loc) const;

  /// Loads and decodes every version of `oid` (with tuples).
  Result<std::vector<std::pair<DecodedRecord, RowLocation>>> LoadVersions(
      Oid oid) const;

  // ---- Version plumbing used by transaction closures ----
  /// Overwrites the begin (or end) stamp of the version whose begin (or
  /// end) stamp is currently `marker`.
  Status Restamp(Oid oid, bool begin, Ts marker, Ts new_ts);
  /// Physically removes the version whose begin stamp is `marker`
  /// (insert undo).
  Status RemoveVersionWithBegin(Oid oid, Ts marker);
  /// Physically removes every version of `oid` whose committed end stamp
  /// is <= horizon (epoch GC of dead versions).
  Status VacuumOid(Oid oid, Ts horizon);

  /// True when another stored version of `oid` (excluding `exclude`) has
  /// `value` in column `column_pos` — guards column-index entry reuse.
  Result<bool> ValueInOtherVersion(Oid oid, size_t column_pos,
                                   const Value& value,
                                   RowLocation exclude) const;

  /// Widens `page`'s label bounds with the oid's summary counts (no-op
  /// without an installed label source).
  void WidenOidLabels(PageId page, Oid oid);

  Status IndexInsert(Oid oid, const Tuple& tuple);
  /// Column-index insert (or delete) of the version at `loc`, keeping
  /// entries shared by other versions.
  Status IndexVersioned(bool insert, Oid oid, const Tuple& tuple,
                        RowLocation loc);
  /// Bytes in `file`'s backing store (0 for unknown files).
  uint64_t FileBytes(FileId file) const;

  StorageManager* storage_;
  BufferPool* pool_;
  std::string name_;
  Schema schema_;
  std::unique_ptr<HeapFile> heap_;
  std::unique_ptr<BTree> oid_index_;
  FileId heap_file_ = 0;
  FileId oid_index_file_ = 0;

  struct ColumnIndex {
    size_t column_pos;
    FileId file;
    std::unique_ptr<BTree> tree;
  };
  std::map<std::string, ColumnIndex> column_indexes_;

  std::unique_ptr<ZoneMapStore> zones_;
  ZoneLabelSource zone_label_source_;

  std::atomic<Oid> next_oid_{1};
  std::atomic<uint64_t> num_rows_{0};
};

}  // namespace insight

#endif  // INSIGHTNOTES_INDEX_TABLE_H_
