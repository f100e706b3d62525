#ifndef INSIGHTNOTES_SINDEX_SUMMARY_BTREE_H_
#define INSIGHTNOTES_SINDEX_SUMMARY_BTREE_H_

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/result.h"
#include "index/btree.h"
#include "summary/summary_manager.h"
#include "txn/txn.h"

namespace insight {

class RowBatch;

/// Probe for "classLabel <Op> constant" predicates over a Classifier-type
/// summary instance. Missing bounds are replaced by the label's 000/999
/// sentinels, exactly as Section 4.1.2 describes.
struct ClassifierProbe {
  std::string label;
  std::optional<int64_t> lower;
  bool lower_inclusive = true;
  std::optional<int64_t> upper;
  bool upper_inclusive = true;

  static ClassifierProbe Equal(std::string label, int64_t value) {
    return ClassifierProbe{std::move(label), value, true, value, true};
  }
  static ClassifierProbe GreaterThan(std::string label, int64_t value) {
    return ClassifierProbe{std::move(label), value, false, std::nullopt,
                           true};
  }
  static ClassifierProbe LessThan(std::string label, int64_t value) {
    return ClassifierProbe{std::move(label), std::nullopt, true, value,
                           false};
  }
  static ClassifierProbe Range(std::string label, int64_t lo, int64_t hi) {
    return ClassifierProbe{std::move(label), lo, true, hi, true};
  }
};

/// One index hit, in (label, count) order — the "interesting order" the
/// optimizer's Rules 3-6 exploit to drop summary-based sort operators.
struct SummaryIndexHit {
  int64_t count = 0;    // The class-label count of the matching object.
  uint64_t payload = 0; // Packed pointer; interpretation depends on mode.
  Oid oid = kInvalidOid;
};

/// The paper's Summary-BTree (Section 4.1): a B-Tree over the itemized
/// `classLabel:NNN` keys of one Classifier instance's objects, built
/// directly on the de-normalized summary storage (no replication), whose
/// leaf payloads are *backward pointers* — heap locations of the annotated
/// data tuples in the user relation R, not of the indexed objects.
///
/// The conventional-pointer variant (Fig. 13's comparison arm) stores the
/// summary-storage row's OID (which is the data tuple's OID) instead and
/// joins back to R at query time through that row.
///
/// Maintenance is event-driven: creation subscribes to the instance's
/// SummaryManager events and applies the per-label delete+re-insert
/// protocol of Section 4.1.2.
class SummaryBTree {
 public:
  enum class PointerMode {
    kBackward,      // Leaf payload = RowLocation in R's heap (+ OID).
    kConventional,  // Leaf payload = summary-storage row OID (= tuple OID).
  };

  struct Options {
    PointerMode pointer_mode = PointerMode::kBackward;
    /// Initial ExtendedAnnotationCnt width (paper: 3 -> "008").
    int count_width = 3;
    /// Build from existing summary rows at creation time (bulk mode).
    bool bulk_build = true;
    /// Subscribe to maintenance events (incremental mode).
    bool subscribe = true;
  };

  /// Creates the index over `instance_name` (must be a linked
  /// Classifier-type instance of `mgr`'s relation).
  static Result<std::unique_ptr<SummaryBTree>> Create(
      StorageManager* storage, BufferPool* pool, SummaryManager* mgr,
      const std::string& instance_name, Options options);

  /// Deregisters the maintenance subscription.
  ~SummaryBTree();

  /// Itemization (Fig. 4(d) step 1): "classLabel:ExtendedCnt".
  static std::string ItemizeKey(std::string_view label, int64_t count,
                                int width);

  /// Evaluates a probe; hits arrive in ascending count order. Entries
  /// written by uncommitted transactions (other than `snap`'s own) or
  /// deleted before `snap` are filtered out via the version sidecar.
  Result<std::vector<SummaryIndexHit>> Search(
      const ClassifierProbe& probe,
      const Snapshot& snap = Snapshot::Latest()) const;

  /// All entries of one label in ascending count order (summary-based
  /// sort via index scan).
  Result<std::vector<SummaryIndexHit>> ScanLabel(
      const std::string& label,
      const Snapshot& snap = Snapshot::Latest()) const;

  /// Resolves `hits` to the rows of `out` (empty on entry), in hit order:
  /// each hit's data tuple and OID and, with `with_summaries`, its
  /// summary set.
  /// Backward mode: one heap read per hit, then one
  /// SummaryManager::AttachSummaries walk for the summary sets.
  /// Conventional mode: the storage rows the pointers land on, then the
  /// data tuples, each fetched with one Table::GetMany walk (the extra
  /// join the backward pointers save); propagation takes the summary sets
  /// from those storage rows and reads none twice — which is why the two
  /// modes cost about the same when propagating (Fig. 13). NotFound when
  /// a hit no longer resolves for `snap`.
  Status FetchRows(std::span<const SummaryIndexHit> hits, bool with_summaries,
                   const Snapshot& snap, RowBatch* out) const;

  /// One hit's data tuple: the one-hit call of FetchRows.
  Result<Tuple> FetchDataTuple(const SummaryIndexHit& hit,
                               Oid* oid_out = nullptr,
                               const Snapshot& snap = Snapshot::Latest()) const;

  uint64_t num_entries() const { return tree_->num_entries(); }
  uint32_t height() const { return tree_->height(); }
  int count_width() const { return width_; }
  PointerMode pointer_mode() const { return options_.pointer_mode; }

  /// Bytes of index storage (the tree's page file).
  uint64_t size_bytes() const;

  /// Maintenance statistics (exercised by the theory-bounds bench).
  struct MaintenanceStats {
    uint64_t key_inserts = 0;
    uint64_t key_deletes = 0;
    uint64_t rebuilds = 0;
  };
  const MaintenanceStats& maintenance_stats() const { return stats_; }

  /// Applies one maintenance event (also reachable for testing; normally
  /// invoked via the SummaryManager subscription).
  Status OnObjectChanged(Oid oid, const SummaryObject* before,
                         const SummaryObject* after);

  /// Number of entries in the MVCC version sidecar (tests/diagnostics).
  size_t versioned_entries() const {
    std::shared_lock<std::shared_mutex> lk(ver_mu_);
    return versions_.size();
  }

 private:
  SummaryBTree(StorageManager* storage, BufferPool* pool,
               SummaryManager* mgr, Options options)
      : storage_(storage), pool_(pool), mgr_(mgr), options_(options),
        width_(options.count_width) {}

  /// Identity of one index entry independent of the current count width
  /// (rebuilds re-itemize keys, so the sidecar keys on the logical
  /// triple, not the encoded key).
  struct EntryId {
    std::string label;
    int64_t count = 0;
    uint64_t payload = 0;
  };
  /// The sidecar's order, also over (label view, count, payload) tuples,
  /// so a probe looks entries up without building an EntryId.
  struct EntryLess {
    using is_transparent = void;
    using View = std::tuple<std::string_view, int64_t, uint64_t>;
    static View Of(const EntryId& id) {
      return {id.label, id.count, id.payload};
    }
    static const View& Of(const View& view) { return view; }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return Of(a) < Of(b);
    }
  };
  /// Version interval of one entry. Tree entries with no sidecar record
  /// are committed long ago: implicitly {begin = 0, end = forever}.
  struct EntryStamp {
    Ts begin = 0;
    Ts end = kTsInfinity;
  };

  /// Whether the tree entry is visible to `snap`; ver_mu_ must be held.
  bool EntryVisible(std::string_view label, int64_t count, uint64_t payload,
                    const Snapshot& snap) const;

  /// Payload for a tuple under the configured pointer mode.
  Result<uint64_t> MakePayload(Oid oid) const;

  Status InsertKey(std::string_view label, int64_t count, Oid oid);
  Status DeleteKey(std::string_view label, int64_t count, Oid oid);

  /// Widens the count field and rebuilds the whole index (paper
  /// footnote 1: counts past 999 trigger an automatic re-build).
  Status WidenAndRebuild(int64_t new_max_count);

  StorageManager* storage_;
  BufferPool* pool_;
  SummaryManager* mgr_;
  Options options_;
  uint32_t instance_id_ = 0;
  std::string instance_name_;
  int width_;
  int rebuild_generation_ = 0;
  std::unique_ptr<BTree> tree_;
  FileId file_ = 0;
  MaintenanceStats stats_;
  std::optional<SummaryManager::ListenerId> listener_id_;

  // MVCC version sidecar: stamps for entries in flight (uncommitted, or
  // committed but still visible to old snapshots). Mutated only by the
  // (serialized) write path and transaction closures. A probe holds
  // ver_mu_ shared across its tree scan and visibility checks, and every
  // step that removes a record together with its tree entry (or swaps the
  // tree) holds it exclusively, so no probe sees an entry without the
  // record that hides it. Lock order: ver_mu_, then the tree's latch.
  mutable std::shared_mutex ver_mu_;
  std::map<EntryId, EntryStamp, EntryLess> versions_;
};

}  // namespace insight

#endif  // INSIGHTNOTES_SINDEX_SUMMARY_BTREE_H_
