#ifndef INSIGHTNOTES_SUMMARY_SUMMARY_MANAGER_H_
#define INSIGHTNOTES_SUMMARY_SUMMARY_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "annotation/annotation_store.h"
#include "common/result.h"
#include "index/catalog.h"
#include "summary/summary_instance.h"
#include "summary/summary_object.h"

namespace insight {

class RowBatch;

/// Per-relation orchestration of raw annotations and their summaries:
///   - owns the de-normalized `<rel>_SummaryStorage` table (one row per
///     annotated data tuple holding every serialized summary object —
///     Figure 4(b)), linked 1-1 to the base table by sharing its tuple's
///     OID: the storage row of tuple `t` is row `t`
///   - maintains summary objects incrementally as annotations arrive or
///     disappear (Section 2 of the base system)
///   - publishes before/after object events so summary indexes
///     (Summary-BTree, baseline) stay in sync (Section 4.1.2)
class SummaryManager {
 public:
  static Result<std::unique_ptr<SummaryManager>> Create(
      Catalog* catalog, Table* base, AnnotationStore* annotations);

  /// Detaches the zone-map label source installed on the base table.
  ~SummaryManager();

  /// Links a summary instance to this relation (the paper's
  /// `Alter Table <R> Add <InstanceName>`). Existing annotations are NOT
  /// re-summarized; link instances before loading, as the paper does.
  Status LinkInstance(SummaryInstance instance);

  /// Unlinks an instance and strips its objects from every storage row
  /// (admin table-scan operation).
  Status UnlinkInstance(const std::string& name);

  const std::vector<SummaryInstance>& instances() const { return instances_; }
  /// NotFound when no linked instance has this name.
  Result<const SummaryInstance*> FindInstance(std::string_view name) const;
  bool HasInstance(uint32_t instance_id) const;

  /// Stores a raw annotation and incrementally updates the summary
  /// objects of every targeted tuple.
  Result<AnnId> AddAnnotation(const std::string& text,
                              const std::vector<AnnotationTarget>& targets);

  /// Same, but under a caller-chosen annotation id (WAL replay path).
  Status AddAnnotationWithId(AnnId ann, const std::string& text,
                             const std::vector<AnnotationTarget>& targets);

  /// Removes a raw annotation and its effects from all summaries.
  Status RemoveAnnotation(AnnId ann);

  /// Drops the summary row of a deleted data tuple and notifies
  /// listeners (index entries must go too).
  Status OnTupleDeleted(Oid oid);

  /// Propagation: attaches to every row of `batch` its tuple's summary
  /// set (empty when un-annotated) as visible to `snap`, keyed by
  /// `Row::oid`. This is the 1-1 join with the de-normalized storage,
  /// done once per batch: the rows' OIDs are sorted and resolved with one
  /// Table::GetMany walk, so the storage table's OID index is descended
  /// once per leaf run. Row order is unchanged.
  Status AttachSummaries(RowBatch* batch,
                         const Snapshot& snap = Snapshot::Latest()) const;

  /// One tuple's summary set: the one-row call of AttachSummaries.
  Result<SummarySet> GetSummaries(
      Oid oid, const Snapshot& snap = Snapshot::Latest()) const;

  /// The de-normalized storage table itself (1-1 with annotated tuples,
  /// rows `(blob)` keyed by the data tuple's OID).
  Table* storage_table() const { return storage_; }

  /// Invokes `fn` for every (tuple, summary set) row — bulk index builds.
  Status ForEachSummaryRow(
      const std::function<Status(Oid, const SummarySet&)>& fn) const;

  /// Maintenance event: `before`/`after` are null when the object is
  /// created/destroyed. Fired once per (tuple, instance) modification.
  using Listener =
      std::function<Status(Oid oid, const SummaryObject* before,
                           const SummaryObject* after)>;
  using ListenerId = uint64_t;

  /// Subscribes to modifications of one instance's objects. The returned
  /// id deregisters via RemoveListener — indexes MUST deregister before
  /// they are destroyed (they do, in their destructors).
  ListenerId AddListener(uint32_t instance_id, Listener listener);

  /// Drops a subscription; unknown ids are ignored.
  void RemoveListener(ListenerId id);

  /// Resolver that reads raw annotation text (cluster rep re-election).
  AnnotationResolver MakeResolver() const;

  Table* base() const { return base_; }
  AnnotationStore* annotations() const { return annotations_; }

  /// Bytes used by the de-normalized summary storage (heap + OID index).
  uint64_t summary_storage_bytes() const;

 private:
  SummaryManager(Table* base, AnnotationStore* annotations)
      : base_(base), annotations_(annotations) {}

  /// One row's zone-map label counts (lowercased "instance.label" ->
  /// count), unioned over EVERY stored version of its summary row so the
  /// result is conservative for any snapshot. Installed on the base
  /// table as its ZoneLabelSource.
  Status CollectLabelZoneCounts(
      Oid tuple_oid,
      std::vector<std::pair<std::string, int64_t>>* out) const;

  /// The tuple's stored summary set as visible to `snap` (nullopt when
  /// it has no visible storage row) for a writer about to change it.
  /// Returns kAborted (first-writer-wins) when the storage row exists but
  /// is invisible because another open transaction created or superseded
  /// it — two concurrent annotators of one tuple must not both insert one.
  Result<std::optional<SummarySet>> ReadForWrite(Oid tuple_oid,
                                                 const Snapshot& snap) const;

  /// Incremental maintenance shared by AddAnnotation / AddAnnotationWithId:
  /// folds a freshly stored annotation into every targeted tuple's
  /// summary set and fires listener events.
  Status SummarizeAdded(AnnId ann, const std::string& text,
                        const std::vector<AnnotationTarget>& targets);

  /// Writes the tuple's storage row: an update when `exists`, else an
  /// insert under the tuple's OID.
  Status SaveSummaries(Oid tuple_oid, bool exists, const SummarySet& set);

  Status Notify(Oid oid, uint32_t instance_id, const SummaryObject* before,
                const SummaryObject* after);

  Table* base_;
  AnnotationStore* annotations_;
  Table* storage_ = nullptr;  // (blob STRING), row OID = tuple OID
  std::vector<SummaryInstance> instances_;
  std::map<uint32_t, std::vector<std::pair<ListenerId, Listener>>>
      listeners_;
  ListenerId next_listener_id_ = 1;
  uint64_t next_obj_id_ = 1;
};

}  // namespace insight

#endif  // INSIGHTNOTES_SUMMARY_SUMMARY_MANAGER_H_
