#ifndef INSIGHTNOTES_SINDEX_BASELINE_INDEX_H_
#define INSIGHTNOTES_SINDEX_BASELINE_INDEX_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "sindex/summary_btree.h"
#include "summary/summary_manager.h"

namespace insight {

/// The paper's Baseline indexing scheme (Section 4.1, Fig. 4(c)): the
/// Classifier objects are *normalized* — replicated into a side table
/// `(tuple_oid, label, cnt, derived)` where `derived` concatenates label
/// and zero-padded count — and a standard B-Tree is built on the derived
/// column. Queries walk index -> normalized row -> tuple OID -> OID index
/// -> heap, i.e. strictly more indirection than the Summary-BTree, and the
/// replica roughly doubles the summary storage footprint (Fig. 7).
class BaselineClassifierIndex {
 public:
  struct Options {
    int count_width = 3;
    bool bulk_build = true;
    bool subscribe = true;
  };

  static Result<std::unique_ptr<BaselineClassifierIndex>> Create(
      Catalog* catalog, SummaryManager* mgr,
      const std::string& instance_name, Options options);

  /// Deregisters the maintenance subscription.
  ~BaselineClassifierIndex();

  /// Hits in ascending count order. `payload` is the matching tuple's OID.
  /// The derived index holds an entry for every stored version of a
  /// normalized row, so each entry is kept only when the row version
  /// visible to `snap` still carries its key.
  Result<std::vector<SummaryIndexHit>> Search(
      const ClassifierProbe& probe,
      const Snapshot& snap = Snapshot::Latest()) const;

  /// Data-tuple fetch through the OID index (the scheme's extra join).
  Result<Tuple> FetchDataTuple(const SummaryIndexHit& hit,
                               Oid* oid_out = nullptr,
                               const Snapshot& snap = Snapshot::Latest()) const;

  /// Re-forms the Classifier summary object of one tuple from its
  /// normalized rows — the propagation path measured in Fig. 12. Element
  /// lists cannot be reconstructed (normalization discards them); only
  /// Rep[] is rebuilt.
  Result<SummaryObject> ReconstructObject(Oid tuple_oid) const;

  /// Bytes of the normalized replica (heap + its OID index).
  uint64_t replica_bytes() const;
  /// Bytes of the derived-column B-Tree.
  uint64_t index_bytes() const;

  Status OnObjectChanged(Oid oid, const SummaryObject* before,
                         const SummaryObject* after);

 private:
  BaselineClassifierIndex(SummaryManager* mgr, Options options)
      : mgr_(mgr), options_(options) {}

  std::string DerivedKey(std::string_view label, int64_t count) const;

  /// Normalized-row OID holding (tuple, label), or kInvalidOid.
  Result<Oid> FindRow(Oid tuple_oid, std::string_view label) const;

  SummaryManager* mgr_;
  Options options_;
  uint32_t instance_id_ = 0;
  std::string instance_name_;
  std::vector<std::string> labels_;
  Table* normalized_ = nullptr;  // (tuple_oid, label, cnt, derived)
  std::optional<SummaryManager::ListenerId> listener_id_;
};

}  // namespace insight

#endif  // INSIGHTNOTES_SINDEX_BASELINE_INDEX_H_
