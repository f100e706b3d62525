#ifndef INSIGHTNOTES_ANNOTATION_ANNOTATION_STORE_H_
#define INSIGHTNOTES_ANNOTATION_ANNOTATION_STORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "index/catalog.h"
#include "txn/txn.h"
#include "types/tuple.h"

namespace insight {

/// Identifier of a raw annotation. Globally unique across all relations
/// (like a PostgreSQL-wide OID): summary-merge deduplication keys on it,
/// so two different annotations must never share an id even when they
/// live in different relations' annotation tables.
using AnnId = uint64_t;

/// Which parts of which tuple an annotation is attached to. The paper's
/// combinatorial attachment model (cells, rows, columns, arbitrary sets)
/// reduces to a set of (tuple, column-bitmask) pairs:
///   one cell            -> one target, single bit
///   whole row           -> one target, all column bits
///   whole column        -> one target per tuple, same single bit
///   arbitrary cell sets -> any combination of targets/masks
struct AnnotationTarget {
  Oid oid = kInvalidOid;
  uint64_t column_mask = 0;
};

/// Bitmask helpers. Relations are limited to 64 columns (the paper's
/// largest table has 12).
inline uint64_t CellMask(size_t column) { return 1ULL << column; }
uint64_t RowMask(size_t num_columns);

/// The next AnnId the process-wide allocator would hand out (checkpoint
/// snapshots record it so ids never repeat across restarts).
AnnId PeekNextAnnId();

/// Raises the process-wide allocator to at least `next` (recovery floor).
void EnsureAnnIdAtLeast(AnnId next);

struct Annotation {
  AnnId id = 0;
  std::string text;
  std::vector<AnnotationTarget> targets;
};

/// Raw-annotation storage for one user relation: an `<rel>_Annotations`
/// table of `(text)` rows keyed by AnnId (the row's OID is the annotation
/// id) plus an `<rel>_AnnLinks` table (ann_id, tuple oid, column mask)
/// with B-Tree indexes on both link columns, supporting zoom-in (tuple ->
/// annotations) and deletion (annotation -> links).
class AnnotationStore {
 public:
  /// Creates the side tables in `catalog`. `relation` is the annotated
  /// user table's name; `num_columns` its column count.
  static Result<std::unique_ptr<AnnotationStore>> Create(
      Catalog* catalog, const std::string& relation, size_t num_columns);

  /// Stores an annotation attached to `targets` (at least one). Returns
  /// its id.
  Result<AnnId> Add(const std::string& text,
                    const std::vector<AnnotationTarget>& targets);

  /// Stores an annotation under a caller-chosen id and bumps the global
  /// allocator past it (WAL replay reproduces original ids this way).
  Status AddWithId(AnnId id, const std::string& text,
                   const std::vector<AnnotationTarget>& targets);

  /// Enumerates every annotation of the latest committed state in the
  /// annotations table's heap order, each with its distinct target tuples
  /// in link order and the mask of each tuple's first link (checkpoint
  /// snapshots serialize through this). One sequential scan of the links
  /// and one of the texts; the links are held in memory meanwhile.
  Status ForEachAnnotation(
      const std::function<Status(const Annotation&)>& fn) const;

  Result<std::string> GetText(AnnId id,
                              const Snapshot& snap = Snapshot::Latest()) const;

  /// All annotations attached (fully or partially) to a tuple — the
  /// zoom-in path. Sees the versions visible to `snap`. Reads the links
  /// and then the texts with one batched probe each.
  Result<std::vector<Annotation>> ForTuple(
      Oid oid, const Snapshot& snap = Snapshot::Latest()) const;

  /// Distinct tuples annotation `id` is attached to.
  Result<std::vector<Oid>> TuplesFor(
      AnnId id, const Snapshot& snap = Snapshot::Latest()) const;

  /// Removes the annotation and all its links.
  Status Delete(AnnId id);

  uint64_t num_annotations() const { return annotations_->num_rows(); }

  /// Bytes of raw-annotation storage: the text and link heaps plus their
  /// OID indexes (the link tables' column indexes are not counted).
  uint64_t storage_bytes() const;

  size_t num_columns() const { return num_columns_; }

 private:
  AnnotationStore(size_t num_columns) : num_columns_(num_columns) {}

  size_t num_columns_;
  Table* annotations_ = nullptr;  // (text STRING), row OID = AnnId
  Table* links_ = nullptr;        // (ann_id INT, tuple_oid INT, mask INT)
};

}  // namespace insight

#endif  // INSIGHTNOTES_ANNOTATION_ANNOTATION_STORE_H_
