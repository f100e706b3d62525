#ifndef INSIGHTNOTES_SUMMARY_SUMMARY_OBJECT_H_
#define INSIGHTNOTES_SUMMARY_SUMMARY_OBJECT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/serde.h"
#include "types/tuple.h"

namespace insight {

using AnnId = uint64_t;

/// The three summarization families InsightNotes supports (Section 2.1).
enum class SummaryType : uint8_t {
  kClassifier = 1,
  kSnippet = 2,
  kCluster = 3,
};

const char* SummaryTypeToString(SummaryType t);

/// Reference to one contributing raw annotation: its id plus the bitmask
/// of the owning tuple's columns it is attached to. The mask is what lets
/// the projection operator eliminate an annotation's effect when all of
/// its target columns are projected out (Example 1 of the paper).
struct ElementRef {
  AnnId ann_id = 0;
  uint64_t column_mask = 0;

  bool operator==(const ElementRef& o) const {
    return ann_id == o.ann_id && column_mask == o.column_mask;
  }
};

/// One entry of a summary object's Rep[] array. Field use per type:
///   Classifier: text = classLabel,        count = annotationCnt
///   Snippet:    text = snippetValue,      count unused, source_ann = origin
///   Cluster:    text = representative(truncated), count = groupSize,
///               source_ann = the representative annotation's id
struct Representative {
  std::string text;
  int64_t count = 0;
  AnnId source_ann = 0;
};

/// Cluster representatives keep at most this much of the annotation text;
/// the full text stays in raw storage and is reachable via zoom-in.
constexpr size_t kClusterRepMaxChars = 256;

/// One Rep[] entry as the Section 3.1 functions read it.
struct RepView {
  std::string_view text;
  int64_t count = 0;
};

/// The Section 3.1 per-object functions, written once over an object's
/// Rep[] as (text, count) pairs. `Obj` provides GetSummaryType(),
/// GetSize() and ForEachRep(fn): SummaryObject walks its decoded reps,
/// StoredSummaryObject walks the stored bytes in place.
template <typename Obj>
class SummaryFunctions {
 public:
  // ---- Classifier functions ----

  /// Class label at position i (labels keep instance-definition order).
  Result<std::string> GetLabelName(size_t i) const;
  Result<int64_t> GetLabelValue(size_t i) const;
  /// Count for `label` (case-insensitive). Labels may be hierarchical
  /// ("Disease/Viral"): looking up an inner label ("Disease") sums every
  /// leaf underneath it — the paper's multi-level summarization
  /// future-work direction.
  Result<int64_t> GetLabelValue(std::string_view label) const;

  // ---- Snippet functions ----

  Result<std::string> GetSnippet(size_t i) const;
  /// True when every keyword occurs inside a single snippet.
  bool ContainsSingle(const std::vector<std::string>& keywords) const;
  /// True when every keyword occurs somewhere in the union of snippets.
  bool ContainsUnion(const std::vector<std::string>& keywords) const;

  // ---- Cluster functions ----

  Result<std::string> GetRepresentative(size_t i) const;
  Result<int64_t> GetGroupSize(size_t i) const;

 private:
  /// Rep[i] of an object of type `want`; TypeError names `fn` otherwise.
  Result<RepView> RepAt(size_t i, SummaryType want, const char* fn,
                        const char* what) const;
  const Obj& self() const { return static_cast<const Obj&>(*this); }
};

/// A summary object: the paper's five-ary vector
/// {ObjID, InstanceID, TupleID, Rep[], Elements[][]}.
/// `Elements[i]` lists the raw annotations contributing to `Rep[i]`.
/// The instance name is carried along so getSummaryName() works on
/// propagated objects without a catalog round-trip.
struct SummaryObject : SummaryFunctions<SummaryObject> {
  uint64_t obj_id = 0;
  uint32_t instance_id = 0;
  Oid tuple_id = 0;
  SummaryType type = SummaryType::kClassifier;
  std::string instance_name;
  std::vector<Representative> reps;
  std::vector<std::vector<ElementRef>> elements;  // Parallel to reps.

  // ---- Common manipulation functions (Section 3.1) ----

  SummaryType GetSummaryType() const { return type; }
  const std::string& GetSummaryName() const { return instance_name; }
  /// Number of representatives (size of Rep[]).
  int64_t GetSize() const { return static_cast<int64_t>(reps.size()); }

  /// Total distinct annotations referenced by this object.
  int64_t TotalAnnotations() const;

  /// Calls `fn(RepView)` on each Rep[] entry in order until it returns
  /// false.
  template <typename Fn>
  void ForEachRep(Fn&& fn) const {
    for (const Representative& rep : reps) {
      if (!fn(RepView{rep.text, rep.count})) return;
    }
  }

  // ---- Invariants / serialization ----

  /// Validates rep/element parallelism and per-type count invariants.
  Status CheckInvariants() const;

  void Serialize(std::string* dst) const;
  static Result<SummaryObject> Deserialize(SerdeReader* reader);

  std::string ToString() const;

  bool operator==(const SummaryObject& other) const;
};

/// One object of a stored summary set, read in place: the Section 3.1
/// functions over the storage row's bytes, with nothing decoded or
/// allocated. A view into its SummarySet (FindStoredObject), valid while
/// that set lives unmodified.
class StoredSummaryObject : public SummaryFunctions<StoredSummaryObject> {
 public:
  SummaryType GetSummaryType() const { return type_; }
  std::string_view GetSummaryName() const { return name_; }
  int64_t GetSize() const { return size_; }

  template <typename Fn>
  void ForEachRep(Fn&& fn) const {
    SerdeReader reader(reps_);
    for (int64_t i = 0; i < size_; ++i) {
      if (!fn(ReadRep(&reader))) return;
    }
  }

 private:
  friend class SummarySet;

  /// Reads one Rep[] entry of checked bytes, stepping over its elements.
  static RepView ReadRep(SerdeReader* reader) {
    RepView rep;
    uint32_t nelems = 0;
    reader->ReadStringView(&rep.text);
    reader->ReadI64(&rep.count);
    reader->Skip(sizeof(AnnId));  // source_ann.
    reader->ReadU32(&nelems);
    reader->Skip(size_t{nelems} * (sizeof(AnnId) + sizeof(uint64_t)));
    return rep;
  }

  SummaryType type_ = SummaryType::kClassifier;
  std::string_view name_;
  int64_t size_ = 0;
  std::string_view reps_;  // The object's Rep[] entries.
};

extern template class SummaryFunctions<SummaryObject>;
extern template class SummaryFunctions<StoredSummaryObject>;

/// The set of summary objects attached to one tuple — the paper's `$`
/// variable (r.$). Provides the summary-set manipulation functions and the
/// serialized form stored in R_SummaryStorage rows.
///
/// A set holds either decoded objects or, straight from a storage row,
/// that row's bytes (FromStored). A stored set answers GetSize() and, via
/// FindStoredObject(), every per-object function in place. Operators that
/// rewrite or render a set (projection, merge, ToString) read objects(),
/// which decodes a stored set on first use; Serialize() of an unmodified
/// stored set copies its bytes.
///
/// Thread safety: the first decode fills objects_ from a const accessor.
/// That is safe because a row's set is read only by the thread that owns
/// the row's batch — parallel partitions hand their rows over at the
/// gather barrier — so no two threads ever read one set concurrently.
class SummarySet {
 public:
  SummarySet() = default;
  explicit SummarySet(std::vector<SummaryObject> objects)
      : objects_(std::move(objects)) {}

  /// A set over one storage row's bytes, checked exactly as Deserialize
  /// checks them (Corruption where Deserialize fails) but not decoded.
  static Result<SummarySet> FromStored(std::string bytes);

  /// True while the set is unmodified stored bytes.
  bool stored() const { return !stored_.empty(); }

  /// $.getSize().
  int64_t GetSize() const {
    return stored() ? stored_size_ : static_cast<int64_t>(objects_.size());
  }

  /// $.getSummaryObject(name); nullptr when absent (the paper returns
  /// Null). Case-insensitive.
  const SummaryObject* GetSummaryObject(std::string_view name) const;
  SummaryObject* GetSummaryObject(std::string_view name);

  /// $.getSummaryObject(i); nullptr when out of range.
  const SummaryObject* GetSummaryObject(size_t i) const {
    return i < objects().size() ? &objects()[i] : nullptr;
  }

  /// $.getSummaryObject(name) of a stored set, read in place; nullopt
  /// when absent. Requires stored().
  std::optional<StoredSummaryObject> FindStoredObject(
      std::string_view name) const;

  /// The decoded objects (decoding a stored set on first use).
  const std::vector<SummaryObject>& objects() const;
  /// Mutable access: decodes, and the set stops being stored bytes.
  std::vector<SummaryObject>& objects();
  bool empty() const { return GetSize() == 0; }

  void Add(SummaryObject obj) { objects().push_back(std::move(obj)); }

  void Serialize(std::string* dst) const;
  static Result<SummarySet> Deserialize(std::string_view buf);

  std::string ToString() const;

 private:
  std::string stored_;  // The storage row's bytes while unmodified.
  int64_t stored_size_ = 0;
  mutable bool decoded_ = true;  // objects_ holds the set.
  mutable std::vector<SummaryObject> objects_;
};

}  // namespace insight

#endif  // INSIGHTNOTES_SUMMARY_SUMMARY_OBJECT_H_
