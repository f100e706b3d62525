#include "summary/summary_object.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace insight {

const char* SummaryTypeToString(SummaryType t) {
  switch (t) {
    case SummaryType::kClassifier:
      return "Classifier";
    case SummaryType::kSnippet:
      return "Snippet";
    case SummaryType::kCluster:
      return "Cluster";
  }
  return "?";
}

int64_t SummaryObject::TotalAnnotations() const {
  std::set<AnnId> distinct;
  for (const auto& elems : elements) {
    for (const ElementRef& e : elems) distinct.insert(e.ann_id);
  }
  return static_cast<int64_t>(distinct.size());
}

namespace {

/// True when `text` is a leaf under the inner label `label`:
/// case-insensitively, `text` starts with "label/".
bool UnderLabel(std::string_view text, std::string_view label) {
  return text.size() > label.size() && text[label.size()] == '/' &&
         EqualsIgnoreCase(text.substr(0, label.size()), label);
}

}  // namespace

template <typename Obj>
Result<RepView> SummaryFunctions<Obj>::RepAt(size_t i, SummaryType want,
                                             const char* fn,
                                             const char* what) const {
  const SummaryType type = self().GetSummaryType();
  if (type != want) {
    return Status::TypeError(std::string(fn) + " on " +
                             SummaryTypeToString(type));
  }
  if (i >= static_cast<size_t>(self().GetSize())) {
    return Status::OutOfRange(what);
  }
  RepView out;
  size_t k = 0;
  self().ForEachRep([&](RepView rep) {
    if (k++ < i) return true;
    out = rep;
    return false;
  });
  return out;
}

template <typename Obj>
Result<std::string> SummaryFunctions<Obj>::GetLabelName(size_t i) const {
  INSIGHT_ASSIGN_OR_RETURN(RepView rep, RepAt(i, SummaryType::kClassifier,
                                              "getLabelName", "label index"));
  return std::string(rep.text);
}

template <typename Obj>
Result<int64_t> SummaryFunctions<Obj>::GetLabelValue(size_t i) const {
  INSIGHT_ASSIGN_OR_RETURN(RepView rep, RepAt(i, SummaryType::kClassifier,
                                              "getLabelValue", "label index"));
  return rep.count;
}

template <typename Obj>
Result<int64_t> SummaryFunctions<Obj>::GetLabelValue(
    std::string_view label) const {
  const SummaryType type = self().GetSummaryType();
  if (type != SummaryType::kClassifier) {
    return Status::TypeError(std::string("getLabelValue on ") +
                             SummaryTypeToString(type));
  }
  // An exact (first) match wins; otherwise an inner label sums its
  // subtree of leaves.
  std::optional<int64_t> exact;
  int64_t sum = 0;
  bool inner = false;
  self().ForEachRep([&](RepView rep) {
    if (EqualsIgnoreCase(rep.text, label)) {
      exact = rep.count;
      return false;
    }
    if (UnderLabel(rep.text, label)) {
      sum += rep.count;
      inner = true;
    }
    return true;
  });
  if (exact.has_value()) return *exact;
  if (inner) return sum;
  return Status::NotFound("no class label " + std::string(label));
}

template <typename Obj>
Result<std::string> SummaryFunctions<Obj>::GetSnippet(size_t i) const {
  INSIGHT_ASSIGN_OR_RETURN(RepView rep, RepAt(i, SummaryType::kSnippet,
                                              "getSnippet", "snippet index"));
  return std::string(rep.text);
}

template <typename Obj>
bool SummaryFunctions<Obj>::ContainsSingle(
    const std::vector<std::string>& keywords) const {
  bool found = false;
  self().ForEachRep([&](RepView rep) {
    found = std::all_of(keywords.begin(), keywords.end(),
                        [&](const std::string& kw) {
                          return ContainsWord(rep.text, kw);
                        });
    return !found;
  });
  return found;
}

template <typename Obj>
bool SummaryFunctions<Obj>::ContainsUnion(
    const std::vector<std::string>& keywords) const {
  for (const std::string& kw : keywords) {
    bool found = false;
    self().ForEachRep([&](RepView rep) {
      found = ContainsWord(rep.text, kw);
      return !found;
    });
    if (!found) return false;
  }
  return true;
}

template <typename Obj>
Result<std::string> SummaryFunctions<Obj>::GetRepresentative(size_t i) const {
  INSIGHT_ASSIGN_OR_RETURN(
      RepView rep,
      RepAt(i, SummaryType::kCluster, "getRepresentative", "group index"));
  return std::string(rep.text);
}

template <typename Obj>
Result<int64_t> SummaryFunctions<Obj>::GetGroupSize(size_t i) const {
  INSIGHT_ASSIGN_OR_RETURN(RepView rep, RepAt(i, SummaryType::kCluster,
                                              "getGroupSize", "group index"));
  return rep.count;
}

template class SummaryFunctions<SummaryObject>;
template class SummaryFunctions<StoredSummaryObject>;

Status SummaryObject::CheckInvariants() const {
  if (reps.size() != elements.size()) {
    return Status::Internal("rep/element arity mismatch in " + instance_name);
  }
  for (size_t i = 0; i < reps.size(); ++i) {
    switch (type) {
      case SummaryType::kClassifier:
      case SummaryType::kCluster:
        if (reps[i].count != static_cast<int64_t>(elements[i].size())) {
          return Status::Internal(
              "count " + std::to_string(reps[i].count) + " != elements " +
              std::to_string(elements[i].size()) + " in " + instance_name);
        }
        break;
      case SummaryType::kSnippet:
        if (elements[i].size() != 1) {
          return Status::Internal("snippet rep with " +
                                  std::to_string(elements[i].size()) +
                                  " source annotations");
        }
        break;
    }
    // Cluster groups must contain their representative.
    if (type == SummaryType::kCluster && !elements[i].empty()) {
      bool found = false;
      for (const ElementRef& e : elements[i]) {
        if (e.ann_id == reps[i].source_ann) {
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::Internal("cluster representative not in its group");
      }
    }
  }
  return Status::OK();
}

void SummaryObject::Serialize(std::string* dst) const {
  PutU8(dst, static_cast<uint8_t>(type));
  PutU64(dst, obj_id);
  PutU32(dst, instance_id);
  PutU64(dst, tuple_id);
  PutString(dst, instance_name);
  PutU32(dst, static_cast<uint32_t>(reps.size()));
  for (size_t i = 0; i < reps.size(); ++i) {
    PutString(dst, reps[i].text);
    PutI64(dst, reps[i].count);
    PutU64(dst, reps[i].source_ann);
    PutU32(dst, static_cast<uint32_t>(elements[i].size()));
    for (const ElementRef& e : elements[i]) {
      PutU64(dst, e.ann_id);
      PutU64(dst, e.column_mask);
    }
  }
}

namespace {

/// The one reader of the stored encoding: every check a stored set must
/// pass is made here, and `sink` receives the fields as they are read.
/// DecodeSink builds objects (Deserialize); CheckSink keeps nothing
/// (FromStored), so a stored set is accepted exactly when it decodes.
template <typename Sink>
Status ReadObjectEncoding(SerdeReader* reader, Sink* sink) {
  uint8_t type = 0;
  if (!reader->ReadU8(&type)) return Status::Corruption("sobj: type");
  if (type < 1 || type > 3) return Status::Corruption("sobj: bad type");
  uint64_t obj_id = 0;
  if (!reader->ReadU64(&obj_id)) return Status::Corruption("sobj: id");
  uint32_t instance_id = 0;
  if (!reader->ReadU32(&instance_id)) {
    return Status::Corruption("sobj: instance");
  }
  uint64_t tuple_id = 0;
  if (!reader->ReadU64(&tuple_id)) return Status::Corruption("sobj: tuple");
  std::string_view name;
  if (!reader->ReadStringView(&name)) return Status::Corruption("sobj: name");
  uint32_t nreps = 0;
  if (!reader->ReadU32(&nreps)) return Status::Corruption("sobj: reps");
  if (nreps > (1u << 20)) return Status::Corruption("sobj: implausible reps");
  sink->Object(static_cast<SummaryType>(type), obj_id, instance_id,
               tuple_id, name, nreps);
  for (uint32_t i = 0; i < nreps; ++i) {
    std::string_view text;
    int64_t count = 0;
    AnnId source_ann = 0;
    if (!reader->ReadStringView(&text)) {
      return Status::Corruption("rep text");
    }
    if (!reader->ReadI64(&count)) return Status::Corruption("rep count");
    if (!reader->ReadU64(&source_ann)) {
      return Status::Corruption("rep source");
    }
    uint32_t nelems = 0;
    if (!reader->ReadU32(&nelems)) return Status::Corruption("rep elems");
    if (nelems > (1u << 24)) return Status::Corruption("implausible elems");
    sink->Rep(text, count, source_ann, nelems);
    for (uint32_t j = 0; j < nelems; ++j) {
      ElementRef e;
      if (!reader->ReadU64(&e.ann_id)) return Status::Corruption("elem id");
      if (!reader->ReadU64(&e.column_mask)) {
        return Status::Corruption("elem mask");
      }
      sink->Element(e);
    }
  }
  return Status::OK();
}

template <typename Sink>
Status ReadSetEncoding(std::string_view buf, Sink* sink) {
  SerdeReader reader(buf);
  uint32_t n = 0;
  if (!reader.ReadU32(&n)) return Status::Corruption("sset: count");
  if (n > (1u << 16)) return Status::Corruption("sset: implausible count");
  sink->Objects(n);
  for (uint32_t i = 0; i < n; ++i) {
    INSIGHT_RETURN_NOT_OK(ReadObjectEncoding(&reader, sink));
  }
  return Status::OK();
}

struct DecodeSink {
  std::vector<SummaryObject> objects;

  void Objects(uint32_t n) { objects.reserve(n); }
  void Object(SummaryType type, uint64_t obj_id, uint32_t instance_id,
              uint64_t tuple_id, std::string_view name, uint32_t nreps) {
    SummaryObject& obj = objects.emplace_back();
    obj.type = type;
    obj.obj_id = obj_id;
    obj.instance_id = instance_id;
    obj.tuple_id = tuple_id;
    obj.instance_name = std::string(name);
    obj.reps.reserve(nreps);
    obj.elements.reserve(nreps);
  }
  void Rep(std::string_view text, int64_t count, AnnId source_ann,
           uint32_t nelems) {
    SummaryObject& obj = objects.back();
    obj.reps.push_back(Representative{std::string(text), count, source_ann});
    obj.elements.emplace_back().reserve(nelems);
  }
  void Element(ElementRef e) { objects.back().elements.back().push_back(e); }
};

struct CheckSink {
  uint32_t objects = 0;

  void Objects(uint32_t n) { objects = n; }
  void Object(SummaryType, uint64_t, uint32_t, uint64_t, std::string_view,
              uint32_t) {}
  void Rep(std::string_view, int64_t, AnnId, uint32_t) {}
  void Element(ElementRef) {}
};

}  // namespace

Result<SummaryObject> SummaryObject::Deserialize(SerdeReader* reader) {
  DecodeSink sink;
  INSIGHT_RETURN_NOT_OK(ReadObjectEncoding(reader, &sink));
  return std::move(sink.objects.back());
}

std::string SummaryObject::ToString() const {
  std::string out = instance_name;
  out += " [";
  for (size_t i = 0; i < reps.size(); ++i) {
    if (i > 0) out += ", ";
    switch (type) {
      case SummaryType::kClassifier:
        out += "(" + reps[i].text + ", " + std::to_string(reps[i].count) + ")";
        break;
      case SummaryType::kSnippet:
        out += "\"" + reps[i].text.substr(0, 40) +
               (reps[i].text.size() > 40 ? "..." : "") + "\"";
        break;
      case SummaryType::kCluster:
        out += "(\"" + reps[i].text.substr(0, 30) +
               (reps[i].text.size() > 30 ? "..." : "") + "\", " +
               std::to_string(reps[i].count) + ")";
        break;
    }
  }
  out += "]";
  return out;
}

bool SummaryObject::operator==(const SummaryObject& other) const {
  if (type != other.type || instance_id != other.instance_id ||
      reps.size() != other.reps.size()) {
    return false;
  }
  for (size_t i = 0; i < reps.size(); ++i) {
    if (reps[i].text != other.reps[i].text ||
        reps[i].count != other.reps[i].count ||
        !(elements[i] == other.elements[i])) {
      return false;
    }
  }
  return true;
}

Result<SummarySet> SummarySet::FromStored(std::string bytes) {
  CheckSink sink;
  INSIGHT_RETURN_NOT_OK(ReadSetEncoding(bytes, &sink));
  SummarySet set;
  set.stored_ = std::move(bytes);
  set.stored_size_ = sink.objects;
  set.decoded_ = false;
  return set;
}

std::optional<StoredSummaryObject> SummarySet::FindStoredObject(
    std::string_view name) const {
  SerdeReader reader(stored_);
  reader.Skip(sizeof(uint32_t));  // Object count.
  for (int64_t i = 0; i < stored_size_; ++i) {
    StoredSummaryObject obj;
    uint8_t type = 0;
    uint32_t nreps = 0;
    reader.ReadU8(&type);
    reader.Skip(sizeof(uint64_t) + sizeof(uint32_t) + sizeof(Oid));
    reader.ReadStringView(&obj.name_);
    reader.ReadU32(&nreps);
    const size_t reps_begin = reader.position();
    for (uint32_t r = 0; r < nreps; ++r) StoredSummaryObject::ReadRep(&reader);
    if (EqualsIgnoreCase(obj.name_, name)) {
      obj.type_ = static_cast<SummaryType>(type);
      obj.size_ = nreps;
      obj.reps_ = std::string_view(stored_).substr(
          reps_begin, reader.position() - reps_begin);
      return obj;
    }
  }
  return std::nullopt;
}

const std::vector<SummaryObject>& SummarySet::objects() const {
  if (!decoded_) {
    DecodeSink sink;
    const Status st = ReadSetEncoding(stored_, &sink);
    INSIGHT_CHECK(st.ok()) << "checked summary set fails to decode: "
                           << st.ToString();
    objects_ = std::move(sink.objects);
    decoded_ = true;
  }
  return objects_;
}

std::vector<SummaryObject>& SummarySet::objects() {
  std::as_const(*this).objects();
  std::string().swap(stored_);
  return objects_;
}

const SummaryObject* SummarySet::GetSummaryObject(
    std::string_view name) const {
  for (const SummaryObject& obj : objects()) {
    if (EqualsIgnoreCase(obj.instance_name, name)) return &obj;
  }
  return nullptr;
}

SummaryObject* SummarySet::GetSummaryObject(std::string_view name) {
  for (SummaryObject& obj : objects()) {
    if (EqualsIgnoreCase(obj.instance_name, name)) return &obj;
  }
  return nullptr;
}

void SummarySet::Serialize(std::string* dst) const {
  if (stored()) {
    dst->append(stored_);
    return;
  }
  PutU32(dst, static_cast<uint32_t>(objects_.size()));
  for (const SummaryObject& obj : objects_) obj.Serialize(dst);
}

Result<SummarySet> SummarySet::Deserialize(std::string_view buf) {
  DecodeSink sink;
  INSIGHT_RETURN_NOT_OK(ReadSetEncoding(buf, &sink));
  return SummarySet(std::move(sink.objects));
}

std::string SummarySet::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < objects().size(); ++i) {
    if (i > 0) out += "; ";
    out += objects()[i].ToString();
  }
  out += "}";
  return out;
}

}  // namespace insight
