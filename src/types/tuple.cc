#include "types/tuple.h"

namespace insight {

Tuple Tuple::Project(const std::vector<size_t>& indices) const {
  std::vector<Value> vals;
  vals.reserve(indices.size());
  for (size_t i : indices) vals.push_back(values_[i]);
  return Tuple(std::move(vals));
}

Tuple Tuple::Concat(const Tuple& left, const Tuple& right) {
  std::vector<Value> vals = left.values_;
  vals.insert(vals.end(), right.values_.begin(), right.values_.end());
  return Tuple(std::move(vals));
}

void Tuple::Serialize(std::string* dst) const {
  PutU32(dst, static_cast<uint32_t>(values_.size()));
  for (const Value& v : values_) v.Serialize(dst);
}

Result<Tuple> Tuple::Deserialize(SerdeReader* reader) {
  return Deserialize(reader, {});
}

Result<Tuple> Tuple::Deserialize(SerdeReader* reader,
                                 const std::vector<bool>& read) {
  uint32_t n;
  if (!reader->ReadU32(&n)) return Status::Corruption("tuple: missing arity");
  // Arity sanity bound: wildly large counts indicate a corrupt buffer, and
  // reserving them would throw before the per-value reads could fail.
  constexpr uint32_t kMaxArity = 1 << 16;
  if (n > kMaxArity) {
    return Status::Corruption("tuple: implausible arity " + std::to_string(n));
  }
  std::vector<Value> vals;
  vals.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (i < read.size() && !read[i]) {
      INSIGHT_RETURN_NOT_OK(Value::Skip(reader));
      vals.emplace_back();
      continue;
    }
    INSIGHT_ASSIGN_OR_RETURN(Value v, Value::Deserialize(reader));
    vals.push_back(std::move(v));
  }
  return Tuple(std::move(vals));
}

Result<Tuple> Tuple::DeserializeFrom(std::string_view buf) {
  SerdeReader reader(buf);
  return Deserialize(&reader);
}

std::string Tuple::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += "]";
  return out;
}

bool Tuple::operator==(const Tuple& other) const {
  if (values_.size() != other.values_.size()) return false;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i].Compare(other.values_[i]) != 0) return false;
  }
  return true;
}

}  // namespace insight
