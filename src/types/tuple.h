#ifndef INSIGHTNOTES_TYPES_TUPLE_H_
#define INSIGHTNOTES_TYPES_TUPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/schema.h"
#include "types/value.h"

namespace insight {

/// Unique identifier of a data tuple within one relation (the paper's OID).
/// Assigned at insert time and never reused.
using Oid = uint64_t;
constexpr Oid kInvalidOid = 0;

/// A row of scalar values. Tuples are schema-agnostic at the value level;
/// the owning operator/relation carries the Schema.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t size() const { return values_.size(); }
  const Value& at(size_t i) const { return values_[i]; }
  Value& at(size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  void Append(Value v) { values_.push_back(std::move(v)); }

  /// Tuple restricted to the given column positions, in order.
  Tuple Project(const std::vector<size_t>& indices) const;

  /// Row concatenation for join outputs.
  static Tuple Concat(const Tuple& left, const Tuple& right);

  /// Self-describing binary encoding (count + per-value encodings).
  void Serialize(std::string* dst) const;
  static Result<Tuple> Deserialize(SerdeReader* reader);
  /// Decodes only the columns `read` marks (positions past its end count
  /// as read); the others are skipped by length and left NULL, so the
  /// tuple keeps its full width and every column its position.
  static Result<Tuple> Deserialize(SerdeReader* reader,
                                   const std::vector<bool>& read);
  static Result<Tuple> DeserializeFrom(std::string_view buf);

  std::string ToString() const;

  bool operator==(const Tuple& other) const;

 private:
  std::vector<Value> values_;
};

}  // namespace insight

#endif  // INSIGHTNOTES_TYPES_TUPLE_H_
