#ifndef INSIGHTNOTES_TYPES_VALUE_H_
#define INSIGHTNOTES_TYPES_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/result.h"
#include "common/serde.h"
#include "common/status.h"

namespace insight {

/// Scalar SQL types supported by the engine.
enum class ValueType : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,
};

const char* ValueTypeToString(ValueType t);

/// A dynamically-typed scalar cell value. Values order NULL first, then by
/// type-specific comparison; int64 and double compare numerically with each
/// other so mixed arithmetic predicates behave as in SQL.
class Value {
 public:
  /// NULL value.
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Rep(v)); }
  static Value Int(int64_t v) { return Value(Rep(v)); }
  static Value Double(double v) { return Value(Rep(v)); }
  static Value String(std::string v) { return Value(Rep(std::move(v))); }

  ValueType type() const {
    switch (rep_.index()) {
      case 0:
        return ValueType::kNull;
      case 1:
        return ValueType::kBool;
      case 2:
        return ValueType::kInt64;
      case 3:
        return ValueType::kDouble;
      default:
        return ValueType::kString;
    }
  }

  bool is_null() const { return type() == ValueType::kNull; }

  bool AsBool() const { return std::get<bool>(rep_); }
  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const {
    if (type() == ValueType::kInt64) {
      return static_cast<double>(std::get<int64_t>(rep_));
    }
    return std::get<double>(rep_);
  }
  const std::string& AsString() const& {
    return std::get<std::string>(rep_);
  }
  /// Releases the string instead of copying it (a fetched blob column).
  std::string AsString() && { return std::move(std::get<std::string>(rep_)); }

  /// Three-way comparison: <0, 0, >0. NULLs compare equal to each other and
  /// less than everything else. Numeric types compare cross-type.
  /// Comparing string with numeric is a defined total order (by type tag)
  /// so sorting mixed columns is stable, though queries should not rely
  /// on it.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Human-readable rendering (NULL, true/false, numbers, raw string).
  std::string ToString() const;

  /// Appends a self-describing binary encoding (type tag + payload).
  void Serialize(std::string* dst) const;

  /// Reads one value produced by Serialize.
  static Result<Value> Deserialize(SerdeReader* reader);
  /// Steps over one value produced by Serialize without materializing
  /// it, with the checks Deserialize makes.
  static Status Skip(SerdeReader* reader);

  /// Stable hash for aggregation/join keys; equal values hash equally
  /// (int64/double that compare equal hash via their double image).
  size_t Hash() const;

 private:
  using Rep =
      std::variant<std::monostate, bool, int64_t, double, std::string>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

}  // namespace insight

#endif  // INSIGHTNOTES_TYPES_VALUE_H_
