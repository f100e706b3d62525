#include "types/value.h"

#include <cmath>
#include <functional>
#include <limits>

namespace insight {

const char* ValueTypeToString(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return "BOOL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "?";
}

namespace {
bool IsNumeric(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kDouble;
}
}  // namespace

int Value::Compare(const Value& other) const {
  const ValueType a = type();
  const ValueType b = other.type();
  if (a == ValueType::kNull || b == ValueType::kNull) {
    if (a == b) return 0;
    return a == ValueType::kNull ? -1 : 1;
  }
  if (IsNumeric(a) && IsNumeric(b)) {
    if (a == ValueType::kInt64 && b == ValueType::kInt64) {
      const int64_t x = AsInt();
      const int64_t y = other.AsInt();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    const double x = AsDouble();
    const double y = other.AsDouble();
    // IEEE comparisons are all-false on NaN, which would report NaN as
    // "equal" to every number and break the total order sorts and B-Tree
    // keys rely on. Order NaN above every real number, equal to itself
    // (mirrors the key codec's canonical NaN encoding).
    const bool x_nan = std::isnan(x);
    const bool y_nan = std::isnan(y);
    if (x_nan || y_nan) {
      if (x_nan && y_nan) return 0;
      return x_nan ? 1 : -1;
    }
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a != b) {
    return static_cast<int>(a) < static_cast<int>(b) ? -1 : 1;
  }
  switch (a) {
    case ValueType::kBool: {
      const int x = AsBool() ? 1 : 0;
      const int y = other.AsBool() ? 1 : 0;
      return x - y;
    }
    case ValueType::kString:
      return AsString().compare(other.AsString()) < 0
                 ? -1
                 : (AsString() == other.AsString() ? 0 : 1);
    default:
      return 0;  // Unreachable; numeric handled above.
  }
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return AsBool() ? "true" : "false";
    case ValueType::kInt64:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      std::string s = std::to_string(std::get<double>(rep_));
      return s;
    }
    case ValueType::kString:
      return AsString();
  }
  return "?";
}

void Value::Serialize(std::string* dst) const {
  PutU8(dst, static_cast<uint8_t>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      PutU8(dst, AsBool() ? 1 : 0);
      break;
    case ValueType::kInt64:
      PutI64(dst, AsInt());
      break;
    case ValueType::kDouble:
      PutDouble(dst, std::get<double>(rep_));
      break;
    case ValueType::kString:
      PutString(dst, AsString());
      break;
  }
}

Result<Value> Value::Deserialize(SerdeReader* reader) {
  uint8_t tag;
  if (!reader->ReadU8(&tag)) {
    return Status::Corruption("value: missing type tag");
  }
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      uint8_t b;
      if (!reader->ReadU8(&b)) return Status::Corruption("value: bool");
      return Value::Bool(b != 0);
    }
    case ValueType::kInt64: {
      int64_t v;
      if (!reader->ReadI64(&v)) return Status::Corruption("value: int64");
      return Value::Int(v);
    }
    case ValueType::kDouble: {
      double v;
      if (!reader->ReadDouble(&v)) return Status::Corruption("value: double");
      return Value::Double(v);
    }
    case ValueType::kString: {
      std::string s;
      if (!reader->ReadString(&s)) return Status::Corruption("value: string");
      return Value::String(std::move(s));
    }
  }
  return Status::Corruption("value: unknown type tag " +
                            std::to_string(static_cast<int>(tag)));
}

Status Value::Skip(SerdeReader* reader) {
  uint8_t tag;
  if (!reader->ReadU8(&tag)) {
    return Status::Corruption("value: missing type tag");
  }
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Status::OK();
    case ValueType::kBool:
      if (!reader->Skip(1)) return Status::Corruption("value: bool");
      return Status::OK();
    case ValueType::kInt64:
      if (!reader->Skip(8)) return Status::Corruption("value: int64");
      return Status::OK();
    case ValueType::kDouble:
      if (!reader->Skip(8)) return Status::Corruption("value: double");
      return Status::OK();
    case ValueType::kString: {
      uint32_t len = 0;
      if (!reader->ReadU32(&len) || !reader->Skip(len)) {
        return Status::Corruption("value: string");
      }
      return Status::OK();
    }
  }
  return Status::Corruption("value: unknown type tag " +
                            std::to_string(static_cast<int>(tag)));
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9E3779B9u;
    case ValueType::kBool:
      return AsBool() ? 0x85EBCA6Bu : 0xC2B2AE35u;
    case ValueType::kInt64:
    case ValueType::kDouble: {
      // Hash through the double image so cross-type-equal values collide.
      // NaNs compare equal to each other (see Compare), so they must also
      // hash alike — canonicalize the payload first.
      double d = AsDouble();
      if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
      return std::hash<double>{}(d);
    }
    case ValueType::kString:
      return std::hash<std::string>{}(AsString());
  }
  return 0;
}

}  // namespace insight
