#ifndef INSIGHTNOTES_COMMON_SERDE_H_
#define INSIGHTNOTES_COMMON_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace insight {

/// Little-endian primitive encoders used by tuple and summary-object
/// serialization. Append-style writers and cursor-style readers.

inline void PutU8(std::string* dst, uint8_t v) {
  dst->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* dst, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  dst->append(buf, 4);
}

inline void PutU64(std::string* dst, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

inline void PutI64(std::string* dst, int64_t v) {
  PutU64(dst, static_cast<uint64_t>(v));
}

inline void PutDouble(std::string* dst, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

inline void PutString(std::string* dst, std::string_view s) {
  PutU32(dst, static_cast<uint32_t>(s.size()));
  dst->append(s.data(), s.size());
}

/// Sequential reader over a serialized buffer. All Read* methods return
/// false (and leave the output untouched) on underflow, so callers can
/// surface Status::Corruption instead of crashing on malformed pages.
class SerdeReader {
 public:
  explicit SerdeReader(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* out) {
    if (pos_ + 1 > data_.size()) return false;
    *out = static_cast<uint8_t>(data_[pos_]);
    pos_ += 1;
    return true;
  }

  bool ReadU32(uint32_t* out) {
    if (pos_ + 4 > data_.size()) return false;
    std::memcpy(out, data_.data() + pos_, 4);
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* out) {
    if (pos_ + 8 > data_.size()) return false;
    std::memcpy(out, data_.data() + pos_, 8);
    pos_ += 8;
    return true;
  }

  bool ReadI64(int64_t* out) {
    uint64_t u;
    if (!ReadU64(&u)) return false;
    *out = static_cast<int64_t>(u);
    return true;
  }

  bool ReadDouble(double* out) {
    if (pos_ + 8 > data_.size()) return false;
    std::memcpy(out, data_.data() + pos_, 8);
    pos_ += 8;
    return true;
  }

  bool ReadString(std::string* out) {
    uint32_t len;
    if (!ReadU32(&len)) return false;
    if (pos_ + len > data_.size()) return false;
    out->assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  /// ReadString without the copy: `out` views the buffer.
  bool ReadStringView(std::string_view* out) {
    uint32_t len;
    if (!ReadU32(&len)) return false;
    if (pos_ + len > data_.size()) return false;
    *out = data_.substr(pos_, len);
    pos_ += len;
    return true;
  }

  /// Steps over `n` bytes.
  bool Skip(size_t n) {
    if (n > data_.size() - pos_) return false;
    pos_ += n;
    return true;
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace insight

#endif  // INSIGHTNOTES_COMMON_SERDE_H_
