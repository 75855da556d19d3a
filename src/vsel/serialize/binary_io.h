// Endianness-stable binary encoding primitives for the persistence layer.
//
// Every multi-byte value is written byte-by-byte in little-endian order, so
// files produced on any host decode identically on any other — the
// property processes sharing a cache directory rely on.
// Doubles travel as their IEEE-754 bit patterns (all hosts we target are
// IEEE-754; the bit pattern round-trips NaNs and signed zeros exactly).
//
// The reader is hardened against hostile or truncated input: every read
// checks the remaining length first, an overrun latches the `failed` flag
// (subsequent reads return zero values), and length-prefixed strings verify
// the length against the remaining bytes *before* allocating, so a corrupted
// length field surfaces as a decode failure rather than a bad_alloc.
#ifndef RDFVIEWS_VSEL_SERIALIZE_BINARY_IO_H_
#define RDFVIEWS_VSEL_SERIALIZE_BINARY_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace rdfviews::vsel::serialize {

/// Append-only little-endian encoder over a growable byte buffer.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  /// IEEE-754 bit pattern, little-endian.
  void F64(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }

  /// Length-prefixed byte string.
  void Str(std::string_view s) {
    U64(s.size());
    buf_.append(s.data(), s.size());
  }

  const std::string& bytes() const { return buf_; }
  std::string TakeBytes() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian decoder over a borrowed byte span.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : data_(bytes) {}

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }

  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++]))
           << (8 * i);
    }
    return v;
  }

  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++]))
           << (8 * i);
    }
    return v;
  }

  double F64() {
    uint64_t bits = U64();
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string Str() {
    uint64_t len = U64();
    // Validate against the remaining bytes before allocating: a corrupted
    // length must decode-fail, not exhaust memory.
    if (failed_ || len > remaining()) {
      failed_ = true;
      return std::string();
    }
    std::string s(data_.substr(pos_, len));
    pos_ += len;
    return s;
  }

  /// A length prefix for a sequence whose elements occupy at least
  /// `min_element_bytes` each: rejects counts the remaining bytes cannot
  /// possibly hold, so corrupted counts fail fast instead of driving huge
  /// reserve() calls or million-iteration loops of failing reads.
  uint64_t Count(size_t min_element_bytes) {
    uint64_t n = U64();
    if (failed_ ||
        (min_element_bytes > 0 && n > remaining() / min_element_bytes)) {
      failed_ = true;
      return 0;
    }
    return n;
  }

  bool failed() const { return failed_; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

  /// True once the input was consumed exactly and without errors.
  bool AtEnd() const { return !failed_ && pos_ == data_.size(); }

 private:
  bool Need(size_t n) {
    if (failed_ || data_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace rdfviews::vsel::serialize

#endif  // RDFVIEWS_VSEL_SERIALIZE_BINARY_IO_H_
