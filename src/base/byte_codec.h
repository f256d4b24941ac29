#ifndef CAR_BASE_BYTE_CODEC_H_
#define CAR_BASE_BYTE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "base/status.h"
#include "base/strings.h"

namespace car {

/// Little-endian flat-field writer: the primitives the serve wire
/// protocol and the warm-state snapshot format are both built from. Each
/// format adds its own composite fields in a subclass next to it.
class ByteWriter {
 public:
  void PutU8(uint8_t value) { out_.push_back(static_cast<char>(value)); }
  void PutBool(bool value) { PutU8(value ? 1 : 0); }
  void PutU32(uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
    }
  }
  void PutU64(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
    }
  }
  /// u32 length prefix, then the bytes.
  void PutString(std::string_view text) {
    PutU32(static_cast<uint32_t>(text.size()));
    out_.append(text);
  }

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Total little-endian reader over one payload, the counterpart of
/// ByteWriter. Every Read* checks the remaining extent first and reports
/// a shortfall as kParseError; a string's length prefix is bounded by the
/// remaining bytes before any allocation, so a hostile length cannot
/// balloon memory past the payload size. Subclasses bound their own
/// counts the same way.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }

  Status ReadU8(uint8_t* value) {
    if (remaining() < 1) return Truncated("u8");
    *value = static_cast<uint8_t>(data_[pos_++]);
    return Status::Ok();
  }
  Status ReadBool(bool* value) {
    uint8_t byte = 0;
    CAR_RETURN_IF_ERROR(ReadU8(&byte));
    if (byte > 1) {
      return ParseError(StrCat("bad bool byte ", static_cast<int>(byte)));
    }
    *value = byte == 1;
    return Status::Ok();
  }
  Status ReadU32(uint32_t* value) {
    if (remaining() < 4) return Truncated("u32");
    uint32_t result = 0;
    for (int i = 0; i < 4; ++i) {
      result |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
                << (8 * i);
    }
    pos_ += 4;
    *value = result;
    return Status::Ok();
  }
  Status ReadU64(uint64_t* value) {
    if (remaining() < 8) return Truncated("u64");
    uint64_t result = 0;
    for (int i = 0; i < 8; ++i) {
      result |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
                << (8 * i);
    }
    pos_ += 8;
    *value = result;
    return Status::Ok();
  }
  Status ReadString(std::string* value) {
    uint32_t length = 0;
    CAR_RETURN_IF_ERROR(ReadU32(&length));
    if (length > remaining()) {
      return ParseError(StrCat("string length ", length, " exceeds ",
                               remaining(), " remaining bytes"));
    }
    value->assign(data_.substr(pos_, length));
    pos_ += length;
    return Status::Ok();
  }
  /// Consumes the next `count` bytes as a view into the payload.
  Status ReadBytes(size_t count, std::string_view* bytes) {
    if (count > remaining()) return Truncated("bytes");
    *bytes = data_.substr(pos_, count);
    pos_ += count;
    return Status::Ok();
  }

  /// Every decoder ends with this: trailing bytes are a framing bug on
  /// the writer's side, not silently ignorable padding.
  Status ExpectConsumed() const {
    if (remaining() != 0) {
      return ParseError(StrCat(remaining(), " trailing byte(s)"));
    }
    return Status::Ok();
  }

 private:
  static Status Truncated(const char* what) {
    return ParseError(StrCat("truncated payload reading ", what));
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace car

#endif  // CAR_BASE_BYTE_CODEC_H_
