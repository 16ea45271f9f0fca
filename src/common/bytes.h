// Byte-buffer type plus endian-stable (de)serialization helpers.
//
// All protocol messages in ga::sim are opaque byte payloads; these helpers are
// the single encoding used across modules so that commitments hash identical
// bytes on every processor.
#ifndef GA_COMMON_BYTES_H
#define GA_COMMON_BYTES_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/ensure.h"

namespace ga::common {

/// Opaque byte buffer used for message payloads and hash inputs.
using Bytes = std::vector<std::uint8_t>;

/// Append `value` to `out` in little-endian order.
void put_u32(Bytes& out, std::uint32_t value);
void put_u64(Bytes& out, std::uint64_t value);
void put_i64(Bytes& out, std::int64_t value);

/// Append a length-prefixed blob.
void put_bytes(Bytes& out, const Bytes& blob);

/// Cursor-style reader over a byte buffer; throws Decode_error on underrun.
class Decode_error : public std::runtime_error {
public:
    explicit Decode_error(const std::string& what_arg) : std::runtime_error{what_arg} {}
};

class Byte_reader {
public:
    explicit Byte_reader(const Bytes& data) : Byte_reader{data.data(), data.size()} {}
    /// Reader over `size` bytes at `data` (e.g. a blob from get_bytes_view()),
    /// valid while those bytes live unmodified.
    Byte_reader(const std::uint8_t* data, std::size_t size) : data_{data, size} {}

    std::uint8_t get_u8();
    std::uint32_t get_u32();
    std::uint64_t get_u64();
    std::int64_t get_i64();
    Bytes get_bytes();
    /// Same wire format as get_bytes(), but returns a view into the reader's
    /// buffer instead of copying the blob out; valid while that buffer lives
    /// unmodified.
    std::span<const std::uint8_t> get_bytes_view();

    [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
    [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

private:
    void need(std::size_t count) const
    {
        if (pos_ + count > data_.size()) throw Decode_error{"byte buffer underrun"};
    }

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
};

/// Lower-case hex encoding, e.g. {0xde, 0xad} -> "dead".
std::string to_hex(const Bytes& data);

/// Inverse of to_hex; throws Decode_error on odd length or non-hex digits.
Bytes from_hex(const std::string& hex);

/// Bytes of a UTF-8/ASCII string (no terminator).
Bytes bytes_of(const std::string& text);

} // namespace ga::common

#endif // GA_COMMON_BYTES_H
