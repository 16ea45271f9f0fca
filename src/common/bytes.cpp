#include "common/bytes.h"

#include <array>

namespace ga::common {

void put_u32(Bytes& out, std::uint32_t value)
{
    for (int shift = 0; shift < 32; shift += 8)
        out.push_back(static_cast<std::uint8_t>(value >> shift));
}

void put_u64(Bytes& out, std::uint64_t value)
{
    for (int shift = 0; shift < 64; shift += 8)
        out.push_back(static_cast<std::uint8_t>(value >> shift));
}

void put_i64(Bytes& out, std::int64_t value)
{
    put_u64(out, static_cast<std::uint64_t>(value));
}

void put_bytes(Bytes& out, const Bytes& blob)
{
    put_u32(out, static_cast<std::uint32_t>(blob.size()));
    out.insert(out.end(), blob.begin(), blob.end());
}

std::uint8_t Byte_reader::get_u8()
{
    need(1);
    return data_[pos_++];
}

std::uint32_t Byte_reader::get_u32()
{
    need(4);
    std::uint32_t value = 0;
    for (int shift = 0; shift < 32; shift += 8)
        value |= static_cast<std::uint32_t>(data_[pos_++]) << shift;
    return value;
}

std::uint64_t Byte_reader::get_u64()
{
    need(8);
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 8)
        value |= static_cast<std::uint64_t>(data_[pos_++]) << shift;
    return value;
}

std::int64_t Byte_reader::get_i64()
{
    return static_cast<std::int64_t>(get_u64());
}

Bytes Byte_reader::get_bytes()
{
    const std::uint32_t len = get_u32();
    need(len);
    Bytes blob(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
               data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return blob;
}

std::span<const std::uint8_t> Byte_reader::get_bytes_view()
{
    const std::uint32_t len = get_u32();
    need(len);
    const std::span<const std::uint8_t> view = data_.subspan(pos_, len);
    pos_ += len;
    return view;
}

std::string to_hex(const Bytes& data)
{
    static constexpr std::array<char, 16> digits = {'0', '1', '2', '3', '4', '5', '6', '7',
                                                    '8', '9', 'a', 'b', 'c', 'd', 'e', 'f'};
    std::string hex;
    hex.reserve(data.size() * 2);
    for (const std::uint8_t byte : data) {
        hex.push_back(digits[byte >> 4]);
        hex.push_back(digits[byte & 0x0f]);
    }
    return hex;
}

namespace {

int hex_digit(char c)
{
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    throw Decode_error{"invalid hex digit"};
}

} // namespace

Bytes from_hex(const std::string& hex)
{
    if (hex.size() % 2 != 0) throw Decode_error{"odd-length hex string"};
    Bytes data;
    data.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2)
        data.push_back(static_cast<std::uint8_t>(hex_digit(hex[i]) * 16 + hex_digit(hex[i + 1])));
    return data;
}

Bytes bytes_of(const std::string& text)
{
    return Bytes{text.begin(), text.end()};
}

} // namespace ga::common
