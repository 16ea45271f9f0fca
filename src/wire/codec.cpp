#include "wire/codec.h"

#include <bit>
#include <cstring>
#include <string>

#include "common/ensure.h"

namespace ga::wire {

namespace {

// ---- Portable little-endian loads and stores (memcpy compiles to one move).

std::uint64_t swap_bytes(std::uint64_t value)
{
    std::uint64_t swapped = 0;
    for (int i = 0; i < 8; ++i) swapped = (swapped << 8) | ((value >> (8 * i)) & 0xFF);
    return swapped;
}

std::uint64_t load_le64(const std::uint8_t* p)
{
    std::uint64_t value;
    std::memcpy(&value, p, sizeof value);
    if constexpr (std::endian::native == std::endian::big) value = swap_bytes(value);
    return value;
}

std::uint32_t load_le32(const std::uint8_t* p)
{
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_le64(std::uint8_t* p, std::uint64_t value)
{
    if constexpr (std::endian::native == std::endian::big) value = swap_bytes(value);
    std::memcpy(p, &value, sizeof value);
}

void store_le32(std::uint8_t* p, std::uint32_t value)
{
    p[0] = static_cast<std::uint8_t>(value);
    p[1] = static_cast<std::uint8_t>(value >> 8);
    p[2] = static_cast<std::uint8_t>(value >> 16);
    p[3] = static_cast<std::uint8_t>(value >> 24);
}

// ---- The GAW2 checksum (definition and guarantee in codec.h).

constexpr std::uint64_t k_step_mul = 0x9E3779B97F4A7C15ULL; // odd: *K is a bijection
constexpr std::uint64_t k_lane_seeds[4] = {0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL,
                                           0xA4093822299F31D0ULL, 0x082EFA98EC4E6C89ULL};

/// Bijective in `h` for a fixed `w` and in `w` for a fixed `h`.
constexpr std::uint64_t step(std::uint64_t h, std::uint64_t w)
{
    h = (h ^ w) * k_step_mul;
    return h ^ (h >> 32);
}

std::uint64_t frame_checksum(const std::uint8_t* data, std::size_t size)
{
    std::uint64_t lane[4] = {k_lane_seeds[0], k_lane_seeds[1], k_lane_seeds[2],
                             k_lane_seeds[3]};
    std::size_t at = 0;
    for (; size - at >= 32; at += 32) {
        lane[0] = step(lane[0], load_le64(data + at));
        lane[1] = step(lane[1], load_le64(data + at + 8));
        lane[2] = step(lane[2], load_le64(data + at + 16));
        lane[3] = step(lane[3], load_le64(data + at + 24));
    }
    // Word j always steps lane j mod 4: the leftover whole words continue at
    // lane 0, and the zero-padded tail word takes the next lane.
    std::size_t next = 0;
    for (; size - at >= 8; at += 8) {
        lane[next] = step(lane[next], load_le64(data + at));
        ++next;
    }
    if (at < size) {
        std::uint64_t tail = 0;
        for (std::size_t i = 0; at + i < size; ++i) {
            tail |= static_cast<std::uint64_t>(data[at + i]) << (8 * i);
        }
        lane[next] = step(lane[next], tail);
    }

    std::uint64_t h = step(step(step(lane[0], lane[1]), lane[2]), lane[3]);
    // murmur3 fmix64: a bijective avalanche.
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    h *= 0xC4CEB9FE1A85EC53ULL;
    h ^= h >> 33;
    return h;
}

[[noreturn]] void throw_at(const char* what, std::size_t offset)
{
    throw common::Contract_error{std::string{"wire: "} + what + " at byte " +
                                 std::to_string(offset)};
}

} // namespace

void encode_frame(const sim::Message& msg, common::Bytes& out)
{
    const std::size_t length = msg.payload.size();
    const std::size_t body = k_frame_header_bytes + length;
    const std::size_t start = out.size();
    out.resize(start + body + k_frame_checksum_bytes);

    std::uint8_t* frame = out.data() + start;
    std::memcpy(frame, k_frame_magic.data(), k_frame_magic.size());
    store_le32(frame + 4, static_cast<std::uint32_t>(msg.from));
    store_le32(frame + 8, static_cast<std::uint32_t>(msg.to));
    store_le64(frame + 12, static_cast<std::uint64_t>(msg.sent_at));
    store_le32(frame + 20, static_cast<std::uint32_t>(length));
    if (length != 0) std::memcpy(frame + k_frame_header_bytes, msg.payload.data(), length);
    store_le64(frame + body, frame_checksum(frame, body));
}

Frame_view parse_frame(const common::Bytes& buf, std::size_t& offset)
{
    const std::size_t start = offset;
    if (start > buf.size() || buf.size() - start < k_frame_header_bytes) {
        throw_at("truncated frame header", start);
    }
    const std::uint8_t* frame = buf.data() + start;
    if (std::memcmp(frame, k_frame_magic.data(), k_frame_magic.size()) != 0) {
        throw_at("bad frame magic", start);
    }
    const std::size_t length = load_le32(frame + 20);
    if (buf.size() - start - k_frame_header_bytes < length + k_frame_checksum_bytes) {
        throw_at("truncated frame payload", start + k_frame_header_bytes);
    }
    const std::size_t body = k_frame_header_bytes + length;
    if (load_le64(frame + body) != frame_checksum(frame, body)) {
        throw_at("frame checksum mismatch", start);
    }

    Frame_view view;
    view.from = static_cast<common::Processor_id>(load_le32(frame + 4));
    view.to = static_cast<common::Processor_id>(load_le32(frame + 8));
    view.sent_at = static_cast<common::Pulse>(load_le64(frame + 12));
    view.payload = {frame + k_frame_header_bytes, length};
    offset = start + body + k_frame_checksum_bytes;
    return view;
}

sim::Message decode_frame(const common::Bytes& buf, std::size_t& offset)
{
    const Frame_view view = parse_frame(buf, offset);
    sim::Message msg;
    msg.from = view.from;
    msg.to = view.to;
    msg.sent_at = view.sent_at;
    // The one copy off the wire: mint the payload's refcounted buffer
    // directly from the frame's payload bytes.
    msg.payload = common::Shared_payload{common::Bytes{view.payload.begin(), view.payload.end()}};
    return msg;
}

void encode_batch(const std::vector<sim::Message>& batch, common::Bytes& out)
{
    std::size_t total = out.size();
    for (const sim::Message& msg : batch) total += encoded_size(msg);
    out.reserve(total);
    for (const sim::Message& msg : batch) encode_frame(msg, out);
}

std::vector<sim::Message> decode_batch(const common::Bytes& buf)
{
    std::vector<sim::Message> batch;
    std::size_t offset = 0;
    while (offset < buf.size()) batch.push_back(decode_frame(buf, offset));
    return batch;
}

} // namespace ga::wire
