#include "crypto/commitment.h"

namespace ga::crypto {

namespace {

constexpr std::size_t nonce_size = 32;

/// Absorb `blob` as put_bytes would have written it: u32 LE length, bytes.
void absorb_length_prefixed(Sha256& ctx, const common::Bytes& blob)
{
    const auto len = static_cast<std::uint32_t>(blob.size());
    const std::array<std::uint8_t, 4> prefix{
        static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
        static_cast<std::uint8_t>(len >> 16), static_cast<std::uint8_t>(len >> 24)};
    ctx.update(prefix);
    ctx.update(blob);
}

} // namespace

Committed commit(const common::Bytes& payload, common::Rng& rng)
{
    Opening opening;
    opening.nonce.reserve(nonce_size);
    for (std::size_t i = 0; i < nonce_size; i += 8) {
        const std::uint64_t word = rng.next_u64();
        for (int b = 0; b < 8; ++b)
            opening.nonce.push_back(static_cast<std::uint8_t>(word >> (8 * b)));
    }
    opening.payload = payload;
    return Committed{recommit(opening), std::move(opening)};
}

Commitment recommit(const Opening& opening)
{
    // Hashes exactly the bytes put_bytes(nonce) ‖ put_bytes(payload) would
    // hold, without assembling them.
    Sha256 ctx;
    absorb_length_prefixed(ctx, opening.nonce);
    absorb_length_prefixed(ctx, opening.payload);
    return Commitment{ctx.finish()};
}

bool verify(const Commitment& commitment, const Opening& opening)
{
    return recommit(opening) == commitment;
}

common::Bytes encode(const Commitment& commitment)
{
    return common::Bytes{commitment.digest.begin(), commitment.digest.end()};
}

Commitment decode_commitment(common::Byte_reader& reader)
{
    Commitment commitment;
    for (auto& byte : commitment.digest) byte = reader.get_u8();
    return commitment;
}

common::Bytes encode(const Opening& opening)
{
    common::Bytes out;
    common::put_bytes(out, opening.nonce);
    common::put_bytes(out, opening.payload);
    return out;
}

Opening decode_opening(common::Byte_reader& reader)
{
    Opening opening;
    opening.nonce = reader.get_bytes();
    opening.payload = reader.get_bytes();
    return opening;
}

} // namespace ga::crypto
