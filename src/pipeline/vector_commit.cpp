#include "pipeline/vector_commit.h"

#include <algorithm>
#include <array>

namespace ga::pipeline {

namespace {

/// Honest openings carry a 32-byte nonce and a 4-byte action encoding;
/// anything materially larger is Byzantine spam.
constexpr std::size_t k_max_opening_bytes = 64;

/// The leaf bytes of vector position `play`: u32 LE index, then the digest.
using Leaf_bytes = std::array<std::uint8_t, 4 + sizeof(crypto::Digest)>;

Leaf_bytes leaf_bytes(int play, const crypto::Commitment& commitment)
{
    const auto index = static_cast<std::uint32_t>(play);
    Leaf_bytes leaf{static_cast<std::uint8_t>(index), static_cast<std::uint8_t>(index >> 8),
                    static_cast<std::uint8_t>(index >> 16),
                    static_cast<std::uint8_t>(index >> 24)};
    std::copy(commitment.digest.begin(), commitment.digest.end(), leaf.begin() + 4);
    return leaf;
}

} // namespace

common::Bytes encode(const Batch_root& value)
{
    common::Bytes out;
    common::put_u32(out, value.k);
    out.insert(out.end(), value.root.begin(), value.root.end());
    return out;
}

std::optional<Batch_root> decode_batch_root(const common::Bytes& bytes, int expected_k)
{
    try {
        common::Byte_reader reader{bytes};
        Batch_root value;
        value.k = reader.get_u32();
        for (auto& byte : value.root) byte = reader.get_u8();
        if (!reader.exhausted()) return std::nullopt;
        if (value.k != static_cast<std::uint32_t>(expected_k)) return std::nullopt;
        return value;
    } catch (const common::Decode_error&) {
        return std::nullopt;
    }
}

common::Bytes leaf_payload(int play, const crypto::Commitment& commitment)
{
    const Leaf_bytes leaf = leaf_bytes(play, commitment);
    return common::Bytes{leaf.begin(), leaf.end()};
}

common::Bytes encode(const Batch_reveal& value)
{
    common::Bytes out;
    common::put_u32(out, static_cast<std::uint32_t>(value.openings.size()));
    for (const crypto::Opening& opening : value.openings) {
        common::put_bytes(out, crypto::encode(opening));
    }
    return out;
}

std::optional<Batch_reveal> decode_batch_reveal(const common::Bytes& bytes, int expected_k)
{
    try {
        common::Byte_reader reader{bytes};
        const std::uint32_t count = reader.get_u32();
        if (count != static_cast<std::uint32_t>(expected_k)) return std::nullopt;
        Batch_reveal value;
        value.openings.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
            const std::span<const std::uint8_t> opening_bytes = reader.get_bytes_view();
            if (opening_bytes.size() > k_max_opening_bytes + 8) return std::nullopt;
            common::Byte_reader opening_reader{opening_bytes.data(), opening_bytes.size()};
            crypto::Opening opening = crypto::decode_opening(opening_reader);
            if (!opening_reader.exhausted()) return std::nullopt;
            value.openings.push_back(std::move(opening));
        }
        if (!reader.exhausted()) return std::nullopt;
        return value;
    } catch (const common::Decode_error&) {
        return std::nullopt;
    }
}

bool opens_vector(const Batch_root& root, const Batch_reveal& reveal)
{
    const std::size_t k = reveal.openings.size();
    if (k != root.k || k == 0 || k > static_cast<std::size_t>(k_max_batch)) return false;
    std::array<crypto::Digest, k_max_batch> nodes;
    for (std::size_t j = 0; j < k; ++j) {
        nodes[j] = crypto::Merkle_tree::leaf_digest(
            leaf_bytes(static_cast<int>(j), crypto::recommit(reveal.openings[j])));
    }
    return crypto::fold_root(std::span<crypto::Digest>{nodes}.first(k)) == root.root;
}

common::Bytes encode(const Spot_reveal& value)
{
    common::Bytes out;
    common::put_bytes(out, crypto::encode(value.opening));
    common::put_u32(out, static_cast<std::uint32_t>(value.proof.size()));
    for (const crypto::Proof_node& node : value.proof) {
        out.insert(out.end(), node.sibling.begin(), node.sibling.end());
        out.push_back(node.sibling_is_left ? 1 : 0);
    }
    return out;
}

std::optional<Spot_reveal> decode_spot_reveal(const common::Bytes& bytes, int max_proof_nodes)
{
    try {
        common::Byte_reader reader{bytes};
        Spot_reveal value;
        const common::Bytes opening_bytes = reader.get_bytes();
        common::Byte_reader opening_reader{opening_bytes};
        value.opening = crypto::decode_opening(opening_reader);
        if (!opening_reader.exhausted()) return std::nullopt;
        const std::uint32_t nodes = reader.get_u32();
        if (nodes > static_cast<std::uint32_t>(max_proof_nodes)) return std::nullopt;
        value.proof.resize(nodes);
        for (crypto::Proof_node& node : value.proof) {
            for (auto& byte : node.sibling) byte = reader.get_u8();
            node.sibling_is_left = reader.get_u8() == 1;
        }
        if (!reader.exhausted()) return std::nullopt;
        return value;
    } catch (const common::Decode_error&) {
        return std::nullopt;
    }
}

bool opens_position(const Batch_root& root, int play, const Spot_reveal& reveal)
{
    const crypto::Commitment committed = crypto::recommit(reveal.opening);
    return crypto::verify_inclusion(root.root, leaf_payload(play, committed), reveal.proof);
}

} // namespace ga::pipeline
