#include "crypto/merkle.h"

#include <algorithm>
#include <array>

#include "common/ensure.h"

namespace ga::crypto {

namespace {

Digest node_digest(const Digest& left, const Digest& right)
{
    std::array<std::uint8_t, 1 + 2 * sizeof(Digest)> preimage;
    preimage[0] = 0x01;
    std::copy(left.begin(), left.end(), preimage.begin() + 1);
    std::copy(right.begin(), right.end(), preimage.begin() + 1 + sizeof(Digest));
    return sha256(preimage);
}

/// Fold one level of digests up in place: node i/2 becomes the digest of
/// the pair (i, i+1) and an odd last node is promoted unchanged. Returns the
/// size of the level above (the prefix of `nodes` now holding it).
std::size_t fold_level(std::span<Digest> nodes)
{
    std::size_t above = 0;
    for (std::size_t i = 0; i + 1 < nodes.size(); i += 2)
        nodes[above++] = node_digest(nodes[i], nodes[i + 1]);
    if (nodes.size() % 2 == 1) nodes[above++] = nodes.back(); // promote odd node
    return above;
}

} // namespace

Digest Merkle_tree::leaf_digest(std::span<const std::uint8_t> payload)
{
    constexpr std::uint8_t leaf_prefix = 0x00;
    Sha256 ctx;
    ctx.update(&leaf_prefix, 1);
    ctx.update(payload);
    return ctx.finish();
}

Digest fold_root(std::span<Digest> leaf_digests)
{
    common::ensure(!leaf_digests.empty(), "fold_root requires at least one leaf");
    std::size_t size = leaf_digests.size();
    while (size > 1) size = fold_level(leaf_digests.first(size));
    return leaf_digests.front();
}

Merkle_tree::Merkle_tree(const std::vector<common::Bytes>& leaves)
{
    common::ensure(!leaves.empty(), "Merkle_tree requires at least one leaf");
    std::vector<Digest> level;
    level.reserve(leaves.size());
    for (const auto& leaf : leaves) level.push_back(leaf_digest(leaf));
    levels_.push_back(std::move(level));

    while (levels_.back().size() > 1) {
        std::vector<Digest> above = levels_.back();
        above.resize(fold_level(above));
        levels_.push_back(std::move(above));
    }
}

Merkle_proof Merkle_tree::prove(std::size_t index) const
{
    common::ensure(index < leaf_count(), "Merkle_tree::prove: index out of range");
    Merkle_proof proof;
    std::size_t pos = index;
    for (std::size_t depth = 0; depth + 1 < levels_.size(); ++depth) {
        const auto& level = levels_[depth];
        const std::size_t sibling = (pos % 2 == 0) ? pos + 1 : pos - 1;
        if (sibling < level.size()) {
            proof.push_back(Proof_node{level[sibling], sibling < pos});
        }
        pos /= 2;
    }
    return proof;
}

bool verify_inclusion(const Digest& root, const common::Bytes& payload, const Merkle_proof& proof)
{
    Digest current = Merkle_tree::leaf_digest(payload);
    for (const auto& node : proof) {
        current = node.sibling_is_left ? node_digest(node.sibling, current)
                                       : node_digest(current, node.sibling);
    }
    return current == root;
}

} // namespace ga::crypto
