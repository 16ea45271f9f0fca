// Crypto substrate tests: SHA-256 against FIPS vectors, HMAC against RFC 4231,
// commitment binding/verification, auditable seed sampling, Merkle proofs.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/commitment.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/seed_commitment.h"
#include "crypto/sha256.h"

namespace {

using namespace ga::crypto;
using ga::common::Bytes;
using ga::common::bytes_of;
using ga::common::from_hex;

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, EmptyStringVector)
{
    EXPECT_EQ(digest_hex(sha256({})),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector)
{
    EXPECT_EQ(digest_hex(sha256(bytes_of("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector)
{
    EXPECT_EQ(digest_hex(sha256(bytes_of(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactlyOneBlockOfPadding)
{
    // 55 and 56 byte messages straddle the padding boundary.
    const Bytes msg55(55, 'a');
    const Bytes msg56(56, 'a');
    EXPECT_EQ(digest_hex(sha256(msg55)),
              "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
    EXPECT_EQ(digest_hex(sha256(msg56)),
              "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

TEST(Sha256, MillionAsVector)
{
    Sha256 ctx;
    const Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) ctx.update(chunk);
    EXPECT_EQ(digest_hex(ctx.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    const Bytes data = bytes_of("the quick brown fox jumps over the lazy dog");
    Sha256 ctx;
    for (const auto byte : data) ctx.update(&byte, 1);
    EXPECT_EQ(ctx.finish(), sha256(data));
}

TEST(Sha256, AcceleratedPathMatchesPortableReference)
{
    // The runtime dispatcher may pick the SHA-NI kernel; whatever it picks
    // must compress bit-identically to the portable FIPS reference. (On
    // machines without SHA extensions both sides run the same code and the
    // test is a tautology — the real check happens where it matters.)
    ga::common::Rng rng{2027};
    for (const std::size_t blocks : {1u, 2u, 3u, 7u}) {
        std::vector<std::uint8_t> data(blocks * 64);
        for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.below(256));
        std::array<std::uint32_t, 8> dispatched = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                                   0xa54ff53a, 0x510e527f, 0x9b05688c,
                                                   0x1f83d9ab, 0x5be0cd19};
        std::array<std::uint32_t, 8> portable = dispatched;
        ga::crypto::detail::compress(dispatched, data.data(), blocks);
        ga::crypto::detail::compress_portable(portable, data.data(), blocks);
        EXPECT_EQ(dispatched, portable) << blocks << " blocks";
    }
}

TEST(Sha256, ReuseAfterFinishThrows)
{
    Sha256 ctx;
    ctx.update(bytes_of("x"));
    (void)ctx.finish();
    EXPECT_THROW(ctx.finish(), ga::common::Contract_error);
}

// ---------------------------------------------------------------- HMAC

TEST(Hmac, Rfc4231Case1)
{
    const Bytes key(20, 0x0b);
    EXPECT_EQ(digest_hex(hmac_sha256(key, bytes_of("Hi There"))),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2)
{
    EXPECT_EQ(digest_hex(hmac_sha256(bytes_of("Jefe"),
                                     bytes_of("what do ya want for nothing?"))),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case6LongKey)
{
    const Bytes key(131, 0xaa);
    EXPECT_EQ(digest_hex(hmac_sha256(
                  key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"))),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, PrfU64IsDeterministicAndLabelSensitive)
{
    const Bytes seed = bytes_of("seed");
    EXPECT_EQ(prf_u64(seed, 1, 7), prf_u64(seed, 1, 7));
    EXPECT_NE(prf_u64(seed, 1, 7), prf_u64(seed, 2, 7));
    EXPECT_NE(prf_u64(seed, 1, 7), prf_u64(seed, 1, 8));
}

// ---------------------------------------------------------------- Commitments

TEST(Commitment, RoundTripVerifies)
{
    ga::common::Rng rng{1};
    const Committed committed = commit(bytes_of("action:2"), rng);
    EXPECT_TRUE(verify(committed.commitment, committed.opening));
}

TEST(Commitment, TamperedPayloadFailsVerification)
{
    ga::common::Rng rng{2};
    Committed committed = commit(bytes_of("action:2"), rng);
    committed.opening.payload = bytes_of("action:3");
    EXPECT_FALSE(verify(committed.commitment, committed.opening));
}

TEST(Commitment, TamperedNonceFailsVerification)
{
    ga::common::Rng rng{3};
    Committed committed = commit(bytes_of("x"), rng);
    committed.opening.nonce[0] ^= 0x01;
    EXPECT_FALSE(verify(committed.commitment, committed.opening));
}

TEST(Commitment, DistinctNoncesHideEqualPayloads)
{
    ga::common::Rng rng{4};
    const Committed a = commit(bytes_of("same"), rng);
    const Committed b = commit(bytes_of("same"), rng);
    EXPECT_NE(a.commitment, b.commitment); // hiding needs fresh nonces
}

TEST(Commitment, WireRoundTrip)
{
    ga::common::Rng rng{5};
    const Committed committed = commit(bytes_of("payload"), rng);

    const Bytes c_wire = encode(committed.commitment);
    ga::common::Byte_reader c_reader{c_wire};
    EXPECT_EQ(decode_commitment(c_reader), committed.commitment);

    const Bytes o_wire = encode(committed.opening);
    ga::common::Byte_reader o_reader{o_wire};
    const Opening opening = decode_opening(o_reader);
    EXPECT_TRUE(verify(committed.commitment, opening));
}

// Known-answer digests recorded from the preimage-buffer implementation of
// recommit (u32 len | nonce | u32 len | payload hashed as one Bytes): with
// a 32-byte nonce the preimage is 40 + payload bytes, so the lengths below
// straddle SHA-256's 55/56-byte padding edge, its 64-byte block edge and the
// second block's 119/120 edge.
Opening kat_opening(std::size_t payload_len)
{
    Opening opening;
    opening.nonce.resize(32);
    for (std::size_t i = 0; i < 32; ++i) opening.nonce[i] = static_cast<std::uint8_t>(i * 5 + 1);
    opening.payload.resize(payload_len);
    for (std::size_t i = 0; i < payload_len; ++i)
        opening.payload[i] = static_cast<std::uint8_t>(0xa0 + i);
    return opening;
}

TEST(Commitment, RecommitDigestsArePinned)
{
    const std::vector<std::pair<std::size_t, const char*>> pinned{
        {0, "2000fd3977b005afddba60d7a1d4bb395eaa234958fac4f438f23ee0dfd3773c"},
        {14, "e05d2a55baa63e701e20951126d5adc55b0500cebf1b50434b7288dbb0c9ef29"},
        {15, "1647d3489a061a1cd19fa64ce43c1e1d433a7f74e1fe84b645da9314c3f63fc6"},
        {16, "37ffcbc0aa1b4173cb7626a609cb1647a2ee22349f0338db859df456cbab1421"},
        {17, "df6c8e30ed05c560e64c0ae8008e6d714c5fd57293e8ab4a06da16c0791c0029"},
        {23, "8b368820797fee6b22f737908e40214ebe940ce418d491cf374800d10643d187"},
        {24, "485da85f16e479eb5db602007aa1e92530b84a64e45bdd3ef8cb284c99bb648c"},
        {25, "f2cafd91ef4f93edc88c332e832bad7e397a7263fc87154ecf594f6bcbddd0d0"},
        {79, "bfab1d7e96575e5917f9b90b97ff83f776fe60dc2e127a2fa191bbefad75d345"},
        {80, "5f4b3080cbfb8effc7d58371d1ff74db76d402158e93038ebe3595e3269b7de9"},
        {200, "f0a60b7ad25509877896fa3950a72c1bbde72e56d58fc7bbf7a26df12eaf6392"},
    };
    for (const auto& [payload_len, hex] : pinned) {
        const Opening opening = kat_opening(payload_len);
        EXPECT_EQ(digest_hex(recommit(opening).digest), hex) << "payload " << payload_len;
        // The same bytes as the length-prefixed preimage, hashed one-shot.
        Bytes preimage;
        ga::common::put_bytes(preimage, opening.nonce);
        ga::common::put_bytes(preimage, opening.payload);
        EXPECT_EQ(recommit(opening).digest, sha256(preimage)) << "payload " << payload_len;
    }
}

// ---------------------------------------------------------------- Seed audit

TEST(SeedCommitment, CommitmentOpensToSeed)
{
    ga::common::Rng rng{6};
    const Seed_commitment sc = commit_seed(rng);
    EXPECT_TRUE(verify(sc.commitment, sc.opening));
    EXPECT_EQ(sc.opening.payload.size(), 32u);
}

TEST(SeedCommitment, SampledActionIsDeterministic)
{
    const Bytes seed = bytes_of("agent-seed");
    const std::vector<double> dist{0.5, 0.5};
    for (std::uint64_t t = 0; t < 20; ++t)
        EXPECT_EQ(sampled_action(seed, 1, t, dist), sampled_action(seed, 1, t, dist));
}

TEST(SeedCommitment, SampledActionRespectsSupport)
{
    const Bytes seed = bytes_of("s");
    const std::vector<double> dist{0.0, 1.0, 0.0};
    for (std::uint64_t t = 0; t < 100; ++t) EXPECT_EQ(sampled_action(seed, 0, t, dist), 1);
}

TEST(SeedCommitment, SampledActionMatchesDistribution)
{
    const Bytes seed = bytes_of("statistics");
    const std::vector<double> dist{0.25, 0.75};
    int ones = 0;
    constexpr int draws = 20000;
    for (std::uint64_t t = 0; t < draws; ++t) {
        if (sampled_action(seed, 3, t, dist) == 1) ++ones;
    }
    EXPECT_NEAR(static_cast<double>(ones) / draws, 0.75, 0.02);
}

TEST(SeedCommitment, AuditAcceptsFaithfulHistory)
{
    const Bytes seed = bytes_of("faithful");
    const std::vector<double> dist{0.5, 0.5};
    std::vector<int> actions;
    for (std::uint64_t t = 0; t < 50; ++t) actions.push_back(sampled_action(seed, 2, t, dist));
    EXPECT_TRUE(audit_history(seed, 2, 0, dist, actions));
}

TEST(SeedCommitment, AuditRejectsSingleDeviation)
{
    const Bytes seed = bytes_of("cheater");
    const std::vector<double> dist{0.5, 0.5};
    std::vector<int> actions;
    for (std::uint64_t t = 0; t < 50; ++t) actions.push_back(sampled_action(seed, 2, t, dist));
    actions[17] ^= 1; // one manipulated round
    EXPECT_FALSE(audit_history(seed, 2, 0, dist, actions));
}

// ---------------------------------------------------------------- Merkle

TEST(Merkle, SingleLeafRootIsLeafDigest)
{
    const std::vector<Bytes> leaves{bytes_of("only")};
    const Merkle_tree tree{leaves};
    EXPECT_EQ(tree.root(), Merkle_tree::leaf_digest(leaves[0]));
    EXPECT_TRUE(verify_inclusion(tree.root(), leaves[0], tree.prove(0)));
}

TEST(Merkle, AllLeavesProveInclusion)
{
    std::vector<Bytes> leaves;
    for (int i = 0; i < 13; ++i) leaves.push_back(bytes_of("round-" + std::to_string(i)));
    const Merkle_tree tree{leaves};
    for (std::size_t i = 0; i < leaves.size(); ++i)
        EXPECT_TRUE(verify_inclusion(tree.root(), leaves[i], tree.prove(i))) << "leaf " << i;
}

TEST(Merkle, WrongPayloadFailsProof)
{
    std::vector<Bytes> leaves{bytes_of("a"), bytes_of("b"), bytes_of("c")};
    const Merkle_tree tree{leaves};
    EXPECT_FALSE(verify_inclusion(tree.root(), bytes_of("x"), tree.prove(1)));
}

TEST(Merkle, ProofForOtherLeafFails)
{
    std::vector<Bytes> leaves{bytes_of("a"), bytes_of("b"), bytes_of("c"), bytes_of("d")};
    const Merkle_tree tree{leaves};
    EXPECT_FALSE(verify_inclusion(tree.root(), leaves[0], tree.prove(1)));
}

TEST(Merkle, RootChangesWithAnyLeaf)
{
    std::vector<Bytes> leaves{bytes_of("a"), bytes_of("b"), bytes_of("c")};
    const Merkle_tree tree{leaves};
    leaves[2] = bytes_of("c'");
    const Merkle_tree modified{leaves};
    EXPECT_NE(tree.root(), modified.root());
}

TEST(Merkle, LeafAndNodeDomainsAreSeparated)
{
    // A leaf whose payload mimics an interior node's preimage must not
    // produce that interior digest.
    std::vector<Bytes> leaves{bytes_of("a"), bytes_of("b")};
    const Merkle_tree tree{leaves};
    Bytes fake;
    fake.push_back(0x01);
    const Digest la = Merkle_tree::leaf_digest(leaves[0]);
    const Digest lb = Merkle_tree::leaf_digest(leaves[1]);
    fake.insert(fake.end(), la.begin(), la.end());
    fake.insert(fake.end(), lb.begin(), lb.end());
    EXPECT_NE(Merkle_tree::leaf_digest(fake), tree.root());
}

// Leaf payloads of the pinned roots: 36 bytes each, the size of the batched
// pipeline's (index, commitment) leaf.
std::vector<Bytes> kat_leaves(int k)
{
    std::vector<Bytes> leaves;
    for (int j = 0; j < k; ++j) {
        Bytes leaf(36);
        for (std::size_t i = 0; i < leaf.size(); ++i)
            leaf[i] = static_cast<std::uint8_t>(j * 31 + static_cast<int>(i));
        leaves.push_back(leaf);
    }
    return leaves;
}

// Known answers recorded from the heap-preimage implementation.
TEST(Merkle, LeafDigestsArePinned)
{
    const std::vector<std::pair<std::size_t, const char*>> pinned{
        {0, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"},
        {1, "2ecd8a6b7d2845546659ad4cf443533cf921b19dc81fa83934e83821b4dfdcb7"},
        {36, "2232a731a5fc5f65b8091d8381b0fa2b94bbcf339ef0d6b708af97e890002d43"},
        {55, "d44103c2fce7c4f985e5572db0f34bc672f69fee5055f2e29cc6661f66de969d"},
        {63, "48e632de4e608beee241a82c6c9f80c86242a07915a0f254ca0485c7162f036b"},
        {64, "acf36e34a7397a955a59cae09d6449c3201dd641c6d668ff261299afebd3fe95"},
        {100, "52cac5af1eb5ae5e30a0654c504f034c144dcd4669eaaa63a59ba97f16d04c50"},
    };
    for (const auto& [len, hex] : pinned) {
        Bytes payload(len);
        for (std::size_t i = 0; i < len; ++i) payload[i] = static_cast<std::uint8_t>(3 * i + 7);
        EXPECT_EQ(digest_hex(Merkle_tree::leaf_digest(payload)), hex) << "payload " << len;
        Bytes preimage;
        preimage.reserve(1 + payload.size());
        preimage.push_back(0x00);
        preimage.insert(preimage.end(), payload.begin(), payload.end());
        EXPECT_EQ(Merkle_tree::leaf_digest(payload), sha256(preimage)) << "payload " << len;
    }
}

TEST(Merkle, NodeDigestIsPinned)
{
    // A two-leaf root is exactly one node digest: sha256(0x01 | left | right).
    const std::vector<Bytes> leaves = kat_leaves(2);
    const Digest left = Merkle_tree::leaf_digest(leaves[0]);
    const Digest right = Merkle_tree::leaf_digest(leaves[1]);
    Bytes preimage;
    preimage.reserve(1 + left.size() + right.size());
    preimage.push_back(0x01);
    preimage.insert(preimage.end(), left.begin(), left.end());
    preimage.insert(preimage.end(), right.begin(), right.end());
    const Merkle_tree tree{leaves};
    EXPECT_EQ(tree.root(), sha256(preimage));
    EXPECT_EQ(digest_hex(tree.root()),
              "20364277318e59a51b7a3efd61939764313f0c6010e9b9dd3ddded75484ca9e7");
}

TEST(Merkle, RootsArePinned)
{
    const std::vector<std::pair<int, const char*>> pinned{
        {1, "12a91af2b4b087222d6301ab9a8fdce0ebda9ad78211bfb51aac1229c64e1a71"},
        {2, "20364277318e59a51b7a3efd61939764313f0c6010e9b9dd3ddded75484ca9e7"},
        {3, "470e1b044eef0339a5e447e7b778b84464e412c0550c480ffe35c41118b077e3"},
        {4, "c3e62d5278922dd5d9a5813863cf7dff87e945b922ef4fc2f8af9097f9b39365"},
        {5, "2484fdf0dd3e3e82ac12a7ac0c6001e3d0c626122f167f5066e28982b6492d35"},
        {6, "10a719791cf3ecd892787afe95c734ab35a1e5b024735358af19b7b58b38cbc6"},
        {7, "0c86cd63dba8d00dc6ed911a1ddecd8e587aef5ae87aebc1399d733711502d16"},
        {8, "04d07a8fc88c68fd2acc1aeb198381fc937673e343c2be2089e5675519a2a758"},
        {9, "a5b61709ecda737d2b8f3a618d3ce47f7726b8b9e4e9a6e3298229acf74b6629"},
        {64, "03f8cabd47dcc78ef7a24c70085e9115a22bed67f9b9ebef3659592c869a23fe"},
    };
    for (const auto& [k, hex] : pinned) {
        const std::vector<Bytes> leaves = kat_leaves(k);
        const Merkle_tree tree{leaves};
        EXPECT_EQ(digest_hex(tree.root()), hex) << "k = " << k;
        std::vector<Digest> digests;
        for (const Bytes& leaf : leaves) digests.push_back(Merkle_tree::leaf_digest(leaf));
        EXPECT_EQ(digest_hex(fold_root(digests)), hex) << "k = " << k;
        for (std::size_t i = 0; i < leaves.size(); ++i)
            EXPECT_TRUE(verify_inclusion(tree.root(), leaves[i], tree.prove(i))) << "k = " << k;
    }
}

} // namespace
