// Exponential-information-gathering Byzantine agreement
// (Lamport-Shostak-Pease [19] / Bar-Noy-Dolev-Dwork-Strong formulation).
//
// f+1 rounds, optimal resilience n > 3f, exponential message size — exactly
// the "proof of existence" protocol the paper invokes in §3.3/§4. One
// activation simultaneously yields:
//   * interactive consistency: an agreed vector with one slot per processor,
//     where honest slots carry the honest processors' real inputs — this is
//     what the play protocol uses to agree on the set of commitments; and
//   * consensus: a deterministic reduction of that vector.
#ifndef GA_BFT_EIG_H
#define GA_BFT_EIG_H

#include <cstdint>
#include <span>

#include "bft/session.h"

namespace ga::bft {

class Eig_session final : public Ic_session {
public:
    /// One activation for processor `self` of an n-processor system tolerating
    /// f Byzantine faults; requires n > 3f. `input` is this processor's value.
    Eig_session(int n, int f, common::Processor_id self, Value input);

    [[nodiscard]] common::Round total_rounds() const override { return f_ + 1; }
    common::Bytes message_for_round(common::Round r) override;
    void deliver_round(common::Round r, const Round_payloads& payloads) override;
    [[nodiscard]] bool done() const override { return done_; }

    /// Consensus value: the most frequent non-bottom entry of the agreed
    /// vector (lexicographically smallest on ties), or bottom if none.
    [[nodiscard]] Value decision() const override;

    /// Interactive-consistency output: slot j is the value all honest
    /// processors attribute to processor j. Valid only when done().
    [[nodiscard]] const std::vector<Value>& agreed_vector() const override;

private:
    /// One tree node: `length` bytes at `offset` in arena_, or absent.
    /// Absent and empty nodes both resolve as bottom.
    struct Slot {
        std::uint32_t offset = k_absent;
        std::uint32_t length = 0;
    };
    static constexpr std::uint32_t k_absent = 0xffffffffU;

    [[nodiscard]] bool present(int k, std::size_t index) const;
    void write(int k, std::size_t index, Slot slot);
    void write_bytes(int k, std::size_t index, std::span<const std::uint8_t> bytes);
    [[nodiscard]] bool same(Slot a, Slot b) const;
    void decode_path(int k, std::size_t index);
    [[nodiscard]] bool on_path(int k, common::Processor_id id) const;
    Slot resolve(int k, std::size_t index);
    void resolve_all();

    int n_;
    int f_;
    common::Processor_id self_;
    Value input_;
    // levels_[k] (k = 1..f+1) is the flat tree level of paths [p1..pk],
    // indexed ((p1*n + p2)*n + ...)*n + pk and empty until first written;
    // pk said that p(k-1) said ... that p1's input is the slot's value.
    // Index order is lexicographic path order, which is the relay order.
    std::vector<std::vector<Slot>> levels_;
    // Every stored value's bytes, appended once when its node is first
    // written; a self-delivered node shares its parent's bytes.
    common::Bytes arena_;
    std::vector<common::Processor_id> path_; // scratch: the path being walked
    std::vector<Slot> votes_;                // scratch: one row of n per level
    std::vector<std::size_t> relay_;         // scratch: level-r indices relayed
    std::vector<Value> agreed_vector_;
    bool done_ = false;
};

/// The number of (path, value) pairs an honest processor relays in round r —
/// the per-message payload growth that makes EIG exponential (bench E7).
std::int64_t eig_pairs_in_round(int n, common::Round r);

} // namespace ga::bft

#endif // GA_BFT_EIG_H
