#include "bft/eig.h"

#include <cstring>
#include <limits>

#include "bft/plurality.h"
#include "common/ensure.h"

namespace ga::bft {

namespace {

/// n^k: the slot count of tree level k, one slot per mixed-radix path index.
std::size_t level_size(int n, int k)
{
    const auto radix = static_cast<std::size_t>(n);
    std::size_t size = 1;
    for (int i = 0; i < k; ++i) {
        common::ensure(size <= std::numeric_limits<std::size_t>::max() / radix,
                       "Eig_session: tree level too large");
        size *= radix;
    }
    return size;
}

} // namespace

Eig_session::Eig_session(int n, int f, common::Processor_id self, Value input)
    : n_{n}, f_{f}, self_{self}, input_{std::move(input)}
{
    common::ensure(n_ >= 1, "Eig_session: n must be positive");
    common::ensure(f_ >= 0, "Eig_session: f must be non-negative");
    common::ensure(n_ > 3 * f_, "Eig_session requires n > 3f");
    common::ensure(self_ >= 0 && self_ < n_, "Eig_session: self out of range");
    levels_.resize(static_cast<std::size_t>(f_) + 2);
    path_.assign(static_cast<std::size_t>(f_) + 2, 0);
}

bool Eig_session::present(int k, std::size_t index) const
{
    const auto& level = levels_[static_cast<std::size_t>(k)];
    return !level.empty() && level[index].offset != k_absent;
}

void Eig_session::write(int k, std::size_t index, Slot slot)
{
    auto& level = levels_[static_cast<std::size_t>(k)];
    if (level.empty()) level.assign(level_size(n_, k), Slot{});
    // First writer wins: a duplicate (path) pair in one round is itself
    // Byzantine behaviour; honest senders never repeat.
    if (level[index].offset == k_absent) level[index] = slot;
}

void Eig_session::write_bytes(int k, std::size_t index, std::span<const std::uint8_t> bytes)
{
    if (present(k, index)) return;
    common::ensure(arena_.size() + bytes.size() < k_absent, "Eig_session: value arena full");
    write(k, index, Slot{static_cast<std::uint32_t>(arena_.size()),
                         static_cast<std::uint32_t>(bytes.size())});
    arena_.insert(arena_.end(), bytes.begin(), bytes.end());
}

bool Eig_session::same(Slot a, Slot b) const
{
    if (a.length != b.length) return false;
    if (a.length == 0 || a.offset == b.offset) return true;
    return std::memcmp(arena_.data() + a.offset, arena_.data() + b.offset, a.length) == 0;
}

void Eig_session::decode_path(int k, std::size_t index)
{
    for (int i = k - 1; i >= 0; --i) {
        path_[static_cast<std::size_t>(i)] =
            static_cast<common::Processor_id>(index % static_cast<std::size_t>(n_));
        index /= static_cast<std::size_t>(n_);
    }
}

bool Eig_session::on_path(int k, common::Processor_id id) const
{
    for (int i = 0; i < k; ++i)
        if (path_[static_cast<std::size_t>(i)] == id) return true;
    return false;
}

common::Bytes Eig_session::message_for_round(common::Round r)
{
    common::Bytes payload;
    if (r < 0 || r > f_) return payload; // defensive after transient faults

    // Round 0: broadcast own input as the empty-path pair, and self-deliver
    // it as node [self].
    if (r == 0) {
        payload.reserve(12 + input_.size());
        common::put_u32(payload, 1);
        common::put_u32(payload, 0);
        common::put_bytes(payload, input_);
        write_bytes(1, static_cast<std::size_t>(self_), input_);
        return payload;
    }

    // Round r > 0: relay every stored level-r node whose path does not
    // already contain self, in index (= lexicographic path) order.
    const auto& level = levels_[static_cast<std::size_t>(r)];
    relay_.clear();
    std::size_t wire_size = 4;
    for (std::size_t index = 0; index < level.size(); ++index) {
        if (level[index].offset == k_absent) continue;
        decode_path(r, index);
        if (on_path(r, self_)) continue;
        relay_.push_back(index);
        wire_size += 4 + 4 * static_cast<std::size_t>(r) + 4 + level[index].length;
    }
    payload.reserve(wire_size);

    common::put_u32(payload, static_cast<std::uint32_t>(relay_.size()));
    for (const std::size_t index : relay_) {
        decode_path(r, index);
        common::put_u32(payload, static_cast<std::uint32_t>(r));
        for (int i = 0; i < r; ++i)
            common::put_u32(payload, static_cast<std::uint32_t>(path_[static_cast<std::size_t>(i)]));
        const Slot slot = level[index];
        common::put_u32(payload, slot.length);
        if (slot.length > 0)
            payload.insert(payload.end(), arena_.data() + slot.offset,
                           arena_.data() + slot.offset + slot.length);
    }

    // Self-delivery: our own relays are part of our tree (node path+self,
    // sharing the parent's bytes), so the session works whether or not the
    // transport echoes broadcasts back to their sender.
    for (const std::size_t index : relay_)
        write(r + 1, index * static_cast<std::size_t>(n_) + static_cast<std::size_t>(self_),
              level[index]);
    return payload;
}

void Eig_session::deliver_round(common::Round r, const Round_payloads& payloads)
{
    if (r < 0 || r > f_ || done_) return;
    common::ensure(static_cast<int>(payloads.size()) == n_,
                   "Eig_session::deliver_round: payload vector size mismatch");

    // A legitimate round-r message carries at most the number of level-r
    // nodes; anything larger is Byzantine spam — clamp it.
    const std::int64_t limit = eig_pairs_in_round(n_, r);
    for (common::Processor_id sender = 0; sender < n_; ++sender) {
        const auto& payload = payloads[static_cast<std::size_t>(sender)];
        if (!payload.has_value()) continue;
        try {
            common::Byte_reader reader{*payload};
            const std::uint32_t count = reader.get_u32();
            if (static_cast<std::int64_t>(count) > limit) continue;
            for (std::uint32_t p = 0; p < count; ++p) {
                const std::uint32_t path_len = reader.get_u32();
                if (path_len > static_cast<std::uint32_t>(f_ + 1)) throw common::Decode_error{"path too long"};
                for (std::uint32_t i = 0; i < path_len; ++i)
                    path_[i] = static_cast<common::Processor_id>(reader.get_u32());
                const std::span<const std::uint8_t> value = reader.get_bytes_view();

                // Valid: r distinct in-range ids, none of them the sender.
                if (path_len != static_cast<std::uint32_t>(r)) continue;
                std::size_t index = 0;
                bool valid = true;
                for (int i = 0; i < r && valid; ++i) {
                    const common::Processor_id id = path_[static_cast<std::size_t>(i)];
                    valid = id >= 0 && id < n_ && id != sender && !on_path(i, id);
                    index = index * static_cast<std::size_t>(n_) + static_cast<std::size_t>(id);
                }
                if (!valid) continue;
                write_bytes(r + 1, index * static_cast<std::size_t>(n_) + static_cast<std::size_t>(sender),
                            value);
            }
        } catch (const common::Decode_error&) {
            // Malformed payload: the pairs decoded before the fault stand.
        }
    }

    if (r == f_) {
        resolve_all();
        done_ = true;
    }
}

Eig_session::Slot Eig_session::resolve(int k, std::size_t index)
{
    if (k == f_ + 1) return present(k, index) ? levels_[static_cast<std::size_t>(k)][index] : Slot{};

    // Internal node: strict majority over all children path+[j], j not in
    // path — a Boyer–Moore candidate pass, then a counting pass.
    Slot* votes = votes_.data() + static_cast<std::size_t>(k) * static_cast<std::size_t>(n_);
    int children = 0;
    for (common::Processor_id j = 0; j < n_; ++j) {
        if (on_path(k, j)) continue;
        path_[static_cast<std::size_t>(k)] = j;
        votes[children++] =
            resolve(k + 1, index * static_cast<std::size_t>(n_) + static_cast<std::size_t>(j));
    }
    Slot candidate{};
    int lead = 0;
    for (int c = 0; c < children; ++c) {
        if (lead == 0) {
            candidate = votes[c];
            lead = 1;
        } else {
            lead += same(votes[c], candidate) ? 1 : -1;
        }
    }
    int count = 0;
    for (int c = 0; c < children; ++c)
        if (same(votes[c], candidate)) ++count;
    return 2 * count > children ? candidate : Slot{};
}

void Eig_session::resolve_all()
{
    votes_.assign((static_cast<std::size_t>(f_) + 1) * static_cast<std::size_t>(n_), Slot{});
    agreed_vector_.assign(static_cast<std::size_t>(n_), Value{});
    for (common::Processor_id source = 0; source < n_; ++source) {
        // Own subtree root holds the local input directly.
        if (source == self_)
            write_bytes(1, static_cast<std::size_t>(self_), input_);
        path_[0] = source;
        const Slot slot = resolve(1, static_cast<std::size_t>(source));
        if (slot.length > 0)
            agreed_vector_[static_cast<std::size_t>(source)].assign(
                arena_.data() + slot.offset, arena_.data() + slot.offset + slot.length);
    }
}

const std::vector<Value>& Eig_session::agreed_vector() const
{
    common::ensure(done_, "Eig_session::agreed_vector before completion");
    return agreed_vector_;
}

Value Eig_session::decision() const
{
    common::ensure(done_, "Eig_session::decision before completion");
    const Plurality best = plurality(agreed_vector_, /*skip_bottom=*/true);
    return best.value == nullptr ? Value{} : *best.value;
}

std::int64_t eig_pairs_in_round(int n, common::Round r)
{
    // Number of paths of length r over n distinct ids: n * (n-1) * ... (r terms).
    std::int64_t pairs = 1;
    for (common::Round i = 0; i < r; ++i) pairs *= (n - i);
    return pairs;
}

} // namespace ga::bft
