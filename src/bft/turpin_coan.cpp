#include "bft/turpin_coan.h"

#include "bft/plurality.h"
#include "common/ensure.h"

namespace ga::bft {

namespace {

// Wire format: 1 tag byte (0 = bottom, 1 = value) then the length-prefixed value.
common::Bytes encode_tagged(const std::optional<Value>& value)
{
    common::Bytes payload;
    if (!value.has_value()) {
        payload.push_back(0);
        return payload;
    }
    payload.push_back(1);
    common::put_bytes(payload, *value);
    return payload;
}

std::optional<std::optional<Value>> decode_tagged(const std::optional<common::Bytes>& payload)
{
    if (!payload.has_value()) return std::nullopt;
    try {
        common::Byte_reader reader{*payload};
        const std::uint8_t tag = reader.get_u8();
        if (tag == 0) {
            if (!reader.exhausted()) return std::nullopt;
            return std::optional<Value>{std::nullopt};
        }
        if (tag != 1) return std::nullopt;
        Value value = reader.get_bytes();
        if (!reader.exhausted()) return std::nullopt;
        return std::optional<Value>{std::move(value)};
    } catch (const common::Decode_error&) {
        return std::nullopt;
    }
}

} // namespace

Turpin_coan_session::Turpin_coan_session(int n, int f, common::Processor_id self, Value input,
                                         Binary_session_factory make_binary)
    : n_{n}, f_{f}, self_{self}, input_{std::move(input)}, make_binary_{std::move(make_binary)}
{
    common::ensure(n_ > 3 * f_, "Turpin_coan_session requires n > 3f");
    common::ensure(self_ >= 0 && self_ < n_, "Turpin_coan_session: self out of range");
    common::ensure(make_binary_ != nullptr, "Turpin_coan_session: null binary factory");
}

common::Round Turpin_coan_session::total_rounds() const
{
    // Two reduction rounds plus the binary protocol; the binary session is
    // created lazily, so ask a throwaway instance for its round count.
    if (binary_) return 2 + binary_->total_rounds();
    return 2 + make_binary_(n_, f_, self_, 0)->total_rounds();
}

common::Bytes Turpin_coan_session::message_for_round(common::Round r)
{
    if (r == 0) return encode_tagged(input_);
    if (r == 1) return encode_tagged(x_);
    if (binary_) return binary_->message_for_round(r - 2);
    return {};
}

void Turpin_coan_session::deliver_round(common::Round r, const Round_payloads& payloads)
{
    if (done_ || r < 0) return;
    common::ensure(static_cast<int>(payloads.size()) == n_,
                   "Turpin_coan_session::deliver_round: payload vector size mismatch");

    if (r <= 1) {
        // Non-bottom values received this round (an empty value is not bottom).
        std::vector<Value> received;
        received.reserve(payloads.size());
        for (const auto& payload : payloads) {
            auto decoded = decode_tagged(payload);
            if (decoded.has_value() && decoded->has_value()) received.push_back(std::move(**decoded));
        }
        const Plurality best = plurality(received, /*skip_bottom=*/false);
        if (r == 0) {
            // x := any value with >= n-f occurrences (unique when n > 3f).
            x_.reset();
            if (best.count >= n_ - f_) x_ = *best.value;
        } else {
            // candidate := the most common x; agree on it iff n-f sent one.
            candidate_valid_ = best.value != nullptr;
            if (candidate_valid_) candidate_ = *best.value;
            const int binary_input = static_cast<int>(received.size()) >= n_ - f_ ? 1 : 0;
            binary_ = make_binary_(n_, f_, self_, binary_input);
        }
        return;
    }

    if (!binary_) return; // transient-fault remnant: out-of-schedule call
    binary_->deliver_round(r - 2, payloads);
    if (binary_->done()) done_ = true;
}

Value Turpin_coan_session::decision() const
{
    common::ensure(done_ && binary_, "Turpin_coan_session::decision before completion");
    const Value binary_decision = binary_->decision();
    const bool decided_one = binary_decision.size() == 1 && binary_decision[0] == 1;
    if (decided_one && candidate_valid_) return candidate_;
    return Value{};
}

} // namespace ga::bft
