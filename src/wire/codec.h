// Flat deterministic codec for the pulse protocol.
//
// The ROADMAP's "shards as processes" item needs the fabric's cross-boundary
// traffic to survive a real process boundary, and every sim::Message already
// carries its payload as a flat common::Shared_payload byte buffer — so the
// wire format frames those bytes as-is instead of serializing C++ objects.
// One frame per message, fixed little-endian layout:
//
//   offset  size  field
//   ------  ----  --------------------------------------------------------
//        0     4  magic "GAW2" (frame sync / corruption tripwire)
//        4     4  from     (Processor_id, two's-complement LE)
//        8     4  to       (Processor_id, two's-complement LE)
//       12     8  sent_at  (Pulse, two's-complement LE)
//       20     4  payload length L (u32 LE)
//       24     L  payload bytes (the Shared_payload buffer, verbatim)
//     24+L     8  checksum (u64 LE, over bytes [0, 24+L); defined below)
//
// Checksum (GAW2). The body [0, 24+L) is read as little-endian u64 words;
// the last 1..7 bytes, if any, are packed into one zero-padded word (this is
// unambiguous because L sits in the hashed header). Word j steps lane j mod 4
// of four independent lanes, each seeded with a distinct constant:
//
//   step(h, w) = { h = (h ^ w) * K;  h ^= h >> 32; }     (K odd)
//
// The lanes are folded with the same step (h = lane0, then h = step(h, lane1),
// step(h, lane2), step(h, lane3)) and finished with the murmur3 fmix64
// avalanche. Arithmetic is mod 2^64 on words read little-endian, so the value
// is byte-identical on every host; there is no ISA dispatch.
//
// Detection guarantee: for a fixed lane state h, step is a bijection of w,
// and for a fixed w a bijection of h; the fold is therefore injective in each
// lane and the avalanche is a bijection. So changing any one aligned 8-byte
// word of the body — which includes every single-bit flip and every burst
// confined to one such word — always changes the checksum, and damage to the
// stored checksum itself always mismatches. Damage spread over several words
// is missed with probability about 2^-64.
//
// Encoding sizes the frame once and writes the header with fixed-offset
// stores, then copies the payload straight from the refcounted buffer — no
// intermediate serialization copy. parse_frame is the one parse-and-verify
// routine: decode_frame mints a fresh Shared_payload from its view, and the
// ring transport (transport.h) fills a recycled receive buffer instead —
// either way one copy off the wire. Truncation and corruption throw
// common::Contract_error naming the byte offset where the damage was
// detected, so a fuzzer's replay seed pinpoints the bad frame.
//
// Determinism: encode is a pure function of the message, decode of the
// bytes; batch encode/decode preserve order. The transports (transport.h)
// rely on round-trips being byte-exact so loopback and ring runs produce
// bit-identical verdicts, stats, and telemetry.
#ifndef GA_WIRE_CODEC_H
#define GA_WIRE_CODEC_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "sim/processor.h"

namespace ga::wire {

/// Frame sync bytes ("GAW2": game-authority wire, layout v2 — the v1 header
/// with the word-at-a-time checksum).
inline constexpr std::array<std::uint8_t, 4> k_frame_magic = {'G', 'A', 'W', '2'};

/// Fixed header bytes before the payload (magic + from + to + sent_at + len).
inline constexpr std::size_t k_frame_header_bytes = 24;

/// Trailing checksum bytes.
inline constexpr std::size_t k_frame_checksum_bytes = 8;

/// Total framing overhead per message (header + checksum).
inline constexpr std::size_t k_frame_overhead = k_frame_header_bytes + k_frame_checksum_bytes;

/// Encoded size of one message's frame. Pure arithmetic — the loopback
/// transport accounts wire bytes with this instead of encoding, which is how
/// `wire.*` telemetry stays bit-identical between loopback and ring.
[[nodiscard]] inline std::size_t encoded_size(const sim::Message& msg)
{
    return k_frame_overhead + msg.payload.size();
}

/// A verified frame whose payload bytes still live in the parsed buffer.
struct Frame_view {
    common::Processor_id from = -1;
    common::Processor_id to = -1;
    common::Pulse sent_at = 0;
    std::span<const std::uint8_t> payload;
};

/// Append one frame to `out`. The payload bytes are copied once, directly
/// from the refcounted buffer into the frame.
void encode_frame(const sim::Message& msg, common::Bytes& out);

/// Parse and verify the frame starting at `offset`, advancing `offset` past
/// it. The view's payload points into `buf`. Throws common::Contract_error
/// naming the byte offset on a short buffer, bad magic, or checksum mismatch.
[[nodiscard]] Frame_view parse_frame(const common::Bytes& buf, std::size_t& offset);

/// parse_frame, then mint a fresh Shared_payload for the decoded message.
[[nodiscard]] sim::Message decode_frame(const common::Bytes& buf, std::size_t& offset);

/// Append every message's frame to `out`, in order.
void encode_batch(const std::vector<sim::Message>& batch, common::Bytes& out);

/// Decode frames back-to-back until the buffer is exhausted. Throws
/// common::Contract_error (with the byte offset) on any damaged frame.
[[nodiscard]] std::vector<sim::Message> decode_batch(const common::Bytes& buf);

} // namespace ga::wire

#endif // GA_WIRE_CODEC_H
