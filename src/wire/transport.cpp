#include "wire/transport.h"

#include <algorithm>
#include <string>

#include "common/ensure.h"

namespace ga::wire {

const char* transport_kind_name(Transport_kind kind)
{
    switch (kind) {
    case Transport_kind::loopback: return "loopback";
    case Transport_kind::ring: return "ring";
    }
    return "unknown";
}

void Wire_config::validate() const
{
    common::ensure(ring_frames > 0 && (static_cast<unsigned>(ring_frames) &
                                       (static_cast<unsigned>(ring_frames) - 1)) == 0,
                   "Wire_config::ring_frames must be a positive power of two");
}

void Transport::set_telemetry(telemetry::Telemetry_sink* sink)
{
    sink_ = sink;
    tel_pulses_ = tel_frames_ = tel_bytes_ = nullptr;
    tel_pulse_frames_ = tel_pulse_bytes_ = nullptr;
    tel_high_water_ = nullptr;
    if (sink_ == nullptr) return;
    tel_pulses_ = &sink_->counter("wire.pulses");
    tel_frames_ = &sink_->counter("wire.frames");
    tel_bytes_ = &sink_->counter("wire.bytes");
    tel_pulse_frames_ = &sink_->histogram("wire.pulse_frames");
    tel_pulse_bytes_ = &sink_->histogram("wire.pulse_bytes");
    tel_high_water_ = &sink_->gauge("wire.high_water");
}

void Transport::account(std::int64_t frames, std::int64_t bytes)
{
    if (frames == 0) return;
    stats_.pulses += 1;
    stats_.frames += frames;
    stats_.bytes += bytes;
    stats_.high_water = std::max(stats_.high_water, frames);
    if (sink_ == nullptr) return;
    *tel_pulses_ += 1;
    *tel_frames_ += frames;
    *tel_bytes_ += bytes;
    tel_pulse_frames_->record(frames);
    tel_pulse_bytes_->record(bytes);
    *tel_high_water_ = static_cast<double>(stats_.high_water);
}

void Loopback_transport::cross_pulse(std::vector<std::vector<sim::Message>>& inboxes,
                                     common::Pulse)
{
    // Zero-copy: the handles stay where they are. Accounting only — with
    // encoded_size computed arithmetically so it matches the ring byte for
    // byte without touching the codec.
    std::int64_t frames = 0;
    std::int64_t bytes = 0;
    for (const std::vector<sim::Message>& row : inboxes) {
        for (const sim::Message& msg : row) {
            frames += 1;
            bytes += static_cast<std::int64_t>(encoded_size(msg));
        }
    }
    account(frames, bytes);
}

Receive_pool::Receive_pool(std::size_t capacity) : capacity_{capacity} {}

common::Shared_payload Receive_pool::fill(std::span<const std::uint8_t> bytes)
{
    const std::size_t size = entries_.size();
    for (std::size_t probe = 0; probe < std::min(k_probe, size); ++probe) {
        const std::size_t at = (cursor_ + probe) % size;
        common::Shared_payload& entry = entries_[at];
        if (entry.use_count() != 1) continue; // a recipient still holds it
        entry.unique().assign(bytes.begin(), bytes.end()); // sole holder: no clone
        cursor_ = (at + 1) % size;
        return entry;
    }
    common::Shared_payload fresh{common::Bytes{bytes.begin(), bytes.end()}};
    if (size < capacity_) {
        entries_.push_back(fresh);
    } else if (size != 0) {
        entries_[cursor_] = fresh;
        cursor_ = (cursor_ + 1) % size;
    }
    return fresh;
}

Spsc_frame_ring::Spsc_frame_ring(int capacity)
    : pool_{static_cast<std::size_t>(std::max(capacity, 0))}
{
    common::ensure(capacity > 0 && (static_cast<unsigned>(capacity) &
                                    (static_cast<unsigned>(capacity) - 1)) == 0,
                   "Spsc_frame_ring: capacity must be a positive power of two");
    slots_.resize(static_cast<std::size_t>(capacity));
    mask_ = static_cast<std::uint64_t>(capacity) - 1;
}

bool Spsc_frame_ring::try_stage(const sim::Message& msg)
{
    const std::uint64_t cursor = head_.load(std::memory_order_relaxed) + staged_;
    if (cursor - cached_tail_ > mask_) {
        cached_tail_ = tail_.load(std::memory_order_acquire);
        if (cursor - cached_tail_ > mask_) return false; // genuinely full
    }
    common::Bytes& slot = slots_[cursor & mask_];
    slot.clear(); // keeps its high-water capacity
    encode_frame(msg, slot);
    staged_ += 1;
    return true;
}

void Spsc_frame_ring::publish()
{
    if (staged_ == 0) return;
    const std::uint64_t head = head_.load(std::memory_order_relaxed) + staged_;
    staged_ = 0;
    head_.store(head, std::memory_order_release);
    cached_tail_ = tail_.load(std::memory_order_acquire);
    depth_high_water_ =
        std::max(depth_high_water_, static_cast<std::int64_t>(head - cached_tail_));
}

bool Spsc_frame_ring::try_pop(sim::Message& out)
{
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == cached_head_) {
        cached_head_ = head_.load(std::memory_order_acquire);
        if (tail == cached_head_) return false; // genuinely empty
    }
    std::size_t offset = 0;
    const Frame_view frame = parse_frame(slots_[tail & mask_], offset);
    out.from = frame.from;
    out.to = frame.to;
    out.sent_at = frame.sent_at;
    out.payload = pool_.fill(frame.payload);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
}

std::int64_t Spsc_frame_ring::depth() const
{
    return static_cast<std::int64_t>(head_.load(std::memory_order_acquire) -
                                     tail_.load(std::memory_order_acquire));
}

Ring_transport::Ring_transport(int ring_frames) : ring_{ring_frames} {}

void Ring_transport::drain(std::size_t n_recipients)
{
    sim::Message msg;
    while (ring_.try_pop(msg)) {
        const auto to = static_cast<std::size_t>(msg.to);
        common::ensure(msg.to >= 0 && to < n_recipients,
                       "Ring_transport: decoded recipient out of range");
        decoded_[to].push_back(std::move(msg));
    }
}

void Ring_transport::cross_pulse(std::vector<std::vector<sim::Message>>& inboxes, common::Pulse)
{
    const std::size_t n = inboxes.size();
    if (decoded_.size() < n) decoded_.resize(n);

    // Producer side: frame every delivered message, recipient-major. A batch
    // larger than the ring publishes early and lets the consumer drain —
    // in-process the two ends interleave right here, exactly where a remote
    // consumer would relieve a full ring.
    std::int64_t frames = 0;
    std::int64_t bytes = 0;
    for (std::vector<sim::Message>& row : inboxes) {
        for (sim::Message& msg : row) {
            frames += 1;
            bytes += static_cast<std::int64_t>(encoded_size(msg));
            while (!ring_.try_stage(msg)) {
                ring_.publish();
                drain(n);
            }
        }
        row.clear();
    }

    // One batched publish per pulse, then the consumer side decodes every
    // frame into a recycled receive buffer and rebuilds the inboxes. Frames
    // carry `to`, and recipient-major staging keeps per-recipient order, so
    // the rebuilt inboxes are identical to what loopback leaves in place.
    ring_.publish();
    drain(n);
    for (std::size_t r = 0; r < n; ++r) inboxes[r].swap(decoded_[r]);
    account(frames, bytes);
}

std::unique_ptr<Transport> make_transport(const Wire_config& config)
{
    config.validate();
    switch (config.kind) {
    case Transport_kind::loopback: return std::make_unique<Loopback_transport>();
    case Transport_kind::ring: return std::make_unique<Ring_transport>(config.ring_frames);
    }
    throw common::Contract_error{"make_transport: unknown transport kind"};
}

} // namespace ga::wire
