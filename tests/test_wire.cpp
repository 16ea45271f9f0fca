// The wire layer: flat GAW2 frame codec (layout, pinned bytes, round-trips,
// damage detection with byte offsets, every single-bit flip caught), the
// zero-copy loopback link, the lock-free SPSC frame ring (full/empty/wrap
// edges, FIFO order, high-water gauges), its recycled receive buffers (kept
// handles keep their bytes, no two live messages share a buffer, transient
// faults stay copy-on-write), and the fabric-level determinism contract — verdicts, stats, and telemetry JSON
// bit-identical between loopback and ring and across executor widths.
// bench_wire (E19) re-checks codec and transport throughput at scale.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "shard/fabric.h"
#include "telemetry/export.h"
#include "wire/codec.h"
#include "wire/transport.h"

namespace {

using namespace ga;
using common::Agent_id;
using common::Bytes;

sim::Message make_message(common::Processor_id from, common::Processor_id to,
                          Bytes payload, common::Pulse sent_at)
{
    sim::Message msg;
    msg.from = from;
    msg.to = to;
    msg.payload = common::Shared_payload{std::move(payload)};
    msg.sent_at = sent_at;
    return msg;
}

void expect_same_message(const sim::Message& got, const sim::Message& want)
{
    EXPECT_EQ(got.from, want.from);
    EXPECT_EQ(got.to, want.to);
    EXPECT_EQ(got.sent_at, want.sent_at);
    EXPECT_EQ(got.payload.bytes(), want.payload.bytes());
}

/// The Contract_error message `f` throws; empty when it does not throw.
template <typename F>
std::string thrown_what(F&& f)
{
    try {
        f();
    } catch (const common::Contract_error& e) {
        return e.what();
    }
    return {};
}

// -------------------------------------------------------------------- Codec

TEST(Wire, FrameLayoutMatchesTheDocumentedOffsets)
{
    const sim::Message msg = make_message(3, 7, Bytes{0xAA, 0xBB, 0xCC}, 0x0102030405060708);
    EXPECT_EQ(wire::encoded_size(msg), wire::k_frame_overhead + 3);

    Bytes out;
    wire::encode_frame(msg, out);
    ASSERT_EQ(out.size(), wire::encoded_size(msg));
    EXPECT_TRUE(std::equal(wire::k_frame_magic.begin(), wire::k_frame_magic.end(),
                           out.begin()));
    EXPECT_EQ(out[4], 3);  // from, LE
    EXPECT_EQ(out[8], 7);  // to, LE
    EXPECT_EQ(out[12], 0x08); // sent_at low byte, LE
    EXPECT_EQ(out[19], 0x01); // sent_at high byte
    EXPECT_EQ(out[20], 3); // payload length, LE
    EXPECT_EQ(out[24], 0xAA);
    EXPECT_EQ(out[26], 0xCC);

    std::size_t offset = 0;
    const sim::Message back = wire::decode_frame(out, offset);
    EXPECT_EQ(offset, out.size());
    expect_same_message(back, msg);
}

TEST(Wire, BatchRoundTripPreservesOrderIncludingEmptyPayloads)
{
    std::vector<sim::Message> batch;
    batch.push_back(make_message(0, 1, Bytes{}, 5));
    batch.push_back(make_message(1, 0, Bytes{1, 2, 3, 4, 5, 6, 7}, 6));
    batch.push_back(make_message(-1, 2, Bytes{0xFF}, 0));

    Bytes buf;
    wire::encode_batch(batch, buf);
    const std::vector<sim::Message> back = wire::decode_batch(buf);
    ASSERT_EQ(back.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) expect_same_message(back[i], batch[i]);
}

TEST(Wire, DecodeNamesTheByteOffsetOfTheDamage)
{
    Bytes buf;
    wire::encode_frame(make_message(1, 2, Bytes{9, 8, 7}, 44), buf);
    const std::size_t frame = buf.size();
    wire::encode_frame(make_message(2, 1, Bytes{6}, 45), buf);

    // Truncation inside the second frame's header: the error names where the
    // second frame starts.
    Bytes short_header{buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(frame + 4)};
    std::string what = thrown_what([&] { (void)wire::decode_batch(short_header); });
    EXPECT_NE(what.find("truncated frame header"), std::string::npos) << what;
    EXPECT_NE(what.find("at byte " + std::to_string(frame)), std::string::npos) << what;

    // Truncated payload/checksum region.
    Bytes short_payload{buf.begin(), buf.end() - 3};
    what = thrown_what([&] { (void)wire::decode_batch(short_payload); });
    EXPECT_NE(what.find("truncated frame payload"), std::string::npos) << what;

    // Bad magic at the start of a frame.
    Bytes bad_magic = buf;
    bad_magic[frame] ^= 0x01;
    what = thrown_what([&] { (void)wire::decode_batch(bad_magic); });
    EXPECT_NE(what.find("bad frame magic"), std::string::npos) << what;
    EXPECT_NE(what.find("at byte " + std::to_string(frame)), std::string::npos) << what;

    // A payload bit flip trips the checksum, not the header parse.
    Bytes flipped = buf;
    flipped[frame + wire::k_frame_header_bytes] ^= 0x10;
    what = thrown_what([&] { (void)wire::decode_batch(flipped); });
    EXPECT_NE(what.find("frame checksum mismatch"), std::string::npos) << what;
}

TEST(Wire, Gaw2BytesArePinned)
{
    // One 32-byte lane block, one leftover word and a 3-byte tail, with a
    // negative recipient id. Changing these bytes is a wire format bump.
    Bytes payload;
    for (std::uint8_t b = 0x40; b < 0x40 + 19; ++b) payload.push_back(b);
    Bytes out;
    wire::encode_frame(make_message(3, -2, payload, 0x0102030405060708), out);
    EXPECT_EQ(common::to_hex(out),
              "4741573203000000feffffff080706050403020113000000"   // header
              "404142434445464748494a4b4c4d4e4f505152"             // payload
              "417b0731dc4c8c2d");                                 // checksum
}

TEST(Wire, EveryBitFlipIsDetected)
{
    // Payload lengths 0..40 cover every tail length (0..7 bytes) and both
    // sides of the 32-byte lane stride. A flip outside the length field is
    // confined to one aligned word, which the checksum always detects; a
    // flipped length bit must still fail the decode somewhere.
    for (std::size_t length = 0; length <= 40; ++length) {
        Bytes payload(length);
        for (std::size_t i = 0; i < length; ++i) payload[i] = static_cast<std::uint8_t>(i * 37 + 1);
        Bytes frame;
        wire::encode_frame(make_message(5, 6, payload, 1000 + static_cast<int>(length)), frame);
        for (std::size_t byte = 0; byte < frame.size(); ++byte) {
            for (int bit = 0; bit < 8; ++bit) {
                Bytes damaged = frame;
                damaged[byte] ^= static_cast<std::uint8_t>(1u << bit);
                const std::string what = thrown_what([&] { (void)wire::decode_batch(damaged); });
                ASSERT_NE(what.find(" at byte "), std::string::npos)
                    << "L=" << length << " byte " << byte << " bit " << bit << ": " << what;
                if (byte < wire::k_frame_magic.size()) {
                    EXPECT_NE(what.find("bad frame magic at byte 0"), std::string::npos) << what;
                } else if (byte < 20 || byte >= 24) {
                    EXPECT_NE(what.find("frame checksum mismatch at byte 0"), std::string::npos)
                        << "L=" << length << " byte " << byte << " bit " << bit << ": " << what;
                }
            }
        }
    }
}

TEST(Wire, RejectsGaw1Frames)
{
    // A well-formed frame of the previous layout: "GAW1" magic and a
    // byte-serial FNV-1a trailer over the same header and payload.
    Bytes frame;
    wire::encode_frame(make_message(1, 2, Bytes{7, 8, 9}, 4), frame);
    frame[3] = '1';
    const std::size_t body = frame.size() - wire::k_frame_checksum_bytes;
    std::uint64_t fnv = 14695981039346656037ULL;
    for (std::size_t i = 0; i < body; ++i) fnv = (fnv ^ frame[i]) * 1099511628211ULL;
    for (std::size_t i = 0; i < 8; ++i) frame[body + i] = static_cast<std::uint8_t>(fnv >> (8 * i));

    const std::string what = thrown_what([&] { (void)wire::decode_batch(frame); });
    EXPECT_NE(what.find("bad frame magic at byte 0"), std::string::npos) << what;
}

// ---------------------------------------------------------------- Transport

TEST(Wire, ConfigValidatesRingCapacity)
{
    wire::Wire_config config;
    EXPECT_TRUE(thrown_what([&] { config.validate(); }).empty());
    config.kind = wire::Transport_kind::ring;
    config.ring_frames = 48; // not a power of two
    EXPECT_NE(thrown_what([&] { config.validate(); }).find("ring_frames"),
              std::string::npos);
    config.ring_frames = 0;
    EXPECT_NE(thrown_what([&] { config.validate(); }).find("ring_frames"),
              std::string::npos);
    config.ring_frames = 64;
    EXPECT_TRUE(thrown_what([&] { config.validate(); }).empty());
    EXPECT_STREQ(wire::transport_kind_name(wire::Transport_kind::loopback), "loopback");
    EXPECT_STREQ(wire::transport_kind_name(wire::Transport_kind::ring), "ring");
}

TEST(Wire, LoopbackMovesHandlesWithoutCopyingAndAccountsArithmetically)
{
    auto link = wire::make_transport({});
    ASSERT_EQ(link->kind(), wire::Transport_kind::loopback);

    std::vector<std::vector<sim::Message>> inboxes(2);
    inboxes[1].push_back(make_message(0, 1, Bytes{1, 2, 3, 4}, 9));
    const std::uint8_t* before = inboxes[1][0].payload.data();

    link->cross_pulse(inboxes, 9);
    ASSERT_EQ(inboxes[1].size(), 1u);
    EXPECT_EQ(inboxes[1][0].payload.data(), before)
        << "loopback must move the refcounted handle, not re-mint the buffer";
    EXPECT_EQ(link->stats().pulses, 1);
    EXPECT_EQ(link->stats().frames, 1);
    EXPECT_EQ(link->stats().bytes,
              static_cast<std::int64_t>(wire::k_frame_overhead) + 4);
    EXPECT_EQ(link->stats().high_water, 1);

    // Empty pulses cross nothing and are not accounted (histogram parity
    // between kinds depends on this).
    std::vector<std::vector<sim::Message>> empty(2);
    link->cross_pulse(empty, 10);
    EXPECT_EQ(link->stats().pulses, 1);
}

TEST(WireRing, EmptyFullAndWrapEdges)
{
    wire::Spsc_frame_ring ring{4};
    EXPECT_EQ(ring.capacity(), 4);
    sim::Message out;
    EXPECT_FALSE(ring.try_pop(out)) << "fresh ring must be empty";

    // Fill to capacity: the fifth stage must refuse.
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ring.try_stage(make_message(i, 0, Bytes{static_cast<std::uint8_t>(i)}, i)));
    }
    EXPECT_FALSE(ring.try_stage(make_message(4, 0, Bytes{4}, 4)));
    EXPECT_EQ(ring.depth(), 0) << "staged frames are invisible until publish";
    ring.publish();
    EXPECT_EQ(ring.depth(), 4);
    EXPECT_EQ(ring.depth_high_water(), 4);

    // Drain in FIFO order, then wrap: push/pop past the capacity repeatedly
    // and the slots must hand back intact frames every time.
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ring.try_pop(out));
        EXPECT_EQ(out.from, i);
        ASSERT_EQ(out.payload.size(), 1u);
        EXPECT_EQ(out.payload.data()[0], i);
    }
    EXPECT_FALSE(ring.try_pop(out));
    for (int round = 0; round < 9; ++round) {
        Bytes payload(static_cast<std::size_t>(round % 5), static_cast<std::uint8_t>(round));
        ASSERT_TRUE(ring.try_stage(make_message(round, 1, payload, 100 + round)));
        ring.publish();
        ASSERT_TRUE(ring.try_pop(out));
        expect_same_message(out, make_message(round, 1, payload, 100 + round));
    }
    EXPECT_EQ(ring.depth_high_water(), 4) << "singleton publishes never beat the full batch";
}

TEST(WireRing, CrossPulseDeliversLoopbackIdenticalMessagesAndStats)
{
    wire::Wire_config ring_config;
    ring_config.kind = wire::Transport_kind::ring;
    ring_config.ring_frames = 8; // smaller than the batch: forces mid-pulse drains
    auto ring = wire::make_transport(ring_config);
    auto loopback = wire::make_transport({});

    const auto build = [] {
        std::vector<std::vector<sim::Message>> inboxes(3);
        for (int m = 0; m < 20; ++m) {
            Bytes payload(static_cast<std::size_t>(m % 7), static_cast<std::uint8_t>(m));
            inboxes[static_cast<std::size_t>(m % 3)].push_back(
                make_message(m % 3 + 1, m % 3, payload, 50));
        }
        return inboxes;
    };
    auto via_ring = build();
    auto via_loopback = build();
    ring->cross_pulse(via_ring, 50);
    loopback->cross_pulse(via_loopback, 50);

    ASSERT_EQ(via_ring.size(), via_loopback.size());
    for (std::size_t row = 0; row < via_ring.size(); ++row) {
        ASSERT_EQ(via_ring[row].size(), via_loopback[row].size()) << "row " << row;
        for (std::size_t i = 0; i < via_ring[row].size(); ++i) {
            expect_same_message(via_ring[row][i], via_loopback[row][i]);
        }
    }
    EXPECT_EQ(ring->stats(), loopback->stats())
        << "wire accounting must be transport-invariant";
    EXPECT_EQ(ring->stats().frames, 20);
    EXPECT_EQ(ring->stats().high_water, 20);

    const auto* as_ring = dynamic_cast<const wire::Ring_transport*>(ring.get());
    ASSERT_NE(as_ring, nullptr);
    EXPECT_GT(as_ring->ring().depth_high_water(), 0);
    EXPECT_LE(as_ring->ring().depth_high_water(), 8)
        << "occupancy can never exceed the ring capacity";
    EXPECT_EQ(as_ring->ring().depth(), 0) << "every frame must be drained by pulse end";
}

// ------------------------------------------------------- Recycled receive

TEST(WireRing, ReceivePoolRecyclesOnlyBuffersItSolelyHolds)
{
    wire::Receive_pool pool{4};
    const std::uint8_t* first_buffer = nullptr;
    {
        const common::Shared_payload first = pool.fill(Bytes{1, 2, 3});
        EXPECT_EQ(first.bytes(), (Bytes{1, 2, 3}));
        first_buffer = first.data();
    }
    // The pool is the sole holder again: the next fill reuses that buffer.
    const common::Shared_payload held = pool.fill(Bytes{4, 5});
    EXPECT_EQ(held.data(), first_buffer);
    EXPECT_EQ(held.bytes(), (Bytes{4, 5}));
    // A held entry is never rewritten.
    const common::Shared_payload next = pool.fill(Bytes{6});
    EXPECT_FALSE(next.aliases(held));
    EXPECT_EQ(held.bytes(), (Bytes{4, 5}));

    // More held handles than the pool has room for: fresh mints, the pool
    // stays bounded, and every holder keeps its bytes.
    std::vector<common::Shared_payload> kept;
    for (std::uint8_t i = 0; i < 12; ++i) kept.push_back(pool.fill(Bytes{i, i, i}));
    EXPECT_LE(pool.size(), 4u);
    for (std::uint8_t i = 0; i < 12; ++i) EXPECT_EQ(kept[i].bytes(), (Bytes{i, i, i}));
    EXPECT_EQ(held.bytes(), (Bytes{4, 5}));
    EXPECT_EQ(next.bytes(), (Bytes{6}));
}

TEST(WireRing, KeptHandleSurvivesMoreThanRingFramesLaterFrames)
{
    const int ring_frames = 8;
    auto link = wire::make_transport({wire::Transport_kind::ring, ring_frames});
    std::vector<std::vector<sim::Message>> inboxes(2);
    inboxes[1].push_back(make_message(0, 1, Bytes{0xC0, 0xFF, 0xEE}, 0));
    link->cross_pulse(inboxes, 0);
    const sim::Message kept = inboxes[1][0];

    // 5 later pulses of 6 same-sized frames each (30 > ring_frames), with
    // the consumed rows dropped between pulses the way the engine does.
    for (int pulse = 1; pulse <= 5; ++pulse) {
        for (auto& row : inboxes) row.clear();
        for (int m = 0; m < 6; ++m) {
            const auto tag = static_cast<std::uint8_t>(pulse * 10 + m);
            inboxes[static_cast<std::size_t>(m % 2)].push_back(
                make_message(1 - m % 2, m % 2, Bytes{tag, tag, tag}, pulse));
        }
        link->cross_pulse(inboxes, pulse);
    }
    EXPECT_EQ(kept.payload.bytes(), (Bytes{0xC0, 0xFF, 0xEE}));
    EXPECT_EQ(kept.from, 0);
}

TEST(WireRing, NoTwoLiveMessagesShareADecodedBuffer)
{
    auto link = wire::make_transport({wire::Transport_kind::ring, 16});
    std::vector<std::vector<sim::Message>> previous;
    for (int pulse = 0; pulse < 6; ++pulse) {
        // A 4-way broadcast (one aliased buffer going in) plus private sends.
        std::vector<std::vector<sim::Message>> inboxes(4);
        const common::Shared_payload broadcast{Bytes{0xB0, static_cast<std::uint8_t>(pulse)}};
        for (std::size_t to = 0; to < 4; ++to) {
            sim::Message msg = make_message(9, static_cast<int>(to), Bytes{}, pulse);
            msg.payload = broadcast;
            inboxes[to].push_back(std::move(msg));
            inboxes[to].push_back(make_message(8, static_cast<int>(to),
                                               Bytes(to + 1, static_cast<std::uint8_t>(pulse)),
                                               pulse));
        }
        link->cross_pulse(inboxes, pulse);

        // Every decoded buffer is private to one message — also against the
        // previous pulse's messages, still held while this pulse crossed.
        std::vector<const sim::Message*> live;
        for (const auto& row : inboxes)
            for (const sim::Message& msg : row) live.push_back(&msg);
        for (const auto& row : previous)
            for (const sim::Message& msg : row) live.push_back(&msg);
        for (std::size_t i = 0; i < live.size(); ++i) {
            for (std::size_t j = i + 1; j < live.size(); ++j) {
                EXPECT_FALSE(live[i]->payload.aliases(live[j]->payload))
                    << "pulse " << pulse << ": messages " << i << " and " << j;
            }
        }
        for (std::size_t to = 0; to < 4; ++to) {
            ASSERT_EQ(inboxes[to].size(), 2u);
            EXPECT_EQ(inboxes[to][0].payload.bytes(),
                      (Bytes{0xB0, static_cast<std::uint8_t>(pulse)}));
            EXPECT_EQ(inboxes[to][1].payload.bytes(),
                      Bytes(to + 1, static_cast<std::uint8_t>(pulse)));
        }
        previous = std::move(inboxes);
    }
}

/// Records every delivery. On odd pulses it re-broadcasts a handle it
/// received, so after a ring crossing the in-flight traffic aliases the
/// ring's recycled receive buffers when a transient fault strikes.
class Relay final : public sim::Processor {
public:
    explicit Relay(common::Processor_id id) : Processor{id} {}

    void on_pulse(sim::Pulse_context& ctx) override
    {
        const std::vector<sim::Message>& inbox = ctx.inbox();
        for (const sim::Message& m : inbox) seen.emplace_back(ctx.pulse(), m.from, m.payload.bytes());
        if (ctx.pulse() % 2 == 1 && !inbox.empty()) {
            ctx.broadcast(inbox[static_cast<std::size_t>(id()) % inbox.size()].payload);
        } else {
            ctx.broadcast(Bytes{static_cast<std::uint8_t>(id()),
                                static_cast<std::uint8_t>(ctx.pulse()), 0x5A, 0xA5});
        }
    }
    void corrupt(common::Rng&) override {}

    std::vector<std::tuple<common::Pulse, common::Processor_id, Bytes>> seen;
};

using Deliveries = std::vector<std::vector<std::tuple<common::Pulse, common::Processor_id, Bytes>>>;

Deliveries relay_run(wire::Transport_kind kind, int threads, bool fault)
{
    const int n = 6;
    sim::Engine engine{sim::complete_graph(n), common::Rng{31}, sim::Engine_config{threads}};
    for (common::Processor_id id = 0; id < n; ++id) engine.install(std::make_unique<Relay>(id));
    auto link = wire::make_transport({kind, 8});
    engine.set_link(link.get());
    engine.run(4);
    if (fault) engine.inject_transient_fault(); // drops some copies, garbles others
    engine.run(4);
    Deliveries deliveries;
    for (common::Processor_id id = 0; id < n; ++id)
        deliveries.push_back(engine.processor_as<Relay>(id).seen);
    return deliveries;
}

TEST(WireRing, TransientFaultAfterRingCrossingLeaksIntoNoOtherRecipient)
{
    // Loopback is the copy-on-write reference (SharedPayload suite). If a
    // garble wrote into a recycled buffer another recipient still reads, or
    // the pool rewrote a buffer a recipient still holds, the ring run's
    // deliveries would diverge from it.
    const Deliveries reference = relay_run(wire::Transport_kind::loopback, 1, true);
    EXPECT_NE(reference, relay_run(wire::Transport_kind::loopback, 1, false))
        << "the fault must change what is delivered";
    for (const int threads : {1, 2}) {
        EXPECT_EQ(relay_run(wire::Transport_kind::ring, threads, true), reference)
            << threads << " threads";
    }
}

// ------------------------------------------------------------ Fabric parity

/// Dominant-strategy game: honest agents play 1, deviants play 0.
class Dominant_game final : public game::Strategic_game {
public:
    explicit Dominant_game(int n) : n_{n} {}
    int n_agents() const override { return n_; }
    int n_actions(Agent_id) const override { return 2; }
    double cost(Agent_id i, const game::Pure_profile& p) const override
    {
        return p[static_cast<std::size_t>(i)] == 1 ? 1.0 : 2.0;
    }

private:
    int n_;
};

shard::Shard_spec_factory dominant_specs()
{
    return [](int, const std::vector<Agent_id>& members) {
        authority::Game_spec spec;
        spec.name = "dominant";
        spec.game = std::make_shared<Dominant_game>(static_cast<int>(members.size()));
        spec.equilibrium.assign(members.size(), {0.0, 1.0});
        spec.audit_mode = authority::Audit_mode::pure_best_response;
        return spec;
    };
}

struct Observed {
    metrics::Fabric_metrics report;
    std::vector<std::vector<shard::Authority_router::Agent_play>> histories;
    std::string telemetry_json;
};

Observed run_fabric(wire::Transport_kind kind, int threads, int ring_frames = 64)
{
    const int agents = 12;
    std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors;
    for (int i = 0; i < agents; ++i) {
        if (i == 2 || i == 9) {
            behaviors.push_back(std::make_unique<authority::Fixed_action_behavior>(0));
        } else {
            behaviors.push_back(std::make_unique<authority::Honest_behavior>());
        }
    }
    shard::Fabric_config config;
    config.f = 1;
    config.spec_factory = dominant_specs();
    config.punishment = [] { return std::make_unique<authority::Disconnect_scheme>(); };
    config.seed = 23;
    config.threads = threads;
    config.telemetry = true;
    config.transport.kind = kind;
    config.transport.ring_frames = ring_frames;
    shard::Fabric fabric{shard::Shard_map{agents, 3}, std::move(behaviors),
                         std::move(config)};
    fabric.run_pulses(2);
    fabric.run_plays(3);

    Observed observed{fabric.report(), {}, telemetry::to_json(fabric.telemetry_report())};
    for (Agent_id g = 0; g < agents; ++g) {
        observed.histories.push_back(fabric.router().plays_of(g));
    }
    return observed;
}

TEST(WireRing, FabricIsBitIdenticalAcrossTransportsAndThreads)
{
    const Observed reference = run_fabric(wire::Transport_kind::loopback, 1);
    EXPECT_NE(reference.telemetry_json.find("wire.frames"), std::string::npos)
        << "an attached link must surface wire.* counters";
    for (const int threads : {1, 2, 4}) {
        for (const auto kind :
             {wire::Transport_kind::loopback, wire::Transport_kind::ring}) {
            const Observed run = run_fabric(kind, threads);
            EXPECT_EQ(run.report, reference.report)
                << transport_kind_name(kind) << " x " << threads << " threads";
            EXPECT_EQ(run.histories, reference.histories)
                << transport_kind_name(kind) << " x " << threads << " threads";
            EXPECT_EQ(run.telemetry_json, reference.telemetry_json)
                << transport_kind_name(kind) << " x " << threads << " threads";
        }
    }
    // A cramped ring changes frame scheduling, never results.
    const Observed cramped = run_fabric(wire::Transport_kind::ring, 2, /*ring_frames=*/2);
    EXPECT_EQ(cramped.report, reference.report);
    EXPECT_EQ(cramped.telemetry_json, reference.telemetry_json);
}

} // namespace
