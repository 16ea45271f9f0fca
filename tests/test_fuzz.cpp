// Robustness fuzzing: every decoder and every protocol session must survive
// arbitrary adversarial bytes — either parsing correctly, signalling
// Decode_error, or treating the input as missing. No crashes, no hangs, no
// out-of-range results.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "bft/eig.h"
#include "bft/parallel_ic.h"
#include "bft/phase_king.h"
#include "bft/turpin_coan.h"
#include "clock/clock_sync.h"
#include "common/rng.h"
#include "crypto/commitment.h"
#include "crypto/merkle.h"
#include "sim/engine.h"
#include "sim/malicious.h"
#include "ssba/ssba.h"
#include "telemetry/export.h"
#include "telemetry/json_parse.h"
#include "telemetry/telemetry.h"
#include "wire/codec.h"

namespace {

using namespace ga;
using common::Bytes;
using common::Rng;

Bytes random_bytes(Rng& rng, std::size_t max_len)
{
    Bytes data(static_cast<std::size_t>(rng.below(max_len + 1)));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
    return data;
}

TEST(Fuzz, ByteReaderNeverCrashesOnRandomBuffers)
{
    Rng rng{1};
    for (int trial = 0; trial < 2000; ++trial) {
        const Bytes data = random_bytes(rng, 64);
        common::Byte_reader reader{data};
        try {
            while (!reader.exhausted()) {
                switch (rng.below(4)) {
                case 0: (void)reader.get_u8(); break;
                case 1: (void)reader.get_u32(); break;
                case 2: (void)reader.get_u64(); break;
                default: (void)reader.get_bytes(); break;
                }
            }
        } catch (const common::Decode_error&) {
            // expected on underruns
        }
    }
}

TEST(Fuzz, ClockDecoderReturnsInRangeOrNothing)
{
    Rng rng{2};
    for (int trial = 0; trial < 2000; ++trial) {
        const Bytes payload = random_bytes(rng, 12);
        const auto value = clock::decode_clock(payload, 8);
        if (value.has_value()) {
            EXPECT_GE(*value, 0);
            EXPECT_LT(*value, 8);
        }
    }
}

TEST(Fuzz, OpeningDecoderRoundTripsOrThrows)
{
    Rng rng{3};
    for (int trial = 0; trial < 2000; ++trial) {
        const Bytes wire = random_bytes(rng, 96);
        common::Byte_reader reader{wire};
        try {
            const crypto::Opening opening = crypto::decode_opening(reader);
            // Whatever decoded must re-encode deterministically.
            (void)crypto::recommit(opening);
        } catch (const common::Decode_error&) {
        }
    }
}

TEST(Fuzz, MerkleVerifyRejectsRandomProofs)
{
    Rng rng{4};
    std::vector<Bytes> leaves{common::bytes_of("a"), common::bytes_of("b"),
                              common::bytes_of("c"), common::bytes_of("d")};
    const crypto::Merkle_tree tree{leaves};
    int accepted = 0;
    for (int trial = 0; trial < 500; ++trial) {
        crypto::Merkle_proof proof;
        const int depth = static_cast<int>(rng.below(4));
        for (int d = 0; d < depth; ++d) {
            crypto::Proof_node node;
            for (auto& byte : node.sibling) byte = static_cast<std::uint8_t>(rng.below(256));
            node.sibling_is_left = rng.chance(0.5);
            proof.push_back(node);
        }
        if (crypto::verify_inclusion(tree.root(), leaves[0], proof)) ++accepted;
    }
    // Only the genuine proof shape could verify; random digests never should
    // (collision probability ~2^-256).
    EXPECT_EQ(accepted, 0);
}

// ---- Protocol sessions under randomized payload storms: deliver garbage for
// every round; the session must terminate with *some* decision and identical
// schedule length, never crash.

template <typename Make_session>
void storm_session(Make_session make, std::uint64_t seed)
{
    Rng rng{seed};
    auto session = make();
    const auto rounds = session->total_rounds();
    for (common::Round r = 0; r < rounds; ++r) {
        (void)session->message_for_round(r);
        bft::Round_payloads payloads(4);
        for (auto& payload : payloads) {
            if (rng.chance(0.3)) continue; // missing
            payload = random_bytes(rng, 80);
        }
        session->deliver_round(r, payloads);
    }
    EXPECT_TRUE(session->done());
    (void)session->decision();
}

TEST(Fuzz, EigSurvivesPayloadStorm)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        storm_session(
            [] { return std::make_unique<bft::Eig_session>(4, 1, 0, common::bytes_of("x")); },
            seed);
    }
}

TEST(Fuzz, PhaseKingSurvivesPayloadStorm)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        storm_session([] { return std::make_unique<bft::Phase_king_session>(4, 0, 0, 1); }, seed);
    }
}

TEST(Fuzz, TurpinCoanSurvivesPayloadStorm)
{
    const bft::Binary_session_factory factory =
        [](int n, int f, common::Processor_id self, int input) -> std::unique_ptr<bft::Session> {
        return std::make_unique<bft::Phase_king_session>(n, f, self, input);
    };
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        storm_session(
            [&] {
                return std::make_unique<bft::Turpin_coan_session>(4, 0, 0,
                                                                  common::bytes_of("v"), factory);
            },
            seed);
    }
}

TEST(Fuzz, ParallelIcSurvivesPayloadStorm)
{
    const bft::Multivalued_session_factory inner =
        [](int n, int f, common::Processor_id self,
           bft::Value input) -> std::unique_ptr<bft::Session> {
        return std::make_unique<bft::Turpin_coan_session>(
            n, f, self, std::move(input),
            [](int nn, int ff, common::Processor_id s, int b) -> std::unique_ptr<bft::Session> {
                return std::make_unique<bft::Phase_king_session>(nn, ff, s, b);
            });
    };
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        storm_session(
            [&] {
                return std::make_unique<bft::Parallel_ic_session>(4, 0, 0,
                                                                  common::bytes_of("v"), inner);
            },
            seed);
    }
}

// ---- Seeded Net_model schedules: random partial-synchrony configurations
// must never crash the engine, must keep every honest clock in range, and
// must stay bit-identical across thread counts. On failure the (seed,
// config) pair printed by SCOPED_TRACE replays the schedule exactly.

std::string describe_net(const sim::Net_model& net)
{
    std::ostringstream out;
    out << "Net_model{delta=" << net.delta << " jitter=" << net.jitter << " drop=" << net.drop
        << " shuffle=" << net.shuffle << " seed=" << net.seed << " windows=[";
    for (const sim::Net_window& w : net.windows) {
        out << "[" << w.begin << "," << w.end << "){";
        for (const auto id : w.isolated) out << id << " ";
        out << "} ";
    }
    out << "]}";
    return out.str();
}

sim::Net_model random_net(Rng& rng, int n, common::Pulse horizon)
{
    sim::Net_model net;
    net.delta = 1 + static_cast<int>(rng.below(6));
    net.jitter = net.delta > 1 ? 0.25 * static_cast<double>(rng.below(5)) : 1.0;
    net.drop = 0.1 * static_cast<double>(rng.below(4));
    net.shuffle = rng.chance(0.5);
    net.seed = rng.split(7).next_u64();
    const int n_windows = static_cast<int>(rng.below(3));
    for (int w = 0; w < n_windows; ++w) {
        sim::Net_window window;
        window.begin = static_cast<common::Pulse>(rng.below(static_cast<std::uint64_t>(horizon)));
        window.end = window.begin + 1 + static_cast<common::Pulse>(rng.below(6));
        if (rng.chance(0.5)) {
            window.isolated.push_back(
                static_cast<common::Processor_id>(rng.below(static_cast<std::uint64_t>(n))));
        }
        net.windows.push_back(std::move(window));
    }
    return net;
}

/// Steps a clock system under `net` and harvests every honest clock value
/// plus the engine's wire accounting — the full observable surface.
struct Chaos_result {
    std::vector<int> clocks;
    sim::Traffic_stats stats;

    friend bool operator==(const Chaos_result&, const Chaos_result&) = default;
};

Chaos_result clock_chaos_run(const sim::Net_model& net, int threads, std::uint64_t seed)
{
    const int n = 5;
    const int f = 1;
    const int period = 8;
    Rng rng{seed};
    sim::Engine engine{sim::complete_graph(n), rng.split(0), sim::Engine_config{threads}, net};
    for (common::Processor_id id = 0; id < n - f; ++id) {
        engine.install(std::make_unique<clock::Clock_sync_processor>(
            id, n, f, period, rng.split(id + 1), /*initial=*/0, net.delta));
    }
    engine.install(std::make_unique<sim::Random_babbler>(n - 1, rng.split(50), 12),
                   /*byzantine=*/true);
    engine.run(60);
    Chaos_result result;
    for (common::Processor_id id = 0; id < n - f; ++id) {
        result.clocks.push_back(engine.processor_as<clock::Clock_sync_processor>(id).clock());
    }
    result.stats = engine.stats();
    return result;
}

TEST(Fuzz, RandomNetSchedulesNeverCrashAndStayThreadInvariant)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng{seed};
        const sim::Net_model net = random_net(rng, 5, 60);
        SCOPED_TRACE("replay: seed=" + std::to_string(seed) + " " + describe_net(net));
        ASSERT_NO_THROW(net.validate(5));

        const Chaos_result single = clock_chaos_run(net, 1, seed);
        for (const int value : single.clocks) {
            EXPECT_GE(value, 0);
            EXPECT_LT(value, 8);
        }
        for (const int threads : {2, 4}) {
            EXPECT_EQ(clock_chaos_run(net, threads, seed), single) << threads << " threads";
        }
        EXPECT_EQ(clock_chaos_run(net, 1, seed), single) << "repeated run";
    }
}

TEST(Fuzz, NetScheduleRegressionReplay)
{
    // A pinned (seed, config) pair from the fuzzer's space, kept as a
    // deterministic regression: the exact schedule a failure report names
    // can be re-run forever. The harvested values are self-consistent
    // across runs and threads; the clock range is the only semantic bound.
    sim::Net_model net;
    net.delta = 5;
    net.jitter = 0.75;
    net.drop = 0.2;
    net.shuffle = true;
    net.seed = 0xfeedface;
    net.windows.push_back({12, 17, {}});
    net.windows.push_back({30, 33, {2}});
    SCOPED_TRACE("replay: seed=9 " + describe_net(net));

    const Chaos_result first = clock_chaos_run(net, 1, 9);
    for (const int value : first.clocks) {
        EXPECT_GE(value, 0);
        EXPECT_LT(value, 8);
    }
    EXPECT_EQ(clock_chaos_run(net, 1, 9), first);
    EXPECT_EQ(clock_chaos_run(net, 4, 9), first);
    EXPECT_GT(first.stats.dropped, 0);
}

TEST(Fuzz, SessionsIgnoreOutOfScheduleCalls)
{
    // Transient-fault remnants: deliveries for rounds that never happen must
    // be ignored, not crash.
    bft::Eig_session eig{4, 1, 0, common::bytes_of("x")};
    bft::Round_payloads payloads(4);
    eig.deliver_round(-3, payloads);
    eig.deliver_round(99, payloads);
    EXPECT_FALSE(eig.done());

    bft::Phase_king_session pk{5, 1, 0, 1};
    pk.deliver_round(-1, bft::Round_payloads(5));
    pk.deliver_round(1000, bft::Round_payloads(5));
    EXPECT_FALSE(pk.done());
    (void)pk.message_for_round(-5);
    (void)pk.message_for_round(500);
}

// ------------------------------------------------------------- EIG session

/// Relayed pairs in an EIG round payload this repo's own session produced,
/// counted per path tail (the sender whose report the pair relays).
std::vector<std::int64_t> relays_per_tail(const Bytes& payload, int n)
{
    std::vector<std::int64_t> per_tail(static_cast<std::size_t>(n), 0);
    common::Byte_reader reader{payload};
    const std::uint32_t count = reader.get_u32();
    for (std::uint32_t p = 0; p < count; ++p) {
        const std::uint32_t len = reader.get_u32();
        std::uint32_t tail = 0;
        for (std::uint32_t i = 0; i < len; ++i) tail = reader.get_u32();
        (void)reader.get_bytes_view();
        if (len > 0) per_tail[tail] += 1;
    }
    EXPECT_TRUE(reader.exhausted());
    return per_tail;
}

/// Delivers round r to `session` (self 0) with only `sender` speaking, then
/// checks through the round-(r+1) relay that at most `max_pairs` nodes were
/// taken from that sender — never more than eig_pairs_in_round(n, r).
void expect_sender_bounded(bft::Eig_session& session, int n, common::Round r,
                           common::Processor_id sender, const Bytes& payload,
                           std::int64_t max_pairs)
{
    bft::Round_payloads payloads(static_cast<std::size_t>(n));
    payloads[static_cast<std::size_t>(sender)] = payload;
    session.deliver_round(r, payloads);
    const std::vector<std::int64_t> per_tail = relays_per_tail(session.message_for_round(r + 1), n);
    EXPECT_LE(per_tail[static_cast<std::size_t>(sender)], max_pairs);
    EXPECT_LE(per_tail[static_cast<std::size_t>(sender)], bft::eig_pairs_in_round(n, r));
}

TEST(EigFuzz, RandomGarbageNeverLetsASenderPastThePairClamp)
{
    Rng rng{31};
    for (int trial = 0; trial < 600; ++trial) {
        const int f = 1 + static_cast<int>(rng.below(2));
        const int n = 3 * f + 1 + static_cast<int>(rng.below(3));
        SCOPED_TRACE("trial " + std::to_string(trial));
        bft::Eig_session session{n, f, 0, common::bytes_of("x")};
        (void)session.message_for_round(0);
        const auto r = static_cast<common::Round>(rng.below(static_cast<std::uint64_t>(f)));
        const auto sender = static_cast<common::Processor_id>(1 + rng.below(static_cast<std::uint64_t>(n - 1)));
        // Half the trials keep a plausible pair count so the decoder gets past
        // the header into the pairs themselves.
        Bytes payload = random_bytes(rng, 160);
        if (payload.size() >= 4 && rng.chance(0.5)) {
            payload[0] = static_cast<std::uint8_t>(rng.below(static_cast<std::uint64_t>(n) + 2));
            payload[1] = payload[2] = payload[3] = 0;
        }
        expect_sender_bounded(session, n, r, sender, payload, bft::eig_pairs_in_round(n, r));
    }
}

TEST(EigFuzz, EveryTruncationKeepsExactlyThePairsBeforeTheCut)
{
    // n = 7, f = 2: session 1's honest round-1 payload relays the six level-1
    // nodes [p] with p != 1, in path order, so pair 0 is [0].
    const int n = 7;
    const int f = 2;
    bft::Round_payloads round0(static_cast<std::size_t>(n));
    std::vector<std::unique_ptr<bft::Eig_session>> honest;
    for (int i = 0; i < n; ++i) {
        honest.push_back(std::make_unique<bft::Eig_session>(n, f, i, common::bytes_of("in-" + std::to_string(i))));
        round0[static_cast<std::size_t>(i)] = honest.back()->message_for_round(0);
    }
    honest[1]->deliver_round(0, round0);
    const Bytes valid = honest[1]->message_for_round(1);

    // End offset of every pair, to know how many a prefix holds whole.
    std::vector<std::size_t> pair_ends;
    {
        common::Byte_reader reader{valid};
        const std::uint32_t count = reader.get_u32();
        for (std::uint32_t p = 0; p < count; ++p) {
            const std::uint32_t len = reader.get_u32();
            for (std::uint32_t i = 0; i < len; ++i) (void)reader.get_u32();
            (void)reader.get_bytes_view();
            pair_ends.push_back(valid.size() - reader.remaining());
        }
    }
    ASSERT_EQ(pair_ends.size(), 6u);

    for (std::size_t cut = 0; cut <= valid.size(); ++cut) {
        SCOPED_TRACE("cut at " + std::to_string(cut));
        // A heap copy of exactly `cut` bytes, so ASan sees any overread.
        const Bytes head{valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut)};
        bft::Eig_session receiver{n, f, 0, common::bytes_of("in-0")};
        (void)receiver.message_for_round(0);
        receiver.deliver_round(0, round0);
        (void)receiver.message_for_round(1);
        const auto whole = static_cast<std::int64_t>(
            std::count_if(pair_ends.begin(), pair_ends.end(), [cut](std::size_t end) { return end <= cut; }));
        // Pair [0] ends with the receiver's own id, so it is kept but never
        // relayed: the relay shows every whole pair but that one.
        expect_sender_bounded(receiver, n, 1, 1, head, std::max<std::int64_t>(0, whole - 1));
        bft::Round_payloads again(static_cast<std::size_t>(n));
        again[1] = head;
        receiver.deliver_round(1, again); // re-delivery under a held clock
        const std::vector<std::int64_t> per_tail = relays_per_tail(receiver.message_for_round(2), n);
        EXPECT_EQ(per_tail[1], std::max<std::int64_t>(0, whole - 1));
        receiver.deliver_round(2, bft::Round_payloads(static_cast<std::size_t>(n)));
        ASSERT_TRUE(receiver.done());
        (void)receiver.decision();
    }
}

TEST(EigFuzz, BitFlippedRelaysNeverCrashAFullActivation)
{
    Rng rng{32};
    for (int trial = 0; trial < 200; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        const int n = 4 + static_cast<int>(rng.below(2));
        const int f = 1;
        std::vector<std::unique_ptr<bft::Eig_session>> sessions;
        for (int i = 0; i < n; ++i)
            sessions.push_back(std::make_unique<bft::Eig_session>(n, f, i, common::bytes_of(rng.chance(0.5) ? "a" : "b")));
        for (common::Round r = 0; r <= f; ++r) {
            bft::Round_payloads payloads(static_cast<std::size_t>(n));
            for (int i = 0; i < n; ++i) {
                Bytes payload = sessions[static_cast<std::size_t>(i)]->message_for_round(r);
                if (i == n - 1 && !payload.empty()) { // the faulty one flips bits
                    for (int flips = 1 + static_cast<int>(rng.below(3)); flips > 0; --flips)
                        payload[rng.below(payload.size())] ^= static_cast<std::uint8_t>(1U << rng.below(8));
                }
                payloads[static_cast<std::size_t>(i)] = std::move(payload);
            }
            for (const auto& session : sessions) session->deliver_round(r, payloads);
        }
        // Agreement among the honest n-1 survives one corrupted relayer.
        const Bytes reference = sessions[0]->decision();
        for (int i = 1; i < n - 1; ++i) {
            EXPECT_EQ(sessions[static_cast<std::size_t>(i)]->decision(), reference);
            EXPECT_EQ(sessions[static_cast<std::size_t>(i)]->agreed_vector(), sessions[0]->agreed_vector());
        }
    }
}

// --------------------------------------------------------------- Wire codec

/// A random message whose payload mimics one of the protocol's shapes:
/// empty heartbeats, tiny clock beacons, mid-size IC sections, commitment
/// digests, and occasionally a large blob.
sim::Message random_wire_message(Rng& rng)
{
    static constexpr std::size_t k_shapes[] = {0, 1, 8, 33, 64, 512};
    sim::Message msg;
    msg.from = static_cast<common::Processor_id>(rng.between(-1, 64));
    msg.to = static_cast<common::Processor_id>(rng.between(-1, 64));
    msg.sent_at = rng.between(0, 1'000'000);
    msg.payload = common::Shared_payload{
        random_bytes(rng, k_shapes[rng.below(std::size(k_shapes))])};
    return msg;
}

TEST(CodecFuzz, SeededMessagesRoundTripByteExact)
{
    for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng{seed};
        std::vector<sim::Message> batch;
        Bytes buf;
        for (int trial = 0; trial < 500; ++trial) {
            batch.push_back(random_wire_message(rng));
            wire::encode_frame(batch.back(), buf);
        }
        // Re-encoding the decoded batch must reproduce the exact bytes: the
        // transports' bit-identity contract rests on this.
        const std::vector<sim::Message> decoded = wire::decode_batch(buf);
        ASSERT_EQ(decoded.size(), batch.size());
        Bytes again;
        wire::encode_batch(decoded, again);
        EXPECT_EQ(again, buf);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_EQ(decoded[i].from, batch[i].from);
            EXPECT_EQ(decoded[i].to, batch[i].to);
            EXPECT_EQ(decoded[i].sent_at, batch[i].sent_at);
            EXPECT_EQ(decoded[i].payload.bytes(), batch[i].payload.bytes());
        }
    }
}

TEST(CodecFuzz, EveryTruncationLengthThrowsWithAByteOffset)
{
    Rng rng{21};
    Bytes buf;
    wire::encode_frame(random_wire_message(rng), buf);
    // cut = 0 (an empty buffer) is a legal zero-frame batch; every strictly
    // partial prefix must throw.
    for (std::size_t cut = 1; cut < buf.size(); ++cut) {
        SCOPED_TRACE("cut at " + std::to_string(cut));
        const Bytes head{buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(cut)};
        try {
            (void)wire::decode_batch(head);
            FAIL() << "a truncated frame must not decode";
        } catch (const common::Contract_error& e) {
            EXPECT_NE(std::string{e.what()}.find("at byte"), std::string::npos) << e.what();
        }
    }
}

TEST(CodecFuzz, SeededBitFlipsNeverDecodeSilently)
{
    Rng rng{22};
    for (int trial = 0; trial < 300; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        Bytes buf;
        const sim::Message original = random_wire_message(rng);
        wire::encode_frame(original, buf);
        const std::size_t victim = static_cast<std::size_t>(rng.below(buf.size()));
        buf[victim] ^= static_cast<std::uint8_t>(1U << rng.below(8));
        try {
            std::size_t offset = 0;
            const sim::Message decoded = wire::decode_frame(buf, offset);
            // A flip in the length field can only "succeed" by truncation or
            // checksum failure, both thrown above; reaching here with damaged
            // content means the checksum missed it — a codec bug.
            ADD_FAILURE() << "bit flip at byte " << victim << " decoded silently (from="
                          << decoded.from << ")";
        } catch (const common::Contract_error& e) {
            EXPECT_NE(std::string{e.what()}.find("at byte"), std::string::npos) << e.what();
        }
    }
}

TEST(CodecFuzz, RandomGarbageEitherThrowsOrRoundTrips)
{
    Rng rng{23};
    for (int trial = 0; trial < 2000; ++trial) {
        const Bytes garbage = random_bytes(rng, 128);
        try {
            const std::vector<sim::Message> decoded = wire::decode_batch(garbage);
            // Astronomically unlikely, but if garbage parses it must re-encode
            // to the same bytes (decode is a right inverse of encode).
            Bytes again;
            wire::encode_batch(decoded, again);
            EXPECT_EQ(again, garbage);
        } catch (const common::Contract_error&) {
            // expected: magic, truncation, or checksum tripwire
        }
    }
}

// ------------------------------------------------------------ JSON reader
//
// ga_inspect feeds telemetry::parse_json artifacts from outside the process,
// so the reader must turn any byte string into either a value or an error
// that names a byte offset — never a crash, an overread or a runaway stack.

/// An exported telemetry report: counters, gauges, histograms and journal
/// notes with characters the writer has to escape.
std::string exported_snapshot()
{
    telemetry::Telemetry_sink sink{telemetry::Telemetry_sink::Scope{1, 0}};
    sink.counter("plays.completed") = 12;
    sink.counter("ingest.shed_deadline") = 3;
    sink.gauge("load") = -1.25e-3;
    for (const std::int64_t sample : {1, 24, 24, 90, 1000}) sink.histogram("play.latency_pulses").record(sample);
    telemetry::Event e;
    e.kind = telemetry::Event_kind::foul;
    e.window = 2;
    e.at = 48;
    e.a = 1;
    e.note = "quote\" slash\\ tab\t bell\x07";
    sink.event(std::move(e));
    telemetry::Report report;
    report.shards.push_back({1, 0, sink.snapshot()});
    report.fabric = sink.snapshot();
    return telemetry::to_json(report);
}

void expect_parsed_or_located(std::string_view text)
{
    const telemetry::Json_parse_result parsed = telemetry::parse_json(text);
    if (!parsed.ok) {
        EXPECT_NE(parsed.error.find("at byte"), std::string::npos) << parsed.error;
        EXPECT_TRUE(parsed.value.is_null());
    }
}

/// Parses from an exact-size heap copy, so ASan flags any read past the end.
void parse_exact(const std::string& text)
{
    const std::unique_ptr<char[]> copy{new char[text.size() + 1]};
    std::copy(text.begin(), text.end(), copy.get());
    expect_parsed_or_located(std::string_view{copy.get(), text.size()});
}

TEST(JsonFuzz, ExportedSnapshotRoundTrips)
{
    const std::string json = exported_snapshot();
    const telemetry::Json_parse_result parsed = telemetry::parse_json(json);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.value.at("fabric").at("counters").at("plays.completed").as_int(), 12);
}

TEST(JsonFuzz, SeededRandomBytesParseOrNameAnOffset)
{
    static constexpr char k_tokens[] = "{}[]\":,.-+eE0123456789 \t\n\\/ubfnrtaels";
    Rng rng{41};
    for (int trial = 0; trial < 4000; ++trial) {
        std::string text(static_cast<std::size_t>(rng.below(96)), '\0');
        const bool json_like = rng.chance(0.7);
        for (auto& c : text) {
            c = json_like ? k_tokens[rng.below(sizeof k_tokens - 1)]
                          : static_cast<char>(rng.below(256));
        }
        parse_exact(text);
    }
}

TEST(JsonFuzz, EveryTruncationOfAnExportIsRejected)
{
    const std::string json = exported_snapshot();
    for (std::size_t cut = 0; cut < json.size(); ++cut) {
        SCOPED_TRACE("cut at " + std::to_string(cut));
        const std::string head = json.substr(0, cut);
        parse_exact(head);
        // Only a cut through trailing whitespace could still be a document.
        if (json.find_first_not_of(" \t\r\n", cut) != std::string::npos) {
            EXPECT_FALSE(telemetry::parse_json(head).ok);
        }
    }
}

TEST(JsonFuzz, SeededBitFlipsOfAnExportParseOrNameAnOffset)
{
    const std::string json = exported_snapshot();
    Rng rng{42};
    for (int trial = 0; trial < 3000; ++trial) {
        std::string text = json;
        for (int flips = 1 + static_cast<int>(rng.below(3)); flips > 0; --flips)
            text[rng.below(text.size())] ^= static_cast<char>(1U << rng.below(8));
        parse_exact(text);
    }
}

TEST(JsonFuzz, HostileShapesStayBounded)
{
    // Nesting far past the reader's depth cap must fail, not exhaust the stack.
    const std::string deep = std::string(100000, '[') + std::string(100000, ']');
    EXPECT_FALSE(telemetry::parse_json(deep).ok);
    // Numbers past the int64 range keep a clamped integer view.
    const telemetry::Json_parse_result huge = telemetry::parse_json("[1e300, -1e300]");
    ASSERT_TRUE(huge.ok) << huge.error;
    EXPECT_EQ(huge.value.array[0].as_int(), std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(huge.value.array[1].as_int(), std::numeric_limits<std::int64_t>::min());
    // An integer literal past int64 is an error, not a silent wrap.
    EXPECT_NE(telemetry::parse_json("[9223372036854775808]").error.find("bad integer"), std::string::npos);
    for (const char* text : {"\"\\u12", "\"\\", "-", "tru", "{\"a\"", "{\"a\":", "[1,", "1e", "\"\\uZZZZ\""})
        parse_exact(text);
}

} // namespace
