// The IC schedule's cross-pulse section buffer (authority::Ic_schedule_processor)
// under a delta = 4 frame schedule: sections are parsed as views into the
// inbox and folded into per-sender buffers — current phase only, newest round
// per sender, first copy within a round. One processor is driven pulse by
// pulse with hand-built inboxes (retransmissions, late copies, and a
// Byzantine sender that puts two different copies of one round into a single
// pulse), and a recording IC session captures exactly what each round
// delivers.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <tuple>

#include "authority/ic_schedule_processor.h"

namespace {

using namespace ga;
using common::Bytes;
using common::Processor_id;
using common::Pulse;
using common::Round;

constexpr int k_n = 4;
constexpr int k_f = 1;
constexpr int k_delta = 4;
constexpr int k_rounds = 2; // send rounds per activation

struct Delivery {
    int phase;
    Round round;
    bft::Round_payloads payloads;
};

/// Two-round session that logs every delivered round; its input is the
/// phase index, so each log entry names the phase it belongs to.
class Recording_session final : public bft::Ic_session {
public:
    Recording_session(int phase, std::vector<Delivery>* log) : phase_{phase}, log_{log} {}

    Round total_rounds() const override { return k_rounds; }
    Bytes message_for_round(Round r) override { return own_section(phase_, r); }
    void deliver_round(Round r, const bft::Round_payloads& payloads) override
    {
        log_->push_back({phase_, r, payloads});
        delivered_ = r + 1;
    }
    bool done() const override { return delivered_ >= k_rounds; }
    bft::Value decision() const override { return {}; }
    const std::vector<bft::Value>& agreed_vector() const override { return agreed_; }

    static Bytes own_section(int phase, Round r)
    {
        return Bytes{'o', static_cast<std::uint8_t>(phase), static_cast<std::uint8_t>(r)};
    }

private:
    int phase_;
    std::vector<Delivery>* log_;
    Round delivered_ = 0;
    std::vector<bft::Value> agreed_ = std::vector<bft::Value>(k_n);
};

class Probe final : public authority::Ic_schedule_processor {
public:
    explicit Probe(std::vector<Delivery>* log)
        : Ic_schedule_processor{0, k_n, k_f, /*n_phases=*/2,
                                [log](int, int, Processor_id, bft::Value input) {
                                    const int phase = input.empty() ? -1 : input[0];
                                    return std::make_unique<Recording_session>(phase, log);
                                },
                                common::Rng{1}, k_delta}
    {
    }

private:
    bft::Value phase_input(int phase, Pulse) override
    {
        return Bytes{static_cast<std::uint8_t>(phase)};
    }
    void process_phase_result(int, Pulse) override {}
    void corrupt_state(common::Rng&) override {}
};

/// One scripted arrival: a sender's message queued at `sent_at`, optionally
/// carrying a section (phase, round, bytes).
struct Arrival {
    Processor_id from;
    Pulse sent_at;
    std::optional<std::tuple<int, Round, Bytes>> section;
};

Bytes section_of(const char* text) { return common::bytes_of(text); }

/// Drives the probe through `pulses` pulses. Every pulse, each other sender
/// beacons the clock the probe itself held one pulse earlier (a synchronized
/// group); `script(p)` adds the scripted arrivals of pulse p after them, in
/// inbox order. Message clocks follow their own sent_at, as an honest
/// sender's would.
std::vector<Delivery> drive(int pulses, const std::function<std::vector<Arrival>(Pulse)>& script)
{
    std::vector<Delivery> log;
    Probe probe{&log};
    std::vector<int> clocks; // the probe's broadcast clock per pulse
    const std::vector<Processor_id> neighbors{1, 2, 3};
    for (Pulse p = 0; p < pulses; ++p) {
        const auto message = [&](Processor_id from, Pulse sent_at,
                                 const std::optional<std::tuple<int, Round, Bytes>>& section) {
            Bytes payload;
            common::put_u32(payload,
                            static_cast<std::uint32_t>(clocks[static_cast<std::size_t>(sent_at)]));
            payload.push_back(section ? 1 : 0);
            if (section) {
                payload.push_back(static_cast<std::uint8_t>(std::get<0>(*section)));
                common::put_u32(payload, static_cast<std::uint32_t>(std::get<1>(*section)));
                common::put_bytes(payload, std::get<2>(*section));
            }
            return sim::Message{from, 0, common::Shared_payload{std::move(payload)}, sent_at};
        };
        std::vector<sim::Message> inbox;
        if (p > 0) {
            for (const Processor_id from : neighbors) inbox.push_back(message(from, p - 1, {}));
        }
        for (const Arrival& a : script(p)) inbox.push_back(message(a.from, a.sent_at, a.section));
        std::vector<sim::Message> outbox;
        sim::Pulse_context ctx{p, 0, k_n, &neighbors, &inbox, &outbox};
        probe.on_pulse(ctx);
        clocks.push_back(probe.clock());
    }
    return log;
}

std::optional<Bytes> some(const char* text) { return section_of(text); }

// Clock value c holds for frame c (pulses 4c .. 4c+3); slot c-1 is phase
// (c-1)/3, round (c-1)%3. So phase 0 sends round 0 at pulses 4..7 (delivered
// at the boundary 8) and round 1 at 8..11 (delivered at 12); phase 1 sends
// round 0 at 16..19 (delivered at 20) and round 1 at 20..23 (delivered at 24).
TEST(IcSectionBuffer, FoldKeepsNewestRoundFirstCopyAndCurrentPhaseOnly)
{
    const auto script = [](Pulse p) -> std::vector<Arrival> {
        std::vector<Arrival> arrivals;
        const auto sec = [](int phase, Round r, const char* text) {
            return std::make_optional(std::make_tuple(phase, r, section_of(text)));
        };
        switch (p) {
        // ---- phase 0, round 0.
        case 5:
            arrivals.push_back({2, 4, sec(0, 0, "s2-r0")});
            break;
        case 6:
            // Byzantine: two different copies of one round in one pulse.
            arrivals.push_back({3, 5, sec(0, 0, "b-first")});
            arrivals.push_back({3, 5, sec(0, 0, "b-second")});
            arrivals.push_back({2, 5, sec(0, 0, "s2-r0")}); // retransmission
            break;
        case 7:
            arrivals.push_back({3, 6, sec(0, 0, "b-third")});     // same round: loses
            arrivals.push_back({3, 6, sec(1, 0, "b-otherphase")}); // other phase
            arrivals.push_back({3, 6, sec(0, 5, "b-badround")});   // out of range
            break;
        case 8:
            // Sender 1's first copies were lost; two late retransmissions
            // land on the delivery boundary itself.
            arrivals.push_back({1, 5, sec(0, 0, "s1-r0")});
            arrivals.push_back({1, 7, sec(0, 0, "s1-r0")});
            break;
        // ---- phase 0, round 1.
        case 9:
            arrivals.push_back({1, 8, sec(0, 1, "s1-r1")});
            arrivals.push_back({2, 8, sec(0, 1, "s2-r1")});
            arrivals.push_back({3, 8, sec(0, 1, "b-r1-a")});
            break;
        case 10:
            arrivals.push_back({2, 7, sec(0, 0, "s2-r0-late")}); // stale round
            arrivals.push_back({3, 9, sec(0, 0, "b-stale")});     // stale round
            break;
        case 11:
            arrivals.push_back({3, 10, sec(0, 1, "b-r1-b")}); // same round: loses
            break;
        // ---- phase 1, round 0: sender 1 stays silent for the whole phase.
        case 17:
            arrivals.push_back({2, 16, sec(1, 0, "p1-s2-r0")});
            arrivals.push_back({3, 16, sec(1, 0, "p1-b-r0")});
            arrivals.push_back({1, 15, sec(0, 1, "s1-r1-leftover")}); // previous phase
            break;
        case 18:
            // Byzantine sender runs ahead: a newer round replaces round 0.
            arrivals.push_back({3, 17, sec(1, 1, "p1-b-r1-early")});
            break;
        // ---- phase 1, round 1.
        case 21:
            arrivals.push_back({2, 20, sec(1, 1, "p1-s2-r1")});
            arrivals.push_back({3, 20, sec(1, 1, "p1-b-r1-late")}); // same round: loses
            break;
        default:
            break;
        }
        return arrivals;
    };

    const std::vector<Delivery> log = drive(26, script);
    ASSERT_EQ(log.size(), 4u);

    const auto expect = [&](std::size_t at, int phase, Round round,
                            const std::vector<std::optional<Bytes>>& senders) {
        SCOPED_TRACE("delivery " + std::to_string(at));
        EXPECT_EQ(log[at].phase, phase);
        EXPECT_EQ(log[at].round, round);
        ASSERT_EQ(log[at].payloads.size(), static_cast<std::size_t>(k_n));
        EXPECT_EQ(log[at].payloads[0], Recording_session::own_section(phase, round));
        for (std::size_t j = 1; j < senders.size() + 1; ++j)
            EXPECT_EQ(log[at].payloads[j], senders[j - 1]) << "sender " << j;
    };
    expect(0, 0, 0, {some("s1-r0"), some("s2-r0"), some("b-first")});
    expect(1, 0, 1, {some("s1-r1"), some("s2-r1"), some("b-r1-a")});
    // A new phase starts from an empty buffer; the run-ahead round 1 leaves
    // sender 3 without a round-0 section.
    expect(2, 1, 0, {std::nullopt, some("p1-s2-r0"), std::nullopt});
    expect(3, 1, 1, {std::nullopt, some("p1-s2-r1"), some("p1-b-r1-early")});
}

// A shorter section after a longer one reuses the sender's buffer: the fold
// replaces its contents exactly, leaving no tail of the earlier section.
TEST(IcSectionBuffer, ReplacedSectionLeavesNoStaleTail)
{
    const auto script = [](Pulse p) -> std::vector<Arrival> {
        const auto sec = [](int phase, Round r, const char* text) {
            return std::make_optional(std::make_tuple(phase, r, section_of(text)));
        };
        if (p == 5) return {{1, 4, sec(0, 0, "a-much-longer-round-zero-section")}};
        if (p == 9) return {{1, 8, sec(0, 1, "r1")}};
        if (p == 17) return {{1, 16, sec(1, 0, "")}};
        return {};
    };
    const std::vector<Delivery> log = drive(26, script);
    ASSERT_EQ(log.size(), 4u);
    EXPECT_EQ(log[0].payloads[1], some("a-much-longer-round-zero-section"));
    EXPECT_EQ(log[1].payloads[1], some("r1"));
    EXPECT_EQ(log[2].payloads[1], std::make_optional(Bytes{}));
    EXPECT_EQ(log[3].payloads[1], std::nullopt);
}

} // namespace
