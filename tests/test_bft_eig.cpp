// EIG Byzantine agreement: termination, validity, agreement, and interactive
// consistency — under every generic attacker family, across (n, f) sweeps.
#include <gtest/gtest.h>

#include <cstdio>

#include "bft/attackers.h"
#include "bft/driver.h"
#include "bft/eig.h"

namespace {

using namespace ga::bft;
using ga::common::Bytes;
using ga::common::bytes_of;
using ga::common::Processor_id;
using ga::common::Rng;

Value val(const std::string& s)
{
    return bytes_of(s);
}

std::unique_ptr<Session> make_eig(int n, int f, Processor_id self, Value input)
{
    return std::make_unique<Eig_session>(n, f, self, std::move(input));
}

/// Build a system with `byz` attacker slots at the end; honest slot i proposes
/// inputs[i].
std::vector<Participant> build(int n, int f, const std::vector<Value>& inputs,
                               const std::function<std::unique_ptr<Attacker>(int slot)>& attacker,
                               int byz)
{
    std::vector<Participant> participants(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        if (i >= n - byz) {
            participants[static_cast<std::size_t>(i)].attacker = attacker(i);
        } else {
            participants[static_cast<std::size_t>(i)].session =
                make_eig(n, f, i, inputs[static_cast<std::size_t>(i)]);
        }
    }
    return participants;
}

void expect_agreement(const Drive_result& result)
{
    const Value* first = nullptr;
    for (const auto& decision : result.decisions) {
        if (!decision.has_value()) continue;
        if (first == nullptr) {
            first = &*decision;
        } else {
            EXPECT_EQ(*decision, *first);
        }
    }
}

// ---------------------------------------------------------------- basics

TEST(Eig, RequiresNGreaterThan3F)
{
    EXPECT_THROW(Eig_session(3, 1, 0, val("x")), ga::common::Contract_error);
    EXPECT_NO_THROW(Eig_session(4, 1, 0, val("x")));
}

TEST(Eig, AllHonestSameInputDecidesThatInput)
{
    const int n = 4;
    const int f = 1;
    std::vector<Participant> ps(n);
    for (int i = 0; i < n; ++i) ps[static_cast<std::size_t>(i)].session = make_eig(n, f, i, val("v"));
    const Drive_result result = drive(ps);
    EXPECT_EQ(result.rounds, f + 1);
    for (const auto& d : result.decisions) {
        ASSERT_TRUE(d.has_value());
        EXPECT_EQ(*d, val("v"));
    }
}

TEST(Eig, FZeroSingleRound)
{
    const int n = 3;
    std::vector<Participant> ps(n);
    for (int i = 0; i < n; ++i) ps[static_cast<std::size_t>(i)].session = make_eig(n, 0, i, val("z"));
    const Drive_result result = drive(ps);
    EXPECT_EQ(result.rounds, 1);
    for (const auto& d : result.decisions) EXPECT_EQ(*d, val("z"));
}

TEST(Eig, InteractiveConsistencyHonestSlotsCarryRealInputs)
{
    const int n = 7;
    const int f = 2;
    std::vector<Value> inputs;
    for (int i = 0; i < n; ++i) inputs.push_back(val("input-" + std::to_string(i)));
    std::vector<Participant> ps(n);
    for (int i = 0; i < n; ++i)
        ps[static_cast<std::size_t>(i)].session = make_eig(n, f, i, inputs[static_cast<std::size_t>(i)]);
    drive(ps);

    for (int i = 0; i < n; ++i) {
        const auto& vec =
            dynamic_cast<Eig_session&>(*ps[static_cast<std::size_t>(i)].session).agreed_vector();
        ASSERT_EQ(static_cast<int>(vec.size()), n);
        for (int j = 0; j < n; ++j)
            EXPECT_EQ(vec[static_cast<std::size_t>(j)], inputs[static_cast<std::size_t>(j)])
                << "processor " << i << " slot " << j;
    }
}

TEST(Eig, DecisionIsMajorityOfInputs)
{
    const int n = 4;
    const int f = 1;
    std::vector<Participant> ps(n);
    ps[0].session = make_eig(n, f, 0, val("a"));
    ps[1].session = make_eig(n, f, 1, val("a"));
    ps[2].session = make_eig(n, f, 2, val("a"));
    ps[3].session = make_eig(n, f, 3, val("b"));
    const Drive_result result = drive(ps);
    for (const auto& d : result.decisions) EXPECT_EQ(*d, val("a"));
}

TEST(Eig, DecisionBeforeCompletionThrows)
{
    Eig_session session{4, 1, 0, val("x")};
    EXPECT_THROW(session.decision(), ga::common::Contract_error);
    EXPECT_THROW(static_cast<void>(session.agreed_vector()), ga::common::Contract_error);
}

TEST(Eig, PairsInRoundGrowth)
{
    EXPECT_EQ(eig_pairs_in_round(5, 0), 1);
    EXPECT_EQ(eig_pairs_in_round(5, 1), 5);
    EXPECT_EQ(eig_pairs_in_round(5, 2), 20);
}

// ------------------------------------------------- attacker sweeps (TEST_P)

struct Sweep_param {
    int n;
    int f;
    const char* attacker;
};

class Eig_attack_sweep : public ::testing::TestWithParam<Sweep_param> {};

std::unique_ptr<Attacker> make_attacker(const std::string& kind, int n, int f, int slot,
                                        std::uint64_t seed)
{
    const Session_factory factory = [n, f, slot](Value input) {
        return std::make_unique<Eig_session>(n, f, slot, std::move(input));
    };
    if (kind == "silent") return std::make_unique<Silent_attacker>();
    if (kind == "garbage") return std::make_unique<Garbage_attacker>(Rng{seed});
    if (kind == "split-brain")
        return std::make_unique<Split_brain_attacker>(factory, val("evil-a"), val("evil-b"),
                                                      static_cast<Processor_id>(n / 2));
    if (kind == "mutating")
        return std::make_unique<Mutating_attacker>(factory, val("mut"), Rng{seed});
    throw std::runtime_error("unknown attacker kind");
}

TEST_P(Eig_attack_sweep, ValidityWithUnanimousHonestInputs)
{
    const auto [n, f, attacker] = GetParam();
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        std::vector<Value> inputs(static_cast<std::size_t>(n), val("good"));
        auto ps = build(n, f, inputs,
                        [&](int slot) { return make_attacker(attacker, n, f, slot, seed); }, f);
        const Drive_result result = drive(ps);
        for (int i = 0; i < n - f; ++i) {
            ASSERT_TRUE(result.decisions[static_cast<std::size_t>(i)].has_value());
            EXPECT_EQ(*result.decisions[static_cast<std::size_t>(i)], val("good"))
                << attacker << " seed " << seed;
        }
    }
}

TEST_P(Eig_attack_sweep, AgreementWithSplitHonestInputs)
{
    const auto [n, f, attacker] = GetParam();
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        std::vector<Value> inputs;
        for (int i = 0; i < n; ++i) inputs.push_back(i % 2 == 0 ? val("x") : val("y"));
        auto ps = build(n, f, inputs,
                        [&](int slot) { return make_attacker(attacker, n, f, slot, seed); }, f);
        const Drive_result result = drive(ps);
        expect_agreement(result);
    }
}

TEST_P(Eig_attack_sweep, HonestSlotsOfAgreedVectorSurviveAttack)
{
    const auto [n, f, attacker] = GetParam();
    std::vector<Value> inputs;
    for (int i = 0; i < n; ++i) inputs.push_back(val("in-" + std::to_string(i)));
    auto ps = build(n, f, inputs,
                    [&](int slot) { return make_attacker(attacker, n, f, slot, 7); }, f);
    drive(ps);
    // IC: all honest agree on the whole vector, and honest slots are exact.
    const std::vector<Value>* reference = nullptr;
    for (int i = 0; i < n - f; ++i) {
        const auto& vec =
            dynamic_cast<Eig_session&>(*ps[static_cast<std::size_t>(i)].session).agreed_vector();
        for (int j = 0; j < n - f; ++j)
            EXPECT_EQ(vec[static_cast<std::size_t>(j)], inputs[static_cast<std::size_t>(j)]);
        if (reference == nullptr) {
            reference = &vec;
        } else {
            EXPECT_EQ(vec, *reference);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, Eig_attack_sweep,
    ::testing::Values(Sweep_param{4, 1, "silent"}, Sweep_param{4, 1, "garbage"},
                      Sweep_param{4, 1, "split-brain"}, Sweep_param{4, 1, "mutating"},
                      Sweep_param{5, 1, "split-brain"}, Sweep_param{7, 2, "silent"},
                      Sweep_param{7, 2, "garbage"}, Sweep_param{7, 2, "split-brain"},
                      Sweep_param{7, 2, "mutating"}, Sweep_param{10, 3, "split-brain"}),
    [](const ::testing::TestParamInfo<Sweep_param>& info) {
        std::string name = "n" + std::to_string(info.param.n) + "_f" +
                           std::to_string(info.param.f) + "_" + info.param.attacker;
        for (auto& c : name)
            if (c == '-') c = '_';
        return name;
    });

// ------------------------------------------- golden differential (recorded)
//
// The digests below were recorded from the reference implementation that
// stored the EIG tree as a std::map<path, value> and resolved it with
// std::map<value, int> votes. The flat, arena-backed tree must reproduce
// every relayed payload, every agreed vector and every decision bit for bit:
// same relay order, first writer wins, the per-round pair clamp, pairs kept
// up to a decode fault, absent == empty == bottom.

namespace golden {

/// FNV-1a 64 over a stream of framed fields.
struct Digest {
    std::uint64_t state = 0xcbf29ce484222325ULL;

    void byte(std::uint8_t b)
    {
        state ^= b;
        state *= 0x100000001b3ULL;
    }
    void word(std::int64_t v)
    {
        for (int shift = 0; shift < 64; shift += 8)
            byte(static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> shift));
    }
    void blob(const Bytes& data)
    {
        word(static_cast<std::int64_t>(data.size()));
        for (const std::uint8_t b : data) byte(b);
    }
};

struct Digests {
    Digest messages;
    Digest agreed;
    Digest decisions;
};

/// Forwards to an Eig_session and folds every payload it emits.
class Recording_session final : public Ic_session {
public:
    Recording_session(std::unique_ptr<Eig_session> inner, Processor_id self, Digest& sink)
        : inner_{std::move(inner)}, self_{self}, sink_{&sink}
    {
    }

    [[nodiscard]] ga::common::Round total_rounds() const override { return inner_->total_rounds(); }
    Bytes message_for_round(ga::common::Round r) override
    {
        Bytes payload = inner_->message_for_round(r);
        sink_->word(self_);
        sink_->word(r);
        sink_->blob(payload);
        return payload;
    }
    void deliver_round(ga::common::Round r, const Round_payloads& payloads) override
    {
        inner_->deliver_round(r, payloads);
    }
    [[nodiscard]] bool done() const override { return inner_->done(); }
    [[nodiscard]] Value decision() const override { return inner_->decision(); }
    [[nodiscard]] const std::vector<Value>& agreed_vector() const override
    {
        return inner_->agreed_vector();
    }

private:
    std::unique_ptr<Eig_session> inner_;
    Processor_id self_;
    Digest* sink_;
};

void fold_outputs(const Ic_session& session, Digests& out)
{
    out.agreed.word(static_cast<std::int64_t>(session.agreed_vector().size()));
    for (const Value& value : session.agreed_vector()) out.agreed.blob(value);
    out.decisions.blob(session.decision());
}

/// One driven activation: f attackers of `kind` at the top slots, honest
/// inputs drawn from a small alphabet so majorities and ties both occur.
Digests attack_run(int n, int f, const std::string& kind, std::uint64_t seed)
{
    Digests d;
    Rng rng{seed * 7919 + static_cast<std::uint64_t>(n * 31 + f)};
    std::vector<Participant> ps(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto& p = ps[static_cast<std::size_t>(i)];
        if (i >= n - f && kind == "mutating-light") {
            // The stock mutator garbles nearly every byte, so its payloads die
            // at the pair clamp; a light touch gets corrupted pairs through.
            p.attacker = std::make_unique<Mutating_attacker>(
                [n, f, i](Value input) { return std::make_unique<Eig_session>(n, f, i, std::move(input)); },
                val("mut"), Rng{seed}, 0.02);
        } else if (i >= n - f) {
            p.attacker = make_attacker(kind, n, f, i, seed);
        } else {
            static const char* const alphabet[] = {"x", "y", "", "in-long-value"};
            Value input = val(alphabet[rng.below(4)]);
            if (rng.chance(0.3)) input = val("own-" + std::to_string(i));
            p.session = std::make_unique<Recording_session>(
                std::make_unique<Eig_session>(n, f, i, std::move(input)), i, d.messages);
        }
    }
    drive(ps);
    for (const auto& p : ps)
        if (p.session) fold_outputs(dynamic_cast<const Ic_session&>(*p.session), d);
    return d;
}

/// A plausible-but-hostile round-r payload from `sender`: well-formed pairs
/// mixed with every fault the decoder must absorb.
Bytes hostile_payload(Rng& rng, int n, int f, ga::common::Round r, Processor_id sender)
{
    using ga::common::put_u32;
    const std::int64_t limit = eig_pairs_in_round(n, r);
    Bytes out;
    std::uint32_t count = static_cast<std::uint32_t>(rng.below(static_cast<std::uint64_t>(limit) + 1));
    if (rng.chance(0.08)) count = static_cast<std::uint32_t>(limit + 1 + static_cast<std::int64_t>(rng.below(3)));
    put_u32(out, count);
    std::vector<std::uint32_t> last_path;
    for (std::uint32_t p = 0; p < count; ++p) {
        std::vector<std::uint32_t> path;
        if (!last_path.empty() && rng.chance(0.1)) {
            path = last_path; // duplicate path: first writer must win
        } else {
            int len = static_cast<int>(r);
            if (rng.chance(0.05)) len = static_cast<int>(rng.below(static_cast<std::uint64_t>(f) + 2));
            if (rng.chance(0.01)) len = f + 2; // over-long: decode fault
            std::vector<int> ids(static_cast<std::size_t>(n));
            for (int i = 0; i < n; ++i) ids[static_cast<std::size_t>(i)] = i;
            rng.shuffle(ids);
            for (int k = 0; k < len; ++k) {
                std::uint32_t id = static_cast<std::uint32_t>(ids[static_cast<std::size_t>(k) % ids.size()]);
                const double roll = rng.uniform01();
                if (roll < 0.03) id = static_cast<std::uint32_t>(n + static_cast<int>(rng.below(3)));
                else if (roll < 0.05) id = 0xffffffffU - static_cast<std::uint32_t>(rng.below(2));
                else if (roll < 0.08 && k > 0) id = path[0]; // repeated id
                else if (roll < 0.10) id = static_cast<std::uint32_t>(sender); // path through sender
                path.push_back(id);
            }
        }
        put_u32(out, static_cast<std::uint32_t>(path.size()));
        for (const std::uint32_t id : path) put_u32(out, id);
        static const char* const values[] = {"", "a", "b", "a", "ab", "in-long-value"};
        Bytes value = bytes_of(values[rng.below(6)]);
        if (rng.chance(0.05)) value = Bytes(static_cast<std::size_t>(rng.below(40)), 0x5a);
        ga::common::put_bytes(out, value);
        last_path = std::move(path);
    }
    if (rng.chance(0.15) && !out.empty()) out.resize(static_cast<std::size_t>(rng.below(out.size())));
    if (rng.chance(0.03)) out.push_back(0x01); // trailing junk is ignored
    return out;
}

Round_payloads hostile_round(Rng& rng, int n, int f, ga::common::Round r, Processor_id self,
                             const Bytes& own)
{
    Round_payloads payloads(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
        if (rng.chance(0.15)) continue; // absent sender
        if (s == self && rng.chance(0.7)) {
            payloads[static_cast<std::size_t>(s)] = own;
            continue;
        }
        payloads[static_cast<std::size_t>(s)] = hostile_payload(rng, n, f, r, s);
    }
    return payloads;
}

/// Drives one lone session with hostile payloads, on schedule (rounds
/// sometimes delivered twice) or with random out-of-schedule calls.
Digests hostile_run(int n, int f, std::uint64_t seed, int trials)
{
    Digests d;
    Rng rng{seed};
    for (int trial = 0; trial < trials; ++trial) {
        const Processor_id self = static_cast<Processor_id>(rng.below(static_cast<std::uint64_t>(n)));
        static const char* const inputs[] = {"a", "b", "", "in-long-value"};
        Recording_session session{std::make_unique<Eig_session>(n, f, self, val(inputs[rng.below(4)])),
                                  self, d.messages};
        if (rng.chance(0.7)) {
            for (ga::common::Round r = 0; r <= f; ++r) {
                const Bytes own = session.message_for_round(r);
                if (rng.chance(0.1)) (void)session.message_for_round(r); // repeated call
                const Round_payloads payloads = hostile_round(rng, n, f, r, self, own);
                if (rng.chance(0.1) && r < f) session.deliver_round(r, payloads); // held clock
                session.deliver_round(r, payloads);
            }
        } else {
            Bytes own;
            for (int op = 0; op < 3 * (f + 2); ++op) {
                const auto r = static_cast<ga::common::Round>(rng.between(-1, f + 1));
                if (rng.chance(0.5)) {
                    own = session.message_for_round(r);
                } else {
                    session.deliver_round(r, hostile_round(rng, n, f, r, self, own));
                }
            }
        }
        d.decisions.word(session.done() ? 1 : 0);
        if (session.done()) fold_outputs(session, d);
    }
    return d;
}

struct Record {
    int n;
    int f;
    const char* scenario; // attacker kind, or "hostile" for lone-session runs
    std::uint64_t messages;
    std::uint64_t agreed;
    std::uint64_t decisions;
};

Digests run_record(const Record& rec)
{
    const std::string scenario = rec.scenario;
    if (scenario == "hostile") return hostile_run(rec.n, rec.f, 0xe16ULL + static_cast<std::uint64_t>(rec.n), 150);
    Digests total;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const Digests d = attack_run(rec.n, rec.f, scenario, seed);
        total.messages.word(static_cast<std::int64_t>(d.messages.state));
        total.agreed.word(static_cast<std::int64_t>(d.agreed.state));
        total.decisions.word(static_cast<std::int64_t>(d.decisions.state));
    }
    return total;
}

// clang-format off
constexpr Record k_records[] = {
    {4, 1, "silent", 0x2e8337339581ae3aULL, 0xbfef8272a987b121ULL, 0xfad38364dd7bbd19ULL},
    {4, 1, "garbage", 0x2e8337339581ae3aULL, 0xbfef8272a987b121ULL, 0xfad38364dd7bbd19ULL},
    {4, 1, "split-brain", 0x0ab35e17590b0f1fULL, 0x61283f36d9eeacdeULL, 0xb267d7f032b40e0cULL},
    {4, 1, "mutating", 0x2e8337339581ae3aULL, 0xbfef8272a987b121ULL, 0xfad38364dd7bbd19ULL},
    {4, 1, "mutating-light", 0x65ebd9924681413bULL, 0x14b6a1632d6fcba7ULL, 0x02056fe3cdbdb4a6ULL},
    {5, 1, "silent", 0x35c185f5759d96a1ULL, 0x864a4a7d6ecd3e18ULL, 0x31eba1f141ac5b49ULL},
    {5, 1, "garbage", 0x35c185f5759d96a1ULL, 0x864a4a7d6ecd3e18ULL, 0x31eba1f141ac5b49ULL},
    {5, 1, "split-brain", 0x6eac3c74f23ed581ULL, 0x864a4a7d6ecd3e18ULL, 0x31eba1f141ac5b49ULL},
    {5, 1, "mutating", 0x35c185f5759d96a1ULL, 0x864a4a7d6ecd3e18ULL, 0x31eba1f141ac5b49ULL},
    {5, 1, "mutating-light", 0x5800a410699f6885ULL, 0x4c1354a1d9ec2546ULL, 0x31eba1f141ac5b49ULL},
    {7, 2, "silent", 0x243ee0cd89152abcULL, 0x5e58d093c41c87b6ULL, 0xb5dba23437fd28e6ULL},
    {7, 2, "garbage", 0x243ee0cd89152abcULL, 0x5e58d093c41c87b6ULL, 0xb5dba23437fd28e6ULL},
    {7, 2, "split-brain", 0x844ad810574188aeULL, 0x5e58d093c41c87b6ULL, 0xb5dba23437fd28e6ULL},
    {7, 2, "mutating", 0x243ee0cd89152abcULL, 0x5e58d093c41c87b6ULL, 0xb5dba23437fd28e6ULL},
    {7, 2, "mutating-light", 0x43892fa31ebf5931ULL, 0x6378fa64fedd697aULL, 0x100417d290fe6de3ULL},
    {10, 3, "silent", 0x4cb15d1283ae2c87ULL, 0xf4b7530f275efe65ULL, 0x8c210ff1b71db2abULL},
    {10, 3, "garbage", 0x4cb15d1283ae2c87ULL, 0xf4b7530f275efe65ULL, 0x8c210ff1b71db2abULL},
    {10, 3, "split-brain", 0x30096820806df662ULL, 0xbd40bf423559766dULL, 0xfef80b24de407289ULL},
    {10, 3, "mutating", 0x4cb15d1283ae2c87ULL, 0xf4b7530f275efe65ULL, 0x8c210ff1b71db2abULL},
    {10, 3, "mutating-light", 0xc876f69de3520bdaULL, 0xd06166d134f29ab3ULL, 0x842dc06541d34c47ULL},
    {1, 0, "hostile", 0x2ffd3a84955610bbULL, 0x9c4b7d4897d8cf76ULL, 0x294f6c46341f7ed6ULL},
    {3, 0, "hostile", 0xb3714aa5155b2cb0ULL, 0xfdd28845079511edULL, 0x04bde2f9b3e85f3eULL},
    {4, 1, "hostile", 0x1e8e3c820de7fd8bULL, 0x73cd52442ae8d882ULL, 0x0df80f5a4444b05cULL},
    {5, 1, "hostile", 0xd45d87b01dd99c3bULL, 0x0f090e51f2e244a0ULL, 0xa620507a8ca9fc04ULL},
    {7, 2, "hostile", 0x16bcee37e7eefff5ULL, 0x837ecac382678625ULL, 0x65a4ab4d5fee2705ULL},
};
// clang-format on

} // namespace golden

TEST(EigGolden, ReproducesRecordedPayloadsVectorsAndDecisions)
{
    for (const golden::Record& rec : golden::k_records) {
        SCOPED_TRACE("n=" + std::to_string(rec.n) + " f=" + std::to_string(rec.f) + " " + rec.scenario);
        const golden::Digests d = golden::run_record(rec);
        EXPECT_EQ(d.messages.state, rec.messages);
        EXPECT_EQ(d.agreed.state, rec.agreed);
        EXPECT_EQ(d.decisions.state, rec.decisions);
        if (d.messages.state != rec.messages || d.agreed.state != rec.agreed ||
            d.decisions.state != rec.decisions) {
            char line[160];
            std::snprintf(line, sizeof line, "{%d, %d, \"%s\", 0x%016llxULL, 0x%016llxULL, 0x%016llxULL}",
                          rec.n, rec.f, rec.scenario,
                          static_cast<unsigned long long>(d.messages.state),
                          static_cast<unsigned long long>(d.agreed.state),
                          static_cast<unsigned long long>(d.decisions.state));
            ADD_FAILURE() << "observed " << line;
        }
    }
}

} // namespace
