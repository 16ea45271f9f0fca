// Turpin-Coan multivalued reduction over phase-king: validity, agreement, and
// the default-on-divergence behaviour, under attackers.
#include <gtest/gtest.h>

#include "bft/attackers.h"
#include "bft/driver.h"
#include "bft/phase_king.h"
#include "bft/plurality.h"
#include "bft/turpin_coan.h"

namespace {

using namespace ga::bft;
using ga::common::bytes_of;
using ga::common::Processor_id;
using ga::common::Rng;

Binary_session_factory pk_factory()
{
    return [](int n, int f, Processor_id self, int input) -> std::unique_ptr<Session> {
        return std::make_unique<Phase_king_session>(n, f, self, input);
    };
}

std::unique_ptr<Session> make_tc(int n, int f, Processor_id self, Value input)
{
    return std::make_unique<Turpin_coan_session>(n, f, self, std::move(input), pk_factory());
}

TEST(TurpinCoan, RoundCountIsBinaryPlusTwo)
{
    Turpin_coan_session session{5, 1, 0, bytes_of("v"), pk_factory()};
    EXPECT_EQ(session.total_rounds(), 2 + 2 * 2);
}

TEST(TurpinCoan, UnanimousHonestInputsDecideThatValue)
{
    const int n = 5;
    const int f = 1;
    std::vector<Participant> ps(n);
    for (int i = 0; i < n; ++i)
        ps[static_cast<std::size_t>(i)].session = make_tc(n, f, i, bytes_of("commitments-hash"));
    const Drive_result result = drive(ps);
    for (const auto& d : result.decisions) EXPECT_EQ(*d, bytes_of("commitments-hash"));
}

TEST(TurpinCoan, FullyDivergentInputsAgreeOnDefault)
{
    const int n = 5;
    const int f = 1;
    std::vector<Participant> ps(n);
    for (int i = 0; i < n; ++i)
        ps[static_cast<std::size_t>(i)].session = make_tc(n, f, i, bytes_of(std::to_string(i)));
    const Drive_result result = drive(ps);
    const Value first = *result.decisions[0];
    for (const auto& d : result.decisions) EXPECT_EQ(*d, first);
    // No value had an n-f quorum, so the decision must be the default.
    EXPECT_TRUE(first.empty());
}

TEST(TurpinCoan, ValidityUnderGarbageAttacker)
{
    const int n = 5;
    const int f = 1;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        std::vector<Participant> ps(n);
        for (int i = 0; i < n - 1; ++i)
            ps[static_cast<std::size_t>(i)].session = make_tc(n, f, i, bytes_of("agree-on-me"));
        ps[n - 1].attacker = std::make_unique<Garbage_attacker>(Rng{seed});
        const Drive_result result = drive(ps);
        for (int i = 0; i < n - 1; ++i)
            EXPECT_EQ(*result.decisions[static_cast<std::size_t>(i)], bytes_of("agree-on-me"));
    }
}

TEST(TurpinCoan, AgreementUnderSplitBrainWithMixedInputs)
{
    const int n = 5;
    const int f = 1;
    const Session_factory factory = [&](Value input) {
        return make_tc(n, f, 4, std::move(input));
    };
    for (int split = 1; split < n; ++split) {
        std::vector<Participant> ps(n);
        for (int i = 0; i < n - 1; ++i)
            ps[static_cast<std::size_t>(i)].session =
                make_tc(n, f, i, i < 2 ? bytes_of("x") : bytes_of("y"));
        ps[n - 1].attacker = std::make_unique<Split_brain_attacker>(
            factory, bytes_of("x"), bytes_of("y"), static_cast<Processor_id>(split));
        const Drive_result result = drive(ps);
        const Value* first = nullptr;
        for (int i = 0; i < n - 1; ++i) {
            if (first == nullptr) {
                first = &*result.decisions[static_cast<std::size_t>(i)];
            } else {
                EXPECT_EQ(*result.decisions[static_cast<std::size_t>(i)], *first)
                    << "split=" << split;
            }
        }
    }
}

TEST(TurpinCoan, NearUnanimousQuorumStillWins)
{
    // 4 of 5 honest processors propose the same value; the attacker is silent.
    // n-f = 4 quorum is met, so the common value must win.
    const int n = 5;
    const int f = 1;
    std::vector<Participant> ps(n);
    for (int i = 0; i < n - 1; ++i)
        ps[static_cast<std::size_t>(i)].session = make_tc(n, f, i, bytes_of("quorum"));
    ps[n - 1].attacker = std::make_unique<Silent_attacker>();
    const Drive_result result = drive(ps);
    for (int i = 0; i < n - 1; ++i)
        EXPECT_EQ(*result.decisions[static_cast<std::size_t>(i)], bytes_of("quorum"));
}

TEST(TurpinCoan, LargerSystemSweep)
{
    const int n = 9;
    const int f = 2;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        std::vector<Participant> ps(n);
        for (int i = 0; i < n - 2; ++i)
            ps[static_cast<std::size_t>(i)].session = make_tc(n, f, i, bytes_of("w"));
        ps[n - 2].attacker = std::make_unique<Garbage_attacker>(Rng{seed});
        ps[n - 1].attacker = std::make_unique<Silent_attacker>();
        const Drive_result result = drive(ps);
        for (int i = 0; i < n - 2; ++i)
            EXPECT_EQ(*result.decisions[static_cast<std::size_t>(i)], bytes_of("w"));
    }
}

// The vote both reduction rounds (and the EIG / parallel-IC decisions) take:
// most frequent value, lexicographically smallest on ties.
TEST(Plurality, MostFrequentWinsAndTiesGoToTheSmallest)
{
    const auto vote = [](std::vector<std::string> texts, bool skip_bottom) {
        std::vector<Value> values;
        for (const auto& text : texts) values.push_back(bytes_of(text));
        const Plurality best = plurality(values, skip_bottom);
        return std::make_pair(best.value == nullptr ? std::string{"<none>"}
                                                    : std::string(best.value->begin(), best.value->end()),
                              best.count);
    };
    EXPECT_EQ(vote({}, false), std::make_pair(std::string{"<none>"}, 0));
    EXPECT_EQ(vote({"v", "v", "v"}, false), std::make_pair(std::string{"v"}, 3));
    EXPECT_EQ(vote({"b", "a", "b"}, false), std::make_pair(std::string{"b"}, 2));
    EXPECT_EQ(vote({"b", "a"}, false), std::make_pair(std::string{"a"}, 1));
    EXPECT_EQ(vote({"ab", "a", "ab", "a", "b"}, false), std::make_pair(std::string{"a"}, 2));
    EXPECT_EQ(vote({"\xff", "\x01", "\xff", "\x01"}, false), std::make_pair(std::string{"\x01"}, 2));
    EXPECT_EQ(vote({"", "", "x"}, false), std::make_pair(std::string{""}, 2));
    EXPECT_EQ(vote({"", "", "x"}, true), std::make_pair(std::string{"x"}, 1));
    EXPECT_EQ(vote({"", ""}, true), std::make_pair(std::string{"<none>"}, 0));
}

} // namespace
