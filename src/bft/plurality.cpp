#include "bft/plurality.h"

#include <algorithm>
#include <cstring>

namespace ga::bft {

namespace {

/// Byte-wise lexicographic order of two values (a shorter prefix first).
bool lexicographically_less(const Value& a, const Value& b)
{
    // Not std::vector's operator<: GCC 12 reports a -Wstringop-overread
    // false positive in the comparison that one inlines.
    const std::size_t shared = std::min(a.size(), b.size());
    if (shared > 0) {
        const int order = std::memcmp(a.data(), b.data(), shared);
        if (order != 0) return order < 0;
    }
    return a.size() < b.size();
}

bool same_bytes(const Value& a, const Value& b)
{
    return a.size() == b.size() && (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

} // namespace

Plurality plurality(const std::vector<Value>& values, bool skip_bottom)
{
    // The honest case needs neither a sort nor an allocation: every voter
    // agrees with the first.
    Plurality first;
    for (const Value& value : values) {
        if (skip_bottom && value.empty()) continue;
        if (first.value == nullptr) first.value = &value;
        if (!same_bytes(value, *first.value)) {
            first.count = -1;
            break;
        }
        ++first.count;
    }
    if (first.count >= 0) return first;

    // Otherwise sort the voters and take the longest run of equal values;
    // the first longest run is the lexicographically smallest winner.
    std::vector<const Value*> order;
    order.reserve(values.size());
    for (const Value& value : values)
        if (!(skip_bottom && value.empty())) order.push_back(&value);
    const auto less = [](const Value* a, const Value* b) { return lexicographically_less(*a, *b); };
    std::sort(order.begin(), order.end(), less);

    Plurality best;
    for (std::size_t i = 0; i < order.size();) {
        std::size_t j = i + 1;
        while (j < order.size() && same_bytes(*order[i], *order[j])) ++j;
        if (static_cast<int>(j - i) > best.count) best = Plurality{order[i], static_cast<int>(j - i)};
        i = j;
    }
    return best;
}

} // namespace ga::bft
