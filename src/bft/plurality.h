// Plurality vote over agreement values, shared by the sessions that reduce
// a vector of values to one.
#ifndef GA_BFT_PLURALITY_H
#define GA_BFT_PLURALITY_H

#include "bft/session.h"

namespace ga::bft {

/// A vote's winner: `value` points into the voted vector (nullptr when it
/// was empty) and `count` is how often the winner occurs.
struct Plurality {
    const Value* value = nullptr;
    int count = 0;
};

/// The most frequent value in `values`, leaving out empty (bottom) values
/// when `skip_bottom` is set; ties go to the lexicographically smallest, the
/// order a std::map<Value, int> tally visits them in.
[[nodiscard]] Plurality plurality(const std::vector<Value>& values, bool skip_bottom);

} // namespace ga::bft

#endif // GA_BFT_PLURALITY_H
