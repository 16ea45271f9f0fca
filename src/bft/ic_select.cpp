#include "bft/ic_select.h"

#include "bft/eig.h"
#include "bft/parallel_ic.h"
#include "bft/phase_king.h"
#include "bft/turpin_coan.h"

namespace ga::bft {

Ic_factory ic_eig()
{
    return [](int n, int f, common::Processor_id self,
              Value input) -> std::unique_ptr<Ic_session> {
        return std::make_unique<Eig_session>(n, f, self, std::move(input));
    };
}

Ic_factory ic_parallel_phase_king()
{
    return [](int n, int f, common::Processor_id self,
              Value input) -> std::unique_ptr<Ic_session> {
        return std::make_unique<Parallel_ic_session>(
            n, f, self, std::move(input),
            [](int nn, int ff, common::Processor_id s, Value v) -> std::unique_ptr<Session> {
                return std::make_unique<Turpin_coan_session>(
                    nn, ff, s, std::move(v),
                    [](int n3, int f3, common::Processor_id s3,
                       int b) -> std::unique_ptr<Session> {
                        return std::make_unique<Phase_king_session>(n3, f3, s3, b);
                    });
            });
    };
}

Ic_factory choose_ic(int n, int f)
{
    // E7 crossover (bench_bap_scaling, BM_authority_play, 4-core box): EIG
    // wins at f = 1 (~0.16 vs 0.52 ms/play at n = 5). At n = 9, f = 2 the two
    // tie on time (~2.5 vs 2.6 ms/play) and parallel-IC sends 2.7x fewer
    // bytes (328 194 vs 890 802 per play) — but it only exists for n > 4f.
    if (f >= 2 && n > 4 * f) return ic_parallel_phase_king();
    return ic_eig();
}

} // namespace ga::bft
