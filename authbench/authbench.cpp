// authbench: one benchmark for the whole authority stack.
//
//   authbench --workload <front_door|batched_adversary> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <path>]
//
// Both workloads are open loops through the public shard::Fabric API: 32
// independent bursty clients submit plays, ingest windows fall due on the
// wall clock, and each submission is timed from when its first attempt was
// due until the pump that served it returns. Times are read on the active
// clock, which stops during the benchmark's pacing (a host-speed probe and a
// sleep before each window), so they are the program's time, and are scaled
// by the probe to a reference host speed (Host_probe). Every input comes from --seed (which agents cheat, arrival
// order and burst gates, net fault streams). A run repeats rounds of a fixed
// amount of work until --seconds are used; each round builds its fabric
// cold, so set-up time is sampled per round and peak RSS is that of one
// round's work, not of the run length.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs round 0 of the
// seed several times (untraced, traced, telemetry flipped, a wide executor,
// the other wire transport), steps one fabric pulse by pulse, and turns
// wall-clock spans recorded here, around public calls only, into the
// per-layer metrics. Nothing under src/ is instrumented for this.
//
// Every round's outputs are checked; a failed check prints the result with
// "correct": false and exits 1. The last stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "authority/local_authority.h"
#include "authority/punishment.h"
#include "common/rng.h"
#include "ingest/workload.h"
#include "shard/fabric.h"
#include "telemetry/export.h"

namespace {

using namespace ga;
using Clock = std::chrono::steady_clock;

double secs(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

// ------------------------------------------------------------------ Spans

/// One wall-clock span around a call into a layer's public API. `key` is the
/// submission ordinal, window index or step the span belongs to.
struct Span {
    const char* name = "";
    std::int64_t id = 0;
    std::int64_t parent = 0;
    std::int64_t key = 0;
    double start = 0.0; ///< seconds since the recorder's origin
    double end = -1.0;
};

/// In-memory span recorder; written out once when the run ends.
class Spans {
public:
    explicit Spans(Clock::time_point origin) : origin_{origin} {}

    std::int64_t open(const char* name, std::int64_t parent, std::int64_t key)
    {
        Span s;
        s.name = name;
        s.id = static_cast<std::int64_t>(spans_.size()) + 1;
        s.parent = parent;
        s.key = key;
        s.start = secs(origin_, Clock::now());
        spans_.push_back(s);
        return s.id;
    }

    void close(std::int64_t id)
    {
        spans_[static_cast<std::size_t>(id - 1)].end = secs(origin_, Clock::now());
    }

    [[nodiscard]] const std::vector<Span>& all() const { return spans_; }

private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/// Opens a span on a possibly-null recorder and closes it at scope exit.
class Scope {
public:
    Scope(Spans* spans, const char* name, std::int64_t parent = 0, std::int64_t key = 0)
        : spans_{spans}, id_{spans != nullptr ? spans->open(name, parent, key) : 0}
    {
    }
    ~Scope()
    {
        if (spans_ != nullptr) spans_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] std::int64_t id() const { return id_; }

private:
    Spans* spans_;
    std::int64_t id_;
};

/// Spans named "bench.*" are the benchmark's own loop; every other span wraps
/// a call into a layer of the program.
bool is_layer_span(const Span& s)
{
    return std::string_view{s.name}.substr(0, 6) != "bench.";
}

// -------------------------------------------------------------- Workloads

/// A workload's fixed shape; README.md gives the reasons for each value.
struct Spec {
    const char* name = "";
    int agents = 0;
    int shards = 0;
    int batch_k = 1;          ///< plays per shard per ingest window
    int inlet_capacity = 0;   ///< token refill per window
    int inlet_queue = 0;      ///< bounded backlog per shard
    int windows = 0;          ///< arrival windows per round (a drain follows)
    double windows_per_s = 0; ///< wall-clock window rate
    wire::Transport_kind transport = wire::Transport_kind::loopback;
    bool telemetry = false;   ///< the watchdog rides with it
    int delta = 1;
    double drop = 0.0;
    int cheaters_per_shard = 0;
};

Spec spec_of(const std::string& name)
{
    Spec w;
    if (name == "front_door") {
        w.name = "front_door";
        w.agents = 64;
        w.shards = 8;
        w.inlet_capacity = 2;
        w.inlet_queue = 8;
        w.windows = 320;
        w.windows_per_s = 35.0;
        w.transport = wire::Transport_kind::ring;
        w.telemetry = true;
    } else if (name == "batched_adversary") {
        w.name = "batched_adversary";
        w.agents = 40;
        w.shards = 4;
        w.batch_k = 8;
        w.inlet_capacity = 16;
        w.inlet_queue = 64;
        w.windows = 120;
        w.windows_per_s = 20.0;
        w.delta = 4;
        w.drop = 0.01;
        w.cheaters_per_shard = 1;
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }
    return w;
}

/// Everything a round's fabric receives from the seed.
struct Inputs {
    std::uint64_t fabric_seed = 0;
    std::uint64_t net_seed = 0;
    std::uint64_t load_seed = 0;
    std::set<common::Agent_id> cheaters;
    std::vector<common::Agent_id> targets; ///< arrival order over all agents
};

/// Round `round` of seed `seed`: behaviour assignment and arrival order are
/// drawn per round, so a run averages over several.
Inputs make_inputs(const Spec& w, std::uint64_t seed, int round)
{
    const std::uint64_t base =
        common::derive_seed(seed, "authbench", static_cast<std::uint64_t>(round));
    Inputs in;
    in.fabric_seed = common::derive_seed(base, "fabric");
    in.net_seed = common::derive_seed(base, "net");
    in.load_seed = common::derive_seed(base, "load");
    common::Rng rng{common::derive_seed(base, "roles")};
    const shard::Shard_map map{w.agents, w.shards};
    for (int s = 0; s < w.shards; ++s) {
        std::vector<common::Agent_id> members = map.members(s);
        rng.shuffle(members);
        in.cheaters.insert(members.begin(), members.begin() + w.cheaters_per_shard);
    }
    for (common::Agent_id g = 0; g < w.agents; ++g) in.targets.push_back(g);
    rng.shuffle(in.targets);
    return in;
}

/// Two-action dominant-strategy game sized to its shard's population.
class Dominant_game final : public game::Strategic_game {
public:
    explicit Dominant_game(int n) : n_{n} {}
    int n_agents() const override { return n_; }
    int n_actions(common::Agent_id) const override { return 2; }
    double cost(common::Agent_id i, const game::Pure_profile& p) const override
    {
        return p[static_cast<std::size_t>(i)] == 1 ? 1.0 : 2.0;
    }

private:
    int n_;
};

authority::Game_spec dominant_spec(int n)
{
    authority::Game_spec spec;
    spec.name = "dominant";
    spec.game = std::make_shared<Dominant_game>(n);
    spec.equilibrium.assign(static_cast<std::size_t>(n), {0.0, 1.0});
    return spec;
}

/// Per-round knobs the traced run flips against the workload's defaults.
struct Variant {
    int threads = 1;
    wire::Transport_kind transport = wire::Transport_kind::loopback;
    bool telemetry = false;
};

/// The measured runs use one executor thread. On a shared VM whose vCPUs the
/// host takes away for milliseconds at a time (steal), a fork-join over every
/// vCPU waits for the slowest one at each pulse, and its time swung by 2x
/// between runs minutes apart; one thread slows only by its own share of the
/// steal (README.md). The traced run measures the fan-out (wide_threads).
Variant default_variant(const Spec& w)
{
    Variant v;
    v.transport = w.transport;
    v.telemetry = w.telemetry;
    return v;
}

/// The executor width the traced run compares against one thread.
int wide_threads(const Spec& w)
{
    const int hw = std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
    return std::min(hw, w.shards);
}

ingest::Ingest_config inlet_of(const Spec& w)
{
    ingest::Ingest_config front;
    front.capacity = w.inlet_capacity;
    front.queue_capacity = w.inlet_queue;
    front.priorities = 2;
    return front;
}

/// The front door's clients. Each is its own Open_loop_load with its own burst
/// gate: independent users burst independently. (One gate shared by all 32
/// made a run's tail latency hinge on a handful of long closed streaks; its
/// p99 varied by 0.45 of the median across seeds — README.md.)
constexpr int k_clients = 32;

/// Capped-exponential retries; 12 attempts leave no submission abandoned on
/// either workload.
ingest::Retry_policy client_retry()
{
    ingest::Retry_policy retry;
    retry.base_windows = 1;
    retry.cap_windows = 16;
    retry.max_attempts = 12;
    return retry;
}

/// Client `p`: every k_clients-th target of the seeded order, at 1/k_clients
/// of 0.75x the service rate (batch_k plays per shard per window). Its
/// submissions carry client id p and priority class p % 2 (run_round).
ingest::Workload_config client_load(const Spec& w, const Inputs& in, int p)
{
    ingest::Workload_config wl;
    wl.clients = 1;
    for (std::size_t i = static_cast<std::size_t>(p); i < in.targets.size(); i += k_clients) {
        wl.targets.push_back(in.targets[i]);
    }
    wl.rate_num = 3 * w.shards * w.batch_k;
    wl.rate_den = 4 * k_clients;
    wl.seed = common::derive_seed(in.load_seed, static_cast<std::uint64_t>(p));
    wl.burst_period = 4;
    wl.burst_duty = 0.5;
    wl.retry = client_retry();
    return wl;
}

std::unique_ptr<shard::Fabric> make_fabric(const Spec& w, const Inputs& in, const Variant& v)
{
    shard::Fabric_config c;
    c.f = 1;
    c.spec_factory = [](int, const std::vector<common::Agent_id>& members) {
        return dominant_spec(static_cast<int>(members.size()));
    };
    // Fined on every foul, never expelled: the judicial path stays hot.
    c.punishment = [] { return std::make_unique<authority::Fine_scheme>(1.0, 1e9); };
    c.seed = in.fabric_seed;
    c.threads = v.threads;
    c.net.delta = w.delta;
    c.net.drop = w.drop;
    c.net.seed = in.net_seed;
    c.transport.kind = v.transport;
    c.batch_k = w.batch_k;
    c.telemetry = v.telemetry;
    if (v.telemetry) c.watchdog = telemetry::Watchdog_config{};
    c.ingest = inlet_of(w);
    std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors;
    for (common::Agent_id g = 0; g < w.agents; ++g) {
        if (in.cheaters.count(g) != 0) {
            behaviors.push_back(std::make_unique<authority::Fixed_action_behavior>(0));
        } else {
            behaviors.push_back(std::make_unique<authority::Honest_behavior>());
        }
    }
    return std::make_unique<shard::Fabric>(shard::Shard_map{w.agents, w.shards},
                                           std::move(behaviors), std::move(c));
}

// ------------------------------------------------------------------ Rounds

/// Exact counts of one round: a pure function of (inputs, workload), so they
/// must agree across repeats, executor widths, transports and sink on/off.
struct Counts {
    std::int64_t plays = 0;
    sim::Traffic_stats traffic;
    std::int64_t fouls = 0;
    int disconnected = 0;
    ingest::Ingest_totals ingest;
    std::int64_t attempted = 0; ///< fresh submissions offered
    std::int64_t verdicts = 0;  ///< verdicts attributed to them
    std::int64_t abandoned = 0; ///< gave up after max attempts
    std::int64_t plays_due = 0; ///< plays the served windows must have agreed

    friend bool operator==(const Counts&, const Counts&) = default;
};

struct Round {
    std::vector<double> setup_s; ///< cold start to first verdict (cold_setup)
    std::vector<double> setup_probe_us; ///< the probe's step time before each
    double measured_s = 0.0;     ///< wall time of the measured phase
    double idle_s = 0.0;         ///< pacing (sleeps and probe) inside the measured phase
    double busy_s = 0.0;         ///< time inside submit and pump_ingest
    double wall_s = 0.0;         ///< whole round, set-up to harvest
    double probe_step_us = 0.0;  ///< the host probe's mean step time in this round
    std::vector<double> verdict_ms;      ///< first due -> verdict, pacing excluded
    std::vector<double> verdict_wall_ms; ///< the same span on the wall clock
    std::vector<double> pump_ms;
    std::vector<double> submit_us;
    std::vector<double> late_ms; ///< generator lateness per window
    double harvest_ms = 0.0;
    double export_ms = -1.0;
    Counts counts;
    telemetry::Snapshot telemetry; ///< merged fabric snapshot (telemetry on)
    std::vector<std::string> failures;

    /// Time the program was working in the measured phase (pacing excluded).
    [[nodiscard]] double active_s() const { return measured_s - idle_s; }
};

std::int64_t counter_of(const telemetry::Snapshot& snap, const std::string& name)
{
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

/// Host-speed probe. The recording box is a shared VM whose CPU speed drifts
/// by 10-30 % over minutes with its neighbours' load, at one thread and with
/// no steal (README.md). The probe runs a fixed step of integer hashing and
/// map updates, code the program does not share, for k_probe_s at the start
/// of every window's pacing and before every cold set-up, so it samples the
/// host's speed beside the program's work. The gated times are scaled by its
/// step time to what they would read at k_probe_ref_us a step: a slower host
/// slows both and cancels, a slower program does not.
class Host_probe {
public:
    void run(double seconds)
    {
        const auto start = Clock::now();
        double elapsed = 0.0;
        do {
            std::uint64_t h = 1469598103934665603ULL; // FNV-1a over the buffer
            for (std::uint64_t& e : buffer_) {
                x_ ^= x_ << 13;
                x_ ^= x_ >> 7;
                x_ ^= x_ << 17;
                e ^= x_;
                h = (h ^ e) * 1099511628211ULL;
            }
            for (std::uint64_t i = 0; i < 64; ++i) counts_[(h + i * 0x9e37U) & 0xffffU] += 1;
            if (counts_.size() > 4096) counts_.clear();
            steps_ += 1;
            elapsed = secs(start, Clock::now());
        } while (elapsed < seconds);
        seconds_ += elapsed;
    }

    [[nodiscard]] double step_us() const
    {
        return steps_ == 0 ? 0.0 : seconds_ * 1e6 / static_cast<double>(steps_);
    }

private:
    std::vector<std::uint64_t> buffer_ = std::vector<std::uint64_t>(2048, 1);
    std::map<std::uint64_t, int> counts_;
    std::uint64_t x_ = 0x9e3779b97f4a7c15ULL;
    std::int64_t steps_ = 0;
    double seconds_ = 0.0;
};

constexpr double k_probe_s = 0.001;       ///< per window
constexpr double k_setup_probe_s = 0.002; ///< before each cold set-up
/// The probe's typical step time on the recording box (README.md).
constexpr double k_probe_ref_us = 23.0;

/// Cold start to first verdict: construction, the boot pulse and one play
/// per shard (one k-play batch when pipelined). Repeated k_setups times per
/// round because one set-up is too short to time alone (a few ms); the last
/// fabric is the one the round measures.
constexpr int k_setups = 15;

std::unique_ptr<shard::Fabric> cold_setup(const Spec& w, const Inputs& in, const Variant& v,
                                          Spans* sp, Round& r)
{
    std::unique_ptr<shard::Fabric> fabric;
    for (int i = 0; i < k_setups; ++i) {
        fabric.reset();
        Host_probe probe;
        probe.run(k_setup_probe_s);
        r.setup_probe_us.push_back(probe.step_us());
        const auto start = Clock::now();
        {
            Scope s{sp, "shard.construct"};
            fabric = make_fabric(w, in, v);
        }
        {
            Scope s{sp, "shard.run_pulses"};
            fabric->run_pulses(1);
        }
        {
            Scope s{sp, "shard.run_plays"};
            fabric->run_plays(w.batch_k);
        }
        r.setup_s.push_back(secs(start, Clock::now()));
    }
    r.counts.plays_due = static_cast<std::int64_t>(w.shards) * w.batch_k;
    return fabric;
}

/// Harvest, export and the output checks of one round.
void finish_round(const Spec& w, const Inputs& in, const Variant& v, shard::Fabric& fabric,
                  Spans* sp, Round& r, Clock::time_point start)
{
    metrics::Fabric_metrics report;
    {
        Scope s{sp, "shard.harvest"};
        const auto t = Clock::now();
        report = fabric.report();
        r.harvest_ms = secs(t, Clock::now()) * 1e3;
    }
    r.counts.plays = report.total_plays;
    r.counts.traffic = report.total_traffic;
    r.counts.fouls = report.total_fouls;
    r.counts.disconnected = report.total_disconnected;
    r.counts.ingest = fabric.ingest_totals();
    if (v.telemetry) {
        Scope s{sp, "telemetry.export"};
        const auto t = Clock::now();
        const std::string json = telemetry::to_json(fabric.telemetry_report());
        r.export_ms = secs(t, Clock::now()) * 1e3;
        if (json.empty()) r.failures.push_back("telemetry export is empty");
        r.telemetry = report.telemetry;
        if (const std::int64_t d = counter_of(r.telemetry, "outcome.divergence"); d != 0) {
            r.failures.push_back("honest replicas diverged " + std::to_string(d) + " times");
        }
    }
    {
        Scope s{sp, "shard.standings"};
        for (common::Agent_id g = 0; g < w.agents; ++g) {
            const authority::Standing st = fabric.agent_standing(g);
            const bool cheater = in.cheaters.count(g) != 0;
            if (!cheater && st.fouls != 0) {
                r.failures.push_back("honest agent " + std::to_string(g) + " has " +
                                     std::to_string(st.fouls) + " fouls");
            }
            if (cheater && st.fouls == 0) {
                r.failures.push_back("cheater " + std::to_string(g) + " was never fouled");
            }
        }
    }
    if (report.total_disconnected != 0) {
        r.failures.push_back(std::to_string(report.total_disconnected) +
                             " agents expelled; the workloads fine and never expel");
    }
    const ingest::Ingest_totals& t = r.counts.ingest;
    if (!(t.completed == t.served && t.served == r.counts.verdicts)) {
        r.failures.push_back("completed " + std::to_string(t.completed) + ", served " +
                             std::to_string(t.served) + ", attributed " +
                             std::to_string(r.counts.verdicts) + " disagree");
    }
    if (report.total_plays != r.counts.plays_due) {
        r.failures.push_back(std::to_string(report.total_plays) + " plays agreed, " +
                             std::to_string(r.counts.plays_due) + " due");
    }
    if (r.counts.attempted - r.counts.verdicts != r.counts.abandoned) {
        r.failures.push_back("submissions still in flight after the drain");
    }
    r.wall_s = secs(start, Clock::now());
}

/// The round's pacing intervals on the wall clock (each window's host probe and
/// sleep), so a time stamp can be moved to the active clock: wall time minus
/// the pacing before it. A span on the active clock is the time the program
/// worked (or the benchmark drove it) within it.
class Pacing {
public:
    void paused(double from, double to)
    {
        before_.push_back(total());
        from_.push_back(from);
        to_.push_back(to);
    }

    [[nodiscard]] double total() const
    {
        return from_.empty() ? 0.0 : before_.back() + (to_.back() - from_.back());
    }

    [[nodiscard]] double active(double wall) const
    {
        const auto i = std::upper_bound(from_.begin(), from_.end(), wall) - from_.begin();
        if (i == 0) return wall;
        const auto k = static_cast<std::size_t>(i - 1);
        return wall - before_[k] - (std::min(wall, to_[k]) - from_[k]);
    }

private:
    std::vector<double> from_, to_, before_; ///< before_[k]: pacing before from_[k]
};


/// One round: cold set-up, `windows` paced arrival windows, then a drain with
/// no new arrivals until every submission is answered or abandoned. Windows
/// fall due on the wall clock whatever the fabric does (open loop).
Round run_round(const Spec& w, const Inputs& in, const Variant& v, Spans* sp)
{
    Round r;
    const auto start = Clock::now();
    const std::unique_ptr<shard::Fabric> fabric = cold_setup(w, in, v, sp, r);

    std::vector<ingest::Open_loop_load> loads;
    for (int p = 0; p < k_clients; ++p) loads.emplace_back(client_load(w, in, p));
    const int max_attempts = client_retry().max_attempts;
    const int priorities = inlet_of(w).priorities;
    const int n_shards = fabric->n_shards();
    // Each fresh submission goes out with its ordinal as client id (quotas are
    // off, so the id only keys the generator's retry streams) and comes back
    // with it on every retry. first_due[ordinal]: when its first attempt was
    // due, as (wall, active) seconds after t0.
    std::vector<std::pair<double, double>> first_due;
    // Per-shard FIFO of admitted ordinals: inlets serve FIFO, so the served
    // delta after a pump names them.
    std::vector<std::deque<std::int64_t>> fifo(static_cast<std::size_t>(n_shards));
    std::vector<std::int64_t> served_before(static_cast<std::size_t>(n_shards), 0);
    std::int64_t seq = 0;
    // Beyond this the drain has stalled: retries wait at most cap x 1.5 windows.
    const int drain_limit = 40 * client_retry().cap_windows;

    Pacing pacing;
    Host_probe probe;
    const double interval = 1.0 / w.windows_per_s;
    const auto t0 = Clock::now();
    for (std::int64_t t = 1;; ++t) {
        const bool arrivals = t <= w.windows;
        const std::int64_t in_flight = r.counts.attempted - r.counts.verdicts - r.counts.abandoned;
        if (!arrivals && in_flight == 0) break;
        if (t > w.windows + drain_limit) {
            r.failures.push_back("drain did not finish");
            break;
        }
        Scope window{sp, "bench.window", 0, t};
        const double due = static_cast<double>(t - 1) * interval;
        {
            Scope idle{sp, "bench.idle", window.id(), t};
            const double now = secs(t0, Clock::now());
            probe.run(k_probe_s);
            std::this_thread::sleep_until(
                t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(due)));
            pacing.paused(now, secs(t0, Clock::now()));
        }
        r.late_ms.push_back(std::max(0.0, secs(t0, Clock::now()) - due) * 1e3);

        std::vector<std::pair<int, ingest::Submission>> subs;
        {
            Scope s{sp, "ingest.tick", window.id(), t};
            for (int p = 0; p < k_clients; ++p) {
                for (const ingest::Submission& sub : loads[static_cast<std::size_t>(p)].tick(t)) {
                    subs.emplace_back(p, sub);
                }
            }
        }
        // Fresh arrivals of window t are spread evenly over the interval that
        // ends at its edge: a user submits at any moment and waits for the
        // next window, so verdict times are not quantised to the window grid.
        const auto fresh = static_cast<std::int64_t>(std::count_if(
            subs.begin(), subs.end(), [](const auto& x) { return x.second.attempt == 0; }));
        std::int64_t fresh_index = 0;
        for (auto& [p, sub] : subs) {
            if (sub.attempt == 0) {
                if (!arrivals) continue; // drain: no new arrivals
                sub.client = r.counts.attempted;
                sub.priority = p % priorities;
                r.counts.attempted += 1;
                const double at = due - interval + interval * static_cast<double>(++fresh_index) /
                                                       static_cast<double>(fresh);
                first_due.emplace_back(at, pacing.active(at));
            }
            ingest::Submit_result res;
            {
                Scope s{sp, "ingest.submit", window.id(), ++seq};
                const auto ts = Clock::now();
                res = fabric->submit(sub);
                const double dt = secs(ts, Clock::now());
                r.busy_s += dt;
                r.submit_us.push_back(dt * 1e6);
            }
            {
                Scope s{sp, "ingest.on_result", window.id(), seq};
                loads[static_cast<std::size_t>(p)].on_result(sub, res, t);
            }
            if (res.status == ingest::Submit_status::accepted ||
                res.status == ingest::Submit_status::queued) {
                fifo[static_cast<std::size_t>(fabric->map().shard_of(sub.agent))].push_back(
                    sub.client);
            } else if (sub.attempt + 1 >= max_attempts) {
                r.counts.abandoned += 1;
            }
        }
        double landed = 0.0;
        {
            Scope s{sp, "shard.pump", window.id(), t};
            const auto ts = Clock::now();
            (void)fabric->pump_ingest();
            const auto te = Clock::now();
            r.busy_s += secs(ts, te);
            r.pump_ms.push_back(secs(ts, te) * 1e3);
            landed = secs(t0, te);
        }
        const double landed_active = pacing.active(landed);
        for (int s = 0; s < n_shards; ++s) {
            const std::int64_t served = fabric->inlet(s).totals().served;
            const std::int64_t delta = served - served_before[static_cast<std::size_t>(s)];
            served_before[static_cast<std::size_t>(s)] = served;
            // A pipelined group always plays whole batches.
            if (delta > 0) r.counts.plays_due += (delta + w.batch_k - 1) / w.batch_k * w.batch_k;
            auto& q = fifo[static_cast<std::size_t>(s)];
            for (std::int64_t k = 0; k < delta; ++k) {
                if (q.empty()) {
                    r.failures.push_back("shard " + std::to_string(s) +
                                         " served a submission the matcher never admitted");
                    break;
                }
                const auto& [due_wall, due_active] = first_due[static_cast<std::size_t>(q.front())];
                r.verdict_ms.push_back((landed_active - due_active) * 1e3);
                r.verdict_wall_ms.push_back((landed - due_wall) * 1e3);
                q.pop_front();
                r.counts.verdicts += 1;
            }
        }
    }
    r.measured_s = secs(t0, Clock::now());
    r.idle_s = pacing.total();
    r.probe_step_us = probe.step_us();
    finish_round(w, in, v, *fabric, sp, r, start);
    return r;
}

// ------------------------------------------------------------ Statistics

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// `digits` significant digits; the result line uses every digit a double has.
std::string format_number(double x, int digits = 10)
{
    std::ostringstream o;
    o << std::setprecision(digits) << x;
    return o.str();
}

void print_metric(const Metric& m, const std::string& note = {})
{
    std::cout << "  " << std::left << std::setw(34) << m.name << std::right << std::setw(16)
              << format_number(m.value) << " " << m.unit;
    if (!note.empty()) std::cout << "   (" << note << ")";
    std::cout << "\n";
}

std::string metrics_json(const std::vector<Metric>& metrics)
{
    std::ostringstream o;
    o << "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        o << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
          << "\": {\"value\": "
          << format_number(metrics[i].value, std::numeric_limits<double>::max_digits10)
          << ", \"unit\": \""
          << metrics[i].unit << "\"}";
    }
    o << "}";
    return o.str();
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics)
{
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
}

/// How many of `n` samples lie beyond quantile q (the ten-beyond rule for
/// reporting a percentile).
std::string sample_note(std::size_t n, double q)
{
    const auto b = static_cast<std::int64_t>(std::floor(static_cast<double>(n) * (1.0 - q)));
    std::string note = std::to_string(n) + " samples, " + std::to_string(b) + " beyond";
    if (b < 10) note += "; fewer than 10 beyond, indicative only";
    return note;
}

// ------------------------------------------------------- End-to-end run

/// The end-to-end figures of a set of rounds, over all their samples pooled:
/// a round's figures depend on its arrival pattern, and pooling averages that
/// over every window of the run. Times are on the active clock (the
/// benchmark's pacing is left out, so every figure is time the program
/// worked) and scaled to the reference host speed by the probe (each round's
/// windows by that round's mean step, each set-up by the step just before it).
struct Summary {
    std::vector<Metric> metrics;
    std::vector<Metric> raw;  ///< the same times as measured, unscaled
    std::vector<Metric> wall; ///< the verdict percentiles with pacing left in
    std::vector<double> verdict_ms;
    std::vector<std::string> failures;
    double measured = 0.0;
    double active = 0.0;
    double probe_step_us = 0.0; ///< median over the rounds
    std::int64_t attempted = 0;
    std::int64_t verdicts = 0;
    std::size_t setups = 0; ///< cold set-ups timed
};

Summary summarise(const std::vector<const Round*>& rounds)
{
    Summary u;
    std::vector<double> raw_verdict_ms;
    std::vector<double> wall;
    std::vector<double> setup;
    std::vector<double> raw_setup;
    std::vector<double> steps;
    double scaled_active = 0.0;
    for (const Round* r : rounds) {
        const double scale = k_probe_ref_us / r->probe_step_us;
        for (const double ms : r->verdict_ms) u.verdict_ms.push_back(ms * scale);
        for (std::size_t i = 0; i < r->setup_s.size(); ++i) {
            setup.push_back(r->setup_s[i] * k_probe_ref_us / r->setup_probe_us[i]);
        }
        raw_verdict_ms.insert(raw_verdict_ms.end(), r->verdict_ms.begin(), r->verdict_ms.end());
        raw_setup.insert(raw_setup.end(), r->setup_s.begin(), r->setup_s.end());
        wall.insert(wall.end(), r->verdict_wall_ms.begin(), r->verdict_wall_ms.end());
        steps.push_back(r->probe_step_us);
        u.measured += r->measured_s;
        u.active += r->active_s();
        scaled_active += r->active_s() * scale;
        u.attempted += r->counts.attempted;
        u.verdicts += r->counts.verdicts;
        u.failures.insert(u.failures.end(), r->failures.begin(), r->failures.end());
    }
    u.setups = setup.size();
    u.probe_step_us = median(steps);
    const auto verdicts = static_cast<double>(u.verdicts);
    u.metrics = {
        {"plays_per_s", verdicts / scaled_active, "1/s"},
        {"verdict_ms_p50", quantile(u.verdict_ms, 0.50), "ms"},
        {"verdict_ms_p90", quantile(u.verdict_ms, 0.90), "ms"},
        {"verdict_ms_p99", quantile(u.verdict_ms, 0.99), "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"setup_s", median(setup), "s"},
    };
    u.raw = {
        {"raw_plays_per_s", verdicts / u.active, "1/s"},
        {"raw_verdict_ms_p50", quantile(raw_verdict_ms, 0.50), "ms"},
        {"raw_verdict_ms_p90", quantile(raw_verdict_ms, 0.90), "ms"},
        {"raw_verdict_ms_p99", quantile(raw_verdict_ms, 0.99), "ms"},
        {"raw_setup_s", median(raw_setup), "s"},
    };
    u.wall = {
        {"wall_verdict_ms_p50", quantile(wall, 0.50), "ms"},
        {"wall_verdict_ms_p90", quantile(wall, 0.90), "ms"},
        {"wall_verdict_ms_p99", quantile(wall, 0.99), "ms"},
    };
    return u;
}

int run_end_to_end(const Spec& w, std::uint64_t seed, double seconds)
{
    const auto run_start = Clock::now();
    const Variant v = default_variant(w);
    std::vector<Round> rounds;
    double longest = 0.0;
    do {
        const Inputs in = make_inputs(w, seed, static_cast<int>(rounds.size()));
        rounds.push_back(run_round(w, in, v, nullptr));
        longest = std::max(longest, rounds.back().wall_s);
    } while (secs(run_start, Clock::now()) + longest <= seconds);

    std::vector<const Round*> all;
    for (const Round& r : rounds) all.push_back(&r);
    const Summary u = summarise(all);
    const bool correct = u.failures.empty();
    const std::int64_t failed = correct ? u.attempted - u.verdicts : u.attempted;

    std::cout << "authbench " << w.name << " seed " << seed << ": " << rounds.size()
              << " rounds, " << u.verdicts << " verdicts in " << format_number(u.measured)
              << " s wall, " << format_number(u.active) << " s active, width " << v.threads
              << "\n";
    print_metric(u.metrics[0], "per active second at the reference host speed");
    print_metric(u.metrics[1], sample_note(u.verdict_ms.size(), 0.50));
    print_metric(u.metrics[2], sample_note(u.verdict_ms.size(), 0.90));
    print_metric(u.metrics[3], sample_note(u.verdict_ms.size(), 0.99));
    print_metric(u.metrics[4]);
    print_metric(u.metrics[5], "of " + std::to_string(u.setups) + " cold set-ups");
    std::cout << "  not gated: the probe's step took " << format_number(u.probe_step_us, 4)
              << " us (reference " << k_probe_ref_us << "); unscaled, and on the wall clock:\n";
    for (const Metric& m : u.raw) print_metric(m);
    print_metric({"wall_plays_per_s", static_cast<double>(u.verdicts) / u.measured, "1/s"},
                 "the offered load");
    for (std::size_t i = 0; i < 3; ++i) {
        const double pacing = 1.0 - u.raw[i + 1].value / u.wall[i].value;
        print_metric(u.wall[i], "pacing is " + format_number(pacing, 3) + " of it");
    }
    print_metric({"failed_ratio", static_cast<double>(failed) / static_cast<double>(u.attempted),
                  "ratio"},
                 std::to_string(failed) + " of " + std::to_string(u.attempted));
    for (const std::string& f : u.failures) std::cout << "CHECK FAILED: " << f << "\n";
    print_result(correct, u.attempted, failed, u.metrics);
    return correct ? 0 : 1;
}

// ------------------------------------------------------------ Traced run

/// Per-play wall time by schedule slot, from stepping one fabric pulse by
/// pulse. A window (one play, or one k-play batch) is `period` clock slots of
/// `delta` pulses: slots 0 and period-1 are wrap slack, slots 1..4*len the
/// outcome, commit, reveal and foul phases of `len` slots each.
struct Stepping {
    std::vector<double> pulse_ms;
    std::map<std::string, double> phase_ms; ///< per play
    std::int64_t mapped_pulses = 0;
    std::int64_t plays = 0; ///< per shard
    std::vector<std::string> failures;
};

Stepping step_pulses(const Spec& w, const Inputs& in, int windows, Spans* sp)
{
    Stepping st;
    const std::unique_ptr<shard::Fabric> fabric = make_fabric(w, in, default_variant(w));
    fabric->run_pulses(1);
    const authority::Authority_group& group = fabric->shard(0);
    const common::Pulse window_pulses = group.pulses_for_plays(w.batch_k);
    const int period = static_cast<int>(window_pulses / w.delta);
    const int len = (period - 2) / 4;
    if (period * w.delta != window_pulses || 4 * len + 2 != period) {
        st.failures.push_back("schedule: " + std::to_string(window_pulses) +
                              " pulses per window do not split into 4 phases and 2 wrap slots");
        return st;
    }
    // Align on the window edge, then skip one warm-up window.
    fabric->run_pulses(group.pulses_to_window_edge());
    fabric->run_pulses(window_pulses);
    const std::int64_t plays_before = fabric->report().total_plays;
    static const char* const k_phase[] = {"outcome", "commit", "reveal", "foul"};
    const common::Pulse total = window_pulses * windows;
    for (common::Pulse p = 0; p < total; ++p) {
        const int slot = static_cast<int>((p % window_pulses) / w.delta);
        const char* phase = (slot == 0 || slot == period - 1) ? "slack" : k_phase[(slot - 1) / len];
        Scope s{sp, "shard.run_pulses", 0, p};
        const auto t = Clock::now();
        fabric->run_pulses(1);
        const double ms = secs(t, Clock::now()) * 1e3;
        st.pulse_ms.push_back(ms);
        st.phase_ms[phase] += ms;
        st.mapped_pulses += 1;
    }
    st.plays = (fabric->report().total_plays - plays_before) / w.shards;
    if (st.plays != static_cast<std::int64_t>(windows) * w.batch_k) {
        st.failures.push_back("stepping: " + std::to_string(st.plays) + " plays per shard in " +
                              std::to_string(windows) + " windows");
        return st;
    }
    for (auto& entry : st.phase_ms) entry.second /= static_cast<double>(st.plays);
    return st;
}

/// Single-node baseline: Local_authority over one 32-agent group with one
/// fixed-action cheater, the size at which one replica group is the ceiling.
double local_play_us(std::uint64_t seed, int plays)
{
    constexpr int k_agents = 32;
    common::Rng rng{common::derive_seed(seed, "local")};
    const auto cheater = static_cast<common::Agent_id>(rng.below(k_agents));
    std::vector<std::unique_ptr<authority::Agent_behavior>> behaviors;
    for (common::Agent_id g = 0; g < k_agents; ++g) {
        if (g == cheater) {
            behaviors.push_back(std::make_unique<authority::Fixed_action_behavior>(0));
        } else {
            behaviors.push_back(std::make_unique<authority::Honest_behavior>());
        }
    }
    authority::Local_authority local{dominant_spec(k_agents), std::move(behaviors),
                                     std::make_unique<authority::Fine_scheme>(1.0, 1e9),
                                     common::Rng{common::derive_seed(seed, "local", 1)}};
    std::vector<double> us;
    for (int i = 0; i < plays; ++i) {
        const auto t = Clock::now();
        (void)local.play_round();
        us.push_back(secs(t, Clock::now()) * 1e6);
    }
    return median(us);
}

/// Self time of every span name: duration minus the part its children cover
/// (children of one parent never overlap — the loop is single-threaded).
std::map<std::string, double> self_times(const std::vector<Span>& spans)
{
    std::vector<double> child(spans.size() + 1, 0.0);
    for (const Span& s : spans) {
        if (s.parent > 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, double> self;
    for (const Span& s : spans) {
        self[s.name] += (s.end - s.start) - child[static_cast<std::size_t>(s.id)];
    }
    return self;
}

/// Chrome trace-event JSON (loadable in Perfetto) with the metrics attached.
bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<Metric>& metrics)
{
    std::ofstream out{path};
    if (!out) return false;
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << format_number(s.start * 1e6)
            << ", \"dur\": " << format_number((s.end - s.start) * 1e6)
            << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"key\": " << s.key << "}}";
    }
    out << "\n], \"metrics\": " << metrics_json(metrics) << "}\n";
    return static_cast<bool>(out);
}

double ratio(std::int64_t a, std::int64_t b)
{
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

int run_traced(const Spec& w, std::uint64_t seed, const std::string& spans_path)
{
    const Inputs in = make_inputs(w, seed, 0);
    const Variant base = default_variant(w);
    std::vector<std::string> failures;
    const auto collect = [&failures](const Round& r, const char* which) {
        for (const std::string& s : r.failures) failures.push_back(std::string{which} + ": " + s);
    };

    const Round untraced = run_round(w, in, base, nullptr);
    collect(untraced, "untraced");

    Spans spans{Clock::now()};
    const Round traced = run_round(w, in, base, &spans);
    collect(traced, "traced");
    const std::size_t traced_spans = spans.all().size();

    Variant flip_sink = base;
    flip_sink.telemetry = !base.telemetry;
    const Round sink = run_round(w, in, flip_sink, nullptr);
    collect(sink, "telemetry flipped");

    Variant fan_out = base;
    fan_out.threads = wide_threads(w);
    const Round wide = run_round(w, in, fan_out, nullptr);
    collect(wide, "wide executor");

    Variant flip_wire = base;
    flip_wire.transport = base.transport == wire::Transport_kind::ring
                              ? wire::Transport_kind::loopback
                              : wire::Transport_kind::ring;
    const Round wire_round = run_round(w, in, flip_wire, nullptr);
    collect(wire_round, "transport flipped");

    for (const auto& [round, which] :
         {std::pair{&traced, "traced"}, std::pair{&sink, "telemetry flipped"},
          std::pair{&wide, "wide executor"}, std::pair{&wire_round, "transport flipped"}}) {
        if (!(round->counts == untraced.counts)) {
            failures.push_back(std::string{"exact counts differ between untraced and "} + which);
        }
    }

    const Stepping st = step_pulses(w, in, 4, &spans);
    for (const std::string& f : st.failures) failures.push_back(f);
    const double local_us = local_play_us(seed, 200);

    const Round& on = base.telemetry ? untraced : sink;
    const Round& off = base.telemetry ? sink : untraced;
    const bool ring_base = base.transport == wire::Transport_kind::ring;
    const Round& ring = ring_base ? untraced : wire_round;
    const Round& loop = ring_base ? wire_round : untraced;
    const Counts& c = untraced.counts;
    const std::int64_t plays = c.plays;
    const telemetry::Snapshot& tel = on.telemetry;
    const auto hist = [&tel](const char* name) -> const telemetry::Histogram* {
        const auto it = tel.histograms.find(name);
        return it == tel.histograms.end() ? nullptr : &it->second;
    };
    const auto p50 = [](const telemetry::Histogram* h) {
        return h != nullptr ? static_cast<double>(h->p50()) : 0.0;
    };
    const telemetry::Histogram* wait = hist("ingest.submit_to_verdict_pulses");
    const telemetry::Histogram* batch_windows = hist("batch.window_pulses");

    // Layer spans over the traced round's working wall time (pacing excluded).
    double covered = 0.0;
    for (std::size_t i = 0; i < traced_spans; ++i) {
        const Span& s = spans.all()[i];
        if (is_layer_span(s)) covered += s.end - s.start;
    }

    // Steady state: every shard's boot pulse is set-up, not play work. The
    // slot-to-phase mapping must account for every pulse of every play.
    const double pulses_per_play = ratio(c.traffic.pulses - w.shards, plays);
    if (st.plays > 0 && std::abs(ratio(st.mapped_pulses, st.plays) - pulses_per_play) > 1e-9) {
        failures.push_back("slot-to-phase mapping covers " +
                           format_number(ratio(st.mapped_pulses, st.plays)) +
                           " pulses per play, harvested traffic " + format_number(pulses_per_play));
    }
    const auto phase = [&st](const char* name) {
        const auto it = st.phase_ms.find(name);
        return it == st.phase_ms.end() ? 0.0 : it->second;
    };

    const std::vector<Metric> metrics{
        {"shard.pump_ms_p50", quantile(traced.pump_ms, 0.50), "ms"},
        {"shard.pump_ms_p90", quantile(traced.pump_ms, 0.90), "ms"},
        {"shard.pump_ms_p99", quantile(traced.pump_ms, 0.99), "ms"},
        {"shard.busy_frac", traced.busy_s / traced.measured_s, "ratio"},
        {"shard.harvest_ms", traced.harvest_ms, "ms"},
        {"common.executor_speedup", untraced.active_s() / wide.active_s(), "ratio"},
        {"ingest.submit_us_p50", quantile(traced.submit_us, 0.50), "us"},
        {"ingest.submit_us_p99", quantile(traced.submit_us, 0.99), "us"},
        {"ingest.offered", static_cast<double>(c.ingest.offered), "count"},
        {"ingest.admitted", static_cast<double>(c.ingest.accepted + c.ingest.queued), "count"},
        {"ingest.shed", static_cast<double>(c.ingest.shed), "count"},
        {"ingest.retry_after", static_cast<double>(c.ingest.retry_after), "count"},
        {"ingest.abandoned", static_cast<double>(c.abandoned), "count"},
        {"ingest.queue_depth_max", static_cast<double>(c.ingest.queue_depth_max), "count"},
        {"ingest.wait_pulses_p50", p50(wait), "pulses"},
        {"ingest.wait_pulses_p99", wait != nullptr ? static_cast<double>(wait->p99()) : 0.0,
         "pulses"},
        {"ingest.late_ms_p99", quantile(traced.late_ms, 0.99), "ms"},
        {"sim.pulses_per_play", pulses_per_play, "pulses"},
        {"sim.msgs_per_play", ratio(c.traffic.messages, plays), "count"},
        {"sim.bytes_per_play", ratio(c.traffic.payload_bytes, plays), "bytes"},
        {"sim.pulse_ms_p50", median(st.pulse_ms), "ms"},
        {"sim.net_drop_ratio", ratio(c.traffic.dropped, c.traffic.messages), "ratio"},
        {"sim.net_delayed", static_cast<double>(c.traffic.delayed), "count"},
        {"authority.phase_ms.outcome", phase("outcome"), "ms"},
        {"authority.phase_ms.commit", phase("commit"), "ms"},
        {"authority.phase_ms.reveal", phase("reveal"), "ms"},
        {"authority.phase_ms.foul", phase("foul"), "ms"},
        {"authority.phase_ms.slack", phase("slack"), "ms"},
        {"authority.fouls_per_play", ratio(c.fouls, plays), "ratio"},
        {"authority.local_play_us", local_us, "us"},
        {"bft.ic_activations_per_play", ratio(counter_of(tel, "ic.activations"), plays), "ratio"},
        {"bft.ic_activation_pulses_p50", p50(hist("ic.activation_pulses")), "pulses"},
        {"pipeline.batches", static_cast<double>(counter_of(tel, "batches.completed")), "count"},
        {"pipeline.batch_audits",
         batch_windows != nullptr ? static_cast<double>(batch_windows->count()) : 0.0, "count"},
        {"wire.frames_per_play", ratio(counter_of(tel, "wire.frames"), plays), "count"},
        {"wire.bytes_per_play", ratio(counter_of(tel, "wire.bytes"), plays), "bytes"},
        {"wire.ring_cost", ring.active_s() / loop.active_s(), "ratio"},
        {"telemetry.sink_cost", on.active_s() / off.active_s(), "ratio"},
        {"telemetry.export_ms", on.export_ms, "ms"},
        {"trace.overhead", traced.active_s() / untraced.active_s(), "ratio"},
        {"trace.coverage", covered / (traced.wall_s - traced.idle_s), "ratio"},
    };

    std::cout << "authbench " << w.name << " seed " << seed << " traced: width " << base.threads
              << ", " << traced.pump_ms.size() << " windows, " << plays << " plays per round\n";
    for (const Metric& m : metrics) print_metric(m);
    // Known changes of the program's speed: the same logical round with one
    // knob flipped. Each end-to-end figure of it over the untraced round's
    // shows how far such a change moves the gated figures.
    const Summary at_base = summarise({&untraced});
    std::cout << "  end-to-end figures of a variant round over the untraced round:\n"
              << "    " << std::left << std::setw(20) << "variant" << std::right;
    for (const std::size_t i : {0, 1, 2, 3, 5}) {
        std::cout << std::setw(16) << at_base.metrics[i].name;
    }
    std::cout << "\n";
    const std::string wide_name = "width " + std::to_string(fan_out.threads);
    for (const auto& [round, which] :
         {std::pair{&sink, "telemetry flipped"}, std::pair{&wide, wide_name.c_str()},
          std::pair{&wire_round, "transport flipped"}}) {
        const Summary at = summarise({round});
        std::cout << "    " << std::left << std::setw(20) << which << std::right;
        for (const std::size_t i : {0, 1, 2, 3, 5}) {
            const double r = at.metrics[i].value / at_base.metrics[i].value;
            std::cout << std::setw(16) << format_number(r, 4);
        }
        std::cout << "\n";
    }
    std::cout << "  self time by span (traced round and stepping):\n";
    for (const auto& [name, s] : self_times(spans.all())) {
        std::cout << "    " << std::left << std::setw(22) << name << std::right << std::setw(14)
                  << format_number(s * 1e3) << " ms\n";
    }
    if (!spans_path.empty() && !write_spans(spans_path, spans.all(), metrics)) {
        failures.push_back("cannot write spans to " + spans_path);
    }
    for (const std::string& f : failures) std::cout << "CHECK FAILED: " << f << "\n";
    const bool correct = failures.empty();
    print_result(correct, c.attempted, correct ? c.attempted - c.verdicts : c.attempted,
                 metrics);
    return correct ? 0 : 1;
}

int usage()
{
    std::cerr << "usage: authbench --workload <front_door|batched_adversary> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>]\n";
    return 2;
}

} // namespace

int main(int argc, char** argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0) return usage();
        args[key.substr(2)] = argv[i + 1];
    }
    if (argc % 2 == 0 || args.count("workload") == 0 || args.count("seed") == 0 ||
        args.count("seconds") == 0 || args.count("trace") == 0) {
        return usage();
    }
    try {
        const Spec w = spec_of(args["workload"]);
        const std::uint64_t seed = std::stoull(args["seed"]);
        const double seconds = std::stod(args["seconds"]);
        const std::string trace = args["trace"];
        if (!(seconds > 0.0) || (trace != "0" && trace != "1")) return usage();
        return trace == "1" ? run_traced(w, seed, args["spans"])
                            : run_end_to_end(w, seed, seconds);
    } catch (const std::exception& e) {
        std::cerr << "authbench: " << e.what() << "\n";
        return 2;
    }
}
