// bench_engine — the event-core regression line: events/s of sim::Engine
// (arena-allocated EventFn callbacks + an (at, seq) heap) against a faithful
// copy of the pre-rebuild engine (std::function callbacks dispatched
// through a std::push_heap binary heap with per-event atomic metric
// updates), on ring and hold-model workloads over uniform, skewed, and
// degenerate timestamp distributions.
//
// Written to BENCH_engine.json: both engines' events/s per workload, the
// speedup, and the acceptance verdict (>= 3x on the 1M-event uniform
// deep hold model, where the pending set is at datacenter scale and the
// committed engine's log-n pointer-chasing heap hurts most). Every
// workload also cross-checks dispatch order: both
// engines must produce the same dispatch-time hash, the same total order
// the determinism suite relies on.
//
// Run with --smoke for a quick (100k-event) regression check; the CMake
// target `bench_engine_smoke` wires that into the build tree. Benchmark
// numbers are only meaningful in optimized builds (Release /
// RelWithDebInfo).
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace {

using namespace kooza;

// ---------------------------------------------------------------------------
// BaselineEngine: the committed engine before this rebuild, verbatim —
// std::function events (heap-allocating beyond the small-buffer
// optimization), a binary heap on (at, seq), and per-event atomic metric
// updates. Metrics go to bench.baseline.* so the copy does the same
// atomic work per event without polluting sim.engine.*.
// ---------------------------------------------------------------------------
class BaselineEngine {
public:
    using Time = sim::Time;

    [[nodiscard]] Time now() const noexcept { return now_; }

    void schedule_after(Time delay, std::function<void()> action) {
        push_event(now_ + delay, std::move(action));
    }

    std::uint64_t run() {
        std::uint64_t n = 0;
        while (live_ > 0 && step()) ++n;
        return n;
    }

private:
    struct Event {
        Time at = 0.0;
        std::uint64_t seq = 0;
        std::function<void()> action;
    };
    struct Later {
        bool operator()(const Event& a, const Event& b) const noexcept {
            if (a.at != b.at) return a.at > b.at;
            return a.seq > b.seq;
        }
    };

    void push_event(Time at, std::function<void()> action) {
        heap_.push_back(Event{at, next_seq_++, std::move(action)});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
        ++live_;
        auto& m = metrics();
        m.scheduled.add();
        m.depth.set(double(heap_.size()));
    }

    bool step() {
        if (heap_.empty()) return false;
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        Event ev = std::move(heap_.back());
        heap_.pop_back();
        now_ = ev.at;
        --live_;
        metrics().dispatched.add();
        ev.action();
        return true;
    }

    struct Metrics {
        obs::Counter& scheduled =
            obs::counter("bench.baseline.events_scheduled_total");
        obs::Counter& dispatched =
            obs::counter("bench.baseline.events_dispatched_total");
        obs::Gauge& depth = obs::gauge("bench.baseline.heap_depth");
    };
    static Metrics& metrics() {
        static Metrics m;
        return m;
    }

    Time now_ = 0.0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t live_ = 0;
    std::vector<Event> heap_;
};

// ---------------------------------------------------------------------------
// Workloads. Each initial event re-schedules itself with a fresh hold
// time until the dispatch budget is exhausted, so the queue sits at a
// constant depth — the classic hold model (and, at small depth, a token
// ring). The callback captures the 40-byte actor struct — the size of a
// typical simulator capture list (this + a few request fields) — which a
// 48-byte EventFn holds inline and std::function's 16-byte small-buffer
// optimization does not.
// ---------------------------------------------------------------------------

enum class Dist {
    kUniform,  ///< hold ~ U[0.5, 1.5) ms
    kSkewed,   ///< 90% U[0, 0.1) ms, 10% U[0, 100) ms
    kEqual,    ///< hold = 0: every event at one timestamp (degenerate)
};

// Hold draws come from an inline splitmix64 stream, not sim::Rng: both
// engines replay the identical sequence (the order cross-check depends on
// that), and the ~2 ns draw keeps the measured events/s about engine cost
// instead of mt19937 cost — the standard choice for hold-model scheduler
// benchmarks.
std::uint64_t next_u64(std::uint64_t& s) {
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}
double next_unit(std::uint64_t& s) {  // [0, 1)
    return double(next_u64(s) >> 11) * 0x1.0p-53;
}

template <typename Eng>
struct HoldActor {
    Eng* eng = nullptr;
    std::uint64_t* rng = nullptr;
    std::uint64_t* remaining = nullptr;
    std::uint64_t* hash = nullptr;
    Dist dist = Dist::kUniform;

    double draw() const {
        switch (dist) {
            case Dist::kUniform: return 0.5e-3 + next_unit(*rng) * 1.0e-3;
            case Dist::kSkewed: {
                const double u = next_unit(*rng);
                return u < 0.9 ? next_unit(*rng) * 0.1e-3
                               : next_unit(*rng) * 100e-3;
            }
            case Dist::kEqual: return 0.0;
        }
        return 0.0;
    }

    void fire() const {
        // Fold the dispatch time into an FNV-1a stream: identical hashes
        // mean both engines dispatched in the identical total order.
        *hash = (*hash ^ std::bit_cast<std::uint64_t>(eng->now())) *
                0x100000001b3ull;
        if (*remaining == 0) return;
        --*remaining;
        HoldActor self = *this;
        eng->schedule_after(draw(), [self] { self.fire(); });
    }
};

struct WorkloadResult {
    double events_per_s = 0.0;
    std::uint64_t order_hash = 0;
};

template <typename Eng>
WorkloadResult run_hold(std::size_t depth, std::uint64_t events, Dist dist,
                        std::uint64_t seed) {
    Eng eng;
    std::uint64_t rng = seed;
    std::uint64_t remaining = events;
    std::uint64_t hash = 0xcbf29ce484222325ull;
    HoldActor<Eng> actor{&eng, &rng, &remaining, &hash, dist};

    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < depth; ++i)
        eng.schedule_after(actor.draw(), [actor] { actor.fire(); });
    const std::uint64_t ran = eng.run();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    WorkloadResult r;
    r.events_per_s = double(ran) / wall;
    r.order_hash = hash;
    return r;
}

constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15ULL;

struct Workload {
    const char* name;
    std::size_t depth;
    Dist dist;
    bool acceptance;  ///< the >= 3x bar applies to this workload
};

constexpr Workload kWorkloads[] = {
    {"ring_depth64_uniform", 64, Dist::kUniform, false},
    {"hold_depth4096_uniform", 4096, Dist::kUniform, false},
    {"hold_depth16384_uniform", 16384, Dist::kUniform, false},
    {"hold_depth65536_uniform", 65536, Dist::kUniform, false},
    {"hold_depth262144_uniform", 262144, Dist::kUniform, true},
    {"hold_depth4096_skewed", 4096, Dist::kSkewed, false},
    {"hold_depth4096_equal_ts", 4096, Dist::kEqual, false},
};
constexpr double kRequiredSpeedup = 3.0;
// --smoke is a fast gross-regression tripwire, not the perf gate: 100k
// events cannot warm a depth-262144 queue (the fill would dominate the
// measurement), so deep workloads are skipped and the bar drops to a
// loose sanity threshold on the depth-4096 row. The >= 3x acceptance
// claim is only ever made by full runs.
constexpr double kRequiredSpeedupSmoke = 1.2;

const char* acceptance_workload(bool smoke) {
    if (smoke) return "hold_depth4096_uniform";
    for (const auto& w : kWorkloads)
        if (w.acceptance) return w.name;
    return "?";
}

struct Row {
    std::string name;
    std::uint64_t events = 0;
    double baseline_eps = 0.0;
    double engine_eps = 0.0;
    double speedup = 0.0;
    bool order_identical = false;
};

void write_json(const std::vector<Row>& rows, double accepted_speedup,
                bool pass, bool smoke) {
    std::ofstream f("BENCH_engine.json");
    f.precision(0);
    f << std::fixed;
    f << "{\n  \"schema\": \"kooza.bench_engine/1\",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n  \"workloads\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i];
        f << "    {\"name\": \"" << r.name << "\", \"events\": " << r.events
          << ", \"baseline_events_per_s\": " << r.baseline_eps
          << ", \"engine_events_per_s\": " << r.engine_eps;
        f.precision(3);
        f << ", \"speedup\": " << r.speedup;
        f.precision(0);
        f << ", \"order_identical\": " << (r.order_identical ? "true" : "false")
          << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    f.precision(3);
    f << "  ],\n  \"acceptance\": {\"workload\": \""
      << acceptance_workload(smoke) << "\", \"required_speedup\": "
      << (smoke ? kRequiredSpeedupSmoke : kRequiredSpeedup)
      << ", \"speedup\": " << accepted_speedup
      << ", \"pass\": " << (pass ? "true" : "false") << "}\n}\n";
}

// google-benchmark registrations so --benchmark_* flags time the hold
// model here too (events per iteration kept small).
void BM_EngineHold(benchmark::State& state) {
    for (auto _ : state) {
        const auto r =
            run_hold<sim::Engine>(1024, 100'000, Dist::kUniform, kSeed);
        benchmark::DoNotOptimize(r.order_hash);
    }
}
BENCHMARK(BM_EngineHold)->Unit(benchmark::kMillisecond);

void BM_BaselineHold(benchmark::State& state) {
    for (auto _ : state) {
        const auto r =
            run_hold<BaselineEngine>(1024, 100'000, Dist::kUniform, kSeed);
        benchmark::DoNotOptimize(r.order_hash);
    }
}
BENCHMARK(BM_BaselineHold)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    using kooza::bench::Table;
    using kooza::bench::fmt;

    bool smoke = false;
    std::vector<char*> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else
            args.push_back(argv[i]);
    }
    argc = int(args.size());

    const std::uint64_t events = smoke ? 100'000 : 1'000'000;
    kooza::bench::print_run_header(kSeed);
    std::cout << "\nEvent core: EventFn arena + (at, seq) heap vs "
                 "std::function binary heap ("
              << events << " events/workload" << (smoke ? ", --smoke" : "")
              << ")\n\n";

    std::vector<Row> rows;
    Table table({26, 10, 14, 14, 9, 7});
    table.row("workload", "events", "baseline ev/s", "engine ev/s", "speedup",
              "order");
    table.rule();
    double accepted_speedup = 0.0;
    // Best-of-N, interleaved: each rep is deterministic (same seed, same
    // event sequence), so the fastest rep is the cleanest estimate of the
    // engine's true cost — slower reps only add scheduler/cache
    // interference from outside the process. Interleaving the two engines
    // keeps slow system phases from biasing one side.
    const int reps = smoke ? 2 : 3;
    for (const auto& w : kWorkloads) {
        if (smoke && w.depth * 2 > events) {
            std::cout << "  (skipping " << w.name
                      << ": fill would dominate a smoke-sized run)\n";
            continue;
        }
        WorkloadResult base{}, eng{};
        for (int rep = 0; rep < reps; ++rep) {
            const auto b =
                run_hold<BaselineEngine>(w.depth, events, w.dist, kSeed);
            const auto e = run_hold<sim::Engine>(w.depth, events, w.dist, kSeed);
            if (rep == 0) {
                base = b;
                eng = e;
            } else {
                base.events_per_s = std::max(base.events_per_s, b.events_per_s);
                eng.events_per_s = std::max(eng.events_per_s, e.events_per_s);
            }
        }
        Row r;
        r.name = w.name;
        r.events = events;
        r.baseline_eps = base.events_per_s;
        r.engine_eps = eng.events_per_s;
        r.speedup = eng.events_per_s / base.events_per_s;
        r.order_identical = base.order_hash == eng.order_hash;
        if (std::string_view(w.name) == acceptance_workload(smoke))
            accepted_speedup = r.speedup;
        rows.push_back(r);
        table.row(r.name, r.events, fmt(r.baseline_eps / 1e6, 2) + "M",
                  fmt(r.engine_eps / 1e6, 2) + "M", fmt(r.speedup, 2) + "x",
                  r.order_identical ? "same" : "DIFF");
    }
    table.rule();

    const bool order_ok = std::all_of(rows.begin(), rows.end(),
                                      [](const Row& r) { return r.order_identical; });
    const double required = smoke ? kRequiredSpeedupSmoke : kRequiredSpeedup;
    const bool pass = accepted_speedup >= required && order_ok;
    std::cout << "\nacceptance (" << acceptance_workload(smoke)
              << (smoke ? ", smoke tripwire" : "") << "): speedup "
              << fmt(accepted_speedup, 2) << "x, bar >= " << fmt(required, 1)
              << "x, dispatch order " << (order_ok ? "identical" : "DIVERGED")
              << " => " << (pass ? "PASS" : "FAIL") << "\n";

    write_json(rows, accepted_speedup, pass, smoke);
    std::cout << "wrote BENCH_engine.json\n\n";
    if (!pass) return 1;

    return kooza::bench::run_benchmarks(argc, args.data());
}
