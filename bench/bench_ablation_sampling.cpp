// Ablation A2: Dapper-style span sampling rate vs structure fidelity and
// tracing overhead.
//
// Dapper samples 1 of 1000 requests to keep overhead < 1.5% (paper,
// Section 2.2). This bench sweeps the head-sampling rate and reports how
// many structure variants the KOOZA trainer still recovers, the latency
// error of the resulting model, and the span operations actually recorded
// (the overhead proxy).

#include <iostream>

#include "bench_util.hpp"
#include "core/generator.hpp"
#include "stats/descriptive.hpp"
#include "trace/features.hpp"

namespace {

using namespace kooza;

constexpr std::uint64_t kSeed = 32;

void print_ablation() {
    std::cout << "==================================================================\n"
              << " Ablation A2 - span sampling rate (Dapper's 1-in-N) vs structure\n"
              << " fidelity and tracing overhead (seed=" << kSeed << ")\n"
              << "==================================================================\n\n";

    bench::Table t({12, 14, 14, 16, 16, 14});
    t.row("SampleEvery", "SpansKept", "OpsRecorded", "ReadVariants", "LatencyErr%",
          "Fallback");
    t.rule();

    struct Row {
        std::uint64_t every = 0, ops = 0;
        std::size_t spans = 0, variants = 0;
        double lat_err = 0.0;
        bool fellback = false;
    };
    const std::vector<std::uint64_t> everies{1, 10, 100, 1000};
    const auto rows = bench::sweep(everies.size(), [&](std::size_t i) {
        const std::uint64_t every = everies[i];
        gfs::GfsConfig cfg;
        cfg.span_sample_every = every;
        gfs::Cluster cluster(cfg);
        sim::Rng rng(kSeed);
        // Keep the server comfortably below saturation: near rho -> 1,
        // queueing amplifies any model error and would swamp the effect
        // of the sampling rate being studied here.
        workloads::MicroProfile profile({.count = 2000, .arrival_rate = 12.0});
        profile.generate(rng).install(cluster);
        cluster.run();
        const auto ts = cluster.traces();
        const auto orig = trace::extract_features(ts);
        const double orig_lat = stats::mean(trace::column_latency(orig));

        const auto model = core::Trainer().train(ts);
        sim::Rng gen_rng(kSeed + every);
        const auto w = core::Generator(model).generate(1000, gen_rng);
        core::ReplayConfig rc(cfg);
        rc.cpu_verify_fraction = model.cpu_verify_fraction();
        core::Replayer rep(rc);
        const double lat = stats::mean(rep.replay(w).latencies);

        return Row{every,
                   cluster.tracer().operations_recorded(),
                   ts.spans.size(),
                   model.reads().structure.variants().size(),
                   stats::variation_pct(lat, orig_lat),
                   model.reads().structure.training_traces() == 0};
    });
    for (const auto& r : rows)
        t.row(std::string("1/") + std::to_string(r.every), r.spans, r.ops, r.variants,
              bench::fmt(r.lat_err, 1), r.fellback ? "canonical" : "learned");
    std::cout << "\nExpected shape: recorded span operations drop ~linearly with the\n"
              << "sampling factor while the dominant structure (and hence latency\n"
              << "fidelity) survives aggressive sampling — Dapper's design point.\n\n";
}

void BM_TracedVsUntracedRun(benchmark::State& state) {
    const std::uint64_t every = std::uint64_t(state.range(0));
    for (auto _ : state) {
        gfs::GfsConfig cfg;
        cfg.span_sample_every = every;
        gfs::Cluster cluster(cfg);
        sim::Rng rng(kSeed);
        workloads::MicroProfile profile({.count = 200, .arrival_rate = 40.0});
        profile.generate(rng).install(cluster);
        cluster.run();
        benchmark::DoNotOptimize(cluster.completed());
    }
}
BENCHMARK(BM_TracedVsUntracedRun)->Arg(1)->Arg(1000);

}  // namespace

int main(int argc, char** argv) {
    kooza::bench::print_run_header(kSeed);
    print_ablation();
    return kooza::bench::run_benchmarks(argc, argv);
}
