// Ablation A1: Markov state granularity vs accuracy and model size.
//
// The paper: "The detail of the model is configurable ... the designer can
// adjust the level of detail to the part of the system that is of
// interest. Additional detail increases the model's complexity, and that
// remains a trade-off." This bench sweeps the LBN-range / utilization
// state-space sizes and reports feature fidelity (KS on storage size and
// LBN distributions), latency error, and parameter count.

#include <iostream>

#include "bench_util.hpp"
#include "core/generator.hpp"
#include "stats/descriptive.hpp"
#include "stats/hypothesis.hpp"
#include "trace/features.hpp"

namespace {

using namespace kooza;

constexpr std::uint64_t kSeed = 31;

void print_ablation() {
    std::cout << "==================================================================\n"
              << " Ablation A1 - state-space granularity vs accuracy vs model size\n"
              << " (web-search-like workload; seed=" << kSeed << ")\n"
              << "==================================================================\n\n";

    gfs::GfsConfig cfg;
    sim::Rng rng(kSeed);
    workloads::WebSearchProfile profile({.count = 500, .arrival_rate = 30.0});
    const auto ts = bench::simulate(profile.generate(rng), cfg);
    const auto orig = trace::extract_features(ts);
    const auto orig_sizes = trace::column_storage_bytes(orig);
    std::vector<double> orig_lbns;
    for (const auto& f : orig) orig_lbns.push_back(double(f.first_lbn));
    const double orig_lat = stats::mean(trace::column_latency(orig));

    bench::Table t({12, 12, 14, 12, 14, 12});
    t.row("LbnRanges", "UtilLvls", "SizeKS", "LbnKS", "LatencyErr%", "Params");
    t.rule();
    struct Row {
        std::size_t g = 0, util_levels = 0, params = 0;
        double size_ks = 0.0, lbn_ks = 0.0, lat_err = 0.0;
    };
    const std::vector<std::size_t> grans{2, 4, 8, 16, 32};
    const auto rows = bench::sweep(grans.size(), [&](std::size_t i) {
        const std::size_t g = grans[i];
        core::TrainerConfig tc;
        tc.lbn_ranges = g;
        tc.util_levels = std::max<std::size_t>(2, g / 2);
        const auto model = core::Trainer(tc).train(ts);
        sim::Rng gen_rng(kSeed + g);
        const auto w = core::Generator(model).generate(500, gen_rng);
        std::vector<double> sizes, lbns;
        for (const auto& r : w.requests) {
            sizes.push_back(double(r.storage_bytes));
            lbns.push_back(double(r.lbn));
        }
        core::ReplayConfig rc(cfg);
        rc.cpu_verify_fraction = model.cpu_verify_fraction();
        core::Replayer rep(rc);
        const double lat = stats::mean(rep.replay(w).latencies);
        return Row{g, tc.util_levels, model.parameter_count(),
                   stats::ks_statistic_two_sample(orig_sizes, sizes),
                   stats::ks_statistic_two_sample(orig_lbns, lbns),
                   stats::variation_pct(lat, orig_lat)};
    });
    for (const auto& r : rows)
        t.row(r.g, r.util_levels, bench::fmt(r.size_ks, 3), bench::fmt(r.lbn_ks, 3),
              bench::fmt(r.lat_err, 1), r.params);
    std::cout << "\nExpected shape: LBN fidelity (LbnKS) improves with more ranges\n"
              << "while parameter count grows quadratically — the paper's\n"
              << "detail-vs-complexity trade-off.\n\n";
}

void BM_TrainAtGranularity(benchmark::State& state) {
    sim::Rng rng(kSeed);
    workloads::WebSearchProfile profile({.count = 300, .arrival_rate = 30.0});
    const auto ts = kooza::bench::simulate(profile.generate(rng));
    core::TrainerConfig tc;
    tc.lbn_ranges = std::size_t(state.range(0));
    for (auto _ : state) {
        auto model = core::Trainer(tc).train(ts);
        benchmark::DoNotOptimize(model.parameter_count());
    }
}
BENCHMARK(BM_TrainAtGranularity)->Arg(2)->Arg(8)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
    kooza::bench::print_run_header(kSeed);
    print_ablation();
    return kooza::bench::run_benchmarks(argc, argv);
}
