// Cross-examination demo: the paper's central argument, in code.
//
// Train all three modeling approaches — in-breadth, in-depth, KOOZA — on
// the same trace, generate synthetic workloads from each, and compare
// against the original on both axes the paper scores:
//   * request features  (storage-size distribution distance)
//   * time dependencies (latency error under replay)
// In-breadth nails features but not timing; in-depth nails timing but not
// features; KOOZA holds both.
//
// Usage: cross_examination [seed]

#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "baselines/inbreadth.hpp"
#include "baselines/indepth.hpp"
#include "core/generator.hpp"
#include "core/replayer.hpp"
#include "core/trainer.hpp"
#include "core/validator.hpp"
#include "gfs/cluster.hpp"
#include "stats/descriptive.hpp"
#include "stats/hypothesis.hpp"
#include "trace/features.hpp"
#include "workloads/profiles.hpp"

namespace {

using namespace kooza;

std::vector<double> sizes_of(const core::SyntheticWorkload& w) {
    std::vector<double> out;
    for (const auto& r : w.requests) out.push_back(double(r.storage_bytes));
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 11;
    std::cout << "Cross-examination of workload modeling techniques (seed=" << seed
              << ")\n\n";

    // The original system: web-search-like load (lognormal result sizes,
    // Zipf shard popularity) — within-type variance that a mean can't fake.
    gfs::GfsConfig cfg;
    gfs::Cluster cluster(cfg);
    sim::Rng rng(seed);
    workloads::WebSearchProfile profile({.count = 600, .arrival_rate = 30.0});
    profile.generate(rng).install(cluster);
    cluster.run();
    const auto ts = cluster.traces();
    const auto orig = trace::extract_features(ts);
    const auto orig_sizes = trace::column_storage_bytes(orig);
    const double orig_lat = stats::mean(trace::column_latency(orig));
    std::cout << "original: " << ts.summary() << "\n"
              << "          mean latency " << orig_lat * 1e3 << " ms\n\n";

    core::ReplayConfig rc(cfg);

    std::cout << std::left << std::setw(14) << "model" << std::setw(14)
              << "feature-KS" << std::setw(16) << "latency-err%" << std::setw(12)
              << "structure" << "verdict\n" << std::string(68, '-') << "\n";

    auto print_row = [&](const std::string& name, double ks, double lat_err,
                         bool has_structure) {
        const bool features_ok = ks < 0.1;
        // Capturing time dependencies needs both the phase order and a
        // latency prediction that holds up.
        const bool timing_ok = has_structure && lat_err < 15.0;
        std::cout << std::left << std::setw(14) << name << std::setw(14)
                  << std::setprecision(3) << ks << std::setw(16)
                  << std::setprecision(3) << lat_err << std::setw(12)
                  << (has_structure ? "learned" : "none")
                  << (features_ok && timing_ok ? "features+timing"
                      : features_ok            ? "features only"
                      : timing_ok              ? "timing only"
                                               : "neither")
                  << "\n";
    };

    // In-breadth: four subsystem models, no structure -> independent replay.
    {
        const auto model = baselines::InBreadthModel::train(ts);
        sim::Rng g(seed + 1);
        const auto w = model.generate(600, g);
        rc.cpu_verify_fraction = 0.4;
        core::Replayer rep(rc);
        const double lat =
            stats::mean(rep.replay(w, core::ReplayMode::kIndependent).latencies);
        print_row("in-breadth",
                  stats::ks_statistic_two_sample(orig_sizes, sizes_of(w)),
                  stats::variation_pct(lat, orig_lat), /*has_structure=*/false);
    }
    // In-depth: arrival process + structure + mean demands.
    {
        const auto model = baselines::InDepthModel::train(ts);
        sim::Rng g(seed + 2);
        const auto w = model.generate(600, g);
        const auto lats = model.predict_latencies(600, g);
        print_row("in-depth",
                  stats::ks_statistic_two_sample(orig_sizes, sizes_of(w)),
                  stats::variation_pct(stats::mean(lats), orig_lat),
                  /*has_structure=*/true);
    }
    // KOOZA: both.
    {
        const auto model = core::Trainer().train(ts);
        sim::Rng g(seed + 3);
        const auto w = core::Generator(model).generate(600, g);
        rc.cpu_verify_fraction = model.cpu_verify_fraction();
        core::Replayer rep(rc);
        const double lat =
            stats::mean(rep.replay(w, core::ReplayMode::kStructured).latencies);
        print_row("kooza", stats::ks_statistic_two_sample(orig_sizes, sizes_of(w)),
                  stats::variation_pct(lat, orig_lat), /*has_structure=*/true);
    }
    std::cout << "\n(feature-KS < 0.1 counts as capturing request features;\n"
                 " latency error < 15% as capturing time dependencies)\n";
    return 0;
}
