// Quickstart: the full KOOZA loop in one page.
//
//  1. Run a workload on the GFS simulator (the "real system") and capture
//     traces: per-subsystem records + Dapper-style spans.
//  2. Train a KOOZA ServerModel from the traces alone.
//  3. Generate a synthetic workload from the model.
//  4. Replay it on the same device models.
//  5. Validate: request features and latency, original vs synthetic.
//
// Usage: quickstart [seed]

#include <cstdlib>
#include <iostream>

#include "core/generator.hpp"
#include "core/replayer.hpp"
#include "core/trainer.hpp"
#include "core/validator.hpp"
#include "gfs/cluster.hpp"
#include "trace/features.hpp"
#include "workloads/profiles.hpp"

int main(int argc, char** argv) {
    const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
    std::cout << "KOOZA quickstart (seed=" << seed << ")\n\n";

    // 1. Simulate the "real" system under a mixed read/write workload.
    kooza::gfs::GfsConfig cfg;
    kooza::gfs::Cluster cluster(cfg);
    kooza::sim::Rng rng(seed);
    kooza::workloads::MicroProfile profile({.count = 400, .arrival_rate = 25.0});
    profile.generate(rng).install(cluster);
    cluster.run();
    const auto traces = cluster.traces();
    std::cout << "simulated GFS run: " << traces.summary() << "\n\n";

    // 2. Train the model (traces in, model out — no simulator internals).
    kooza::core::Trainer trainer({.workload_name = "micro"});
    const auto model = trainer.train(traces);
    std::cout << model.describe() << "\n";

    // 3. Generate a synthetic workload of the same length.
    kooza::core::Generator generator(model);
    kooza::sim::Rng gen_rng(seed + 1);
    const auto synthetic = generator.generate(400, gen_rng);

    // 4. Replay it against the same device models.
    kooza::core::ReplayConfig rcfg(cfg);
    rcfg.cpu_verify_fraction = model.cpu_verify_fraction();
    kooza::core::Replayer replayer(rcfg);
    const auto replayed = replayer.replay(synthetic);

    // 5. Compare: original vs synthetic features and latency.
    const auto original_features = kooza::trace::extract_features(traces);
    const auto synthetic_features = kooza::trace::extract_features(replayed.traces);
    const auto report = kooza::core::compare_features(original_features,
                                                      synthetic_features, "KOOZA");
    std::cout << "\n" << report.to_table() << "\n";
    std::cout << "max feature variation: " << report.max_feature_variation()
              << " %\nlatency variation:     " << report.latency_variation() << " %\n";
    return 0;
}
