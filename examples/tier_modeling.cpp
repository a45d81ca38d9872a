// In-depth modeling at fleet scale: SQS (Meisner '10), the queueing
// formalism of the paper's survey that ablation A7 (bench_ablation_sqs)
// exercises. One server's request stream on a 3-tier web service is
// characterized empirically, then a statistically sampled fleet
// simulation scales the answer to 10,000 servers.
//
// Usage: tier_modeling [seed]

#include <cstdlib>
#include <iostream>
#include <vector>

#include "queueing/sqs.hpp"
#include "sim/rng.hpp"

namespace {

using namespace kooza;
using namespace kooza::queueing;

constexpr double kArrivalRate = 60.0;

void sqs_fleet(std::uint64_t seed) {
    // Characterize one server's request stream, then answer at DC scale.
    sim::Rng rng(seed + 2);
    std::vector<double> gaps(8000), services(8000);
    for (auto& g : gaps) g = rng.exponential(kArrivalRate);
    for (auto& s : services)
        s = rng.exponential(500.0) + rng.exponential(250.0) + rng.exponential(125.0);
    const auto model = SqsWorkloadModel::characterize(gaps, services);
    SqsSimulator sim({.tasks_per_server = 3000, .target_rel_ci = 0.03, .seed = seed});
    const auto res = sim.run(model, 10000);
    std::cout << "3) SQS at fleet scale:\n"
              << "   10000 servers answered by simulating " << res.servers_simulated
              << " (" << res.sampling_savings() * 100.0 << "% sampling savings);\n"
              << "   fleet mean response " << res.mean_response * 1e3 << " ms (95% CI ±"
              << res.ci_halfwidth * 1e3 << " ms), utilization " << res.utilization
              << "\n";
}

}  // namespace

int main(int argc, char** argv) {
    const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 19;
    std::cout << "SQS on one 3-tier web service (seed=" << seed << ", " << kArrivalRate
              << " req/s)\n\n";
    sqs_fleet(seed);
    return 0;
}
