// Server provisioning study (paper Section 5, "Applicability"):
// "An obvious case of the opportunities this methodology offers is
// evaluating different server configurations without access to real DC
// application source-code."
//
// Train KOOZA once on traces from the current deployment, then replay the
// same synthetic workload against candidate server configurations —
// faster disk, more cores, faster NIC, more memory banks — and compare
// predicted mean/p99 latency. No application code, no re-deployment: the
// model carries the workload.
//
// Usage: server_provisioning [seed]

#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/generator.hpp"
#include "core/replayer.hpp"
#include "core/trainer.hpp"
#include "gfs/cluster.hpp"
#include "hw/power.hpp"
#include "stats/descriptive.hpp"
#include "workloads/profiles.hpp"

namespace {

using namespace kooza;

struct Candidate {
    std::string name;
    core::ReplayConfig cfg;
};

void report(const std::string& name, const core::ReplayResult& res) {
    const auto s = stats::summarize(res.latencies);
    // Power/energy estimate from the replay's mean utilizations — the
    // paper's Section 5 "performance and power model" use case.
    hw::PowerModel power;
    const double watts =
        power.power(res.mean_cpu_utilization, res.mean_disk_utilization);
    const double joules = power.energy(res.duration, res.mean_cpu_utilization,
                                       res.mean_disk_utilization);
    std::cout << "  " << std::left << std::setw(28) << name << " mean "
              << std::setw(10) << (std::to_string(s.mean * 1e3) + " ms").substr(0, 9)
              << " p99 " << std::setw(10)
              << (std::to_string(s.p99 * 1e3) + " ms").substr(0, 9) << " power "
              << std::setw(7) << (std::to_string(watts) + " W").substr(0, 6)
              << " energy " << joules / 1e3 << " kJ\n";
}

}  // namespace

int main(int argc, char** argv) {
    const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
    std::cout << "Server provisioning with a trained KOOZA model (seed=" << seed
              << ")\n\n";

    // 1. Capture traces from the "current" deployment under an OLTP load.
    gfs::GfsConfig baseline;
    gfs::Cluster cluster(baseline);
    sim::Rng rng(seed);
    workloads::OltpProfile profile({.count = 1500, .base_rate = 30.0});
    profile.generate(rng).install(cluster);
    cluster.run();
    const auto traces = cluster.traces();
    std::cout << "captured: " << traces.summary() << "\n";

    // 2. Train once.
    const auto model = core::Trainer({.workload_name = "oltp"}).train(traces);
    std::cout << "trained:  " << model.parameter_count() << " parameters, arrivals "
              << model.arrivals().describe() << "\n\n";

    // 3. One synthetic workload, replayed on every candidate config.
    sim::Rng gen_rng(seed + 1);
    const auto synthetic = core::Generator(model).generate(1500, gen_rng);

    core::ReplayConfig base_cfg(baseline);
    base_cfg.cpu_verify_fraction = model.cpu_verify_fraction();

    std::vector<Candidate> candidates;
    candidates.push_back({"baseline (7.2k HDD, 2 cores)", base_cfg});
    {
        auto c = base_cfg;  // SSD-like: no seek, fast transfer
        c.disk.min_seek = 50e-6;
        c.disk.max_seek = 100e-6;
        c.disk.transfer_rate = 500e6;
        candidates.push_back({"SSD storage", c});
    }
    {
        auto c = base_cfg;
        c.cpu.cores = 8;
        candidates.push_back({"8-core CPU", c});
    }
    {
        auto c = base_cfg;
        c.net.bandwidth = 1.25e9;  // 10 Gb/s
        candidates.push_back({"10 GbE network", c});
    }
    {
        auto c = base_cfg;
        c.memory.banks = 16;
        c.memory.bank_bandwidth = 8e9;
        candidates.push_back({"16-bank fast DRAM", c});
    }
    {
        auto c = base_cfg;  // everything upgraded
        c.disk.min_seek = 50e-6;
        c.disk.max_seek = 100e-6;
        c.disk.transfer_rate = 500e6;
        c.cpu.cores = 8;
        c.net.bandwidth = 1.25e9;
        candidates.push_back({"all upgrades", c});
    }

    std::cout << "predicted latency / power per server configuration:\n";
    for (const auto& cand : candidates) {
        core::Replayer replayer(cand.cfg);
        report(cand.name, replayer.replay(synthetic));
    }
    std::cout << "\nFor this disk-bound OLTP workload the SSD upgrade dominates;\n"
                 "CPU/NIC/DRAM upgrades barely move the needle — the kind of\n"
                 "provisioning answer the paper's methodology is after.\n";
    return 0;
}
