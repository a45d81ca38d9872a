// Incast study (paper Section 4): "given a unified address space in the
// DC, and since information on job/task ids is recorded the model can
// replicate effects like the TCP/IP incast problem".
//
// A client issues striped reads across N chunkservers; all N responses
// converge on the client's switch port. Past the port's buffer capacity,
// frames drop, TCP-like timeouts fire, and goodput collapses. The study
// runs the sweep twice — on the original GFS simulator and as a
// multi-server KOOZA replay — and prints goodput side by side.
//
// Usage: incast_study [max_fan_in]

#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/replayer.hpp"
#include "gfs/cluster.hpp"

namespace {

using namespace kooza;
using trace::IoType;

constexpr std::uint64_t kStripe = 256ull << 10;

double simulate_gfs(std::size_t fan_in, std::uint64_t& drops) {
    gfs::GfsConfig cfg;
    cfg.n_chunkservers = fan_in;
    cfg.chunk_size = kStripe;
    cfg.net.buffer_frames = 16;
    cfg.net.retry_timeout = 0.05;
    gfs::Cluster cluster(cfg);
    const gfs::FileId wide = cluster.create_file("wide", kStripe * fan_in);
    cluster.submit({0.0, wide, 0, kStripe * fan_in, IoType::kRead, 0});
    cluster.run();
    drops = 0;  // cluster-side drops are inside the client port; count via latency
    return cluster.latencies().at(0);
}

double replay_kooza(std::size_t fan_in, std::uint64_t& drops) {
    core::SyntheticWorkload w;
    w.model_name = "incast";
    for (std::size_t i = 0; i < fan_in; ++i) {
        core::SyntheticRequest r;
        r.time = 0.0;
        r.type = IoType::kRead;
        r.network_bytes = kStripe;
        r.storage_bytes = kStripe;
        r.memory_bytes = kStripe >> 2;
        r.cpu_busy_seconds = 1e-4;
        r.lbn = i * 4096;
        r.phases = {"disk.io", "net.tx"};
        r.server = std::uint32_t(i);
        w.requests.push_back(r);
    }
    core::ReplayConfig rc;
    rc.n_servers = fan_in;
    rc.net.buffer_frames = 16;
    rc.net.retry_timeout = 0.05;
    core::Replayer rep(rc);
    const auto res = rep.replay(w);
    drops = res.network_drops;
    double worst = 0.0;
    for (double l : res.latencies) worst = std::max(worst, l);
    return worst;
}

}  // namespace

int main(int argc, char** argv) {
    const std::size_t max_fan =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 64;
    std::cout << "TCP-incast study: striped reads, " << kStripe / 1024
              << " KB per server, 16-frame client buffer\n\n";
    std::cout << std::left << std::setw(8) << "fan-in" << std::setw(16)
              << "sim latency" << std::setw(14) << "sim goodput" << std::setw(16)
              << "replay latency" << std::setw(14) << "replay drops" << "\n"
              << std::string(68, '-') << "\n";
    for (std::size_t fan = 2; fan <= max_fan; fan *= 2) {
        std::uint64_t sim_drops = 0, rep_drops = 0;
        const double sim_lat = simulate_gfs(fan, sim_drops);
        const double rep_lat = replay_kooza(fan, rep_drops);
        const double goodput_mbps =
            double(kStripe * fan) / sim_lat / 1e6;  // payload MB/s
        std::cout << std::left << std::setw(8) << fan << std::setw(16)
                  << (std::to_string(sim_lat * 1e3) + " ms").substr(0, 12)
                  << std::setw(14)
                  << (std::to_string(goodput_mbps) + " MB/s").substr(0, 12)
                  << std::setw(16)
                  << (std::to_string(rep_lat * 1e3) + " ms").substr(0, 12)
                  << std::setw(14) << rep_drops << "\n";
    }
    std::cout << "\nGoodput rises with fan-in until the buffer saturates, then the\n"
                 "retransmission timeouts flatten (or collapse) it — and the\n"
                 "multi-server model replay tracks the original system's cliff.\n";
    return 0;
}
