// Ablation A5: multi-server composition and TCP-incast replication.
//
// The paper (Section 4): with multiple per-server model instances and
// recorded request ids, "the model can replicate effects like the TCP/IP
// incast problem, or other events involving multiple machines servicing
// the same request." This bench sweeps the fan-in of a striped GFS read
// and shows goodput collapse (drops, latency blow-up) in BOTH the
// original simulator and the multi-server KOOZA replay.

#include <iostream>

#include "bench_util.hpp"
#include "core/replayer.hpp"
#include "stats/descriptive.hpp"

namespace {

using namespace kooza;
using trace::IoType;

constexpr std::uint64_t kStripe = 256ull << 10;  // bytes per server

struct Point {
    std::size_t fan_in;
    double sim_latency;
    std::uint64_t replay_drops;
    double replay_latency;
};

Point run_point(std::size_t fan_in) {
    Point p;
    p.fan_in = fan_in;

    // Original system: one striped read across fan_in chunkservers.
    gfs::GfsConfig cfg;
    cfg.n_chunkservers = fan_in;
    cfg.chunk_size = kStripe;
    cfg.net.buffer_frames = 16;
    cfg.net.retry_timeout = 0.05;
    gfs::Cluster cluster(cfg);
    const gfs::FileId wide = cluster.create_file("wide", kStripe * fan_in);
    cluster.submit({0.0, wide, 0, kStripe * fan_in, IoType::kRead, 0});
    cluster.run();
    p.sim_latency = cluster.latencies().at(0);

    // KOOZA multi-server replay of the same fan-in (hand-built synthetic
    // requests: each server sends one stripe to the client).
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
    core::ReplayConfig rcfg(cfg);
    rcfg.n_servers = fan_in;
    core::Replayer rep(rcfg);
    const auto res = rep.replay(w);
    p.replay_drops = res.network_drops;
    double worst = 0.0;
    for (double l : res.latencies) worst = std::max(worst, l);
    p.replay_latency = worst;
    return p;
}

void print_ablation() {
    std::cout << "==================================================================\n"
              << " Ablation A5 - multi-server incast: striped read fan-in sweep\n"
              << " (256 KB per server into one client port, 16-frame buffer)\n"
              << "==================================================================\n\n";
    bench::Table t({10, 18, 18, 16});
    t.row("FanIn", "SimLatency", "ReplayLatency", "ReplayDrops");
    t.rule();
    const std::vector<std::size_t> fan_ins{2, 4, 8, 16, 32, 64};
    const auto points = bench::sweep(
        fan_ins.size(), [&](std::size_t i) { return run_point(fan_ins[i]); });
    for (const auto& p : points)
        t.row(p.fan_in, bench::fmt_ms(p.sim_latency),
              bench::fmt_ms(p.replay_latency), p.replay_drops);
    std::cout << "\nExpected shape: latency grows gently until the client buffer\n"
              << "saturates, then collapses (retransmission timeouts) — the incast\n"
              << "cliff — in both the original system and the model replay.\n\n";
}

void BM_IncastSweep(benchmark::State& state) {
    const auto fan_in = std::size_t(state.range(0));
    for (auto _ : state) {
        auto p = run_point(fan_in);
        benchmark::DoNotOptimize(p.replay_drops);
    }
}
BENCHMARK(BM_IncastSweep)->Arg(4)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
    kooza::bench::print_run_header();
    print_ablation();
    return kooza::bench::run_benchmarks(argc, argv);
}
