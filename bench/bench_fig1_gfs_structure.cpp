// Figure 1 reproduction: "GFS Structure Diagram for a User Request".
//
// The paper's Fig. 1 shows the subsystem path of one request through a
// GFS chunkserver: Network -> CPU (+Memory) -> Disk -> CPU -> Network,
// with writes additionally fanning out to replicas. Here one read and one
// (replicated) write are traced through the simulator and the recovered
// Dapper-style span trees are printed — the figure, as data.

#include <iostream>

#include "bench_util.hpp"
#include "trace/span.hpp"

namespace {

using namespace kooza;
using trace::IoType;

void print_fig1() {
    std::cout << "==================================================================\n"
              << " Figure 1 - GFS structure diagram for a user request\n"
              << " (recovered from Dapper-style span trees of the simulator)\n"
              << "==================================================================\n\n";

    gfs::GfsConfig cfg;
    cfg.n_chunkservers = 3;
    cfg.replication = 3;
    gfs::Cluster cluster(cfg);
    const gfs::FileId fig1 = cluster.create_file("fig1.dat", 64ull << 20);
    const auto read_id =
        cluster.submit({0.0, fig1, 0, 64ull << 10, IoType::kRead, 0});
    const auto write_id =
        cluster.submit({1.0, fig1, 8ull << 20, 4ull << 20, IoType::kWrite, 0});
    cluster.run();
    const auto ts = cluster.traces();

    std::cout << "--- 64 KB read (one chunkserver) ---\n";
    std::cout << trace::SpanTree(ts.spans, read_id).render() << "\n";
    std::cout << "--- 4 MB write (3-way replication chain) ---\n";
    std::cout << trace::SpanTree(ts.spans, write_id).render() << "\n";

    std::cout << "Subsystem path (read):  NET -> CPU -> MEM -> DISK -> CPU -> NET\n"
              << "Subsystem path (write): NET -> CPU -> MEM -> DISK -> REPLICAS -> "
                 "CPU -> NET\n\n";
}

void BM_TraceOneRequest(benchmark::State& state) {
    for (auto _ : state) {
        gfs::GfsConfig cfg;
        gfs::Cluster cluster(cfg);
        const gfs::FileId f = cluster.create_file("f", 64ull << 20);
        cluster.submit({0.0, f, 0, 64ull << 10, IoType::kRead, 0});
        cluster.run();
        benchmark::DoNotOptimize(cluster.traces().spans.size());
    }
}
BENCHMARK(BM_TraceOneRequest);

}  // namespace

int main(int argc, char** argv) {
    kooza::bench::print_run_header();
    print_fig1();
    return kooza::bench::run_benchmarks(argc, argv);
}
