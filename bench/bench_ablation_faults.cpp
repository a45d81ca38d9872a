// Ablation A8: chunkserver failure rate vs degraded-mode behavior and
// model validation error.
//
// The survey's models are trained on healthy traces; production clusters
// are not healthy. This bench sweeps the fault injector's failure rate
// (MTBF per server) over a micro workload on a replicated cluster and
// reports how the degraded capture looks (failovers, failed requests,
// re-replications) and how far an in-breadth KOOZA model trained on the
// degraded trace drifts from it when replayed on a healthy device stack —
// the validation-error inflation a practitioner should expect when the
// training window contained failures.

#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "core/multiserver.hpp"
#include "gfs/faults.hpp"
#include "stats/descriptive.hpp"
#include "trace/features.hpp"

namespace {

using namespace kooza;

constexpr std::uint64_t kSeed = 47;

gfs::GfsConfig fault_config(double mtbf) {
    gfs::GfsConfig cfg;
    cfg.n_chunkservers = 4;
    cfg.replication = 2;
    cfg.seed = kSeed;
    if (mtbf > 0.0) {
        cfg.faults.enabled = true;
        cfg.faults.mtbf = mtbf;
        cfg.faults.mttr = 5.0;
        cfg.faults.horizon = 260.0;  // covers the ~250 s micro schedule
    }
    return cfg;
}

void print_ablation() {
    std::cout << "==================================================================\n"
              << " Ablation A8 - failure rate (per-server MTBF) vs degraded-mode\n"
              << " capture and model validation error (seed=" << kSeed << ")\n"
              << "==================================================================\n\n";

    bench::Table t({10, 10, 10, 11, 11, 11, 14});
    t.row("MTBF(s)", "Crashes", "Repairs", "Failovers", "FailedReq", "Complete",
          "LatencyErr%");
    t.rule();

    struct Row {
        double mtbf = 0.0;
        std::uint64_t crashes = 0, repairs = 0, failovers = 0, failed = 0,
                      completed = 0;
        double lat_err = 0.0;
    };
    const std::vector<double> mtbfs{0.0, 120.0, 60.0, 30.0, 15.0};
    const auto rows = bench::sweep(mtbfs.size(), [&](std::size_t i) {
        const double mtbf = mtbfs[i];
        gfs::Cluster cluster(fault_config(mtbf));
        sim::Rng rng(kSeed);
        // Rate kept well below single-stack saturation so the replayed
        // model isn't queueing-dominated and the sweep isolates the
        // failure-rate effect.
        workloads::MicroProfile profile({.count = 1000, .arrival_rate = 4.0});
        profile.generate(rng).install(cluster);
        cluster.run();
        const auto ts = cluster.traces();
        const auto orig = trace::extract_features(ts);
        const double orig_lat = stats::mean(trace::column_latency(orig));

        // Multi-server composition: one model instance per monitored
        // server, replayed sharded — the same scale the capture ran at,
        // so the sweep isolates the failure-rate effect.
        std::vector<trace::TraceSet> per_server;
        for (std::size_t s = 0; s < cluster.n_servers(); ++s)
            per_server.push_back(cluster.traces_for_server(s));
        const auto model = core::ClusterModel::train(per_server);
        sim::Rng gen_rng(kSeed + i + 1);
        const auto w = model.generate(120.0, gen_rng);
        core::ReplayConfig rc(cluster.config());
        rc.cpu_verify_fraction = model.server(0).cpu_verify_fraction();
        rc.n_servers = cluster.n_servers();
        const core::Replayer rep(rc);
        const double lat = stats::mean(rep.replay_sharded(w).latencies);

        Row r;
        r.mtbf = mtbf;
        if (const auto* inj = cluster.fault_injector()) {
            r.crashes = inj->crashes();
            r.repairs = inj->repairs();
        }
        r.failovers = cluster.failovers();
        r.failed = cluster.failed_requests();
        r.completed = cluster.completed();
        r.lat_err = stats::variation_pct(lat, orig_lat);
        return r;
    });
    for (const auto& r : rows)
        t.row(r.mtbf > 0.0 ? bench::fmt(r.mtbf, 0) : std::string("inf"), r.crashes,
              r.repairs, r.failovers, r.failed, r.completed, bench::fmt(r.lat_err, 1));
    std::cout << "\nExpected shape: failovers, re-replications and failed requests\n"
              << "grow as MTBF shrinks, and the model's replay error inflates with\n"
              << "the failure rate — failover waits stretch the captured latencies\n"
              << "but the replayed device stack is healthy, so a model trained on\n"
              << "a degraded window overestimates healthy-cluster latency.\n\n";
}

void BM_FaultedCaptureRun(benchmark::State& state) {
    const double mtbf = double(state.range(0));
    for (auto _ : state) {
        gfs::Cluster cluster(fault_config(mtbf));
        sim::Rng rng(kSeed);
        workloads::MicroProfile profile({.count = 200, .arrival_rate = 12.0});
        profile.generate(rng).install(cluster);
        cluster.run();
        benchmark::DoNotOptimize(cluster.completed());
    }
}
BENCHMARK(BM_FaultedCaptureRun)->Arg(0)->Arg(15);

}  // namespace

int main(int argc, char** argv) {
    kooza::bench::print_run_header(kSeed);
    print_ablation();
    return kooza::bench::run_benchmarks(argc, argv);
}
