// Table 2 reproduction: "Validation of Request Features and Latency
// Metrics using KOOZA".
//
// The paper issues two user requests against GFS — a 64 KB read and a
// 4 MB write — trains KOOZA, generates synthetic requests from the model,
// and compares per-subsystem features (network size, CPU utilization,
// memory size/type, storage size/type) and end-to-end latency. The paper
// reports <= 1% feature deviation and <= 6.6% latency deviation; the
// acceptance criterion here is the same shape: (near-)exact features,
// single-digit-percent latency.

#include <iostream>

#include "baselines/hmm.hpp"
#include "bench_util.hpp"
#include "core/capture.hpp"
#include "core/generator.hpp"
#include "core/validator.hpp"
#include "trace/features.hpp"
#include "workloads/scenarios.hpp"

namespace {

using namespace kooza;
using trace::IoType;

constexpr std::uint64_t kSeed = 42;

/// Repeated unloaded instances of the paper's two requests (train set).
workloads::Workload training_workload(std::size_t repetitions) {
    workloads::Workload w;
    w.files.emplace_back("validate.dat", 64ull << 20);
    for (std::size_t i = 0; i < repetitions; ++i) {
        w.requests.push_back({double(i), 0, 0, 64ull << 10, IoType::kRead, 0});
        w.requests.push_back(
            {double(i) + 0.5, 0, 8ull << 20, 4ull << 20, IoType::kWrite, 0});
    }
    return w;
}

trace::RequestFeatures mean_features(const std::vector<trace::RequestFeatures>& fs,
                                     IoType t) {
    trace::RequestFeatures out;
    double n = 0, net = 0, cpu = 0, mem = 0, sto = 0, lat = 0, memw = 0, stow = 0;
    for (const auto& f : fs) {
        if (f.storage_type != t) continue;
        ++n;
        net += double(f.network_bytes);
        cpu += f.cpu_utilization;
        mem += double(f.memory_bytes);
        sto += double(f.storage_bytes);
        lat += f.latency;
        memw += f.memory_type == IoType::kWrite ? 1.0 : 0.0;
        stow += 1.0;
    }
    if (n == 0) return out;
    out.network_bytes = std::uint64_t(net / n);
    out.cpu_utilization = cpu / n;
    out.memory_bytes = std::uint64_t(mem / n);
    out.memory_type = memw * 2 > n ? IoType::kWrite : IoType::kRead;
    out.storage_bytes = std::uint64_t(sto / n);
    out.storage_type = t;
    out.latency = lat / n;
    return out;
}

struct Experiment {
    trace::TraceSet original;
    core::SyntheticWorkload synthetic;
    trace::TraceSet replayed;
    double verify_fraction = 0.4;
};

Experiment run_experiment() {
    const gfs::GfsConfig cfg;
    Experiment e;
    e.original = bench::simulate(training_workload(50), cfg);
    core::Trainer trainer({.workload_name = "table2-validation"});
    const auto model = trainer.train(e.original);
    e.verify_fraction = model.cpu_verify_fraction();
    sim::Rng rng(kSeed);
    e.synthetic = core::Generator(model).generate(200, rng);
    core::ReplayConfig rc(cfg);
    rc.cpu_verify_fraction = e.verify_fraction;
    core::Replayer replayer(rc);
    e.replayed = replayer.replay(e.synthetic).traces;
    return e;
}

void print_table2() {
    std::cout << "=====================================================================\n"
              << " Table 2 - Validation of Request Features and Latency using KOOZA\n"
              << " (paper: <=1% feature deviation, <=6.6% latency deviation)\n"
              << " seed=" << kSeed << "\n"
              << "=====================================================================\n\n";
    const auto e = run_experiment();
    const auto orig = trace::extract_features(e.original);
    const auto synth = trace::extract_features(e.replayed);

    const struct {
        IoType type;
        const char* label;
    } blocks[] = {{IoType::kRead, "1st User Request (64 KB GFS read)"},
                  {IoType::kWrite, "2nd User Request (4 MB GFS write)"}};
    for (const auto& b : blocks) {
        const auto report = core::compare_single(mean_features(orig, b.type),
                                                 mean_features(synth, b.type),
                                                 b.label);
        std::cout << report.to_table() << "\n";
        std::cout << "  max feature variation: "
                  << kooza::bench::fmt_pct(report.max_feature_variation())
                  << "   latency variation: "
                  << kooza::bench::fmt_pct(report.latency_variation()) << "\n\n";
    }
}

/// Fourth column: the Harrison-style HMM baseline run through the same
/// validation loop (train on the identical trace, generate 200, replay in
/// independent mode — the HMM carries no phase structure to follow), with
/// an accuracy-vs-training-cost line under each block.
void print_hmm_column() {
    std::cout << "=====================================================================\n"
              << " Table 2, HMM column - the same validation loop through the\n"
              << " Harrison-style HMM storage baseline (replayed independently)\n"
              << " seed=" << kSeed << "\n"
              << "=====================================================================\n\n";
    const gfs::GfsConfig cfg;
    const auto original = bench::simulate(training_workload(50), cfg);
    const auto model = baselines::HmmModel::train(original);
    sim::Rng rng(kSeed);
    const auto synthetic = model.generate(200, rng);
    core::Replayer replayer{core::ReplayConfig(cfg)};
    const auto replayed =
        replayer.replay(synthetic, core::ReplayMode::kIndependent).traces;

    const auto orig = trace::extract_features(original);
    const auto synth = trace::extract_features(replayed);
    const struct {
        IoType type;
        const char* label;
    } blocks[] = {{IoType::kRead, "1st User Request via HMM (64 KB read)"},
                  {IoType::kWrite, "2nd User Request via HMM (4 MB write)"}};
    for (const auto& b : blocks) {
        const auto report = core::compare_single(mean_features(orig, b.type),
                                                 mean_features(synth, b.type),
                                                 b.label);
        std::cout << report.to_table() << "\n";
        std::cout << "  max feature variation: "
                  << kooza::bench::fmt_pct(report.max_feature_variation())
                  << "   latency variation: "
                  << kooza::bench::fmt_pct(report.latency_variation()) << "\n\n";
    }
    std::cout << "  accuracy-vs-cost: " << model.parameter_count() << " params, "
              << model.config().n_states << " states, "
              << bench::fmt(model.fit_wall_seconds() * 1e3, 2) << " ms fit, "
              << model.segments_fitted() << " segments\n\n";
}

/// Scenario axis: the same capture -> train -> generate -> replay ->
/// validate loop, but driven by the scenario library instead of the
/// paper's two-request micro workload. One validation block per scenario
/// (diurnal / flashcrowd / tiered / checkpoint), including the
/// unknown-phase warning when the replayer had to skip structure.
void print_scenario_axis() {
    std::cout << "=====================================================================\n"
              << " Scenario axis - validation across the scenario library\n"
              << " (capture -> train -> generate -> replay, per scenario)\n"
              << " seed=" << kSeed << "\n"
              << "=====================================================================\n\n";
    for (const auto& name : workloads::scenario_names()) {
        core::CaptureOptions co;
        co.scenario = name;
        co.count = 300;
        co.rate = 40.0;
        co.period = 20.0;
        co.seed = kSeed;
        const auto cap = core::run_capture(co);
        if (cap.traces.requests.empty()) {
            std::cout << "scenario " << name << ": no completed requests, skipped\n";
            continue;
        }
        core::Trainer trainer({.workload_name = "scenario-" + name});
        const auto model = trainer.train(cap.traces);
        sim::Rng rng(kSeed);
        const auto synthetic =
            core::Generator(model).generate(cap.traces.requests.size(), rng);
        core::ReplayConfig rc;
        rc.cpu_verify_fraction = model.cpu_verify_fraction();
        core::Replayer replayer(rc);
        const auto replayed = replayer.replay(synthetic);
        auto report = core::compare_features(trace::extract_features(cap.traces),
                                             trace::extract_features(replayed.traces),
                                             "scenario: " + name);
        report.unknown_phases = replayed.unknown_phases;
        std::cout << report.to_table()
                  << "  max feature variation: "
                  << bench::fmt_pct(report.max_feature_variation())
                  << "   latency variation: "
                  << bench::fmt_pct(report.latency_variation()) << "\n\n";
    }
}

void BM_TrainHmmTable2(benchmark::State& state) {
    const auto ts = bench::simulate(training_workload(50));
    for (auto _ : state) {
        auto model = baselines::HmmModel::train(ts);
        benchmark::DoNotOptimize(model.parameter_count());
    }
}
BENCHMARK(BM_TrainHmmTable2);

void BM_TrainTable2(benchmark::State& state) {
    const auto ts = bench::simulate(training_workload(50));
    core::Trainer trainer;
    for (auto _ : state) {
        auto model = trainer.train(ts);
        benchmark::DoNotOptimize(model.parameter_count());
    }
}
BENCHMARK(BM_TrainTable2);

void BM_GenerateTable2(benchmark::State& state) {
    const auto ts = bench::simulate(training_workload(50));
    const auto model = core::Trainer().train(ts);
    sim::Rng rng(kSeed);
    for (auto _ : state) {
        auto w = core::Generator(model).generate(200, rng);
        benchmark::DoNotOptimize(w.requests.size());
    }
}
BENCHMARK(BM_GenerateTable2);

void BM_ReplayTable2(benchmark::State& state) {
    const gfs::GfsConfig cfg;
    const auto ts = bench::simulate(training_workload(50), cfg);
    const auto model = core::Trainer().train(ts);
    sim::Rng rng(kSeed);
    const auto w = core::Generator(model).generate(200, rng);
    core::ReplayConfig rc(cfg);
    rc.cpu_verify_fraction = model.cpu_verify_fraction();
    core::Replayer replayer(rc);
    for (auto _ : state) {
        auto res = replayer.replay(w);
        benchmark::DoNotOptimize(res.latencies.size());
    }
}
BENCHMARK(BM_ReplayTable2);

}  // namespace

int main(int argc, char** argv) {
    kooza::bench::print_run_header(kSeed);
    print_table2();
    print_hmm_column();
    print_scenario_axis();
    return kooza::bench::run_benchmarks(argc, argv);
}
