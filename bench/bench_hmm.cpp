// HMM storage-baseline regression line.
//
// End-to-end check of the Harrison-style HMM baseline (baselines::HmmModel)
// against its two contracts:
//
//   1. chunked-training byte identity — training through
//      trace::ChunkedReader (tiny chunks) must produce a model
//      byte-identical to training on the materialized TraceSet;
//   2. accuracy-vs-cost — the fitted model's synthetic storage-size
//      marginal stays close to the training trace (KS bar) and the
//      arrival rate is reproduced, at a parameter budget and fit wall
//      time reported as the headline row.
//
// Written to BENCH_hmm.json. Run with --smoke for the fast regression
// check; the CMake target `bench_hmm_smoke` wires that into the default
// ctest tier (label: hmm). Exits nonzero when a bar is missed.

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "baselines/hmm.hpp"
#include "bench_util.hpp"
#include "stats/descriptive.hpp"
#include "stats/hypothesis.hpp"
#include "trace/features.hpp"
#include "trace/io.hpp"
#include "workloads/profiles.hpp"

namespace {

namespace fs = std::filesystem;
using namespace kooza;

constexpr std::uint64_t kSeed = 29;
constexpr double kSizeKsBar = 0.15;
constexpr double kRateErrBarPct = 50.0;

struct Result {
    bool byte_identical = false;
    double size_ks = 1.0;
    double rate_err_pct = 100.0;
    std::size_t params = 0;
    std::size_t states = 0;
    double fit_ms = 0.0;
    std::size_t requests = 0;
    bool pass() const {
        return byte_identical && size_ks < kSizeKsBar &&
               rate_err_pct < kRateErrBarPct;
    }
};

/// Every fitted parameter, compared exactly (the same contract
/// test_baselines_hmm enforces, here as a release-build regression line).
bool models_identical(const baselines::HmmModel& a, const baselines::HmmModel& b) {
    const std::pair<const markov::Echmm*, const markov::Echmm*> pairs[] = {
        {&a.interarrival_hmm(), &b.interarrival_hmm()},
        {&a.size_hmm(), &b.size_hmm()}};
    for (const auto& [x, y] : pairs) {
        if (x->n_states() != y->n_states()) return false;
        if (x->training_log_likelihood() != y->training_log_likelihood())
            return false;
        for (std::size_t i = 0; i < x->n_states(); ++i) {
            if (x->emission_mean(i) != y->emission_mean(i)) return false;
            if (x->emission_stddev(i) != y->emission_stddev(i)) return false;
            if (x->initial()[i] != y->initial()[i]) return false;
            for (std::size_t j = 0; j < x->n_states(); ++j)
                if (x->transition(i, j) != y->transition(i, j)) return false;
        }
    }
    if (a.read_fraction() != b.read_fraction()) return false;
    for (std::size_t s = 0; s < a.state_read_prob().size(); ++s)
        if (a.state_read_prob()[s] != b.state_read_prob()[s]) return false;
    return a.parameter_count() == b.parameter_count();
}

Result run(bool smoke) {
    Result r;
    sim::Rng rng(kSeed);
    workloads::WebSearchProfile profile(
        {.count = smoke ? 350u : 1500u, .arrival_rate = 30.0});
    gfs::GfsConfig cfg;
    const auto ts = bench::simulate(profile.generate(rng), cfg);
    const auto orig = trace::extract_features(ts);
    r.requests = orig.size();

    const fs::path dir = bench::scratch_dir("kooza_bench_hmm");
    fs::remove_all(dir);
    trace::write_traces(ts, dir, trace::Format::kBinary);
    const auto ts_back = trace::read_traces(dir);

    const auto materialized = baselines::HmmModel::train(ts_back);
    // 64-row chunks force many ChunkedReader batches per stream.
    const auto chunked = baselines::HmmModel::train_streaming(dir, {}, 64);
    fs::remove_all(dir);
    r.byte_identical = models_identical(materialized, chunked);

    r.params = materialized.parameter_count();
    r.states = materialized.config().n_states;
    r.fit_ms = materialized.fit_wall_seconds() * 1e3;

    sim::Rng gen_rng(kSeed + 1);
    const auto w = materialized.generate(smoke ? 1000 : 4000, gen_rng);
    const auto orig_sizes = trace::column_storage_bytes(orig);
    std::vector<double> synth_sizes;
    for (const auto& q : w.requests) synth_sizes.push_back(double(q.storage_bytes));
    r.size_ks = stats::ks_statistic_two_sample(orig_sizes, synth_sizes);

    const double orig_rate =
        double(orig.size() - 1) / (orig.back().arrival - orig.front().arrival);
    const double synth_rate = double(w.requests.size() - 1) /
                              (w.requests.back().time - w.requests.front().time);
    r.rate_err_pct = stats::variation_pct(synth_rate, orig_rate);
    return r;
}

void write_json(const Result& r, bool smoke) {
    std::ofstream f("BENCH_hmm.json");
    f.precision(4);
    f << std::fixed;
    f << "{\n  \"schema\": \"kooza.bench_hmm/1\",\n  \"smoke\": "
      << (smoke ? "true" : "false")
      << ",\n  \"chunked_byte_identical\": " << (r.byte_identical ? "true" : "false")
      << ",\n  \"size_ks\": " << r.size_ks
      << ",\n  \"size_ks_bar\": " << kSizeKsBar
      << ",\n  \"rate_err_pct\": " << r.rate_err_pct
      << ",\n  \"rate_err_bar_pct\": " << kRateErrBarPct
      << ",\n  \"params\": " << r.params << ",\n  \"states\": " << r.states
      << ",\n  \"fit_ms\": " << r.fit_ms
      << ",\n  \"training_requests\": " << r.requests
      << ",\n  \"pass\": " << (r.pass() ? "true" : "false") << "\n}\n";
}

void BM_TrainHmmBaseline(benchmark::State& state) {
    sim::Rng rng(kSeed);
    workloads::WebSearchProfile profile({.count = 350, .arrival_rate = 30.0});
    const auto ts = bench::simulate(profile.generate(rng), gfs::GfsConfig{});
    baselines::HmmConfig cfg{.n_states = std::size_t(state.range(0))};
    for (auto _ : state) {
        auto m = baselines::HmmModel::train(ts, cfg);
        benchmark::DoNotOptimize(m.parameter_count());
    }
}
BENCHMARK(BM_TrainHmmBaseline)->Arg(2)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_GenerateHmmBaseline(benchmark::State& state) {
    sim::Rng rng(kSeed);
    workloads::WebSearchProfile profile({.count = 350, .arrival_rate = 30.0});
    const auto ts = bench::simulate(profile.generate(rng), gfs::GfsConfig{});
    const auto m = baselines::HmmModel::train(ts);
    sim::Rng gen_rng(kSeed + 1);
    for (auto _ : state) {
        auto w = m.generate(1000, gen_rng);
        benchmark::DoNotOptimize(w.requests.size());
    }
}
BENCHMARK(BM_GenerateHmmBaseline);

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::vector<char*> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else
            args.push_back(argv[i]);
    }
    argc = int(args.size());

    kooza::bench::print_run_header(kSeed);
    std::cout << "\nHMM storage-baseline regression line"
              << (smoke ? " (--smoke sizes)" : "") << "\n\n";
    const auto r = run(smoke);

    bench::Table t({22, 12, 10, 12, 12, 10, 12});
    t.row("Check", "ByteIdent", "SizeKS", "RateErr%", "Params", "FitMs", "Requests");
    t.rule();
    t.row("hmm/" + std::to_string(r.states) + "-state",
          r.byte_identical ? "yes" : "NO", bench::fmt(r.size_ks, 3),
          bench::fmt(r.rate_err_pct, 1), r.params, bench::fmt(r.fit_ms, 2),
          r.requests);
    std::cout << "\nbars: chunked==materialized, SizeKS < " << kSizeKsBar
              << ", RateErr < " << kRateErrBarPct << "%\n";

    write_json(r, smoke);
    std::cout << "wrote BENCH_hmm.json -> " << (r.pass() ? "PASS" : "FAIL")
              << "\n\n";
    if (!r.pass()) return 1;

    return kooza::bench::run_benchmarks(argc, args.data());
}
