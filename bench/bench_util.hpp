// Shared helpers for the experiment benches: each bench reproduces one
// table or figure of the paper (see DESIGN.md's experiment index), prints
// it to stdout, then runs google-benchmark timings for the pipeline
// stages it exercises.
#pragma once

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/replayer.hpp"
#include "core/trainer.hpp"
#include "gfs/cluster.hpp"
#include "par/pool.hpp"
#include "workloads/profiles.hpp"

namespace kooza::bench {

/// Reproducibility banner every bench prints before its tables: the run
/// seed plus the pool size (sweep points run across the pool, so both are
/// needed to reproduce and to interpret wall-clock numbers).
inline void print_run_header(std::uint64_t seed) {
    std::cout << "run: seed=" << seed << " threads=" << par::threads() << "\n";
}

/// Variant for fully deterministic benches that draw no random numbers.
inline void print_run_header() {
    std::cout << "run: seed=none threads=" << par::threads() << "\n";
}

/// Evaluate `n` independent sweep points across the thread pool; result i
/// is fn(i), merged by index so tables print in sweep order regardless of
/// thread count. Points must not share mutable state (give each its own
/// seeded Rng).
template <typename Fn>
auto sweep(std::size_t n, Fn&& fn) {
    return par::pool().parallel_map(n, std::forward<Fn>(fn));
}

/// Simulate a workload on a fresh cluster and return its traces.
inline trace::TraceSet simulate(const workloads::Workload& w,
                                const gfs::GfsConfig& cfg = gfs::GfsConfig{}) {
    gfs::Cluster cluster(cfg);
    w.install(cluster);
    cluster.run();
    return cluster.traces();
}

/// Fixed-width table printer.
class Table {
public:
    explicit Table(std::vector<int> widths) : widths_(std::move(widths)) {}

    template <typename... Cells>
    void row(Cells&&... cells) {
        std::size_t i = 0;
        std::ostringstream os;
        ((os << std::left << std::setw(widths_[i++]) << cells), ...);
        std::cout << os.str() << "\n";
    }

    void rule() const {
        int total = 0;
        for (int w : widths_) total += w;
        std::cout << std::string(std::size_t(total), '-') << "\n";
    }

private:
    std::vector<int> widths_;
};

/// `name` under the system temp directory, suffixed with the process id
/// so two bench runs at once never share files.
inline std::filesystem::path scratch_dir(const std::string& name) {
    return std::filesystem::temp_directory_path() /
           (name + "_" + std::to_string(::getpid()));
}

inline std::string fmt(double v, int precision = 2) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

inline std::string fmt_bytes(double v) {
    std::ostringstream os;
    os << std::fixed;
    if (v >= double(1ull << 20))
        os << std::setprecision(2) << v / double(1ull << 20) << " MB";
    else if (v >= 1024.0)
        os << std::setprecision(1) << v / 1024.0 << " KB";
    else
        os << std::setprecision(0) << v << " B";
    return os.str();
}

inline std::string fmt_pct(double v, int precision = 2) {
    return fmt(v, precision) + "%";
}

inline std::string fmt_ms(double seconds, int precision = 2) {
    return fmt(seconds * 1e3, precision) + " ms";
}

/// Standard bench entry: print the experiment, then run registered
/// google-benchmark timings.
inline int run_benchmarks(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

}  // namespace kooza::bench
