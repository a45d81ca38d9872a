// bench_scale — datacenter-scale streamed capture: O(1000) chunkservers
// and millions of requests with flat peak memory.
//
// Two machine-checkable claims, written to BENCH_scale.json:
//  1. Peak RSS of a streamed capture (--stream) is flat in the horizon:
//     a 1000-chunkserver sweep over 1M/2M/4M requests stays within 10%
//     of its minimum. Each sweep point runs in a forked child so
//     ru_maxrss is that capture's own monotone peak.
//  2. Streamed output is byte-identical to the materialized
//     write_traces path, at 1 and at 8 worker threads, including under
//     fault injection with replication.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "bench_util.hpp"
#include "core/capture.hpp"
#include "trace/io.hpp"

namespace {

namespace fs = std::filesystem;
using namespace kooza;

constexpr std::size_t kServers = 1000;
constexpr std::size_t kSweepRequests[] = {1'000'000, 2'000'000, 4'000'000};
constexpr double kFlatness = 1.10;  ///< max/min peak-RSS bound across the sweep

core::CaptureOptions scale_options(std::size_t requests, const fs::path& dir) {
    core::CaptureOptions o;
    o.profile = "micro";
    o.count = requests;
    o.rate = 1000.0;
    o.seed = 5;
    o.n_servers = kServers;
    o.span_sample_every = 100;
    o.out_dir = dir.string();
    o.stream = true;
    // Switch-friendly request sizes: the 4 MB micro default is chopped
    // into ~2800 MTU frames per request, which measures the switch, not
    // the capture path.
    o.read_size = 8192;
    o.write_size = 8192;
    // The per-request latency vector is the one O(requests) structure
    // left in the cluster; a scale capture turns it off.
    o.collect_latencies = false;
    return o;
}

struct SweepPoint {
    std::size_t requests = 0;
    std::uint64_t records = 0;
    long peak_rss_kb = 0;
    double wall_s = 0.0;
    double sim_s = 0.0;
};

/// Run one streamed capture in a forked child and report its own
/// ru_maxrss. The fork keeps each point's peak independent (ru_maxrss
/// never decreases within a process) and starts from the parent's small
/// pre-sweep footprint.
SweepPoint run_sweep_point(std::size_t requests) {
    const auto dir = bench::scratch_dir("kooza_bench_scale_" + std::to_string(requests));
    int pipe_fd[2];
    if (pipe(pipe_fd) != 0) throw std::runtime_error("bench_scale: pipe failed");
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("bench_scale: fork failed");
    if (pid == 0) {
        close(pipe_fd[0]);
        const auto t0 = std::chrono::steady_clock::now();
        const auto res = core::run_capture(scale_options(requests, dir));
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        char line[256];
        const int len =
            std::snprintf(line, sizeof line, "%llu %ld %.6f %.6f",
                          static_cast<unsigned long long>(res.records),
                          ru.ru_maxrss, wall, res.duration);
        const auto written = write(pipe_fd[1], line, std::size_t(len));
        _exit(written == len ? 0 : 1);
    }
    close(pipe_fd[1]);
    char buf[256] = {};
    std::size_t got = 0;
    for (ssize_t n = 0;
         (n = read(pipe_fd[0], buf + got, sizeof buf - 1 - got)) > 0;)
        got += std::size_t(n);
    close(pipe_fd[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    fs::remove_all(dir);
    SweepPoint p;
    p.requests = requests;
    unsigned long long recs = 0;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        std::sscanf(buf, "%llu %ld %lf %lf", &recs, &p.peak_rss_kb, &p.wall_s,
                    &p.sim_s) != 4)
        throw std::runtime_error("bench_scale: sweep child failed");
    p.records = recs;
    return p;
}

/// Byte-compare the seven kooza.trace/1 stream files of two capture dirs.
bool dirs_identical(const fs::path& a, const fs::path& b) {
    static const char* kFiles[] = {"storage.bin",  "cpu.bin",      "memory.bin",
                                   "network.bin",  "requests.bin", "failures.bin",
                                   "spans.bin"};
    for (const char* name : kFiles) {
        std::ifstream fa(a / name, std::ios::binary);
        std::ifstream fb(b / name, std::ios::binary);
        if (!fa || !fb) return false;
        const std::string ba((std::istreambuf_iterator<char>(fa)),
                             std::istreambuf_iterator<char>());
        const std::string bb((std::istreambuf_iterator<char>(fb)),
                             std::istreambuf_iterator<char>());
        if (ba != bb) return false;
    }
    return true;
}

struct IdentityResult {
    std::uint64_t records = 0;
    bool streamed_equals_materialized = false;
    bool threads_1_equals_8 = false;
};

/// Faulty replicated capture, materialized vs streamed, 1 vs 8 threads.
IdentityResult check_identity() {
    core::CaptureOptions o;
    o.profile = "micro";
    o.count = 20'000;
    o.rate = 200.0;
    o.seed = 17;
    o.n_servers = 16;
    o.replication = 3;
    o.fault_rate = 0.05;
    o.mttr = 2.0;
    o.read_size = 65536;
    o.write_size = 65536;
    o.format = trace::Format::kBinary;

    const auto mat_dir = bench::scratch_dir("kooza_bench_scale_mat");
    const auto st1_dir = bench::scratch_dir("kooza_bench_scale_st1");
    const auto st8_dir = bench::scratch_dir("kooza_bench_scale_st8");

    IdentityResult r;
    par::set_threads(1);
    o.out_dir = mat_dir.string();
    o.stream = false;
    r.records = core::run_capture(o).records;
    o.out_dir = st1_dir.string();
    o.stream = true;
    (void)core::run_capture(o);
    par::set_threads(8);
    o.out_dir = st8_dir.string();
    (void)core::run_capture(o);
    par::set_threads(0);

    r.streamed_equals_materialized = dirs_identical(mat_dir, st1_dir);
    r.threads_1_equals_8 = dirs_identical(st1_dir, st8_dir);
    fs::remove_all(mat_dir);
    fs::remove_all(st1_dir);
    fs::remove_all(st8_dir);
    return r;
}

void write_json(const std::vector<SweepPoint>& sweep, double rss_ratio,
                const IdentityResult& id, const fs::path& path) {
    std::ofstream f(path);
    f.precision(6);
    f << std::fixed;
    f << "{\n  \"schema\": \"kooza.bench_scale/1\",\n"
      << "  \"servers\": " << kServers << ",\n  \"sweep\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto& p = sweep[i];
        f << "    {\"requests\": " << p.requests << ", \"records\": " << p.records
          << ", \"peak_rss_kb\": " << p.peak_rss_kb << ", \"wall_s\": " << p.wall_s
          << ", \"sim_s\": " << p.sim_s << "}"
          << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    const bool flat = rss_ratio <= kFlatness;
    f << "  ],\n  \"rss_ratio_max_over_min\": " << rss_ratio
      << ",\n  \"rss_flat_within_10pct\": " << (flat ? "true" : "false")
      << ",\n  \"identity\": {\"records\": " << id.records
      << ", \"streamed_equals_materialized\": "
      << (id.streamed_equals_materialized ? "true" : "false")
      << ", \"threads_1_equals_8\": "
      << (id.threads_1_equals_8 ? "true" : "false") << "}\n}\n";
}

// google-benchmark registration over a small streamed capture so the
// usual --benchmark_* flags time the capture path here too.
void BM_StreamedCapture(benchmark::State& state) {
    const auto dir = bench::scratch_dir("kooza_bench_scale_bm");
    for (auto _ : state) {
        auto o = scale_options(2000, dir);
        o.n_servers = 32;
        const auto res = core::run_capture(o);
        benchmark::DoNotOptimize(res.records);
    }
    fs::remove_all(dir);
}
BENCHMARK(BM_StreamedCapture)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    using kooza::bench::Table;
    using kooza::bench::fmt;
    kooza::bench::print_run_header(5);
    std::cout << "\nStreamed capture at datacenter scale: " << kServers
              << " chunkservers\n\n";

    // Sweep before the identity check so each forked child inherits a
    // small parent footprint.
    std::vector<SweepPoint> sweep;
    Table table({12, 14, 14, 12, 12});
    table.row("requests", "records", "peak RSS", "wall s", "sim s");
    table.rule();
    for (const auto n : kSweepRequests) {
        sweep.push_back(run_sweep_point(n));
        const auto& p = sweep.back();
        table.row(p.requests, p.records,
                  kooza::bench::fmt_bytes(double(p.peak_rss_kb) * 1024.0),
                  fmt(p.wall_s, 2), fmt(p.sim_s, 1));
    }
    table.rule();
    long min_rss = sweep.front().peak_rss_kb, max_rss = min_rss;
    for (const auto& p : sweep) {
        min_rss = std::min(min_rss, p.peak_rss_kb);
        max_rss = std::max(max_rss, p.peak_rss_kb);
    }
    const double ratio = double(max_rss) / double(min_rss);
    std::cout << "\npeak RSS max/min over " << sweep.front().requests << ".."
              << sweep.back().requests << " requests: " << fmt(ratio, 3)
              << " (flat bar: <= " << fmt(kFlatness, 2) << ")\n";

    std::cout << "\nbyte-identity (16 servers, replication 3, faults on):\n";
    const auto id = check_identity();
    std::cout << "  streamed == materialized: "
              << (id.streamed_equals_materialized ? "yes" : "NO") << "\n"
              << "  1 thread == 8 threads:    "
              << (id.threads_1_equals_8 ? "yes" : "NO") << "\n";

    write_json(sweep, ratio, id, "BENCH_scale.json");
    std::cout << "wrote BENCH_scale.json\n\n";

    const bool pass = ratio <= kFlatness && id.streamed_equals_materialized &&
                      id.threads_1_equals_8;
    if (!pass) {
        std::cout << "BENCH_scale: FAILED acceptance\n";
        return 1;
    }
    return kooza::bench::run_benchmarks(argc, argv);
}
