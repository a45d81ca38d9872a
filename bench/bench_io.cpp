// bench_io — trace serialization throughput: CSV vs kooza.trace/1 binary
// columnar, at three trace sizes up to >1M records. Prints a table and
// writes BENCH_io.json (MB/s and records/s per format and size) so the
// acceptance bar — binary >= 5x CSV end-to-end read records/s on a
// >= 1M-record capture — is machine-checkable.
#include <chrono>
#include <filesystem>
#include <fstream>

#include "bench_util.hpp"
#include "sim/rng.hpp"
#include "trace/binary.hpp"
#include "trace/csv.hpp"
#include "trace/io.hpp"

namespace {

namespace fs = std::filesystem;
using namespace kooza;
using trace::TraceSet;

/// Synthetic capture shaped like a real one: per request, one record in
/// every subsystem stream plus a span; occasional failure events.
TraceSet synthetic_traces(std::size_t requests, std::uint64_t seed) {
    sim::Rng rng(seed);
    TraceSet ts;
    static const char* kPhases[] = {"request", "net.rx", "cpu.verify",
                                    "disk.io", "repl.forward", "net.tx"};
    for (std::size_t i = 0; i < requests; ++i) {
        const double t = double(i) * 1e-3 + rng.uniform(0.0, 1e-3);
        const auto id = std::uint64_t(i + 1);
        const auto bytes = std::uint64_t(rng.uniform_int(512, 4 << 20));
        const auto type =
            rng.bernoulli(0.7) ? trace::IoType::kRead : trace::IoType::kWrite;
        ts.requests.push_back({id, type, t, t + rng.uniform(1e-3, 5e-2), bytes});
        ts.storage.push_back({t, id, std::uint64_t(rng.uniform_int(0, 1 << 20)),
                              bytes, type, rng.uniform(1e-4, 1e-2)});
        ts.cpu.push_back({t, id, rng.uniform(1e-5, 1e-3), rng.uniform(0.0, 1.0)});
        ts.memory.push_back({t, id, std::uint32_t(rng.uniform_int(0, 15)),
                             bytes / 4, type});
        ts.network.push_back({t, id, bytes,
                              rng.bernoulli(0.5)
                                  ? trace::NetworkRecord::Direction::kRx
                                  : trace::NetworkRecord::Direction::kTx,
                              rng.uniform(1e-5, 1e-3)});
        if (i % 100 == 0)
            ts.failures.push_back({t, id, std::uint32_t(rng.uniform_int(0, 7)),
                                   trace::FailureRecord::Kind::kFailover,
                                   rng.uniform(0.0, 0.5)});
        trace::Span sp;
        sp.trace_id = id;
        sp.span_id = id;
        sp.parent_id = 0;
        sp.name = kPhases[i % 6];
        sp.start = t;
        sp.end = t + 1e-3;
        ts.spans.push_back(sp);
    }
    return ts;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

std::uint64_t dir_bytes(const fs::path& dir) {
    std::uint64_t total = 0;
    for (const auto& e : fs::directory_iterator(dir))
        if (e.is_regular_file()) total += e.file_size();
    return total;
}

struct FormatResult {
    double write_s = 0.0;
    double read_s = 0.0;
    std::uint64_t bytes = 0;
};

struct SizeResult {
    std::size_t records = 0;
    FormatResult csv, bin;
};

FormatResult run_format(const TraceSet& ts, const fs::path& dir,
                        trace::Format fmt) {
    FormatResult r;
    fs::remove_all(dir);
    auto t0 = std::chrono::steady_clock::now();
    trace::write_traces(ts, dir, fmt);
    r.write_s = seconds_since(t0);
    r.bytes = dir_bytes(dir);
    // Read twice, keep the faster pass (first one warms the page cache).
    for (int pass = 0; pass < 2; ++pass) {
        t0 = std::chrono::steady_clock::now();
        const auto back = trace::read_traces(dir, fmt);
        const auto s = seconds_since(t0);
        if (back.total_records() != ts.total_records())
            throw std::runtime_error("bench_io: read-back record count mismatch");
        r.read_s = pass == 0 ? s : std::min(r.read_s, s);
    }
    return r;
}

void write_json(const std::vector<SizeResult>& results, const fs::path& path) {
    std::ofstream f(path);
    f.precision(6);
    f << std::fixed;
    auto fmt_obj = [&](const char* name, std::size_t records,
                       const FormatResult& r, bool last) {
        const double mb = double(r.bytes) / (1024.0 * 1024.0);
        f << "    \"" << name << "\": {\"bytes\": " << r.bytes
          << ", \"write_s\": " << r.write_s << ", \"read_s\": " << r.read_s
          << ", \"write_mb_s\": " << mb / r.write_s
          << ", \"read_mb_s\": " << mb / r.read_s
          << ", \"write_records_s\": " << double(records) / r.write_s
          << ", \"read_records_s\": " << double(records) / r.read_s << "}"
          << (last ? "\n" : ",\n");
    };
    f << "{\n  \"schema\": \"kooza.bench_io/1\",\n  \"sizes\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& s = results[i];
        f << "  {\n    \"records\": " << s.records << ",\n";
        fmt_obj("csv", s.records, s.csv, false);
        fmt_obj("bin", s.records, s.bin, false);
        f << "    \"read_speedup_records_s\": "
          << (double(s.records) / s.bin.read_s) /
                 (double(s.records) / s.csv.read_s)
          << "\n  }" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    f << "  ]\n}\n";
}

// google-benchmark registrations over the smallest size, so `--benchmark_*`
// flags work here like in every other bench.
const TraceSet& small_traces() {
    static const TraceSet ts = synthetic_traces(2000, 17);
    return ts;
}

void BM_ReadCsv(benchmark::State& state) {
    const auto dir = bench::scratch_dir("kooza_bench_io_bm_csv");
    trace::write_csv(small_traces(), dir);
    for (auto _ : state)
        benchmark::DoNotOptimize(trace::read_csv(dir));
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(small_traces().total_records()));
    fs::remove_all(dir);
}
BENCHMARK(BM_ReadCsv)->Unit(benchmark::kMillisecond);

void BM_ReadBinary(benchmark::State& state) {
    const auto dir = bench::scratch_dir("kooza_bench_io_bm_bin");
    trace::write_binary(small_traces(), dir);
    for (auto _ : state)
        benchmark::DoNotOptimize(trace::read_binary(dir));
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(small_traces().total_records()));
    fs::remove_all(dir);
}
BENCHMARK(BM_ReadBinary)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    using kooza::bench::Table;
    using kooza::bench::fmt;
    kooza::bench::print_run_header(17);
    std::cout << "\nTrace I/O: CSV vs kooza.trace/1 binary columnar\n\n";

    // ~6.01 records per request (see synthetic_traces): the largest size
    // clears the 1M-record acceptance bar.
    const std::size_t kRequests[] = {2'000, 30'000, 170'000};
    std::vector<SizeResult> results;
    Table table({12, 10, 14, 14, 14, 14, 12});
    table.row("records", "format", "size", "write MB/s", "read MB/s",
              "read Mrec/s", "read x");
    table.rule();
    for (const auto n : kRequests) {
        const auto ts = synthetic_traces(n, 17);
        SizeResult sr;
        sr.records = ts.total_records();
        const auto csv_dir = bench::scratch_dir("kooza_bench_io_csv");
        const auto bin_dir = bench::scratch_dir("kooza_bench_io_bin");
        sr.csv = run_format(ts, csv_dir, trace::Format::kCsv);
        sr.bin = run_format(ts, bin_dir, trace::Format::kBinary);
        const double speedup = sr.csv.read_s / sr.bin.read_s;
        auto row = [&](const char* name, const FormatResult& r,
                       const std::string& x) {
            table.row(sr.records, name, kooza::bench::fmt_bytes(double(r.bytes)),
                      fmt(double(r.bytes) / (1024.0 * 1024.0) / r.write_s, 1),
                      fmt(double(r.bytes) / (1024.0 * 1024.0) / r.read_s, 1),
                      fmt(double(sr.records) / r.read_s / 1e6, 2), x);
        };
        row("csv", sr.csv, "1.00");
        row("bin", sr.bin, fmt(speedup, 2));
        results.push_back(sr);
        fs::remove_all(csv_dir);
        fs::remove_all(bin_dir);
    }
    table.rule();

    const auto& big = results.back();
    const double big_speedup = big.csv.read_s / big.bin.read_s;
    std::cout << "\nlargest capture: " << big.records
              << " records, binary read speedup " << fmt(big_speedup, 2)
              << "x (target >= 5x)\n";

    write_json(results, "BENCH_io.json");
    std::cout << "wrote BENCH_io.json\n\n";

    return kooza::bench::run_benchmarks(argc, argv);
}
