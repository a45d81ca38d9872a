// bench_closedloop — the closed-loop concurrency study the paper's
// cross-examination motivates: open-loop models replay a fixed arrival
// list, but real clients wait for completions, so tail latency and
// goodput react to the system under test. Three questions, one JSON:
//
//  1. Concurrency sweep: p50/p95/p99 latency and goodput as the closed
//     client population grows (window 1, so the interactive response-time
//     law R = N/X - Z applies exactly; the law column cross-checks the
//     simulator against textbook queueing).
//  2. Admission control: a static ticket sweep finds the offline-optimal
//     concurrency limit (smallest ticket count within 5% of peak
//     goodput), then the adaptive probe-and-adapt controller runs on the
//     same workload. Acceptance: the converged ticket count lands within
//     15% (or +-1 ticket) of the offline optimum.
//  3. Prediction error: a model trained on an OPEN-loop capture of the
//     same request mix replays against the CLOSED-loop observation — the
//     "Latency p99" row's variation is how badly an open-loop-trained
//     model mispredicts a closed-loop tail.
//
// Written to BENCH_closedloop.json. Run with --smoke for a fast
// regression check; the CMake target `bench_closedloop_smoke` wires that
// into the default ctest tier.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/capture.hpp"
#include "core/generator.hpp"
#include "core/validator.hpp"
#include "queueing/interactive.hpp"
#include "trace/features.hpp"
#include "workloads/scenarios.hpp"

namespace {

using namespace kooza;

constexpr std::uint64_t kSeed = 42;
/// Converged tickets must land within this fraction of the offline
/// optimum (never tighter than +-1 ticket — the counts are integers).
constexpr double kConvergenceTolerance = 0.15;

/// The contended workload both admission legs share: 32 clients x 4
/// outstanding against one server saturates the device pipeline, so the
/// ticket count genuinely matters.
core::CaptureOptions saturated_options(std::size_t count) {
    core::CaptureOptions co;
    co.closed_loop = true;
    co.clients = 32;
    co.outstanding = 4;
    co.think_time = 0.001;
    co.count = count;
    co.seed = kSeed;
    co.read_fraction = 0.9;
    co.read_size = 64ull << 10;
    co.write_size = 256ull << 10;
    return co;
}

// ---------------------------------------------------------------------------
// Leg 1: concurrency sweep + interactive response-time law cross-check.
// ---------------------------------------------------------------------------

struct SweepRow {
    std::size_t clients = 0;
    double goodput = 0.0;
    double mean = 0.0, p50 = 0.0, p95 = 0.0, p99 = 0.0;
    double law = 0.0;      ///< R = N/X - Z predicted from measured goodput
    double law_err = 0.0;  ///< |law - mean| / mean, percent
};

std::vector<SweepRow> concurrency_sweep(bool smoke) {
    const auto populations = smoke ? std::vector<std::size_t>{1, 4, 16}
                                   : std::vector<std::size_t>{1, 2, 4, 8, 16, 32, 64};
    const double think = 0.01;
    std::vector<SweepRow> rows;
    bench::Table table({9, 12, 11, 11, 11, 11, 11, 9});
    table.row("clients", "goodput/s", "mean", "p50", "p95", "p99", "law R",
              "law err");
    table.rule();
    for (const auto n : populations) {
        core::CaptureOptions co;
        co.closed_loop = true;
        co.clients = n;
        co.outstanding = 1;  // window 1: the law's N is exactly `clients`
        co.think_time = think;
        co.count = (smoke ? 100 : 300) * n;
        co.seed = kSeed;
        co.read_fraction = 0.9;
        co.read_size = 64ull << 10;
        co.write_size = 256ull << 10;
        const auto res = core::run_capture(co);
        SweepRow r;
        r.clients = n;
        r.goodput = res.goodput;
        r.mean = res.latency.mean;
        r.p50 = res.latency.median;
        r.p95 = res.latency.p95;
        r.p99 = res.latency.p99;
        r.law = queueing::interactive_response_time(n, think, res.goodput);
        r.law_err = r.mean > 0.0 ? std::abs(r.law - r.mean) / r.mean * 100.0 : 0.0;
        rows.push_back(r);
        table.row(n, bench::fmt(r.goodput, 1), bench::fmt_ms(r.mean),
                  bench::fmt_ms(r.p50), bench::fmt_ms(r.p95), bench::fmt_ms(r.p99),
                  bench::fmt_ms(r.law), bench::fmt_pct(r.law_err, 1));
    }
    table.rule();
    return rows;
}

// ---------------------------------------------------------------------------
// Leg 2: offline-optimal ticket sweep vs the adaptive controller.
// ---------------------------------------------------------------------------

struct TicketPoint {
    std::uint32_t tickets = 0;
    double goodput = 0.0;
};

struct AdmissionResult {
    std::vector<TicketPoint> sweep;
    std::uint32_t offline_optimal = 0;
    std::uint32_t converged = 0;
    std::uint32_t tolerance = 0;
    double adaptive_goodput = 0.0;
    bool pass = false;
};

AdmissionResult admission_study(bool smoke) {
    const auto ticket_counts = smoke
                                   ? std::vector<std::uint32_t>{1, 2, 4, 8, 16}
                                   : std::vector<std::uint32_t>{1, 2, 3, 4, 6, 8,
                                                                12, 16, 24, 32};
    const std::size_t count = smoke ? 1200 : 4000;
    AdmissionResult out;

    // The admission study measures goodput as a function of the
    // concurrency *limit*, so the offered load must fit the wait queue:
    // 32 clients x 2 outstanding = 64 concurrent requests against the
    // 64-deep queue means the queue policy (almost) never sheds, and
    // every pinned run measures the ticket count, not the reject rate.
    // (4 outstanding would bounce half the offered load instantly and
    // end the run before the controller's probe loop saw two windows.)
    auto study_options = [count] {
        auto co = saturated_options(count);
        co.outstanding = 2;
        return co;
    };

    bench::Table table({10, 14, 10});
    table.row("tickets", "goodput/s", "");
    table.rule();
    double best = 0.0;
    for (const auto t : ticket_counts) {
        auto co = study_options();
        co.admission = "queue";
        co.admission_tickets = t;  // pinned: probing off
        const auto res = core::run_capture(co);
        out.sweep.push_back({t, res.goodput});
        best = std::max(best, res.goodput);
    }
    // Offline optimum: the smallest pinned ticket count within 5% of peak
    // goodput — the same smallest-within-band criterion the controller's
    // hysteresis uses, so the two searches target the same answer.
    for (const auto& p : out.sweep) {
        if (p.goodput >= 0.95 * best) {
            out.offline_optimal = p.tickets;
            break;
        }
    }
    for (const auto& p : out.sweep)
        table.row(p.tickets, bench::fmt(p.goodput, 1),
                  p.tickets == out.offline_optimal ? "<= optimal" : "");
    table.rule();

    auto co = study_options();
    co.admission = "queue";  // adaptive: tickets probe from the default
    const auto adaptive = core::run_capture(co);
    out.converged = adaptive.converged_tickets;
    out.adaptive_goodput = adaptive.goodput;
    out.tolerance = std::max<std::uint32_t>(
        1, std::uint32_t(kConvergenceTolerance * double(out.offline_optimal)));
    const auto diff = out.converged > out.offline_optimal
                          ? out.converged - out.offline_optimal
                          : out.offline_optimal - out.converged;
    out.pass = diff <= out.tolerance;
    std::cout << "\nadaptive controller: converged tickets=" << out.converged
              << " goodput=" << bench::fmt(out.adaptive_goodput, 1)
              << "/s vs offline optimal=" << out.offline_optimal << " (+-"
              << out.tolerance << ") => " << (out.pass ? "PASS" : "FAIL") << "\n";
    return out;
}

// ---------------------------------------------------------------------------
// Leg 3: per-scenario tail report (the closed-loop scenario library).
// ---------------------------------------------------------------------------

struct ScenarioRow {
    std::string name;
    std::uint64_t completed = 0, rejected = 0;
    double goodput = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

std::vector<ScenarioRow> scenario_report(bool smoke) {
    std::vector<ScenarioRow> rows;
    bench::Table table({24, 11, 10, 12, 11, 11, 11});
    table.row("scenario", "completed", "rejected", "goodput/s", "p50", "p95",
              "p99");
    table.rule();
    for (const auto& name : workloads::closed_loop_scenario_names()) {
        core::CaptureOptions co;
        co.scenario = name;
        co.count = smoke ? 500 : 2000;
        co.seed = kSeed;
        co.admission = "queue";
        const auto res = core::run_capture(co);
        ScenarioRow r;
        r.name = name;
        r.completed = res.completed;
        r.rejected = res.rejected;
        r.goodput = res.goodput;
        r.p50 = res.latency.median;
        r.p95 = res.latency.p95;
        r.p99 = res.latency.p99;
        rows.push_back(r);
        table.row(r.name, r.completed, r.rejected, bench::fmt(r.goodput, 1),
                  bench::fmt_ms(r.p50), bench::fmt_ms(r.p95), bench::fmt_ms(r.p99));
    }
    table.rule();
    return rows;
}

// ---------------------------------------------------------------------------
// Leg 4: open-loop-trained model vs closed-loop observation.
// ---------------------------------------------------------------------------

double p99_prediction_error(bool smoke) {
    // Train on an open-loop capture of the same request mix the
    // closed-loop pool draws (sizes, read fraction) — the model never
    // sees closed-loop feedback.
    core::CaptureOptions open;
    open.profile = "micro";
    open.count = smoke ? 400 : 1500;
    open.rate = 50.0;
    open.seed = kSeed;
    open.read_fraction = 0.9;
    open.read_size = 64ull << 10;
    open.write_size = 256ull << 10;
    const auto train_cap = core::run_capture(open);

    core::Trainer trainer({.workload_name = "closedloop-openloop-model"});
    const auto model = trainer.train(train_cap.traces);

    const auto closed_cap = core::run_capture(saturated_options(smoke ? 800 : 3000));

    sim::Rng rng(kSeed);
    const auto synthetic =
        core::Generator(model).generate(closed_cap.traces.requests.size(), rng);
    core::ReplayConfig rc;
    rc.cpu_verify_fraction = model.cpu_verify_fraction();
    core::Replayer replayer(rc);
    const auto replayed = replayer.replay(synthetic);
    auto report = core::compare_features(trace::extract_features(closed_cap.traces),
                                         trace::extract_features(replayed.traces),
                                         "open-loop model vs closed-loop run");
    report.unknown_phases = replayed.unknown_phases;
    std::cout << report.to_table();
    for (const auto& r : report.rows) {
        if (r.metric == "Latency p99" && !r.absolute) {
            std::cout << "  open-loop-trained p99 prediction error: "
                      << bench::fmt_pct(r.variation_pct) << "\n";
            return r.variation_pct;
        }
    }
    return 0.0;
}

// ---------------------------------------------------------------------------
// JSON + google-benchmark registrations.
// ---------------------------------------------------------------------------

void write_json(const std::vector<SweepRow>& sweep,
                const std::vector<ScenarioRow>& scenarios,
                const AdmissionResult& adm, double p99_err, bool smoke) {
    std::ofstream f("BENCH_closedloop.json");
    f.precision(3);
    f << std::fixed;
    f << "{\n  \"schema\": \"kooza.bench_closedloop/1\",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n  \"concurrency_sweep\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto& r = sweep[i];
        f << "    {\"clients\": " << r.clients << ", \"goodput_rps\": " << r.goodput
          << ", \"latency_p50_ms\": " << r.p50 * 1e3
          << ", \"latency_p95_ms\": " << r.p95 * 1e3
          << ", \"latency_p99_ms\": " << r.p99 * 1e3
          << ", \"law_error_pct\": " << r.law_err << "}"
          << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    f << "  ],\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const auto& r = scenarios[i];
        f << "    {\"name\": \"" << r.name << "\", \"completed\": " << r.completed
          << ", \"rejected\": " << r.rejected << ", \"goodput_rps\": " << r.goodput
          << ", \"latency_p50_ms\": " << r.p50 * 1e3
          << ", \"latency_p95_ms\": " << r.p95 * 1e3
          << ", \"latency_p99_ms\": " << r.p99 * 1e3 << "}"
          << (i + 1 < scenarios.size() ? "," : "") << "\n";
    }
    f << "  ],\n  \"ticket_sweep\": [\n";
    for (std::size_t i = 0; i < adm.sweep.size(); ++i) {
        const auto& p = adm.sweep[i];
        f << "    {\"tickets\": " << p.tickets << ", \"goodput_rps\": " << p.goodput
          << "}" << (i + 1 < adm.sweep.size() ? "," : "") << "\n";
    }
    f << "  ],\n  \"admission\": {\"offline_optimal_tickets\": "
      << adm.offline_optimal << ", \"converged_tickets\": " << adm.converged
      << ", \"adaptive_goodput_rps\": " << adm.adaptive_goodput
      << ", \"tolerance_tickets\": " << adm.tolerance
      << ", \"pass\": " << (adm.pass ? "true" : "false")
      << "},\n  \"p99_prediction\": {\"open_loop_trained_error_pct\": " << p99_err
      << "}\n}\n";
}

void BM_ClosedLoopCapture(benchmark::State& state) {
    for (auto _ : state) {
        auto co = saturated_options(400);
        const auto res = core::run_capture(co);
        benchmark::DoNotOptimize(res.completed);
    }
}
BENCHMARK(BM_ClosedLoopCapture)->Unit(benchmark::kMillisecond);

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
    std::cout << "\nClosed-loop concurrency study"
              << (smoke ? " (--smoke sizes)" : "") << "\n\n"
              << "concurrency sweep (window 1, think 10 ms; law R = N/X - Z):\n";
    const auto sweep = concurrency_sweep(smoke);

    std::cout << "\nticket sweep (32 clients x 2 outstanding, pinned tickets):\n";
    const auto adm = admission_study(smoke);

    std::cout << "\nclosed-loop scenarios (adaptive admission, queue policy):\n";
    const auto scenarios = scenario_report(smoke);

    std::cout << "\nopen-loop-trained model replayed against the closed-loop "
                 "observation:\n";
    const double p99_err = p99_prediction_error(smoke);

    write_json(sweep, scenarios, adm, p99_err, smoke);
    std::cout << "\nwrote BENCH_closedloop.json\n\n";
    if (!adm.pass) return 1;

    return kooza::bench::run_benchmarks(argc, args.data());
}
