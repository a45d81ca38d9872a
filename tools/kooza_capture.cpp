// kooza_capture — run a workload on the GFS simulator and write the
// captured traces (per-subsystem records + spans) in the format
// kooza_inspect and kooza_model consume: human-readable CSV (default) or
// the kooza.trace/1 binary columnar fast path (--format bin).
//
// Usage:
//   kooza_capture <profile> <output-dir> [options]
//   kooza_capture --scenario NAME <output-dir> [options]
//   kooza_capture --model MODEL-FILE <output-dir> [options]
//   kooza_capture --replay TRACE-DIR <output-dir> [options]
//   kooza_capture --closed-loop <output-dir> [options]
//   kooza_capture --list-scenarios
// Options: [--count N] [--rate R] [--seed S] [--period S]
//          [--servers N] [--replication N] [--sample-every N]
//          [--threads N] [--format csv|bin] [--faults R] [--mttr S]
//          [--metrics FILE] [--stream] [--chunk-records N]
//          [--read-size B] [--write-size B] [--no-latencies]
//          [--clients N] [--outstanding N] [--think-time S]
//          [--admission queue|reject] [--admission-tickets N]
// Profiles: micro | oltp | websearch | streaming | logappend
//
// --scenario runs a scenario-library workload (diurnal, flashcrowd,
// tiered, checkpoint — see --list-scenarios); --period sets its envelope
// period. --model replays a trained model file (kooza_model output)
// through the capture pipeline; --replay re-issues the request log of an
// earlier capture. The three are mutually exclusive and replace the
// profile positional.
//
// --stream flushes records to <output-dir> (kooza.trace/1 binary, forced)
// while the simulation runs, in chunks of --chunk-records rows per
// stream: peak memory stays flat no matter how long the capture is, and
// the files are byte-identical to a non-streamed --format bin capture of
// the same options.
//
// --faults R enables the deterministic fault injector with a per-server
// failure rate of R crashes/second (MTBF = 1/R); --mttr sets the mean
// repair time. Failure/retry records land in failures.csv.
//
// --closed-loop drives the cluster with a pool of --clients clients each
// keeping --outstanding requests in flight, drawing exponential think
// time with mean --think-time between a completion and the next issue
// (closed-loop scenarios from --list-scenarios select a tuned pool).
// --admission enables ticket-based admission control at each chunkserver
// ("queue" parks overflow in a bounded FIFO, "reject" bounces it);
// --admission-tickets pins the ticket count instead of probing, which is
// how bench_closedloop sweeps for the offline-optimal concurrency.
//
// --metrics FILE exports the run's metrics registry after the capture.
// ".csv" writes CSV; any other extension writes canonical JSON plus a
// sibling ".csv". Wall-clock metrics are excluded, so a fixed seed
// produces byte-identical JSON at any --threads value.

#include <iostream>

#include "cli_util.hpp"
#include "core/capture.hpp"
#include "obs/export.hpp"
#include "par/pool.hpp"
#include "trace/io.hpp"
#include "workloads/scenarios.hpp"

namespace {

constexpr const char* kUsage =
    "usage: kooza_capture <micro|oltp|websearch|streaming|logappend> "
    "<output-dir> [--count N] [--rate R] [--seed S] [--servers N] "
    "[--replication N] [--sample-every N] [--threads N] [--format csv|bin] "
    "[--faults R] [--mttr S] [--metrics FILE] [--stream] [--chunk-records N] "
    "[--read-size B] [--write-size B] [--no-latencies]\n"
    "   or: kooza_capture --scenario NAME <output-dir> [--period S] [options]\n"
    "   or: kooza_capture --model MODEL-FILE <output-dir> [options]\n"
    "   or: kooza_capture --replay TRACE-DIR <output-dir> [options]\n"
    "   or: kooza_capture --closed-loop <output-dir> [--clients N] "
    "[--outstanding N] [--think-time S] [--admission queue|reject] "
    "[--admission-tickets N] [options]\n"
    "   or: kooza_capture --list-scenarios\n";

}  // namespace

int main(int argc, char** argv) {
    using namespace kooza;
    try {
        cli::Args args(argc, argv,
                       {"closed-loop", "stream", "no-latencies", "list-scenarios"});
        if (const auto flag = args.unknown_flag(
                {"admission", "admission-tickets", "chunk-records", "clients",
                 "closed-loop", "count", "faults", "format", "list-scenarios",
                 "metrics", "model", "mttr", "no-latencies", "outstanding", "period",
                 "rate", "read-size", "replay", "replication", "sample-every",
                 "scenario", "seed", "servers", "stream", "think-time", "threads",
                 "write-size"})) {
            std::cerr << "kooza_capture: unknown flag --" << *flag << "\n" << kUsage;
            return 2;
        }
        if (args.has("list-scenarios")) {
            for (const auto& name : workloads::scenario_names())
                std::cout << name << "  " << workloads::describe_scenario(name)
                          << "\n";
            for (const auto& name : workloads::closed_loop_scenario_names())
                std::cout << name << "  "
                          << workloads::describe_closed_loop_scenario(name) << "\n";
            return 0;
        }
        const std::string scenario = args.get("scenario", "");
        const std::string model_file = args.get("model", "");
        const std::string replay_dir = args.get("replay", "");
        const bool closed_loop = args.has("closed-loop");
        const bool has_source = !scenario.empty() || !model_file.empty() ||
                                !replay_dir.empty() || closed_loop;
        // With an explicit workload source the profile positional drops out.
        const std::size_t want_positional = has_source ? 1 : 2;
        if (args.positional().size() != want_positional) {
            std::cerr << kUsage;
            return 2;
        }
        const auto& out_dir = args.positional()[has_source ? 0 : 1];
        const auto fmt = trace::format_from_string(args.get("format", "csv"));
        if (!fmt) {
            std::cerr << "kooza_capture: --format must be csv or bin\n";
            return 2;
        }
        core::CaptureOptions opts;
        if (has_source) {
            opts.scenario = scenario;
            opts.model_file = model_file;
            opts.replay_dir = replay_dir;
        } else {
            opts.profile = args.positional()[0];
        }
        opts.count = std::size_t(args.get_u64("count", 500));
        opts.rate = args.get_double("rate", 20.0);
        opts.period = args.get_double("period", 60.0);
        opts.seed = args.get_u64("seed", 42);
        opts.n_servers = std::size_t(args.get_u64("servers", 1));
        opts.replication = std::size_t(args.get_u64("replication", 0));
        opts.span_sample_every = args.get_u64("sample-every", 1);
        opts.fault_rate = args.get_double("faults", 0.0);
        opts.mttr = args.get_double("mttr", 5.0);
        opts.out_dir = out_dir;
        opts.format = *fmt;
        opts.stream = args.has("stream");
        opts.chunk_records =
            std::size_t(args.get_u64("chunk-records", std::uint64_t(1) << 16));
        opts.read_size = args.get_u64("read-size", 0);
        opts.write_size = args.get_u64("write-size", 0);
        opts.collect_latencies = !args.has("no-latencies");
        opts.closed_loop = closed_loop;
        opts.clients = std::size_t(args.get_u64("clients", 8));
        opts.outstanding = std::size_t(args.get_u64("outstanding", 4));
        opts.think_time = args.get_double("think-time", 0.01);
        opts.admission = args.get("admission", "");
        opts.admission_tickets =
            std::uint32_t(args.get_u64("admission-tickets", 0));
        if (opts.stream) opts.format = trace::Format::kBinary;
        // 0 = auto (KOOZA_THREADS env, else hardware concurrency).
        par::set_threads(std::size_t(args.get_u64("threads", 0)));

        const auto res = core::run_capture(opts);
        if (opts.stream)
            std::cout << "captured " << res.records << " records (streamed)\n";
        else
            std::cout << "captured " << res.traces.summary() << "\n";
        if (opts.fault_rate > 0.0)
            std::cout << "faults: " << res.crashes << " crashes, " << res.repairs
                      << " re-replications, " << res.failed
                      << " failed requests\n";
        const bool closed_run =
            closed_loop || workloads::is_closed_loop_scenario(scenario);
        if (closed_run || !opts.admission.empty()) {
            std::cout << "closed-loop: " << res.completed << " completed, "
                      << res.rejected << " rejected, goodput=" << res.goodput
                      << " req/s";
            if (res.latency.count > 0)
                std::cout << ", latency p50=" << res.latency.median * 1e3
                          << "ms p95=" << res.latency.p95 * 1e3
                          << "ms p99=" << res.latency.p99 * 1e3 << "ms";
            if (!opts.admission.empty())
                std::cout << ", tickets=" << res.converged_tickets;
            std::cout << "\n";
        }
        std::cout << "run: seed=" << opts.seed << " threads=" << par::threads()
                  << "\n"
                  << "wrote " << trace::to_string(opts.format) << " traces to "
                  << out_dir << "\n";

        const auto metrics_path = args.get("metrics", "");
        if (!metrics_path.empty()) {
            const auto snap = obs::Registry::global().snapshot();
            // No wall-clock metrics: the export must be reproducible
            // across machines and thread counts.
            const obs::ExportOptions eo{.include_wall = false};
            std::filesystem::path p(metrics_path);
            obs::write_metrics(snap, p, eo);
            if (p.extension() != ".csv")
                obs::write_metrics(
                    snap, std::filesystem::path(p).replace_extension(".csv"), eo);
            std::cout << "wrote metrics to " << metrics_path << "\n";
        }
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "kooza_capture: " << e.what() << "\n";
        return 1;
    }
}
