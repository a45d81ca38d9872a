#include "core/capture.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/model_replay.hpp"
#include "gfs/admission.hpp"
#include "gfs/cluster.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "trace/streaming.hpp"
#include "workloads/closedloop.hpp"
#include "workloads/scenarios.hpp"

namespace kooza::core {

namespace {

struct CaptureMetrics {
    obs::Counter& runs = obs::counter("core.capture.runs_total");
    obs::Counter& requests = obs::counter("core.capture.requests_total");
    obs::Counter& failed = obs::counter("core.capture.failed_requests_total");
    obs::Counter& rejected = obs::counter("core.capture.rejected_requests_total");
    // Sim-clock capture span: deterministic, so it stays in golden exports.
    obs::Histogram& duration_ns =
        obs::histogram("core.capture.duration_ns", obs::Unit::kNanoseconds);
};

CaptureMetrics& metrics() {
    static CaptureMetrics m;
    return m;
}

}  // namespace

std::unique_ptr<workloads::Profile> make_profile(const std::string& name,
                                                 std::size_t count, double rate,
                                                 std::uint64_t read_size,
                                                 std::uint64_t write_size,
                                                 double read_fraction) {
    if (name == "micro") {
        workloads::MicroProfile::Params p{.count = count, .arrival_rate = rate};
        if (read_size > 0) p.read_size = read_size;
        if (write_size > 0) p.write_size = write_size;
        if (read_fraction >= 0.0) p.read_fraction = read_fraction;
        return std::make_unique<workloads::MicroProfile>(p);
    }
    if (name == "oltp")
        return std::make_unique<workloads::OltpProfile>(
            workloads::OltpProfile::Params{.count = count, .base_rate = rate});
    if (name == "websearch")
        return std::make_unique<workloads::WebSearchProfile>(
            workloads::WebSearchProfile::Params{.count = count,
                                                .arrival_rate = rate});
    if (name == "streaming")
        return std::make_unique<workloads::StreamingProfile>(
            workloads::StreamingProfile::Params{.sessions = count / 20 + 1,
                                                .session_rate = rate / 10.0});
    if (name == "logappend")
        return std::make_unique<workloads::LogAppendProfile>(
            workloads::LogAppendProfile::Params{.count = count,
                                                .arrival_rate = rate});
    return nullptr;
}

std::unique_ptr<workloads::ScheduleStream> make_capture_schedule(
    const CaptureOptions& opts) {
    const int sources = int(!opts.scenario.empty()) + int(!opts.model_file.empty()) +
                        int(!opts.replay_dir.empty());
    if (sources > 1)
        throw std::invalid_argument(
            "run_capture: scenario, model_file and replay_dir are mutually "
            "exclusive workload sources");

    if (!opts.scenario.empty()) {
        workloads::ScenarioParams sp;
        sp.count = opts.count;
        sp.rate = opts.rate;
        sp.seed = opts.seed;
        if (opts.read_size > 0) sp.read_size = opts.read_size;
        if (opts.write_size > 0) sp.write_size = opts.write_size;
        if (opts.period > 0.0) sp.period = opts.period;
        auto gen = workloads::make_scenario(opts.scenario, sp);
        if (!gen)
            throw std::invalid_argument("run_capture: unknown scenario: " +
                                        opts.scenario);
        return gen;
    }
    if (!opts.model_file.empty()) {
        ModelReplayGenerator::Params mp;
        mp.count = opts.count;
        mp.seed = opts.seed;
        return std::make_unique<ModelReplayGenerator>(
            std::filesystem::path(opts.model_file), mp);
    }
    if (!opts.replay_dir.empty())
        return std::make_unique<workloads::TraceReplayGenerator>(
            std::filesystem::path(opts.replay_dir));

    auto profile = make_profile(opts.profile, opts.count, opts.rate, opts.read_size,
                                opts.write_size, opts.read_fraction);
    if (!profile)
        throw std::invalid_argument("run_capture: unknown profile: " + opts.profile);
    return profile->open_stream(sim::Rng(opts.seed));
}

namespace {

/// Feeds the request schedule into the cluster one request at a time: a
/// pump event at request i's issue time submits it and pulls request
/// i+1. Pending engine events stay O(in-flight) instead of O(schedule),
/// which is what keeps a multi-million-request capture's memory flat.
/// Used in both capture modes so they run the identical event sequence.
/// An exhausted schedule ends the cluster's input (Cluster::end_input).
struct SchedulePump {
    gfs::Cluster& cluster;
    std::unique_ptr<workloads::ScheduleStream> stream;
    std::vector<gfs::FileId> ids{};  ///< the cluster's id for each stream file
    gfs::RequestSpec pending{};      ///< the one request armed, due at its time

    void start() {
        ids = workloads::create_files(cluster, stream->files());
        arm();
    }

    void arm() {
        auto spec = stream->next();
        if (!spec) return cluster.end_input();
        pending = *spec;
        pending.file = ids[pending.file];
        cluster.engine().schedule_at(pending.time, [this] {
            cluster.submit(pending);
            arm();
        });
    }
};

/// Closed-loop counterpart of SchedulePump: every client keeps
/// `outstanding` requests in flight, and each completion callback pulls
/// the next request for that client (arrival = now + think time). The
/// schedule therefore reacts to cluster latency instead of replaying a
/// fixed arrival list — the defining closed-loop feedback. Single
/// engine, synchronous refills: the event sequence stays deterministic.
struct ClosedLoopDriver {
    gfs::Cluster& cluster;
    workloads::ClosedLoopPool pool;
    std::vector<gfs::FileId> ids{};  ///< the cluster's id for each pool file

    void start() {
        ids = workloads::create_files(cluster, pool.files());
        const auto& p = pool.params();
        for (std::uint32_t c = 0; c < p.clients; ++c)
            for (std::size_t w = 0; w < p.outstanding; ++w) launch(c, 0.0);
    }

    void launch(std::uint32_t client, double now) {
        auto spec = pool.next(client, now);
        // Budget spent: the window drains and run() ends.
        if (!spec) return cluster.end_input();
        spec->file = ids[spec->file];
        cluster.submit(*spec, [this, client] {
            // Failures and rejections refill too — a closed-loop client
            // moves on to its next request either way.
            launch(client, cluster.engine().now());
        });
    }
};

/// The pool recipe behind a closed-loop capture: a named closed-loop
/// scenario when one is requested, else the CaptureOptions knobs.
workloads::ClosedLoopParams closed_loop_params(const CaptureOptions& opts) {
    if (!opts.scenario.empty()) {
        workloads::ScenarioParams sp;
        sp.count = opts.count;
        sp.rate = opts.rate;
        sp.seed = opts.seed;
        if (opts.read_size > 0) sp.read_size = opts.read_size;
        if (opts.write_size > 0) sp.write_size = opts.write_size;
        if (opts.period > 0.0) sp.period = opts.period;
        return workloads::make_closed_loop_scenario(opts.scenario, sp);
    }
    workloads::ClosedLoopParams p;
    p.clients = std::max<std::size_t>(1, opts.clients);
    p.outstanding = std::max<std::size_t>(1, opts.outstanding);
    p.think_time = std::max(0.0, opts.think_time);
    p.total = opts.count;
    p.seed = opts.seed;
    if (opts.read_size > 0) p.read_size = opts.read_size;
    if (opts.write_size > 0) p.write_size = opts.write_size;
    if (opts.read_fraction >= 0.0) p.read_fraction = opts.read_fraction;
    return p;
}

}  // namespace

CaptureResult run_capture(const CaptureOptions& opts) {
    const bool closed =
        opts.closed_loop || workloads::is_closed_loop_scenario(opts.scenario);
    if (closed && (!opts.model_file.empty() || !opts.replay_dir.empty()))
        throw std::invalid_argument(
            "run_capture: closed-loop capture generates its own requests; "
            "model_file/replay_dir replay sources do not apply");
    if (opts.closed_loop && !opts.scenario.empty() &&
        !workloads::is_closed_loop_scenario(opts.scenario))
        throw std::invalid_argument(
            "run_capture: scenario '" + opts.scenario +
            "' is open-loop and cannot be driven with closed_loop");
    std::unique_ptr<workloads::ScheduleStream> schedule;
    if (!closed) schedule = make_capture_schedule(opts);
    if (opts.stream && opts.out_dir.empty())
        throw std::invalid_argument("run_capture: stream mode needs out_dir");

    gfs::GfsConfig cfg;
    cfg.n_chunkservers = std::max<std::size_t>(1, opts.n_servers);
    if (opts.replication != 0) cfg.replication = opts.replication;
    cfg.span_sample_every = std::max<std::uint64_t>(1, opts.span_sample_every);
    cfg.seed = opts.seed;
    cfg.collect_latencies = opts.collect_latencies;
    if (opts.fault_rate > 0.0) {
        cfg.faults.enabled = true;
        cfg.faults.mtbf = 1.0 / opts.fault_rate;
        cfg.faults.mttr = opts.mttr;
        // horizon 0: faults follow the run until the last client request
        // finishes, so requests still in flight after the last arrival
        // keep seeing crashes; repairs then finish without new crashes.
        cfg.faults.horizon = 0.0;
    }
    if (!opts.admission.empty()) {
        if (opts.admission != "queue" && opts.admission != "reject")
            throw std::invalid_argument(
                "run_capture: admission policy must be 'queue' or 'reject', got '" +
                opts.admission + "'");
        cfg.admission.enabled = true;
        cfg.admission.queue = opts.admission == "queue";
        if (opts.admission_tickets > 0) {
            // Pinned ticket count: the offline-optimal sweep measures a
            // fixed concurrency limit, so the probe loop stays off.
            cfg.admission.initial_tickets = opts.admission_tickets;
            cfg.admission.min_tickets = opts.admission_tickets;
            cfg.admission.max_tickets = opts.admission_tickets;
            cfg.admission.probe_interval = 0.0;
        }
    }

    std::unique_ptr<trace::StreamingSink> streaming;
    if (opts.stream) {
        trace::StreamingSink::Options so;
        so.dir = opts.out_dir;
        so.chunk_records = std::max<std::size_t>(1, opts.chunk_records);
        streaming = std::make_unique<trace::StreamingSink>(
            so, 1 + cfg.n_chunkservers);
    }

    std::optional<workloads::ClosedLoopParams> clp;
    if (closed) clp = closed_loop_params(opts);

    gfs::Cluster cluster(cfg, closed ? clp->clients : 1, streaming.get());
    if (streaming) {
        sim::Engine& eng = cluster.engine();
        streaming->set_clock([&eng] { return eng.now(); });
    }
    std::optional<SchedulePump> pump;
    std::optional<ClosedLoopDriver> loop;
    if (closed) {
        loop.emplace(cluster, workloads::ClosedLoopPool(*clp));
        loop->start();
    } else {
        pump.emplace(cluster, std::move(schedule));
        pump->start();
    }
    cluster.run();

    CaptureResult res;
    res.duration = cluster.engine().now();
    res.completed = cluster.completed();
    res.failed = cluster.failed_requests();
    if (const auto* inj = cluster.fault_injector()) {
        res.crashes = inj->crashes();
        res.repairs = inj->repairs();
    }
    res.rejected = cluster.rejected_requests();
    if (auto* adm = cluster.admission(0)) res.converged_tickets = adm->best_tickets();
    if (!cluster.latencies().empty()) res.latency = stats::summarize(cluster.latencies());
    res.goodput = res.duration > 0.0 ? double(res.completed) / res.duration : 0.0;

    if (streaming) {
        streaming->finish();
        res.records = streaming->records_seen();
    } else {
        // Move the records out instead of copying: `traces = traces()`
        // briefly doubled peak memory at exactly the worst moment.
        res.traces = cluster.take_traces();
        res.records = res.traces.total_records();
        if (!opts.out_dir.empty())
            trace::write_traces(res.traces, opts.out_dir, opts.format);
    }

    metrics().runs.add();
    // Every request that ran through the capture counts, completed or
    // failed; failures additionally increment the failed counter. (The
    // old completed-only count made requests_total undercount under
    // fault injection.)
    metrics().requests.add(res.completed + res.failed);
    metrics().failed.add(res.failed);
    metrics().rejected.add(res.rejected);
    metrics().duration_ns.observe_seconds(res.duration);
    return res;
}

}  // namespace kooza::core
