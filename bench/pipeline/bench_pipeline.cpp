// bench_pipeline — the KOOZA pipeline (capture -> train -> generate ->
// replay -> validate) timed end to end on four workloads, with per-layer
// attribution from a separate traced pass. README.md in this directory
// describes the workloads, the metrics and their bounds, and how to
// compare two result files with bench_diff.py.
//
// Every rep runs in a fresh forked child, so peak RSS and set-up time
// belong to that rep, and reps interleave round-robin across workloads.
// The thread count is fixed at 1. Spans are recorded only here, around
// the public calls into each layer; nothing inside src/ is instrumented.
//
// Usage:
//   bench_pipeline [--seed N] [--workload NAME] [--seconds S] [--trace 0|1]
//                  [--smoke] [--out FILE] [--trace-out FILE] [--work-dir DIR]
//
// Without --workload all four run. --seconds S (default 25) is the time
// budget per workload, traced pass included; rounds of reps repeat until
// the budget would overrun, with at least kMinTimedReps untraced reps
// per workload. --smoke runs every workload at 1/25 size, one rep plus
// the traced pass, and skips the band pass. The exit status is 1 when a
// correctness check fails, 2 on a usage error.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/hmm.hpp"
#include "core/capture.hpp"
#include "core/generator.hpp"
#include "core/replayer.hpp"
#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "core/validator.hpp"
#include "obs/metrics.hpp"
#include "par/pool.hpp"
#include "trace/binary.hpp"
#include "trace/features.hpp"
#include "trace/io.hpp"
#include "../../tools/cli_util.hpp"

namespace {

namespace fs = std::filesystem;
using namespace kooza;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kThreads = 1;
/// Time budget per workload: with reps a quarter of paper scale, about 20
/// of them fit, as much work as 5 paper-scale reps.
constexpr std::uint64_t kDefaultSeconds = 25;
constexpr std::size_t kMinTimedReps = 3;
/// Set-up-only forks per timed rep: its setup_s is the median of these
/// and its own, since one fork's 0.2 ms varies by a third between forks.
constexpr std::size_t kExtraSetups = 10;
constexpr std::size_t kSmokeDivisor = 25;
/// splitmix64 steps in the host-speed probe (about 0.2 s on a 2020s core).
constexpr std::uint64_t kProbeSteps = 45'000'000;
/// The paper's Table 2 band, checked on an oltp-csv capture of
/// kBandRequests: at the timed size (20k) sampling noise alone takes one
/// seed in thirty past 1%, at 80k the worst of thirty seeds stays under 0.5%.
constexpr std::size_t kBandRequests = 80'000;
constexpr double kFeatureBandPct = 1.0;
constexpr double kLatencyBandPct = 6.6;
constexpr double kMinCoveragePct = 95.0;

// ---------------------------------------------------------------- workloads

enum class Model { kKooza, kHmm, kKoozaStreaming };

struct Workload {
    std::string name;
    core::CaptureOptions capture;  ///< out_dir is filled in per rep
    trace::Format format = trace::Format::kBinary;
    Model model = Model::kKooza;
    /// Nonzero: also run the pipeline once, untimed, at this many
    /// requests and check the paper's band on it.
    std::size_t band_requests = 0;
};

/// Sizes are a quarter of the paper-scale captures: a timed run then
/// holds 15-20 reps, enough for its median to ride out bursts of
/// contention on a shared host.
std::vector<Workload> make_workloads(std::uint64_t seed, std::size_t divisor) {
    auto base = [&](std::string name, std::size_t count) {
        Workload w;
        w.name = std::move(name);
        w.capture.seed = seed;
        w.capture.count = std::max<std::size_t>(1, count / divisor);
        return w;
    };
    std::vector<Workload> ws;

    // What kooza_capture then kooza_model do by default: open loop at
    // 20 req/s, CSV on disk. The only workload inside the paper's band,
    // which its band pass checks at paper scale.
    auto oltp = base("oltp-csv", 20'000);
    oltp.capture.profile = "oltp";
    oltp.format = trace::Format::kCsv;
    if (divisor == 1) oltp.band_requests = kBandRequests;
    ws.push_back(oltp);

    // The same capture and replay layers under deep device queues:
    // 32 clients x 4 outstanding, 1 ms think time, no admission control.
    auto closed = base("closedloop-sat", 20'000);
    closed.capture.closed_loop = true;
    closed.capture.clients = 32;
    closed.capture.outstanding = 4;
    closed.capture.think_time = 0.001;
    closed.capture.read_fraction = 0.9;
    closed.capture.read_size = 64 << 10;
    closed.capture.write_size = 256 << 10;
    ws.push_back(closed);

    // Baum-Welch dominates; the KOOZA trainer does no work here. The HMM
    // runs at the default HmmConfig, as `kooza_model --baseline hmm` does.
    auto hmm = base("hmm-oltp", 20'000);
    hmm.capture.profile = "oltp";
    hmm.model = Model::kHmm;
    ws.push_back(hmm);

    // Streamed capture and chunked training across 1000 device stacks.
    auto dc = base("dc-stream", 100'000);
    dc.capture.profile = "micro";
    dc.capture.n_servers = 1000;
    dc.capture.rate = 1000.0;
    dc.capture.read_size = 8192;
    dc.capture.write_size = 8192;
    dc.capture.span_sample_every = 100;
    dc.capture.collect_latencies = false;
    dc.capture.stream = true;
    dc.model = Model::kKoozaStreaming;
    ws.push_back(dc);
    return ws;
}

// ------------------------------------------------------------------ metrics

struct MetricDef {
    const char* name;
    const char* unit;
    bool higher_better = false;
};

/// Timed in every untraced rep; reported as value (see Stat), median,
/// min, max and n.
constexpr MetricDef kEndToEnd[] = {
    {"pipeline_req_per_s", "req/s", true},
    {"capture_s", "s"},
    {"model_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// Deterministic outcomes of the pipeline: identical in every rep.
constexpr MetricDef kAccuracy[] = {
    {"feature_err_pct", "%"},
    {"latency_err_pct", "%"},
    {"p99_err_pct", "%"},
    {"failed_share", "fraction"},
};

/// From the traced pass; 0 where the workload does not run the layer.
constexpr MetricDef kPerLayer[] = {
    {"workloads.schedule_ns_per_request", "ns"},
    {"capture.simulate_s", "s"},
    {"capture.ns_per_event", "ns"},
    {"capture.events_per_request", "count"},
    {"capture.queue_depth_peak", "count"},
    {"hw.disk.busy_share", "fraction"},
    {"hw.disk.wait_ms_mean", "ms"},
    {"gfs.client.requests", "count"},
    {"trace.write_s", "s"},
    {"trace.write_ns_per_record", "ns"},
    {"trace.write_mb_per_s", "MB/s"},
    {"trace.read_s", "s"},
    {"trace.read_ns_per_record", "ns"},
    {"trace.read_mb_per_s", "MB/s"},
    {"trace.records", "count"},
    {"trace.bytes_on_disk", "count"},
    {"trace.stream.capture_s", "s"},
    {"trace.stream.ns_per_record", "ns"},
    {"trace.stream.chunks_flushed", "count"},
    {"trainer.train_s", "s"},
    {"trainer.ns_per_request", "ns"},
    {"trainer.submodel_s", "s"},
    {"trainer.train_streaming_s", "s"},
    {"trainer.streaming_ns_per_request", "ns"},
    {"hmm.train_s", "s"},
    {"hmm.fit_s", "s"},
    {"hmm.segments", "count"},
    {"hmm.iterations", "count"},
    {"markov.echmm.fits", "count"},
    {"markov.echmm.ll_decreased", "count"},
    {"generator.generate_s", "s"},
    {"generator.ns_per_request", "ns"},
    {"replayer.replay_s", "s"},
    {"replayer.ns_per_event", "ns"},
    {"replayer.events_per_request", "count"},
    {"replayer.queue_depth_peak", "count"},
    {"replayer.unknown_phases", "count"},
    {"validate.extract_s", "s"},
    {"validate.compare_s", "s"},
    {"validate.ns_per_request", "ns"},
    {"feature_err_pct", "%"},
    {"latency_err_pct", "%"},
    {"p99_err_pct", "%"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.stage_coverage_pct", "%"},
    {"host.probe_s", "s"},
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 0xcbf29ce484222325ULL) {
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// FNV-1a over every field of the generated requests, in order: on
/// dc-stream nothing downstream of the generator would show a change.
std::uint64_t fingerprint(const core::SyntheticWorkload& s) {
    std::uint64_t h = fnv1a({});
    auto put = [&h](const auto& v) {
        h = fnv1a({reinterpret_cast<const char*>(&v), sizeof v}, h);
    };
    for (const auto& r : s.requests) {
        put(r.time);
        put(r.type);
        put(r.network_bytes);
        put(r.cpu_busy_seconds);
        put(r.memory_bytes);
        put(r.memory_type);
        put(r.bank);
        put(r.storage_bytes);
        put(r.storage_type);
        put(r.lbn);
        put(r.server);
        for (const auto& phase : r.phases) h = fnv1a(phase, h);
    }
    return h;
}

/// Fixed, deterministic CPU kernel: its time tracks host speed only.
double host_probe(std::uint64_t& checksum) {
    const auto t0 = Clock::now();
    std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < kProbeSteps; ++i) x = par::splitmix64(x);
    checksum = x;
    return seconds_between(t0, Clock::now());
}

// ------------------------------------------------------------------ tracing

/// Registry values as flat keys: counters by name, histograms as
/// <name>.count and <name>.sum, gauges as <name>.max; zeros omitted.
/// Wall-clock metrics, the only ones that differ between equal runs, are
/// prefixed "wall.".
using Values = std::map<std::string, double>;

Values registry_values() {
    Values v;
    for (const auto& m : obs::Registry::global().snapshot().metrics) {
        const std::string key = (m.wall ? "wall." : "") + m.name;
        switch (m.kind) {
            case obs::MetricSnapshot::Kind::kCounter:
                if (m.value != 0) v[key] = double(m.value);
                break;
            case obs::MetricSnapshot::Kind::kGauge:
                if (m.gauge_max != 0.0) v[key + ".max"] = m.gauge_max;
                break;
            case obs::MetricSnapshot::Kind::kHistogram:
                if (m.count != 0) {
                    v[key + ".count"] = double(m.count);
                    v[key + ".sum"] = double(m.sum);
                }
                break;
        }
    }
    return v;
}

struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;  ///< since the parent's clock reading at fork
    std::int64_t end_ns = 0;
    bool leaf = false;
    Values deltas;  ///< registry delta over a leaf call (registry_values keys)
};

/// In-memory span recorder. Off, a scope costs nothing; on, a leaf scope
/// resets the global obs registry before the call and snapshots it after,
/// so each leaf carries the counters its one call produced.
class Tracer {
public:
    Tracer(bool on, Clock::time_point origin) : on_(on), origin_(origin) {}

    class Scope {
    public:
        Scope(Tracer& t, std::string name, bool leaf) : t_(t) {
            if (!t_.on_) return;
            if (leaf) obs::Registry::global().reset();
            ix_ = int(t_.spans_.size());
            Span s;
            s.name = std::move(name);
            s.parent = t_.stack_.empty() ? -1 : t_.stack_.back();
            s.leaf = leaf;
            s.start_ns = t_.now_ns();
            t_.spans_.push_back(std::move(s));
            t_.stack_.push_back(ix_);
        }
        ~Scope() {
            if (ix_ < 0) return;
            Span& s = t_.spans_[std::size_t(ix_)];
            s.end_ns = t_.now_ns();
            if (s.leaf) s.deltas = registry_values();
            t_.stack_.pop_back();
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer& t_;
        int ix_ = -1;
    };

    [[nodiscard]] Scope group(std::string name) {
        return {*this, std::move(name), false};
    }
    [[nodiscard]] Scope leaf(std::string name) { return {*this, std::move(name), true}; }

    [[nodiscard]] bool on() const noexcept { return on_; }
    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

    [[nodiscard]] const Span* find(const std::string& name) const {
        for (const auto& s : spans_)
            if (s.name == name) return &s;
        return nullptr;
    }
    /// Duration of the named span in seconds; 0 when it never ran.
    [[nodiscard]] double seconds(const std::string& name) const {
        const Span* s = find(name);
        return s ? double(s->end_ns - s->start_ns) * 1e-9 : 0.0;
    }
    /// Registry delta `key` over the named leaf; 0 when absent.
    [[nodiscard]] double delta(const std::string& span, const std::string& key) const {
        const Span* s = find(span);
        if (!s) return 0.0;
        const auto it = s->deltas.find(key);
        return it == s->deltas.end() ? 0.0 : it->second;
    }

private:
    [[nodiscard]] std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                    origin_)
            .count();
    }

    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

// ----------------------------------------------------------------- one rep

struct RepOut {
    Values num;  ///< timings, check inputs and (traced) per-layer metrics
    Values det;  ///< values that must repeat exactly in every rep
    /// 64-bit hashes that must repeat too, as decimal strings: a double
    /// would keep only 53 of their bits.
    std::map<std::string, std::string> hashes;
    std::vector<Span> spans;
};

std::uint64_t bytes_under(const fs::path& dir) {
    std::uint64_t total = 0;
    for (const auto& e : fs::directory_iterator(dir))
        if (e.is_regular_file()) total += e.file_size();
    return total;
}

/// What the per-layer metrics divide by, gathered while the pipeline ran.
struct Facts {
    std::size_t servers = 1;
    double requests = 0.0;
    double records = 0.0;
    double bytes = 0.0;
    double sim_seconds = 0.0;
    double generated = 0.0;
    double original_requests = 0.0;
    double unknown_phases = 0.0;
    double hmm_fit_s = 0.0;
    double hmm_segments = 0.0;
    double hmm_iterations = 0.0;  ///< Baum-Welch iterations, both fits
    double scheduled = 0.0;
    double leaf_seconds = 0.0;  ///< summed over the leaves inside the pipeline
};

Values layer_metrics(const Tracer& tr, const Facts& f) {
    Values m;
    const bool streamed = tr.find("trace.stream.capture") != nullptr;
    const std::string cap = streamed ? "trace.stream.capture" : "capture.simulate";
    const double cap_s = tr.seconds(cap);
    const double events = tr.delta(cap, "sim.engine.events_dispatched_total");
    m["workloads.schedule_ns_per_request"] =
        ratio(tr.seconds("workloads.schedule") * 1e9, f.scheduled);
    m["capture.simulate_s"] = cap_s;
    m["capture.ns_per_event"] = ratio(cap_s * 1e9, events);
    m["capture.events_per_request"] = ratio(events, f.requests);
    m["capture.queue_depth_peak"] = tr.delta(cap, "sim.engine.queue_depth_peak.max");
    const double service = tr.delta(cap, "hw.disk.service_ns.sum");
    m["hw.disk.busy_share"] =
        ratio(service, f.sim_seconds * 1e9 * double(f.servers));
    m["hw.disk.wait_ms_mean"] =
        ratio((tr.delta(cap, "hw.disk.latency_ns.sum") - service) * 1e-6,
              tr.delta(cap, "hw.disk.io_total"));
    m["gfs.client.requests"] = tr.delta(cap, "gfs.client.requests_total");

    for (const char* io : {"write", "read"}) {
        const std::string span = std::string("trace.") + io;
        const double s = tr.seconds(span);
        m[span + "_s"] = s;
        m[span + "_ns_per_record"] = ratio(s * 1e9, f.records);
        m[span + "_mb_per_s"] = ratio(f.bytes * 1e-6, s);
    }
    m["trace.records"] = f.records;
    m["trace.bytes_on_disk"] = f.bytes;
    const double stream_s = tr.seconds("trace.stream.capture");
    m["trace.stream.capture_s"] = stream_s;
    m["trace.stream.ns_per_record"] = ratio(stream_s * 1e9, f.records);
    m["trace.stream.chunks_flushed"] =
        tr.delta("trace.stream.capture", "trace.stream.chunks_flushed_total");

    const double train_s = tr.seconds("trainer.train");
    m["trainer.train_s"] = train_s;
    m["trainer.ns_per_request"] =
        ratio(train_s * 1e9, tr.delta("trainer.train", "core.trainer.requests_total"));
    m["trainer.submodel_s"] =
        tr.delta("trainer.train", "wall.core.trainer.submodel_wall_ns.sum") * 1e-9;
    const double stream_train_s = tr.seconds("trainer.train_streaming");
    m["trainer.train_streaming_s"] = stream_train_s;
    m["trainer.streaming_ns_per_request"] =
        ratio(stream_train_s * 1e9,
              tr.delta("trainer.train_streaming", "core.trainer.requests_total"));

    m["hmm.train_s"] = tr.seconds("hmm.train");
    m["hmm.fit_s"] = f.hmm_fit_s;
    m["hmm.segments"] = f.hmm_segments;
    m["hmm.iterations"] = f.hmm_iterations;
    m["markov.echmm.fits"] = tr.delta("hmm.train", "markov.echmm.fits_total");
    m["markov.echmm.ll_decreased"] =
        tr.delta("hmm.train", "markov.echmm.ll_decreased_total");

    const double gen_s = tr.seconds("generator.generate");
    m["generator.generate_s"] = gen_s;
    m["generator.ns_per_request"] = ratio(gen_s * 1e9, f.generated);

    const double replay_s = tr.seconds("replayer.replay");
    const double replay_events =
        tr.delta("replayer.replay", "sim.engine.events_dispatched_total");
    m["replayer.replay_s"] = replay_s;
    m["replayer.ns_per_event"] = ratio(replay_s * 1e9, replay_events);
    m["replayer.events_per_request"] = ratio(replay_events, f.generated);
    m["replayer.queue_depth_peak"] =
        tr.delta("replayer.replay", "sim.engine.queue_depth_peak.max");
    m["replayer.unknown_phases"] = f.unknown_phases;

    const double extract_s = tr.seconds("validate.extract");
    const double compare_s = tr.seconds("validate.compare");
    m["validate.extract_s"] = extract_s;
    m["validate.compare_s"] = compare_s;
    m["validate.ns_per_request"] =
        ratio((extract_s + compare_s) * 1e9, f.original_requests);

    // Leaves have no children, so their self time is their duration.
    m["bench.stage_coverage_pct"] = 100.0 * ratio(f.leaf_seconds, tr.seconds("pipeline"));
    return m;
}

/// What a forked child does: stop after set-up, run the pipeline, or run
/// it traced.
enum class Pass { kSetup, kTimed, kTraced };

/// The pipeline on one workload. `t_fork` is the parent's clock reading
/// just before fork(), so set-up time includes the fork itself.
RepOut run_rep(const Workload& w, const fs::path& dir, Pass pass,
               Clock::time_point t_fork) {
    Tracer tr(pass == Pass::kTraced, t_fork);
    const bool streamed = w.model == Model::kKoozaStreaming;
    core::CaptureOptions opts = w.capture;
    if (streamed) opts.out_dir = dir.string();
    fs::create_directories(dir);
    core::TrainerConfig tc;
    tc.workload_name = w.name;

    RepOut out;
    Facts f;
    core::CaptureResult res;
    std::optional<core::ServerModel> model;
    std::optional<baselines::HmmModel> hmm;
    core::SyntheticWorkload synth;
    core::ReplayResult replayed;
    core::ValidationReport report;

    const auto t_start = Clock::now();
    out.num["setup_s"] = seconds_between(t_fork, t_start);
    if (pass == Pass::kSetup) return out;
    Clock::time_point t_captured, t_modelled;
    {
        const auto pipeline = tr.group("pipeline");
        {
            const auto stage = tr.group("capture");
            if (streamed) {
                const auto s = tr.leaf("trace.stream.capture");
                res = core::run_capture(opts);
            } else {
                {
                    const auto s = tr.leaf("capture.simulate");
                    res = core::run_capture(opts);
                }
                {
                    const auto s = tr.leaf("trace.write");
                    trace::write_traces(res.traces, dir, w.format);
                }
                res.traces = trace::TraceSet{};  // the capture tool exits here
            }
        }
        t_captured = Clock::now();
        {
            const auto stage = tr.group("model");
            sim::Rng rng(w.capture.seed);
            if (streamed) {
                {
                    const auto s = tr.leaf("trainer.train_streaming");
                    model.emplace(core::Trainer(tc).train_streaming(dir));
                }
                const auto s = tr.leaf("generator.generate");
                synth = core::Generator(*model).generate(res.completed, rng);
            } else {
                trace::TraceSet ts;
                {
                    const auto s = tr.leaf("trace.read");
                    ts = trace::read_traces(dir);
                }
                core::ReplayConfig rc;
                auto mode = core::ReplayMode::kStructured;
                if (w.model == Model::kHmm) {
                    {
                        const auto s = tr.leaf("hmm.train");
                        hmm.emplace(baselines::HmmModel::train(ts));
                    }
                    const auto s = tr.leaf("generator.generate");
                    synth = hmm->generate(ts.requests.size(), rng);
                    mode = core::ReplayMode::kIndependent;
                } else {
                    {
                        const auto s = tr.leaf("trainer.train");
                        model.emplace(core::Trainer(tc).train(ts));
                    }
                    const auto s = tr.leaf("generator.generate");
                    synth = core::Generator(*model).generate(ts.requests.size(), rng);
                    rc.cpu_verify_fraction = model->cpu_verify_fraction();
                }
                {
                    const auto s = tr.leaf("replayer.replay");
                    replayed = core::Replayer(rc).replay(synth, mode);
                }
                std::vector<trace::RequestFeatures> original, synthetic;
                {
                    const auto s = tr.leaf("validate.extract");
                    original = trace::extract_features(ts);
                    synthetic = trace::extract_features(replayed.traces);
                }
                {
                    const auto s = tr.leaf("validate.compare");
                    report = core::compare_features(original, synthetic, w.name);
                }
                f.original_requests = double(original.size());
            }
        }
        t_modelled = Clock::now();
    }

    // Everything below is outside the timed pipeline.
    out.num["capture_s"] = seconds_between(t_start, t_captured);
    out.num["model_s"] = seconds_between(t_captured, t_modelled);
    out.num["pipeline_req_per_s"] =
        double(opts.count) / seconds_between(t_start, t_modelled);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    out.num["peak_rss_mb"] = double(ru.ru_maxrss) / 1024.0;

    // Registry totals: every count the run produced. A traced run sums
    // its leaves (each started from a reset registry; so far all of them
    // are inside the pipeline), so equal totals also show that tracing
    // did not change what the program did.
    Values totals = tr.on() ? Values{} : registry_values();
    for (const auto& s : tr.spans()) {
        if (!s.leaf) continue;
        f.leaf_seconds += double(s.end_ns - s.start_ns) * 1e-9;
        for (const auto& [k, v] : s.deltas)
            totals[k] = k.ends_with(".max") ? std::max(totals[k], v) : totals[k] + v;
    }
    for (const auto& [k, v] : totals)
        if (!k.starts_with("wall.")) out.det["registry." + k] = v;

    f.servers = opts.n_servers;
    f.requests = double(opts.count);
    f.records = double(res.records);
    f.bytes = double(bytes_under(dir));
    f.sim_seconds = res.duration;
    f.generated = double(synth.requests.size());
    f.unknown_phases = double(replayed.unknown_phases);

    out.det["requested"] = double(opts.count);
    out.det["completed"] = double(res.completed);
    out.det["failed"] = double(res.failed);
    out.det["rejected"] = double(res.rejected);
    out.det["records"] = f.records;
    out.det["bytes_on_disk"] = f.bytes;
    out.det["sim_seconds"] = res.duration;
    out.det["generated"] = f.generated;
    out.hashes["synthetic_hash"] = std::to_string(fingerprint(synth));
    out.det["failed_share"] =
        ratio(double(res.failed), double(res.completed + res.failed));
    if (!streamed) {
        out.det["feature_err_pct"] = report.max_feature_variation();
        out.det["latency_err_pct"] = report.latency_variation();
        for (const auto& row : report.rows)
            if (row.metric == "Latency p99") out.det["p99_err_pct"] = row.variation_pct;
        out.det["unknown_phases"] = f.unknown_phases;
    } else {
        out.num["chunked_rows"] = double(trace::ChunkedReader(dir).total_rows());
    }
    if (hmm) {
        out.hashes["model_hash"] = std::to_string(fnv1a(hmm->describe()));
        f.hmm_fit_s = hmm->fit_wall_seconds();
        f.hmm_segments = double(hmm->segments_fitted());
        f.hmm_iterations = double(hmm->interarrival_hmm().iterations_run() +
                                  hmm->size_hmm().iterations_run());
        out.det["hmm_segments"] = f.hmm_segments;
        out.det["hmm_iterations"] = f.hmm_iterations;
    } else {
        std::ostringstream os;
        core::save_model(*model, os);
        out.hashes["model_hash"] = std::to_string(fnv1a(os.str()));
    }

    if (tr.on()) {
        // The request schedule alone, drained outside the pipeline span.
        if (!opts.closed_loop) {
            const auto s = tr.leaf("workloads.schedule");
            auto stream = core::make_capture_schedule(opts);
            while (stream->next()) f.scheduled += 1.0;
        }
        for (const auto& [k, v] : layer_metrics(tr, f)) out.num["layer." + k] = v;
        out.spans = tr.spans();
    }

    std::uint64_t checksum = 0;
    out.num["host.probe_s"] = host_probe(checksum);
    out.hashes["host_probe_checksum"] = std::to_string(checksum);
    fs::remove_all(dir);
    return out;
}

// --------------------------------------------------------- fork and report

void write_rep(std::FILE* f, const RepOut& r) {
    for (const auto& [k, v] : r.num) std::fprintf(f, "n %s %.17g\n", k.c_str(), v);
    for (const auto& [k, v] : r.det) std::fprintf(f, "d %s %.17g\n", k.c_str(), v);
    for (const auto& [k, v] : r.hashes) std::fprintf(f, "h %s %s\n", k.c_str(), v.c_str());
    for (const auto& s : r.spans) {
        std::fprintf(f, "s %d %lld %lld %d %s\n", s.parent, (long long)s.start_ns,
                     (long long)s.end_ns, int(s.leaf), s.name.c_str());
        for (const auto& [k, v] : s.deltas) std::fprintf(f, "x %s %.17g\n", k.c_str(), v);
    }
}

RepOut parse_rep(const std::string& text) {
    RepOut r;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tag, key;
        ls >> tag;
        if (tag == "error") throw std::runtime_error("rep failed:" + line.substr(5));
        if (tag == "h") {
            ls >> key;
            ls >> r.hashes[key];
        } else if (tag == "s") {
            Span s;
            long long start = 0, end = 0;
            int leaf = 0;
            ls >> s.parent >> start >> end >> leaf >> s.name;
            s.start_ns = start;
            s.end_ns = end;
            s.leaf = leaf != 0;
            r.spans.push_back(std::move(s));
        } else {
            double v = 0.0;
            ls >> key >> v;
            if (tag == "n") r.num[key] = v;
            if (tag == "d") r.det[key] = v;
            if (tag == "x" && !r.spans.empty()) r.spans.back().deltas[key] = v;
        }
    }
    return r;
}

/// One rep in a fresh child process; results come back over a pipe.
RepOut fork_rep(const Workload& w, const fs::path& dir, Pass pass) {
    int fd[2];
    if (pipe(fd) != 0) throw std::runtime_error("bench_pipeline: pipe failed");
    std::cout.flush();
    const auto t_fork = Clock::now();
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("bench_pipeline: fork failed");
    if (pid == 0) {
        close(fd[0]);
        std::FILE* f = fdopen(fd[1], "w");
        int code = 0;
        try {
            write_rep(f, run_rep(w, dir, pass, t_fork));
        } catch (const std::exception& e) {
            std::fprintf(f, "error %s\n", e.what());
            code = 1;
        }
        if (std::fclose(f) != 0) code = 1;
        _exit(code);
    }
    close(fd[1]);
    std::string text;
    char buf[1 << 16];
    for (ssize_t n = 0; (n = read(fd[0], buf, sizeof buf)) > 0;)
        text.append(buf, std::size_t(n));
    close(fd[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    fs::remove_all(dir);
    RepOut r = parse_rep(text);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("bench_pipeline: " + w.name + " rep exited abnormally");
    return r;
}

struct Stat {
    double value = 0.0;  ///< what the benchmark reports: see stat_of
    double median = 0.0, min = 0.0, max = 0.0;
    std::vector<double> values;
};

Stat stat_of(std::vector<double> values, bool higher_better) {
    Stat s;
    s.values = values;
    if (values.empty()) return s;
    s.median = median(values);
    s.min = *std::min_element(values.begin(), values.end());
    s.max = *std::max_element(values.begin(), values.end());
    // The value is the median of the better half of the reps. On a shared
    // host, contention arrives in bursts of seconds that slow a rep by up
    // to 70%, and a burst can cover half the reps of a run: across ten
    // seeds the better-half median spread about half as wide as the
    // median of all reps.
    std::sort(values.begin(), values.end());
    if (higher_better) std::reverse(values.begin(), values.end());
    values.resize((values.size() + 1) / 2);
    s.value = median(values);
    return s;
}

struct WorkloadRuns {
    Workload w;
    std::vector<RepOut> reps;
    std::optional<RepOut> traced;
    std::optional<RepOut> band;  ///< the untimed band-check pass

    [[nodiscard]] Stat stat(const MetricDef& m) const {
        std::vector<double> v;
        for (const auto& r : reps) v.push_back(r.num.at(m.name));
        return stat_of(v, m.higher_better);
    }
};

std::string json_escape(const std::string& s) {
    std::string o;
    for (const char c : s) {
        if (c == '"' || c == '\\') o += '\\';
        if (c == '\n') {
            o += "\\n";
            continue;
        }
        o += c;
    }
    return o;
}

/// Every digit of a double: the result files compare exactly.
std::string num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Names the first deterministic difference between two reps, or "".
std::string first_difference(const RepOut& a, const RepOut& b) {
    for (const auto& [k, v] : a.hashes)
        if (b.hashes.count(k) == 0 || b.hashes.at(k) != v) return k;
    if (a.hashes.size() != b.hashes.size()) return "set of hashes";
    if (a.det.size() != b.det.size()) return "set of deterministic values";
    for (const auto& [k, v] : a.det) {
        const auto it = b.det.find(k);
        if (it == b.det.end()) return k + " (missing)";
        if (it->second != v) return k + " (" + num(v) + " vs " + num(it->second) + ")";
    }
    return "";
}

std::vector<std::string> check(const std::vector<WorkloadRuns>& runs) {
    std::vector<std::string> failures;
    for (const auto& wr : runs) {
        const std::string& n = wr.w.name;
        std::vector<const RepOut*> all;
        for (const auto& r : wr.reps) all.push_back(&r);
        if (wr.traced) all.push_back(&*wr.traced);
        for (const RepOut* r : all) {
            if (r->det.at("completed") + r->det.at("failed") != r->det.at("requested"))
                failures.push_back(n + ": completed + failed != requested");
            if (wr.w.model == Model::kKoozaStreaming &&
                r->num.at("chunked_rows") != r->det.at("records"))
                failures.push_back(n + ": ChunkedReader rows != captured records");
            const std::string diff = first_difference(*all.front(), *r);
            if (!diff.empty()) failures.push_back(n + ": not deterministic: " + diff);
        }
        if (wr.band && (wr.band->det.at("feature_err_pct") > kFeatureBandPct ||
                        wr.band->det.at("latency_err_pct") > kLatencyBandPct))
            failures.push_back(n + ": outside the paper's band at " +
                               num(wr.band->det.at("requested")) + " requests (feature " +
                               num(wr.band->det.at("feature_err_pct")) + "%, latency " +
                               num(wr.band->det.at("latency_err_pct")) + "%)");
        if (wr.traced &&
            wr.traced->num.at("layer.bench.stage_coverage_pct") < kMinCoveragePct)
            failures.push_back(n + ": stage coverage " +
                               num(wr.traced->num.at("layer.bench.stage_coverage_pct")) +
                               "% < " + num(kMinCoveragePct) + "%");
    }
    return failures;
}

/// Per-layer metrics of a traced workload, completed from the reps.
Values per_layer(const WorkloadRuns& wr) {
    Values m;
    for (const auto& [k, v] : wr.traced->num)
        if (k.starts_with("layer.")) m[k.substr(6)] = v;
    for (const char* k : {"feature_err_pct", "latency_err_pct", "p99_err_pct"}) {
        const auto it = wr.traced->det.find(k);
        m[k] = it == wr.traced->det.end() ? 0.0 : it->second;
    }
    const double untraced =
        wr.stat({"capture_s", "s"}).median + wr.stat({"model_s", "s"}).median;
    const double traced = wr.traced->num.at("capture_s") + wr.traced->num.at("model_s");
    m["bench.trace_overhead_pct"] = 100.0 * ratio(traced - untraced, untraced);
    std::vector<double> probes;
    for (const auto& r : wr.reps) probes.push_back(r.num.at("host.probe_s"));
    probes.push_back(wr.traced->num.at("host.probe_s"));
    m["host.probe_s"] = median(probes);
    return m;
}

std::string shell_line(const char* cmd) {
    std::string out;
    if (std::FILE* p = popen(cmd, "r")) {
        char buf[256];
        while (std::fgets(buf, sizeof buf, p)) out += buf;
        pclose(p);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
    return out.empty() ? "unknown" : out;
}

std::string compiler() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

struct Options {
    std::uint64_t seed = 7;
    std::string workload;  ///< empty: all four
    std::uint64_t seconds = kDefaultSeconds;  ///< budget per workload
    bool trace = true;
    bool smoke = false;
    std::string out = "BENCH_pipeline.json";
    std::string trace_out = "BENCH_pipeline.trace.json";
    std::string work_dir = "bench_pipeline.work";
};

void write_results(const Options& o, const std::vector<WorkloadRuns>& runs,
                   const std::vector<std::string>& failures, double probe_median) {
    std::ofstream f(o.out);
    f << "{\n  \"schema\": \"kooza.bench_pipeline/1\",\n  \"manifest\": {\"seed\": "
      << o.seed << ", \"threads\": " << par::threads()
      << ", \"reps\": " << runs.front().reps.size() << ", \"seconds\": " << o.seconds
      << ", \"smoke\": " << (o.smoke ? "true" : "false") << ", \"build_type\": \""
      << KOOZA_BUILD_TYPE << "\", \"compiler\": \"" << json_escape(compiler())
      << "\", \"git_describe\": \""
      << json_escape(shell_line("git describe --always --dirty 2>/dev/null"))
      << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"host_probe_s_median\": " << num(probe_median) << "},\n";
    f << "  \"correct\": " << (failures.empty() ? "true" : "false")
      << ",\n  \"failed_checks\": [";
    for (std::size_t i = 0; i < failures.size(); ++i)
        f << (i ? ", " : "") << "\"" << json_escape(failures[i]) << "\"";
    f << "],\n  \"workloads\": {\n";
    for (std::size_t wi = 0; wi < runs.size(); ++wi) {
        const auto& wr = runs[wi];
        double attempted = 0.0, failed = 0.0;
        for (const auto& r : wr.reps) {
            attempted += r.det.at("requested");
            failed += r.det.at("failed");
        }
        f << "    \"" << wr.w.name << "\": {\n      \"requests\": " << wr.w.capture.count
          << ", \"attempted\": " << num(attempted) << ", \"failed\": " << num(failed)
          << ",\n      \"end_to_end\": {\n";
        for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
            const Stat s = wr.stat(kEndToEnd[i]);
            f << "        \"" << kEndToEnd[i].name << "\": {\"unit\": \""
              << kEndToEnd[i].unit << "\", \"value\": " << num(s.value)
              << ", \"median\": " << num(s.median)
              << ", \"min\": " << num(s.min) << ", \"max\": " << num(s.max)
              << ", \"n\": " << s.values.size() << ", \"values\": [";
            for (std::size_t j = 0; j < s.values.size(); ++j)
                f << (j ? ", " : "") << num(s.values[j]);
            f << "]}" << (i + 1 < std::size(kEndToEnd) ? "," : "") << "\n";
        }
        f << "      },\n      \"deterministic\": {";
        const char* sep = "";
        for (const auto& [k, v] : wr.reps.front().hashes) {
            f << sep << "\"" << k << "\": \"" << v << "\"";
            sep = ", ";
        }
        for (const auto& [k, v] : wr.reps.front().det)
            if (!k.starts_with("registry.")) f << ", \"" << k << "\": " << num(v);
        if (wr.band)
            for (const char* k : {"requested", "feature_err_pct", "latency_err_pct"})
                f << ", \"band_" << k << "\": " << num(wr.band->det.at(k));
        f << "}";
        if (wr.traced) {
            const Values layer = per_layer(wr);
            f << ",\n      \"per_layer\": {\n";
            for (std::size_t i = 0; i < std::size(kPerLayer); ++i)
                f << "        \"" << kPerLayer[i].name << "\": {\"unit\": \""
                  << kPerLayer[i].unit
                  << "\", \"value\": " << num(layer.at(kPerLayer[i].name)) << "}"
                  << (i + 1 < std::size(kPerLayer) ? "," : "") << "\n";
            f << "      }";
        }
        f << "\n    }" << (wi + 1 < runs.size() ? "," : "") << "\n";
    }
    f << "  }\n}\n";
    if (!f) throw std::runtime_error("bench_pipeline: cannot write " + o.out);
}

void write_trace(const Options& o, const std::vector<WorkloadRuns>& runs) {
    std::ofstream f(o.trace_out);
    f << "{\n  \"schema\": \"kooza.bench_pipeline.trace/1\",\n  \"seed\": " << o.seed
      << ",\n  \"spans\": [";
    bool first = true;
    for (const auto& wr : runs) {
        if (!wr.traced) continue;
        const auto& spans = wr.traced->spans;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span& s = spans[i];
            std::int64_t covered = 0;
            for (const auto& c : spans)
                if (c.parent == int(i)) covered += c.end_ns - c.start_ns;
            f << (first ? "\n" : ",\n") << "    {\"workload\": \"" << wr.w.name
              << "\", \"id\": " << i << ", \"parent\": " << s.parent
              << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
              << ", \"end_ns\": " << s.end_ns
              << ", \"self_ns\": " << (s.end_ns - s.start_ns - covered)
              << ", \"counters\": {";
            bool first_delta = true;
            for (const auto& [k, v] : s.deltas) {
                f << (first_delta ? "" : ", ") << "\"" << k << "\": " << num(v);
                first_delta = false;
            }
            f << "}}";
            first = false;
        }
    }
    f << "\n  ]\n}\n";
    if (!f) throw std::runtime_error("bench_pipeline: cannot write " + o.trace_out);
}

/// The console table: six significant digits; the result file has them all.
void print_workload(const WorkloadRuns& wr) {
    std::cout << "\n== " << wr.w.name << ": " << wr.w.capture.count << " requests, "
              << wr.reps.size() << " reps ==\n"
              << std::left << std::setw(36) << "metric" << std::setw(10) << "unit"
              << std::right << std::setw(14) << "value" << std::setw(14) << "median"
              << std::setw(14) << "min" << std::setw(14) << "max" << std::setw(4) << "n"
              << "\n";
    for (const auto& m : kEndToEnd) {
        const Stat s = wr.stat(m);
        std::cout << std::left << std::setw(36) << m.name << std::setw(10) << m.unit
                  << std::right << std::setw(14) << s.value << std::setw(14) << s.median
                  << std::setw(14) << s.min << std::setw(14) << s.max << std::setw(4)
                  << s.values.size() << "\n";
    }
    for (const auto& m : kAccuracy) {
        const auto it = wr.reps.front().det.find(m.name);
        std::cout << std::left << std::setw(36) << m.name << std::setw(10) << m.unit
                  << std::right << std::setw(14);
        if (it == wr.reps.front().det.end())
            std::cout << "n/a";
        else
            std::cout << it->second;
        std::cout << "   (deterministic)\n";
    }
    if (!wr.traced) return;
    std::cout << "-- per layer (traced pass) --\n";
    for (const auto& [k, v] : per_layer(wr)) {
        const char* unit = "";
        for (const auto& m : kPerLayer)
            if (k == m.name) unit = m.unit;
        std::cout << std::left << std::setw(36) << k << std::setw(10) << unit
                  << std::right << std::setw(14) << v << "\n";
    }
}

Options parse_args(int argc, char** argv) {
    const cli::Args args(argc, argv, {"smoke"});
    if (!args.positional().empty())
        throw std::invalid_argument("unexpected argument '" + args.positional().front() +
                                    "'");
    Options o;
    o.seed = args.get_u64("seed", o.seed);
    o.workload = args.get("workload", "");
    o.seconds = args.get_u64("seconds", o.seconds);
    o.trace = args.get_u64("trace", 1) != 0;
    o.smoke = args.has("smoke");
    o.out = args.get("out", o.out);
    o.trace_out = args.get("trace-out", o.trace_out);
    o.work_dir = args.get("work-dir", o.work_dir);
    if (o.seconds == 0) throw std::invalid_argument("--seconds: must be at least 1");
    if (o.smoke) o.trace = true;
    return o;
}

}  // namespace

int main(int argc, char** argv) {
    Options o;
    std::vector<WorkloadRuns> runs;
    try {
        o = parse_args(argc, argv);
        for (const auto& w : make_workloads(o.seed, o.smoke ? kSmokeDivisor : 1))
            if (o.workload.empty() || w.name == o.workload)
                runs.push_back({w, {}, std::nullopt, std::nullopt});
        if (runs.empty())
            throw std::invalid_argument("--workload: unknown workload '" + o.workload +
                                        "' (oltp-csv, closedloop-sat, hmm-oltp, "
                                        "dc-stream)");
    } catch (const std::exception& e) {
        std::cerr << "bench_pipeline: " << e.what() << "\n";
        return 2;
    }

    try {
        par::set_threads(kThreads);
        std::cout << "run: seed=" << o.seed << " threads=" << par::threads()
                  << (o.smoke ? " smoke" : "") << "\n";
        const fs::path work = o.work_dir;
        fs::create_directories(work);
        const double budget = double(o.seconds) * double(runs.size());
        const auto t0 = Clock::now();
        for (auto& wr : runs) {
            if (wr.w.band_requests == 0) continue;
            Workload big = wr.w;
            big.capture.count = wr.w.band_requests;
            wr.band = fork_rep(big, work / wr.w.name, Pass::kTimed);
        }
        const auto t_rounds = Clock::now();
        for (std::size_t round = 1;; ++round) {
            for (auto& wr : runs) {
                const fs::path dir = work / wr.w.name;
                RepOut r = fork_rep(wr.w, dir, Pass::kTimed);
                std::cout << "rep " << round << " " << wr.w.name << ": capture "
                          << r.num.at("capture_s") << " s, model " << r.num.at("model_s")
                          << " s\n";
                std::vector<double> setups{r.num.at("setup_s")};
                for (std::size_t i = 0; i < kExtraSetups; ++i)
                    setups.push_back(fork_rep(wr.w, dir, Pass::kSetup).num.at("setup_s"));
                r.num["setup_s"] = median(setups);
                wr.reps.push_back(std::move(r));
            }
            if (o.smoke) break;
            // The budget started before the band pass. Stop when one more
            // round, and the traced pass after it, would overrun.
            const double elapsed = seconds_between(t0, Clock::now());
            const double per_round = seconds_between(t_rounds, Clock::now()) / double(round);
            if (round >= kMinTimedReps &&
                elapsed + per_round * (o.trace ? 2.0 : 1.0) > budget)
                break;
        }
        if (o.trace)
            for (auto& wr : runs)
                wr.traced = fork_rep(wr.w, work / wr.w.name, Pass::kTraced);
        fs::remove_all(work);

        std::vector<double> probes;
        for (const auto& wr : runs)
            for (const auto& r : wr.reps) probes.push_back(r.num.at("host.probe_s"));
        for (const auto& wr : runs) print_workload(wr);
        const auto failures = check(runs);
        write_results(o, runs, failures, median(probes));
        std::cout << "\nwrote " << o.out;
        if (o.trace) {
            write_trace(o, runs);
            std::cout << " and " << o.trace_out;
        }
        std::cout << "\n";
        for (const auto& msg : failures) std::cout << "CHECK FAILED: " << msg << "\n";
        return failures.empty() ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "bench_pipeline: " << e.what() << "\n";
        return 1;
    }
}

