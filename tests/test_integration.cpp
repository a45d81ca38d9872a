// End-to-end integration tests: the paper's validation loop, the
// cross-examination ordering (KOOZA vs baselines), CSV round-trip through
// training, and the incast composition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string_view>
#include <unistd.h>

#include "baselines/inbreadth.hpp"
#include "baselines/indepth.hpp"
#include "core/capture.hpp"
#include "core/generator.hpp"
#include "core/replayer.hpp"
#include "core/trainer.hpp"
#include "core/validator.hpp"
#include "gfs/cluster.hpp"
#include "obs/metrics.hpp"
#include "stats/descriptive.hpp"
#include "stats/hypothesis.hpp"
#include "trace/csv.hpp"
#include "trace/features.hpp"
#include "trace/io.hpp"
#include "workloads/profiles.hpp"

#include "digest.hpp"

namespace {

using namespace kooza;
using sim::Rng;
using trace::IoType;

gfs::GfsConfig default_cfg() { return gfs::GfsConfig{}; }

trace::TraceSet run_cluster(const workloads::Workload& w,
                            const gfs::GfsConfig& cfg = default_cfg()) {
    gfs::Cluster cluster(cfg);
    w.install(cluster);
    cluster.run();
    return cluster.traces();
}

TEST(Integration, Table2ScenarioFeaturesNearExact) {
    // The paper's validation: one 64 KB read and one 4 MB write, unloaded.
    // Train on repeated instances, generate, replay, compare per type.
    workloads::Workload train_w;
    train_w.files.emplace_back("validate.dat", 64ull << 20);
    for (int i = 0; i < 50; ++i) {
        train_w.requests.push_back({double(i), 0, 0, 64ull << 10,
                                    IoType::kRead, 0});
        train_w.requests.push_back({double(i) + 0.5, 0, 8ull << 20,
                                    4ull << 20, IoType::kWrite, 0});
    }
    const auto cfg = default_cfg();
    const auto ts = run_cluster(train_w, cfg);
    const auto model = core::Trainer({.workload_name = "table2"}).train(ts);
    Rng rng(1);
    const auto synth = core::Generator(model).generate(100, rng);
    core::ReplayConfig rc(cfg);
    rc.cpu_verify_fraction = model.cpu_verify_fraction();
    core::Replayer replayer(rc);
    const auto replayed = replayer.replay(synth);

    // Table 2 compares per user-request type (one block for the 64 KB
    // read, one for the 4 MB write), so split both sides by type.
    auto by_type = [](const std::vector<trace::RequestFeatures>& fs, IoType t) {
        std::vector<trace::RequestFeatures> out;
        for (const auto& f : fs)
            if (f.storage_type == t) out.push_back(f);
        return out;
    };
    const auto orig = trace::extract_features(ts);
    const auto gen = trace::extract_features(replayed.traces);
    for (IoType t : {IoType::kRead, IoType::kWrite}) {
        const auto report = core::compare_features(
            by_type(orig, t), by_type(gen, t),
            t == IoType::kRead ? "table2-read" : "table2-write");
        // Deterministic request features must match almost exactly.
        EXPECT_LT(report.max_feature_variation(), 5.0) << report.to_table();
        // Latency in the paper deviates <= 6.6%; grant slack for load.
        EXPECT_LT(report.latency_variation(), 10.0) << report.to_table();
    }
}

TEST(Integration, KoozaBeatsInBreadthOnLatency) {
    Rng wl_rng(2);
    workloads::MicroProfile profile({.count = 400, .arrival_rate = 25.0});
    const auto w = profile.generate(wl_rng);
    const auto cfg = default_cfg();
    const auto ts = run_cluster(w, cfg);
    const auto orig = trace::extract_features(ts);
    const double orig_lat = stats::mean(trace::column_latency(orig));

    // KOOZA.
    const auto kooza_model = core::Trainer().train(ts);
    Rng g1(3);
    const auto kooza_w = core::Generator(kooza_model).generate(400, g1);
    core::ReplayConfig rc(cfg);
    rc.cpu_verify_fraction = kooza_model.cpu_verify_fraction();
    core::Replayer replayer(rc);
    const double kooza_lat =
        stats::mean(replayer.replay(kooza_w, core::ReplayMode::kStructured).latencies);

    // In-breadth (no structure): independent stressing.
    const auto ib_model = baselines::InBreadthModel::train(ts);
    Rng g2(4);
    const auto ib_w = ib_model.generate(400, g2);
    const double ib_lat =
        stats::mean(replayer.replay(ib_w, core::ReplayMode::kIndependent).latencies);

    const double kooza_err = stats::variation_pct(kooza_lat, orig_lat);
    const double ib_err = stats::variation_pct(ib_lat, orig_lat);
    EXPECT_LT(kooza_err, ib_err);
    // In-breadth underestimates: parallel stressing cannot reproduce the
    // serialized request path.
    EXPECT_LT(ib_lat, orig_lat);
}

TEST(Integration, KoozaBeatsInDepthOnFeatures) {
    // Needs within-type size variance (lognormal web-search results), so
    // a per-type *mean* cannot summarize the distribution.
    Rng wl_rng(5);
    workloads::WebSearchProfile profile({.count = 400, .arrival_rate = 25.0});
    const auto ts = run_cluster(profile.generate(wl_rng));
    const auto orig = trace::extract_features(ts);

    const auto kooza_model = core::Trainer().train(ts);
    Rng g1(6);
    const auto kooza_w = core::Generator(kooza_model).generate(1000, g1);

    const auto id_model = baselines::InDepthModel::train(ts);
    Rng g2(7);
    const auto id_w = id_model.generate(1000, g2);

    // Compare feature *distributions* via two-sample KS on storage size.
    auto sizes_of = [](const core::SyntheticWorkload& w) {
        std::vector<double> out;
        for (const auto& r : w.requests) out.push_back(double(r.storage_bytes));
        return out;
    };
    const auto orig_sizes = trace::column_storage_bytes(orig);
    const double kooza_ks =
        stats::ks_statistic_two_sample(orig_sizes, sizes_of(kooza_w));
    const double id_ks = stats::ks_statistic_two_sample(orig_sizes, sizes_of(id_w));
    EXPECT_LT(kooza_ks, id_ks);
    // The in-depth model collapses the size distribution to two points, so
    // its KS distance to the real bimodal distribution is large.
    EXPECT_GT(id_ks, 0.3);
}

TEST(Integration, TrainingThroughCsvRoundTrip) {
    Rng wl_rng(8);
    workloads::MicroProfile profile({.count = 200, .arrival_rate = 25.0});
    const auto ts = run_cluster(profile.generate(wl_rng));
    const auto dir = std::filesystem::temp_directory_path() / "kooza_integration_csv";
    std::filesystem::remove_all(dir);
    trace::write_csv(ts, dir);
    const auto loaded = trace::read_csv(dir);
    std::filesystem::remove_all(dir);

    const auto m1 = core::Trainer().train(ts);
    const auto m2 = core::Trainer().train(loaded);
    EXPECT_DOUBLE_EQ(m1.read_fraction(), m2.read_fraction());
    EXPECT_EQ(m1.parameter_count(), m2.parameter_count());
    EXPECT_EQ(m1.reads().structure.dominant(), m2.reads().structure.dominant());
}

/// FNV-1a over the seven CSV files in `dir`, in stream order, each
/// file's name before its bytes. Also returns the data-row count of
/// failures.csv, so a case can insist its faults were recorded.
std::pair<std::uint64_t, std::size_t> csv_dir_digest(const std::filesystem::path& dir) {
    testutil::Fnv d;
    std::size_t failure_rows = 0;
    for (const auto* stem : trace::kStreamStems) {
        const auto name = std::string(stem) + ".csv";
        std::ifstream f(dir / name, std::ios::binary);
        const std::string bytes{std::istreambuf_iterator<char>(f),
                                std::istreambuf_iterator<char>()};
        d.add_bytes(name);
        d.add_bytes(bytes);
        if (std::string_view(stem) == "failures")
            failure_rows = std::size_t(std::count(bytes.begin(), bytes.end(), '\n')) - 1;
    }
    return {d.value(), failure_rows};
}

std::filesystem::path pin_dir(const std::string& tag) {
    return std::filesystem::temp_directory_path() /
           ("kooza_csv_pin_" + tag + "_" + std::to_string(::getpid()));
}

/// csv_dir_digest of the CSV capture `o` writes.
std::pair<std::uint64_t, std::size_t> csv_capture_digest(core::CaptureOptions o,
                                                         const std::string& tag) {
    const auto dir = pin_dir(tag);
    std::filesystem::remove_all(dir);
    o.out_dir = dir.string();
    o.format = trace::Format::kCsv;
    (void)core::run_capture(o);
    const auto out = csv_dir_digest(dir);
    std::filesystem::remove_all(dir);
    return out;
}

TEST(Integration, CsvCaptureBytesPinned) {
    // Pins every byte write_csv lays down for seven captures. The first
    // three constants were recorded from the iostream writer at
    // precision(17), the other four from the std::function request path
    // before its rewrite: a faster encoder or a rebuilt request path must
    // write the same text, doubles included.
    core::CaptureOptions oltp;
    oltp.profile = "oltp";
    oltp.count = 2000;
    oltp.seed = 7;
    const auto oltp_digest = csv_capture_digest(oltp, "oltp").first;
    EXPECT_EQ(oltp_digest, 0x6b66382e2c5ed226ull) << std::hex << oltp_digest;

    core::CaptureOptions closed;
    closed.closed_loop = true;
    closed.clients = 4;
    closed.outstanding = 2;
    closed.count = 300;
    closed.seed = 11;
    const auto closed_digest = csv_capture_digest(closed, "closed").first;
    EXPECT_EQ(closed_digest, 0x2343ed2fa4a29be7ull) << std::hex << closed_digest;

    core::CaptureOptions faulted;
    faulted.profile = "micro";
    faulted.count = 400;
    faulted.rate = 50.0;
    faulted.seed = 77;
    faulted.n_servers = 5;
    faulted.replication = 2;
    faulted.fault_rate = 0.2;
    faulted.mttr = 1.0;
    const auto [faulted_digest, faulted_failures] =
        csv_capture_digest(faulted, "faulted");
    EXPECT_GT(faulted_failures, 0u);
    // Re-recorded when lazy faults began to stop at the last client
    // request's end (16.17 s here) instead of crashing and repairing
    // until 42.3 s: failures, network and storage lost the late crash,
    // recover and repair rows, and requests, spans, cpu and memory kept
    // their bytes.
    EXPECT_EQ(faulted_digest, 0x3ae24fd884945d2bull) << std::hex << faulted_digest;
    {
        const auto ts = core::run_capture(faulted).traces;
        double last_end = 0.0;
        for (const auto& r : ts.requests) last_end = std::max(last_end, r.completion);
        for (const auto& f : ts.failures)
            if (f.kind == trace::FailureRecord::Kind::kRequestFailed)
                last_end = std::max(last_end, f.time);
        std::size_t late_faults = 0;
        for (const auto& f : ts.failures)
            if ((f.kind == trace::FailureRecord::Kind::kCrash ||
                 f.kind == trace::FailureRecord::Kind::kRecover) &&
                f.time > last_end)
                ++late_faults;
        EXPECT_EQ(late_faults, 0u) << "crash/recover rows after " << last_end << " s";
    }

    // Admission control with two pinned tickets under eight closed-loop
    // clients: first every piece past the tickets waits in the queue,
    // then the same load is bounced instead.
    core::CaptureOptions admitted;
    admitted.closed_loop = true;
    admitted.clients = 8;
    admitted.outstanding = 4;
    admitted.count = 400;
    admitted.seed = 7;
    admitted.admission = "queue";
    admitted.admission_tickets = 2;
    auto& queued = obs::counter("gfs.server.admission.queued_total");
    const auto queued_before = queued.value();
    const auto queue_digest = csv_capture_digest(admitted, "queue").first;
    EXPECT_GT(queued.value(), queued_before);
    EXPECT_EQ(queue_digest, 0x7b7de374cb77840aull) << std::hex << queue_digest;

    admitted.admission = "reject";
    const auto [reject_digest, rejections] = csv_capture_digest(admitted, "reject");
    EXPECT_GT(rejections, 0u);
    EXPECT_EQ(reject_digest, 0xe6b2f61eab3d747aull) << std::hex << reject_digest;

    // Three replicas on four servers: every write forwards down a
    // two-hop chain, and 1-in-7 sampling leaves most span handles null.
    core::CaptureOptions replicated;
    replicated.profile = "micro";
    replicated.count = 400;
    replicated.rate = 50.0;
    replicated.seed = 7;
    replicated.n_servers = 4;
    replicated.replication = 3;
    replicated.span_sample_every = 7;
    auto& replica_writes = obs::counter("gfs.server.replica_writes_total");
    const auto replica_before = replica_writes.value();
    const auto replicated_digest = csv_capture_digest(replicated, "replicated").first;
    EXPECT_GT(replica_writes.value(), replica_before);
    EXPECT_EQ(replicated_digest, 0xbfb914079837062dull) << std::hex << replicated_digest;

    // The tiered scenario's log tier writes through record appends.
    core::CaptureOptions tiered;
    tiered.scenario = "tiered";
    tiered.count = 600;
    tiered.seed = 7;
    const auto tiered_digest = csv_capture_digest(tiered, "tiered").first;
    EXPECT_EQ(tiered_digest, 0x9a96fa2944bd4906ull) << std::hex << tiered_digest;
}

TEST(Integration, MultiServerIncastReproduced) {
    // Striped read across many chunkservers converging on one client:
    // the original system shows incast drops; a multi-server KOOZA replay
    // shows them too (paper Section 4's incast claim).
    gfs::GfsConfig cfg;
    cfg.n_chunkservers = 32;
    cfg.chunk_size = 256ull << 10;
    cfg.net.buffer_frames = 16;
    cfg.net.retry_timeout = 0.05;
    gfs::Cluster cluster(cfg);
    const gfs::FileId wide = cluster.create_file("wide", 32ull << 20);
    // One big striped read: 8 MB over 32 chunks of 256 KB.
    auto& drops = obs::counter("hw.net.drops_total");
    const auto drops_before = drops.value();
    cluster.submit({0.0, wide, 0, 8ull << 20, IoType::kRead, 0});
    cluster.run();
    EXPECT_GT(drops.value(), drops_before);
    const auto ts = cluster.traces();
    ASSERT_EQ(ts.requests.size(), 1u);
    // Pins the fan-out's bytes: 32 pieces, port drops and retries.
    const auto dir = pin_dir("incast");
    std::filesystem::remove_all(dir);
    trace::write_csv(ts, dir);
    const auto incast_digest = csv_dir_digest(dir).first;
    std::filesystem::remove_all(dir);
    EXPECT_EQ(incast_digest, 0x52e056de4663b733ull) << std::hex << incast_digest;

    // Replay the same fan-in with the multi-server replayer.
    core::SyntheticWorkload w;
    w.model_name = "incast";
    for (int i = 0; i < 32; ++i) {
        core::SyntheticRequest r;
        r.time = 0.0;
        r.type = IoType::kRead;
        r.network_bytes = 256 << 10;
        r.storage_bytes = 256 << 10;
        r.memory_bytes = 64 << 10;
        r.cpu_busy_seconds = 1e-4;
        r.lbn = std::uint64_t(i) * 4096;
        r.phases = {"disk.io", "net.tx"};
        r.server = std::uint32_t(i);
        w.requests.push_back(r);
    }
    core::ReplayConfig rcfg(cfg);
    rcfg.n_servers = 32;
    core::Replayer rep(rcfg);
    const auto res = rep.replay(w);
    EXPECT_GT(res.network_drops, 0u);
}

TEST(Integration, ReplicatedWritesKeepTheirByteBudgets) {
    // A replication-2 capture's write features already include the
    // replica's share of network and storage bytes; replaying its
    // repl.forward phase must spend that share, not add a second copy.
    core::CaptureOptions opts;
    opts.profile = "micro";
    opts.count = 2000;
    opts.seed = 7;
    opts.n_servers = 2;
    opts.replication = 2;
    const auto ts = core::run_capture(opts).traces;
    const auto model = core::Trainer().train(ts);
    Rng rng(7);
    const auto synth = core::Generator(model).generate(ts.requests.size(), rng);
    core::ReplayConfig rc;
    rc.cpu_verify_fraction = model.cpu_verify_fraction();
    const auto replayed = core::Replayer(rc).replay(synth);
    const auto report = core::compare_features(
        trace::extract_features(ts), trace::extract_features(replayed.traces), "r2");
    std::size_t checked = 0;
    for (const auto& row : report.rows) {
        if (row.subsystem != "Network" && row.subsystem != "Storage") continue;
        EXPECT_LT(std::abs(row.variation_pct), 1.0) << row.to_string();
        ++checked;
    }
    EXPECT_EQ(checked, 2u);
}

TEST(Integration, ModelPortableAcrossServerConfigs) {
    // Applicability (paper Section 5): train once, replay on a different
    // server configuration to predict its latency; a faster disk must give
    // lower predicted latency.
    Rng wl_rng(9);
    workloads::MicroProfile profile({.count = 300, .arrival_rate = 20.0});
    const auto cfg = default_cfg();
    const auto ts = run_cluster(profile.generate(wl_rng), cfg);
    const auto model = core::Trainer().train(ts);
    Rng g(10);
    const auto synth = core::Generator(model).generate(300, g);

    auto latency_with_disk = [&](double transfer_rate) {
        core::ReplayConfig rc(cfg);
        rc.cpu_verify_fraction = model.cpu_verify_fraction();
        rc.disk.transfer_rate = transfer_rate;
        core::Replayer rep(rc);
        return stats::mean(rep.replay(synth).latencies);
    };
    EXPECT_LT(latency_with_disk(500e6), latency_with_disk(60e6));
}

}  // namespace
