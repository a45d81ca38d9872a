// Tests for the deterministic fault-injection subsystem and the failover
// correctness fixes that ride with it: seed-stable fault plans, master
// re-replication, exponential client backoff, location-cache demotion
// (the "pay the dead primary's timeout once" regression), disjoint
// chunk->LBN mapping, and the retries-exhausted network record.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/capture.hpp"
#include "core/characterize.hpp"
#include "gfs/cluster.hpp"
#include "gfs/faults.hpp"
#include "hw/network.hpp"
#include "par/pool.hpp"
#include "trace/csv.hpp"
#include "workloads/profiles.hpp"

namespace {

namespace fs = std::filesystem;
using namespace kooza;
using namespace kooza::gfs;
using kooza::trace::FailureRecord;
using kooza::trace::IoType;

TEST(FaultPlan, DeterministicPerSeed) {
    FaultConfig cfg;
    cfg.mtbf = 5.0;
    cfg.mttr = 2.0;
    cfg.horizon = 50.0;
    const auto a = make_fault_plan(cfg, 4, 99);
    const auto b = make_fault_plan(cfg, 4, 99);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
        EXPECT_EQ(a[i].server, b[i].server);
        EXPECT_EQ(a[i].fail, b[i].fail);
    }
    // A different cluster seed produces a different schedule.
    const auto c = make_fault_plan(cfg, 4, 100);
    bool differs = c.size() != a.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].time != c[i].time || a[i].server != c[i].server;
    EXPECT_TRUE(differs);
    // An explicit FaultConfig::seed overrides the cluster seed.
    cfg.seed = 7;
    const auto d = make_fault_plan(cfg, 4, 99);
    const auto e = make_fault_plan(cfg, 4, 12345);
    ASSERT_EQ(d.size(), e.size());
    for (std::size_t i = 0; i < d.size(); ++i) EXPECT_DOUBLE_EQ(d[i].time, e[i].time);
}

TEST(FaultPlan, SortedAlternatingWithinHorizon) {
    FaultConfig cfg;
    cfg.mtbf = 3.0;
    cfg.mttr = 1.0;
    cfg.horizon = 40.0;
    const auto plan = make_fault_plan(cfg, 3, 42);
    ASSERT_FALSE(plan.empty());
    for (std::size_t i = 1; i < plan.size(); ++i)
        EXPECT_LE(plan[i - 1].time, plan[i].time);
    // Per server: strictly alternating crash/recover starting with a crash.
    for (std::uint32_t s = 0; s < 3; ++s) {
        bool expect_fail = true;
        for (const auto& ev : plan) {
            if (ev.server != s) continue;
            EXPECT_GT(ev.time, 0.0);
            EXPECT_LT(ev.time, cfg.horizon);
            EXPECT_EQ(ev.fail, expect_fail);
            expect_fail = !expect_fail;
        }
    }
    EXPECT_THROW((void)make_fault_plan(FaultConfig{.mtbf = 0.0}, 2, 1),
                 std::invalid_argument);
}

// The PR's headline regression: with location caching on, a client used to
// re-pay the dead primary's failover timeout on every request to the same
// chunk, because the cache was never updated (emplace on an existing key
// is a no-op). Demotion moves the dead primary to the back of the cached
// entry, so only the first request pays the wait.
TEST(FailoverRegression, CachedDeadPrimaryTimeoutPaidOnce) {
    GfsConfig cfg;
    cfg.n_chunkservers = 3;
    cfg.replication = 2;
    Cluster cluster(cfg);
    // One chunk, on servers {0, 1}.
    const FileId f = cluster.create_file("f", 64ull << 20);
    cluster.server(0).set_failed(true);
    cluster.submit({.time = 0.0, .file = f, .offset = 0, .size = 4096,
                    .type = IoType::kRead});
    cluster.submit({.time = 5.0, .file = f, .offset = 0, .size = 4096,
                    .type = IoType::kRead});
    cluster.run();
    ASSERT_EQ(cluster.completed(), 2u);
    // First request pays the timeout and fails over; the second goes
    // straight to the demoted entry's live head.
    EXPECT_GT(cluster.latencies().at(0), cfg.failover_timeout);
    EXPECT_LT(cluster.latencies().at(1), cfg.failover_timeout);
    EXPECT_EQ(cluster.failovers(), 1u);
    // The paid wait is in the failures stream.
    const auto ts = cluster.traces();
    ASSERT_EQ(ts.failures.size(), 1u);
    EXPECT_EQ(ts.failures[0].kind, FailureRecord::Kind::kFailover);
    EXPECT_EQ(ts.failures[0].server, 0u);
    EXPECT_DOUBLE_EQ(ts.failures[0].duration, cfg.failover_timeout);
}

TEST(FailoverRegression, BackoffGrowsAndCaps) {
    GfsConfig cfg;  // one server, replication 1, retry round re-lookup
    Cluster cluster(cfg);
    const FileId f = cluster.create_file("f", 64ull << 20);
    cluster.server(0).set_failed(true);
    cluster.submit({.time = 0.0, .file = f, .offset = 0, .size = 4096,
                    .type = IoType::kRead});
    cluster.run();
    EXPECT_EQ(cluster.failed_requests(), 1u);
    const auto ts = cluster.traces();
    // Two failover waits (one per round) plus the terminal failure record.
    std::vector<double> waits;
    bool saw_failed = false;
    for (const auto& f : ts.failures) {
        if (f.kind == FailureRecord::Kind::kFailover) waits.push_back(f.duration);
        if (f.kind == FailureRecord::Kind::kRequestFailed) saw_failed = true;
    }
    ASSERT_EQ(waits.size(), 2u);
    EXPECT_DOUBLE_EQ(waits[0], cfg.failover_timeout);
    // Second attempt backs off: timeout * backoff^2 (the eviction round in
    // between also consumed a step), capped at failover_timeout_max.
    EXPECT_GT(waits[1], waits[0]);
    EXPECT_LE(waits[1], cfg.failover_timeout_max);
    EXPECT_TRUE(saw_failed);
}

TEST(FailoverRegression, ShrinkingBackoffFactorNeverShrinksTheWait) {
    // Regression for the backoff_wait hardening: with a backoff factor
    // <= 1 the old loop multiplied the wait smaller on every step,
    // silently turning "back off" into "retry faster and faster" (and
    // doing O(step) work to get there). The contract now: a non-growing
    // factor pins every wait at the base timeout (capped), so waits are
    // nondecreasing in the step for ANY factor.
    GfsConfig cfg;
    cfg.failover_backoff = 0.5;   // pathological: would shrink waits
    cfg.client_retry_rounds = 4;  // several rounds -> several backoff steps
    Cluster cluster(cfg);         // one server, replication 1
    const FileId f = cluster.create_file("f", 64ull << 20);
    cluster.server(0).set_failed(true);
    cluster.submit({.time = 0.0, .file = f, .offset = 0, .size = 4096,
                    .type = IoType::kRead});
    cluster.run();
    EXPECT_EQ(cluster.failed_requests(), 1u);
    const auto ts = cluster.traces();
    std::vector<double> waits;
    for (const auto& f : ts.failures)
        if (f.kind == FailureRecord::Kind::kFailover) waits.push_back(f.duration);
    ASSERT_GE(waits.size(), 2u);
    for (const auto w : waits) {
        EXPECT_DOUBLE_EQ(w, cfg.failover_timeout);  // pinned, never shrunk
        EXPECT_LE(w, cfg.failover_timeout_max);
    }
}

TEST(FailoverRegression, LargeBackoffManyRoundsStaysCapped) {
    // Aggressive growth with many retry rounds: every recorded wait must
    // respect the failover_timeout_max ceiling, and once the cap is hit
    // the waits stay there (the sequence is nondecreasing throughout).
    GfsConfig cfg;
    cfg.failover_backoff = 10.0;
    cfg.client_retry_rounds = 50;
    Cluster cluster(cfg);
    const FileId f = cluster.create_file("f", 64ull << 20);
    cluster.server(0).set_failed(true);
    cluster.submit({.time = 0.0, .file = f, .offset = 0, .size = 4096,
                    .type = IoType::kRead});
    cluster.run();
    EXPECT_EQ(cluster.failed_requests(), 1u);
    const auto ts = cluster.traces();
    std::vector<double> waits;
    for (const auto& f : ts.failures)
        if (f.kind == FailureRecord::Kind::kFailover) waits.push_back(f.duration);
    ASSERT_GT(waits.size(), 2u);
    bool hit_cap = false;
    for (std::size_t i = 0; i < waits.size(); ++i) {
        EXPECT_LE(waits[i], cfg.failover_timeout_max) << i;
        if (i > 0) {
            EXPECT_GE(waits[i], waits[i - 1]) << i;
        }
        hit_cap = hit_cap || waits[i] == cfg.failover_timeout_max;
    }
    EXPECT_TRUE(hit_cap);  // 50 rounds of 10x growth must reach the ceiling
}

TEST(Repair, CrashTriggersReReplication) {
    GfsConfig cfg;
    cfg.n_chunkservers = 4;
    cfg.replication = 2;
    cfg.chunk_size = 1u << 20;
    Cluster cluster(cfg);
    // chunk0 -> {0,1}, chunk1 -> {1,2}
    const FileId f = cluster.create_file("f", 2u << 20);
    cluster.inject_faults({FaultEvent{0.5, 0, true}});
    cluster.run();
    EXPECT_TRUE(cluster.master().server_down(0));
    ASSERT_NE(cluster.fault_injector(), nullptr);
    EXPECT_EQ(cluster.fault_injector()->crashes(), 1u);
    // Chunk 0 lost its replica on server 0 and was re-replicated.
    EXPECT_EQ(cluster.fault_injector()->repairs(), 1u);
    EXPECT_EQ(cluster.master().re_replications(), 1u);
    const auto& loc = cluster.master().lookup(f, 0);
    EXPECT_EQ(std::count(loc.servers.begin(), loc.servers.end(), 0u), 0);
    EXPECT_EQ(loc.servers.size(), 2u);
    // Post-repair reads of the chunk never touch the dead server.
    cluster.submit({.time = 20.0, .file = f, .offset = 0, .size = 4096,
                    .type = IoType::kRead});
    cluster.run();
    EXPECT_EQ(cluster.completed(), 1u);
    EXPECT_LT(cluster.latencies().at(0), cfg.failover_timeout);
    // The repair itself is in the failures stream, with the copy traffic
    // tagged outside the client request-id space.
    const auto ts = cluster.traces();
    bool saw_repair = false;
    for (const auto& f : ts.failures)
        if (f.kind == FailureRecord::Kind::kRepair) {
            saw_repair = true;
            EXPECT_GE(f.request_id, kRepairRequestIdBase);
            EXPECT_GT(f.duration, 0.0);
        }
    EXPECT_TRUE(saw_repair);
}

TEST(Repair, RecoveryRestoresServerViaInjector) {
    GfsConfig cfg;  // one server, replication 1: no repair possible
    Cluster cluster(cfg);
    const FileId f = cluster.create_file("f", 64ull << 20);
    cluster.inject_faults({FaultEvent{1.0, 0, true}, FaultEvent{3.0, 0, false}});
    cluster.submit({.time = 5.0, .file = f, .offset = 0, .size = 4096,
                    .type = IoType::kRead});
    cluster.run();
    EXPECT_EQ(cluster.completed(), 1u);
    EXPECT_EQ(cluster.failed_requests(), 0u);
    EXPECT_FALSE(cluster.master().server_down(0));
    EXPECT_EQ(cluster.fault_injector()->crashes(), 1u);
    EXPECT_EQ(cluster.fault_injector()->recoveries(), 1u);
    const auto ts = cluster.traces();
    std::multiset<FailureRecord::Kind> kinds;
    for (const auto& f : ts.failures) kinds.insert(f.kind);
    EXPECT_EQ(kinds.count(FailureRecord::Kind::kCrash), 1u);
    EXPECT_EQ(kinds.count(FailureRecord::Kind::kRecover), 1u);
}

TEST(Lbn, DistinctChunksGetDisjointBlockRanges) {
    GfsConfig cfg;
    cfg.chunk_size = 1u << 20;  // 2048 blocks of 512 B per chunk
    Cluster cluster(cfg);
    // 4 chunks, all on the one server.
    const FileId f = cluster.create_file("f", 4u << 20);
    for (int c = 0; c < 4; ++c)
        cluster.submit({.time = double(c) * 0.1, .file = f,
                        .offset = std::uint64_t(c) << 20, .size = 4096,
                        .type = IoType::kRead});
    cluster.run();
    const auto ts = cluster.traces();
    ASSERT_EQ(ts.storage.size(), 4u);
    const std::uint64_t blocks_per_chunk = cfg.chunk_size / cfg.disk.block_size;
    std::set<std::uint64_t> bases;
    for (const auto& r : ts.storage) {
        // Chunk-aligned base: the old mapping produced overlapping,
        // unaligned ranges once handles wrapped the disk.
        EXPECT_EQ(r.lbn % blocks_per_chunk, 0u);
        bases.insert(r.lbn / blocks_per_chunk);
    }
    EXPECT_EQ(bases.size(), 4u);
}

// Satellite fix: a transfer that exhausts its retries must still emit its
// NetworkRecord — the congested tail is exactly what incast models train
// on, and the give-up path used to drop it silently.
TEST(NetworkGiveUp, RetriesExhaustedStillEmitsRecord) {
    sim::Engine engine;
    trace::TraceSet sink;
    trace::MemorySink msink(sink);
    hw::SwitchParams p;
    p.bandwidth = 1e6;
    p.mtu = 1000;
    p.buffer_frames = 1;
    p.retry_timeout = 0.2;
    p.max_retries = 0;
    hw::SwitchPort port(engine, p, trace::NetworkRecord::Direction::kRx, &msink);
    int done = 0;
    for (int i = 0; i < 3; ++i)
        port.transfer(std::uint64_t(i), 10000, [&] { ++done; });
    engine.run();
    EXPECT_EQ(done, 3);
    EXPECT_EQ(port.completed(), 3u);
    EXPECT_GE(port.timeouts(), 1u);
    ASSERT_EQ(sink.network.size(), 3u);  // give-up transfer included
    bool saw_pathological = false;
    for (const auto& r : sink.network)
        if (r.latency >= p.retry_timeout) saw_pathological = true;
    EXPECT_TRUE(saw_pathological);
}

TEST(FailureCsv, RoundTripsThroughDisk) {
    trace::TraceSet ts;
    ts.failures.push_back({0.5, 0, 2, FailureRecord::Kind::kCrash, 0.0});
    ts.failures.push_back({1.25, 17, 1, FailureRecord::Kind::kFailover, 0.5});
    ts.failures.push_back(
        {2.0, kRepairRequestIdBase, 3, FailureRecord::Kind::kRepair, 0.125});
    const auto dir = fs::temp_directory_path() / "kooza_failures_csv";
    fs::create_directories(dir);
    trace::write_csv(ts, dir.string());
    const auto back = trace::read_csv(dir.string());
    fs::remove_all(dir);
    ASSERT_EQ(back.failures.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_DOUBLE_EQ(back.failures[i].time, ts.failures[i].time);
        EXPECT_EQ(back.failures[i].request_id, ts.failures[i].request_id);
        EXPECT_EQ(back.failures[i].server, ts.failures[i].server);
        EXPECT_EQ(back.failures[i].kind, ts.failures[i].kind);
        EXPECT_DOUBLE_EQ(back.failures[i].duration, ts.failures[i].duration);
    }
}

trace::TraceSet faulted_capture(std::uint64_t seed) {
    GfsConfig cfg;
    cfg.n_chunkservers = 4;
    cfg.replication = 2;
    cfg.seed = seed;
    cfg.faults.enabled = true;
    cfg.faults.mtbf = 8.0;
    cfg.faults.mttr = 3.0;
    cfg.faults.horizon = 25.0;
    Cluster cluster(cfg);
    sim::Rng rng(seed);
    workloads::MicroProfile profile({.count = 200, .arrival_rate = 10.0});
    profile.generate(rng).install(cluster);
    cluster.run();
    return cluster.traces();
}

std::string slurp_dir(const fs::path& dir) {
    std::vector<fs::path> files;
    for (const auto& e : fs::directory_iterator(dir)) files.push_back(e.path());
    std::sort(files.begin(), files.end());
    std::ostringstream all;
    for (const auto& f : files) {
        std::ifstream in(f, std::ios::binary);
        all << f.filename().string() << "\n" << in.rdbuf();
    }
    return all.str();
}

// DESIGN.md section 6 contract, extended to faults: the same seed yields
// the same fault plan and byte-identical trace CSVs at any thread count.
TEST(FaultDeterminism, TracesByteIdenticalAcrossThreadCounts) {
    struct ThreadGuard {
        ~ThreadGuard() { par::set_threads(0); }
    } guard;
    const auto base = fs::temp_directory_path();
    par::set_threads(1);
    const auto plan_1 = make_fault_plan({.mtbf = 8.0, .mttr = 3.0, .horizon = 25.0},
                                        4, 77);
    const auto dir_1 = base / "kooza_faults_det_t1";
    fs::create_directories(dir_1);
    trace::write_csv(faulted_capture(77), dir_1.string());

    par::set_threads(4);
    const auto plan_n = make_fault_plan({.mtbf = 8.0, .mttr = 3.0, .horizon = 25.0},
                                        4, 77);
    const auto dir_n = base / "kooza_faults_det_t4";
    fs::create_directories(dir_n);
    trace::write_csv(faulted_capture(77), dir_n.string());

    ASSERT_EQ(plan_1.size(), plan_n.size());
    for (std::size_t i = 0; i < plan_1.size(); ++i)
        EXPECT_DOUBLE_EQ(plan_1[i].time, plan_n[i].time);
    EXPECT_EQ(slurp_dir(dir_1), slurp_dir(dir_n));
    fs::remove_all(dir_1);
    fs::remove_all(dir_n);
}

TEST(Characterize, ReportsDegradedModeActivity) {
    GfsConfig cfg;
    cfg.n_chunkservers = 3;
    cfg.replication = 2;
    Cluster cluster(cfg);
    const FileId f = cluster.create_file("f", 64ull << 20);
    cluster.inject_faults({FaultEvent{0.05, 0, true}, FaultEvent{4.0, 0, false}});
    for (int i = 0; i < 8; ++i)
        cluster.submit({.time = 0.1 + double(i) * 0.2, .file = f, .offset = 0,
                        .size = 4096, .type = IoType::kRead});
    cluster.run();
    const auto report = core::characterize(cluster.traces());
    EXPECT_EQ(report.crashes, 1u);
    EXPECT_EQ(report.recoveries, 1u);
    EXPECT_GE(report.failovers, 1u);
    EXPECT_GT(report.mean_failover_wait, 0.0);
    EXPECT_DOUBLE_EQ(report.request_success_rate, 1.0);
    EXPECT_NE(report.to_string().find("faults:"), std::string::npos);
    // A healthy capture keeps the section out of the report.
    Cluster healthy(GfsConfig{});
    const FileId healthy_f = healthy.create_file("f", 64ull << 20);
    for (int i = 0; i < 8; ++i)
        healthy.submit({.time = double(i) * 0.2, .file = healthy_f, .offset = 0,
                        .size = 4096, .type = IoType::kRead});
    healthy.run();
    const auto clean = core::characterize(healthy.traces());
    EXPECT_EQ(clean.to_string().find("faults:"), std::string::npos);
}

// Satellite regression: the fault horizon used to be derived from the
// last arrival (`last + 1.0`), so any request whose service drained past
// that cutoff ran on an artificially fault-free cluster. With
// FaultConfig::horizon == 0 the injector follows the run to drain:
// crashes must keep landing while a slow tail request is still in
// flight, well past where the old horizon would have stopped.
TEST(FaultDrain, LazyFaultsFollowSlowTailPastOldHorizon) {
    GfsConfig cfg;
    cfg.n_chunkservers = 4;
    cfg.replication = 2;
    cfg.seed = 91;
    cfg.faults.enabled = true;
    cfg.faults.mtbf = 1.5;
    cfg.faults.mttr = 0.5;
    cfg.faults.horizon = 0.0;  // drain-following lazy mode
    Cluster cluster(cfg);
    const FileId f = cluster.create_file("f", 512ull << 20);
    // A few quick reads, then one 256 MB multi-chunk write whose transfer
    // alone keeps the cluster draining for a couple of simulated seconds
    // after the final arrival.
    for (int i = 0; i < 4; ++i)
        cluster.submit({.time = 0.1 * double(i + 1), .file = f, .offset = 0,
                        .size = 4096, .type = IoType::kRead});
    const double last_arrival = 0.5;
    cluster.submit({.time = last_arrival, .file = f, .offset = 64ull << 20,
                    .size = 256ull << 20, .type = IoType::kWrite});
    cluster.run();

    const double old_horizon = last_arrival + 1.0;
    EXPECT_GT(cluster.engine().now(), old_horizon);  // the tail really is slow
    ASSERT_NE(cluster.fault_injector(), nullptr);
    EXPECT_GT(cluster.fault_injector()->crashes(), 0u);
    const auto ts = cluster.traces();
    bool crash_past_old_horizon = false;
    for (const auto& f : ts.failures)
        if (f.kind == FailureRecord::Kind::kCrash && f.time > old_horizon)
            crash_past_old_horizon = true;
    EXPECT_TRUE(crash_past_old_horizon);
    // Every submitted request resolved one way or the other; the lazy
    // daemon chain itself never keeps the engine alive.
    EXPECT_EQ(cluster.completed() + cluster.failed_requests(), 5u);
}

// Three replicas on four servers: every crash re-replicates 64 MiB
// chunks, and those copies used to be still running when the next crash
// fired, so run() never saw zero live events and the capture ran
// forever. Lazy faults now stop once the input has ended and the last
// client request has finished; repairs already under way drain. The
// binary's ctest TIMEOUT turns a regression into a failure.
TEST(FaultDrain, ReplicatedFaultedCaptureTerminates) {
    core::CaptureOptions opts;
    opts.profile = "oltp";
    opts.count = 300;
    opts.seed = 7;
    opts.n_servers = 4;
    opts.replication = 3;
    opts.fault_rate = 0.1;
    opts.mttr = 1.0;
    const auto res = core::run_capture(opts);
    EXPECT_EQ(res.completed + res.failed, 300u);
    EXPECT_GT(res.crashes, 0u);
}

// The same configuration installed as a whole Workload: install() ends
// the cluster's input, so the lazy fault chains stop once the last
// request has settled. run_until bounds the run, so an input that never
// ends shows as crashes after the last request instead of a hang.
TEST(FaultDrain, InstalledWorkloadStopsFaultsAfterLastRequest) {
    GfsConfig cfg;
    cfg.n_chunkservers = 4;
    cfg.replication = 3;
    cfg.seed = 7;
    cfg.faults.enabled = true;
    cfg.faults.mtbf = 10.0;
    cfg.faults.mttr = 1.0;
    cfg.faults.horizon = 0.0;
    Cluster cluster(cfg);
    workloads::OltpProfile({.count = 300, .base_rate = 20.0})
        .generate(sim::Rng(7))
        .install(cluster);
    cluster.engine().run_until(200.0);
    ASSERT_EQ(cluster.completed() + cluster.failed_requests(), 300u);
    ASSERT_GT(cluster.fault_injector()->crashes(), 0u);
    const auto ts = cluster.traces();
    double last_settled = 0.0;
    for (const auto& r : ts.requests) last_settled = std::max(last_settled, r.completion);
    for (const auto& f : ts.failures)
        if (f.kind == FailureRecord::Kind::kRequestFailed)
            last_settled = std::max(last_settled, f.time);
    std::size_t late_crashes = 0;
    for (const auto& f : ts.failures)
        if (f.kind == FailureRecord::Kind::kCrash && f.time > last_settled) ++late_crashes;
    EXPECT_EQ(late_crashes, 0u) << "last request settled at " << last_settled;
}

}  // namespace
