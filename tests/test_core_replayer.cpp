// Tests for the replayer: structured vs independent modes, trace output,
// incast behaviour, phase handling, the arrival pump, and the interned
// phase orders replay reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/replayer.hpp"
#include "digest.hpp"
#include "obs/metrics.hpp"
#include "par/pool.hpp"
#include "stats/descriptive.hpp"
#include "trace/features.hpp"

namespace {

using namespace kooza::core;
using kooza::testutil::Fnv;
using kooza::trace::IoType;

SyntheticRequest basic_read(double t) {
    SyntheticRequest r;
    r.time = t;
    r.type = IoType::kRead;
    r.network_bytes = 65536;
    r.cpu_busy_seconds = 0.0002;
    r.memory_bytes = 16384;
    r.memory_type = IoType::kRead;
    r.bank = 1;
    r.storage_bytes = 65536;
    r.storage_type = IoType::kRead;
    r.lbn = 4096;
    r.phases = {"net.rx",  "cpu.verify",    "mem.buffer",
                "disk.io", "cpu.aggregate", "net.tx"};
    return r;
}

SyntheticWorkload workload_of(std::vector<SyntheticRequest> rs) {
    SyntheticWorkload w;
    w.model_name = "test";
    w.requests = std::move(rs);
    return w;
}

TEST(Replayer, StructuredProducesFullTraces) {
    Replayer rep;
    const auto res = rep.replay(workload_of({basic_read(0.0)}));
    ASSERT_EQ(res.latencies.size(), 1u);
    EXPECT_GT(res.latencies[0], 0.0);
    EXPECT_EQ(res.traces.requests.size(), 1u);
    EXPECT_EQ(res.traces.storage.size(), 1u);
    EXPECT_EQ(res.traces.cpu.size(), 2u);  // verify + aggregate
    EXPECT_EQ(res.traces.memory.size(), 1u);
    EXPECT_EQ(res.traces.network.size(), 1u);  // read payload on net.tx
    EXPECT_EQ(res.unknown_phases, 0u);
}

TEST(Replayer, FeatureProjectionMatchesInput) {
    Replayer rep;
    const auto res = rep.replay(workload_of({basic_read(0.0)}));
    const auto fs = kooza::trace::extract_features(res.traces);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].network_bytes, 65536u);
    EXPECT_EQ(fs[0].storage_bytes, 65536u);
    EXPECT_EQ(fs[0].memory_bytes, 16384u);
    EXPECT_EQ(fs[0].first_lbn, 4096u);
    EXPECT_EQ(fs[0].first_bank, 1u);
}

TEST(Replayer, IndependentFasterThanStructured) {
    // Serial phases must take at least as long as the max single phase.
    std::vector<SyntheticRequest> rs;
    for (int i = 0; i < 50; ++i) rs.push_back(basic_read(double(i) * 0.05));
    Replayer rep;
    const auto structured = rep.replay(workload_of(rs), ReplayMode::kStructured);
    const auto independent = rep.replay(workload_of(rs), ReplayMode::kIndependent);
    EXPECT_LT(kooza::stats::mean(independent.latencies),
              kooza::stats::mean(structured.latencies));
}

TEST(Replayer, EmptyPhasesFallBackToIndependent) {
    auto r = basic_read(0.0);
    r.phases = {};
    Replayer rep;
    const auto res = rep.replay(workload_of({r}), ReplayMode::kStructured);
    ASSERT_EQ(res.latencies.size(), 1u);
    EXPECT_GT(res.latencies[0], 0.0);
}

TEST(Replayer, UnknownPhasesCountedAndSkipped) {
    auto r = basic_read(0.0);
    r.phases = {"warp.drive", "disk.io"};
    Replayer rep;
    const auto res = rep.replay(workload_of({r}));
    EXPECT_EQ(res.unknown_phases, 1u);
    EXPECT_EQ(res.traces.storage.size(), 1u);
}

TEST(Replayer, WritePathRecordsRxPayload) {
    auto r = basic_read(0.0);
    r.type = IoType::kWrite;
    r.storage_type = IoType::kWrite;
    r.memory_type = IoType::kWrite;
    Replayer rep;
    const auto res = rep.replay(workload_of({r}));
    ASSERT_EQ(res.traces.network.size(), 1u);
    EXPECT_EQ(res.traces.network[0].direction,
              kooza::trace::NetworkRecord::Direction::kRx);
}

TEST(Replayer, ReplForwardUsesSecondServerDisk) {
    auto r = basic_read(0.0);
    r.type = IoType::kWrite;
    r.storage_type = IoType::kWrite;
    r.phases = {"net.rx", "disk.io", "repl.forward", "net.tx"};
    ReplayConfig cfg;
    cfg.n_servers = 2;
    Replayer rep(cfg);
    const auto res = rep.replay(workload_of({r}));
    EXPECT_EQ(res.traces.storage.size(), 2u);   // primary + replica write
    EXPECT_EQ(res.traces.network.size(), 2u);   // rx payload + forward
}

TEST(Replayer, ReplForwardSharesTheByteBudgets) {
    // A replicated write's features already sum the replica's share: the
    // forward hop and the replica write spend part of the request's
    // network and storage bytes, not a second copy of them.
    auto r = basic_read(0.0);
    r.type = IoType::kWrite;
    r.storage_type = IoType::kWrite;
    r.network_bytes = 2 << 20;
    r.storage_bytes = 2 << 20;
    r.phases = {"net.rx", "disk.io", "repl.forward", "net.tx"};
    ReplayConfig cfg;
    cfg.n_servers = 2;
    const auto res = Replayer(cfg).replay(workload_of({r}));
    const auto fs = kooza::trace::extract_features(res.traces);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].network_bytes, 2u << 20);
    EXPECT_EQ(fs[0].storage_bytes, 2u << 20);
}

TEST(Replayer, MasterLookupPhaseSupported) {
    auto r = basic_read(0.0);
    r.phases = {"master.lookup", "net.rx",        "cpu.verify", "mem.buffer",
                "disk.io",       "cpu.aggregate", "net.tx"};
    Replayer rep;
    const auto res = rep.replay(workload_of({r}));
    EXPECT_EQ(res.unknown_phases, 0u);
}

TEST(Replayer, LbnAndBankClamped) {
    auto r = basic_read(0.0);
    r.lbn = ~0ull;  // beyond any disk
    r.bank = 1000;
    Replayer rep;
    EXPECT_NO_THROW(rep.replay(workload_of({r})));
}

TEST(Replayer, IncastDropsGrowWithFanIn) {
    // Many servers respond to one client at the same instant.
    auto run = [](std::size_t n_servers) {
        std::vector<SyntheticRequest> rs;
        for (std::size_t i = 0; i < n_servers; ++i) {
            auto r = basic_read(0.0);
            r.network_bytes = 256 << 10;
            r.phases = {"net.tx"};
            r.server = std::uint32_t(i);
            rs.push_back(r);
        }
        ReplayConfig cfg;
        cfg.n_servers = n_servers;
        cfg.net.buffer_frames = 8;
        cfg.net.retry_timeout = 0.05;
        Replayer rep(cfg);
        return rep.replay(workload_of(rs)).network_drops;
    };
    EXPECT_EQ(run(2), 0u);
    EXPECT_GT(run(64), 0u);
}

TEST(Replayer, Validation) {
    Replayer rep;
    EXPECT_THROW(rep.replay(SyntheticWorkload{}), std::invalid_argument);
    ReplayConfig bad;
    bad.n_servers = 0;
    EXPECT_THROW(Replayer{bad}, std::invalid_argument);
    ReplayConfig bad2;
    bad2.cpu_verify_fraction = 1.5;
    EXPECT_THROW(Replayer{bad2}, std::invalid_argument);
}

TEST(Replayer, RepeatedPhasesSplitTheByteBudget) {
    // A chunk-boundary write has two disk.io phases; the request's bytes
    // must be split across them, not executed twice.
    auto r = basic_read(0.0);
    r.type = IoType::kWrite;
    r.storage_type = IoType::kWrite;
    r.storage_bytes = 4 << 20;
    r.network_bytes = 4 << 20;
    r.memory_bytes = 256 << 10;
    r.phases = {"net.rx",  "net.rx",  "cpu.verify", "mem.buffer", "disk.io",
                "cpu.verify", "mem.buffer", "disk.io", "cpu.aggregate", "net.tx"};
    Replayer rep;
    const auto res = rep.replay(workload_of({r}));
    const auto fs = kooza::trace::extract_features(res.traces);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].storage_bytes, 4u << 20);   // 2 x 2 MB, not 2 x 4 MB
    EXPECT_EQ(fs[0].network_bytes, 4u << 20);
    EXPECT_EQ(fs[0].memory_bytes, 256u << 10);
    EXPECT_EQ(res.traces.storage.size(), 2u);
    EXPECT_EQ(res.traces.storage[0].size_bytes, 2u << 20);
}

TEST(Replayer, RepeatedCpuPhasesSplitBusyTime) {
    auto r = basic_read(0.0);
    r.cpu_busy_seconds = 0.004;
    r.phases = {"cpu.verify", "cpu.verify", "cpu.aggregate", "cpu.aggregate"};
    Replayer rep;  // verify fraction 0.4
    const auto res = rep.replay(workload_of({r}));
    const auto fs = kooza::trace::extract_features(res.traces);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_NEAR(fs[0].cpu_busy_seconds, 0.004, 1e-12);
    ASSERT_EQ(res.traces.cpu.size(), 4u);
    EXPECT_NEAR(res.traces.cpu[0].busy_seconds, 0.4 * 0.004 / 2.0, 1e-12);
    EXPECT_NEAR(res.traces.cpu[2].busy_seconds, 0.6 * 0.004 / 2.0, 1e-12);
}

TEST(Replayer, SinglePhaseKeepsFullBudget) {
    auto r = basic_read(0.0);
    r.phases = {"disk.io"};
    Replayer rep;
    const auto res = rep.replay(workload_of({r}));
    ASSERT_EQ(res.traces.storage.size(), 1u);
    EXPECT_EQ(res.traces.storage[0].size_bytes, 65536u);
}

TEST(Replayer, ReportsUtilizationAndDuration) {
    std::vector<SyntheticRequest> rs;
    for (int i = 0; i < 40; ++i) rs.push_back(basic_read(double(i) * 0.02));
    Replayer rep;
    const auto res = rep.replay(workload_of(rs));
    EXPECT_GT(res.duration, 0.0);
    EXPECT_GT(res.mean_disk_utilization, 0.0);
    EXPECT_LE(res.mean_disk_utilization, 1.0);
    EXPECT_GT(res.mean_cpu_utilization, 0.0);
    EXPECT_LE(res.mean_cpu_utilization, 1.0);
    // Disk dominates this workload.
    EXPECT_GT(res.mean_disk_utilization, res.mean_cpu_utilization);
}

TEST(Replayer, DeterministicAcrossRuns) {
    std::vector<SyntheticRequest> rs;
    for (int i = 0; i < 20; ++i) rs.push_back(basic_read(double(i) * 0.01));
    Replayer rep;
    const auto a = rep.replay(workload_of(rs));
    const auto b = rep.replay(workload_of(rs));
    ASSERT_EQ(a.latencies.size(), b.latencies.size());
    for (std::size_t i = 0; i < a.latencies.size(); ++i)
        EXPECT_DOUBLE_EQ(a.latencies[i], b.latencies[i]);
}

TEST(Replayer, RejectsArrivalTimesNoEngineCanSchedule) {
    // Checked before the arrivals are ordered: a NaN would break the sort.
    ReplayConfig cfg;
    cfg.n_servers = 2;
    const Replayer rep(cfg);
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -0.5,
                             std::numeric_limits<double>::infinity()}) {
        auto w = workload_of({basic_read(0.0), basic_read(bad), basic_read(0.1)});
        w.requests[1].server = 1;
        EXPECT_THROW((void)rep.replay(w), std::invalid_argument) << bad;
        EXPECT_THROW((void)rep.replay_sharded(w), std::invalid_argument) << bad;
    }
}

TEST(ReplayerPump, PendingEventsStayAtInFlight) {
    // Arrivals are pumped one at a time, so the engine holds the requests
    // in flight plus one arrival, not the whole workload. Each engine sets
    // the depth gauge to its own peak when run() exits.
    std::vector<SyntheticRequest> rs;
    for (int i = 0; i < 20000; ++i) {
        auto r = basic_read(double(i) * 0.01);
        if (i % 4 == 0) r.type = r.storage_type = r.memory_type = IoType::kWrite;
        rs.push_back(r);
    }
    const auto res = Replayer().replay(workload_of(std::move(rs)));
    ASSERT_EQ(res.latencies.size(), 20000u);
    EXPECT_LT(kooza::obs::gauge("sim.engine.queue_depth_peak").value(), 64.0);
}

TEST(ReplayerPump, DeviceStepEndingAtAnArrivalRunsFirst) {
    // A's CPU step is scheduled at t = 0 and ends at exactly 0.25 s, B's
    // arrival time. B's arrival is scheduled later, when C arrives at
    // 0.1 s. Events at one instant dispatch in scheduling order, so A's
    // step runs first and A completes (through its zero-delay unknown
    // phase) before B. An up-front schedule ran B's arrival first, and B
    // completed before A.
    ReplayConfig cfg;
    cfg.cpu_verify_fraction = 0.5;
    auto request = [](double t, std::vector<std::string> phases) {
        auto r = basic_read(t);
        r.cpu_busy_seconds = 0.5;  // a 0.25 s cpu.verify burst
        r.phases = PhaseOrder(phases);
        return r;
    };
    const auto res = Replayer(cfg).replay(workload_of({
        request(0.0, {"cpu.verify", "warp.drive"}),  // A
        request(0.1, {"warp.drive"}),                // C
        request(0.25, {"warp.drive"}),               // B
    }));
    EXPECT_EQ(res.latencies, (std::vector<double>{0.0, 0.25, 0.0}));
}

/// Everything a replay writes: latencies in completion order, every
/// record of every stream in stored order, and the run totals.
std::uint64_t digest(const ReplayResult& res) {
    Fnv d;
    for (double l : res.latencies) d.add(l);
    const auto& t = res.traces;
    for (const auto& x : t.requests) {
        d.add(x.request_id); d.add(x.type); d.add(x.arrival);
        d.add(x.completion); d.add(x.bytes);
    }
    for (const auto& x : t.storage) {
        d.add(x.time); d.add(x.request_id); d.add(x.lbn);
        d.add(x.size_bytes); d.add(x.type); d.add(x.latency);
    }
    for (const auto& x : t.cpu) {
        d.add(x.time); d.add(x.request_id); d.add(x.busy_seconds);
        d.add(x.utilization);
    }
    for (const auto& x : t.memory) {
        d.add(x.time); d.add(x.request_id); d.add(x.bank);
        d.add(x.size_bytes); d.add(x.type);
    }
    for (const auto& x : t.network) {
        d.add(x.time); d.add(x.request_id); d.add(x.size_bytes);
        d.add(x.direction); d.add(x.latency);
    }
    d.add(t.spans.size()); d.add(t.failures.size());
    d.add(res.network_drops); d.add(res.network_timeouts);
    d.add(res.unknown_phases); d.add(res.duration);
    d.add(res.mean_cpu_utilization); d.add(res.mean_disk_utilization);
    return d.value();
}

/// Reads and writes on two servers, overlapping so the devices queue:
/// every executable phase but repl.forward, master.lookup on both
/// servers, one unknown phase name and one empty phase list.
SyntheticWorkload pinned_workload() {
    std::vector<SyntheticRequest> rs;
    auto add = [&](double t, IoType type, std::uint32_t server,
                   std::vector<std::string> phases) {
        auto r = basic_read(t);
        r.type = r.storage_type = r.memory_type = type;
        if (type == IoType::kWrite) {
            r.network_bytes = r.storage_bytes = 1 << 20;
            r.memory_bytes = 64 << 10;
            r.cpu_busy_seconds = 0.001;
        }
        r.lbn = 4096 * (rs.size() * 37 % 11);
        r.bank = std::uint32_t(rs.size() % 5);
        r.server = server;
        r.phases = PhaseOrder(phases);
        rs.push_back(r);
    };
    const std::vector<std::string> read = {"net.rx",  "cpu.verify",    "mem.buffer",
                                           "disk.io", "cpu.aggregate", "net.tx"};
    auto with_lookup = [](std::vector<std::string> p) {
        p.insert(p.begin(), "master.lookup");
        return p;
    };
    add(0.0, IoType::kRead, 0, with_lookup(read));
    add(0.0005, IoType::kWrite, 1, with_lookup(read));
    add(0.001, IoType::kRead, 1,
        {"net.rx", "warp.drive", "cpu.verify", "disk.io", "net.tx"});
    add(0.001, IoType::kWrite, 0, {});
    add(0.002, IoType::kWrite, 0,
        {"net.rx", "net.rx", "cpu.verify", "mem.buffer", "disk.io", "disk.io",
         "cpu.aggregate", "net.tx"});
    add(0.0025, IoType::kRead, 1, with_lookup(read));
    for (int k = 0; k < 8; ++k)
        add(0.003 + 0.0002 * k, k % 3 == 0 ? IoType::kWrite : IoType::kRead,
            std::uint32_t(k % 2), read);
    return workload_of(std::move(rs));
}

TEST(Replayer, ReplayDigestPinned) {
    // Pins every byte a replay writes against a recorded constant, so a
    // rewrite of the replayer must reproduce its predecessor exactly.
    const auto w = pinned_workload();
    ReplayConfig cfg;
    cfg.n_servers = 2;
    const Replayer rep(cfg);
    using enum ReplayMode;
    EXPECT_EQ(digest(rep.replay(w, kStructured)), 0xf96b853adb221d49ull);
    EXPECT_EQ(digest(rep.replay(w, kIndependent)), 0xcc30eef856abe096ull);
    EXPECT_EQ(digest(rep.replay_sharded(w, kStructured)), 0x0cd72834c12e231full);
    EXPECT_EQ(digest(rep.replay_sharded(w, kIndependent)), 0xba55fb2d90d6d3a9ull);
}

TEST(PhaseOrder, InternsNamesAndPhaseIds) {
    const PhaseOrder a{"net.rx", "warp.drive", "disk.io"};
    const std::vector<std::string> names{"net.rx", "warp.drive", "disk.io"};
    EXPECT_EQ(a, PhaseOrder(names));
    EXPECT_EQ(std::vector<std::string>(a.begin(), a.end()), names);
    using kooza::gfs::Phase;
    EXPECT_EQ(std::vector<Phase>(a.ids().begin(), a.ids().end()),
              (std::vector<Phase>{Phase::kNetRx, Phase::kUnknown, Phase::kDiskIo}));
    EXPECT_FALSE(a == (PhaseOrder{"net.rx", "disk.io"}));
    EXPECT_EQ(PhaseOrder{}, PhaseOrder(std::vector<std::string>{}));
    EXPECT_TRUE(PhaseOrder().empty());
    EXPECT_EQ(PhaseOrder().ids().size(), 0u);
    const std::string bytes("nul\0and\xff", 8);
    EXPECT_EQ(*PhaseOrder{bytes}.begin(), bytes);
}

TEST(PhaseOrder, ConcurrentInterningAgrees) {
    // Four pool tasks intern the same 300 orders, each starting at another
    // one, and read every name back while the others insert.
    constexpr std::size_t kTasks = 4;
    constexpr std::size_t kOrders = 300;
    auto names = [](std::size_t i) {
        return std::vector<std::string>{"net.rx", "order." + std::to_string(i),
                                        i % 2 == 0 ? "disk.io" : "warp.drive"};
    };
    kooza::par::set_threads(kTasks);
    std::vector<std::vector<PhaseOrder>> got(kTasks, std::vector<PhaseOrder>(kOrders));
    std::vector<std::size_t> misread(kTasks, 0);
    kooza::par::pool().parallel_for(kTasks, [&](std::size_t task) {
        for (std::size_t k = 0; k < kOrders; ++k) {
            const std::size_t i = (k + task * kOrders / kTasks) % kOrders;
            const auto want = names(i);
            got[task][i] = PhaseOrder(want);
            const PhaseOrder& order = got[task][i];
            if (!std::equal(order.begin(), order.end(), want.begin(), want.end()))
                ++misread[task];
        }
    });
    kooza::par::set_threads(0);
    EXPECT_EQ(misread, std::vector<std::size_t>(kTasks, 0));
    using kooza::gfs::Phase;
    for (std::size_t i = 0; i < kOrders; ++i) {
        const PhaseOrder again(names(i));
        for (std::size_t task = 0; task < kTasks; ++task)
            EXPECT_EQ(got[task][i], again) << "order " << i << ", task " << task;
        ASSERT_EQ(again.ids().size(), 3u);
        EXPECT_EQ(again.ids()[1], Phase::kUnknown);
        EXPECT_EQ(again.ids()[2], i % 2 == 0 ? Phase::kDiskIo : Phase::kUnknown);
    }
}

}  // namespace
