// kooza_obs: registry semantics, export round-trips, and the determinism
// contract — the same work exports a byte-identical snapshot at any
// thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/capture.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "stats/descriptive.hpp"

namespace {

using namespace kooza;

TEST(Counter, AddAndReset) {
    obs::Registry reg;
    auto& c = reg.counter("c");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, TracksValueAndMax) {
    obs::Registry reg;
    auto& g = reg.gauge("g");
    g.set(3.0);
    g.set(7.0);
    g.set(2.0);
    EXPECT_DOUBLE_EQ(g.value(), 2.0);   // last write
    EXPECT_DOUBLE_EQ(g.max(), 7.0);     // high-water mark survives
    g.add(-1.0);
    EXPECT_DOUBLE_EQ(g.value(), 1.0);
    g.reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    EXPECT_DOUBLE_EQ(g.max(), 0.0);
}

TEST(Histogram, Log2Buckets) {
    EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
    EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
    EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
    EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
    EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
    EXPECT_EQ(obs::Histogram::bucket_of(1ull << 63), 64u);
    EXPECT_EQ(obs::Histogram::bucket_of(std::numeric_limits<std::uint64_t>::max()), 64u);

    obs::Registry reg;
    auto& h = reg.histogram("h");
    h.observe(0);
    h.observe(3);
    h.observe(3);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 6u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.bucket(2), 0u);
}

TEST(Histogram, ObserveSecondsConvertsAndClamps) {
    obs::Registry reg;
    auto& h = reg.histogram("h", obs::Unit::kNanoseconds);
    h.observe_seconds(1.5);    // 1.5e9 ns
    h.observe_seconds(-0.25);  // negative clamps to 0
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.sum(), 1500000000u);
    EXPECT_EQ(h.bucket(0), 1u);
}

TEST(Histogram, ObserveSecondsSaturates) {
    // 2^64 ns is about 584 years: infinity and anything at or above it
    // land in the top bucket, not in bucket 0 through an undefined cast.
    obs::Registry reg;
    auto& h = reg.histogram("sat", obs::Unit::kNanoseconds);
    h.observe_seconds(std::numeric_limits<double>::infinity());
    h.observe_seconds(1e300);
    h.observe_seconds(2e10);
    EXPECT_EQ(h.bucket(64), 3u);
    EXPECT_EQ(h.bucket(0), 0u);
    h.observe_seconds(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(h.bucket(0), 1u);
}

TEST(TimerScope, SimClockScopesNest) {
    obs::Registry reg;
    auto& h = reg.histogram("t", obs::Unit::kNanoseconds);
    double now = 0.0;
    const auto clock = [&now] { return now; };
    {
        obs::TimerScope outer(h, clock);
        now = 1.0;
        {
            obs::TimerScope inner(h, clock);
            now = 1.5;
        }  // inner spans 0.5 s
        now = 2.0;
    }  // outer spans 2.0 s
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.sum(), 500000000u + 2000000000u);
}

TEST(Registry, FindOrCreateIsIdempotent) {
    obs::Registry reg;
    auto& a = reg.counter("x.total");
    auto& b = reg.counter("x.total");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(reg.size(), 1u);
    // Same name, different kind: a programming error, not a new metric.
    EXPECT_THROW((void)reg.gauge("x.total"), std::logic_error);
    EXPECT_THROW((void)reg.histogram("x.total"), std::logic_error);
}

TEST(Registry, SnapshotSortedByName) {
    obs::Registry reg;
    reg.counter("b").add(2);
    reg.counter("a").add(1);
    reg.gauge("c").set(3.0);
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.metrics.size(), 3u);
    EXPECT_EQ(snap.metrics[0].name, "a");
    EXPECT_EQ(snap.metrics[1].name, "b");
    EXPECT_EQ(snap.metrics[2].name, "c");
    ASSERT_NE(snap.find("b"), nullptr);
    EXPECT_EQ(snap.find("b")->value, 2u);
    EXPECT_EQ(snap.find("nope"), nullptr);
}

TEST(Registry, ResetKeepsReferencesValid) {
    obs::Registry reg;
    auto& c = reg.counter("c");
    c.add(5);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    c.add(1);  // cached reference still live after reset
    EXPECT_EQ(reg.snapshot().find("c")->value, 1u);
}

TEST(HistogramQuantile, EdgeCases) {
    obs::Registry reg;
    auto& h = reg.histogram("hq.edge");
    {
        const auto snap = reg.snapshot();
        EXPECT_DOUBLE_EQ(obs::histogram_quantile(*snap.find("hq.edge"), 0.5), 0.0);
    }
    h.observe(0);
    h.observe(0);
    {
        // Bucket 0 holds exactly the value 0 — no interpolation to do.
        const auto snap = reg.snapshot();
        EXPECT_DOUBLE_EQ(obs::histogram_quantile(*snap.find("hq.edge"), 0.99), 0.0);
    }
    h.observe(1000);  // bucket [512, 1024)
    const auto snap = reg.snapshot();
    const auto& m = *snap.find("hq.edge");
    // Out-of-range q clamps instead of misindexing.
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(m, -1.0),
                     obs::histogram_quantile(m, 0.0));
    EXPECT_DOUBLE_EQ(obs::histogram_quantile(m, 2.0),
                     obs::histogram_quantile(m, 1.0));
    // The top rank interpolates inside [512, 1024), never past the bucket
    // edge (the old estimator pinned every answer to the upper edge).
    const double p100 = obs::histogram_quantile(m, 1.0);
    EXPECT_GE(p100, 512.0);
    EXPECT_LE(p100, 1024.0);
    // Quantiles are nondecreasing in q.
    double prev = 0.0;
    for (double q : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
        const double v = obs::histogram_quantile(m, q);
        EXPECT_GE(v, prev) << q;
        prev = v;
    }
}

TEST(HistogramQuantile, CrossChecksExactSampleWithinOneBucket) {
    // Feed the identical deterministic stream into a log2 histogram and
    // an exact sample, then compare quantile estimates. A log2 bucket
    // spans a factor of 2, so the interpolated estimate must land within
    // [exact/2, exact*2] — and typically much closer on dense data like
    // this.
    obs::Registry reg;
    auto& h = reg.histogram("hq.cross");
    std::vector<double> exact;
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 5000; ++i) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        const std::uint64_t v = 1 + s % 1'000'000;
        h.observe(v);
        exact.push_back(double(v));
    }
    const auto snap = reg.snapshot();
    const auto& m = *snap.find("hq.cross");
    ASSERT_EQ(m.count, 5000u);
    for (double q : {0.01, 0.1, 0.5, 0.9, 0.95, 0.99}) {
        const double est = obs::histogram_quantile(m, q);
        const double ex = stats::quantile(exact, q);
        EXPECT_GE(est, ex / 2.0) << "q=" << q;
        EXPECT_LE(est, ex * 2.0) << "q=" << q;
    }
}

// Fixed total work split across T threads; integer shard merges commute,
// so every T must export byte-identical canonical JSON.
std::string json_after_work(unsigned n_threads) {
    obs::Registry reg;
    auto& ops = reg.counter("t.ops_total");
    auto& bytes = reg.counter("t.bytes_total", obs::Unit::kBytes);
    auto& lat = reg.histogram("t.latency_ns", obs::Unit::kNanoseconds);
    constexpr unsigned kTotal = 8000;
    const unsigned per_thread = kTotal / n_threads;
    // Each thread takes a disjoint slice of the same global index range,
    // so the multiset of observed samples is independent of n_threads.
    auto work = [&](unsigned t) {
        for (unsigned i = t * per_thread; i < (t + 1) * per_thread; ++i) {
            ops.add();
            bytes.add(512);
            lat.observe(i % 17);
        }
    };
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < n_threads; ++t) threads.emplace_back(work, t);
    for (auto& t : threads) t.join();
    return obs::to_json(reg.snapshot());
}

TEST(Determinism, ByteIdenticalJsonAcrossThreadCounts) {
    const auto one = json_after_work(1);
    EXPECT_EQ(one, json_after_work(2));
    EXPECT_EQ(one, json_after_work(8));
}

TEST(Export, WallMetricsExcludable) {
    obs::Registry reg;
    reg.counter("sim.steps").add(3);
    reg.histogram("train.wall_ns", obs::Unit::kNanoseconds, /*wall=*/true)
        .observe(100);
    const auto snap = reg.snapshot();
    const auto full = obs::to_json(snap);
    EXPECT_NE(full.find("train.wall_ns"), std::string::npos);
    const auto det = obs::to_json(snap, {.include_wall = false});
    EXPECT_EQ(det.find("train.wall_ns"), std::string::npos);
    EXPECT_NE(det.find("sim.steps"), std::string::npos);
}

TEST(Export, JsonAndCsvRoundTrip) {
    obs::Registry reg;
    reg.counter("rt.ops_total").add(7);
    reg.counter("rt.bytes_total", obs::Unit::kBytes).add(4096);
    auto& g = reg.gauge("rt.depth");
    g.set(5.0);
    g.set(2.5);
    auto& h = reg.histogram("rt.latency_ns", obs::Unit::kNanoseconds);
    h.observe(0);
    h.observe(1000);
    h.observe(1000000);
    const auto snap = reg.snapshot();

    const auto dir = std::filesystem::temp_directory_path() / "kooza_obs_rt";
    std::filesystem::remove_all(dir);
    for (const char* name : {"m.json", "m.csv"}) {
        obs::write_metrics(snap, dir / name);
        const auto back = obs::load_metrics(dir / name);
        ASSERT_EQ(back.metrics.size(), snap.metrics.size()) << name;
        const auto* c = back.find("rt.bytes_total");
        ASSERT_NE(c, nullptr);
        EXPECT_EQ(c->value, 4096u);
        EXPECT_EQ(c->unit, obs::Unit::kBytes);
        const auto* gg = back.find("rt.depth");
        ASSERT_NE(gg, nullptr);
        EXPECT_DOUBLE_EQ(gg->gauge_value, 2.5);
        EXPECT_DOUBLE_EQ(gg->gauge_max, 5.0);
        const auto* hh = back.find("rt.latency_ns");
        ASSERT_NE(hh, nullptr);
        EXPECT_EQ(hh->count, 3u);
        EXPECT_EQ(hh->sum, 1001000u);
        EXPECT_EQ(hh->buckets, snap.find("rt.latency_ns")->buckets);
        // Loading must preserve the canonical form exactly.
        EXPECT_EQ(obs::to_json(back), obs::to_json(snap)) << name;
    }
    std::filesystem::remove_all(dir);
}

TEST(Export, LoadRejectsMalformedInput) {
    const auto dir = std::filesystem::temp_directory_path() / "kooza_obs_bad";
    std::filesystem::create_directories(dir);
    {
        std::ofstream f(dir / "bad.json");
        f << "{ \"schema\": \"other/9\" }";
    }
    EXPECT_THROW((void)obs::load_metrics(dir / "bad.json"), std::runtime_error);
    EXPECT_THROW((void)obs::load_metrics(dir / "missing.json"), std::runtime_error);
    std::filesystem::remove_all(dir);
}

// End-to-end: one capture run must register metrics from every layer the
// export contract names — sim engine, hw devices, gfs, core pipeline.
TEST(Integration, CaptureCoversAllSubsystems) {
    core::CaptureOptions opts;
    opts.profile = "micro";
    opts.count = 50;
    opts.seed = 3;
    opts.n_servers = 2;
    const auto res = core::run_capture(opts);
    EXPECT_GT(res.completed, 0u);

    const auto snap = obs::Registry::global().snapshot();
    auto covered = [&](const std::string& prefix) {
        for (const auto& m : snap.metrics)
            if (m.name.rfind(prefix, 0) == 0 &&
                (m.value > 0 || m.count > 0 || m.gauge_max > 0))
                return true;
        return false;
    };
    EXPECT_TRUE(covered("sim."));
    EXPECT_TRUE(covered("hw."));
    EXPECT_TRUE(covered("gfs."));
    EXPECT_TRUE(covered("core.capture."));
}

// Regression: core.capture.requests_total used to count only completed
// requests, undercounting under fault injection. The invariant is
// requests_total delta == completed + failed for every capture run.
TEST(Integration, CaptureRequestsTotalCountsFailedRequests) {
    auto value_of = [](const char* name) -> std::uint64_t {
        const auto snap = obs::Registry::global().snapshot();
        const auto* m = snap.find(name);
        return m != nullptr ? m->value : 0;
    };
    const auto req_before = value_of("core.capture.requests_total");
    const auto failed_before = value_of("core.capture.failed_requests_total");

    core::CaptureOptions opts;
    opts.profile = "micro";
    opts.count = 300;
    opts.rate = 50.0;
    opts.seed = 9;
    opts.n_servers = 3;
    opts.replication = 2;
    opts.fault_rate = 0.5;
    opts.mttr = 2.0;
    const auto res = core::run_capture(opts);
    EXPECT_GT(res.completed, 0u);
    // This seed loses some requests to crashes; without failures the
    // invariant below would degenerate to the old completed-only count.
    EXPECT_GT(res.failed, 0u);
    EXPECT_EQ(value_of("core.capture.requests_total") - req_before,
              res.completed + res.failed);
    EXPECT_EQ(value_of("core.capture.failed_requests_total") - failed_before,
              res.failed);
}

}  // namespace
