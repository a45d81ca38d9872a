// Tests for the workload profile generators.
#include <gtest/gtest.h>

#include <map>

#include "gfs/cluster.hpp"
#include "workloads/profiles.hpp"

namespace {

using namespace kooza::workloads;
using kooza::sim::Rng;
using kooza::trace::IoType;

template <typename P>
Workload gen(const P& profile, std::uint64_t seed = 1) {
    Rng rng(seed);
    return profile.generate(rng);
}

void expect_within_files(const Workload& w) {
    for (const auto& r : w.requests) {
        ASSERT_LT(r.file, w.files.size());
        const auto& [name, size] = w.files[r.file];
        EXPECT_LE(r.offset + r.size, size) << name;
        EXPECT_GT(r.size, 0u);
        EXPECT_GE(r.time, 0.0);
    }
}

void expect_sorted(const Workload& w) {
    for (std::size_t i = 1; i < w.requests.size(); ++i)
        EXPECT_GE(w.requests[i].time, w.requests[i - 1].time);
}

TEST(Micro, GeneratesRequestedCount) {
    MicroProfile p({.count = 100});
    const auto w = gen(p);
    EXPECT_EQ(w.requests.size(), 100u);
    expect_within_files(w);
    expect_sorted(w);
}

TEST(Micro, SizesMatchTypes) {
    MicroProfile p({.count = 200, .read_size = 1024, .write_size = 2048});
    for (const auto& r : gen(p).requests) {
        if (r.type == IoType::kRead)
            EXPECT_EQ(r.size, 1024u);
        else
            EXPECT_EQ(r.size, 2048u);
    }
}

TEST(Micro, ReadFractionRespected) {
    MicroProfile p({.count = 2000, .read_fraction = 0.8});
    std::size_t reads = 0;
    for (const auto& r : gen(p).requests)
        if (r.type == IoType::kRead) ++reads;
    EXPECT_NEAR(double(reads) / 2000.0, 0.8, 0.05);
}

TEST(Micro, SequentialModeAdvances) {
    MicroProfile p({.count = 10, .read_fraction = 1.0, .sequential = true});
    const auto w = gen(p);
    for (std::size_t i = 1; i < w.requests.size(); ++i)
        EXPECT_GT(w.requests[i].offset, w.requests[i - 1].offset);
}

TEST(Micro, ArrivalRateApproximate) {
    MicroProfile p({.count = 2000, .arrival_rate = 50.0});
    const auto w = gen(p);
    const double span = w.requests.back().time - w.requests.front().time;
    EXPECT_NEAR(2000.0 / span, 50.0, 5.0);
}

TEST(Oltp, PageSizedAccesses) {
    OltpProfile p({.count = 500});
    const auto w = gen(p);
    expect_within_files(w);
    for (const auto& r : w.requests)
        EXPECT_TRUE(r.size == 4096 || r.size == 8192 || r.size == 16384);
}

TEST(Oltp, MostlyReads) {
    OltpProfile p({.count = 2000, .read_fraction = 0.7});
    std::size_t reads = 0;
    for (const auto& r : gen(p).requests)
        if (r.type == IoType::kRead) ++reads;
    EXPECT_NEAR(double(reads) / 2000.0, 0.7, 0.05);
}

TEST(Oltp, BurstyArrivals) {
    OltpProfile p({.count = 5000});
    const auto w = gen(p);
    std::vector<double> gaps;
    for (std::size_t i = 1; i < w.requests.size(); ++i)
        gaps.push_back(w.requests[i].time - w.requests[i - 1].time);
    // MMPP gaps have CV > 1 (Poisson would be ~1).
    double m = 0.0, s2 = 0.0;
    for (double g : gaps) m += g;
    m /= double(gaps.size());
    for (double g : gaps) s2 += (g - m) * (g - m);
    s2 /= double(gaps.size());
    EXPECT_GT(std::sqrt(s2) / m, 1.1);
}

TEST(WebSearch, ZipfPopularitySkew) {
    WebSearchProfile p({.count = 5000, .shards = 16});
    const auto w = gen(p);
    std::map<std::string, int> hits;
    for (const auto& r : w.requests) ++hits[w.files.at(r.file).first];
    EXPECT_GT(hits["shard.0"], hits["shard.15"] * 2);
}

TEST(WebSearch, ReadDominant) {
    WebSearchProfile p({.count = 3000});
    std::size_t reads = 0;
    const auto w = gen(p);
    for (const auto& r : w.requests)
        if (r.type == IoType::kRead) ++reads;
    EXPECT_GT(double(reads) / double(w.requests.size()), 0.97);
    expect_within_files(w);
    expect_sorted(w);
}

TEST(Streaming, SequentialSegmentsPerSession) {
    StreamingProfile p({.sessions = 5, .mean_segments = 10});
    const auto w = gen(p);
    expect_within_files(w);
    expect_sorted(w);
    for (const auto& r : w.requests) EXPECT_EQ(r.type, IoType::kRead);
}

TEST(Streaming, SegmentsUniformSize) {
    StreamingProfile::Params params;
    params.sessions = 10;
    StreamingProfile p(params);
    for (const auto& r : gen(p).requests) EXPECT_EQ(r.size, params.segment);
}

TEST(LogAppend, AllAppendWrites) {
    LogAppendProfile p({.count = 300, .logs = 3});
    const auto w = gen(p);
    EXPECT_EQ(w.requests.size(), 300u);
    expect_sorted(w);
    for (const auto& r : w.requests) {
        EXPECT_TRUE(r.append);
        EXPECT_EQ(r.type, IoType::kWrite);
        EXPECT_GE(r.size, 512u);
    }
    EXPECT_EQ(w.files.size(), 3u);
}

TEST(LogAppend, RunsOnCluster) {
    kooza::gfs::GfsConfig cfg;
    kooza::gfs::Cluster cluster(cfg);
    LogAppendProfile p({.count = 100});
    gen(p).install(cluster);
    cluster.run();
    EXPECT_EQ(cluster.completed(), 100u);
    // The logs grew beyond their initial size.
    EXPECT_GT(cluster.master().file_size(*cluster.master().find("log.0")), 1ull << 20);
}

TEST(Workload, InstallRunsOnCluster) {
    kooza::gfs::GfsConfig cfg;
    kooza::gfs::Cluster cluster(cfg);
    MicroProfile p({.count = 20});
    gen(p).install(cluster);
    cluster.run();
    EXPECT_EQ(cluster.completed(), 20u);
}

TEST(Workload, DeterministicPerSeed) {
    MicroProfile p({.count = 50});
    const auto a = gen(p, 9);
    const auto b = gen(p, 9);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.requests[i].time, b.requests[i].time);
        EXPECT_EQ(a.requests[i].offset, b.requests[i].offset);
    }
}

}  // namespace
