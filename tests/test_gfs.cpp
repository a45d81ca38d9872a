// Tests for the GFS simulator: master placement, request execution paths
// (Fig. 1 of the paper), trace emission, replication and location caching.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>

#include "gfs/cluster.hpp"
#include "gfs/master.hpp"
#include "trace/features.hpp"

namespace {

using namespace kooza::gfs;
using kooza::trace::IoType;
using kooza::trace::SpanTree;

TEST(Master, PlacesChunksRoundRobin) {
    Master m(4, 1, 1 << 20);
    const FileId a = m.create_file("a", 4u << 20);  // 4 chunks
    const auto chunks = m.chunks(a);
    ASSERT_EQ(chunks.size(), 4u);
    std::set<std::uint32_t> servers;
    for (const auto& c : chunks) servers.insert(c.servers.at(0));
    EXPECT_EQ(servers.size(), 4u);  // spread across all servers
}

TEST(Master, ReplicationDistinctServers) {
    Master m(4, 3, 1 << 20);
    const FileId a = m.create_file("a", 1u << 20);
    const auto& loc = m.lookup(a, 0);
    std::set<std::uint32_t> reps(loc.servers.begin(), loc.servers.end());
    EXPECT_EQ(reps.size(), 3u);
}

TEST(Master, ReplicationClampedToServers) {
    Master m(2, 3, 1 << 20);
    EXPECT_EQ(m.replication(), 2u);
}

TEST(Master, LookupByOffset) {
    Master m(2, 1, 1 << 20);
    const FileId a = m.create_file("a", 3u << 20);
    const auto& c0 = m.lookup(a, 0);
    const auto& c2 = m.lookup(a, (2u << 20) + 5);
    EXPECT_NE(c0.handle, c2.handle);
    EXPECT_THROW((void)m.lookup(a, 3u << 20), std::out_of_range);
    EXPECT_THROW((void)m.lookup(a + 1, 0), std::invalid_argument);
}

TEST(Master, DuplicateAndEmptyFilesRejected) {
    Master m(1, 1, 1 << 20);
    const FileId a = m.create_file("a", 100);
    EXPECT_THROW(m.create_file("a", 100), std::invalid_argument);
    EXPECT_THROW(m.create_file("b", 0), std::invalid_argument);
    EXPECT_EQ(m.find("a"), a);
    EXPECT_FALSE(m.find("b"));
    EXPECT_EQ(m.file_size(a), 100u);
}

TEST(Master, RepairsPlannedInNameOrder) {
    // Files are numbered in creation order, but repairs are planned in
    // (name, chunk index) order: each planned task advances the repair
    // cursor, so the walk order decides every destination.
    Master m(3, 2, 1 << 20);
    const FileId b = m.create_file("b", 2u << 20);  // handles 0, 1
    const FileId a = m.create_file("a", 2u << 20);  // handles 2, 3
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(a, 1u);
    m.mark_server_down(0);
    const auto tasks = m.plan_repairs();
    ASSERT_EQ(tasks.size(), 3u);
    const ChunkHandle handles[] = {2, 3, 0};
    const std::uint32_t dests[] = {1, 2, 2};
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        EXPECT_EQ(tasks[i].handle, handles[i]) << i;
        EXPECT_EQ(tasks[i].dest, dests[i]) << i;
        EXPECT_EQ(tasks[i].dead, 0u) << i;
    }
}

GfsConfig small_config() {
    GfsConfig cfg;
    cfg.n_chunkservers = 1;
    cfg.chunk_size = 64ull << 20;
    return cfg;
}

TEST(Cluster, ReadProducesExpectedRecords) {
    Cluster cluster(small_config());
    const FileId f = cluster.create_file("f", 64ull << 20);
    cluster.submit({.time = 0.0, .file = f, .offset = 0, .size = 65536,
                    .type = IoType::kRead});
    cluster.run();
    const auto ts = cluster.traces();
    ASSERT_EQ(ts.requests.size(), 1u);
    const auto fs = kooza::trace::extract_features(ts);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].network_bytes, 65536u);          // response payload
    EXPECT_EQ(fs[0].storage_bytes, 65536u);          // one disk read
    EXPECT_EQ(fs[0].storage_type, IoType::kRead);
    EXPECT_EQ(fs[0].memory_bytes, 65536u >> 2);      // cfg.mem_shift_read = 2
    EXPECT_EQ(fs[0].memory_type, IoType::kRead);
    EXPECT_GT(fs[0].latency, 0.0);
    EXPECT_GT(fs[0].cpu_utilization, 0.0);
    EXPECT_LT(fs[0].cpu_utilization, 0.2);
}

TEST(Cluster, WriteProducesExpectedRecords) {
    Cluster cluster(small_config());
    const FileId f = cluster.create_file("f", 64ull << 20);
    cluster.submit({.time = 0.0, .file = f, .offset = 0, .size = 4u << 20,
                    .type = IoType::kWrite});
    cluster.run();
    const auto fs = kooza::trace::extract_features(cluster.traces());
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].network_bytes, 4u << 20);
    EXPECT_EQ(fs[0].storage_bytes, 4u << 20);
    EXPECT_EQ(fs[0].storage_type, IoType::kWrite);
    EXPECT_EQ(fs[0].memory_bytes, (4u << 20) >> 4);  // cfg.mem_shift_write = 4
    EXPECT_EQ(fs[0].memory_type, IoType::kWrite);
}

TEST(Cluster, WriteSlowerThanReadOfSameSize) {
    // The write pays the inbound payload transfer; a read of equal size
    // pays it outbound — but the write also acks, so compare against read.
    Cluster cluster(small_config());
    const FileId f = cluster.create_file("f", 64ull << 20);
    cluster.submit({.time = 0.0, .file = f, .offset = 0, .size = 1u << 20,
                    .type = IoType::kRead});
    cluster.submit({.time = 1.0, .file = f, .offset = 0, .size = 1u << 20,
                    .type = IoType::kWrite});
    cluster.run();
    ASSERT_EQ(cluster.latencies().size(), 2u);
    EXPECT_GT(cluster.latencies()[1], 0.0);
}

TEST(Cluster, SpanTreeMatchesFigure1Path) {
    Cluster cluster(small_config());
    const FileId f = cluster.create_file("f", 64ull << 20);
    const auto id = cluster.submit({.time = 0.0, .file = f, .offset = 0,
                                    .size = 65536, .type = IoType::kRead});
    cluster.run();
    const auto ts = cluster.traces();
    SpanTree tree(ts.spans, id);
    const auto seq = tree.phase_sequence();
    // request, master.lookup (first access), then the Fig. 1 path.
    const std::vector<std::string> expected{
        "request", "master.lookup", "net.rx",        "cpu.verify",
        "mem.buffer", "disk.io",    "cpu.aggregate", "net.tx"};
    EXPECT_EQ(seq, expected);
}

TEST(Cluster, LocationCachingSkipsSecondLookup) {
    Cluster cluster(small_config());
    const FileId f = cluster.create_file("f", 64ull << 20);
    cluster.submit({.time = 0.0, .file = f, .offset = 0, .size = 4096,
                    .type = IoType::kRead});
    const auto second = cluster.submit({.time = 1.0, .file = f, .offset = 0,
                                        .size = 4096, .type = IoType::kRead});
    cluster.run();
    SpanTree tree(cluster.traces().spans, second);
    for (const auto& name : tree.phase_sequence())
        EXPECT_NE(name, "master.lookup");
}

TEST(Cluster, ReplicationWritesAllReplicas) {
    GfsConfig cfg;
    cfg.n_chunkservers = 3;
    cfg.replication = 3;
    Cluster cluster(cfg);
    const FileId f = cluster.create_file("f", 64ull << 20);
    cluster.submit({.time = 0.0, .file = f, .offset = 0, .size = 1u << 20,
                    .type = IoType::kWrite});
    cluster.run();
    const auto ts = cluster.traces();
    // Three disk writes (primary + 2 replicas).
    EXPECT_EQ(ts.storage.size(), 3u);
    for (const auto& r : ts.storage) EXPECT_EQ(r.type, IoType::kWrite);
    // Replication phases appear in the span tree.
    SpanTree tree(ts.spans, 0);
    std::size_t forwards = 0;
    for (const auto& name : tree.phase_sequence())
        if (name == "repl.forward") ++forwards;
    EXPECT_EQ(forwards, 2u);
}

TEST(Cluster, ReplicatedWriteSlowerThanUnreplicated) {
    auto run = [](std::size_t replication) {
        GfsConfig cfg;
        cfg.n_chunkservers = 3;
        cfg.replication = replication;
        Cluster cluster(cfg);
        const FileId f = cluster.create_file("f", 64ull << 20);
        cluster.submit({.time = 0.0, .file = f, .offset = 0, .size = 4u << 20,
                        .type = IoType::kWrite});
        cluster.run();
        return cluster.latencies().at(0);
    };
    EXPECT_GT(run(3), run(1) * 1.5);
}

TEST(Cluster, MultiChunkRequestFansOut) {
    GfsConfig cfg;
    cfg.n_chunkservers = 4;
    cfg.chunk_size = 1ull << 20;  // 1 MB chunks
    Cluster cluster(cfg);
    const FileId f = cluster.create_file("f", 16ull << 20);
    cluster.submit({.time = 0.0, .file = f, .offset = 0, .size = 4u << 20,
                    .type = IoType::kRead});
    cluster.run();
    const auto ts = cluster.traces();
    // 4 chunks touched -> 4 disk reads across servers.
    EXPECT_EQ(ts.storage.size(), 4u);
    ASSERT_EQ(ts.requests.size(), 1u);
    EXPECT_EQ(ts.requests[0].bytes, 4u << 20);
}

TEST(Cluster, SamplingReducesSpans) {
    auto run = [](std::uint64_t every) {
        auto cfg = small_config();
        cfg.span_sample_every = every;
        Cluster cluster(cfg);
        const FileId f = cluster.create_file("f", 64ull << 20);
        for (int i = 0; i < 20; ++i)
            cluster.submit({.time = double(i), .file = f, .offset = 0, .size = 4096,
                            .type = IoType::kRead});
        cluster.run();
        return cluster.traces().spans.size();
    };
    EXPECT_GT(run(1), run(10) * 5);
}

TEST(Cluster, RequestBeyondFileRejected) {
    Cluster cluster(small_config());
    const FileId f = cluster.create_file("f", 1u << 20);
    cluster.submit({.time = 0.0, .file = f, .offset = 0, .size = 2u << 20,
                    .type = IoType::kRead});
    EXPECT_THROW(cluster.run(), std::invalid_argument);
}

TEST(Cluster, CompletedCountsRequests) {
    Cluster cluster(small_config());
    const FileId f = cluster.create_file("f", 64ull << 20);
    for (int i = 0; i < 5; ++i)
        cluster.submit({.time = double(i) * 0.1, .file = f, .offset = 0,
                        .size = 4096, .type = IoType::kRead});
    cluster.run();
    EXPECT_EQ(cluster.completed(), 5u);
    EXPECT_EQ(cluster.latencies().size(), 5u);
}

TEST(Cluster, RefusedSubmitKeepsNoCallback) {
    // A time the engine refuses, or an unknown file, throws from submit()
    // and drops the callback there, and it takes no request id (end_input() counts
    // settled requests against the ids handed out); the cluster still
    // runs what it accepts.
    Cluster cluster(small_config());
    const FileId f = cluster.create_file("f", 64ull << 20);
    const auto held = std::make_shared<int>(0);
    for (const double t : {-1.0, std::numeric_limits<double>::quiet_NaN()})
        EXPECT_THROW(cluster.submit({.time = t, .file = f, .offset = 0, .size = 4096,
                                     .type = IoType::kRead},
                                    [held] { ++*held; }),
                     std::invalid_argument);
    // So does a file id the cluster never handed out.
    EXPECT_THROW(cluster.submit({.time = 0.0, .file = f + 1, .offset = 0, .size = 4096,
                                 .type = IoType::kRead},
                                [held] { ++*held; }),
                 std::invalid_argument);
    EXPECT_EQ(held.use_count(), 1);
    const auto id = cluster.submit({.time = 0.0, .file = f, .offset = 0, .size = 4096,
                                    .type = IoType::kRead},
                                   [held] { ++*held; });
    EXPECT_EQ(id, 0u);
    cluster.run();
    EXPECT_EQ(cluster.completed(), 1u);
    EXPECT_EQ(*held, 1);
}

TEST(Cluster, DiskSmallerThanAChunkRejected) {
    // Chunks sit on whole chunk-sized block ranges (gfs::chunk_base_lbn):
    // a disk below one chunk's blocks is refused by name at construction.
    GfsConfig cfg;
    cfg.n_chunkservers = 3;
    cfg.replication = 2;
    cfg.chunk_size = 1ull << 20;  // 2048 blocks of 512 bytes
    cfg.disk.lbn_count = 1000;
    try {
        Cluster cluster(cfg);
        ADD_FAILURE() << "a 1000-block disk was accepted for 2048-block chunks";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("disk.lbn_count"), std::string::npos) << what;
        EXPECT_NE(what.find("1000"), std::string::npos) << what;
        EXPECT_NE(what.find("2048"), std::string::npos) << what;
    }
    // A disk that holds exactly one chunk runs a repair.
    cfg.disk.lbn_count = 2048;
    Cluster cluster(cfg);
    cluster.create_file("f", 1ull << 20);
    cluster.inject_faults({{0.1, 0, true}});
    cluster.run();
    EXPECT_EQ(cluster.master().re_replications(), 1u);
}

TEST(FailureInjection, ReadFailsOverToReplica) {
    GfsConfig cfg;
    cfg.n_chunkservers = 3;
    cfg.replication = 3;
    Cluster cluster(cfg);
    const FileId f = cluster.create_file("f", 64ull << 20);
    // Fail the primary for chunk 0 (round-robin placement: server 0).
    cluster.server(0).set_failed(true);
    const auto id = cluster.submit({.time = 0.0, .file = f, .offset = 0,
                                    .size = 65536, .type = IoType::kRead});
    cluster.run();
    EXPECT_EQ(cluster.completed(), 1u);
    EXPECT_EQ(cluster.failed_requests(), 0u);
    // Failover timeout shows up in the latency and the span tree.
    EXPECT_GT(cluster.latencies().at(0), cfg.failover_timeout);
    SpanTree tree(cluster.traces().spans, id);
    bool saw_failover = false;
    for (const auto& name : tree.phase_sequence())
        if (name == "failover") saw_failover = true;
    EXPECT_TRUE(saw_failover);
}

TEST(FailureInjection, AllReplicasDownFailsRequest) {
    GfsConfig cfg;
    cfg.n_chunkservers = 2;
    cfg.replication = 2;
    Cluster cluster(cfg);
    const FileId f = cluster.create_file("f", 64ull << 20);
    cluster.server(0).set_failed(true);
    cluster.server(1).set_failed(true);
    cluster.submit({.time = 0.0, .file = f, .offset = 0, .size = 4096,
                    .type = IoType::kRead});
    cluster.run();
    EXPECT_EQ(cluster.completed(), 0u);
    EXPECT_EQ(cluster.failed_requests(), 1u);
    EXPECT_TRUE(cluster.traces().requests.empty());
}

TEST(FailureInjection, WritePromotesNewPrimary) {
    GfsConfig cfg;
    cfg.n_chunkservers = 3;
    cfg.replication = 3;
    Cluster cluster(cfg);
    const FileId f = cluster.create_file("f", 64ull << 20);
    cluster.server(0).set_failed(true);
    cluster.submit({.time = 0.0, .file = f, .offset = 0, .size = 1u << 20,
                    .type = IoType::kWrite});
    cluster.run();
    EXPECT_EQ(cluster.completed(), 1u);
    // Only the two healthy servers wrote.
    EXPECT_EQ(cluster.traces().storage.size(), 2u);
    EXPECT_EQ(cluster.server(0).disk().completed(), 0u);
}

TEST(FailureInjection, RecoveryRestoresService) {
    GfsConfig cfg;
    Cluster cluster(cfg);  // single server, replication 1
    const FileId f = cluster.create_file("f", 64ull << 20);
    cluster.server(0).set_failed(true);
    cluster.submit({.time = 0.0, .file = f, .offset = 0, .size = 4096,
                    .type = IoType::kRead});
    cluster.run();
    EXPECT_EQ(cluster.failed_requests(), 1u);
    cluster.server(0).set_failed(false);
    cluster.submit({.time = 10.0, .file = f, .offset = 0, .size = 4096,
                    .type = IoType::kRead});
    cluster.run();
    EXPECT_EQ(cluster.completed(), 1u);
}

TEST(Append, OffsetsAllocatedSequentially) {
    Master m(2, 1, 1 << 20);
    const FileId log_file = m.create_file("log", 1000);
    EXPECT_EQ(m.allocate_append(log_file, 500), 1000u);
    EXPECT_EQ(m.allocate_append(log_file, 500), 1500u);
    EXPECT_EQ(m.file_size(log_file), 2000u);
}

TEST(Append, PadsAtChunkBoundary) {
    Master m(2, 1, 1 << 20);
    // 100 bytes left in chunk 0.
    const FileId log_file = m.create_file("log", (1 << 20) - 100);
    // A 500-byte record can't straddle: it pads to chunk 1.
    EXPECT_EQ(m.allocate_append(log_file, 500), std::uint64_t(1 << 20));
    EXPECT_EQ(m.chunks(log_file).size(), 2u);
}

TEST(Append, GrowsChunkList) {
    Master m(4, 2, 1 << 20);
    const FileId log_file = m.create_file("log", 100);
    for (int i = 0; i < 5; ++i) (void)m.allocate_append(log_file, 512 << 10);
    EXPECT_GE(m.chunks(log_file).size(), 3u);
    for (const auto& loc : m.chunks(log_file)) EXPECT_EQ(loc.servers.size(), 2u);
}

TEST(Append, Validation) {
    Master m(1, 1, 1 << 20);
    const FileId log_file = m.create_file("log", 100);
    EXPECT_THROW((void)m.allocate_append(log_file, 0), std::invalid_argument);
    EXPECT_THROW((void)m.allocate_append(log_file, 2 << 20), std::invalid_argument);
    EXPECT_THROW((void)m.allocate_append(log_file + 1, 100), std::invalid_argument);
}

TEST(Append, ClusterAppendsAreWrites) {
    Cluster cluster(small_config());
    const FileId log_file = cluster.create_file("log", 4096);
    for (int i = 0; i < 5; ++i)
        cluster.submit({.time = double(i) * 0.1, .file = log_file, .offset = 0,
                        .size = 64u << 10, .type = IoType::kRead, .client = 0,
                        .append = true});
    cluster.run();
    EXPECT_EQ(cluster.completed(), 5u);
    const auto ts = cluster.traces();
    ASSERT_EQ(ts.storage.size(), 5u);
    // All writes, at strictly increasing LBNs (append locality).
    for (const auto& r : ts.storage) EXPECT_EQ(r.type, IoType::kWrite);
    std::vector<kooza::trace::StorageRecord> sorted = ts.storage;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.time < b.time; });
    for (std::size_t i = 1; i < sorted.size(); ++i)
        EXPECT_GT(sorted[i].lbn, sorted[i - 1].lbn);
}

TEST(Append, SequentialityBeatsRandomWrites) {
    // Appends land contiguously -> near-sequential disk service; random
    // writes of the same size pay seeks.
    auto mean_latency = [](bool append) {
        Cluster cluster(small_config());
        const FileId f = cluster.create_file("f", 64ull << 20);
        kooza::sim::Rng rng(7);
        for (int i = 0; i < 30; ++i) {
            RequestSpec r;
            r.time = double(i) * 0.5;
            r.file = f;
            r.size = 256u << 10;
            r.type = IoType::kWrite;
            if (append) {
                r.append = true;
            } else {
                r.offset = (std::uint64_t(rng.uniform(0.0, double(60ull << 20))) /
                            4096) *
                           4096;
            }
            cluster.submit(r);
        }
        cluster.run();
        double sum = 0.0;
        for (double l : cluster.latencies()) sum += l;
        return sum / double(cluster.latencies().size());
    };
    EXPECT_LT(mean_latency(true), mean_latency(false));
}

TEST(Cluster, DeterministicForSeed) {
    auto run = [] {
        Cluster cluster(small_config());
        const FileId f = cluster.create_file("f", 64ull << 20);
        for (int i = 0; i < 10; ++i)
            cluster.submit({.time = double(i) * 0.05, .file = f,
                            .offset = std::uint64_t(i) * 8192, .size = 4096,
                            .type = IoType::kRead});
        cluster.run();
        return cluster.latencies();
    };
    EXPECT_EQ(run(), run());
}

}  // namespace
