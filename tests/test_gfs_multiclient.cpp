// Multi-client cluster tests: per-client response ports, contention
// between clients, and fairness of the shared chunkserver.
#include <gtest/gtest.h>

#include "gfs/cluster.hpp"
#include "stats/descriptive.hpp"
#include "trace/features.hpp"

namespace {

using namespace kooza::gfs;
using kooza::trace::IoType;

GfsConfig one_server() {
    GfsConfig cfg;
    cfg.n_chunkservers = 1;
    return cfg;
}

TEST(MultiClient, RequestsFromAllClientsComplete) {
    Cluster cluster(one_server(), /*n_clients=*/3);
    const FileId f = cluster.create_file("f", 64ull << 20);
    for (int i = 0; i < 30; ++i)
        cluster.submit({.time = double(i) * 0.05, .file = f,
                        .offset = std::uint64_t(i) * 65536, .size = 4096,
                        .type = IoType::kRead,
                        .client = std::uint32_t(i % 3)});
    cluster.run();
    EXPECT_EQ(cluster.completed(), 30u);
    EXPECT_EQ(cluster.traces().requests.size(), 30u);
}

TEST(MultiClient, UnknownClientRejected) {
    Cluster cluster(one_server(), 2);
    const FileId f = cluster.create_file("f", 1u << 20);
    EXPECT_THROW(cluster.submit({.time = 0.0, .file = f, .offset = 0, .size = 4096,
                                 .type = IoType::kRead, .client = 5}),
                 std::invalid_argument);
}

TEST(MultiClient, EachClientCachesLocationsIndependently) {
    // Both clients' FIRST requests pay the master lookup; their second
    // requests do not — caches are per client.
    Cluster cluster(one_server(), 2);
    const FileId f = cluster.create_file("f", 64ull << 20);
    std::vector<std::uint64_t> ids;
    for (std::uint32_t c = 0; c < 2; ++c)
        for (int i = 0; i < 2; ++i)
            ids.push_back(cluster.submit({.time = double(ids.size()), .file = f,
                                          .offset = 0, .size = 4096,
                                          .type = IoType::kRead, .client = c}));
    cluster.run();
    const auto ts = cluster.traces();
    auto has_lookup = [&](std::uint64_t id) {
        kooza::trace::SpanTree tree(ts.spans, id);
        for (const auto& name : tree.phase_sequence())
            if (name == "master.lookup") return true;
        return false;
    };
    EXPECT_TRUE(has_lookup(ids[0]));   // client 0, first
    EXPECT_FALSE(has_lookup(ids[1]));  // client 0, second
    EXPECT_TRUE(has_lookup(ids[2]));   // client 1, first — its own cache
    EXPECT_FALSE(has_lookup(ids[3]));
}

TEST(MultiClient, ContentionRaisesLatency) {
    // The same request stream split across 4 clients still contends on
    // the single chunkserver; concurrent bursts are slower than serial.
    auto run = [](double gap) {
        Cluster cluster(one_server(), 4);
        const FileId f = cluster.create_file("f", 64ull << 20);
        for (int i = 0; i < 16; ++i)
            cluster.submit({.time = double(i) * gap, .file = f,
                            .offset = std::uint64_t(i) * (1u << 20),
                            .size = 1u << 20, .type = IoType::kRead,
                            .client = std::uint32_t(i % 4)});
        cluster.run();
        return kooza::stats::mean(cluster.latencies());
    };
    EXPECT_GT(run(0.0), 2.0 * run(1.0));  // burst vs spread-out
}

TEST(MultiClient, ResponsesLandOnIssuersPort) {
    // With two clients reading concurrently, both see their own
    // completions: per-request records exist for every id and each
    // client's failed count is zero.
    Cluster cluster(one_server(), 2);
    const FileId f = cluster.create_file("f", 64ull << 20);
    for (int i = 0; i < 10; ++i)
        cluster.submit({.time = 0.0, .file = f,
                        .offset = std::uint64_t(i) * (1u << 20), .size = 1u << 20,
                        .type = IoType::kRead, .client = std::uint32_t(i % 2)});
    cluster.run();
    EXPECT_EQ(cluster.completed(), 10u);
    EXPECT_EQ(cluster.client(0).failed_requests(), 0u);
    EXPECT_EQ(cluster.client(1).failed_requests(), 0u);
    const auto fs = kooza::trace::extract_features(cluster.traces());
    EXPECT_EQ(fs.size(), 10u);
}

}  // namespace
