// Property-based sweeps: invariants that must hold for EVERY workload
// profile and seed — trace conservation, model well-formedness, generator
// output validity, replay accounting, and determinism. Parameterized over
// the profile x seed grid.
#include <gtest/gtest.h>

#include <memory>

#include "core/generator.hpp"
#include "core/replayer.hpp"
#include "core/trainer.hpp"
#include "gfs/cluster.hpp"
#include "trace/features.hpp"
#include "workloads/profiles.hpp"

namespace {

using namespace kooza;
using trace::IoType;

struct Case {
    std::string profile;
    std::uint64_t seed;
};

std::unique_ptr<workloads::Profile> make_profile(const std::string& name) {
    if (name == "micro")
        return std::make_unique<workloads::MicroProfile>(
            workloads::MicroProfile::Params{.count = 250, .arrival_rate = 20.0});
    if (name == "oltp")
        return std::make_unique<workloads::OltpProfile>(
            workloads::OltpProfile::Params{.count = 400, .base_rate = 30.0});
    if (name == "websearch")
        return std::make_unique<workloads::WebSearchProfile>(
            workloads::WebSearchProfile::Params{.count = 300, .arrival_rate = 30.0});
    if (name == "streaming")
        return std::make_unique<workloads::StreamingProfile>(
            workloads::StreamingProfile::Params{.sessions = 25});
    throw std::logic_error("unknown profile " + name);
}

class WorkloadProperty : public ::testing::TestWithParam<Case> {
protected:
    trace::TraceSet simulate() const {
        gfs::GfsConfig cfg;
        gfs::Cluster cluster(cfg);
        sim::Rng rng(GetParam().seed);
        make_profile(GetParam().profile)->generate(rng).install(cluster);
        cluster.run();
        n_submitted_ = cluster.completed();
        return cluster.traces();
    }
    mutable std::uint64_t n_submitted_ = 0;
};

TEST_P(WorkloadProperty, TraceConservation) {
    const auto ts = simulate();
    // Every completed request has end-to-end bytes covered by its records.
    const auto features = trace::extract_features(ts);
    ASSERT_EQ(features.size(), ts.requests.size());
    for (const auto& f : features) {
        EXPECT_GT(f.latency, 0.0);
        EXPECT_GT(f.network_bytes, 0u);
        EXPECT_GT(f.storage_bytes, 0u);
        EXPECT_GT(f.memory_bytes, 0u);
        EXPECT_GE(f.cpu_busy_seconds, 0.0);
        EXPECT_LE(f.cpu_utilization, 1.0 + 1e-9);
        // Payload accounting: the paper's request-size column equals the
        // storage traffic for GFS requests.
        EXPECT_EQ(f.network_bytes, f.storage_bytes);
    }
    // Span trees reassemble for every sampled trace.
    for (auto id : trace::SpanTree::trace_ids(ts.spans)) {
        trace::SpanTree tree(ts.spans, id);
        EXPECT_GT(tree.total_duration(), 0.0);
        for (const auto& s : tree.spans()) EXPECT_GE(s.duration(), 0.0);
    }
}

TEST_P(WorkloadProperty, TrainedModelWellFormed) {
    const auto ts = simulate();
    const auto model = core::Trainer().train(ts);
    // Chain rows must be stochastic for every trained sub-model.
    auto check_chain = [](const markov::MarkovChain& c) {
        for (std::size_t i = 0; i < c.n_states(); ++i) {
            double row = 0.0;
            for (std::size_t j = 0; j < c.n_states(); ++j) {
                EXPECT_GE(c.transition(i, j), 0.0);
                row += c.transition(i, j);
            }
            EXPECT_NEAR(row, 1.0, 1e-9);
        }
    };
    if (model.has_reads()) {
        check_chain(model.reads().storage.chain());
        check_chain(model.reads().memory.chain());
        check_chain(model.reads().cpu.chain());
    }
    if (model.has_writes()) check_chain(model.writes().storage.chain());
    // Structure-queue probabilities sum to 1.
    if (model.has_reads()) {
        double p = 0.0;
        for (const auto& v : model.reads().structure.variants()) p += v.probability;
        EXPECT_NEAR(p, 1.0, 1e-9);
    }
    EXPECT_GT(model.arrivals().mean_rate(), 0.0);
}

TEST_P(WorkloadProperty, GeneratedRequestsValid) {
    const auto ts = simulate();
    const auto model = core::Trainer().train(ts);
    sim::Rng rng(GetParam().seed + 1000);
    const auto w = core::Generator(model).generate(300, rng);
    double prev = -1.0;
    for (const auto& r : w.requests) {
        EXPECT_GE(r.time, prev);
        prev = r.time;
        EXPECT_GT(r.storage_bytes, 0u);
        EXPECT_GT(r.network_bytes, 0u);
        EXPECT_GT(r.memory_bytes, 0u);
        EXPECT_GE(r.cpu_busy_seconds, 0.0);
        EXPECT_FALSE(r.phases.empty());
        EXPECT_EQ(r.storage_type, r.type);
        EXPECT_LT(r.bank, model.bank_states().n_states());
    }
}

TEST_P(WorkloadProperty, ReplayAccountingConsistent) {
    const auto ts = simulate();
    const auto model = core::Trainer().train(ts);
    sim::Rng rng(GetParam().seed + 2000);
    const auto w = core::Generator(model).generate(200, rng);
    core::ReplayConfig rc;
    rc.cpu_verify_fraction = model.cpu_verify_fraction();
    core::Replayer rep(rc);
    const auto res = rep.replay(w);
    EXPECT_EQ(res.latencies.size(), w.requests.size());
    EXPECT_EQ(res.traces.requests.size(), w.requests.size());
    for (double l : res.latencies) EXPECT_GT(l, 0.0);
    EXPECT_EQ(res.unknown_phases, 0u);
    // Replayed features preserve the generated byte budgets.
    const auto fs = trace::extract_features(res.traces);
    std::uint64_t want = 0, got = 0;
    for (const auto& r : w.requests) want += r.storage_bytes;
    for (const auto& f : fs) got += f.storage_bytes;
    // Integer split across repeated phases can round down a few bytes.
    EXPECT_NEAR(double(got), double(want), double(want) * 0.001);
}

TEST_P(WorkloadProperty, EndToEndDeterminism) {
    const auto a = simulate();
    const auto b = simulate();
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.requests[i].arrival, b.requests[i].arrival);
        EXPECT_DOUBLE_EQ(a.requests[i].completion, b.requests[i].completion);
    }
}

std::vector<Case> grid() {
    std::vector<Case> out;
    for (const auto* p : {"micro", "oltp", "websearch", "streaming"})
        for (std::uint64_t seed : {11ull, 47ull})
            out.push_back({p, seed});
    return out;
}

INSTANTIATE_TEST_SUITE_P(ProfilesBySeeds, WorkloadProperty, ::testing::ValuesIn(grid()),
                         [](const auto& info) {
                             return info.param.profile + "_s" +
                                    std::to_string(info.param.seed);
                         });

}  // namespace
