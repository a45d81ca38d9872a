// Tests for model persistence: distribution round-trips across every
// family, and the strong end-to-end property that a saved+loaded model
// generates the *identical* synthetic workload for the same seed.
#include <gtest/gtest.h>

#include <filesystem>
#include <regex>
#include <sstream>
#include <utility>

#include "core/generator.hpp"
#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "gfs/cluster.hpp"
#include "stats/empirical.hpp"
#include "workloads/profiles.hpp"

namespace {

using namespace kooza;
using namespace kooza::core;

std::unique_ptr<stats::Distribution> roundtrip(const stats::Distribution& d) {
    std::stringstream ss;
    save_distribution(d, ss);
    return load_distribution(ss);
}

class DistributionRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(DistributionRoundTrip, PreservesFamilyAndMoments) {
    std::unique_ptr<stats::Distribution> d;
    const auto which = GetParam();
    if (which == "deterministic") d = std::make_unique<stats::Deterministic>(3.5);
    if (which == "uniform") d = std::make_unique<stats::Uniform>(1.0, 9.0);
    if (which == "exponential") d = std::make_unique<stats::Exponential>(2.5);
    if (which == "normal") d = std::make_unique<stats::Normal>(10.0, 2.0);
    if (which == "lognormal") d = std::make_unique<stats::LogNormal>(1.0, 0.5);
    if (which == "pareto") d = std::make_unique<stats::Pareto>(2.0, 3.0);
    if (which == "weibull") d = std::make_unique<stats::Weibull>(1.5, 4.0);
    if (which == "gamma") d = std::make_unique<stats::Gamma>(3.0, 2.0);
    if (which == "empirical") {
        const std::vector<double> xs{1.0, 2.0, 2.0, 5.5, 9.25};
        d = std::make_unique<stats::Empirical>(xs);
    }
    ASSERT_NE(d, nullptr);
    const auto back = roundtrip(*d);
    EXPECT_EQ(back->name(), d->name());
    EXPECT_NEAR(back->mean(), d->mean(), 1e-9 * std::max(1.0, std::fabs(d->mean())));
    EXPECT_NEAR(back->cdf(3.0), d->cdf(3.0), 1e-12);
    // Sampling determinism: same seed, same values.
    sim::Rng a(5), b(5);
    for (int i = 0; i < 20; ++i)
        EXPECT_DOUBLE_EQ(back->sample(a), d->sample(b));
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, DistributionRoundTrip,
                         ::testing::Values("deterministic", "uniform", "exponential",
                                           "normal", "lognormal", "pareto", "weibull",
                                           "gamma", "empirical"),
                         [](const auto& info) { return info.param; });

ServerModel train_micro(std::uint64_t seed) {
    gfs::GfsConfig cfg;
    gfs::Cluster cluster(cfg);
    sim::Rng rng(seed);
    workloads::MicroProfile profile({.count = 250, .arrival_rate = 20.0});
    profile.generate(rng).install(cluster);
    cluster.run();
    return Trainer({.workload_name = "serialize-test"}).train(cluster.traces());
}

TEST(ModelRoundTrip, PreservesStructureAndScalars) {
    const auto model = train_micro(1);
    std::stringstream ss;
    save_model(model, ss);
    const auto back = load_model(ss);
    EXPECT_EQ(back.workload_name(), model.workload_name());
    EXPECT_DOUBLE_EQ(back.read_fraction(), model.read_fraction());
    EXPECT_DOUBLE_EQ(back.cpu_verify_fraction(), model.cpu_verify_fraction());
    EXPECT_EQ(back.lbn_states().n_states(), model.lbn_states().n_states());
    EXPECT_EQ(back.bank_states().n_states(), model.bank_states().n_states());
    EXPECT_EQ(back.reads().structure.dominant(), model.reads().structure.dominant());
    EXPECT_EQ(back.writes().structure.variants().size(),
              model.writes().structure.variants().size());
    EXPECT_EQ(back.parameter_count(), model.parameter_count());
    EXPECT_EQ(back.arrivals().describe(), model.arrivals().describe());
}

TEST(ModelRoundTrip, GeneratesIdenticalWorkload) {
    const auto model = train_micro(2);
    std::stringstream ss;
    save_model(model, ss);
    const auto back = load_model(ss);
    sim::Rng a(7), b(7);
    const auto w1 = Generator(model).generate(200, a);
    const auto w2 = Generator(back).generate(200, b);
    ASSERT_EQ(w1.requests.size(), w2.requests.size());
    for (std::size_t i = 0; i < w1.requests.size(); ++i) {
        EXPECT_DOUBLE_EQ(w1.requests[i].time, w2.requests[i].time);
        EXPECT_EQ(w1.requests[i].type, w2.requests[i].type);
        EXPECT_EQ(w1.requests[i].storage_bytes, w2.requests[i].storage_bytes);
        EXPECT_EQ(w1.requests[i].memory_bytes, w2.requests[i].memory_bytes);
        EXPECT_EQ(w1.requests[i].lbn, w2.requests[i].lbn);
        EXPECT_EQ(w1.requests[i].bank, w2.requests[i].bank);
        EXPECT_DOUBLE_EQ(w1.requests[i].cpu_busy_seconds,
                         w2.requests[i].cpu_busy_seconds);
        EXPECT_EQ(w1.requests[i].phases, w2.requests[i].phases);
    }
}

TEST(ModelRoundTrip, FileBacked) {
    const auto model = train_micro(3);
    const auto file = std::filesystem::temp_directory_path() / "kooza_model_test.txt";
    save_model(model, file);
    const auto back = load_model(file);
    EXPECT_EQ(back.workload_name(), model.workload_name());
    std::filesystem::remove(file);
    EXPECT_THROW((void)load_model(file), std::runtime_error);
}

TEST(ModelRoundTrip, MalformedInputRejected) {
    std::stringstream empty;
    EXPECT_THROW((void)load_model(empty), std::runtime_error);
    std::stringstream wrong("other-format v9");
    EXPECT_THROW((void)load_model(wrong), std::runtime_error);
    std::stringstream truncated("kooza-model v1\nname x\nread_fraction 0.5\n");
    EXPECT_THROW((void)load_model(truncated), std::runtime_error);
}

TEST(ModelRoundTrip, HostileCountsRejected) {
    // Counts in a model file are untrusted: a huge, negative or junk-
    // suffixed count is a malformed model, never an allocation attempt.
    std::stringstream ss;
    save_model(train_micro(4), ss);
    const std::string text = ss.str();
    const std::pair<const char*, const char*> mutations[] = {
        {R"(chain \d+)", "chain 4611686018427387904"},
        {R"(chain \d+)", "chain -1"},
        {R"(empirical \d+)", "empirical 4611686018427387904"},
        {R"(arrivals [^\n]*)", "arrivals trace 4611686018427387904"},
        {R"(types \d)", "types 1x"},
    };
    for (const auto& [pattern, replacement] : mutations) {
        SCOPED_TRACE(replacement);
        const auto mutated = std::regex_replace(text, std::regex(pattern), replacement,
                                                std::regex_constants::format_first_only);
        ASSERT_NE(mutated, text);
        std::stringstream in(mutated);
        EXPECT_THROW((void)load_model(in), std::runtime_error);
    }
}

TEST(ModelRoundTrip, FeatureTablesMustAgreeAcrossStates) {
    // A chain keeps one [state][feature] table, so every state of a
    // loaded chain must name the same features; a state that repeats
    // another's line in place of its own is rejected on load, not when a
    // request first reaches it.
    std::stringstream ss;
    save_model(train_micro(5), ss);
    const std::string text = ss.str();
    const auto mutated = std::regex_replace(text, std::regex("feature 1 size"),
                                            "feature 1 sizf",
                                            std::regex_constants::format_first_only);
    ASSERT_NE(mutated, text);
    std::stringstream in(mutated);
    EXPECT_THROW((void)load_model(in), std::invalid_argument);

    // Consistent but without the CPU busy-time feature the generator
    // reads: the model loads, and the model walk is refused when it is
    // built, before any request is drawn.
    std::stringstream renamed(
        std::regex_replace(text, std::regex(R"((feature \d+) busy)"), "$1 idle"));
    const auto model = load_model(renamed);
    sim::Rng rng(1);
    EXPECT_THROW((void)Generator(model).generate(10, rng), std::out_of_range);
}

TEST(DistributionSerialize, UnknownFamilyRejected) {
    std::stringstream ss("dist klingon 1 2 3");
    EXPECT_THROW((void)load_distribution(ss), std::runtime_error);
}

}  // namespace
