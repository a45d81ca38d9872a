// Tests for Markov chains, discretizers, annotated chains and the
// hierarchical model.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "markov/annotated.hpp"
#include "markov/chain.hpp"
#include "markov/discretizer.hpp"
#include "markov/hierarchical.hpp"
#include "sim/rng.hpp"

namespace {

using namespace kooza::markov;
using kooza::sim::Rng;

TEST(MarkovChain, UniformDefault) {
    MarkovChain c(4);
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            EXPECT_DOUBLE_EQ(c.transition(i, j), 0.25);
}

TEST(MarkovChain, ExplicitMatrixValidated) {
    EXPECT_NO_THROW(MarkovChain({{0.5, 0.5}, {1.0, 0.0}}, {1.0, 0.0}));
    EXPECT_THROW(MarkovChain({{0.5, 0.6}, {1.0, 0.0}}, {1.0, 0.0}),
                 std::invalid_argument);
    EXPECT_THROW(MarkovChain({{0.5, 0.5}}, {1.0}), std::invalid_argument);
    EXPECT_THROW(MarkovChain({{-0.5, 1.5}, {1.0, 0.0}}, {1.0, 0.0}),
                 std::invalid_argument);
}

TEST(MarkovChain, FitRecoversTransitions) {
    // Deterministic cycle 0 -> 1 -> 2 -> 0.
    std::vector<std::vector<std::size_t>> seqs{{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}};
    const auto c = MarkovChain::fit(seqs, 3, /*alpha=*/0.0);
    EXPECT_DOUBLE_EQ(c.transition(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(c.transition(1, 2), 1.0);
    EXPECT_DOUBLE_EQ(c.transition(2, 0), 1.0);
}

TEST(MarkovChain, LaplaceSmoothingKeepsUnseenPossible) {
    std::vector<std::vector<std::size_t>> seqs{{0, 1, 0, 1}};
    const auto c = MarkovChain::fit(seqs, 3, 0.5);
    EXPECT_GT(c.transition(0, 2), 0.0);
    EXPECT_GT(c.transition(2, 0), 0.0);  // never-seen row becomes smoothed
}

TEST(MarkovChain, FitValidation) {
    std::vector<std::vector<std::size_t>> bad{{0, 5}};
    EXPECT_THROW(MarkovChain::fit(bad, 3), std::invalid_argument);
    std::vector<std::vector<std::size_t>> empty{};
    EXPECT_THROW(MarkovChain::fit(empty, 3), std::invalid_argument);
    std::vector<std::vector<std::size_t>> seqs{{0}};
    EXPECT_THROW(MarkovChain::fit(seqs, 3, -1.0), std::invalid_argument);
}

TEST(MarkovChain, SamplePathFollowsSupport) {
    MarkovChain c({{0.0, 1.0}, {1.0, 0.0}}, {1.0, 0.0});
    Rng rng(1);
    const auto path = c.sample_path(10, rng);
    for (std::size_t i = 0; i < path.size(); ++i) EXPECT_EQ(path[i], i % 2);
}

TEST(MarkovChain, SamplePathDeterministicBySeed) {
    std::vector<std::vector<std::size_t>> seqs{{0, 1, 2, 1, 0, 2, 2, 1}};
    const auto c = MarkovChain::fit(seqs, 3);
    Rng a(9), b(9);
    EXPECT_EQ(c.sample_path(50, a), c.sample_path(50, b));
}

TEST(MarkovChain, LogLikelihoodOrdersModels) {
    std::vector<std::vector<std::size_t>> seqs{{0, 1, 0, 1, 0, 1, 0, 1}};
    const auto fitted = MarkovChain::fit(seqs, 2, 0.1);
    const MarkovChain uniform(2);
    const std::vector<std::size_t> test_seq{0, 1, 0, 1, 0, 1};
    EXPECT_GT(fitted.log_likelihood(test_seq), uniform.log_likelihood(test_seq));
}

TEST(MarkovChain, LogLikelihoodImpossiblePathIsMinusInf) {
    MarkovChain c({{0.0, 1.0}, {1.0, 0.0}}, {1.0, 0.0});
    const std::vector<std::size_t> impossible{0, 0};
    EXPECT_TRUE(std::isinf(c.log_likelihood(impossible)));
}

TEST(MarkovChain, ToStringMentionsStates) {
    MarkovChain c(2);
    EXPECT_NE(c.to_string().find("2 states"), std::string::npos);
}

TEST(EqualWidth, MapsAndClamps) {
    EqualWidthDiscretizer d(0.0, 10.0, 5);
    EXPECT_EQ(d.state_of(-1.0), 0u);
    EXPECT_EQ(d.state_of(3.0), 1u);
    EXPECT_EQ(d.state_of(10.0), 4u);
    EXPECT_DOUBLE_EQ(d.representative(0), 1.0);
    EXPECT_THROW((void)d.representative(5), std::out_of_range);
}

TEST(EqualWidth, SampleWithinStaysInBin) {
    EqualWidthDiscretizer d(0.0, 10.0, 5);
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        const double x = d.sample_within(2, rng);
        EXPECT_GE(x, 4.0);
        EXPECT_LT(x, 6.0);
    }
}

TEST(LbnRange, FourRangesOverDisk) {
    LbnRangeDiscretizer d(1000, 4);
    EXPECT_EQ(d.state_of(0.0), 0u);
    EXPECT_EQ(d.state_of(999.0), 3u);
    EXPECT_EQ(d.state_of(250.0), 1u);
    EXPECT_DOUBLE_EQ(d.representative(0), 125.0);
}

TEST(LbnRange, SampleWithinRange) {
    LbnRangeDiscretizer d(1000, 4);
    Rng rng(2);
    for (int i = 0; i < 200; ++i) {
        const double lbn = d.sample_within(1, rng);
        EXPECT_GE(lbn, 250.0);
        EXPECT_LT(lbn, 500.0);
        EXPECT_DOUBLE_EQ(lbn, std::floor(lbn));
    }
}

TEST(LbnRange, Validation) {
    EXPECT_THROW(LbnRangeDiscretizer(0, 4), std::invalid_argument);
    EXPECT_THROW(LbnRangeDiscretizer(2, 4), std::invalid_argument);
}

TEST(Bank, IdentityMapping) {
    BankDiscretizer d(4);
    EXPECT_EQ(d.state_of(2.0), 2u);
    EXPECT_EQ(d.state_of(9.0), 3u);  // clamps
    EXPECT_DOUBLE_EQ(d.representative(1), 1.0);
}

TEST(Utilization, CoversZeroToOne) {
    UtilizationDiscretizer d(4);
    EXPECT_EQ(d.state_of(0.0), 0u);
    EXPECT_EQ(d.state_of(0.3), 1u);
    EXPECT_EQ(d.state_of(1.0), 3u);
    EXPECT_NE(d.describe().find("cpu-util"), std::string::npos);
}

TEST(Discretize, WholeSequence) {
    EqualWidthDiscretizer d(0.0, 10.0, 5);
    const std::vector<double> xs{1.0, 5.0, 9.0};
    EXPECT_EQ(discretize(d, xs), (std::vector<std::size_t>{0, 2, 4}));
}

AnnotatedSequence make_annotated_training() {
    // Alternating 0/1 states; state 0 carries small sizes, state 1 large.
    AnnotatedSequence seq;
    for (int i = 0; i < 200; ++i) {
        seq.states.push_back(std::size_t(i % 2));
        seq.features["size"].push_back(i % 2 == 0 ? 100.0 : 1000.0);
    }
    return seq;
}

TEST(Annotated, FitAndGenerateFeatures) {
    const AnnotatedSequence seqs[] = {make_annotated_training()};
    const auto m = AnnotatedMarkovChain::fit(seqs, 2, 0.0);
    Rng rng(3);
    const auto steps = m.generate(100, rng);
    ASSERT_EQ(steps.size(), 100u);
    for (const auto& s : steps) {
        const double size = s.features.at("size");
        if (s.state == 0)
            EXPECT_DOUBLE_EQ(size, 100.0);
        else
            EXPECT_DOUBLE_EQ(size, 1000.0);
    }
}

TEST(Annotated, AlternationPreserved) {
    const AnnotatedSequence seqs[] = {make_annotated_training()};
    const auto m = AnnotatedMarkovChain::fit(seqs, 2, 0.0);
    Rng rng(4);
    const auto steps = m.generate(50, rng);
    for (std::size_t i = 1; i < steps.size(); ++i)
        EXPECT_NE(steps[i].state, steps[i - 1].state);
}

TEST(Annotated, MisalignedFeaturesRejected) {
    AnnotatedSequence bad;
    bad.states = {0, 1};
    bad.features["size"] = {1.0};
    const AnnotatedSequence seqs[] = {std::move(bad)};
    EXPECT_THROW(AnnotatedMarkovChain::fit(seqs, 2), std::invalid_argument);
}

TEST(Annotated, UnknownFeatureThrows) {
    const AnnotatedSequence seqs[] = {make_annotated_training()};
    const auto m = AnnotatedMarkovChain::fit(seqs, 2);
    EXPECT_THROW((void)m.feature(0, "nope"), std::out_of_range);
    EXPECT_THROW((void)m.feature(9, "size"), std::out_of_range);
}

TEST(Annotated, UnvisitedStateFallsBackToGlobal) {
    const AnnotatedSequence seqs[] = {make_annotated_training()};
    const auto m = AnnotatedMarkovChain::fit(seqs, 3);  // state 2 never seen
    Rng rng(5);
    const auto step = m.annotate(2, rng);
    const double size = step.features.at("size");
    EXPECT_TRUE(size >= 100.0 && size <= 1000.0);
}

TEST(Annotated, ParameterCountGrowsWithStates) {
    const AnnotatedSequence seqs[] = {make_annotated_training()};
    const auto small = AnnotatedMarkovChain::fit(seqs, 2);
    const auto big = AnnotatedMarkovChain::fit(seqs, 8);
    EXPECT_GT(big.parameter_count(), small.parameter_count());
    EXPECT_FALSE(small.describe().empty());
}

TEST(Hierarchical, FitAndSample) {
    // 4 states in 2 groups: {0,1} and {2,3}; long runs within groups.
    std::vector<std::vector<std::size_t>> seqs;
    std::vector<std::size_t> s;
    for (int rep = 0; rep < 20; ++rep) {
        for (int i = 0; i < 10; ++i) s.push_back(std::size_t(i % 2));
        for (int i = 0; i < 10; ++i) s.push_back(std::size_t(2 + i % 2));
    }
    seqs.push_back(s);
    const std::vector<std::size_t> groups{0, 0, 1, 1};
    const auto h = HierarchicalMarkovChain::fit(seqs, 4, groups);
    EXPECT_EQ(h.n_groups(), 2u);
    EXPECT_EQ(h.group_of(3), 1u);
    Rng rng(6);
    const auto path = h.sample_path(200, rng);
    for (auto st : path) EXPECT_LT(st, 4u);
}

TEST(Hierarchical, StaysInGroupMostly) {
    std::vector<std::vector<std::size_t>> seqs;
    std::vector<std::size_t> s;
    for (int rep = 0; rep < 50; ++rep) {
        for (int i = 0; i < 20; ++i) s.push_back(std::size_t(i % 2));
        for (int i = 0; i < 20; ++i) s.push_back(std::size_t(2 + i % 2));
    }
    seqs.push_back(s);
    const std::vector<std::size_t> groups{0, 0, 1, 1};
    const auto h = HierarchicalMarkovChain::fit(seqs, 4, groups, 0.0);
    Rng rng(7);
    const auto path = h.sample_path(1000, rng);
    std::size_t switches = 0;
    for (std::size_t i = 1; i < path.size(); ++i)
        if (h.group_of(path[i]) != h.group_of(path[i - 1])) ++switches;
    // Training data switches groups every 20 steps; generated path should
    // be in the same ballpark, not thrashing.
    EXPECT_LT(switches, 200u);
}

TEST(Hierarchical, FewerParamsThanFlatForManyStates) {
    // 16 states in 4 groups of 4.
    std::vector<std::size_t> groups(16);
    for (std::size_t i = 0; i < 16; ++i) groups[i] = i / 4;
    std::vector<std::vector<std::size_t>> seqs{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                                12, 13, 14, 15}};
    const auto h = HierarchicalMarkovChain::fit(seqs, 16, groups);
    EXPECT_LT(h.parameter_count(), 16u * 16u + 16u);
    EXPECT_FALSE(h.describe().empty());
}

TEST(Hierarchical, Validation) {
    std::vector<std::vector<std::size_t>> seqs{{0, 1}};
    const std::vector<std::size_t> short_groups{0};
    EXPECT_THROW(HierarchicalMarkovChain::fit(seqs, 2, short_groups),
                 std::invalid_argument);
    const std::vector<std::size_t> gap_groups{0, 2};  // group 1 missing
    EXPECT_THROW(HierarchicalMarkovChain::fit(seqs, 2, gap_groups),
                 std::invalid_argument);
}

}  // namespace
