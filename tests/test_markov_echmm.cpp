// Tests for the Ergodic Continuous HMM (Moro '09 memory-trace model).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "digest.hpp"
#include "markov/echmm.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"

namespace {

using kooza::markov::Echmm;
using kooza::sim::Rng;
using kooza::testutil::Fnv;

/// Two-regime data: long runs near 10, long runs near 100.
std::vector<double> two_regime_sequence(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> out;
    out.reserve(n);
    double level = 10.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (rng.bernoulli(0.02)) level = level < 50.0 ? 100.0 : 10.0;
        out.push_back(rng.normal(level, 1.0));
    }
    return out;
}

TEST(Echmm, RecoversTwoRegimes) {
    const std::vector<std::vector<double>> seqs{two_regime_sequence(3000, 1)};
    const auto m = Echmm::fit(seqs, 2, 40);
    // Emission means near 10 and 100, in some order.
    const bool first_low = m.emission_mean(0) < 50.0;
    const double low = m.emission_mean(first_low ? 0 : 1);
    const double high = m.emission_mean(first_low ? 1 : 0);
    EXPECT_NEAR(low, 10.0, 2.0);
    EXPECT_NEAR(high, 100.0, 2.0);
    // Sticky transitions (the regimes persist ~50 steps).
    EXPECT_GT(m.transition(0, 0), 0.9);
    EXPECT_GT(m.transition(1, 1), 0.9);
}

TEST(Echmm, TrainingImprovesLikelihood) {
    const std::vector<std::vector<double>> seqs{two_regime_sequence(2000, 2)};
    const auto one_iter = Echmm::fit(seqs, 2, 1);
    const auto many = Echmm::fit(seqs, 2, 30);
    EXPECT_GE(many.training_log_likelihood(), one_iter.training_log_likelihood());
    EXPECT_GE(many.iterations_run(), 2u);
}

TEST(Echmm, LikelihoodPrefersMatchingData) {
    const std::vector<std::vector<double>> seqs{two_regime_sequence(2000, 3)};
    const auto m = Echmm::fit(seqs, 2, 30);
    const auto matching = two_regime_sequence(500, 4);
    Rng rng(5);
    std::vector<double> noise(500);
    for (auto& x : noise) x = rng.uniform(-500.0, 500.0);
    EXPECT_GT(m.log_likelihood(matching) / 500.0, m.log_likelihood(noise) / 500.0);
}

TEST(Echmm, ViterbiTracksRegimes) {
    const std::vector<std::vector<double>> seqs{two_regime_sequence(2000, 6)};
    const auto m = Echmm::fit(seqs, 2, 30);
    const std::vector<double> obs{10, 11, 9, 100, 101, 99, 10};
    const auto path = m.viterbi(obs);
    ASSERT_EQ(path.size(), obs.size());
    EXPECT_EQ(path[0], path[1]);
    EXPECT_EQ(path[3], path[4]);
    EXPECT_NE(path[0], path[3]);
    EXPECT_EQ(path[6], path[0]);
}

TEST(Echmm, GenerateMatchesRegimeStatistics) {
    const std::vector<std::vector<double>> seqs{two_regime_sequence(3000, 7)};
    const auto m = Echmm::fit(seqs, 2, 30);
    Rng rng(8);
    const auto synth = m.generate(3000, rng);
    // Synthetic data occupies both regimes.
    std::size_t low = 0, high = 0;
    for (double x : synth) {
        if (x < 50.0)
            ++low;
        else
            ++high;
    }
    EXPECT_GT(low, 300u);
    EXPECT_GT(high, 300u);
    // Runs are long: few regime switches per 3000 samples.
    std::size_t switches = 0;
    for (std::size_t i = 1; i < synth.size(); ++i)
        if ((synth[i] < 50.0) != (synth[i - 1] < 50.0)) ++switches;
    EXPECT_LT(switches, 300u);
}

TEST(Echmm, MultipleSequencesPooled) {
    std::vector<std::vector<double>> seqs;
    for (int s = 0; s < 4; ++s) seqs.push_back(two_regime_sequence(500, 9 + s));
    const auto m = Echmm::fit(seqs, 2, 20);
    EXPECT_EQ(m.n_states(), 2u);
    EXPECT_FALSE(m.describe().empty());
}

TEST(Echmm, ParameterCount) {
    const std::vector<std::vector<double>> seqs{two_regime_sequence(500, 20)};
    const auto m = Echmm::fit(seqs, 3, 5);
    // (3-1) + 3*2 + 2*3 = 14.
    EXPECT_EQ(m.parameter_count(), 14u);
}

TEST(Echmm, Validation) {
    const std::vector<std::vector<double>> tiny{{1.0, 2.0}};
    EXPECT_THROW(Echmm::fit(tiny, 4), std::invalid_argument);
    const std::vector<std::vector<double>> seqs{two_regime_sequence(500, 21)};
    const auto m = Echmm::fit(seqs, 2, 5);
    EXPECT_THROW((void)m.transition(5, 0), std::out_of_range);
    EXPECT_THROW((void)m.emission_mean(5), std::out_of_range);
    Rng rng(22);
    EXPECT_THROW(m.generate(0, rng), std::invalid_argument);
    EXPECT_TRUE(m.viterbi(std::vector<double>{}).empty());
}

/// Like two_regime_sequence but with unequal regime masses (~6:1), which
/// makes the quantile initialization start the high-regime mean far from
/// 100 — the first EM iterations move it a long way, exactly the setting
/// where a variance computed against the stale mean blows up.
std::vector<double> skewed_two_regime(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> out;
    out.reserve(n);
    double level = 10.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (rng.bernoulli(level < 50.0 ? 0.01 : 0.06)) {
            level = level < 50.0 ? 100.0 : 10.0;
        }
        out.push_back(rng.normal(level, 1.0));
    }
    return out;
}

// Regression for the stale-mean M-step bug: sigma was accumulated against
// the previous iteration's mu, overestimating the variance by
// (mu_new - mu_old)^2 per iteration. With the skewed fixture and only 3
// iterations the stale formula leaves sigma_high ~ 3.5; E[x^2] - mu_new^2
// recovers ~1.07 (true stddev 1.0).
TEST(Echmm, RecoveredStddevsUnbiased) {
    const std::vector<std::vector<double>> seqs{skewed_two_regime(3000, 1)};
    const auto m = Echmm::fit(seqs, 2, /*max_iter=*/3, /*tol=*/1e-12);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_GT(m.emission_stddev(i), 0.5) << "state " << i;
        EXPECT_LT(m.emission_stddev(i), 2.0) << "state " << i;
    }
}

// Convergence path 1: the |delta LL| stop. Feeding identical data twice
// leaves the likelihood nearly unchanged, so the second iteration
// converges under a generous tolerance — but the first never can (the
// previous likelihood starts at -inf).
TEST(Echmm, ConvergesOnSmallAbsoluteDelta) {
    const auto data = two_regime_sequence(800, 30);
    Echmm::Fitter fitter(2, /*tol=*/1e9);
    fitter.initialize(data);
    fitter.begin_iteration();
    fitter.accumulate(data);
    EXPECT_FALSE(fitter.end_iteration());  // first iteration: prev = -inf
    fitter.begin_iteration();
    fitter.accumulate(data);
    EXPECT_TRUE(fitter.end_iteration());
    EXPECT_EQ(fitter.model().iterations_run(), 2u);
}

// Convergence path 2: a likelihood *decrease* is counted, not treated as
// convergence. The old check (total_ll - prev_ll < tol) declared any
// drop converged; force a genuine drop by swapping in wildly different
// data on the second iteration and check the fitter keeps going.
TEST(Echmm, LikelihoodDecreaseCountedNotConverged) {
    const auto matching = two_regime_sequence(800, 31);
    Rng rng(32);
    std::vector<double> noise(800);
    for (auto& x : noise) x = rng.uniform(-5000.0, 5000.0);

    auto& ctr = kooza::obs::counter("markov.echmm.ll_decreased_total");
    const auto before = ctr.value();

    Echmm::Fitter fitter(2, /*tol=*/1e-4);
    fitter.initialize(matching);
    fitter.begin_iteration();
    fitter.accumulate(matching);
    EXPECT_FALSE(fitter.end_iteration());
    const double ll_first = fitter.model().training_log_likelihood();
    fitter.begin_iteration();
    fitter.accumulate(noise);  // likelihood craters
    EXPECT_FALSE(fitter.end_iteration());  // NOT convergence
    EXPECT_LT(fitter.model().training_log_likelihood(), ll_first);
    EXPECT_EQ(ctr.value(), before + 1);
}

// Seed handling: with the default single restart the fit is deterministic
// and byte-identical for every seed (restart 0 never consults it).
TEST(Echmm, SingleRestartByteCompatAcrossSeeds) {
    const std::vector<std::vector<double>> seqs{two_regime_sequence(1000, 33)};
    const auto a = Echmm::fit(seqs, 2, 20, 1e-4, /*seed=*/1, /*n_restarts=*/1);
    const auto b = Echmm::fit(seqs, 2, 20, 1e-4, /*seed=*/999, /*n_restarts=*/1);
    EXPECT_EQ(a.training_log_likelihood(), b.training_log_likelihood());
    EXPECT_EQ(a.iterations_run(), b.iterations_run());
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(a.emission_mean(i), b.emission_mean(i));
        EXPECT_EQ(a.emission_stddev(i), b.emission_stddev(i));
        EXPECT_EQ(a.initial()[i], b.initial()[i]);
        for (std::size_t j = 0; j < 2; ++j)
            EXPECT_EQ(a.transition(i, j), b.transition(i, j));
    }
}

// Seeded restarts keep the best-likelihood model, are reproducible for a
// fixed seed, and can never do worse than the deterministic restart 0.
TEST(Echmm, SeededRestartsKeepBest) {
    const std::vector<std::vector<double>> seqs{two_regime_sequence(1000, 34)};
    const auto base = Echmm::fit(seqs, 3, 15, 1e-4, 7, 1);
    const auto multi = Echmm::fit(seqs, 3, 15, 1e-4, 7, 6);
    const auto multi_again = Echmm::fit(seqs, 3, 15, 1e-4, 7, 6);
    EXPECT_GE(multi.training_log_likelihood(), base.training_log_likelihood());
    EXPECT_EQ(multi.training_log_likelihood(),
              multi_again.training_log_likelihood());
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(multi.emission_mean(i), multi_again.emission_mean(i));
}

// Multi-sequence Baum-Welch, degenerate case: with a single state there
// are no boundary effects (pi and the transition matrix are trivial), so
// fitting {s1, s2} must be byte-identical to fitting the concatenation —
// the accumulators see the same values in the same order.
TEST(Echmm, SingleStateMultiSequenceMatchesConcatenation) {
    const auto s1 = two_regime_sequence(400, 35);
    const auto s2 = two_regime_sequence(400, 36);
    std::vector<double> concat = s1;
    concat.insert(concat.end(), s2.begin(), s2.end());
    const std::vector<std::vector<double>> split{s1, s2};
    const std::vector<std::vector<double>> joined{concat};
    const auto a = Echmm::fit(split, 1, 10, 1e-12);
    const auto b = Echmm::fit(joined, 1, 10, 1e-12);
    EXPECT_EQ(a.emission_mean(0), b.emission_mean(0));
    EXPECT_EQ(a.emission_stddev(0), b.emission_stddev(0));
}

// Multi-sequence Baum-Welch, boundary semantics: each sequence restarts
// from pi (every t=0 contributes) and no xi crosses a sequence boundary.
// One pure-low and one pure-high sequence therefore yield pi ~ {1/2, 1/2},
// while their concatenation pins pi to the single starting regime.
TEST(Echmm, MultiSequencePiSeesEveryStart) {
    Rng rng(37);
    std::vector<double> low(400), high(400);
    for (auto& x : low) x = rng.normal(10.0, 1.0);
    for (auto& x : high) x = rng.normal(100.0, 1.0);
    std::vector<double> concat = low;
    concat.insert(concat.end(), high.begin(), high.end());

    const std::vector<std::vector<double>> split{low, high};
    const std::vector<std::vector<double>> joined{concat};
    const auto m_split = Echmm::fit(split, 2, 20);
    const auto m_joined = Echmm::fit(joined, 2, 20);

    // Both recover the regime means...
    for (const auto* m : {&m_split, &m_joined}) {
        const bool first_low = m->emission_mean(0) < 50.0;
        EXPECT_NEAR(m->emission_mean(first_low ? 0 : 1), 10.0, 2.0);
        EXPECT_NEAR(m->emission_mean(first_low ? 1 : 0), 100.0, 2.0);
    }
    // ...but only the split fit sees two sequence starts.
    const double split_pi_max =
        std::max(m_split.initial()[0], m_split.initial()[1]);
    const double joined_pi_max =
        std::max(m_joined.initial()[0], m_joined.initial()[1]);
    EXPECT_NEAR(split_pi_max, 0.5, 0.05);
    EXPECT_GT(joined_pi_max, 0.9);
}

// Fitter misuse is a logic error, not UB.
TEST(Echmm, FitterGuardsProtocol) {
    EXPECT_THROW(Echmm::Fitter(0), std::invalid_argument);
    Echmm::Fitter fitter(2);
    EXPECT_THROW(fitter.begin_iteration(), std::logic_error);
    const auto data = two_regime_sequence(100, 38);
    EXPECT_THROW(fitter.accumulate(data), std::logic_error);
    EXPECT_THROW(fitter.end_iteration(), std::logic_error);
    fitter.initialize(data);
    EXPECT_THROW(fitter.accumulate(data), std::logic_error);  // no iteration yet
    fitter.begin_iteration();
    fitter.accumulate(data);
    EXPECT_FALSE(fitter.end_iteration());
    EXPECT_THROW(fitter.end_iteration(), std::logic_error);  // already ended
    const std::vector<double> tiny{1.0, 2.0};
    Echmm::Fitter starved(4);
    EXPECT_THROW(starved.initialize(tiny), std::invalid_argument);
}

/// FNV-1a over the bits of every fitted parameter, the training
/// log-likelihood and the iteration count.
std::uint64_t fit_digest(const Echmm& m) {
    Fnv d;
    for (std::size_t i = 0; i < m.n_states(); ++i) {
        d.add(m.initial()[i]);
        for (std::size_t j = 0; j < m.n_states(); ++j) d.add(m.transition(i, j));
        d.add(m.emission_mean(i));
        d.add(m.emission_stddev(i));
    }
    d.add(m.training_log_likelihood());
    d.add(std::uint64_t(m.iterations_run()));
    return d.value();
}

TEST(Echmm, FitDigestPinned) {
    // Pins every bit Baum-Welch produces against recorded constants, so a
    // rewrite of the E-step must keep its expressions and summation order.
    const std::vector<std::vector<double>> seqs{two_regime_sequence(1200, 41),
                                                two_regime_sequence(500, 42),
                                                two_regime_sequence(90, 43)};
    const auto m = Echmm::fit(seqs, 4, 60, 1e-4, 9, 2);
    const std::uint64_t fit = fit_digest(m);
    EXPECT_EQ(fit, 0x4bcebcc566d4c135ull) << std::hex << fit;
    // Decoding and scoring read the same log-density.
    Fnv d;
    d.add(m.log_likelihood(seqs[1]));
    for (std::size_t s : m.viterbi(seqs[2])) d.add(std::uint64_t(s));
    EXPECT_EQ(d.value(), 0x7dcafef33f116d4eull) << std::hex << d.value();
}

TEST(Echmm, RejectsNonFiniteObservations) {
    auto seq = two_regime_sequence(200, 44);
    seq[57] = std::numeric_limits<double>::quiet_NaN();
    const std::vector<std::vector<double>> seqs{seq};
    try {
        (void)Echmm::fit(seqs, 2);
        FAIL() << "no throw";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
            << e.what();
    }
}

TEST(Echmm, InitialDistributionNormalized) {
    const std::vector<std::vector<double>> seqs{two_regime_sequence(1000, 23)};
    const auto m = Echmm::fit(seqs, 3, 10);
    double sum = 0.0;
    for (double p : m.initial()) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    for (std::size_t i = 0; i < 3; ++i) {
        double row = 0.0;
        for (std::size_t j = 0; j < 3; ++j) row += m.transition(i, j);
        EXPECT_NEAR(row, 1.0, 1e-9);
    }
}

}  // namespace
