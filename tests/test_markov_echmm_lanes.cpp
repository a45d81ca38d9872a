// Pinned Baum-Welch digests over the E-step's lane batching. The fits cover
// sequence lengths that fill, split and flush a batch, state counts on and
// off the compiled sizes, one and two restarts, and a stream of three
// distinct values (emission-row reuse). The constants were recorded with
// the one-sequence-at-a-time E-step, and every lane width must reproduce
// them bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "digest.hpp"
#include "markov/echmm.hpp"
#include "markov/echmm_lanes.hpp"
#include "sim/rng.hpp"

namespace {

using kooza::markov::Echmm;
using kooza::sim::Rng;
using kooza::testutil::Fnv;
using Seqs = std::vector<std::vector<double>>;
namespace detail = kooza::markov::detail;

constexpr std::size_t kIters = 6;
constexpr double kTol = 1e-12;  // every fit runs its kIters iterations
constexpr std::uint64_t kSeed = 5;

/// Three sticky regimes around 2, 6 and 11, one observation per step.
std::vector<double> regimes(std::size_t n, Rng& rng) {
    static constexpr double kLevel[] = {2.0, 6.0, 11.0};
    std::vector<double> out;
    out.reserve(n);
    std::size_t r = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (rng.bernoulli(0.05)) r = std::size_t(rng.uniform_int(0, 2));
        out.push_back(rng.normal(kLevel[r], 0.7));
    }
    return out;
}

/// Five sequences of 64 (more than a batch of any width), then 31, 1 and
/// an empty one, then 255 and 256 mixed: full, partial and split batches.
Seqs batch_lengths() {
    Rng rng(101);
    Seqs seqs;
    for (std::size_t len : {64, 64, 64, 64, 64, 31, 1, 0, 256, 255, 255, 256, 256, 255})
        seqs.push_back(regimes(len, rng));
    return seqs;
}

/// A size-like stream: only three distinct values, in runs, cut into
/// segments of 256 and a tail of 40.
Seqs three_values() {
    static constexpr double kValue[] = {12.0, 13.0, 16.0};
    Rng rng(202);
    std::vector<double> stream;
    std::size_t v = 0;
    for (std::size_t i = 0; i < 5 * 256 + 40; ++i) {
        if (rng.bernoulli(0.3)) v = std::size_t(rng.uniform_int(0, 2));
        stream.push_back(kValue[v]);
    }
    Seqs seqs;
    for (std::size_t start = 0; start < stream.size(); start += 256)
        seqs.emplace_back(stream.begin() + long(start),
                          stream.begin() + long(std::min(stream.size(), start + 256)));
    return seqs;
}

constexpr std::size_t kStates[] = {1, 2, 3, 4, 5, 8, 16};

/// Every fitted bit, then scoring and decoding of the longest sequence.
void add_fit(Fnv& d, const Echmm& m, const Seqs& seqs) {
    for (std::size_t i = 0; i < m.n_states(); ++i) {
        d.add(m.initial()[i]);
        for (std::size_t j = 0; j < m.n_states(); ++j) d.add(m.transition(i, j));
        d.add(m.emission_mean(i));
        d.add(m.emission_stddev(i));
    }
    d.add(m.training_log_likelihood());
    d.add(std::uint64_t(m.iterations_run()));
    const auto& longest = *std::max_element(
        seqs.begin(), seqs.end(),
        [](const auto& a, const auto& b) { return a.size() < b.size(); });
    d.add(m.log_likelihood(longest));
    for (std::size_t s : m.viterbi(longest)) d.add(std::uint64_t(s));
}

std::vector<double> pooled(const Seqs& seqs) {
    std::vector<double> out;
    for (const auto& s : seqs) out.insert(out.end(), s.begin(), s.end());
    return out;
}

/// Echmm::fit's restart loop with the E-step at W lanes.
template <std::size_t W>
Echmm fit_at(const Seqs& seqs, std::size_t n, std::size_t restarts) {
    const auto all = pooled(seqs);
    std::optional<Echmm> best;
    for (std::size_t restart = 0; restart < restarts; ++restart) {
        Echmm::Fitter fitter(n, kTol);
        detail::use_kernel(fitter, detail::lanes_kernel<W>(n));
        fitter.initialize(all, kSeed, restart);
        for (std::size_t iter = 0; iter < kIters; ++iter) {
            fitter.begin_iteration();
            for (const auto& seq : seqs) fitter.accumulate(seq);
            if (fitter.end_iteration()) break;
        }
        if (!best || fitter.model().training_log_likelihood() >
                         best->training_log_likelihood())
            best = fitter.model();
    }
    return *best;
}

/// Digest of every (state count, restarts) fit of `seqs`, fitted by `fit`.
template <typename Fit>
std::uint64_t digest_all(const Seqs& seqs, Fit fit) {
    Fnv d;
    for (std::size_t n : kStates)
        for (std::size_t restarts : {1, 2}) add_fit(d, fit(seqs, n, restarts), seqs);
    return d.value();
}

constexpr std::uint64_t kBatchLengths = 0x86ae991ab6678cbcull;
constexpr std::uint64_t kThreeValues = 0x9b8e3e55ba6b24daull;

TEST(EchmmLanes, FitDigestsPinned) {
    const auto fit = [](const Seqs& seqs, std::size_t n, std::size_t restarts) {
        return Echmm::fit(seqs, n, kIters, kTol, kSeed, restarts);
    };
    const auto lengths = digest_all(batch_lengths(), fit);
    EXPECT_EQ(lengths, kBatchLengths) << std::hex << lengths;
    const auto values = digest_all(three_values(), fit);
    EXPECT_EQ(values, kThreeValues) << std::hex << values;
}

template <std::size_t W>
void expect_width_pinned() {
    const auto fit = [](const Seqs& seqs, std::size_t n, std::size_t restarts) {
        return fit_at<W>(seqs, n, restarts);
    };
    const auto lengths = digest_all(batch_lengths(), fit);
    EXPECT_EQ(lengths, kBatchLengths) << W << " lanes: " << std::hex << lengths;
    const auto values = digest_all(three_values(), fit);
    EXPECT_EQ(values, kThreeValues) << W << " lanes: " << std::hex << values;
}

// One lane is the scalar recurrence; two is the SSE2 kernel; four is the
// AVX2 kernel's arithmetic, compiled here without AVX.
TEST(EchmmLanes, EveryWidthPinned) {
    expect_width_pinned<1>();
    expect_width_pinned<2>();
    expect_width_pinned<4>();
}

// accumulate() copies: a caller may refill one buffer for every sequence
// (here it is poisoned after each call) and still get Echmm::fit's model.
TEST(EchmmLanes, FitterCopiesEachSequence) {
    const auto seqs = batch_lengths();
    for (std::size_t n : {2, 3, 4}) {
        Echmm::Fitter fitter(n, kTol);
        fitter.initialize(pooled(seqs));
        std::vector<double> buffer;
        for (std::size_t iter = 0; iter < kIters; ++iter) {
            fitter.begin_iteration();
            for (const auto& seq : seqs) {
                buffer.assign(seq.begin(), seq.end());
                fitter.accumulate(buffer);
                std::fill(buffer.begin(), buffer.end(),
                          std::numeric_limits<double>::quiet_NaN());
            }
            if (fitter.end_iteration()) break;
        }
        Fnv reused, direct;
        add_fit(reused, fitter.model(), seqs);
        add_fit(direct, Echmm::fit(seqs, n, kIters, kTol), seqs);
        EXPECT_EQ(reused.value(), direct.value()) << n << " states";
    }
}

}  // namespace
