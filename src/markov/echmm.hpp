// Ergodic Continuous Hidden Markov Model (ECHMM).
//
// Moro, Mumolo & Nolich '09 (surveyed by the paper, Section 2.1.4) model
// "the sequence of memory references (i.e. virtual page numbers) as a
// series of floating point numbers used to train an Ergodic Continuous
// HMM", then categorize workloads and generate synthetic traces from it.
// This is a fully-connected (ergodic) HMM with one Gaussian emission per
// state, trained by Baum-Welch, with Viterbi decoding and generative
// sampling. It serves as the alternative, finer-grained memory model the
// A6 ablation compares against KOOZA's bank chain, and the machinery
// behind the Harrison-style HMM storage baseline (baselines::HmmModel).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace kooza::markov {

class Echmm {
public:
    class Fitter;

    /// Train on one or more observation sequences (e.g. memory reference
    /// addresses as doubles) with `n_states` hidden states.
    /// Initialization: k-means-style quantile split of the pooled data;
    /// then `max_iter` Baum-Welch iterations per restart (stopping early
    /// once |delta log-likelihood| < `tol`; a likelihood *decrease* —
    /// possible because the accumulator/sigma floors make the M-step
    /// inexact — is counted under `markov.echmm.ll_decreased_total`, not
    /// treated as convergence).
    ///
    /// `seed` drives randomized restarts: restart 0 always uses the
    /// deterministic quantile initialization (so the default
    /// `n_restarts = 1` is byte-identical for every seed), and restarts
    /// 1..n-1 jitter the initial emission means with Rng(seed ^ restart).
    /// The model with the best final training log-likelihood wins.
    static Echmm fit(std::span<const std::vector<double>> sequences,
                     std::size_t n_states, std::size_t max_iter = 50,
                     double tol = 1e-4, std::uint64_t seed = 1,
                     std::size_t n_restarts = 1);

    [[nodiscard]] std::size_t n_states() const noexcept { return n_; }
    [[nodiscard]] double transition(std::size_t i, std::size_t j) const;
    [[nodiscard]] double emission_mean(std::size_t i) const;
    [[nodiscard]] double emission_stddev(std::size_t i) const;
    [[nodiscard]] const std::vector<double>& initial() const noexcept { return pi_; }

    /// Total log-likelihood of a sequence under the model (forward pass).
    [[nodiscard]] double log_likelihood(std::span<const double> xs) const;

    /// Most likely hidden-state path (Viterbi).
    [[nodiscard]] std::vector<std::size_t> viterbi(std::span<const double> xs) const;

    /// Generate a synthetic observation sequence.
    [[nodiscard]] std::vector<double> generate(std::size_t length,
                                               sim::Rng& rng) const;

    /// Training log-likelihood after the final Baum-Welch iteration.
    [[nodiscard]] double training_log_likelihood() const noexcept { return train_ll_; }
    [[nodiscard]] std::size_t iterations_run() const noexcept { return iters_; }

    /// Free parameters: pi (n-1) + transitions n(n-1) + 2n emissions.
    [[nodiscard]] std::size_t parameter_count() const noexcept {
        return (n_ - 1) + n_ * (n_ - 1) + 2 * n_;
    }

    [[nodiscard]] std::string describe() const;

private:
    explicit Echmm(std::size_t n) : n_(n) {}

    /// out[i] = log(sigma_i), hoisted out of every density evaluation.
    void log_sigmas(double* out) const;

    std::size_t n_;
    std::vector<double> pi_;                  ///< initial distribution
    std::vector<double> a_;                   ///< transitions, n x n row-major
    std::vector<double> mu_;                  ///< emission means
    std::vector<double> sigma_;               ///< emission stddevs
    double train_ll_ = 0.0;
    std::size_t iters_ = 0;
};

namespace detail {

struct EstepModel;

/// The E-step's pending batch and the iteration's expectation sums. The
/// Fitter holds one; the kernels that run it are in echmm_lanes.hpp.
struct Estep {
    std::size_t T = 0;        ///< length of every pending sequence
    std::size_t count = 0;    ///< pending sequences
    std::vector<double> obs;  ///< pending sequences, sequence-major (count x T)
    std::vector<double> work; ///< the kernel's tables, grown to the longest batch
    // Expectation sums, each added to in sequence order.
    double total_ll = 0.0;
    std::vector<double> pi_acc;
    std::vector<double> a_acc;      ///< n x n, row-major
    std::vector<double> gamma_all;  ///< sum of gamma over all t
    std::vector<double> x_acc;      ///< sum of gamma * x
    std::vector<double> x2_acc;     ///< sum of gamma * x^2
};

/// An E-step kernel compiled for one state count and lane width: `run`
/// takes up to `lanes` pending sequences at once.
struct EstepKernel {
    void (*run)(const EstepModel&, Estep&);
    std::size_t lanes;
};

/// Make `fitter` run its E-step through `kernel` (the lane-width tests run
/// one fit at every width). Drops a pending batch.
void use_kernel(Echmm::Fitter& fitter, EstepKernel kernel);

}  // namespace detail

/// Incremental Baum-Welch driver: owns the model and the per-iteration
/// expectation accumulators, but never the observations. Each EM
/// iteration the caller streams every sequence through accumulate() —
/// from an in-memory vector or re-read chunk by chunk from disk — then
/// end_iteration() applies the M-step and reports convergence. Feeding
/// the same sequences in the same order every iteration makes the result
/// byte-identical to Echmm::fit on the materialized sequence list
/// (Echmm::fit is itself a Fitter driven over an in-memory list).
///
/// M-step variance uses the E[x^2] - mu_new^2 form, so sigma is computed
/// against the *updated* mean (a single stale-mean pass overestimates it
/// by (mu_new - mu_old)^2 every iteration).
///
/// The E-step runs on batches (echmm_lanes.hpp): accumulate() copies each
/// sequence into a pending batch of at most W sequences of one length, so
/// the caller may reuse or free its buffer as soon as the call returns and
/// the Fitter holds at most W sequences. The batch runs when it is full,
/// when a sequence of another length arrives, and at end_iteration(). Its
/// forward and backward passes run the W sequences in the lanes of one
/// vector (W = 4 under AVX2 on CPUs that have it, 2 otherwise), each lane
/// performing the scalar recurrence's operations in the scalar order; gamma
/// and xi then run sequence by sequence in input order, so every sum adds
/// its terms in the order of a one-sequence-at-a-time E-step and the fit is
/// bit-identical at every width. No multiply-add may be contracted into an
/// FMA (the libraries build with -ffp-contract=off). Each emission density
/// is evaluated once per step, and a step whose observation equals one of
/// the last few values evaluated in the batch reuses that value's row. The
/// kernel's tables are one vector the Fitter keeps, so repeated batches
/// allocate only when a longer sequence arrives.
class Echmm::Fitter {
public:
    explicit Fitter(std::size_t n_states, double tol = 1e-4);

    /// Quantile-initialize the emissions from the pooled observations
    /// (any order; sorted internally). `restart` 0 is deterministic;
    /// restarts >= 1 jitter the initial means with Rng(seed ^ restart).
    void initialize(std::span<const double> pooled, std::uint64_t seed = 1,
                    std::size_t restart = 0);

    void begin_iteration();
    /// E-step sufficient statistics of one observation sequence under the
    /// current model (empty sequences are ignored). The sequence is copied;
    /// its sums may be added at a later accumulate() or at end_iteration().
    void accumulate(std::span<const double> seq);
    /// M-step from everything accumulated this iteration. Returns true
    /// when |total_ll - previous total_ll| < tol (never on the first
    /// iteration); a log-likelihood decrease bumps
    /// `markov.echmm.ll_decreased_total` and does NOT count as converged.
    bool end_iteration();

    /// Current model (valid after initialize(); refined per iteration).
    [[nodiscard]] const Echmm& model() const noexcept { return m_; }

private:
    friend void detail::use_kernel(Fitter&, detail::EstepKernel);

    /// Run the pending batch, if any.
    void run_batch();

    Echmm m_;
    double tol_;
    double prev_ll_;
    std::size_t iters_ = 0;
    bool initialized_ = false;
    bool in_iteration_ = false;
    std::vector<double> log_sigma_;  ///< log(sigma_i) of the current model
    detail::EstepKernel kernel_;
    detail::Estep estep_;
};

}  // namespace kooza::markov
