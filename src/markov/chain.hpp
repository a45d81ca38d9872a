// Discrete-time Markov chains.
//
// KOOZA's storage, CPU and memory sub-models are Markov chains: "we want
// to capture the sequence of states and the probabilities of switching
// between them" (paper, Section 4). Chains are fit from observed state
// sequences with Laplace smoothing and sampled to produce synthetic
// sequences.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace kooza::markov {

/// Merge-able sufficient statistics for chain fitting: initial-state and
/// transition counts. Streaming trainers accumulate these chunk by chunk
/// (or shard by shard, then merge) and fit once at the end —
/// MarkovChain::fit_counts(stats, alpha) produces the same chain as
/// MarkovChain::fit over the concatenated sequences, bit for bit, since
/// counts are integers and exact in double precision.
struct ChainSuffStats {
    explicit ChainSuffStats(std::size_t n_states);

    /// Count one observed state sequence; empty sequences are ignored.
    /// Throws std::invalid_argument on a state id >= n_states.
    void observe(std::span<const std::size_t> seq);

    /// Combine counts from another accumulator over the same state space.
    void merge(const ChainSuffStats& other);

    std::size_t n_states = 0;
    std::vector<double> initial;                    ///< initial-state counts
    std::vector<std::vector<double>> transitions;   ///< transition counts
    std::uint64_t sequences = 0;  ///< non-empty sequences observed
};

class MarkovChain {
public:
    /// Uninformative chain: uniform transitions over n states.
    explicit MarkovChain(std::size_t n_states);

    /// Construct from an explicit row-stochastic transition matrix and an
    /// initial state distribution. Rows and the initial distribution must
    /// each sum to 1 within 1e-6. Throws std::invalid_argument otherwise.
    MarkovChain(std::vector<std::vector<double>> transitions,
                std::vector<double> initial);

    /// Fit from one or more observed state sequences.
    /// @param sequences  state id sequences; ids must be < n_states
    /// @param n_states   size of the state space
    /// @param alpha      Laplace smoothing pseudo-count added to every
    ///                   transition (keeps unseen transitions possible and
    ///                   log_likelihood finite); 0 disables smoothing
    static MarkovChain fit(std::span<const std::vector<std::size_t>> sequences,
                           std::size_t n_states, double alpha = 0.5);

    /// Fit from pre-accumulated sufficient statistics (the streaming
    /// path). Identical smoothing/normalization as fit(); throws
    /// std::invalid_argument when the stats saw no non-empty sequence.
    static MarkovChain fit_counts(const ChainSuffStats& stats, double alpha = 0.5);

    [[nodiscard]] std::size_t n_states() const noexcept { return n_; }

    /// P(next = j | current = i).
    [[nodiscard]] double transition(std::size_t i, std::size_t j) const;

    /// Initial state distribution.
    [[nodiscard]] const std::vector<double>& initial() const noexcept { return init_; }

    /// Sample the initial state.
    [[nodiscard]] std::size_t sample_initial(sim::Rng& rng) const;

    /// Sample the successor of state i.
    [[nodiscard]] std::size_t next_state(std::size_t i, sim::Rng& rng) const;

    /// Sample a path of `length` states starting from the initial
    /// distribution (length >= 1).
    [[nodiscard]] std::vector<std::size_t> sample_path(std::size_t length,
                                                       sim::Rng& rng) const;

    /// Log-likelihood of a sequence under the chain (includes the initial
    /// state term). -inf if any step has zero probability.
    [[nodiscard]] double log_likelihood(std::span<const std::size_t> seq) const;

    [[nodiscard]] std::string to_string(int precision = 3) const;

private:
    std::size_t n_;
    std::vector<std::vector<double>> p_;  ///< row-stochastic transitions
    std::vector<double> init_;
};

}  // namespace kooza::markov
