// Markov chains whose states carry request-feature distributions.
//
// In KOOZA the storage model does not just walk LBN ranges — each visit
// also reflects "the type of requests (block size, type, randomness,
// inter-arrival times)" (paper, Section 4). AnnotatedMarkovChain attaches
// named per-state feature distributions to a MarkovChain so a sampled path
// yields full synthetic records, not just state ids.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "markov/chain.hpp"
#include "stats/distributions.hpp"

namespace kooza::markov {

/// One training sequence: aligned state ids and per-feature observations.
struct AnnotatedSequence {
    std::vector<std::size_t> states;
    /// feature name -> values; every vector must match states.size().
    std::map<std::string, std::vector<double>> features;
};

/// One generated step: a state id plus sampled feature values.
struct AnnotatedStep {
    std::size_t state = 0;
    std::map<std::string, double> features;
};

class AnnotatedMarkovChain {
public:
    /// Fit the transition structure and, for every (state, feature) pair,
    /// a distribution over the values observed while in that state
    /// (parametric if a family passes the KS threshold, else empirical).
    /// States never observed fall back to the feature's global fit.
    /// The transition counts go through markov::ChainSuffStats; every
    /// observed feature value is kept for its (state, feature) fit.
    static AnnotatedMarkovChain fit(std::span<const AnnotatedSequence> sequences,
                                    std::size_t n_states, double alpha = 0.5,
                                    double ks_threshold = 0.08);

    /// Reassemble from previously-fitted parts (deserialization).
    /// `per_state` must have chain.n_states() entries, each naming the
    /// same features; std::invalid_argument otherwise.
    static AnnotatedMarkovChain from_parts(
        MarkovChain chain,
        std::vector<std::map<std::string, std::unique_ptr<stats::Distribution>>>
            per_state);

    [[nodiscard]] const MarkovChain& chain() const noexcept { return chain_; }
    /// Feature names in sorted order, the order sample_features draws in.
    [[nodiscard]] const std::vector<std::string>& feature_names() const noexcept {
        return names_;
    }
    /// Position of `name` in feature_names(); std::out_of_range if absent.
    [[nodiscard]] std::size_t feature_index(std::string_view name) const;

    /// Distribution of `feature` while in `state`.
    [[nodiscard]] const stats::Distribution& feature(std::size_t state,
                                                     const std::string& name) const;

    /// Draw every feature of `state` into `out`, in feature_names() order:
    /// the one place a chain samples features. `out` must hold
    /// feature_names().size() values (std::invalid_argument otherwise).
    void sample_features(std::size_t state, sim::Rng& rng, std::span<double> out) const;

    /// Sample a path of `length` steps with features.
    [[nodiscard]] std::vector<AnnotatedStep> generate(std::size_t length,
                                                      sim::Rng& rng) const;

    /// Sample features for a known state (no transition).
    [[nodiscard]] AnnotatedStep annotate(std::size_t state, sim::Rng& rng) const;

    /// Rough model size: transition entries + per-state feature params
    /// (2 per parametric feature, sample size for empirical). Used by the
    /// Table 1 complexity axis.
    [[nodiscard]] std::size_t parameter_count() const;

    [[nodiscard]] std::string describe() const;

private:
    AnnotatedMarkovChain(MarkovChain chain, std::vector<std::string> names,
                         std::vector<std::unique_ptr<stats::Distribution>> dists);

    MarkovChain chain_;
    std::vector<std::string> names_;  ///< sorted
    /// dists_[state * names_.size() + f]: feature f's distribution in state.
    std::vector<std::unique_ptr<stats::Distribution>> dists_;
};

}  // namespace kooza::markov
