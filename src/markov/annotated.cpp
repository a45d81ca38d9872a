#include "markov/annotated.hpp"

#include <algorithm>
#include <ranges>
#include <set>
#include <sstream>
#include <stdexcept>

#include "stats/empirical.hpp"
#include "stats/fitting.hpp"

namespace kooza::markov {

AnnotatedMarkovChain::AnnotatedMarkovChain(
    MarkovChain chain, std::vector<std::string> names,
    std::vector<std::unique_ptr<stats::Distribution>> dists)
    : chain_(std::move(chain)), names_(std::move(names)), dists_(std::move(dists)) {}

AnnotatedMarkovChain AnnotatedMarkovChain::from_parts(
    MarkovChain chain,
    std::vector<std::map<std::string, std::unique_ptr<stats::Distribution>>>
        per_state) {
    if (per_state.size() != chain.n_states())
        throw std::invalid_argument(
            "AnnotatedMarkovChain::from_parts: state count mismatch");
    std::vector<std::string> names;
    for (const auto& [name, dist] : per_state.front()) names.push_back(name);
    std::vector<std::unique_ptr<stats::Distribution>> dists;
    dists.reserve(per_state.size() * names.size());
    for (std::size_t s = 0; s < per_state.size(); ++s) {
        if (!std::ranges::equal(per_state[s] | std::views::keys, names))
            throw std::invalid_argument("AnnotatedMarkovChain::from_parts: state " +
                                        std::to_string(s) +
                                        " names other features than state 0");
        for (auto& [name, dist] : per_state[s]) {
            if (!dist)
                throw std::invalid_argument(
                    "AnnotatedMarkovChain::from_parts: null distribution for " + name);
            dists.push_back(std::move(dist));
        }
    }
    return AnnotatedMarkovChain(std::move(chain), std::move(names), std::move(dists));
}

AnnotatedMarkovChain AnnotatedMarkovChain::fit(
    std::span<const AnnotatedSequence> sequences, std::size_t n_states, double alpha,
    double ks_threshold) {
    // Validate alignment, collect the feature-name universe, and count
    // transitions — sufficient statistics instead of copied sequences.
    std::set<std::string> name_set;
    ChainSuffStats chain_stats(n_states);
    for (const auto& seq : sequences) {
        for (const auto& [name, vals] : seq.features) {
            if (vals.size() != seq.states.size())
                throw std::invalid_argument(
                    "AnnotatedMarkovChain::fit: feature '" + name +
                    "' not aligned with states");
            name_set.insert(name);
        }
        chain_stats.observe(seq.states);
    }
    MarkovChain chain = MarkovChain::fit_counts(chain_stats, alpha);
    std::vector<std::string> names(name_set.begin(), name_set.end());
    const std::size_t n_features = names.size();

    // Bucket feature values by (state, feature); a feature's column is
    // looked up once per sequence.
    std::vector<std::vector<double>> buckets(n_states * n_features);
    std::vector<std::vector<double>> global(n_features);
    for (const auto& seq : sequences)
        for (const auto& [name, vals] : seq.features) {
            const std::size_t f = std::size_t(
                std::lower_bound(names.begin(), names.end(), name) - names.begin());
            for (std::size_t i = 0; i < vals.size(); ++i) {
                buckets[seq.states[i] * n_features + f].push_back(vals[i]);
                global[f].push_back(vals[i]);
            }
        }

    std::vector<std::unique_ptr<stats::Distribution>> dists(n_states * n_features);
    for (std::size_t s = 0; s < n_states; ++s)
        for (std::size_t f = 0; f < n_features; ++f) {
            const auto& bucket = buckets[s * n_features + f];
            const auto& vals = bucket.empty() ? global[f] : bucket;
            if (vals.empty())
                throw std::invalid_argument("AnnotatedMarkovChain::fit: feature '" +
                                            names[f] + "' has no data");
            dists[s * n_features + f] = stats::fit_or_empirical(vals, ks_threshold);
        }
    return AnnotatedMarkovChain(std::move(chain), std::move(names), std::move(dists));
}

std::size_t AnnotatedMarkovChain::feature_index(std::string_view name) const {
    const auto it = std::lower_bound(names_.begin(), names_.end(), name);
    if (it == names_.end() || *it != name)
        throw std::out_of_range("AnnotatedMarkovChain: unknown feature " +
                                std::string(name));
    return std::size_t(it - names_.begin());
}

const stats::Distribution& AnnotatedMarkovChain::feature(std::size_t state,
                                                         const std::string& name) const {
    if (state >= chain_.n_states())
        throw std::out_of_range("AnnotatedMarkovChain::feature: state");
    return *dists_[state * names_.size() + feature_index(name)];
}

void AnnotatedMarkovChain::sample_features(std::size_t state, sim::Rng& rng,
                                           std::span<double> out) const {
    if (state >= chain_.n_states())
        throw std::out_of_range("AnnotatedMarkovChain::sample_features: state");
    if (out.size() != names_.size())
        throw std::invalid_argument(
            "AnnotatedMarkovChain::sample_features: output size mismatch");
    const auto* dist = dists_.data() + state * names_.size();
    for (double& x : out) x = (*dist++)->sample(rng);
}

AnnotatedStep AnnotatedMarkovChain::annotate(std::size_t state, sim::Rng& rng) const {
    std::vector<double> values(names_.size());
    sample_features(state, rng, values);
    AnnotatedStep step;
    step.state = state;
    for (std::size_t f = 0; f < names_.size(); ++f) step.features[names_[f]] = values[f];
    return step;
}

std::vector<AnnotatedStep> AnnotatedMarkovChain::generate(std::size_t length,
                                                          sim::Rng& rng) const {
    if (length == 0)
        throw std::invalid_argument("AnnotatedMarkovChain::generate: length 0");
    std::vector<AnnotatedStep> out;
    out.reserve(length);
    out.push_back(annotate(chain_.sample_initial(rng), rng));
    for (std::size_t i = 1; i < length; ++i)
        out.push_back(annotate(chain_.next_state(out.back().state, rng), rng));
    return out;
}

std::size_t AnnotatedMarkovChain::parameter_count() const {
    const std::size_t n = chain_.n_states();
    std::size_t params = n * n + n;  // transition matrix + initial distribution
    for (const auto& dist : dists_) {
        if (auto* emp = dynamic_cast<const stats::Empirical*>(dist.get()))
            params += emp->size();
        else
            params += 2;  // typical parametric family
    }
    return params;
}

std::string AnnotatedMarkovChain::describe() const {
    std::ostringstream os;
    os << "AnnotatedMarkovChain: " << chain_.n_states() << " states, features {";
    bool first = true;
    for (const auto& name : feature_names()) {
        os << (first ? "" : ", ") << name;
        first = false;
    }
    os << "}, ~" << parameter_count() << " params";
    return os.str();
}

}  // namespace kooza::markov
