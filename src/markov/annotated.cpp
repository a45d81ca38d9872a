#include "markov/annotated.hpp"

#include <set>
#include <sstream>
#include <stdexcept>

#include "stats/empirical.hpp"
#include "stats/fitting.hpp"

namespace kooza::markov {

AnnotatedMarkovChain::AnnotatedMarkovChain(
    MarkovChain chain,
    std::vector<std::map<std::string, std::unique_ptr<stats::Distribution>>> per_state)
    : chain_(std::move(chain)), per_state_(std::move(per_state)) {}

AnnotatedMarkovChain AnnotatedMarkovChain::from_parts(
    MarkovChain chain,
    std::vector<std::map<std::string, std::unique_ptr<stats::Distribution>>>
        per_state) {
    if (per_state.size() != chain.n_states())
        throw std::invalid_argument(
            "AnnotatedMarkovChain::from_parts: state count mismatch");
    for (const auto& feats : per_state)
        for (const auto& [name, dist] : feats)
            if (!dist)
                throw std::invalid_argument(
                    "AnnotatedMarkovChain::from_parts: null distribution for " + name);
    return AnnotatedMarkovChain(std::move(chain), std::move(per_state));
}

AnnotatedMarkovChain AnnotatedMarkovChain::fit(
    std::span<const AnnotatedSequence> sequences, std::size_t n_states, double alpha,
    double ks_threshold) {
    // Validate alignment, collect the feature-name universe, and count
    // transitions — sufficient statistics instead of copied sequences.
    std::set<std::string> names;
    ChainSuffStats chain_stats(n_states);
    for (const auto& seq : sequences) {
        for (const auto& [name, vals] : seq.features) {
            if (vals.size() != seq.states.size())
                throw std::invalid_argument(
                    "AnnotatedMarkovChain::fit: feature '" + name +
                    "' not aligned with states");
            names.insert(name);
        }
        chain_stats.observe(seq.states);
    }
    MarkovChain chain = MarkovChain::fit_counts(chain_stats, alpha);

    // Bucket feature values by state.
    std::vector<std::map<std::string, std::vector<double>>> buckets(n_states);
    std::map<std::string, std::vector<double>> global;
    for (const auto& seq : sequences)
        for (const auto& [name, vals] : seq.features)
            for (std::size_t i = 0; i < vals.size(); ++i) {
                buckets[seq.states[i]][name].push_back(vals[i]);
                global[name].push_back(vals[i]);
            }

    std::vector<std::map<std::string, std::unique_ptr<stats::Distribution>>> per_state(
        n_states);
    for (std::size_t s = 0; s < n_states; ++s)
        for (const auto& name : names) {
            auto it = buckets[s].find(name);
            const auto& vals = (it != buckets[s].end() && !it->second.empty())
                                   ? it->second
                                   : global.at(name);
            if (vals.empty())
                throw std::invalid_argument(
                    "AnnotatedMarkovChain::fit: feature '" + name + "' has no data");
            per_state[s][name] = stats::fit_or_empirical(vals, ks_threshold);
        }
    return AnnotatedMarkovChain(std::move(chain), std::move(per_state));
}

std::vector<std::string> AnnotatedMarkovChain::feature_names() const {
    std::vector<std::string> out;
    if (per_state_.empty()) return out;
    for (const auto& [name, dist] : per_state_.front()) out.push_back(name);
    return out;
}

const stats::Distribution& AnnotatedMarkovChain::feature(std::size_t state,
                                                         const std::string& name) const {
    if (state >= per_state_.size())
        throw std::out_of_range("AnnotatedMarkovChain::feature: state");
    auto it = per_state_[state].find(name);
    if (it == per_state_[state].end())
        throw std::out_of_range("AnnotatedMarkovChain::feature: unknown feature " + name);
    return *it->second;
}

AnnotatedStep AnnotatedMarkovChain::annotate(std::size_t state, sim::Rng& rng) const {
    if (state >= per_state_.size())
        throw std::out_of_range("AnnotatedMarkovChain::annotate: state");
    AnnotatedStep step;
    step.state = state;
    for (const auto& [name, dist] : per_state_[state])
        step.features[name] = dist->sample(rng);
    return step;
}

AnnotatedStep AnnotatedMarkovChain::step_from(std::size_t state, sim::Rng& rng) const {
    return annotate(chain_.next_state(state, rng), rng);
}

std::vector<AnnotatedStep> AnnotatedMarkovChain::generate(std::size_t length,
                                                          sim::Rng& rng) const {
    if (length == 0)
        throw std::invalid_argument("AnnotatedMarkovChain::generate: length 0");
    std::vector<AnnotatedStep> out;
    out.reserve(length);
    out.push_back(annotate(chain_.sample_initial(rng), rng));
    for (std::size_t i = 1; i < length; ++i)
        out.push_back(step_from(out.back().state, rng));
    return out;
}

std::size_t AnnotatedMarkovChain::parameter_count() const {
    const std::size_t n = chain_.n_states();
    std::size_t params = n * n + n;  // transition matrix + initial distribution
    for (const auto& feats : per_state_)
        for (const auto& [name, dist] : feats) {
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
