#include "markov/chain.hpp"

#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace kooza::markov {

namespace {
void check_stochastic(std::span<const double> row, const char* what) {
    double s = 0.0;
    for (double p : row) {
        if (p < 0.0) throw std::invalid_argument(std::string(what) + ": negative entry");
        s += p;
    }
    if (std::fabs(s - 1.0) > 1e-6)
        throw std::invalid_argument(std::string(what) + ": row does not sum to 1");
}
}  // namespace

MarkovChain::MarkovChain(std::size_t n_states) : n_(n_states) {
    if (n_ == 0) throw std::invalid_argument("MarkovChain: need >= 1 state");
    p_.assign(n_, std::vector<double>(n_, 1.0 / double(n_)));
    init_.assign(n_, 1.0 / double(n_));
}

MarkovChain::MarkovChain(std::vector<std::vector<double>> transitions,
                         std::vector<double> initial)
    : n_(transitions.size()), p_(std::move(transitions)), init_(std::move(initial)) {
    if (n_ == 0) throw std::invalid_argument("MarkovChain: empty transition matrix");
    for (const auto& row : p_) {
        if (row.size() != n_) throw std::invalid_argument("MarkovChain: non-square matrix");
        check_stochastic(row, "MarkovChain transitions");
    }
    if (init_.size() != n_)
        throw std::invalid_argument("MarkovChain: initial distribution size mismatch");
    check_stochastic(init_, "MarkovChain initial");
}

ChainSuffStats::ChainSuffStats(std::size_t n)
    : n_states(n),
      initial(n, 0.0),
      transitions(n, std::vector<double>(n, 0.0)) {
    if (n == 0) throw std::invalid_argument("ChainSuffStats: need >= 1 state");
}

void ChainSuffStats::observe(std::span<const std::size_t> seq) {
    if (seq.empty()) return;
    for (std::size_t s : seq)
        if (s >= n_states)
            throw std::invalid_argument("MarkovChain::fit: state id out of range");
    ++sequences;
    initial[seq.front()] += 1.0;
    for (std::size_t i = 0; i + 1 < seq.size(); ++i)
        transitions[seq[i]][seq[i + 1]] += 1.0;
}

void ChainSuffStats::merge(const ChainSuffStats& other) {
    if (other.n_states != n_states)
        throw std::invalid_argument("ChainSuffStats::merge: state count mismatch");
    sequences += other.sequences;
    for (std::size_t i = 0; i < n_states; ++i) {
        initial[i] += other.initial[i];
        for (std::size_t j = 0; j < n_states; ++j)
            transitions[i][j] += other.transitions[i][j];
    }
}

MarkovChain MarkovChain::fit(std::span<const std::vector<std::size_t>> sequences,
                             std::size_t n_states, double alpha) {
    if (n_states == 0) throw std::invalid_argument("MarkovChain::fit: need >= 1 state");
    ChainSuffStats stats(n_states);
    for (const auto& seq : sequences) stats.observe(seq);
    return fit_counts(stats, alpha);
}

MarkovChain MarkovChain::fit_counts(const ChainSuffStats& stats, double alpha) {
    if (alpha < 0.0) throw std::invalid_argument("MarkovChain::fit: alpha must be >= 0");
    const std::size_t n_states = stats.n_states;
    if (stats.sequences == 0)
        throw std::invalid_argument("MarkovChain::fit: no non-empty sequences");
    // alpha + integer counts is exact, so this matches the incremental
    // alpha-seeded accumulation fit() historically performed.
    std::vector<std::vector<double>> counts(n_states,
                                            std::vector<double>(n_states, alpha));
    std::vector<double> init_counts(n_states, alpha);
    for (std::size_t i = 0; i < n_states; ++i) {
        init_counts[i] += stats.initial[i];
        for (std::size_t j = 0; j < n_states; ++j)
            counts[i][j] += stats.transitions[i][j];
    }
    // Normalize rows; a row with zero mass (alpha == 0 and state never seen
    // as a predecessor) becomes uniform.
    for (auto& row : counts) {
        double s = 0.0;
        for (double c : row) s += c;
        if (s <= 0.0)
            for (auto& c : row) c = 1.0 / double(n_states);
        else
            for (auto& c : row) c /= s;
    }
    double is = 0.0;
    for (double c : init_counts) is += c;
    for (auto& c : init_counts) c /= is;
    return MarkovChain(std::move(counts), std::move(init_counts));
}

double MarkovChain::transition(std::size_t i, std::size_t j) const {
    if (i >= n_ || j >= n_) throw std::out_of_range("MarkovChain::transition");
    return p_[i][j];
}

std::size_t MarkovChain::sample_initial(sim::Rng& rng) const {
    return rng.weighted_index(init_);
}

std::size_t MarkovChain::next_state(std::size_t i, sim::Rng& rng) const {
    if (i >= n_) throw std::out_of_range("MarkovChain::next_state");
    return rng.weighted_index(p_[i]);
}

std::vector<std::size_t> MarkovChain::sample_path(std::size_t length,
                                                  sim::Rng& rng) const {
    if (length == 0) throw std::invalid_argument("MarkovChain::sample_path: length 0");
    std::vector<std::size_t> path(length);
    path[0] = sample_initial(rng);
    for (std::size_t i = 1; i < length; ++i) path[i] = next_state(path[i - 1], rng);
    return path;
}

double MarkovChain::log_likelihood(std::span<const std::size_t> seq) const {
    if (seq.empty()) return 0.0;
    for (std::size_t s : seq)
        if (s >= n_) throw std::invalid_argument("MarkovChain::log_likelihood: bad state");
    double ll = init_[seq.front()] > 0.0
                    ? std::log(init_[seq.front()])
                    : -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
        const double p = p_[seq[i]][seq[i + 1]];
        if (p <= 0.0) return -std::numeric_limits<double>::infinity();
        ll += std::log(p);
    }
    return ll;
}

std::string MarkovChain::to_string(int precision) const {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision);
    os << "MarkovChain(" << n_ << " states)\n  init:";
    for (double p : init_) os << " " << p;
    os << "\n";
    for (std::size_t i = 0; i < n_; ++i) {
        os << "  s" << i << " ->";
        for (std::size_t j = 0; j < n_; ++j) os << " " << p_[i][j];
        os << "\n";
    }
    return os.str();
}

}  // namespace kooza::markov
