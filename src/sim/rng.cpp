#include "sim/rng.hpp"

#include <cmath>
#include <numeric>

namespace kooza::sim {

std::size_t Rng::weighted_index(std::span<const double> weights) {
    if (weights.empty()) throw std::invalid_argument("Rng::weighted_index: empty weights");
    double total = 0.0;
    for (double w : weights) {
        if (w < 0.0 || !std::isfinite(w))
            throw std::invalid_argument("Rng::weighted_index: negative or non-finite weight");
        total += w;
    }
    if (total <= 0.0) throw std::invalid_argument("Rng::weighted_index: all weights zero");
    double r = uniform(0.0, total);
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (r < acc) return i;
    }
    return weights.size() - 1;  // floating-point edge: r == total
}

}  // namespace kooza::sim
