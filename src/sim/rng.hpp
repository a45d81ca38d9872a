// Seeded random-number utility wrapping std::mt19937_64.
//
// Every stochastic component takes a Rng (or a seed) explicitly; nothing in
// the library reads global entropy, so all simulations, trainings and
// generations are reproducible from printed seeds.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace kooza::sim {

/// Deterministic random source. Thin convenience layer over mt19937_64
/// with the samplers the library needs.
class Rng {
public:
    explicit Rng(std::uint64_t seed = 42) : gen_(seed), seed_(seed) {}

    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

    /// Derive an independent child stream (for per-component RNGs).
    [[nodiscard]] Rng fork() { return Rng(gen_() ^ 0x9e3779b97f4a7c15ULL); }

    /// Uniform real in [lo, hi).
    double uniform(double lo = 0.0, double hi = 1.0) {
        return std::uniform_real_distribution<double>(lo, hi)(gen_);
    }

    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen_);
    }

    /// Exponential with rate lambda (mean 1/lambda).
    double exponential(double lambda) {
        return std::exponential_distribution<double>(lambda)(gen_);
    }

    double normal(double mean, double stddev) {
        return std::normal_distribution<double>(mean, stddev)(gen_);
    }

    double lognormal(double mu, double sigma) {
        return std::lognormal_distribution<double>(mu, sigma)(gen_);
    }

    /// Pareto with scale xm > 0 and shape alpha > 0 (support [xm, inf)).
    double pareto(double xm, double alpha) {
        double u = uniform(0.0, 1.0);
        // Guard against u == 0 which would yield infinity.
        if (u <= 0.0) u = 1e-16;
        return xm / std::pow(u, 1.0 / alpha);
    }

    /// Weibull with shape k > 0 and scale lambda > 0.
    double weibull(double k, double lambda) {
        return std::weibull_distribution<double>(k, lambda)(gen_);
    }

    /// Bernoulli trial with success probability p.
    bool bernoulli(double p) { return std::bernoulli_distribution(p)(gen_); }

    /// Geometric: number of failures before first success, p in (0,1].
    std::int64_t geometric(double p) {
        return std::geometric_distribution<std::int64_t>(p)(gen_);
    }

    std::int64_t poisson(double mean) {
        return std::poisson_distribution<std::int64_t>(mean)(gen_);
    }

    /// Sample an index according to non-negative weights (need not sum to 1).
    /// Throws if weights are empty or all zero.
    std::size_t weighted_index(std::span<const double> weights);

    /// Access the underlying engine (for std:: distribution objects).
    std::mt19937_64& engine() noexcept { return gen_; }

private:
    std::mt19937_64 gen_;
    std::uint64_t seed_;
};

}  // namespace kooza::sim
