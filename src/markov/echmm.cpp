#include "markov/echmm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "stats/hypothesis.hpp"

namespace kooza::markov {

namespace {
constexpr double kLog2Pi = 1.8378770664093453;
constexpr double kSigmaFloor = 1e-6;

struct EchmmMetrics {
    obs::Counter& ll_decreased = obs::counter("markov.echmm.ll_decreased_total");
    obs::Counter& fits = obs::counter("markov.echmm.fits_total");
};

EchmmMetrics& echmm_metrics() {
    static EchmmMetrics m;
    return m;
}

/// Gaussian log-density, with log(sigma) hoisted out by the caller.
double log_density(double x, double mu, double sigma, double log_sigma) {
    const double d = (x - mu) / sigma;
    return -0.5 * (kLog2Pi + d * d) - log_sigma;
}
}  // namespace

void Echmm::log_sigmas(std::vector<double>& out) const {
    out.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) out[i] = std::log(sigma_[i]);
}

Echmm::Fitter::Fitter(std::size_t n_states, double tol)
    : m_(n_states), tol_(tol), prev_ll_(-std::numeric_limits<double>::infinity()) {
    if (n_states == 0) throw std::invalid_argument("Echmm::Fitter: n_states 0");
}

void Echmm::Fitter::initialize(std::span<const double> pooled, std::uint64_t seed,
                               std::size_t restart) {
    const std::size_t n_states = m_.n_;
    if (pooled.size() < 2 * n_states)
        throw std::invalid_argument("Echmm::fit: too little data for state count");
    stats::require_finite(pooled, "Echmm::fit");
    std::vector<double> sorted(pooled.begin(), pooled.end());
    std::sort(sorted.begin(), sorted.end());

    // Quantile initialization of the emissions.
    m_.mu_.resize(n_states);
    m_.sigma_.resize(n_states);
    const std::size_t per = sorted.size() / n_states;
    for (std::size_t k = 0; k < n_states; ++k) {
        const std::size_t lo = k * per;
        const std::size_t hi = (k + 1 == n_states) ? sorted.size() : (k + 1) * per;
        double mean = 0.0;
        for (std::size_t i = lo; i < hi; ++i) mean += sorted[i];
        mean /= double(hi - lo);
        double var = 0.0;
        for (std::size_t i = lo; i < hi; ++i)
            var += (sorted[i] - mean) * (sorted[i] - mean);
        var /= double(hi - lo);
        m_.mu_[k] = mean;
        m_.sigma_[k] = std::max(std::sqrt(var), kSigmaFloor);
    }
    // Fall back to a global spread when a quantile bucket is degenerate.
    double gmean = 0.0;
    for (double x : sorted) gmean += x;
    gmean /= double(sorted.size());
    double gvar = 0.0;
    for (double x : sorted) gvar += (x - gmean) * (x - gmean);
    gvar /= double(sorted.size());
    const double gsd = std::max(std::sqrt(gvar), kSigmaFloor);
    for (auto& s : m_.sigma_)
        if (s < gsd * 1e-6) s = gsd * 0.1;

    // Randomized restart: jitter the initial means so each restart climbs
    // from a different basin. Restart 0 stays deterministic (byte-compat
    // with the single-restart fit regardless of seed).
    if (restart > 0) {
        sim::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * std::uint64_t(restart)));
        for (auto& mu : m_.mu_) mu += rng.normal(0.0, gsd * 0.25);
    }

    m_.pi_.assign(n_states, 1.0 / double(n_states));
    m_.a_.assign(n_states, std::vector<double>(n_states,
                                               n_states > 1 ? 0.2 / double(n_states - 1)
                                                            : 1.0));
    if (n_states > 1)
        for (std::size_t i = 0; i < n_states; ++i) m_.a_[i][i] = 0.8;

    prev_ll_ = -std::numeric_limits<double>::infinity();
    m_.train_ll_ = 0.0;
    m_.iters_ = 0;
    iters_ = 0;
    initialized_ = true;
    in_iteration_ = false;
}

void Echmm::Fitter::begin_iteration() {
    if (!initialized_)
        throw std::logic_error("Echmm::Fitter: begin_iteration before initialize");
    const std::size_t n = m_.n_;
    pi_acc_.assign(n, 1e-10);
    a_acc_.assign(n, std::vector<double>(n, 1e-10));
    gamma_all_.assign(n, 1e-10);
    x_acc_.assign(n, 0.0);
    x2_acc_.assign(n, 0.0);
    total_ll_ = 0.0;
    in_iteration_ = true;
}

void Echmm::Fitter::accumulate(std::span<const double> seq) {
    if (!in_iteration_)
        throw std::logic_error("Echmm::Fitter: accumulate outside an iteration");
    const std::size_t T = seq.size();
    if (T == 0) return;
    const std::size_t n = m_.n_;
    const auto& a = m_.a_;
    // One emission density per (t, state); every pass below reads it.
    m_.log_sigmas(log_sigma_);
    emit_.resize(T * n);
    for (std::size_t t = 0; t < T; ++t)
        for (std::size_t j = 0; j < n; ++j)
            emit_[t * n + j] = std::exp(
                log_density(seq[t], m_.mu_[j], m_.sigma_[j], log_sigma_[j]));
    alpha_.resize(T * n);
    beta_.resize(T * n);
    scale_.assign(T, 0.0);
    const double* emit = emit_.data();
    double* alpha = alpha_.data();
    double* beta = beta_.data();
    double* scale = scale_.data();
    // Scaled forward.
    for (std::size_t i = 0; i < n; ++i) alpha[i] = m_.pi_[i] * emit[i];
    for (std::size_t i = 0; i < n; ++i) scale[0] += alpha[i];
    scale[0] = std::max(scale[0], 1e-300);
    for (std::size_t i = 0; i < n; ++i) alpha[i] /= scale[0];
    for (std::size_t t = 1; t < T; ++t) {
        const double* prev = alpha + (t - 1) * n;
        double* cur = alpha + t * n;
        for (std::size_t j = 0; j < n; ++j) {
            double s = 0.0;
            for (std::size_t i = 0; i < n; ++i) s += prev[i] * a[i][j];
            cur[j] = s * emit[t * n + j];
        }
        for (std::size_t j = 0; j < n; ++j) scale[t] += cur[j];
        scale[t] = std::max(scale[t], 1e-300);
        for (std::size_t j = 0; j < n; ++j) cur[j] /= scale[t];
    }
    for (std::size_t t = 0; t < T; ++t) total_ll_ += std::log(scale[t]);
    // Scaled backward.
    for (std::size_t i = 0; i < n; ++i) beta[(T - 1) * n + i] = 1.0;
    for (std::size_t t = T - 1; t-- > 0;) {
        const double* e1 = emit + (t + 1) * n;
        const double* b1 = beta + (t + 1) * n;
        for (std::size_t i = 0; i < n; ++i) {
            double s = 0.0;
            for (std::size_t j = 0; j < n; ++j) s += a[i][j] * e1[j] * b1[j];
            beta[t * n + i] = s / scale[t + 1];
        }
    }
    // Gamma accumulation: first/second moments per state, so the M-step
    // can form the variance against the updated mean.
    for (std::size_t t = 0; t < T; ++t) {
        const double* at = alpha + t * n;
        const double* bt = beta + t * n;
        double norm = 0.0;
        for (std::size_t i = 0; i < n; ++i) norm += at[i] * bt[i];
        norm = std::max(norm, 1e-300);
        for (std::size_t i = 0; i < n; ++i) {
            const double g = at[i] * bt[i] / norm;
            gamma_all_[i] += g;
            x_acc_[i] += g * seq[t];
            x2_acc_[i] += g * seq[t] * seq[t];
            if (t == 0) pi_acc_[i] += g;
        }
    }
    // Xi accumulation.
    xi_.resize(n * n);
    for (std::size_t t = 0; t + 1 < T; ++t) {
        const double* at = alpha + t * n;
        const double* e1 = emit + (t + 1) * n;
        const double* b1 = beta + (t + 1) * n;
        double norm = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j) {
                xi_[i * n + j] = at[i] * a[i][j] * e1[j] * b1[j];
                norm += xi_[i * n + j];
            }
        norm = std::max(norm, 1e-300);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j) a_acc_[i][j] += xi_[i * n + j] / norm;
    }
}

bool Echmm::Fitter::end_iteration() {
    if (!in_iteration_)
        throw std::logic_error("Echmm::Fitter: end_iteration outside an iteration");
    in_iteration_ = false;
    const std::size_t n = m_.n_;
    double pi_norm = 0.0;
    for (double p : pi_acc_) pi_norm += p;
    for (std::size_t i = 0; i < n; ++i) m_.pi_[i] = pi_acc_[i] / pi_norm;
    for (std::size_t i = 0; i < n; ++i) {
        double row = 0.0;
        for (std::size_t j = 0; j < n; ++j) row += a_acc_[i][j];
        for (std::size_t j = 0; j < n; ++j) m_.a_[i][j] = a_acc_[i][j] / row;
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double mu = x_acc_[i] / gamma_all_[i];
        // E[x^2] - mu^2 against the *updated* mean; clamp the (possible)
        // tiny negative from catastrophic cancellation.
        const double var = std::max(x2_acc_[i] / gamma_all_[i] - mu * mu, 0.0);
        m_.mu_[i] = mu;
        m_.sigma_[i] = std::max(std::sqrt(var), kSigmaFloor);
    }
    m_.train_ll_ = total_ll_;
    m_.iters_ = ++iters_;
    if (total_ll_ < prev_ll_) echmm_metrics().ll_decreased.add();
    // |delta| guard: a decrease is numerical noise from the floored
    // accumulators, never evidence of convergence. prev_ll_ starts at
    // -inf, so the first iteration can never satisfy this.
    const bool converged = std::abs(total_ll_ - prev_ll_) < tol_;
    prev_ll_ = total_ll_;
    return converged;
}

Echmm Echmm::fit(std::span<const std::vector<double>> sequences,
                 std::size_t n_states, std::size_t max_iter, double tol,
                 std::uint64_t seed, std::size_t n_restarts) {
    if (n_states == 0) throw std::invalid_argument("Echmm::fit: n_states 0");
    if (n_restarts == 0) throw std::invalid_argument("Echmm::fit: n_restarts 0");
    std::vector<double> pooled;
    for (const auto& s : sequences) pooled.insert(pooled.end(), s.begin(), s.end());
    if (pooled.size() < 2 * n_states)
        throw std::invalid_argument("Echmm::fit: too little data for state count");
    echmm_metrics().fits.add();

    std::optional<Echmm> best;
    for (std::size_t restart = 0; restart < n_restarts; ++restart) {
        Fitter fitter(n_states, tol);
        fitter.initialize(pooled, seed, restart);
        for (std::size_t iter = 0; iter < max_iter; ++iter) {
            fitter.begin_iteration();
            for (const auto& seq : sequences) fitter.accumulate(seq);
            if (fitter.end_iteration()) break;
        }
        if (!best || fitter.model().training_log_likelihood() >
                         best->training_log_likelihood())
            best = fitter.model();
    }
    return *best;
}

double Echmm::transition(std::size_t i, std::size_t j) const {
    if (i >= n_ || j >= n_) throw std::out_of_range("Echmm::transition");
    return a_[i][j];
}

double Echmm::emission_mean(std::size_t i) const {
    if (i >= n_) throw std::out_of_range("Echmm::emission_mean");
    return mu_[i];
}

double Echmm::emission_stddev(std::size_t i) const {
    if (i >= n_) throw std::out_of_range("Echmm::emission_stddev");
    return sigma_[i];
}

double Echmm::log_likelihood(std::span<const double> xs) const {
    if (xs.empty()) return 0.0;
    std::vector<double> log_sigma;
    log_sigmas(log_sigma);
    const auto emission = [&](std::size_t j, double x) {
        return std::exp(log_density(x, mu_[j], sigma_[j], log_sigma[j]));
    };
    std::vector<double> alpha(n_);
    double ll = 0.0;
    for (std::size_t i = 0; i < n_; ++i) alpha[i] = pi_[i] * emission(i, xs[0]);
    double scale = 0.0;
    for (double a : alpha) scale += a;
    scale = std::max(scale, 1e-300);
    for (auto& a : alpha) a /= scale;
    ll += std::log(scale);
    std::vector<double> next(n_);
    for (std::size_t t = 1; t < xs.size(); ++t) {
        for (std::size_t j = 0; j < n_; ++j) {
            double s = 0.0;
            for (std::size_t i = 0; i < n_; ++i) s += alpha[i] * a_[i][j];
            next[j] = s * emission(j, xs[t]);
        }
        scale = 0.0;
        for (double a : next) scale += a;
        scale = std::max(scale, 1e-300);
        for (std::size_t j = 0; j < n_; ++j) alpha[j] = next[j] / scale;
        ll += std::log(scale);
    }
    return ll;
}

std::vector<std::size_t> Echmm::viterbi(std::span<const double> xs) const {
    if (xs.empty()) return {};
    const std::size_t T = xs.size();
    std::vector<double> log_sigma;
    log_sigmas(log_sigma);
    const auto log_emission = [&](std::size_t j, double x) {
        return log_density(x, mu_[j], sigma_[j], log_sigma[j]);
    };
    std::vector<std::vector<double>> delta(T, std::vector<double>(n_));
    std::vector<std::vector<std::size_t>> psi(T, std::vector<std::size_t>(n_, 0));
    for (std::size_t i = 0; i < n_; ++i)
        delta[0][i] = std::log(std::max(pi_[i], 1e-300)) + log_emission(i, xs[0]);
    for (std::size_t t = 1; t < T; ++t)
        for (std::size_t j = 0; j < n_; ++j) {
            double best = -std::numeric_limits<double>::infinity();
            std::size_t arg = 0;
            for (std::size_t i = 0; i < n_; ++i) {
                const double v =
                    delta[t - 1][i] + std::log(std::max(a_[i][j], 1e-300));
                if (v > best) {
                    best = v;
                    arg = i;
                }
            }
            delta[t][j] = best + log_emission(j, xs[t]);
            psi[t][j] = arg;
        }
    std::vector<std::size_t> path(T);
    path[T - 1] = std::size_t(
        std::max_element(delta[T - 1].begin(), delta[T - 1].end()) -
        delta[T - 1].begin());
    for (std::size_t t = T - 1; t-- > 0;) path[t] = psi[t + 1][path[t + 1]];
    return path;
}

std::vector<double> Echmm::generate(std::size_t length, sim::Rng& rng) const {
    if (length == 0) throw std::invalid_argument("Echmm::generate: length 0");
    std::vector<double> out;
    out.reserve(length);
    std::size_t state = rng.weighted_index(pi_);
    out.push_back(rng.normal(mu_[state], sigma_[state]));
    for (std::size_t t = 1; t < length; ++t) {
        state = rng.weighted_index(a_[state]);
        out.push_back(rng.normal(mu_[state], sigma_[state]));
    }
    return out;
}

std::string Echmm::describe() const {
    std::ostringstream os;
    os << "Echmm(" << n_ << " states, " << parameter_count() << " params, trained "
       << iters_ << " iters, ll=" << train_ll_ << ")";
    return os.str();
}

}  // namespace kooza::markov
