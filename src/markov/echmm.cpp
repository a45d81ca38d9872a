#include "markov/echmm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "markov/echmm_lanes.hpp"
#include "obs/metrics.hpp"
#include "stats/hypothesis.hpp"

namespace kooza::markov {

namespace {
constexpr double kSigmaFloor = 1e-6;

struct EchmmMetrics {
    obs::Counter& ll_decreased = obs::counter("markov.echmm.ll_decreased_total");
    obs::Counter& fits = obs::counter("markov.echmm.fits_total");
};

EchmmMetrics& echmm_metrics() {
    static EchmmMetrics m;
    return m;
}

using detail::log_density;

#if defined(__x86_64__)
/// The 4-lane kernel compiled for AVX2 (never FMA: a contracted
/// multiply-add rounds once where the scalar E-step rounded twice).
template <std::size_t N>
__attribute__((target("avx2"))) void estep_avx2(const detail::EstepModel& m,
                                                detail::Estep& s) {
    detail::estep<N, 4>(m, s);
}

bool has_avx2() noexcept {
    static const bool yes = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") != 0;
    }();
    return yes;
}
#endif

/// The widest kernel the CPU runs for `n_states`.
detail::EstepKernel native_kernel(std::size_t n_states) {
#if defined(__x86_64__)
    if (has_avx2()) {
        switch (n_states) {
        case 2: return {&estep_avx2<2>, 4};
        case 4: return {&estep_avx2<4>, 4};
        case 8: return {&estep_avx2<8>, 4};
        default: return {&estep_avx2<0>, 4};
        }
    }
#endif
    return detail::lanes_kernel<2>(n_states);
}

}  // namespace

void detail::use_kernel(Echmm::Fitter& fitter, EstepKernel kernel) {
    fitter.kernel_ = kernel;
    fitter.estep_.count = 0;
}

void Echmm::log_sigmas(double* out) const {
    for (std::size_t i = 0; i < n_; ++i) out[i] = std::log(sigma_[i]);
}

Echmm::Fitter::Fitter(std::size_t n_states, double tol)
    : m_(n_states),
      tol_(tol),
      prev_ll_(-std::numeric_limits<double>::infinity()),
      kernel_(native_kernel(n_states)) {
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
    m_.a_.assign(n_states * n_states,
                 n_states > 1 ? 0.2 / double(n_states - 1) : 1.0);
    if (n_states > 1)
        for (std::size_t i = 0; i < n_states; ++i) m_.a_[i * n_states + i] = 0.8;

    prev_ll_ = -std::numeric_limits<double>::infinity();
    m_.train_ll_ = 0.0;
    m_.iters_ = 0;
    iters_ = 0;
    initialized_ = true;
    in_iteration_ = false;
    estep_.count = 0;
}

void Echmm::Fitter::begin_iteration() {
    if (!initialized_)
        throw std::logic_error("Echmm::Fitter: begin_iteration before initialize");
    const std::size_t n = m_.n_;
    estep_.pi_acc.assign(n, 1e-10);
    estep_.a_acc.assign(n * n, 1e-10);
    estep_.gamma_all.assign(n, 1e-10);
    estep_.x_acc.assign(n, 0.0);
    estep_.x2_acc.assign(n, 0.0);
    estep_.total_ll = 0.0;
    estep_.count = 0;
    log_sigma_.resize(n);
    m_.log_sigmas(log_sigma_.data());
    in_iteration_ = true;
}

void Echmm::Fitter::accumulate(std::span<const double> seq) {
    if (!in_iteration_)
        throw std::logic_error("Echmm::Fitter: accumulate outside an iteration");
    const std::size_t T = seq.size();
    if (T == 0) return;
    if (estep_.count > 0 && estep_.T != T) run_batch();
    estep_.T = T;
    if (estep_.obs.size() < kernel_.lanes * T) estep_.obs.resize(kernel_.lanes * T);
    std::copy(seq.begin(), seq.end(), estep_.obs.begin() + estep_.count * T);
    if (++estep_.count == kernel_.lanes) run_batch();
}

void Echmm::Fitter::run_batch() {
    if (estep_.count == 0) return;
    const detail::EstepModel view{m_.n_,         m_.pi_.data(),    m_.a_.data(),
                                  m_.mu_.data(), m_.sigma_.data(), log_sigma_.data()};
    kernel_.run(view, estep_);
    estep_.count = 0;
}

bool Echmm::Fitter::end_iteration() {
    if (!in_iteration_)
        throw std::logic_error("Echmm::Fitter: end_iteration outside an iteration");
    run_batch();
    in_iteration_ = false;
    const std::size_t n = m_.n_;
    const auto& acc = estep_;
    double pi_norm = 0.0;
    for (double p : acc.pi_acc) pi_norm += p;
    for (std::size_t i = 0; i < n; ++i) m_.pi_[i] = acc.pi_acc[i] / pi_norm;
    for (std::size_t i = 0; i < n; ++i) {
        const double* row_acc = acc.a_acc.data() + i * n;
        double row = 0.0;
        for (std::size_t j = 0; j < n; ++j) row += row_acc[j];
        for (std::size_t j = 0; j < n; ++j) m_.a_[i * n + j] = row_acc[j] / row;
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double mu = acc.x_acc[i] / acc.gamma_all[i];
        // E[x^2] - mu^2 against the *updated* mean; clamp the (possible)
        // tiny negative from catastrophic cancellation.
        const double var = std::max(acc.x2_acc[i] / acc.gamma_all[i] - mu * mu, 0.0);
        m_.mu_[i] = mu;
        m_.sigma_[i] = std::max(std::sqrt(var), kSigmaFloor);
    }
    m_.train_ll_ = acc.total_ll;
    m_.iters_ = ++iters_;
    if (acc.total_ll < prev_ll_) echmm_metrics().ll_decreased.add();
    // |delta| guard: a decrease is numerical noise from the floored
    // accumulators, never evidence of convergence. prev_ll_ starts at
    // -inf, so the first iteration can never satisfy this.
    const bool converged = std::abs(acc.total_ll - prev_ll_) < tol_;
    prev_ll_ = acc.total_ll;
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
    return a_[i * n_ + j];
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
    const std::size_t n = n_;
    // One buffer: log sigma, the forward row and the next one.
    std::vector<double> buf(3 * n);
    double* const log_sigma = buf.data();
    double* const alpha = log_sigma + n;
    double* const next = alpha + n;
    log_sigmas(log_sigma);
    const auto emission = [&](std::size_t j, double x) {
        return std::exp(log_density(x, mu_[j], sigma_[j], log_sigma[j]));
    };
    double ll = 0.0;
    for (std::size_t i = 0; i < n; ++i) alpha[i] = pi_[i] * emission(i, xs[0]);
    double scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) scale += alpha[i];
    scale = std::max(scale, 1e-300);
    for (std::size_t i = 0; i < n; ++i) alpha[i] /= scale;
    ll += std::log(scale);
    for (std::size_t t = 1; t < xs.size(); ++t) {
        for (std::size_t j = 0; j < n; ++j) {
            double s = 0.0;
            for (std::size_t i = 0; i < n; ++i) s += alpha[i] * a_[i * n + j];
            next[j] = s * emission(j, xs[t]);
        }
        scale = 0.0;
        for (std::size_t j = 0; j < n; ++j) scale += next[j];
        scale = std::max(scale, 1e-300);
        for (std::size_t j = 0; j < n; ++j) alpha[j] = next[j] / scale;
        ll += std::log(scale);
    }
    return ll;
}

std::vector<std::size_t> Echmm::viterbi(std::span<const double> xs) const {
    if (xs.empty()) return {};
    const std::size_t T = xs.size();
    const std::size_t n = n_;
    // One buffer: log sigma, the log transitions (taken once per call, not
    // once per step) and the previous and current delta rows.
    std::vector<double> buf(n + n * n + 2 * n);
    double* const log_sigma = buf.data();
    double* const log_a = log_sigma + n;
    double* prev = log_a + n * n;
    double* cur = prev + n;
    log_sigmas(log_sigma);
    for (std::size_t k = 0; k < n * n; ++k) log_a[k] = std::log(std::max(a_[k], 1e-300));
    const auto log_emission = [&](std::size_t j, double x) {
        return log_density(x, mu_[j], sigma_[j], log_sigma[j]);
    };
    // psi[(t - 1) * n + j]: the best predecessor of state j at step t >= 1.
    std::vector<std::size_t> psi((T - 1) * n);
    for (std::size_t i = 0; i < n; ++i)
        prev[i] = std::log(std::max(pi_[i], 1e-300)) + log_emission(i, xs[0]);
    for (std::size_t t = 1; t < T; ++t) {
        for (std::size_t j = 0; j < n; ++j) {
            double best = -std::numeric_limits<double>::infinity();
            std::size_t arg = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const double v = prev[i] + log_a[i * n + j];
                if (v > best) {
                    best = v;
                    arg = i;
                }
            }
            cur[j] = best + log_emission(j, xs[t]);
            psi[(t - 1) * n + j] = arg;
        }
        std::swap(prev, cur);
    }
    std::vector<std::size_t> path(T);
    path[T - 1] = std::size_t(std::max_element(prev, prev + n) - prev);
    for (std::size_t t = T - 1; t-- > 0;) path[t] = psi[t * n + path[t + 1]];
    return path;
}

std::vector<double> Echmm::generate(std::size_t length, sim::Rng& rng) const {
    if (length == 0) throw std::invalid_argument("Echmm::generate: length 0");
    std::vector<double> out;
    out.reserve(length);
    std::size_t state = rng.weighted_index(pi_);
    out.push_back(rng.normal(mu_[state], sigma_[state]));
    for (std::size_t t = 1; t < length; ++t) {
        state = rng.weighted_index(std::span<const double>(a_).subspan(state * n_, n_));
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
