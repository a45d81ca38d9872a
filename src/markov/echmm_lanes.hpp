// Internal: the Baum-Welch E-step kernel behind Echmm::Fitter.
//
// One run of the kernel takes a batch of up to W equal-length sequences
// (detail::Estep, filled by Fitter::accumulate) and adds their expectation
// sums to the iteration's totals:
//   1. Emission densities, one row per (step, sequence); a step whose
//      observation equals one of the last few values computed in the batch
//      copies that value's row instead of calling exp again.
//   2. Scaled forward and backward passes on the W sequences at once, one
//      sequence per lane of a GCC/Clang vector of W doubles. Each lane
//      performs the scalar recurrence's operations in the scalar order, so
//      W latency-bound dependency chains share one instruction stream.
//      Each step's row is transposed in registers into per-sequence rows.
//   3. Gamma and xi, sequence by sequence in input order, over those
//      per-sequence rows, vectorized across states. Every sum — the
//      log-likelihood, pi, the transition and moment accumulators, each
//      normalizer — adds its terms in the order the one-sequence-at-a-time
//      E-step did.
// The fit is therefore bit-identical to that E-step at every lane width,
// provided the compiler contracts no multiply-add into an FMA (the
// libraries build with -ffp-contract=off; the AVX2 kernel enables avx2,
// never fma).
//
// N is the state count when it is known at compile time (N = 0 reads it
// from the model at run time); W is the lane count. native_kernel (in
// echmm.cpp) picks W = 4 under AVX2 when the CPU has it and W = 2 (SSE2)
// otherwise; the lane-width tests instantiate W = 1, 2 and 4 here.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "markov/echmm.hpp"

namespace kooza::markov::detail {

inline constexpr double kLog2Pi = 1.8378770664093453;

/// Gaussian log-density, with log(sigma) hoisted out by the caller.
inline double log_density(double x, double mu, double sigma, double log_sigma) {
    const double d = (x - mu) / sigma;
    return -0.5 * (kLog2Pi + d * d) - log_sigma;
}

/// What a batch reads of the current model.
struct EstepModel {
    std::size_t n;
    const double* pi;         ///< n
    const double* a;          ///< n x n, row-major
    const double* mu;         ///< n
    const double* sigma;      ///< n
    const double* log_sigma;  ///< n
};

/// Doubles of Estep::work a batch of `count` sequences of length T uses
/// at `lanes` lanes: the lane tables, then each sequence's rows padded to
/// whole vectors, then 64 bytes of alignment slack.
inline std::size_t work_doubles(std::size_t n, std::size_t T, std::size_t lanes,
                                std::size_t count) {
    const std::size_t padded = (n + lanes - 1) / lanes * lanes;
    return lanes * (n * n + T * n + T + 4 * n) + padded * (3 * count * T + 3 * n + 4) + 8;
}

template <std::size_t W>
struct Lanes {
    /// W doubles, one sequence per lane. may_alias: the tables are carved
    /// out of Estep::work, a vector of doubles, and read both ways.
    typedef double V __attribute__((vector_size(W * sizeof(double)), may_alias));
};

/// `v` as the doubles it holds.
template <typename V>
[[gnu::always_inline]] inline double* as_doubles(V* v) {
    return reinterpret_cast<double*>(v);
}
template <typename V>
[[gnu::always_inline]] inline const double* as_doubles(const V* v) {
    return reinterpret_cast<const double*>(v);
}

/// dst[0, n) = src[0, n) and dst[n, padded) = 0.
[[gnu::always_inline]] inline void pad_row(double* dst, const double* src, std::size_t n,
                                           std::size_t padded) {
    std::copy_n(src, n, dst);
    std::fill(dst + n, dst + padded, 0.0);
}

/// Transpose the W x W block in[0, rows) (the vectors past `rows` read as
/// zero) and store its first `lanes` rows: element k of out[l * stride] is
/// element l of in[k], for l < lanes.
template <std::size_t W, typename V>
[[gnu::always_inline]] inline void store_transposed(const V* in, std::size_t rows, V* out,
                                                    std::size_t stride, std::size_t lanes) {
    V v[W];
    for (std::size_t k = 0; k < W; ++k) v[k] = k < rows ? in[k] : V{};
    V t[W];
    if constexpr (W == 1) {
        t[0] = v[0];
    } else if constexpr (W == 2) {
        t[0] = __builtin_shufflevector(v[0], v[1], 0, 2);
        t[1] = __builtin_shufflevector(v[0], v[1], 1, 3);
    } else {
        static_assert(W == 4, "lane widths are 1, 2 and 4");
        const V lo01 = __builtin_shufflevector(v[0], v[1], 0, 4, 2, 6);
        const V hi01 = __builtin_shufflevector(v[0], v[1], 1, 5, 3, 7);
        const V lo23 = __builtin_shufflevector(v[2], v[3], 0, 4, 2, 6);
        const V hi23 = __builtin_shufflevector(v[2], v[3], 1, 5, 3, 7);
        t[0] = __builtin_shufflevector(lo01, lo23, 0, 1, 4, 5);
        t[1] = __builtin_shufflevector(hi01, hi23, 0, 1, 4, 5);
        t[2] = __builtin_shufflevector(lo01, lo23, 2, 3, 6, 7);
        t[3] = __builtin_shufflevector(hi01, hi23, 2, 3, 6, 7);
    }
    for (std::size_t l = 0; l < W; ++l)
        if (l < lanes) out[l * stride] = t[l];
}

/// Run the pending batch of `s` under `m` and add its sums to `s`.
template <std::size_t N, std::size_t W>
[[gnu::always_inline]] inline void estep(const EstepModel& m, Estep& s) {
    using V = typename Lanes<W>::V;
    const std::size_t n = N ? N : m.n;
    const std::size_t T = s.T;
    const std::size_t nn = n * n;
    // A row of the n states, per sequence, is S vectors, zero past n - 1.
    const std::size_t S = (n + W - 1) / W;
    const std::size_t P = S * W;
    const std::size_t need = work_doubles(n, T, W, s.count);
    if (s.work.size() < need) s.work.resize(need);
    const auto base = reinterpret_cast<std::uintptr_t>(s.work.data());
    V* const A = reinterpret_cast<V*>((base + 63) & ~std::uintptr_t(63));  // n x n
    V* const emit = A + nn;              // T x n, one sequence per lane
    V* const scale = emit + T * n;       // T
    V* const fwd = scale + T;            // forward rows of two steps, 2 x n
    V* const bwd = fwd + 2 * n;          // backward rows of two steps, 2 x n
    V* const rows = bwd + 2 * n;         // per sequence: emission, forward, backward
    V* const ar = rows + 3 * s.count * T * S;  // transition rows, n x S
    V* const xr = ar + n * S;            // one step's xi rows, n x S
    V* const sum_a = xr + n * S;         // the sums: n x S, then S each
    V* const sum_g = sum_a + n * S;
    V* const sum_x = sum_g + S;
    V* const sum_x2 = sum_x + S;
    V* const sum_pi = sum_x2 + S;
    const std::size_t table = T * S;  // one per-sequence table, T rows
    const V zero = {};
    const V floor = zero + 1e-300;

    for (std::size_t k = 0; k < nn; ++k) A[k] = zero + m.a[k];

    // Emission rows, lane by lane: lane l of emit[k] is ed[k * W + l], and
    // sequence l's own rows get a copy. A step whose observation equals one
    // of the last kRecent values computed in the batch copies that value's
    // row: the same x gives the same densities, and the bounded lookup costs
    // a stream of distinct values a few compares a step. An idle lane (a
    // batch of fewer than W sequences) runs on densities of 1; its results
    // are never read.
    constexpr std::size_t kRecent = 4;
    double recent_x[kRecent];
    const double* recent_row[kRecent];
    std::size_t computed = 0;  // rows computed so far; the newest kRecent are kept
    double* const ed = as_doubles(emit);
    for (std::size_t l = 0; l < W; ++l) {
        if (l >= s.count) {
            for (std::size_t k = 0; k < T * n; ++k) ed[k * W + l] = 1.0;
            continue;
        }
        const double* x = s.obs.data() + l * T;
        double* er = as_doubles(rows + 3 * l * table);
        for (std::size_t t = 0; t < T; ++t, er += P) {
            double* e = ed + t * n * W + l;
            const double* same = nullptr;
            for (std::size_t r = 0; r < std::min(computed, kRecent); ++r)
                if (recent_x[r] == x[t]) {
                    same = recent_row[r];
                    break;
                }
            if (same) {
                std::copy_n(same, P, er);
                for (std::size_t j = 0; j < n; ++j) e[j * W] = er[j];
                continue;
            }
            for (std::size_t j = 0; j < n; ++j)
                e[j * W] = er[j] = std::exp(
                    log_density(x[t], m.mu[j], m.sigma[j], m.log_sigma[j]));
            std::fill(er + n, er + P, 0.0);
            recent_x[computed % kRecent] = x[t];
            recent_row[computed % kRecent] = er;
            ++computed;
        }
    }

    // Scaled forward. std::max(s, 1e-300) is `s < 1e-300 ? 1e-300 : s`.
    V* prev = fwd + n;
    V* cur = fwd;
    for (std::size_t t = 0; t < T; ++t) {
        const V* e = emit + t * n;
        if (t == 0) {
            for (std::size_t i = 0; i < n; ++i) cur[i] = m.pi[i] * e[i];
        } else {
            std::swap(prev, cur);
            for (std::size_t j = 0; j < n; ++j) {
                V acc = zero;
#pragma GCC unroll 8
                for (std::size_t i = 0; i < n; ++i) acc += prev[i] * A[i * n + j];
                cur[j] = acc * e[j];
            }
        }
        V sc = zero;
#pragma GCC unroll 8
        for (std::size_t j = 0; j < n; ++j) sc += cur[j];
        sc = sc < floor ? floor : sc;
        for (std::size_t j = 0; j < n; ++j) cur[j] /= sc;
        scale[t] = sc;
        for (std::size_t c = 0; c < S; ++c)
            store_transposed<W>(cur + c * W, n - c * W, rows + table + t * S + c,
                                3 * table, s.count);
    }

    // Scaled backward.
    V* next = bwd + n;
    cur = bwd;
    for (std::size_t t = T; t-- > 0;) {
        if (t == T - 1) {
            for (std::size_t i = 0; i < n; ++i) cur[i] = zero + 1.0;
        } else {
            std::swap(next, cur);
            const V* e1 = emit + (t + 1) * n;
            for (std::size_t i = 0; i < n; ++i) {
                V acc = zero;
#pragma GCC unroll 8
                for (std::size_t j = 0; j < n; ++j) acc += A[i * n + j] * e1[j] * next[j];
                cur[i] = acc / scale[t + 1];
            }
        }
        for (std::size_t c = 0; c < S; ++c)
            store_transposed<W>(cur + c * W, n - c * W, rows + 2 * table + t * S + c,
                                3 * table, s.count);
    }

    // Posteriors, sequence by sequence, vectorized across states. The sums
    // are vectors of the same shape for the batch and go back to `s` at its
    // end.
    for (std::size_t i = 0; i < n; ++i) pad_row(as_doubles(ar + i * S), m.a + i * n, n, P);
    for (std::size_t i = 0; i < n; ++i)
        pad_row(as_doubles(sum_a + i * S), s.a_acc.data() + i * n, n, P);
    pad_row(as_doubles(sum_g), s.gamma_all.data(), n, P);
    pad_row(as_doubles(sum_x), s.x_acc.data(), n, P);
    pad_row(as_doubles(sum_x2), s.x2_acc.data(), n, P);
    pad_row(as_doubles(sum_pi), s.pi_acc.data(), n, P);
    const double* const scd = as_doubles(scale);
    double total_ll = s.total_ll;
    for (std::size_t l = 0; l < s.count; ++l) {
        const double* x = s.obs.data() + l * T;
        const V* const es = rows + 3 * l * table;
        const V* const as = es + table;
        const V* const bs = as + table;
        for (std::size_t t = 0; t < T; ++t) total_ll += std::log(scd[t * W + l]);
        // Gamma: first and second moments per state, so the M-step can form
        // the variance against the updated mean.
        for (std::size_t t = 0; t < T; ++t) {
            double norm = 0.0;
            for (std::size_t c = 0; c < S; ++c) {
                const V p = as[t * S + c] * bs[t * S + c];
                xr[c] = p;
#pragma GCC unroll 4
                for (std::size_t w = 0; w < W; ++w)
                    if (c * W + w < n) norm += p[w];
            }
            norm = std::max(norm, 1e-300);
            const V nv = zero + norm;
            const V xv = zero + x[t];
            for (std::size_t c = 0; c < S; ++c) {
                const V g = xr[c] / nv;
                sum_g[c] += g;
                sum_x[c] += g * xv;
                sum_x2[c] += g * xv * xv;
                if (t == 0) sum_pi[c] += g;
            }
        }
        // Xi.
        for (std::size_t t = 0; t + 1 < T; ++t) {
            const double* at = as_doubles(as + t * S);
            const V* e1 = es + (t + 1) * S;
            const V* b1 = bs + (t + 1) * S;
            double norm = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                const V ai = zero + at[i];
                for (std::size_t c = 0; c < S; ++c) {
                    const V v = ai * ar[i * S + c] * e1[c] * b1[c];
                    xr[i * S + c] = v;
#pragma GCC unroll 4
                    for (std::size_t w = 0; w < W; ++w)
                        if (c * W + w < n) norm += v[w];
                }
            }
            norm = std::max(norm, 1e-300);
            const V nv = zero + norm;
            for (std::size_t k = 0; k < n * S; ++k) sum_a[k] += xr[k] / nv;
        }
    }
    s.total_ll = total_ll;
    for (std::size_t i = 0; i < n; ++i)
        std::copy_n(as_doubles(sum_a + i * S), n, s.a_acc.data() + i * n);
    std::copy_n(as_doubles(sum_g), n, s.gamma_all.data());
    std::copy_n(as_doubles(sum_x), n, s.x_acc.data());
    std::copy_n(as_doubles(sum_x2), n, s.x2_acc.data());
    std::copy_n(as_doubles(sum_pi), n, s.pi_acc.data());
}

/// The W-lane kernel for `n` states: compiled for 2, 4 and 8 states, the
/// run-time count otherwise.
template <std::size_t W>
EstepKernel lanes_kernel(std::size_t n) {
    switch (n) {
    case 2: return {&estep<2, W>, W};
    case 4: return {&estep<4, W>, W};
    case 8: return {&estep<8, W>, W};
    default: return {&estep<0, W>, W};
    }
}

}  // namespace kooza::markov::detail
