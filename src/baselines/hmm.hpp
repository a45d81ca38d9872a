// HMM storage baseline: Harrison et al., "Storage Workload Modelling by
// Hidden Markov Models" (PAPERS.md) — the citable hidden-state competitor
// to KOOZA's observable Markov chains in the cross-examination.
//
// The request stream is discretized into two observation streams —
// log inter-arrival times and log2 request sizes — each cut into
// fixed-length segments (Harrison's per-epoch sequences) and fitted as a
// multi-sequence ECHMM (markov::Echmm, Baum-Welch). The size HMM's hidden
// states double as workload regimes: a per-state read probability is
// estimated by Viterbi-decoding the training segments, so generation ties
// the request mix to the regime. Features the HMMs do not model (network
// bytes, CPU busy time, memory traffic, bank, LBN) fall back to per-type
// means, like the in-depth baseline — the HMM's contribution is the
// *temporal* texture (regime persistence, arrival burstiness) plus the
// marginal size distribution, at a parameter budget far under KOOZA's
// annotated chains.
//
// Training folds trace chunks into one trace::FeatureAccumulator:
//   * train(ts)            — the materialized TraceSet is a single chunk;
//   * train_streaming(dir) — trace::ChunkedReader::for_each_chunk hands
//     over bounded row ranges (O(requests) memory, never a whole
//     TraceSet).
// Both then run the same Echmm::fit over the finished, arrival-sorted
// feature rows, so they produce byte-identical models on one capture.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/synthetic.hpp"
#include "markov/echmm.hpp"
#include "sim/rng.hpp"
#include "trace/features.hpp"
#include "trace/traceset.hpp"

namespace kooza::baselines {

struct HmmConfig {
    /// Hidden states per ECHMM (the --hmm-states knob; Harrison uses a
    /// handful of regimes), at most HmmModel::kMaxStates.
    std::size_t n_states = 4;
    std::size_t max_iter = 40;
    double tol = 1e-4;
    /// Seed for randomized Baum-Welch restarts; with the default
    /// n_restarts = 1 the fit is deterministic regardless of seed
    /// (Echmm::fit's restart-0 byte-compat contract).
    std::uint64_t seed = 1;
    std::size_t n_restarts = 1;
    /// Requests per Baum-Welch observation sequence (the multi-sequence
    /// unit); inter-arrival gaps never cross a boundary.
    std::size_t segment_length = 256;
};

class HmmModel {
public:
    /// Largest HmmConfig::n_states train() accepts. Each Baum-Welch
    /// iteration costs n^2 per observation (900 states on a 2,000-request
    /// capture ran for more than 20 s); Harrison's regimes and every bench
    /// use at most 16.
    static constexpr std::size_t kMaxStates = 64;

    /// Per-type scalar means for the features the HMMs do not model.
    struct FeatureMeans {
        double network_bytes = 0.0;
        double cpu_busy = 0.0;
        double memory_bytes = 0.0;
        trace::IoType memory_type = trace::IoType::kRead;
        double bank = 0.0;
        double lbn = 0.0;
        std::size_t count = 0;  ///< training requests of this type
    };

    /// Train from a materialized trace set. Throws std::invalid_argument
    /// when `n_states` is outside 1..kMaxStates or the trace has too few
    /// completed requests for it.
    static HmmModel train(const trace::TraceSet& ts, HmmConfig cfg = {});

    /// Train from a kooza.trace/1 capture directory without materializing
    /// the TraceSet (see file comment). Byte-identical to train() on the
    /// same capture. Throws std::runtime_error on a malformed capture and
    /// std::invalid_argument when `chunk_rows` is 0.
    static HmmModel train_streaming(const std::filesystem::path& dir,
                                    HmmConfig cfg = {},
                                    std::size_t chunk_rows = std::size_t(1) << 16);

    /// Generate synthetic requests: arrival times from the inter-arrival
    /// HMM walk, sizes + request type from the size HMM walk (type via the
    /// per-state read probability), remaining features from the per-type
    /// means. Phase lists stay empty — the HMM carries no structure
    /// information, so replay stresses subsystems independently.
    [[nodiscard]] core::SyntheticWorkload generate(std::size_t count,
                                                   sim::Rng& rng) const;

    [[nodiscard]] const markov::Echmm& interarrival_hmm() const noexcept {
        return iat_hmm_;
    }
    [[nodiscard]] const markov::Echmm& size_hmm() const noexcept {
        return size_hmm_;
    }
    [[nodiscard]] double read_fraction() const noexcept { return read_fraction_; }
    /// P(read | size-HMM state), Laplace-smoothed.
    [[nodiscard]] std::span<const double> state_read_prob() const noexcept {
        return state_read_prob_;
    }
    [[nodiscard]] const FeatureMeans& means(trace::IoType t) const noexcept {
        return t == trace::IoType::kRead ? read_means_ : write_means_;
    }

    /// Both ECHMMs + per-state read probabilities + read fraction + the
    /// per-type feature means.
    [[nodiscard]] std::size_t parameter_count() const;
    /// Wall-clock seconds the two Baum-Welch fits took (training cost).
    [[nodiscard]] double fit_wall_seconds() const noexcept { return fit_seconds_; }
    [[nodiscard]] std::size_t segments_fitted() const noexcept { return segments_; }
    [[nodiscard]] const HmmConfig& config() const noexcept { return cfg_; }

    [[nodiscard]] std::string describe() const;

private:
    HmmModel(HmmConfig cfg, markov::Echmm iat, markov::Echmm size)
        : cfg_(cfg), iat_hmm_(std::move(iat)), size_hmm_(std::move(size)) {}

    /// Shared back-half of both training paths: everything derives from
    /// the (arrival-sorted) feature rows, so materialized and chunked
    /// training converge on identical inputs here.
    static HmmModel fit_from_features(
        const std::vector<trace::RequestFeatures>& features, HmmConfig cfg);

    HmmConfig cfg_;
    markov::Echmm iat_hmm_;
    markov::Echmm size_hmm_;
    std::vector<double> state_read_prob_;
    double read_fraction_ = 1.0;
    FeatureMeans read_means_;
    FeatureMeans write_means_;
    double fit_seconds_ = 0.0;
    std::size_t segments_ = 0;
};

}  // namespace kooza::baselines
