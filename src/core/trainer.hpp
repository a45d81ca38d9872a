// KOOZA trainer: fits a ServerModel from a TraceSet.
//
// "Each one of the four models is trained using traces from the
// corresponding subsystem" (paper, Section 4); the structure queue is
// trained from the Dapper-style span trees ("tracing the complete round
// trip of a request through the system"). The trainer never sees the
// simulator — only trace records.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/structure.hpp"
#include "trace/features.hpp"
#include "trace/traceset.hpp"

namespace kooza::core {

/// Canonical GFS phase order for a request type: the names of the read or
/// write path table (gfs::path_of, paper Fig. 1), the fallback structure
/// when span sampling recorded no tree for the type. A write's
/// repl.forward appears once, between the primary disk write and the ack.
[[nodiscard]] std::vector<std::string> canonical_phases(trace::IoType t);

/// The arrival-process recipe shared by KOOZA's network sub-model and the
/// in-depth baseline: an exponential fit to the inter-arrival gaps, or the
/// empirical gaps (trace-driven) when the fit's KS distance exceeds
/// `ks_threshold`. Fewer than three requests yield a unit-rate Poisson.
[[nodiscard]] std::unique_ptr<queueing::ArrivalProcess> fit_arrivals(
    const std::vector<trace::RequestFeatures>& features, double ks_threshold);

struct TrainerConfig {
    std::string workload_name = "workload";

    /// Markov state-space sizes (paper Fig. 2 draws 4 of each).
    std::size_t lbn_ranges = 4;
    std::size_t util_levels = 4;
    /// 0 = infer from the memory records (max bank + 1).
    std::size_t banks = 0;
    /// LBN address-space size; 0 = infer (next power of two above max LBN).
    std::uint64_t lbn_space = 0;

    /// Laplace smoothing for chain fitting.
    double laplace_alpha = 0.5;
    /// Per-state feature fits fall back to empirical above this KS distance.
    double ks_threshold = 0.08;
    /// Arrival process falls back to trace-driven above this KS distance
    /// (Sengupta: traffic often diverges from Poisson).
    double arrival_ks_threshold = 0.1;

    /// If a request type has no sampled span trees (aggressive Dapper
    /// sampling), substitute the canonical GFS phase order instead of
    /// failing. Disable to require observed structure.
    bool fallback_structure = true;
};

class Trainer {
public:
    explicit Trainer(TrainerConfig cfg = {});

    /// Fit a full KOOZA server model. Throws std::invalid_argument when
    /// the trace set has no completed requests.
    [[nodiscard]] ServerModel train(const trace::TraceSet& ts) const;

    /// Fit the same model from a kooza.trace/1 capture directory without
    /// ever materializing the TraceSet: trace::ChunkedReader::
    /// for_each_chunk hands over `chunk_rows` rows at a time, and each
    /// chunk goes through the same fold train() applies to its whole
    /// trace set (trace::FeatureAccumulator, core::StructureAccumulator
    /// and a few running sums), so training memory is O(requests +
    /// sampled spans) instead of O(records). The serialized model is
    /// byte-identical to train() on the materialized trace set. Throws
    /// std::runtime_error on a malformed capture and
    /// std::invalid_argument when `chunk_rows` is 0 or the capture holds
    /// no completed requests.
    [[nodiscard]] ServerModel train_streaming(
        const std::filesystem::path& dir,
        std::size_t chunk_rows = std::size_t(1) << 16) const;

    [[nodiscard]] const TrainerConfig& config() const noexcept { return cfg_; }

private:
    /// Everything train_impl needs, folded from one chunk or many: a
    /// TraceSet is a single chunk.
    struct TrainInputs;

    [[nodiscard]] ServerModel train_impl(TrainInputs in) const;

    TrainerConfig cfg_;
};

}  // namespace kooza::core
