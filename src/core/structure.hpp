// The structure queue — KOOZA's time-dependencies model.
//
// "a queue, configurable for each workload, that demonstrates the
// structure of the application, i.e. the order in which each model becomes
// active" (paper, Section 4). It is trained from Dapper-style span trees:
// each sampled request contributes its phase sequence; the queue stores
// the observed sequence variants with probabilities plus a duration
// distribution per phase name.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/synthetic.hpp"
#include "sim/rng.hpp"
#include "stats/distributions.hpp"
#include "trace/span.hpp"

namespace kooza::core {

class StructureQueue {
public:
    /// One observed phase ordering and how often it occurred.
    struct Variant {
        std::vector<std::string> phases;
        double probability = 0.0;
        std::size_t count = 0;
    };

    /// Fit from span records, using only traces whose ids are in
    /// `trace_ids` (callers partition by request type). Root spans
    /// ("request") are excluded; phases are ordered by span start time.
    /// Throws std::invalid_argument if no usable trace is found or a
    /// wanted trace has no root span.
    static StructureQueue fit(const std::vector<trace::Span>& spans,
                              std::span<const trace::TraceId> trace_ids,
                              double ks_threshold = 0.08);

    /// Build a single-variant queue from a known phase order (used as a
    /// fallback when span sampling recorded no trace of a request type).
    /// Phase durations are point masses at 0 — structure only.
    static StructureQueue canonical(std::vector<std::string> phases);

    /// Reassemble from previously-fitted parts (deserialization). Variants
    /// are ordered by count, most frequent first; equal counts keep their
    /// input order, so a reloaded queue samples as the saved one did.
    /// Variant probabilities are renormalized from counts.
    static StructureQueue from_parts(
        std::vector<Variant> variants,
        std::map<std::string, std::unique_ptr<stats::Distribution>> durations,
        std::size_t trained_on);

    /// Variants sorted most-frequent first.
    [[nodiscard]] const std::vector<Variant>& variants() const noexcept {
        return variants_;
    }

    /// Most frequent phase ordering.
    [[nodiscard]] const std::vector<std::string>& dominant() const;

    /// Sample a phase ordering. Each variant is interned once, when the
    /// queue is built, so a sample copies a handle.
    [[nodiscard]] PhaseOrder sample(sim::Rng& rng) const;

    /// Duration distribution of a phase (over all variants). Throws on an
    /// unknown phase name.
    [[nodiscard]] const stats::Distribution& phase_duration(
        const std::string& phase) const;

    [[nodiscard]] bool has_phase(const std::string& phase) const noexcept;
    [[nodiscard]] std::vector<std::string> phase_names() const;

    /// Number of traces the queue was trained on.
    [[nodiscard]] std::size_t training_traces() const noexcept { return trained_on_; }

    /// Model size: variant entries + 2 params per phase-duration fit.
    [[nodiscard]] std::size_t parameter_count() const noexcept;

    [[nodiscard]] std::string describe() const;

private:
    StructureQueue() = default;

    std::vector<Variant> variants_;
    std::vector<double> weights_;     ///< aligned with variants_, for sampling
    std::vector<PhaseOrder> orders_;  ///< aligned with variants_, interned
    std::map<std::string, std::unique_ptr<stats::Distribution>> durations_;
    std::size_t trained_on_ = 0;
};

/// Chunk-feedable span collector behind StructureQueue::fit. Spans arrive
/// in any order, one record or one chunk at a time. Each is kept as a
/// compact record carrying its trace id, in one flat vector in arrival
/// order, its name interned to a phase id; fit() groups the wanted
/// traces' record indices by trace, visits the traces in ascending id
/// and orders each one as trace::SpanTree does, so a queue fitted from
/// chunked reads is identical to one fitted from the full span vector.
/// Memory is O(buffered spans): captures bound it with span sampling
/// (GfsConfig::span_sample_every), not with record caps.
class StructureAccumulator {
public:
    void observe(const trace::Span& s);
    void observe(const std::vector<trace::Span>& spans);

    /// Fit a queue from the buffered traces whose ids are in `trace_ids`.
    /// Same semantics and failure mode as StructureQueue::fit.
    [[nodiscard]] StructureQueue fit(std::span<const trace::TraceId> trace_ids,
                                     double ks_threshold = 0.08) const;

private:
    /// What the fold keeps of a span.
    struct Record {
        trace::TraceId trace_id = 0;
        double start = 0.0;
        double end = 0.0;
        trace::SpanId span_id = 0;  ///< breaks start-time ties
        std::uint32_t phase = 0;    ///< index into names_
        bool root = false;
    };

    std::vector<Record> records_;  ///< arrival order
    std::vector<std::string> names_;     ///< phase id -> name
    std::vector<std::uint32_t> phases_;  ///< SpanName id -> phase id, or UINT32_MAX
};

}  // namespace kooza::core
