// Dapper-style request tracing: trees of nested spans with 1-in-N
// sampling.
//
// The paper describes Dapper (Sigelman '10): "trees of nested RPCs, spans
// (i.e. tree nodes) and annotations", with "sampling 1 out of 1000
// requests" for low overhead. SpanTracer reproduces the span trees and the
// sampling; the KOOZA trainer consumes span trees to learn the structure
// queue, and ablation A2 sweeps the sampling rate. A Span is a plain
// 48-byte record: its name is a handle into one table of interned names,
// so recording, sorting and copying spans never touches the heap.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace kooza::obs {
class Histogram;
}

namespace kooza::trace {

class Sink;
enum class StreamId : std::uint8_t;

using TraceId = std::uint64_t;  ///< global request identifier
using SpanId = std::uint64_t;   ///< unique within the tracer

/// A span's name: a 4-byte handle into one process-wide table of
/// interned names. Constructing one from text interns it (one lock and one
/// hash lookup), so hot paths intern their names once and keep the
/// handles; == compares ids. The table only grows, with the distinct names
/// the process traced or read, and its text may hold any bytes. An id
/// depends on which names the process met first, so it is never written
/// to a file and never decides an order.
class SpanName {
public:
    SpanName() = default;  ///< "", id 0
    SpanName(std::string_view text);
    SpanName(const char* text) : SpanName(std::string_view(text)) {}
    SpanName(const std::string& text) : SpanName(std::string_view(text)) {}

    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
    /// The interned text; the reference stays valid for the process.
    [[nodiscard]] const std::string& str() const;

    friend bool operator==(SpanName a, SpanName b) noexcept { return a.id_ == b.id_; }

private:
    std::uint32_t id_ = 0;
};

std::ostream& operator<<(std::ostream& os, SpanName name);

/// One node of a request's RPC/phase tree.
struct Span {
    TraceId trace_id = 0;
    SpanId span_id = 0;
    SpanId parent_id = 0;  ///< 0 = root span
    SpanName name;         ///< e.g. "net.rx", "cpu.verify", "disk.io"
    double start = 0.0;
    double end = 0.0;

    [[nodiscard]] double duration() const noexcept { return end - start; }
};
static_assert(std::is_trivially_copyable_v<Span>);
static_assert(sizeof(Span) == 48);

/// Spans are ordered by start time (the sort_key set in records.hpp).
[[nodiscard]] inline double sort_key(const Span& s) noexcept { return s.start; }

/// Records spans with deterministic 1-in-N head sampling (a trace is
/// either fully recorded or fully dropped, as in Dapper). Each closed
/// span goes to the tracer's sink, on the spans stream, held from start
/// to close per the sink hold protocol (sink.hpp), so the tracer keeps
/// only the open spans.
class SpanTracer {
public:
    /// @param sample_every record 1 out of `sample_every` traces (>= 1)
    /// @param sink         receives every closed span; must outlive the tracer
    SpanTracer(std::uint64_t sample_every, Sink& sink);

    /// Head-sampling decision for a trace id (deterministic: id % N == 0).
    [[nodiscard]] bool sampled(TraceId trace) const noexcept;

    /// Open a span; returns its id (0 if the trace is not sampled, which
    /// the other calls treat as a no-op handle).
    SpanId start_span(TraceId trace, SpanId parent, SpanName name, double now);

    /// Close a span. No-op for handle 0. Throws std::logic_error on an
    /// unknown/closed non-zero handle.
    void end_span(SpanId span, double now);

    /// Bookkeeping for the overhead ablation: how many span operations
    /// were requested vs actually recorded.
    [[nodiscard]] std::uint64_t operations_requested() const noexcept { return ops_req_; }
    [[nodiscard]] std::uint64_t operations_recorded() const noexcept { return ops_rec_; }

private:
    /// An open span and the phase histogram its duration goes to; a
    /// closed slot has none.
    struct Slot {
        Span span;
        obs::Histogram* hist = nullptr;
    };

    /// Per-phase duration histogram ("trace.phase.<name>.duration_ns"),
    /// fed at every end_span of a recorded span, so p50/p95/p99 per phase
    /// are first-class in the metrics export. A trace sampled out records
    /// nothing: at 1-in-N sampling they describe the sampled traces only.
    [[nodiscard]] obs::Histogram& phase_histogram(SpanName name);

    std::uint64_t every_;
    SpanId next_id_ = 1;
    Sink& sink_;
    std::vector<obs::Histogram*> phase_hist_;  ///< by SpanName id
    /// Span ids are dense (only sampled spans take one), so open_[i] is
    /// span base_ + i. Slots before head_ are closed; the rest run from
    /// the oldest open span to the newest span.
    std::vector<Slot> open_;
    std::size_t head_ = 0;
    SpanId base_ = 1;
    std::uint64_t ops_req_ = 0;
    std::uint64_t ops_rec_ = 0;
};

/// A reassembled request tree.
class SpanTree {
public:
    /// Build the tree for one trace id from a span collection. Throws if
    /// the trace has no spans or no root.
    SpanTree(const std::vector<Span>& all, TraceId trace);

    [[nodiscard]] TraceId trace_id() const noexcept { return trace_; }
    [[nodiscard]] const Span& root() const;
    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
    [[nodiscard]] std::vector<const Span*> children_of(SpanId parent) const;

    /// Names of all spans in start-time order — the phase sequence the
    /// KOOZA structure queue is trained on.
    [[nodiscard]] std::vector<std::string> phase_sequence() const;

    /// Durations matching phase_sequence().
    [[nodiscard]] std::vector<double> phase_durations() const;

    /// End-to-end duration (root span).
    [[nodiscard]] double total_duration() const;

    /// Indented one-line-per-span rendering (for Fig. 1 reproduction).
    [[nodiscard]] std::string render() const;

    /// All trace ids present in a span collection.
    [[nodiscard]] static std::vector<TraceId> trace_ids(const std::vector<Span>& all);

private:
    void render_node(const Span& s, int depth, std::string& out) const;

    TraceId trace_;
    std::vector<Span> spans_;  ///< sorted by start time
};

}  // namespace kooza::trace
