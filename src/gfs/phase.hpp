// The GFS request path of the paper's Figure 1, spelled once: the phase
// names, the Phase ids, and the read and write paths as constant tables.
// gfs::ChunkServer steps each piece through its table with one span per
// phase, core::canonical_phases returns the tables' names, and
// core::PhaseOrder maps each interned phase name back with phase_of once,
// for the replayer.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "trace/records.hpp"
#include "trace/span.hpp"

namespace kooza::gfs {

/// The phases a request runs, one per name in kPhaseNames; every other
/// name (failover, request, anything unknown) is kUnknown.
enum class Phase : std::uint8_t {
    kNetRx, kCpuVerify, kMemBuffer, kDiskIo, kReplForward, kCpuAggregate,
    kNetTx, kMasterLookup, kUnknown
};
/// Canonical phase names (shared with the KOOZA structure queue).
inline constexpr std::array<std::string_view, std::size_t(Phase::kUnknown)> kPhaseNames{
    "net.rx",       "cpu.verify",    "mem.buffer", "disk.io",
    "repl.forward", "cpu.aggregate", "net.tx",     "master.lookup"};

[[nodiscard]] constexpr Phase phase_of(std::string_view name) {
    return Phase(std::find(kPhaseNames.begin(), kPhaseNames.end(), name) -
                 kPhaseNames.begin());
}

/// A read's header arrives as control, its payload leaves on net.tx.
inline constexpr std::array kReadPath{
    Phase::kNetRx,        Phase::kCpuVerify, Phase::kMemBuffer, Phase::kDiskIo,
    Phase::kCpuAggregate, Phase::kNetTx};
/// A write's payload arrives on net.rx, is written, forwarded once per
/// replica in chain order (zero or more times), and acked as control.
inline constexpr std::array kWritePath{
    Phase::kNetRx,       Phase::kCpuVerify,    Phase::kMemBuffer, Phase::kDiskIo,
    Phase::kReplForward, Phase::kCpuAggregate, Phase::kNetTx};

[[nodiscard]] constexpr std::span<const Phase> path_of(trace::IoType type) {
    if (type == trace::IoType::kRead) return kReadPath;
    return kWritePath;
}

/// Span names interned once, so opening a span builds no string and takes
/// no lock: one per Phase, then the client's root and failover spans.
struct SpanNames {
    std::array<trace::SpanName, kPhaseNames.size()> phases;  ///< by Phase
    trace::SpanName request;
    trace::SpanName failover;
};
[[nodiscard]] inline const SpanNames& span_names() {
    static const SpanNames names = [] {
        SpanNames n{{}, "request", "failover"};
        for (std::size_t i = 0; i < kPhaseNames.size(); ++i) n.phases[i] = kPhaseNames[i];
        return n;
    }();
    return names;
}

/// Span helpers tolerating a null tracer.
inline trace::SpanId begin_span(trace::SpanTracer* t, std::uint64_t trace_id,
                                trace::SpanId parent, trace::SpanName name,
                                double now) {
    return t != nullptr ? t->start_span(trace_id, parent, name, now) : 0;
}
inline void finish_span(trace::SpanTracer* t, trace::SpanId s, double now) {
    if (t != nullptr) t->end_span(s, now);
}

}  // namespace kooza::gfs
