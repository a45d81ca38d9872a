// The GFS request path of the paper's Figure 1, spelled once: the phase
// names, the Phase ids, and the read and write paths as constant tables.
// gfs::ChunkServer steps each piece through its table with one span per
// phase, core::canonical_phases returns the tables' names, and the
// replayer maps a synthetic request's phase names back with phase_of.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "trace/records.hpp"
#include "trace/span.hpp"

namespace kooza::gfs {

/// Canonical phase names (shared with the KOOZA structure queue).
namespace phase {
inline constexpr const char* kNetRx = "net.rx";
inline constexpr const char* kCpuVerify = "cpu.verify";
inline constexpr const char* kMemBuffer = "mem.buffer";
inline constexpr const char* kDiskIo = "disk.io";
inline constexpr const char* kReplForward = "repl.forward";
inline constexpr const char* kCpuAggregate = "cpu.aggregate";
inline constexpr const char* kNetTx = "net.tx";
inline constexpr const char* kMasterLookup = "master.lookup";
inline constexpr const char* kFailover = "failover";
inline constexpr const char* kRequest = "request";
}  // namespace phase

/// The phases a request runs, one per name in kPhaseNames; every other
/// name (failover, request, anything unknown) is kUnknown.
enum class Phase : std::uint8_t {
    kNetRx, kCpuVerify, kMemBuffer, kDiskIo, kReplForward, kCpuAggregate,
    kNetTx, kMasterLookup, kUnknown
};
inline constexpr std::array<std::string_view, std::size_t(Phase::kUnknown)> kPhaseNames{
    phase::kNetRx,       phase::kCpuVerify,    phase::kMemBuffer, phase::kDiskIo,
    phase::kReplForward, phase::kCpuAggregate, phase::kNetTx,     phase::kMasterLookup};

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

/// Span helpers tolerating a null tracer.
inline trace::SpanId begin_span(trace::SpanTracer* t, std::uint64_t trace_id,
                                trace::SpanId parent, std::string_view name,
                                double now) {
    return t != nullptr ? t->start_span(trace_id, parent, std::string(name), now) : 0;
}
inline void finish_span(trace::SpanTracer* t, trace::SpanId s, double now) {
    if (t != nullptr) t->end_span(s, now);
}

}  // namespace kooza::gfs
