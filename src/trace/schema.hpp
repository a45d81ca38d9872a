// The seven capture streams, declared once: each stream's id (its
// kooza.trace/1 stream id), its file stem (<stem>.csv, <stem>.bin), its
// TraceSet member and its fields in column order. Everything that lays
// out a stream reads this table: write_csv's header and rows and
// read_csv's parser (csv.cpp); kooza.trace/1's column spec, schema hash,
// widths, encoder and decoder (binary.cpp); TraceSet's per-stream
// functions (traceset.cpp); and StreamingSink's typed per-stream queues
// (PerStream, streaming.hpp).
//
// A field's C++ type picks its encoding in both formats, so both readers
// enforce the same ranges:
//
//   C++ type        kooza.trace/1   CSV
//   double          f64             17 significant digits
//   std::uint64_t   u64             decimal
//   std::uint32_t   u32             decimal, above 2^32-1 is a row error
//   enum            u8              its to_string text
//   SpanName        strtab32        the name's text
//
// An enum value above its enum_max (records.hpp) is an error in either.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <vector>

#include "trace/traceset.hpp"

namespace kooza::trace {

/// The seven capture streams, numbered as kStreams lists them.
enum class StreamId : std::uint8_t {
    kStorage = 0,
    kCpu = 1,
    kMemory = 2,
    kNetwork = 3,
    kRequests = 4,
    kFailures = 5,
    kSpans = 6,
};

/// One column: its name (the CSV header, the kooza.trace/1 spec) and the
/// record member it holds.
template <typename Rec, typename T>
struct Field {
    using Type = T;
    const char* name;
    T Rec::*member;
};

/// One stream's table entry.
template <typename Rec, typename... T>
struct Stream {
    using Record = Rec;
    StreamId id;
    const char* stem;
    std::vector<Rec> TraceSet::*records;
    std::tuple<Field<Rec, T>...> fields;
};

template <typename Rec, typename... T>
constexpr Stream<Rec, T...> stream(StreamId id, const char* stem,
                                   std::vector<Rec> TraceSet::*records,
                                   Field<Rec, T>... fields) {
    return {id, stem, records, {fields...}};
}

/// The table: one entry per stream, in StreamId order.
inline constexpr auto kStreams = std::tuple{
    stream(StreamId::kStorage, "storage", &TraceSet::storage,
           Field{"time", &StorageRecord::time},
           Field{"request_id", &StorageRecord::request_id},
           Field{"lbn", &StorageRecord::lbn},
           Field{"size_bytes", &StorageRecord::size_bytes},
           Field{"type", &StorageRecord::type},
           Field{"latency", &StorageRecord::latency}),
    stream(StreamId::kCpu, "cpu", &TraceSet::cpu,
           Field{"time", &CpuRecord::time},
           Field{"request_id", &CpuRecord::request_id},
           Field{"busy_seconds", &CpuRecord::busy_seconds},
           Field{"utilization", &CpuRecord::utilization}),
    stream(StreamId::kMemory, "memory", &TraceSet::memory,
           Field{"time", &MemoryRecord::time},
           Field{"request_id", &MemoryRecord::request_id},
           Field{"bank", &MemoryRecord::bank},
           Field{"size_bytes", &MemoryRecord::size_bytes},
           Field{"type", &MemoryRecord::type}),
    stream(StreamId::kNetwork, "network", &TraceSet::network,
           Field{"time", &NetworkRecord::time},
           Field{"request_id", &NetworkRecord::request_id},
           Field{"size_bytes", &NetworkRecord::size_bytes},
           Field{"direction", &NetworkRecord::direction},
           Field{"latency", &NetworkRecord::latency}),
    stream(StreamId::kRequests, "requests", &TraceSet::requests,
           Field{"request_id", &RequestRecord::request_id},
           Field{"type", &RequestRecord::type},
           Field{"arrival", &RequestRecord::arrival},
           Field{"completion", &RequestRecord::completion},
           Field{"bytes", &RequestRecord::bytes}),
    stream(StreamId::kFailures, "failures", &TraceSet::failures,
           Field{"time", &FailureRecord::time},
           Field{"request_id", &FailureRecord::request_id},
           Field{"server", &FailureRecord::server},
           Field{"kind", &FailureRecord::kind},
           Field{"duration", &FailureRecord::duration}),
    stream(StreamId::kSpans, "spans", &TraceSet::spans,
           Field{"trace_id", &Span::trace_id},
           Field{"span_id", &Span::span_id},
           Field{"parent_id", &Span::parent_id},
           Field{"name", &Span::name},
           Field{"start", &Span::start},
           Field{"end", &Span::end}),
};

inline constexpr std::size_t kStreamCount = std::tuple_size_v<decltype(kStreams)>;

/// Call f(stream) for every stream, in StreamId order.
template <typename F>
constexpr void for_each_stream(F&& f) {
    std::apply([&f](const auto&... s) { (f(s), ...); }, kStreams);
}

/// Call f(stream) for the stream numbered `id`.
template <typename F>
void visit_stream(StreamId id, F&& f) {
    for_each_stream([&](const auto& s) {
        if (s.id == id) f(s);
    });
}

/// Call f(field) for every field of `s`, in column order.
template <typename S, typename F>
constexpr void for_each_field(const S& s, F&& f) {
    std::apply([&f](const auto&... c) { (f(c), ...); }, s.fields);
}

/// File stems of the seven per-stream files, in StreamId order.
inline constexpr auto kStreamStems =
    std::apply([](const auto&... s) { return std::array{s.stem...}; }, kStreams);

/// Most fields of any stream.
inline constexpr std::size_t kMaxFields = std::apply(
    [](const auto&... s) { return std::max({std::tuple_size_v<decltype(s.fields)>...}); },
    kStreams);

/// The stream whose records are of type R.
template <typename R>
constexpr StreamId stream_of() {
    StreamId id{};
    for_each_stream([&id](const auto& s) {
        if constexpr (std::is_same_v<typename std::remove_cvref_t<decltype(s)>::Record, R>)
            id = s.id;
    });
    return id;
}

namespace detail {
template <template <typename> class T, typename... S>
std::tuple<T<typename S::Record>...> per_stream_of(const std::tuple<S...>&);
}  // namespace detail

/// One T<Record> per stream, in StreamId order: element i belongs to
/// stream i, and std::get<T<R>> reaches R's stream.
template <template <typename> class T>
using PerStream = decltype(detail::per_stream_of<T>(kStreams));

// Entry i is stream i: kStreamStems, the writer's and reader's per-stream
// arrays and PerStream's element index all rely on it.
static_assert([] {
    std::size_t i = 0;
    bool ok = true;
    for_each_stream([&](const auto& s) { ok = ok && std::size_t(s.id) == i++; });
    return ok;
}());

}  // namespace kooza::trace
