// trace::ColumnChunk — a struct-of-arrays record buffer in kooza.trace/1
// column encoding.
//
// StreamingSink stages released records here instead of in a TraceSet:
// add() encodes each record into its stream's column bytes at release
// time, so a chunk flush (BinaryWriter::append(ColumnChunk)) is a handful
// of column splices. add() calls the same per-stream encoder as
// BinaryWriter::append(TraceSet), with a batch of one record; the field
// order lives only there (binary.cpp), never here. Spans stay
// array-of-structs: their name column is an index into the writer's
// string table, in order of first appearance across every chunk, which
// only the writer can assign. A Span is a trivially copyable 48-byte
// record, so staging one here is a plain copy.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "trace/records.hpp"
#include "trace/sink.hpp"

namespace kooza::trace {

/// Most columns of any kooza.trace/1 stream (storage and spans have 6).
inline constexpr std::size_t kMaxColumns = 6;

/// One stream's records in kooza.trace/1 column encoding: cols[c] holds
/// field c of every record in schema order, packed little-endian.
struct EncodedStream {
    std::array<std::vector<std::uint8_t>, kMaxColumns> cols;
    std::uint64_t count = 0;
};

/// Every stream's encoded columns, indexed by StreamId.
using EncodedStreams = std::array<EncodedStream, kStreamCount>;

class ColumnChunk {
public:
    void add(const StorageRecord& r);
    void add(const CpuRecord& r);
    void add(const MemoryRecord& r);
    void add(const NetworkRecord& r);
    void add(const RequestRecord& r);
    void add(const FailureRecord& r);
    void add(const Span& s) { spans_.push_back(s); }

    /// Records buffered across all streams.
    [[nodiscard]] std::uint64_t records() const noexcept {
        std::uint64_t n = spans_.size();
        for (const auto& s : streams_) n += s.count;
        return n;
    }

    /// Drop contents, keeping column capacity for the next chunk.
    void clear() noexcept {
        for (auto& s : streams_) {
            for (auto& c : s.cols) c.clear();
            s.count = 0;
        }
        spans_.clear();
    }

private:
    friend class BinaryWriter;

    EncodedStreams streams_;
    std::vector<Span> spans_;
};

}  // namespace kooza::trace
