// The pluggable trace sink — where simulation layers (hw devices, gfs
// cluster, span tracer, fault injector) deliver capture records.
//
// Two implementations exist:
//   - MemorySink (here): appends into a caller-owned TraceSet, the
//     original materialize-then-write collector.
//   - StreamingSink (streaming.hpp): orders records online and appends
//     each released record straight into a BinaryWriter that spills its
//     columns to disk, so a capture's peak memory stays flat however
//     long the run is.
//
// The hold protocol: device records are *keyed* at issue time but only
// *emitted* at completion, so a streaming sink cannot flush a timestamp
// until every I/O issued at-or-before it has landed. An emitter that
// knows a record with key `k` is coming calls open_hold(stream, k) at
// issue and close_hold(stream, k) after the matching append (or after
// deciding no record will be emitted). MemorySink ignores holds.
#pragma once

#include <cstddef>

#include "trace/schema.hpp"
#include "trace/traceset.hpp"

namespace kooza::trace {

class Sink {
public:
    Sink() = default;
    Sink(const Sink&) = delete;
    Sink& operator=(const Sink&) = delete;
    virtual ~Sink();

    virtual void append(const StorageRecord& r) = 0;
    virtual void append(const CpuRecord& r) = 0;
    virtual void append(const MemoryRecord& r) = 0;
    virtual void append(const NetworkRecord& r) = 0;
    virtual void append(const RequestRecord& r) = 0;
    virtual void append(const FailureRecord& r) = 0;
    virtual void append(const Span& s) = 0;

    /// Announce that a record keyed at `key` will (or may) be appended to
    /// `stream` later. Must be balanced by close_hold with the same key.
    virtual void open_hold(StreamId stream, double key);
    /// Release a hold opened with open_hold. Call *after* the matching
    /// append, or instead of it when the record turned out not to exist.
    virtual void close_hold(StreamId stream, double key);
};

/// The in-memory collector: records land in a caller-owned TraceSet in
/// emission order (callers sort afterwards, see TraceSet::sort_by_time).
class MemorySink final : public Sink {
public:
    explicit MemorySink(TraceSet& ts) noexcept : ts_(&ts) {}

    void append(const StorageRecord& r) override { ts_->storage.push_back(r); }
    void append(const CpuRecord& r) override { ts_->cpu.push_back(r); }
    void append(const MemoryRecord& r) override { ts_->memory.push_back(r); }
    void append(const NetworkRecord& r) override { ts_->network.push_back(r); }
    void append(const RequestRecord& r) override { ts_->requests.push_back(r); }
    void append(const FailureRecord& r) override { ts_->failures.push_back(r); }
    void append(const Span& s) override { ts_->spans.push_back(s); }

    [[nodiscard]] const TraceSet& traces() const noexcept { return *ts_; }

private:
    TraceSet* ts_;
};

/// A family of sinks sharded by server group, so multi-emitter captures
/// stay deterministic: group 0 collects cluster-level records (clients,
/// master, fault injector, spans), group 1+s collects chunkserver s.
class SinkProvider {
public:
    SinkProvider() = default;
    SinkProvider(const SinkProvider&) = delete;
    SinkProvider& operator=(const SinkProvider&) = delete;
    virtual ~SinkProvider();

    virtual Sink& group(std::size_t g) = 0;
    [[nodiscard]] virtual std::size_t group_count() const = 0;
};

}  // namespace kooza::trace
