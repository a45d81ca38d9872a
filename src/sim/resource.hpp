// FCFS resources for discrete-event models.
//
// A Resource has a fixed capacity of concurrent holders; excess acquirers
// queue FIFO. Device models (disk, CPU cores, network ports) are built on
// this primitive so queueing delay falls out of contention naturally.
#pragma once

#include <cstdint>
#include <limits>

#include "sim/engine.hpp"
#include "sim/eventfn.hpp"
#include "sim/slots.hpp"

namespace kooza::sim {

/// Counted FCFS resource. `acquire` either grants immediately or enqueues
/// the continuation; `release` hands the slot to the next waiter (scheduled
/// as a zero-delay event so granting never reenters the releaser's stack).
/// A waiter keeps one Slots record from acquire() until its grant runs,
/// linked in FIFO order through the record, so an idle or busy resource
/// allocates nothing beyond its peak queue.
class Resource {
public:
    /// @param engine   owning engine (must outlive the resource)
    /// @param capacity number of concurrent holders (>= 1)
    Resource(Engine& engine, std::uint32_t capacity);

    Resource(const Resource&) = delete;
    Resource& operator=(const Resource&) = delete;

    /// Request a slot; `on_granted` runs (possibly immediately) once a slot
    /// is held. The holder must call release() exactly once when done.
    /// Throws std::invalid_argument on an empty continuation.
    void acquire(EventFn on_granted);

    /// Return a held slot. Throws std::logic_error if nothing is held.
    void release();

    [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] std::uint32_t in_use() const noexcept { return in_use_; }
    [[nodiscard]] std::size_t queue_length() const noexcept { return queued_; }

    /// Cumulative busy time integrated over all slots (for utilization).
    [[nodiscard]] double busy_time() const noexcept;

    /// Utilization in [0,1] over the window [0, now]: busy_time / (cap * now).
    [[nodiscard]] double utilization() const noexcept;

    /// Total grants so far.
    [[nodiscard]] std::uint64_t total_grants() const noexcept { return grants_; }

private:
    static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

    struct Waiter {
        EventFn on_granted;
        std::uint32_t next = kNone;  ///< the waiter behind this one
    };

    void grant(EventFn on_granted);

    Engine& engine_;
    std::uint32_t capacity_;
    std::uint32_t in_use_ = 0;
    std::uint64_t grants_ = 0;
    /// Queued waiters from head_ to tail_, plus the ones release() handed
    /// a slot to until their deferred grant runs; queue_length() counts
    /// the linked ones only.
    Slots<Waiter> waiters_;
    std::uint32_t head_ = kNone;
    std::uint32_t tail_ = kNone;
    std::size_t queued_ = 0;

    // busy-time integral bookkeeping
    mutable double busy_accum_ = 0.0;
    mutable Time last_change_ = 0.0;
    void settle() const noexcept;
};

}  // namespace kooza::sim
