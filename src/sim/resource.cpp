#include "sim/resource.hpp"

#include <stdexcept>
#include <utility>

namespace kooza::sim {

Resource::Resource(Engine& engine, std::uint32_t capacity)
    : engine_(engine), capacity_(capacity) {
    if (capacity == 0) throw std::invalid_argument("Resource: capacity must be >= 1");
}

void Resource::settle() const noexcept {
    const Time now = engine_.now();
    busy_accum_ += double(in_use_) * (now - last_change_);
    last_change_ = now;
}

void Resource::acquire(EventFn on_granted) {
    if (!on_granted) throw std::invalid_argument("Resource::acquire: empty continuation");
    if (in_use_ < capacity_) return grant(std::move(on_granted));
    const std::uint32_t w = waiters_.acquire();
    waiters_[w] = Waiter{std::move(on_granted), kNone};
    (tail_ == kNone ? head_ : waiters_[tail_].next) = w;
    tail_ = w;
    ++queued_;
}

void Resource::grant(EventFn on_granted) {
    settle();
    ++in_use_;
    ++grants_;
    on_granted();
}

void Resource::release() {
    if (in_use_ == 0) throw std::logic_error("Resource::release: nothing held");
    settle();
    --in_use_;
    if (head_ == kNone) return;
    const std::uint32_t w = head_;
    head_ = waiters_[w].next;
    if (head_ == kNone) tail_ = kNone;
    --queued_;
    // Defer the grant so release() never runs the waiter inline.
    engine_.schedule_after(0.0, [this, w] {
        if (in_use_ == capacity_) {
            // A competing acquire won the slot between release and the
            // deferred grant; the waiter goes back to the head.
            waiters_[w].next = head_;
            if (head_ == kNone) tail_ = w;
            head_ = w;
            ++queued_;
            return;
        }
        // Out of the record before it runs: a granted waiter may acquire
        // again and grow the pool.
        EventFn next = std::move(waiters_[w].on_granted);
        waiters_.release(w);
        grant(std::move(next));
    });
}

double Resource::busy_time() const noexcept {
    settle();
    return busy_accum_;
}

double Resource::utilization() const noexcept {
    const Time now = engine_.now();
    if (now <= 0.0) return 0.0;
    return busy_time() / (double(capacity_) * now);
}

}  // namespace kooza::sim
