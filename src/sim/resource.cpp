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
    if (in_use_ < capacity_) {
        grant(std::move(on_granted));
    } else {
        waiters_.push_back(std::move(on_granted));
    }
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
    if (!waiters_.empty()) {
        const std::uint32_t slot = handed_.acquire();
        handed_[slot] = std::move(waiters_.front());
        waiters_.pop_front();
        // Defer the grant so release() never runs the waiter inline.
        engine_.schedule_after(0.0, [this, slot] {
            // Out of the record before it runs: a granted waiter may
            // release, handing off more slots and growing handed_.
            EventFn next = std::move(handed_[slot]);
            handed_.release(slot);
            if (in_use_ < capacity_) {
                grant(std::move(next));
            } else {
                // A competing acquire won the slot between release and the
                // deferred grant; put the waiter back at the head.
                waiters_.push_front(std::move(next));
            }
        });
    }
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
