// sim::Slots — records addressed by index and recycled through a free
// list. A continuation captures its owner and a slot index, which fits
// inline in a sim::EventFn; the index stays valid while the pool grows,
// and a recycled record keeps its strings' and vectors' capacity. The
// free list is threaded through the records themselves, so the pool is
// one vector and grows in one allocation at a time.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace kooza::sim {

template <typename T>
class Slots {
public:
    /// Index of a free record, holding whatever its last user left in it.
    [[nodiscard]] std::uint32_t acquire() {
        if (free_ == kNone) {
            items_.emplace_back();
            return std::uint32_t(items_.size() - 1);
        }
        const std::uint32_t i = free_;
        free_ = items_[i].next_free;
        return i;
    }

    void release(std::uint32_t i) {
        items_[i].next_free = free_;
        free_ = i;
    }

    [[nodiscard]] T& operator[](std::uint32_t i) { return items_[i].item; }

private:
    static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

    struct Entry {
        T item;
        std::uint32_t next_free = kNone;  ///< free-list link while released
    };

    std::vector<Entry> items_;
    std::uint32_t free_ = kNone;  ///< most recently released record
};

}  // namespace kooza::sim
