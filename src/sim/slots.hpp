// sim::Slots — records addressed by index and recycled through a free
// list. A continuation captures its owner and a slot index, which fits
// inline in a sim::EventFn; the index stays valid while the pool grows,
// and a recycled record keeps its strings' and vectors' capacity.
#pragma once

#include <cstdint>
#include <vector>

namespace kooza::sim {

template <typename T>
class Slots {
public:
    /// Index of a free record, holding whatever its last user left in it.
    [[nodiscard]] std::uint32_t acquire() {
        if (free_.empty()) {
            items_.emplace_back();
            return std::uint32_t(items_.size() - 1);
        }
        const std::uint32_t i = free_.back();
        free_.pop_back();
        return i;
    }

    void release(std::uint32_t i) { free_.push_back(i); }

    [[nodiscard]] T& operator[](std::uint32_t i) { return items_[i]; }

private:
    std::vector<T> items_;
    std::vector<std::uint32_t> free_;
};

}  // namespace kooza::sim
