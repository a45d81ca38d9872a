#include "trace/traceset.hpp"

#include <algorithm>

#include "trace/schema.hpp"

namespace kooza::trace {

void TraceSet::merge(const TraceSet& other) {
    for_each_stream([&](const auto& s) {
        auto& to = this->*s.records;
        const auto& from = other.*s.records;
        to.insert(to.end(), from.begin(), from.end());
    });
}

std::size_t TraceSet::total_records() const noexcept {
    std::size_t n = 0;
    for_each_stream([&](const auto& s) { n += (this->*s.records).size(); });
    return n;
}

void TraceSet::clear() {
    for_each_stream([this](const auto& s) { (this->*s.records).clear(); });
}

void TraceSet::sort_by_time() {
    for_each_stream([this](const auto& s) {
        auto& rs = this->*s.records;
        std::stable_sort(rs.begin(), rs.end(), [](const auto& a, const auto& b) {
            return sort_key(a) < sort_key(b);
        });
    });
}

std::string TraceSet::summary() const {
    std::string out;
    for_each_stream([&](const auto& s) {
        if (!out.empty()) out += ' ';
        out += s.stem;
        out += '=';
        out += std::to_string((this->*s.records).size());
    });
    return out;
}

}  // namespace kooza::trace
