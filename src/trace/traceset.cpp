#include "trace/traceset.hpp"

#include <algorithm>
#include <sstream>

namespace kooza::trace {

void TraceSet::merge(const TraceSet& other) {
    storage.insert(storage.end(), other.storage.begin(), other.storage.end());
    cpu.insert(cpu.end(), other.cpu.begin(), other.cpu.end());
    memory.insert(memory.end(), other.memory.begin(), other.memory.end());
    network.insert(network.end(), other.network.begin(), other.network.end());
    requests.insert(requests.end(), other.requests.begin(), other.requests.end());
    failures.insert(failures.end(), other.failures.begin(), other.failures.end());
    spans.insert(spans.end(), other.spans.begin(), other.spans.end());
}

std::size_t TraceSet::total_records() const noexcept {
    return storage.size() + cpu.size() + memory.size() + network.size() +
           requests.size() + failures.size() + spans.size();
}

void TraceSet::clear() {
    storage.clear();
    cpu.clear();
    memory.clear();
    network.clear();
    requests.clear();
    failures.clear();
    spans.clear();
}

void TraceSet::sort_by_time() {
    auto by_key = [](auto& rs) {
        std::stable_sort(rs.begin(), rs.end(), [](const auto& a, const auto& b) {
            return sort_key(a) < sort_key(b);
        });
    };
    by_key(storage);
    by_key(cpu);
    by_key(memory);
    by_key(network);
    by_key(requests);
    by_key(failures);
    by_key(spans);
}

std::string TraceSet::summary() const {
    std::ostringstream os;
    os << "storage=" << storage.size() << " cpu=" << cpu.size()
       << " memory=" << memory.size() << " network=" << network.size()
       << " requests=" << requests.size() << " failures=" << failures.size()
       << " spans=" << spans.size();
    return os.str();
}

}  // namespace kooza::trace
