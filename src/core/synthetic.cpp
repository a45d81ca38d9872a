#include "core/synthetic.hpp"

#include <mutex>
#include <set>

namespace kooza::core {

PhaseOrder::PhaseOrder(std::initializer_list<std::string_view> names)
    : entry_(intern(std::vector<std::string>(names.begin(), names.end()))) {}

PhaseOrder::PhaseOrder(std::span<const std::string> names)
    : entry_(intern(std::vector<std::string>(names.begin(), names.end()))) {}

const PhaseOrder::Entry* PhaseOrder::intern(std::vector<std::string> names) {
    if (names.empty()) return &kEmpty;
    // Set nodes never move, so a handle's entry stays put as the table
    // grows. Leaked like trace::SpanName's table, so handles outlive
    // static destruction.
    struct Table {
        std::mutex mu;
        std::set<Entry> entries;
    };
    static auto* table = new Table;
    Entry probe{std::move(names), {}};
    const std::lock_guard lock(table->mu);
    auto it = table->entries.find(probe);
    if (it == table->entries.end()) {
        for (const auto& name : probe.names) probe.ids.push_back(gfs::phase_of(name));
        it = table->entries.insert(std::move(probe)).first;
    }
    return &*it;
}

std::vector<trace::RequestFeatures> to_features(const SyntheticWorkload& w) {
    std::vector<trace::RequestFeatures> out;
    out.reserve(w.requests.size());
    std::uint64_t id = 0;
    for (const auto& r : w.requests) {
        trace::RequestFeatures f;
        f.request_id = id++;
        f.arrival = r.time;
        f.network_bytes = r.network_bytes;
        f.cpu_busy_seconds = r.cpu_busy_seconds;
        f.memory_bytes = r.memory_bytes;
        f.memory_type = r.memory_type;
        f.first_bank = r.bank;
        f.storage_bytes = r.storage_bytes;
        f.storage_type = r.storage_type;
        f.first_lbn = r.lbn;
        f.latency = 0.0;
        f.cpu_utilization = 0.0;
        out.push_back(f);
    }
    return out;
}

}  // namespace kooza::core
