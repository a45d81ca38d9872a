#include "trace/features.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace kooza::trace {

std::string RequestFeatures::to_string() const {
    std::ostringstream os;
    os << "req " << request_id << ": net=" << network_bytes
       << "B cpu=" << cpu_utilization * 100.0 << "% mem=" << memory_bytes << "B/"
       << kooza::trace::to_string(memory_type) << " sto=" << storage_bytes << "B/"
       << kooza::trace::to_string(storage_type) << " lat=" << latency * 1e3 << "ms";
    return os.str();
}

namespace {

/// murmur3's 64-bit finalizer: dense, strided and edge ids alike spread
/// over the table.
std::uint64_t mix(std::uint64_t x) noexcept {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

/// The smallest power of two with room for `slots` at half load.
std::size_t buckets_for(std::size_t slots) {
    std::size_t n = 16;
    while (n < 2 * slots) n *= 2;
    return n;
}

}  // namespace

void FeatureAccumulator::reserve(std::size_t requests) {
    slots_.reserve(requests);
    requests_.reserve(requests);
    if (buckets_for(requests) > index_.size()) rehash(buckets_for(requests));
}

void FeatureAccumulator::rehash(std::size_t capacity) {
    index_.assign(capacity, 0);
    for (std::size_t i = 0; i < slots_.size(); ++i)
        index_[bucket(slots_[i].id)] = std::uint32_t(i + 1);
}

std::size_t FeatureAccumulator::bucket(std::uint64_t id) const {
    const std::size_t mask = index_.size() - 1;
    std::size_t b = mix(id) & mask;
    while (index_[b] != 0 && slots_[index_[b] - 1].id != id) b = (b + 1) & mask;
    return b;
}

const FeatureAccumulator::PerRequest* FeatureAccumulator::find(std::uint64_t id) const {
    if (index_.empty()) return nullptr;
    const std::uint32_t i = index_[bucket(id)];
    return i != 0 ? &slots_[i - 1] : nullptr;
}

FeatureAccumulator::PerRequest& FeatureAccumulator::slot(std::uint64_t id) {
    if (2 * (slots_.size() + 1) > index_.size()) rehash(buckets_for(slots_.size() + 1));
    std::uint32_t& i = index_[bucket(id)];
    if (i != 0) return slots_[i - 1];
    if (slots_.size() >= std::numeric_limits<std::uint32_t>::max())
        throw std::length_error("FeatureAccumulator: more request ids than slots");
    i = std::uint32_t(slots_.size() + 1);
    PerRequest& a = slots_.emplace_back();
    a.id = id;
    return a;
}

void FeatureAccumulator::observe(const NetworkRecord& r) {
    auto& a = slot(r.request_id);
    if (r.direction == NetworkRecord::Direction::kRx)
        a.rx += r.size_bytes;
    else
        a.tx += r.size_bytes;
}

void FeatureAccumulator::observe(const CpuRecord& r) {
    // A NaN would reach the CPU-utilization discretizer, which converts
    // it to a state id (undefined behaviour), before any fit rejects it.
    if (!std::isfinite(r.busy_seconds))
        throw std::invalid_argument("FeatureAccumulator: request " +
                                    std::to_string(r.request_id) +
                                    " has a non-finite CPU busy time (" +
                                    std::to_string(r.busy_seconds) + ")");
    slot(r.request_id).cpu_busy += r.busy_seconds;
}

void FeatureAccumulator::observe(const MemoryRecord& r) {
    auto& a = slot(r.request_id);
    (r.type == IoType::kRead ? a.mem_read : a.mem_write) += r.size_bytes;
    if (a.first_mem_time < 0.0 || r.time < a.first_mem_time) {
        a.first_mem_time = r.time;
        a.first_bank = r.bank;
    }
}

void FeatureAccumulator::observe(const StorageRecord& r) {
    auto& a = slot(r.request_id);
    (r.type == IoType::kRead ? a.sto_read : a.sto_write) += r.size_bytes;
    if (a.first_sto_time < 0.0 || r.time < a.first_sto_time) {
        a.first_sto_time = r.time;
        a.first_lbn = r.lbn;
    }
}

void FeatureAccumulator::observe(const TraceSet& chunk) {
    for (const auto& r : chunk.network) observe(r);
    for (const auto& r : chunk.cpu) observe(r);
    for (const auto& r : chunk.memory) observe(r);
    for (const auto& r : chunk.storage) observe(r);
    requests_.insert(requests_.end(), chunk.requests.begin(), chunk.requests.end());
}

std::vector<RequestFeatures> FeatureAccumulator::finish() const {
    std::vector<RequestFeatures> out;
    out.reserve(requests_.size());
    for (const auto& req : requests_) {
        RequestFeatures f;
        f.request_id = req.request_id;
        f.arrival = req.arrival;
        f.latency = req.latency();
        if (const PerRequest* a = find(req.request_id)) {
            f.network_bytes = std::max(a->rx, a->tx);
            // Per-request CPU utilization: busy core-seconds over the
            // request's end-to-end window — how the paper's 2.1% / 5.1%
            // figures are constructed.
            f.cpu_utilization = f.latency > 0.0 ? a->cpu_busy / f.latency : 0.0;
            f.memory_bytes = a->mem_read + a->mem_write;
            f.memory_type = a->mem_write > a->mem_read ? IoType::kWrite : IoType::kRead;
            f.storage_bytes = a->sto_read + a->sto_write;
            f.storage_type = a->sto_write > a->sto_read ? IoType::kWrite : IoType::kRead;
            f.cpu_busy_seconds = a->cpu_busy;
            f.first_lbn = a->first_lbn;
            f.first_bank = a->first_bank;
        }
        // A NaN arrival has no place in the sort order below.
        if (std::isnan(f.arrival))
            throw std::invalid_argument("FeatureAccumulator: request " +
                                        std::to_string(f.request_id) +
                                        " has a non-finite arrival (nan)");
        out.push_back(f);
    }
    std::sort(out.begin(), out.end(), [](const RequestFeatures& a, const RequestFeatures& b) {
        return a.arrival < b.arrival;
    });
    return out;
}

std::vector<RequestFeatures> extract_features(const TraceSet& ts) {
    FeatureAccumulator acc;
    acc.reserve(ts.requests.size());
    acc.observe(ts);
    return acc.finish();
}

#define KOOZA_COLUMN(fn, expr)                                                      \
    std::vector<double> fn(const std::vector<RequestFeatures>& fs) {                \
        std::vector<double> out;                                                    \
        out.reserve(fs.size());                                                     \
        for (const auto& f : fs) out.push_back(double(expr));                       \
        return out;                                                                 \
    }

KOOZA_COLUMN(column_network_bytes, f.network_bytes)
KOOZA_COLUMN(column_cpu_utilization, f.cpu_utilization)
KOOZA_COLUMN(column_memory_bytes, f.memory_bytes)
KOOZA_COLUMN(column_storage_bytes, f.storage_bytes)
KOOZA_COLUMN(column_latency, f.latency)
KOOZA_COLUMN(column_arrival, f.arrival)

#undef KOOZA_COLUMN

}  // namespace kooza::trace
