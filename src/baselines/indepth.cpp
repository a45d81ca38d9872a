#include "baselines/indepth.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/trainer.hpp"
#include "trace/features.hpp"

namespace kooza::baselines {

InDepthModel::InDepthModel(std::unique_ptr<queueing::ArrivalProcess> arrivals,
                           double read_fraction, std::optional<TypeData> read,
                           std::optional<TypeData> write)
    : arrivals_(std::move(arrivals)),
      read_fraction_(read_fraction),
      read_(std::move(read)),
      write_(std::move(write)) {}

InDepthModel InDepthModel::train(const trace::TraceSet& ts, double ks_threshold) {
    if (ts.spans.empty())
        throw std::invalid_argument("InDepthModel::train: no spans in trace");
    const auto features = trace::extract_features(ts);
    if (features.empty())
        throw std::invalid_argument("InDepthModel::train: no completed requests");

    // Arrival process: KOOZA's network sub-model recipe.
    auto arrival_model = core::fit_arrivals(features, 0.1);

    std::size_t n_reads = 0;
    for (const auto& f : features)
        if (f.storage_type == trace::IoType::kRead) ++n_reads;
    const double read_fraction = double(n_reads) / double(features.size());

    auto build = [&](trace::IoType type) -> std::optional<TypeData> {
        std::vector<trace::TraceId> ids;
        Means m;
        std::size_t n = 0, mem_writes = 0;
        for (const auto& f : features) {
            if (f.storage_type != type) continue;
            ids.push_back(f.request_id);
            m.network_bytes += double(f.network_bytes);
            m.cpu_busy += f.cpu_busy_seconds;
            m.memory_bytes += double(f.memory_bytes);
            m.storage_bytes += double(f.storage_bytes);
            m.lbn += double(f.first_lbn);
            m.bank += double(f.first_bank);
            if (f.memory_type == trace::IoType::kWrite) ++mem_writes;
            ++n;
        }
        if (n == 0) return std::nullopt;
        m.network_bytes /= double(n);
        m.cpu_busy /= double(n);
        m.memory_bytes /= double(n);
        m.storage_bytes /= double(n);
        m.lbn /= double(n);
        m.bank /= double(n);
        m.memory_type = 2 * mem_writes > n ? trace::IoType::kWrite : trace::IoType::kRead;
        core::StructureQueue sq = core::StructureQueue::fit(ts.spans, ids, ks_threshold);
        return TypeData{std::move(sq), m};
    };

    auto read = build(trace::IoType::kRead);
    auto write = build(trace::IoType::kWrite);
    if (!read && !write)
        throw std::invalid_argument("InDepthModel::train: no request types");
    return InDepthModel(std::move(arrival_model), read_fraction, std::move(read),
                        std::move(write));
}

const InDepthModel::TypeData& InDepthModel::type_data(trace::IoType t) const {
    const auto& opt = t == trace::IoType::kRead ? read_ : write_;
    if (!opt) throw std::logic_error("InDepthModel: type not trained");
    return *opt;
}

const core::StructureQueue& InDepthModel::read_structure() const {
    return type_data(trace::IoType::kRead).structure;
}
const core::StructureQueue& InDepthModel::write_structure() const {
    return type_data(trace::IoType::kWrite).structure;
}

std::vector<double> InDepthModel::predict_latencies(std::size_t count,
                                                    sim::Rng& rng) const {
    if (count == 0)
        throw std::invalid_argument("InDepthModel::predict_latencies: count 0");
    std::vector<double> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const bool is_read =
            read_ && (!write_ || rng.bernoulli(read_fraction_));
        const auto& td = type_data(is_read ? trace::IoType::kRead
                                           : trace::IoType::kWrite);
        const auto& phases = td.structure.sample(rng);
        double latency = 0.0;
        for (const auto& p : phases)
            latency += std::max(0.0, td.structure.phase_duration(p).sample(rng));
        out.push_back(latency);
    }
    return out;
}

core::SyntheticWorkload InDepthModel::generate(std::size_t count, sim::Rng& rng) const {
    if (count == 0) throw std::invalid_argument("InDepthModel::generate: count 0");
    core::SyntheticWorkload w;
    w.model_name = "in-depth";
    w.requests.reserve(count);
    auto arrivals = arrivals_->clone();
    arrivals->reset();
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        t += arrivals->next_interarrival(rng);
        const bool is_read = read_ && (!write_ || rng.bernoulli(read_fraction_));
        const auto type = is_read ? trace::IoType::kRead : trace::IoType::kWrite;
        const auto& td = type_data(type);
        core::SyntheticRequest r;
        r.time = t;
        r.type = type;
        r.network_bytes = std::uint64_t(std::llround(td.means.network_bytes));
        r.cpu_busy_seconds = td.means.cpu_busy;
        r.memory_bytes = std::uint64_t(std::llround(td.means.memory_bytes));
        r.memory_type = td.means.memory_type;
        r.bank = std::uint32_t(std::llround(td.means.bank));
        r.storage_bytes = std::uint64_t(std::llround(td.means.storage_bytes));
        r.storage_type = type;
        r.lbn = std::uint64_t(std::llround(td.means.lbn));
        r.phases = td.structure.sample(rng);
        w.requests.push_back(std::move(r));
    }
    return w;
}

std::size_t InDepthModel::parameter_count() const {
    std::size_t n = 2;
    if (read_) n += read_->structure.parameter_count() + 7;   // + feature means
    if (write_) n += write_->structure.parameter_count() + 7;
    return n;
}

std::string InDepthModel::describe() const {
    std::ostringstream os;
    os << "InDepthModel (arrival process + phase structure + mean demands), ~"
       << parameter_count() << " params; arrivals: " << arrivals_->describe();
    return os.str();
}

}  // namespace kooza::baselines
