#include "core/structure.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>

#include "stats/fitting.hpp"

namespace kooza::core {

StructureQueue StructureQueue::fit(const std::vector<trace::Span>& spans,
                                   std::span<const trace::TraceId> trace_ids,
                                   double ks_threshold) {
    StructureAccumulator acc;
    acc.observe(spans);
    return acc.fit(trace_ids, ks_threshold);
}

void StructureAccumulator::observe(const trace::Span& s) {
    // fit() sorts on the start: a NaN would break its strict weak order.
    if (!std::isfinite(s.start))
        throw std::invalid_argument("StructureAccumulator::observe: span " +
                                    std::to_string(s.span_id) + " of trace " +
                                    std::to_string(s.trace_id) + " has a non-finite start");
    constexpr auto kNone = std::numeric_limits<std::uint32_t>::max();
    if (s.name.id() >= phases_.size()) phases_.resize(s.name.id() + 1, kNone);
    auto& phase = phases_[s.name.id()];
    if (phase == kNone) {
        phase = std::uint32_t(names_.size());
        names_.push_back(s.name.str());
    }
    records_.push_back(
        Record{s.trace_id, s.start, s.end, s.span_id, phase, s.parent_id == 0});
}

void StructureAccumulator::observe(const std::vector<trace::Span>& spans) {
    // A whole capture's spans arrive in one call: size the fold once.
    if (records_.empty()) records_.reserve(spans.size());
    for (const auto& s : spans) observe(s);
}

StructureQueue StructureAccumulator::fit(std::span<const trace::TraceId> trace_ids,
                                         double ks_threshold) const {
    // Traces are visited in ascending id, as SpanTree::trace_ids lists a
    // flat vector, so every phase's durations come out in one order.
    std::vector<trace::TraceId> wanted(trace_ids.begin(), trace_ids.end());
    std::sort(wanted.begin(), wanted.end());
    wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
    // A counting sort on each record's rank in `wanted` groups the records
    // by trace, in arrival order: trace t's are order[begin[t], begin[t+1]).
    constexpr auto kUnwanted = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> rank(records_.size(), kUnwanted);
    std::vector<std::uint32_t> begin(wanted.size() + 1, 0);
    std::size_t hit = wanted.size();  // the previous record's rank, if wanted
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const trace::TraceId id = records_[i].trace_id;
        // A trace's spans tend to arrive together: try the last hit first.
        if (hit == wanted.size() || wanted[hit] != id) {
            hit = std::size_t(std::lower_bound(wanted.begin(), wanted.end(), id) -
                              wanted.begin());
            if (hit == wanted.size() || wanted[hit] != id) {
                hit = wanted.size();
                continue;
            }
        }
        rank[i] = std::uint32_t(hit);
        ++begin[hit + 1];
    }
    std::partial_sum(begin.begin(), begin.end(), begin.begin());
    std::vector<std::uint32_t> order(begin.back());
    std::vector<std::uint32_t> next(begin.begin(), begin.end() - 1);
    for (std::size_t i = 0; i < records_.size(); ++i)
        if (rank[i] != kUnwanted) order[next[rank[i]]++] = std::uint32_t(i);
    // SpanTree's order within a trace: start time, ties by span id (a
    // parent before the children it opened at the same instant), then
    // arrival, which is index order.
    const auto before = [this](std::uint32_t i, std::uint32_t j) {
        const Record& a = records_[i];
        const Record& b = records_[j];
        if (a.start != b.start) return a.start < b.start;
        if (a.span_id != b.span_id) return a.span_id < b.span_id;
        return i < j;
    };
    // Phase-id sequence -> count; phase id -> durations.
    std::map<std::vector<std::uint32_t>, std::size_t> counts;
    std::vector<std::vector<double>> durations(names_.size());
    std::vector<std::uint32_t> seq;
    std::size_t used = 0;
    for (std::size_t t = 0; t < wanted.size(); ++t) {
        const auto first = order.begin() + begin[t];
        const auto last = order.begin() + begin[t + 1];
        if (first == last) continue;
        std::sort(first, last, before);
        if (std::none_of(first, last, [this](std::uint32_t i) { return records_[i].root; }))
            throw std::invalid_argument("StructureQueue::fit: trace " +
                                        std::to_string(wanted[t]) + " has no root span");
        seq.clear();
        for (auto it = first; it != last; ++it) {
            const Record& r = records_[*it];
            if (r.root) continue;  // the "request" span itself
            seq.push_back(r.phase);
            durations[r.phase].push_back(r.end - r.start);
        }
        if (seq.empty()) continue;
        ++counts[seq];
        ++used;
    }
    if (used == 0)
        throw std::invalid_argument("StructureQueue::fit: no usable span trees");

    // Variants go to from_parts in lexicographic name order; it orders
    // them by count, stably, and renormalizes probabilities from counts.
    std::vector<StructureQueue::Variant> variants;
    for (const auto& [ids, n] : counts) {
        StructureQueue::Variant v;
        for (const std::uint32_t p : ids) v.phases.push_back(names_[p]);
        v.count = n;
        variants.push_back(std::move(v));
    }
    std::sort(variants.begin(), variants.end(),
              [](const StructureQueue::Variant& a, const StructureQueue::Variant& b) {
                  return a.phases < b.phases;
              });
    std::map<std::string, std::unique_ptr<stats::Distribution>> fitted;
    for (std::size_t p = 0; p < names_.size(); ++p)
        if (!durations[p].empty())
            fitted.emplace(names_[p], stats::fit_or_empirical(durations[p], ks_threshold));
    return StructureQueue::from_parts(std::move(variants), std::move(fitted), used);
}

StructureQueue StructureQueue::from_parts(
    std::vector<Variant> variants,
    std::map<std::string, std::unique_ptr<stats::Distribution>> durations,
    std::size_t trained_on) {
    if (variants.empty())
        throw std::invalid_argument("StructureQueue::from_parts: no variants");
    std::size_t total = 0;
    for (const auto& v : variants) {
        if (v.phases.empty())
            throw std::invalid_argument("StructureQueue::from_parts: empty variant");
        total += v.count;
    }
    if (total == 0)
        throw std::invalid_argument("StructureQueue::from_parts: zero counts");
    StructureQueue q;
    q.trained_on_ = trained_on;
    q.variants_ = std::move(variants);
    std::stable_sort(q.variants_.begin(), q.variants_.end(),
                     [](const Variant& a, const Variant& b) { return a.count > b.count; });
    for (auto& v : q.variants_) {
        v.probability = double(v.count) / double(total);
        q.weights_.push_back(double(v.count));
        q.orders_.emplace_back(v.phases);
    }
    q.durations_ = std::move(durations);
    for (const auto& v : q.variants_)
        for (const auto& p : v.phases)
            if (q.durations_.find(p) == q.durations_.end())
                q.durations_.emplace(p, std::make_unique<stats::Deterministic>(0.0));
    return q;
}

StructureQueue StructureQueue::canonical(std::vector<std::string> phases) {
    if (phases.empty())
        throw std::invalid_argument("StructureQueue::canonical: empty phase list");
    StructureQueue q;
    q.trained_on_ = 0;
    Variant v;
    v.phases = phases;
    v.count = 1;
    v.probability = 1.0;
    q.variants_.push_back(std::move(v));
    q.weights_.push_back(1.0);
    q.orders_.emplace_back(phases);
    for (const auto& p : phases)
        q.durations_.emplace(p, std::make_unique<stats::Deterministic>(0.0));
    return q;
}

const std::vector<std::string>& StructureQueue::dominant() const {
    if (variants_.empty()) throw std::logic_error("StructureQueue: untrained");
    return variants_.front().phases;
}

PhaseOrder StructureQueue::sample(sim::Rng& rng) const {
    if (variants_.empty()) throw std::logic_error("StructureQueue: untrained");
    return orders_[rng.weighted_index(weights_)];
}

const stats::Distribution& StructureQueue::phase_duration(
    const std::string& phase) const {
    auto it = durations_.find(phase);
    if (it == durations_.end())
        throw std::out_of_range("StructureQueue::phase_duration: " + phase);
    return *it->second;
}

bool StructureQueue::has_phase(const std::string& phase) const noexcept {
    return durations_.find(phase) != durations_.end();
}

std::vector<std::string> StructureQueue::phase_names() const {
    std::vector<std::string> out;
    for (const auto& [name, d] : durations_) out.push_back(name);
    return out;
}

std::size_t StructureQueue::parameter_count() const noexcept {
    std::size_t n = 0;
    for (const auto& v : variants_) n += v.phases.size() + 1;
    n += 2 * durations_.size();
    return n;
}

std::string StructureQueue::describe() const {
    std::ostringstream os;
    os << "StructureQueue(" << trained_on_ << " traces, " << variants_.size()
       << " variants)\n";
    for (const auto& v : variants_) {
        os << "  p=" << v.probability << " :";
        for (const auto& p : v.phases) os << " " << p;
        os << "\n";
    }
    return os.str();
}

}  // namespace kooza::core
