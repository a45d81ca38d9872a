#include "core/structure.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

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
    spans_[s.trace_id].push_back(s);
}

void StructureAccumulator::observe(const std::vector<trace::Span>& spans) {
    for (const auto& s : spans) observe(s);
}

StructureQueue StructureAccumulator::fit(std::span<const trace::TraceId> trace_ids,
                                         double ks_threshold) const {
    std::set<trace::TraceId> wanted(trace_ids.begin(), trace_ids.end());
    // Sequence -> count; phase -> durations. Buckets iterate in ascending
    // trace-id order, matching SpanTree::trace_ids over a flat vector
    // (SpanTree itself re-sorts by (start, span id), a total order, so
    // the buffered arrival order is irrelevant).
    std::map<std::vector<std::string>, std::size_t> counts;
    std::map<std::string, std::vector<double>> durations;
    std::size_t used = 0;
    for (const auto& [id, vec] : spans_) {
        if (wanted.find(id) == wanted.end()) continue;
        trace::SpanTree tree(vec, id);
        std::vector<std::string> seq;
        for (const auto& s : tree.spans()) {
            if (s.parent_id == 0) continue;  // skip the root "request" span
            seq.push_back(s.name);
            durations[s.name].push_back(s.duration());
        }
        if (seq.empty()) continue;
        ++counts[seq];
        ++used;
    }
    if (used == 0)
        throw std::invalid_argument("StructureQueue::fit: no usable span trees");

    // Assemble through from_parts: it re-sorts by count and renormalizes
    // probabilities from counts, reproducing the historical fit exactly.
    std::vector<StructureQueue::Variant> variants;
    for (auto& [seq, n] : counts) {
        StructureQueue::Variant v;
        v.phases = seq;
        v.count = n;
        variants.push_back(std::move(v));
    }
    std::map<std::string, std::unique_ptr<stats::Distribution>> fitted;
    for (auto& [name, vals] : durations)
        fitted[name] = stats::fit_or_empirical(vals, ks_threshold);
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
    std::sort(q.variants_.begin(), q.variants_.end(),
              [](const Variant& a, const Variant& b) { return a.count > b.count; });
    for (auto& v : q.variants_) {
        v.probability = double(v.count) / double(total);
        q.weights_.push_back(double(v.count));
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
    for (const auto& p : phases)
        q.durations_.emplace(p, std::make_unique<stats::Deterministic>(0.0));
    return q;
}

const std::vector<std::string>& StructureQueue::dominant() const {
    if (variants_.empty()) throw std::logic_error("StructureQueue: untrained");
    return variants_.front().phases;
}

const std::vector<std::string>& StructureQueue::sample(sim::Rng& rng) const {
    if (variants_.empty()) throw std::logic_error("StructureQueue: untrained");
    return variants_[rng.weighted_index(weights_)].phases;
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
