// Shared per-request walk over a trained ServerModel.
//
// Generator::generate() (batch) and ModelReplayGenerator (pull-based
// stream) must draw the exact same RNG sequence for the same model and
// seed — the cross-examination harness compares their outputs — so the
// single-request draw order lives here, in one place: arrival gap, type
// coin, storage chain + LBN, memory chain, CPU chain, phase structure.
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "core/model.hpp"
#include "core/synthetic.hpp"
#include "sim/rng.hpp"

namespace kooza::core::detail {

inline std::uint64_t model_feature_bytes(double x) {
    if (!(x > 0.0)) return 512;
    return std::uint64_t(std::llround(std::max(x, 512.0)));
}

/// Walks one TypeModel's chains, remembering the current state of each.
/// The feature columns next() reads are resolved once, here: a model
/// whose chains lack one throws std::out_of_range on construction.
struct ChainCursor {
    const TypeModel& tm;
    std::optional<std::size_t> storage_state;
    std::optional<std::size_t> memory_state;
    std::optional<std::size_t> cpu_state;
    std::size_t storage_size, storage_net, memory_size, memory_type, cpu_busy;

    explicit ChainCursor(const TypeModel& t)
        : tm(t),
          storage_size(t.storage.feature_index(feature::kSize)),
          storage_net(t.storage.feature_index(feature::kNet)),
          memory_size(t.memory.feature_index(feature::kSize)),
          memory_type(t.memory.feature_index(feature::kType)),
          cpu_busy(t.cpu.feature_index(feature::kBusy)) {}

    /// One chain step: the successor of `state` (the initial draw on the
    /// first step), then every feature of the new state into `out`.
    static std::size_t advance(const markov::AnnotatedMarkovChain& chain,
                               std::optional<std::size_t>& state, sim::Rng& rng,
                               std::span<double> out) {
        state = state ? chain.chain().next_state(*state, rng)
                      : chain.chain().sample_initial(rng);
        chain.sample_features(*state, rng, out);
        return *state;
    }
};

/// Stateful model walk: each next() advances the clock and every chain by
/// one request. Chain state persists across calls, so N calls of next()
/// equal one generate(N) draw-for-draw. A request costs no heap
/// allocation: features are drawn into one reused buffer (a loaded model
/// may carry features beyond the ones read here, and each is drawn to
/// keep the draw order), and the phase order is an interned handle.
class ModelWalker {
public:
    ModelWalker(const ServerModel& model, double start)
        : model_(model), arrivals_(model.arrivals().clone()), t_(start) {
        arrivals_->reset();
        if (model_.has_reads()) read_.emplace(model_.reads());
        if (model_.has_writes()) write_.emplace(model_.writes());
    }

    [[nodiscard]] SyntheticRequest next(sim::Rng& rng) {
        t_ += arrivals_->next_interarrival(rng);
        const bool is_read =
            model_.has_reads() &&
            (!model_.has_writes() || rng.bernoulli(model_.read_fraction()));
        ChainCursor& cur = is_read ? *read_ : *write_;

        SyntheticRequest r;
        r.time = t_;
        r.type = is_read ? trace::IoType::kRead : trace::IoType::kWrite;

        // Storage: LBN range state + size/net features.
        const std::size_t sto = ChainCursor::advance(cur.tm.storage, cur.storage_state,
                                                     rng, drawn(cur.tm.storage));
        r.lbn = std::uint64_t(model_.lbn_states().sample_within(sto, rng));
        r.storage_bytes = model_feature_bytes(drawn_[cur.storage_size]);
        r.storage_type = r.type;
        r.network_bytes = model_feature_bytes(drawn_[cur.storage_net]);

        // Memory: bank state + size/type features.
        const std::size_t mem = ChainCursor::advance(cur.tm.memory, cur.memory_state,
                                                     rng, drawn(cur.tm.memory));
        r.bank = std::uint32_t(model_.bank_states().representative(mem));
        r.memory_bytes = model_feature_bytes(drawn_[cur.memory_size]);
        r.memory_type =
            drawn_[cur.memory_type] >= 0.5 ? trace::IoType::kWrite : trace::IoType::kRead;

        // CPU: utilization-level state + busy-seconds feature.
        ChainCursor::advance(cur.tm.cpu, cur.cpu_state, rng, drawn(cur.tm.cpu));
        r.cpu_busy_seconds = std::max(0.0, drawn_[cur.cpu_busy]);

        // Structure: phase order for the replayer.
        r.phases = cur.tm.structure.sample(rng);
        return r;
    }

private:
    /// Room for one step of `chain`'s features; the buffer grows to the
    /// widest chain once and is reused after that.
    std::span<double> drawn(const markov::AnnotatedMarkovChain& chain) {
        const std::size_t n = chain.feature_names().size();
        if (drawn_.size() < n) drawn_.resize(n);
        return std::span<double>(drawn_).first(n);
    }

    const ServerModel& model_;
    std::unique_ptr<queueing::ArrivalProcess> arrivals_;
    std::optional<ChainCursor> read_, write_;
    std::vector<double> drawn_;  ///< the current chain step's features
    double t_;
};

}  // namespace kooza::core::detail
