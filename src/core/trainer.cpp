#include "core/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "gfs/phase.hpp"
#include "obs/metrics.hpp"
#include "par/pool.hpp"
#include "stats/fitting.hpp"
#include "stats/hypothesis.hpp"
#include "trace/binary.hpp"
#include "trace/features.hpp"

namespace kooza::core {

namespace {

// Wall-clock train timings are tagged `wall`: they are real elapsed time,
// vary run to run, and are excluded from deterministic exports.
struct TrainerMetrics {
    obs::Counter& runs = obs::counter("core.trainer.runs_total");
    obs::Counter& requests = obs::counter("core.trainer.requests_total");
    obs::Histogram& train_wall_ns = obs::histogram(
        "core.trainer.train_wall_ns", obs::Unit::kNanoseconds, /*wall=*/true);
    obs::Histogram& submodel_wall_ns = obs::histogram(
        "core.trainer.submodel_wall_ns", obs::Unit::kNanoseconds, /*wall=*/true);
};

TrainerMetrics& trainer_metrics() {
    static TrainerMetrics m;
    return m;
}

}  // namespace

std::vector<std::string> canonical_phases(trace::IoType t) {
    std::vector<std::string> names;
    for (const gfs::Phase p : gfs::path_of(t))
        names.emplace_back(gfs::kPhaseNames[std::size_t(p)]);
    return names;
}

namespace {

std::uint64_t next_pow2(std::uint64_t x) {
    std::uint64_t p = 1;
    while (p < x && p < (1ull << 62)) p <<= 1;
    return p;
}

}  // namespace

Trainer::Trainer(TrainerConfig cfg) : cfg_(std::move(cfg)) {
    if (cfg_.lbn_ranges == 0 || cfg_.util_levels == 0)
        throw std::invalid_argument("Trainer: state-space sizes must be >= 1");
}

/// Every sufficient statistic train_impl needs, folded one chunk at a
/// time. Each field is written by exactly one stream, so chunks of
/// different streams may arrive in any order; within a stream they must
/// arrive in record order.
struct Trainer::TrainInputs {
    trace::FeatureAccumulator features;
    std::uint64_t max_lbn = 0;    ///< over every storage record
    std::uint32_t max_bank = 0;   ///< over every memory record
    double verify_sum = 0.0;      ///< cpu.verify span seconds
    double verify_total = 0.0;    ///< cpu.verify + cpu.aggregate seconds
    StructureAccumulator structure;

    void observe(const trace::TraceSet& chunk) {
        features.observe(chunk);
        for (const auto& r : chunk.storage) max_lbn = std::max(max_lbn, r.lbn);
        for (const auto& r : chunk.memory) max_bank = std::max(max_bank, r.bank);
        const auto& phases = gfs::span_names().phases;
        const trace::SpanName verify = phases[std::size_t(gfs::Phase::kCpuVerify)];
        const trace::SpanName aggregate = phases[std::size_t(gfs::Phase::kCpuAggregate)];
        for (const auto& s : chunk.spans) {
            // Checked here: the structure fit's std::invalid_argument is
            // replaced by the canonical structure, which would hide it.
            if (!std::isfinite(s.start) || !std::isfinite(s.end))
                throw std::invalid_argument(
                    "Trainer::train: span " + std::to_string(s.span_id) + " of trace " +
                    std::to_string(s.trace_id) + " has a non-finite time (start " +
                    std::to_string(s.start) + ", end " + std::to_string(s.end) + ")");
            if (s.name == verify) verify_sum += s.duration();
            if (s.name == verify || s.name == aggregate) verify_total += s.duration();
        }
        structure.observe(chunk.spans);
    }
};

ServerModel Trainer::train(const trace::TraceSet& ts) const {
    TrainInputs in;
    in.features.reserve(ts.requests.size());
    in.observe(ts);
    return train_impl(std::move(in));
}

ServerModel Trainer::train_streaming(const std::filesystem::path& dir,
                                     std::size_t chunk_rows) const {
    trace::ChunkedReader reader(dir);
    TrainInputs in;
    in.features.reserve(std::size_t(reader.rows(trace::StreamId::kRequests)));
    reader.for_each_chunk(chunk_rows,
                          [&](const trace::TraceSet& c) { in.observe(c); });
    return train_impl(std::move(in));
}

std::unique_ptr<queueing::ArrivalProcess> fit_arrivals(
    const std::vector<trace::RequestFeatures>& features, double ks_threshold) {
    std::vector<double> arrivals = trace::column_arrival(features);
    stats::require_finite(arrivals, "fit_arrivals");
    std::sort(arrivals.begin(), arrivals.end());
    if (arrivals.size() < 3) return std::make_unique<queueing::PoissonArrivals>(1.0);
    std::vector<double> gaps(arrivals.size() - 1);
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        gaps[i - 1] = std::max(arrivals[i] - arrivals[i - 1], 1e-12);
    auto exp_fit = stats::fit_exponential(gaps);
    if (stats::ks_statistic(gaps, *exp_fit) <= ks_threshold)
        return std::make_unique<queueing::PoissonArrivals>(exp_fit->lambda());
    // Divergent-from-Poisson stream: keep the empirical gaps.
    return std::make_unique<queueing::TraceArrivals>(gaps);
}

ServerModel Trainer::train_impl(TrainInputs in) const {
    const obs::TimerScope train_timer(trainer_metrics().train_wall_ns);
    // The per-request accumulators are dropped here, before the fits.
    const auto features = std::exchange(in.features, {}).finish();
    if (features.empty())
        throw std::invalid_argument("Trainer::train: no completed requests in trace");
    trainer_metrics().runs.add();
    trainer_metrics().requests.add(features.size());

    // ---- Network sub-model: the arrival process. -------------------------
    auto arrival_model = fit_arrivals(features, cfg_.arrival_ks_threshold);

    // ---- State spaces. ---------------------------------------------------
    std::uint64_t lbn_space = cfg_.lbn_space;
    if (lbn_space == 0) lbn_space = next_pow2(in.max_lbn + 1);
    std::size_t banks = cfg_.banks;
    if (banks == 0) banks = std::size_t(in.max_bank) + 1;
    auto lbn_disc = std::make_unique<markov::LbnRangeDiscretizer>(
        lbn_space, std::min<std::size_t>(cfg_.lbn_ranges, std::size_t(lbn_space)));
    auto bank_disc = std::make_unique<markov::BankDiscretizer>(banks);
    auto util_disc = std::make_unique<markov::UtilizationDiscretizer>(cfg_.util_levels);

    // ---- Split requests by type, in arrival order. -----------------------
    std::size_t n_reads = 0;
    for (const auto& f : features)
        if (f.storage_type == trace::IoType::kRead) ++n_reads;
    const double read_fraction = double(n_reads) / double(features.size());

    // ---- Learn the CPU verify/aggregate split from span durations. -------
    double verify_fraction = 0.4;
    if (in.verify_total > 0.0 && in.verify_sum > 0.0 &&
        in.verify_sum < in.verify_total)
        verify_fraction = in.verify_sum / in.verify_total;

    auto build_type_model = [&](trace::IoType type) -> std::optional<TypeModel> {
        std::vector<const trace::RequestFeatures*> fs;
        fs.reserve(type == trace::IoType::kRead ? n_reads : features.size() - n_reads);
        for (const auto& f : features)
            if (f.storage_type == type) fs.push_back(&f);
        if (fs.empty()) return std::nullopt;

        // Each sequence and feature column is sized once and looked up
        // once, not per request.
        markov::AnnotatedSequence storage_seq, memory_seq, cpu_seq;
        for (auto* seq : {&storage_seq, &memory_seq, &cpu_seq})
            seq->states.reserve(fs.size());
        auto column = [&fs](markov::AnnotatedSequence& seq,
                            const char* name) -> std::vector<double>& {
            auto& values = seq.features[name];
            values.reserve(fs.size());
            return values;
        };
        auto& storage_size = column(storage_seq, feature::kSize);
        auto& storage_net = column(storage_seq, feature::kNet);
        auto& memory_size = column(memory_seq, feature::kSize);
        auto& memory_type = column(memory_seq, feature::kType);
        auto& cpu_busy = column(cpu_seq, feature::kBusy);
        for (const auto* f : fs) {
            storage_seq.states.push_back(lbn_disc->state_of(double(f->first_lbn)));
            storage_size.push_back(double(f->storage_bytes));
            storage_net.push_back(double(f->network_bytes));
            memory_seq.states.push_back(bank_disc->state_of(double(f->first_bank)));
            memory_size.push_back(double(f->memory_bytes));
            memory_type.push_back(f->memory_type == trace::IoType::kWrite ? 1.0 : 0.0);
            cpu_seq.states.push_back(util_disc->state_of(f->cpu_utilization));
            cpu_busy.push_back(f->cpu_busy_seconds);
        }
        const markov::AnnotatedSequence storage_arr[] = {std::move(storage_seq)};
        const markov::AnnotatedSequence memory_arr[] = {std::move(memory_seq)};
        const markov::AnnotatedSequence cpu_arr[] = {std::move(cpu_seq)};
        std::vector<trace::TraceId> ids;
        ids.reserve(fs.size());
        for (const auto* f : fs) ids.push_back(f->request_id);

        // The three Markov sub-models and the structure queue are fitted
        // from disjoint inputs — run them across the pool. Each result
        // lands in its own slot, so the fit is identical at any thread
        // count (a nested call from a pool worker just runs inline).
        std::optional<markov::AnnotatedMarkovChain> storage, memory, cpu;
        std::optional<StructureQueue> structure;
        par::pool().parallel_for(4, [&](std::size_t task) {
            const obs::TimerScope fit_timer(trainer_metrics().submodel_wall_ns);
            switch (task) {
                case 0:
                    storage = markov::AnnotatedMarkovChain::fit(
                        storage_arr, lbn_disc->n_states(), cfg_.laplace_alpha,
                        cfg_.ks_threshold);
                    break;
                case 1:
                    memory = markov::AnnotatedMarkovChain::fit(
                        memory_arr, bank_disc->n_states(), cfg_.laplace_alpha,
                        cfg_.ks_threshold);
                    break;
                case 2:
                    cpu = markov::AnnotatedMarkovChain::fit(
                        cpu_arr, util_disc->n_states(), cfg_.laplace_alpha,
                        cfg_.ks_threshold);
                    break;
                default:
                    // Structure from span trees of this type's requests.
                    try {
                        structure = in.structure.fit(ids, cfg_.ks_threshold);
                    } catch (const std::invalid_argument&) {
                        if (!cfg_.fallback_structure) throw;
                        structure = StructureQueue::canonical(canonical_phases(type));
                    }
            }
        });
        return TypeModel{std::move(*storage), std::move(*memory), std::move(*cpu),
                         std::move(*structure)};
    };

    // Read-type and write-type models are independent given the shared
    // (read-only) discretizers — fit them concurrently.
    std::optional<TypeModel> models[2];
    par::pool().parallel_for(2, [&](std::size_t i) {
        models[i] =
            build_type_model(i == 0 ? trace::IoType::kRead : trace::IoType::kWrite);
    });
    auto read_model = std::move(models[0]);
    auto write_model = std::move(models[1]);

    return ServerModel(cfg_.workload_name, std::move(arrival_model), read_fraction,
                       std::move(read_model), std::move(write_model),
                       std::move(lbn_disc), std::move(bank_disc), std::move(util_disc),
                       verify_fraction);
}

}  // namespace kooza::core
