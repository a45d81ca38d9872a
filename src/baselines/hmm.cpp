#include "baselines/hmm.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "trace/binary.hpp"

namespace kooza::baselines {

namespace {

/// Arrival gaps below this clamp to it before the log transform (ties in
/// simulated arrival times would otherwise produce log(0)).
constexpr double kMinGap = 1e-9;

struct HmmMetrics {
    obs::Counter& fits = obs::counter("baselines.hmm.fits_total");
    obs::Counter& requests = obs::counter("baselines.hmm.requests_total");
    obs::Histogram& fit_wall_ns = obs::histogram(
        "baselines.hmm.fit_wall_ns", obs::Unit::kNanoseconds, /*wall=*/true);
};

HmmMetrics& hmm_metrics() {
    static HmmMetrics m;
    return m;
}

double log2_size(std::uint64_t bytes) { return std::log2(double(bytes) + 1.0); }

/// Fixed-length segments of the arrival-sorted feature rows, turned into
/// the two observation streams. Segment boundaries are a function of row
/// index only, so any chunking of the record read produces identical
/// sequences.
struct Observations {
    std::vector<std::vector<double>> iat;   ///< log inter-arrival per segment
    std::vector<std::vector<double>> size;  ///< log2(bytes + 1) per segment
};

Observations segment(const std::vector<trace::RequestFeatures>& features,
                     std::size_t segment_length) {
    Observations obs;
    for (std::size_t start = 0; start < features.size(); start += segment_length) {
        const std::size_t end =
            std::min(features.size(), start + segment_length);
        std::vector<double> sizes;
        sizes.reserve(end - start);
        std::vector<double> gaps;
        gaps.reserve(end - start);
        for (std::size_t i = start; i < end; ++i) {
            sizes.push_back(log2_size(features[i].storage_bytes));
            if (i > start)
                gaps.push_back(std::log(std::max(
                    features[i].arrival - features[i - 1].arrival, kMinGap)));
        }
        obs.size.push_back(std::move(sizes));
        if (!gaps.empty()) obs.iat.push_back(std::move(gaps));
    }
    return obs;
}

/// Reject a config before any trace is read.
void check_config(const HmmConfig& cfg) {
    if (cfg.n_states == 0)
        throw std::invalid_argument("HmmModel: n_states must be >= 1");
    if (cfg.n_states > HmmModel::kMaxStates)
        throw std::invalid_argument("HmmModel: n_states must be <= " +
                                    std::to_string(HmmModel::kMaxStates) + ", got " +
                                    std::to_string(cfg.n_states));
    if (cfg.segment_length < 2)
        throw std::invalid_argument("HmmModel: segment_length must be >= 2");
}

}  // namespace

HmmModel HmmModel::fit_from_features(
    const std::vector<trace::RequestFeatures>& features, HmmConfig cfg) {
    // Each segment loses one inter-arrival observation, so demand enough
    // rows that *both* pooled streams satisfy Echmm::fit's 2*n_states.
    if (features.size() < 2 * cfg.n_states + 2)
        throw std::invalid_argument(
            "HmmModel::train: too few completed requests for state count");

    const auto obs = segment(features, cfg.segment_length);
    const auto t0 = std::chrono::steady_clock::now();
    auto iat = markov::Echmm::fit(obs.iat, cfg.n_states, cfg.max_iter, cfg.tol,
                                  cfg.seed, cfg.n_restarts);
    auto size = markov::Echmm::fit(obs.size, cfg.n_states, cfg.max_iter, cfg.tol,
                                   cfg.seed, cfg.n_restarts);
    const auto t1 = std::chrono::steady_clock::now();

    HmmModel m(cfg, std::move(iat), std::move(size));
    m.segments_ = obs.size.size();
    m.fit_seconds_ =
        std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();

    // Per-state request mix: Viterbi-decode each size segment under the
    // fitted model and count read requests per hidden state.
    std::vector<std::size_t> reads(cfg.n_states, 0), total(cfg.n_states, 0);
    std::size_t n_reads = 0;
    std::size_t seg = 0;
    for (std::size_t start = 0; start < features.size();
         start += cfg.segment_length, ++seg) {
        const auto path = m.size_hmm_.viterbi(obs.size[seg]);
        for (std::size_t i = 0; i < path.size(); ++i) {
            const auto& f = features[start + i];
            ++total[path[i]];
            if (f.storage_type == trace::IoType::kRead) {
                ++reads[path[i]];
                ++n_reads;
            }
        }
    }
    m.read_fraction_ = double(n_reads) / double(features.size());
    m.state_read_prob_.resize(cfg.n_states);
    for (std::size_t s = 0; s < cfg.n_states; ++s)  // Laplace-smoothed
        m.state_read_prob_[s] =
            (double(reads[s]) + 1.0) / (double(total[s]) + 2.0);

    // Per-type means for the unmodelled features.
    auto build_means = [&](trace::IoType type) {
        FeatureMeans fm;
        std::size_t mem_writes = 0;
        for (const auto& f : features) {
            if (f.storage_type != type) continue;
            fm.network_bytes += double(f.network_bytes);
            fm.cpu_busy += f.cpu_busy_seconds;
            fm.memory_bytes += double(f.memory_bytes);
            fm.bank += double(f.first_bank);
            fm.lbn += double(f.first_lbn);
            if (f.memory_type == trace::IoType::kWrite) ++mem_writes;
            ++fm.count;
        }
        if (fm.count > 0) {
            const double n = double(fm.count);
            fm.network_bytes /= n;
            fm.cpu_busy /= n;
            fm.memory_bytes /= n;
            fm.bank /= n;
            fm.lbn /= n;
            fm.memory_type = 2 * mem_writes > fm.count ? trace::IoType::kWrite
                                                       : trace::IoType::kRead;
        }
        return fm;
    };
    m.read_means_ = build_means(trace::IoType::kRead);
    m.write_means_ = build_means(trace::IoType::kWrite);
    // The smoothed per-state mix can emit a type the training trace never
    // showed; fall back to the observed type's demands rather than zeros.
    if (m.read_means_.count == 0) {
        m.read_means_ = m.write_means_;
        m.read_means_.count = 0;  // count stays honest: type unseen in training
    }
    if (m.write_means_.count == 0) {
        m.write_means_ = m.read_means_;
        m.write_means_.count = 0;
    }

    hmm_metrics().fits.add();
    hmm_metrics().requests.add(features.size());
    hmm_metrics().fit_wall_ns.observe_seconds(m.fit_seconds_);
    return m;
}

HmmModel HmmModel::train(const trace::TraceSet& ts, HmmConfig cfg) {
    check_config(cfg);
    // extract_features is the FeatureAccumulator fold over one chunk.
    return fit_from_features(trace::extract_features(ts), cfg);
}

HmmModel HmmModel::train_streaming(const std::filesystem::path& dir, HmmConfig cfg,
                                   std::size_t chunk_rows) {
    check_config(cfg);
    trace::ChunkedReader reader(dir);
    trace::FeatureAccumulator facc;
    reader.for_each_chunk(chunk_rows,
                          [&](const trace::TraceSet& c) { facc.observe(c); });
    return fit_from_features(facc.finish(), cfg);
}

core::SyntheticWorkload HmmModel::generate(std::size_t count, sim::Rng& rng) const {
    if (count == 0) throw std::invalid_argument("HmmModel::generate: count 0");
    core::SyntheticWorkload w;
    w.model_name = "hmm";
    w.requests.reserve(count);

    // Arrival times: one inter-arrival HMM walk (log-space observations).
    const auto log_gaps = iat_hmm_.generate(count, rng);

    // Size + type: walk the size HMM manually so the hidden state is
    // visible to the per-state read probability.
    const std::size_t n = size_hmm_.n_states();
    std::vector<std::vector<double>> rows(n, std::vector<double>(n));
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) rows[i][j] = size_hmm_.transition(i, j);

    double t = 0.0;
    std::size_t state = rng.weighted_index(size_hmm_.initial());
    for (std::size_t i = 0; i < count; ++i) {
        if (i > 0) state = rng.weighted_index(rows[state]);
        const double x = std::clamp(
            rng.normal(size_hmm_.emission_mean(state),
                       size_hmm_.emission_stddev(state)),
            0.0, 63.0);
        const bool is_read = rng.bernoulli(state_read_prob_[state]);
        const auto type = is_read ? trace::IoType::kRead : trace::IoType::kWrite;
        const auto& fm = means(type);

        core::SyntheticRequest r;
        t += std::exp(std::clamp(log_gaps[i], -40.0, 40.0));
        r.time = t;
        r.type = type;
        r.storage_bytes =
            std::uint64_t(std::llround(std::max(std::exp2(x) - 1.0, 0.0)));
        r.storage_type = type;
        r.network_bytes = std::uint64_t(std::llround(fm.network_bytes));
        r.cpu_busy_seconds = fm.cpu_busy;
        r.memory_bytes = std::uint64_t(std::llround(fm.memory_bytes));
        r.memory_type = fm.memory_type;
        r.bank = std::uint32_t(std::llround(fm.bank));
        r.lbn = std::uint64_t(std::llround(fm.lbn));
        w.requests.push_back(std::move(r));
    }
    return w;
}

std::size_t HmmModel::parameter_count() const {
    std::size_t params = iat_hmm_.parameter_count() + size_hmm_.parameter_count() +
                         state_read_prob_.size() + 1;  // + read fraction
    if (read_means_.count > 0) params += 6;
    if (write_means_.count > 0) params += 6;
    return params;
}

std::string HmmModel::describe() const {
    std::ostringstream os;
    os << "HmmModel (Harrison-style Baum-Welch HMM over inter-arrival/size "
          "streams), "
       << cfg_.n_states << " states, " << parameter_count() << " params, "
       << segments_ << " segments, iat ll=" << iat_hmm_.training_log_likelihood()
       << ", size ll=" << size_hmm_.training_log_likelihood();
    return os.str();
}

}  // namespace kooza::baselines
