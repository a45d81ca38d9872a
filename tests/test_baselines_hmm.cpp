// Tests for the Harrison-style HMM storage baseline, including the
// chunked-vs-materialized training byte-identity contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "baselines/hmm.hpp"
#include "core/capture.hpp"
#include "digest.hpp"
#include "gfs/cluster.hpp"
#include "stats/descriptive.hpp"
#include "stats/hypothesis.hpp"
#include "trace/features.hpp"
#include "trace/io.hpp"
#include "workloads/profiles.hpp"

namespace {

namespace fs = std::filesystem;
using kooza::baselines::HmmConfig;
using kooza::baselines::HmmModel;
using kooza::sim::Rng;
using kooza::trace::IoType;

kooza::trace::TraceSet simulate(std::size_t count, std::uint64_t seed) {
    kooza::gfs::GfsConfig cfg;
    kooza::gfs::Cluster cluster(cfg);
    Rng rng(seed);
    kooza::workloads::WebSearchProfile profile(
        {.count = count, .arrival_rate = 25.0});
    profile.generate(rng).install(cluster);
    cluster.run();
    return cluster.traces();
}

struct TempDir {
    fs::path path;
    explicit TempDir(const std::string& tag)
        : path(fs::temp_directory_path() /
               ("kooza_hmm_test_" + tag + "_" + std::to_string(::getpid()))) {
        fs::remove_all(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

/// Exact (bitwise) model equality across every fitted parameter.
void expect_models_identical(const HmmModel& a, const HmmModel& b) {
    const std::pair<const kooza::markov::Echmm*, const kooza::markov::Echmm*>
        pairs[] = {{&a.interarrival_hmm(), &b.interarrival_hmm()},
                   {&a.size_hmm(), &b.size_hmm()}};
    for (const auto& [x, y] : pairs) {
        ASSERT_EQ(x->n_states(), y->n_states());
        EXPECT_EQ(x->training_log_likelihood(), y->training_log_likelihood());
        EXPECT_EQ(x->iterations_run(), y->iterations_run());
        for (std::size_t i = 0; i < x->n_states(); ++i) {
            EXPECT_EQ(x->emission_mean(i), y->emission_mean(i));
            EXPECT_EQ(x->emission_stddev(i), y->emission_stddev(i));
            EXPECT_EQ(x->initial()[i], y->initial()[i]);
            for (std::size_t j = 0; j < x->n_states(); ++j)
                EXPECT_EQ(x->transition(i, j), y->transition(i, j));
        }
    }
    EXPECT_EQ(a.read_fraction(), b.read_fraction());
    ASSERT_EQ(a.state_read_prob().size(), b.state_read_prob().size());
    for (std::size_t s = 0; s < a.state_read_prob().size(); ++s)
        EXPECT_EQ(a.state_read_prob()[s], b.state_read_prob()[s]);
    for (auto t : {IoType::kRead, IoType::kWrite}) {
        EXPECT_EQ(a.means(t).network_bytes, b.means(t).network_bytes);
        EXPECT_EQ(a.means(t).cpu_busy, b.means(t).cpu_busy);
        EXPECT_EQ(a.means(t).memory_bytes, b.means(t).memory_bytes);
        EXPECT_EQ(a.means(t).memory_type, b.means(t).memory_type);
        EXPECT_EQ(a.means(t).bank, b.means(t).bank);
        EXPECT_EQ(a.means(t).lbn, b.means(t).lbn);
        EXPECT_EQ(a.means(t).count, b.means(t).count);
    }
    EXPECT_EQ(a.parameter_count(), b.parameter_count());
    EXPECT_EQ(a.segments_fitted(), b.segments_fitted());
}

TEST(HmmBaseline, TrainsAndGenerates) {
    const auto ts = simulate(300, 1);
    const auto model = HmmModel::train(ts);
    EXPECT_EQ(model.interarrival_hmm().n_states(), 4u);
    EXPECT_EQ(model.size_hmm().n_states(), 4u);
    EXPECT_GT(model.parameter_count(), 0u);
    EXPECT_NE(model.describe().find("Harrison"), std::string::npos);

    Rng rng(2);
    const auto w = model.generate(400, rng);
    ASSERT_EQ(w.requests.size(), 400u);
    EXPECT_EQ(w.model_name, "hmm");
    double prev = 0.0;
    std::size_t reads = 0;
    for (const auto& r : w.requests) {
        EXPECT_GT(r.time, prev);  // arrivals strictly increase
        prev = r.time;
        EXPECT_TRUE(r.phases.empty());  // no structure information
        EXPECT_EQ(r.storage_type, r.type);
        if (r.type == IoType::kRead) ++reads;
    }
    // Request mix tracks the training trace.
    EXPECT_NEAR(double(reads) / 400.0, model.read_fraction(), 0.15);
}

TEST(HmmBaseline, SizeDistributionCaptured) {
    const auto ts = simulate(400, 3);
    const auto model = HmmModel::train(ts);
    Rng rng(4);
    const auto w = model.generate(1000, rng);
    const auto orig = kooza::trace::extract_features(ts);
    const auto orig_sizes = kooza::trace::column_storage_bytes(orig);
    std::vector<double> synth_sizes;
    for (const auto& r : w.requests) synth_sizes.push_back(double(r.storage_bytes));
    // The per-state Gaussians (in log2 space) reproduce the size marginal
    // far better than a single mean would; exactness is KOOZA's job.
    EXPECT_LT(kooza::stats::ks_statistic_two_sample(orig_sizes, synth_sizes), 0.35);
}

TEST(HmmBaseline, ArrivalRateCaptured) {
    const auto ts = simulate(400, 5);
    const auto model = HmmModel::train(ts);
    Rng rng(6);
    const auto w = model.generate(1000, rng);
    const auto orig = kooza::trace::extract_features(ts);
    const double orig_rate =
        double(orig.size() - 1) / (orig.back().arrival - orig.front().arrival);
    const double synth_rate =
        999.0 / (w.requests.back().time - w.requests.front().time);
    EXPECT_NEAR(synth_rate, orig_rate, orig_rate * 0.5);
}

TEST(HmmBaseline, ChunkedMatchesMaterialized) {
    const auto ts = simulate(350, 7);
    TempDir dir("chunked");
    kooza::trace::write_traces(ts, dir.path, kooza::trace::Format::kBinary);

    const auto ts_back = kooza::trace::read_traces(dir.path);
    const auto materialized = HmmModel::train(ts_back);
    // Tiny chunks force many read_rows batches per stream; the fitted
    // model must be byte-identical to the materialized one.
    const auto chunked = HmmModel::train_streaming(dir.path, {}, 64);
    expect_models_identical(materialized, chunked);

    // And chunk size must not matter.
    const auto chunked_large = HmmModel::train_streaming(dir.path, {}, 1 << 16);
    expect_models_identical(chunked, chunked_large);
}

TEST(HmmBaseline, StateCountConfigurable) {
    const auto ts = simulate(300, 8);
    HmmConfig two{.n_states = 2};
    HmmConfig eight{.n_states = 8};
    const auto m2 = HmmModel::train(ts, two);
    const auto m8 = HmmModel::train(ts, eight);
    EXPECT_EQ(m2.size_hmm().n_states(), 2u);
    EXPECT_EQ(m8.size_hmm().n_states(), 8u);
    // Configurability axis: parameter count grows with the state space.
    EXPECT_LT(m2.parameter_count(), m8.parameter_count());
}

TEST(HmmBaseline, SeededRestartsNeverWorse) {
    const auto ts = simulate(300, 9);
    HmmConfig one;
    HmmConfig four{.seed = 11, .n_restarts = 4};
    const auto m1 = HmmModel::train(ts, one);
    const auto m4 = HmmModel::train(ts, four);
    // Restart 0 is the deterministic init, so keep-best can only improve.
    EXPECT_GE(m4.size_hmm().training_log_likelihood(),
              m1.size_hmm().training_log_likelihood());
    EXPECT_GE(m4.interarrival_hmm().training_log_likelihood(),
              m1.interarrival_hmm().training_log_likelihood());
}

TEST(HmmBaseline, TrainDigestPinned) {
    // Pins both Baum-Welch fits of a default-config train against recorded
    // constants: the bits of pi, the transitions, the means, the standard
    // deviations and the training log-likelihood, plus the iterations.
    kooza::core::CaptureOptions o;
    o.profile = "oltp";
    o.count = 3000;
    o.seed = 7;
    const auto model = HmmModel::train(kooza::core::run_capture(o).traces);
    kooza::testutil::Fnv d;
    for (const auto* m : {&model.interarrival_hmm(), &model.size_hmm()}) {
        for (std::size_t i = 0; i < m->n_states(); ++i) {
            d.add(m->initial()[i]);
            for (std::size_t j = 0; j < m->n_states(); ++j) d.add(m->transition(i, j));
            d.add(m->emission_mean(i));
            d.add(m->emission_stddev(i));
        }
        d.add(m->training_log_likelihood());
        d.add(std::uint64_t(m->iterations_run()));
    }
    EXPECT_EQ(d.value(), 0x5aaa4852d80c5c87ull) << std::hex << d.value();
}

TEST(HmmBaseline, Validation) {
    kooza::trace::TraceSet empty;
    EXPECT_THROW(HmmModel::train(empty), std::invalid_argument);

    const auto ts = simulate(200, 10);
    HmmConfig bad_states{.n_states = 0};
    EXPECT_THROW(HmmModel::train(ts, bad_states), std::invalid_argument);
    // Baum-Welch costs n^2 per observation: a state count past the limit is
    // refused before any work, with the limit in the message.
    HmmConfig too_many{.n_states = HmmModel::kMaxStates + 1};
    try {
        (void)HmmModel::train(ts, too_many);
        ADD_FAILURE() << "no throw for n_states " << too_many.n_states;
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("<= 64"), std::string::npos) << e.what();
    }
    EXPECT_THROW(HmmModel::train_streaming("/nonexistent-kooza-capture", too_many),
                 std::invalid_argument);
    HmmConfig bad_segment;
    bad_segment.segment_length = 1;
    EXPECT_THROW(HmmModel::train(ts, bad_segment), std::invalid_argument);

    const auto model = HmmModel::train(ts);
    Rng rng(11);
    EXPECT_THROW(model.generate(0, rng), std::invalid_argument);
    EXPECT_THROW(HmmModel::train_streaming("/nonexistent-kooza-capture"),
                 std::runtime_error);
    TempDir dir("validation");
    kooza::trace::write_traces(ts, dir.path, kooza::trace::Format::kBinary);
    EXPECT_THROW(HmmModel::train_streaming(dir.path, {}, 0),
                 std::invalid_argument);
}

}  // namespace
