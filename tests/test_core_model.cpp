// Tests for the KOOZA trainer, ServerModel, generator and validator.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <sstream>

#include "baselines/indepth.hpp"
#include "core/capture.hpp"
#include "core/generator.hpp"
#include "core/model_replay.hpp"
#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "core/validator.hpp"
#include "digest.hpp"
#include "gfs/cluster.hpp"
#include "trace/features.hpp"
#include "workloads/profiles.hpp"

namespace {

using namespace kooza::core;
using kooza::sim::Rng;
using kooza::trace::IoType;

kooza::trace::TraceSet simulate_micro(std::size_t count, std::uint64_t seed,
                                      double read_fraction = 0.5) {
    kooza::gfs::GfsConfig cfg;
    kooza::gfs::Cluster cluster(cfg);
    Rng rng(seed);
    kooza::workloads::MicroProfile profile(
        {.count = count, .arrival_rate = 20.0, .read_fraction = read_fraction});
    profile.generate(rng).install(cluster);
    cluster.run();
    return cluster.traces();
}

TEST(Trainer, LearnsReadFraction) {
    const auto ts = simulate_micro(300, 1, 0.7);
    const auto model = Trainer({.workload_name = "m"}).train(ts);
    EXPECT_NEAR(model.read_fraction(), 0.7, 0.08);
    EXPECT_TRUE(model.has_reads());
    EXPECT_TRUE(model.has_writes());
    EXPECT_EQ(model.workload_name(), "m");
}

TEST(Trainer, PoissonArrivalsRecognized) {
    const auto ts = simulate_micro(400, 2);
    const auto model = Trainer().train(ts);
    EXPECT_NE(model.arrivals().describe().find("poisson"), std::string::npos);
    EXPECT_NEAR(model.arrivals().mean_rate(), 20.0, 3.0);
}

TEST(Trainer, StateSpaceSizesFromConfig) {
    const auto ts = simulate_micro(200, 3);
    TrainerConfig cfg;
    cfg.lbn_ranges = 8;
    cfg.util_levels = 6;
    const auto model = Trainer(cfg).train(ts);
    EXPECT_EQ(model.lbn_states().n_states(), 8u);
    EXPECT_EQ(model.util_states().n_states(), 6u);
    // Banks inferred from the simulator's 4-bank memory.
    EXPECT_EQ(model.bank_states().n_states(), 4u);
}

TEST(Trainer, StructureLearnedPerType) {
    const auto ts = simulate_micro(300, 4);
    const auto model = Trainer().train(ts);
    // Dominant read structure is the Fig. 1 path.
    const auto& seq = model.reads().structure.dominant();
    const std::vector<std::string> fig1{"net.rx",  "cpu.verify",    "mem.buffer",
                                        "disk.io", "cpu.aggregate", "net.tx"};
    EXPECT_EQ(seq, fig1);
    EXPECT_EQ(model.writes().structure.dominant(), fig1);
}

TEST(Trainer, VerifyFractionLearned) {
    const auto ts = simulate_micro(300, 5);
    const auto model = Trainer().train(ts);
    EXPECT_GT(model.cpu_verify_fraction(), 0.1);
    EXPECT_LT(model.cpu_verify_fraction(), 0.9);
}

TEST(Trainer, FallbackStructureWhenNoSpans) {
    auto ts = simulate_micro(200, 6);
    ts.spans.clear();
    const auto model = Trainer().train(ts);
    EXPECT_EQ(model.reads().structure.training_traces(), 0u);  // canonical
    EXPECT_FALSE(model.reads().structure.dominant().empty());
}

TEST(Trainer, NoFallbackThrowsWithoutSpans) {
    auto ts = simulate_micro(100, 7);
    ts.spans.clear();
    TrainerConfig cfg;
    cfg.fallback_structure = false;
    EXPECT_THROW(Trainer(cfg).train(ts), std::invalid_argument);
}

TEST(Trainer, EmptyTraceThrows) {
    kooza::trace::TraceSet empty;
    EXPECT_THROW(Trainer().train(empty), std::invalid_argument);
}

TEST(Trainer, SingleTypeWorkload) {
    const auto ts = simulate_micro(150, 8, 1.0);  // all reads
    const auto model = Trainer().train(ts);
    EXPECT_TRUE(model.has_reads());
    EXPECT_FALSE(model.has_writes());
    EXPECT_THROW((void)model.writes(), std::logic_error);
    EXPECT_DOUBLE_EQ(model.read_fraction(), 1.0);
}

/// FNV-1a over the bytes core::save_model writes.
std::uint64_t saved_digest(const ServerModel& m) {
    std::ostringstream os;
    save_model(m, os);
    kooza::testutil::Fnv d;
    d.add_bytes(os.str());
    return d.value();
}

/// Saved-model digests of train() and train_streaming() on one capture.
std::pair<std::uint64_t, std::uint64_t> train_digests(CaptureOptions o,
                                                      const std::string& tag) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
                         ("kooza_pin_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    o.out_dir = dir.string();
    o.format = kooza::trace::Format::kBinary;
    const auto cap = run_capture(o);
    const Trainer trainer({.workload_name = tag});
    const std::pair digests{saved_digest(trainer.train(cap.traces)),
                            saved_digest(trainer.train_streaming(dir))};
    fs::remove_all(dir);
    return digests;
}

TEST(Trainer, SavedModelDigestPinned) {
    // Pins every byte a trained model saves against recorded constants:
    // the families each fit chooses, their parameters to the last digit
    // and the order of the structure variants. The closed-loop model keeps
    // two Weibull fits (disk.io durations), so it pins the shape solver's
    // rounding too; the oltp model has none.
    CaptureOptions oltp;
    oltp.profile = "oltp";
    oltp.count = 3000;
    oltp.seed = 7;
    const auto [oltp_mat, oltp_streamed] = train_digests(oltp, "oltp");
    EXPECT_EQ(oltp_mat, 0x9c5696c8bacea5cfull) << std::hex << oltp_mat;
    EXPECT_EQ(oltp_streamed, 0x9c5696c8bacea5cfull) << std::hex << oltp_streamed;
    CaptureOptions closed;
    closed.closed_loop = true;
    closed.count = 3000;
    closed.seed = 7;
    const auto [closed_mat, closed_streamed] = train_digests(closed, "closed");
    EXPECT_EQ(closed_mat, 0x7157e764305c18ebull) << std::hex << closed_mat;
    EXPECT_EQ(closed_streamed, 0x7157e764305c18ebull) << std::hex << closed_streamed;
}

/// Trains on `ts` and returns the error message.
std::string train_error(const kooza::trace::TraceSet& ts) {
    try {
        (void)Trainer().train(ts);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "no throw";
}

TEST(Trainer, RejectsNonFiniteSpanEnd) {
    auto ts = simulate_micro(200, 21);
    ASSERT_GT(ts.spans.size(), 10u);
    auto& span = ts.spans[10];
    span.end = std::numeric_limits<double>::quiet_NaN();
    const std::string err = train_error(ts);
    EXPECT_NE(err.find("non-finite"), std::string::npos) << err;
    EXPECT_NE(err.find("span " + std::to_string(span.span_id)), std::string::npos) << err;
    EXPECT_NE(err.find("trace " + std::to_string(span.trace_id)), std::string::npos)
        << err;
}

TEST(Trainer, RejectsNonFiniteCpuBusyTime) {
    for (double bad : {std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
        auto ts = simulate_micro(200, 22);
        ASSERT_GT(ts.cpu.size(), 10u);
        auto& rec = ts.cpu[10];
        rec.busy_seconds = bad;
        const std::string err = train_error(ts);
        EXPECT_NE(err.find("non-finite"), std::string::npos) << err;
        EXPECT_NE(err.find("request " + std::to_string(rec.request_id)), std::string::npos)
            << err;
    }
}

TEST(Trainer, RejectsNonFiniteArrival) {
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
        auto ts = simulate_micro(200, 23);
        ts.requests[7].arrival = bad;
        const std::string err = train_error(ts);
        EXPECT_NE(err.find("non-finite"), std::string::npos) << err;
    }
}

TEST(Model, ParameterCountPositiveAndDescribed) {
    const auto ts = simulate_micro(200, 9);
    const auto model = Trainer().train(ts);
    EXPECT_GT(model.parameter_count(), 10u);
    const auto text = model.describe();
    EXPECT_NE(text.find("arrivals"), std::string::npos);
    EXPECT_NE(text.find("read structure"), std::string::npos);
}

TEST(Generator, CountAndArrivalSpacing) {
    const auto ts = simulate_micro(300, 10);
    const auto model = Trainer().train(ts);
    Rng rng(11);
    const auto w = Generator(model).generate(500, rng);
    ASSERT_EQ(w.requests.size(), 500u);
    for (std::size_t i = 1; i < w.requests.size(); ++i)
        EXPECT_GE(w.requests[i].time, w.requests[i - 1].time);
    const double span = w.requests.back().time - w.requests.front().time;
    EXPECT_NEAR(500.0 / span, 20.0, 4.0);
}

TEST(Generator, FeaturesMatchTrainingMixture) {
    const auto ts = simulate_micro(400, 12);
    const auto model = Trainer().train(ts);
    Rng rng(13);
    const auto w = Generator(model).generate(1000, rng);
    std::size_t reads = 0;
    for (const auto& r : w.requests) {
        if (r.type == IoType::kRead) {
            ++reads;
            EXPECT_NEAR(double(r.storage_bytes), 65536.0, 65536.0 * 0.2);
        } else {
            EXPECT_NEAR(double(r.storage_bytes), double(4 << 20),
                        double(4 << 20) * 0.2);
            EXPECT_EQ(r.memory_type, IoType::kWrite);
        }
        EXPECT_FALSE(r.phases.empty());
        EXPECT_GE(r.cpu_busy_seconds, 0.0);
        EXPECT_GT(r.network_bytes, 0u);
    }
    EXPECT_NEAR(double(reads) / 1000.0, model.read_fraction(), 0.05);
}

TEST(Generator, DeterministicBySeed) {
    const auto ts = simulate_micro(200, 14);
    const auto model = Trainer().train(ts);
    Rng a(15), b(15);
    const auto wa = Generator(model).generate(100, a);
    const auto wb = Generator(model).generate(100, b);
    for (std::size_t i = 0; i < 100; ++i) {
        EXPECT_DOUBLE_EQ(wa.requests[i].time, wb.requests[i].time);
        EXPECT_EQ(wa.requests[i].storage_bytes, wb.requests[i].storage_bytes);
    }
}

/// Folds every field of `w`'s requests into `d`, phase names as text.
void add_requests(kooza::testutil::Fnv& d, const SyntheticWorkload& w) {
    for (const auto& r : w.requests) {
        d.add(r.time);
        d.add(r.type);
        d.add(r.network_bytes);
        d.add(r.cpu_busy_seconds);
        d.add(r.memory_bytes);
        d.add(r.memory_type);
        d.add(r.bank);
        d.add(r.storage_bytes);
        d.add(r.storage_type);
        d.add(r.lbn);
        d.add(r.server);
        d.add(std::size_t(r.phases.size()));
        for (const std::string& p : r.phases) {
            d.add(p.size());
            d.add_bytes(p);
        }
    }
}

/// Folds every field of the specs `s` pulls until it is exhausted, the
/// file by the name it has in `s`'s list.
void add_specs(kooza::testutil::Fnv& d, kooza::workloads::ScheduleStream& s) {
    while (const auto r = s.next()) {
        const std::string& file = s.files().at(r->file).first;
        d.add(r->time);
        d.add(file.size());
        d.add_bytes(file);
        d.add(r->offset);
        d.add(r->size);
        d.add(r->type);
        d.add(r->client);
        d.add(r->append);
    }
}

TEST(Generator, SyntheticDigestPinned) {
    // Pins every field the trained models generate, draw for draw, against
    // constants recorded before the chains sampled into flat tables and
    // phase orders were interned: Generator::generate on the two models
    // Trainer.SavedModelDigestPinned trains, the specs ModelReplayGenerator
    // pulls from them, and the in-depth baseline's requests, whose phase
    // orders come from the same structure queue. The specs constant holds
    // offsets at each request's LBN times the disk's block size.
    CaptureOptions oltp;
    oltp.profile = "oltp";
    oltp.count = 3000;
    oltp.seed = 7;
    CaptureOptions closed;
    closed.closed_loop = true;
    closed.count = 3000;
    closed.seed = 7;
    const auto oltp_ts = run_capture(oltp).traces;
    const auto closed_ts = run_capture(closed).traces;
    auto oltp_model = Trainer({.workload_name = "oltp"}).train(oltp_ts);
    auto closed_model = Trainer({.workload_name = "closed"}).train(closed_ts);

    kooza::testutil::Fnv generated;
    Rng rng(11);
    add_requests(generated, Generator(oltp_model).generate(2000, rng));
    add_requests(generated, Generator(closed_model).generate(2000, rng, 5.0));
    EXPECT_EQ(generated.value(), 0x48e4b7586251f7b0ull) << std::hex << generated.value();

    kooza::testutil::Fnv specs;
    ModelReplayGenerator oltp_replay(std::move(oltp_model), {.count = 2000, .seed = 12});
    add_specs(specs, oltp_replay);
    ModelReplayGenerator closed_replay(std::move(closed_model),
                                       {.count = 2000, .seed = 13});
    add_specs(specs, closed_replay);
    EXPECT_EQ(specs.value(), 0xeafec98bb45e87e4ull) << std::hex << specs.value();

    kooza::testutil::Fnv in_depth;
    Rng depth_rng(14);
    add_requests(in_depth,
                 kooza::baselines::InDepthModel::train(oltp_ts).generate(2000, depth_rng));
    add_requests(in_depth, kooza::baselines::InDepthModel::train(closed_ts).generate(
                               2000, depth_rng));
    EXPECT_EQ(in_depth.value(), 0xaabb74f0c067a845ull) << std::hex << in_depth.value();
}

TEST(Generator, ZeroCountRejected) {
    const auto ts = simulate_micro(100, 16);
    const auto model = Trainer().train(ts);
    Rng rng(17);
    EXPECT_THROW(Generator(model).generate(0, rng), std::invalid_argument);
}

TEST(Validator, SingleRequestRows) {
    kooza::trace::RequestFeatures a, b;
    a.network_bytes = 65536;
    b.network_bytes = 65536;
    a.cpu_utilization = 0.021;
    b.cpu_utilization = 0.023;
    a.latency = 0.0114;
    b.latency = 0.01185;
    const auto rep = compare_single(a, b, "1st User Request");
    EXPECT_EQ(rep.rows.size(), 7u);
    EXPECT_DOUBLE_EQ(rep.rows[0].variation_pct, 0.0);  // network size exact
    EXPECT_NEAR(rep.latency_variation(), 3.947, 0.01);
    EXPECT_NE(rep.to_table().find("1st User Request"), std::string::npos);
}

TEST(Validator, AggregateComparison) {
    const auto ts = simulate_micro(200, 18);
    const auto fs = kooza::trace::extract_features(ts);
    const auto rep = compare_features(fs, fs, "self");
    EXPECT_DOUBLE_EQ(rep.max_feature_variation(), 0.0);
    EXPECT_DOUBLE_EQ(rep.latency_variation(), 0.0);
}

TEST(Validator, TailRowsMakeQuantilesAndGoodputFirstClass) {
    const auto ts = simulate_micro(200, 18);
    const auto fs = kooza::trace::extract_features(ts);
    const auto rep = compare_features(fs, fs, "tails");
    auto find_row = [&rep](const std::string& metric) -> const MetricRow* {
        for (const auto& r : rep.rows)
            if (r.metric == metric) return &r;
        return nullptr;
    };
    const auto* p50 = find_row("Latency p50");
    const auto* p95 = find_row("Latency p95");
    const auto* p99 = find_row("Latency p99");
    const auto* goodput = find_row("Goodput");
    ASSERT_NE(p50, nullptr);
    ASSERT_NE(p95, nullptr);
    ASSERT_NE(p99, nullptr);
    ASSERT_NE(goodput, nullptr);
    EXPECT_GT(p50->original, 0.0);
    EXPECT_GE(p95->original, p50->original);
    EXPECT_GE(p99->original, p95->original);
    EXPECT_GT(goodput->original, 0.0);
    EXPECT_EQ(goodput->unit, "req/s");
    // Self-comparison: every new row is exact.
    EXPECT_DOUBLE_EQ(p99->variation_pct, 0.0);
    EXPECT_DOUBLE_EQ(goodput->variation_pct, 0.0);
    // The mean-latency row stays FIRST among Performance rows — that is
    // the latency_variation() contract the quantile rows must not break.
    for (const auto& r : rep.rows) {
        if (r.subsystem != "Performance") continue;
        EXPECT_EQ(r.metric, "Latency");
        break;
    }
    // Tail rows are excluded from max_feature_variation (Performance).
    EXPECT_DOUBLE_EQ(rep.max_feature_variation(), 0.0);
}

// Regression for the empty-side guards: admission control can reject an
// entire phase, leaving one side of the comparison with no completed
// requests. compare_features used to throw from stats::quantile mid-table;
// now every row degrades to the zero-baseline convention and the table
// still renders.
TEST(Validator, EmptySidesRenderInsteadOfThrowing) {
    const auto ts = simulate_micro(120, 18);
    const auto fs = kooza::trace::extract_features(ts);
    ValidationReport rep;
    ASSERT_NO_THROW(rep = compare_features({}, fs, "empty-original"));
    const auto table = rep.to_table();
    EXPECT_NE(table.find("empty-original"), std::string::npos);
    EXPECT_NE(table.find("Latency p99"), std::string::npos);
    for (const auto& r : rep.rows) {
        EXPECT_TRUE(r.absolute || r.variation_pct == 0.0) << r.metric;
        EXPECT_DOUBLE_EQ(r.original, 0.0) << r.metric;
    }
    EXPECT_DOUBLE_EQ(rep.max_feature_variation(), 0.0);  // absolute rows skip it

    ASSERT_NO_THROW(rep = compare_features(fs, {}, "empty-synthetic"));
    EXPECT_NO_THROW((void)rep.to_table());
    ASSERT_NO_THROW(rep = compare_features({}, {}, "both-empty"));
    for (const auto& r : rep.rows) {
        EXPECT_DOUBLE_EQ(r.variation_pct, 0.0) << r.metric;  // 0-vs-0 -> 0%
        EXPECT_FALSE(r.absolute) << r.metric;
    }

    // Single-sample sides exercise the quantile guard's other edge: one
    // completed request still yields finite, rendered quantile rows.
    std::vector<kooza::trace::RequestFeatures> one(fs.begin(), fs.begin() + 1);
    ASSERT_NO_THROW(rep = compare_features(one, one, "single"));
    EXPECT_NO_THROW((void)rep.to_table());
    EXPECT_DOUBLE_EQ(rep.latency_variation(), 0.0);
}

TEST(Synthetic, ToFeaturesProjection) {
    SyntheticWorkload w;
    w.model_name = "test";
    SyntheticRequest r;
    r.time = 1.5;
    r.network_bytes = 100;
    r.memory_bytes = 50;
    r.storage_bytes = 200;
    r.cpu_busy_seconds = 0.01;
    w.requests.push_back(r);
    const auto fs = to_features(w);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].network_bytes, 100u);
    EXPECT_DOUBLE_EQ(fs[0].arrival, 1.5);
    EXPECT_DOUBLE_EQ(fs[0].cpu_busy_seconds, 0.01);
}

}  // namespace
