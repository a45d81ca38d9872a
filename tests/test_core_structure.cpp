// Tests for the structure queue (KOOZA's time-dependencies model).
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/structure.hpp"
#include "sim/rng.hpp"
#include "trace/sink.hpp"
#include "trace/span.hpp"

namespace {

using kooza::core::StructureQueue;
using kooza::sim::Rng;
using kooza::trace::MemorySink;
using kooza::trace::Span;
using kooza::trace::SpanTracer;
using kooza::trace::TraceId;
using kooza::trace::TraceSet;

// Build spans for `n` traces: 80% A->B->C, 20% A->C.
std::vector<Span> make_spans(std::size_t n) {
    TraceSet recorded;
    MemorySink sink(recorded);
    SpanTracer t(1, sink);
    for (TraceId id = 0; id < n; ++id) {
        const double base = double(id);
        const auto root = t.start_span(id, 0, "request", base);
        const auto a = t.start_span(id, root, "A", base + 0.0);
        t.end_span(a, base + 0.1);
        if (id % 5 != 0) {
            const auto b = t.start_span(id, root, "B", base + 0.1);
            t.end_span(b, base + 0.3);
        }
        const auto c = t.start_span(id, root, "C", base + 0.3);
        t.end_span(c, base + 0.4);
        t.end_span(root, base + 0.4);
    }
    return recorded.spans;
}

std::vector<TraceId> all_ids(std::size_t n) {
    std::vector<TraceId> ids(n);
    for (std::size_t i = 0; i < n; ++i) ids[i] = i;
    return ids;
}

TEST(StructureQueue, LearnsVariantsWithProbabilities) {
    const auto spans = make_spans(100);
    const auto q = StructureQueue::fit(spans, all_ids(100));
    ASSERT_EQ(q.variants().size(), 2u);
    EXPECT_EQ(q.dominant(), (std::vector<std::string>{"A", "B", "C"}));
    EXPECT_NEAR(q.variants()[0].probability, 0.8, 1e-9);
    EXPECT_NEAR(q.variants()[1].probability, 0.2, 1e-9);
    EXPECT_EQ(q.training_traces(), 100u);
}

TEST(StructureQueue, ExcludesRootSpan) {
    const auto q = StructureQueue::fit(make_spans(10), all_ids(10));
    for (const auto& v : q.variants())
        for (const auto& p : v.phases) EXPECT_NE(p, "request");
}

TEST(StructureQueue, SampleMatchesProbabilities) {
    const auto q = StructureQueue::fit(make_spans(100), all_ids(100));
    Rng rng(1);
    std::size_t with_b = 0;
    const std::size_t n = 5000;
    for (std::size_t i = 0; i < n; ++i)
        if (q.sample(rng).size() == 3) ++with_b;
    EXPECT_NEAR(double(with_b) / double(n), 0.8, 0.03);
}

TEST(StructureQueue, PhaseDurationsLearned) {
    const auto q = StructureQueue::fit(make_spans(100), all_ids(100));
    EXPECT_NEAR(q.phase_duration("A").mean(), 0.1, 0.01);
    EXPECT_NEAR(q.phase_duration("B").mean(), 0.2, 0.01);
    EXPECT_TRUE(q.has_phase("C"));
    EXPECT_FALSE(q.has_phase("Z"));
    EXPECT_THROW((void)q.phase_duration("Z"), std::out_of_range);
    EXPECT_EQ(q.phase_names().size(), 3u);
}

TEST(StructureQueue, FilterByTraceIds) {
    const auto spans = make_spans(100);
    // Only the A->C traces (ids divisible by 5).
    std::vector<TraceId> ids;
    for (TraceId id = 0; id < 100; id += 5) ids.push_back(id);
    const auto q = StructureQueue::fit(spans, ids);
    ASSERT_EQ(q.variants().size(), 1u);
    EXPECT_EQ(q.dominant(), (std::vector<std::string>{"A", "C"}));
}

TEST(StructureQueue, NoUsableTracesThrows) {
    const auto spans = make_spans(10);
    const std::vector<TraceId> none{999};
    EXPECT_THROW(StructureQueue::fit(spans, none), std::invalid_argument);
}

TEST(StructureQueue, CanonicalFallback) {
    const auto q = StructureQueue::canonical({"x", "y"});
    EXPECT_EQ(q.dominant(), (std::vector<std::string>{"x", "y"}));
    EXPECT_EQ(q.training_traces(), 0u);
    EXPECT_DOUBLE_EQ(q.phase_duration("x").mean(), 0.0);
    EXPECT_THROW(StructureQueue::canonical({}), std::invalid_argument);
}

TEST(StructureQueue, WantedTraceWithoutRootThrows) {
    auto spans = make_spans(10);
    for (auto& s : spans)
        if (s.trace_id == 3 && s.parent_id == 0) s.parent_id = 99;  // no root left
    EXPECT_THROW(StructureQueue::fit(spans, all_ids(10)), std::invalid_argument);
    const std::vector<TraceId> others{1, 2, 4};
    EXPECT_EQ(StructureQueue::fit(spans, others).training_traces(), 3u);
}

/// Spans for `n` traces with random phase durations, so that every
/// duration fit depends on the order the fold visits its values in.
std::vector<Span> random_spans(std::size_t n) {
    TraceSet recorded;
    MemorySink sink(recorded);
    SpanTracer t(1, sink);
    Rng rng(3);
    for (TraceId id = 0; id < n; ++id) {
        double now = double(id);
        const auto root = t.start_span(id, 0, "request", now);
        const auto phase = [&](const char* name, double rate) {
            const auto s = t.start_span(id, root, name, now);
            now += rng.exponential(rate);
            t.end_span(s, now);
        };
        phase("A", 100.0);
        if (!rng.bernoulli(0.3)) phase("B", 10.0);
        phase("C", 10.0);
        t.end_span(root, now);
    }
    return recorded.spans;
}

void expect_same_queue(const StructureQueue& a, const StructureQueue& b) {
    EXPECT_EQ(a.describe(), b.describe());
    ASSERT_EQ(a.phase_names(), b.phase_names());
    for (const auto& p : a.phase_names()) {
        const auto& da = a.phase_duration(p);
        const auto& db = b.phase_duration(p);
        EXPECT_EQ(da.describe(), db.describe()) << p;
        EXPECT_EQ(da.mean(), db.mean()) << p;
        EXPECT_EQ(da.variance(), db.variance()) << p;
        for (double q : {0.1, 0.5, 0.9}) EXPECT_EQ(da.quantile(q), db.quantile(q)) << p;
    }
}

TEST(StructureAccumulator, ObservationOrderIsIrrelevant) {
    const auto spans = random_spans(300);
    const auto ids = all_ids(300);
    const auto q = StructureQueue::fit(spans, ids);
    ASSERT_EQ(q.variants().size(), 2u);

    const std::vector<Span> reversed(spans.rbegin(), spans.rend());
    expect_same_queue(q, StructureQueue::fit(reversed, ids));

    // Two chunks that interleave: every other span in each.
    std::vector<Span> even, odd;
    for (std::size_t i = 0; i < spans.size(); ++i) (i % 2 ? odd : even).push_back(spans[i]);
    kooza::core::StructureAccumulator acc;
    acc.observe(odd);
    acc.observe(even);
    expect_same_queue(q, acc.fit(ids));
}

TEST(StructureAccumulator, OrdersSpansByStartThenSpanId) {
    // A trace of 40 phases observed last span first, with every two
    // phases starting together, fits as one variant in (start, span id)
    // order.
    TraceSet recorded;
    MemorySink sink(recorded);
    SpanTracer t(1, sink);
    const auto root = t.start_span(0, 0, "request", 0.0);
    std::vector<std::string> names;
    for (std::size_t i = 0; i < 40; ++i) {
        names.push_back(std::to_string(i));
        const auto s = t.start_span(0, root, names.back(), double(i / 2));
        t.end_span(s, double(i / 2) + 0.5);
    }
    t.end_span(root, 40.0);
    const auto spans = recorded.spans;
    const std::vector<Span> reversed(spans.rbegin(), spans.rend());
    const auto q = StructureQueue::fit(reversed, all_ids(1));
    ASSERT_EQ(q.variants().size(), 1u);
    EXPECT_EQ(q.dominant(), names);
}

TEST(StructureAccumulator, RejectsNonFiniteStart) {
    TraceSet recorded;
    MemorySink sink(recorded);
    SpanTracer t(1, sink);
    const auto root = t.start_span(7, 0, "request", 0.0);
    const auto s = t.start_span(7, root, "disk.io", 0.1);
    t.end_span(s, 0.2);
    t.end_span(root, 0.3);
    auto spans = recorded.spans;
    spans.back().start = std::numeric_limits<double>::quiet_NaN();
    kooza::core::StructureAccumulator acc;
    try {
        acc.observe(spans);
        FAIL() << "a NaN start was accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("trace 7"), std::string::npos) << e.what();
    }
}

TEST(StructureQueue, KeepsPhaseNamesOutsideGfsPaths) {
    TraceSet recorded;
    MemorySink sink(recorded);
    SpanTracer t(1, sink);
    for (TraceId id = 0; id < 20; ++id) {
        const double base = double(id);
        const auto root = t.start_span(id, 0, "request", base);
        const auto l = t.start_span(id, root, "master.lookup", base);
        t.end_span(l, base + 0.01);
        const auto f = t.start_span(id, root, "failover", base + 0.01);
        t.end_span(f, base + 0.05);
        const auto d = t.start_span(id, root, "disk.io", base + 0.05);
        t.end_span(d, base + 0.06);
        t.end_span(root, base + 0.06);
    }
    const auto q = StructureQueue::fit(recorded.spans, all_ids(20));
    EXPECT_EQ(q.dominant(),
              (std::vector<std::string>{"master.lookup", "failover", "disk.io"}));
    EXPECT_NEAR(q.phase_duration("failover").mean(), 0.04, 1e-9);
}

TEST(StructureQueue, FromPartsKeepsTiedVariantOrder) {
    // Above 16 variants an unstable sort reorders tied counts; they must
    // keep their order, or a reloaded model samples other phase orders.
    std::vector<StructureQueue::Variant> vs;
    for (std::size_t i = 0; i < 17; ++i) {
        StructureQueue::Variant v;
        v.phases = {"p" + std::to_string(i)};
        v.count = 1 + i % 3;
        vs.push_back(std::move(v));
    }
    const auto q = StructureQueue::from_parts(vs, {}, 17);
    const auto again = StructureQueue::from_parts(q.variants(), {}, 17);
    ASSERT_EQ(again.variants().size(), 17u);
    for (std::size_t i = 0; i < 17; ++i)
        EXPECT_EQ(again.variants()[i].phases, q.variants()[i].phases) << i;
    // Most frequent first, ties in input order.
    EXPECT_EQ(q.variants()[0].phases, (std::vector<std::string>{"p2"}));
    EXPECT_EQ(q.variants()[1].phases, (std::vector<std::string>{"p5"}));
    EXPECT_EQ(q.variants()[16].phases, (std::vector<std::string>{"p15"}));
}

TEST(StructureQueue, ParameterCountAndDescribe) {
    const auto q = StructureQueue::fit(make_spans(50), all_ids(50));
    EXPECT_GT(q.parameter_count(), 0u);
    EXPECT_NE(q.describe().find("variants"), std::string::npos);
}

}  // namespace
