// Tests for trace records, Dapper-style spans, TraceSet, CSV IO and
// request-feature extraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "trace/csv.hpp"
#include "trace/features.hpp"
#include "trace/records.hpp"
#include "trace/sink.hpp"
#include "trace/span.hpp"
#include "trace/traceset.hpp"

namespace {

using namespace kooza::trace;

TEST(Records, IoTypeRoundTrip) {
    EXPECT_STREQ(to_string(IoType::kRead), "read");
    EXPECT_STREQ(to_string(IoType::kWrite), "write");
    EXPECT_EQ(enum_from_string<IoType>("read"), IoType::kRead);
    EXPECT_EQ(enum_from_string<IoType>("write"), IoType::kWrite);
    EXPECT_THROW((void)enum_from_string<IoType>("bogus"), std::invalid_argument);
}

TEST(Records, RequestLatency) {
    RequestRecord r;
    r.arrival = 1.5;
    r.completion = 3.0;
    EXPECT_DOUBLE_EQ(r.latency(), 1.5);
}

TEST(SpanTracer, RecordsWhenSampled) {
    TraceSet recorded;
    MemorySink sink(recorded);
    SpanTracer t(1, sink);
    const auto root = t.start_span(0, 0, "request", 0.0);
    const auto child = t.start_span(0, root, "disk.io", 0.1);
    t.end_span(child, 0.2);
    t.end_span(root, 0.3);
    ASSERT_EQ(recorded.spans.size(), 2u);
    EXPECT_EQ(recorded.spans[0].name, "disk.io");
    EXPECT_DOUBLE_EQ(recorded.spans[1].duration(), 0.3);
}

TEST(SpanTracer, HeadSamplingDropsWholeTraces) {
    const auto& hist = kooza::obs::histogram("trace.phase.request.duration_ns",
                                             kooza::obs::Unit::kNanoseconds);
    const auto observed = hist.count();
    TraceSet recorded;
    MemorySink sink(recorded);
    SpanTracer t(10, sink);
    for (TraceId id = 0; id < 100; ++id) {
        const auto s = t.start_span(id, 0, "request", 0.0);
        t.end_span(s, 1.0);
    }
    EXPECT_EQ(SpanTree::trace_ids(recorded.spans).size(), 10u);  // ids 0,10,...,90
    EXPECT_EQ(t.operations_requested(), 200u);
    EXPECT_EQ(t.operations_recorded(), 20u);
    // The phase histograms see the sampled traces only.
    EXPECT_EQ(hist.count() - observed, 10u);
}

TEST(SpanTracer, UnsampledHandleIsNoop) {
    TraceSet recorded;
    MemorySink sink(recorded);
    SpanTracer t(2, sink);
    const auto s = t.start_span(1, 0, "request", 0.0);  // id 1 not sampled
    EXPECT_EQ(s, 0u);
    EXPECT_NO_THROW(t.end_span(s, 1.0));
    EXPECT_TRUE(recorded.spans.empty());
}

TEST(SpanTracer, UnknownHandleThrows) {
    TraceSet recorded;
    MemorySink sink(recorded);
    SpanTracer t(1, sink);
    EXPECT_THROW(t.end_span(99, 1.0), std::logic_error);
    EXPECT_THROW(SpanTracer(0, sink), std::invalid_argument);
}

TEST(SpanTracer, EndingTwiceThrows) {
    TraceSet recorded;
    MemorySink sink(recorded);
    SpanTracer t(1, sink);
    const auto root = t.start_span(1, 0, "request", 0.0);
    const auto child = t.start_span(1, root, "disk.io", 0.1);
    t.end_span(child, 0.2);
    EXPECT_THROW(t.end_span(child, 0.3), std::logic_error);  // behind an open root
    t.end_span(root, 0.4);
    EXPECT_THROW(t.end_span(root, 0.5), std::logic_error);  // table empty
    EXPECT_EQ(recorded.spans.size(), 2u);
}

TEST(SpanTracer, LongLivedRootOutlivesManyChildren) {
    // The open-span table is indexed from the oldest open span, so a root
    // that stays open pins every later slot until it closes. Odd children
    // close after the next child, out of opening order.
    constexpr SpanId kChildren = 10'000;
    TraceSet recorded;
    MemorySink sink(recorded);
    SpanTracer t(1, sink);
    const auto root = t.start_span(3, 0, "request", 0.0);
    std::vector<SpanId> completed;
    SpanId held = 0;
    for (SpanId i = 0; i < kChildren; ++i) {
        const double now = double(i);
        const auto child = t.start_span(3, root, i % 2 ? "disk.io" : "net.rx", now);
        ASSERT_EQ(child, root + 1 + i);
        if (i % 2 == 1) {
            held = child;
            continue;
        }
        t.end_span(child, now + 0.5);
        completed.push_back(child);
        if (held != 0) {
            t.end_span(held, now + 0.5);
            completed.push_back(held);
            held = 0;
        }
    }
    t.end_span(held, 1e6);
    completed.push_back(held);
    t.end_span(root, 1e9);
    const auto& spans = recorded.spans;
    ASSERT_EQ(spans.size(), kChildren + 1);
    for (std::size_t i = 0; i < completed.size(); ++i) {
        ASSERT_EQ(spans[i].span_id, completed[i]) << i;
        EXPECT_EQ(spans[i].parent_id, root) << i;
        EXPECT_EQ(spans[i].trace_id, 3u) << i;
        EXPECT_EQ(spans[i].name, (spans[i].span_id - root) % 2 ? "net.rx" : "disk.io");
        EXPECT_EQ(spans[i].start, double(spans[i].span_id - root - 1)) << i;
    }
    EXPECT_EQ(spans.back().span_id, root);
    EXPECT_EQ(spans.back().parent_id, 0u);
    EXPECT_DOUBLE_EQ(spans.back().duration(), 1e9);
}

TEST(SpanName, InternsText) {
    const SpanName a("disk.io");
    const SpanName b(std::string("disk.") + "io");
    EXPECT_EQ(a.id(), b.id());
    EXPECT_EQ(a.str(), "disk.io");
    EXPECT_NE(SpanName("net.rx"), a);
    EXPECT_EQ(SpanName().id(), 0u);
    EXPECT_EQ(SpanName().str(), "");
    EXPECT_EQ(SpanName(""), SpanName());
    const std::string bytes("nul\0and\xff", 8);
    EXPECT_EQ(SpanName(bytes).str(), bytes);
}

TEST(SpanName, ConcurrentInterningAgrees) {
    // Four threads each intern 1,000 names; the even ones are shared by
    // all four, the odd ones are the thread's own.
    constexpr int kThreads = 4;
    constexpr int kNames = 1'000;
    auto text = [](int thread, int i) {
        return i % 2 == 0 ? "shared." + std::to_string(i)
                          : "own." + std::to_string(thread) + "." + std::to_string(i);
    };
    std::vector<std::vector<std::uint32_t>> ids(kThreads);
    std::vector<std::thread> threads;
    for (int th = 0; th < kThreads; ++th)
        threads.emplace_back([&, th] {
            for (int i = 0; i < kNames; ++i)
                ids[th].push_back(SpanName(text(th, i)).id());
        });
    for (auto& th : threads) th.join();
    std::set<std::uint32_t> own;
    for (int th = 0; th < kThreads; ++th)
        for (int i = 0; i < kNames; ++i) {
            const SpanName name(text(th, i));
            EXPECT_EQ(name.id(), ids[th][i]);
            EXPECT_EQ(name.str(), text(th, i));
            if (i % 2 == 0)
                EXPECT_EQ(ids[th][i], ids[0][i]);
            else
                EXPECT_TRUE(own.insert(ids[th][i]).second);
        }
}

std::vector<Span> make_tree_spans() {
    TraceSet recorded;
    MemorySink sink(recorded);
    SpanTracer t(1, sink);
    const auto root = t.start_span(7, 0, "request", 0.0);
    const auto rx = t.start_span(7, root, "net.rx", 0.0);
    t.end_span(rx, 0.1);
    const auto cpu = t.start_span(7, root, "cpu.verify", 0.1);
    t.end_span(cpu, 0.2);
    const auto io = t.start_span(7, root, "disk.io", 0.2);
    t.end_span(io, 0.8);
    t.end_span(root, 1.0);
    return recorded.spans;
}

TEST(SpanTree, BuildsAndOrders) {
    const auto spans = make_tree_spans();
    SpanTree tree(spans, 7);
    EXPECT_EQ(tree.root().name, "request");
    EXPECT_DOUBLE_EQ(tree.total_duration(), 1.0);
    const auto seq = tree.phase_sequence();
    // Root sorts first (same start as net.rx but recorded earlier).
    ASSERT_EQ(seq.size(), 4u);
    EXPECT_EQ(seq[0], "request");
    EXPECT_EQ(seq[1], "net.rx");
    EXPECT_EQ(seq[2], "cpu.verify");
    EXPECT_EQ(seq[3], "disk.io");
    const auto durs = tree.phase_durations();
    EXPECT_NEAR(durs[3], 0.6, 1e-12);
}

TEST(SpanTree, ChildrenOfRoot) {
    const auto spans = make_tree_spans();
    SpanTree tree(spans, 7);
    EXPECT_EQ(tree.children_of(tree.root().span_id).size(), 3u);
}

TEST(SpanTree, RenderShowsHierarchy) {
    const auto spans = make_tree_spans();
    SpanTree tree(spans, 7);
    const auto text = tree.render();
    EXPECT_NE(text.find("request"), std::string::npos);
    EXPECT_NE(text.find("  net.rx"), std::string::npos);
}

TEST(SpanTree, MissingTraceThrows) {
    const auto spans = make_tree_spans();
    EXPECT_THROW(SpanTree(spans, 99), std::invalid_argument);
}

TEST(SpanTree, TraceIdsEnumerates) {
    auto spans = make_tree_spans();
    auto more = make_tree_spans();
    for (auto& s : more) s.trace_id = 8;
    spans.insert(spans.end(), more.begin(), more.end());
    EXPECT_EQ(SpanTree::trace_ids(spans), (std::vector<TraceId>{7, 8}));
}

TraceSet make_sample_traceset() {
    TraceSet ts;
    // Request 1: a 64 KB read. Network tx 64K, cpu 2 bursts, memory 16K,
    // storage 64K.
    ts.requests.push_back({1, IoType::kRead, 0.0, 0.010, 65536});
    ts.network.push_back({0.009, 1, 65536, NetworkRecord::Direction::kTx, 0.001});
    ts.cpu.push_back({0.001, 1, 0.0001, 1.0});
    ts.cpu.push_back({0.008, 1, 0.0001, 1.0});
    ts.memory.push_back({0.002, 1, 2, 16384, IoType::kRead});
    ts.storage.push_back({0.003, 1, 1000, 65536, IoType::kRead, 0.005});
    // Request 2: a write.
    ts.requests.push_back({2, IoType::kWrite, 0.020, 0.050, 4 << 20});
    ts.network.push_back({0.020, 2, 4 << 20, NetworkRecord::Direction::kRx, 0.002});
    ts.cpu.push_back({0.030, 2, 0.0010, 1.0});
    ts.memory.push_back({0.031, 2, 3, 262144, IoType::kWrite});
    ts.storage.push_back({0.032, 2, 5000, 4 << 20, IoType::kWrite, 0.01});
    return ts;
}

TEST(TraceSet, MergeAndCounts) {
    auto a = make_sample_traceset();
    const auto b = make_sample_traceset();
    const auto before = a.total_records();
    a.merge(b);
    EXPECT_EQ(a.total_records(), 2 * before);
    EXPECT_FALSE(a.empty());
    a.clear();
    EXPECT_TRUE(a.empty());
}

TEST(TraceSet, SortByTime) {
    TraceSet ts;
    ts.storage.push_back({5.0, 1, 0, 10, IoType::kRead, 0.0});
    ts.storage.push_back({1.0, 2, 0, 10, IoType::kRead, 0.0});
    ts.sort_by_time();
    EXPECT_DOUBLE_EQ(ts.storage[0].time, 1.0);
}

TEST(TraceSet, SummaryMentionsCounts) {
    const auto ts = make_sample_traceset();
    EXPECT_NE(ts.summary().find("requests=2"), std::string::npos);
}

TEST(Features, ExtractAggregates) {
    const auto fs = extract_features(make_sample_traceset());
    ASSERT_EQ(fs.size(), 2u);
    // Sorted by arrival: request 1 first.
    EXPECT_EQ(fs[0].request_id, 1u);
    EXPECT_EQ(fs[0].network_bytes, 65536u);
    EXPECT_EQ(fs[0].memory_bytes, 16384u);
    EXPECT_EQ(fs[0].memory_type, IoType::kRead);
    EXPECT_EQ(fs[0].storage_bytes, 65536u);
    EXPECT_EQ(fs[0].storage_type, IoType::kRead);
    EXPECT_NEAR(fs[0].latency, 0.010, 1e-12);
    // Per-request CPU utilization = busy / latency = 0.0002 / 0.010.
    EXPECT_NEAR(fs[0].cpu_utilization, 0.02, 1e-9);
    EXPECT_EQ(fs[0].first_lbn, 1000u);
    EXPECT_EQ(fs[0].first_bank, 2u);
    // Write request.
    EXPECT_EQ(fs[1].storage_type, IoType::kWrite);
    EXPECT_EQ(fs[1].memory_type, IoType::kWrite);
}

TEST(Features, ColumnsAligned) {
    const auto fs = extract_features(make_sample_traceset());
    EXPECT_EQ(column_network_bytes(fs).size(), 2u);
    EXPECT_DOUBLE_EQ(column_latency(fs)[0], 0.010);
    EXPECT_DOUBLE_EQ(column_arrival(fs)[1], 0.020);
    EXPECT_DOUBLE_EQ(column_storage_bytes(fs)[1], double(4 << 20));
}

TEST(Features, ToStringReadable) {
    const auto fs = extract_features(make_sample_traceset());
    EXPECT_NE(fs[0].to_string().find("req 1"), std::string::npos);
}

/// The reference fold: per-request sums in a std::map keyed by request
/// id, rows in request-record order, then sorted by arrival as
/// FeatureAccumulator::finish sorts them.
std::vector<RequestFeatures> map_fold(const TraceSet& ts) {
    struct Sums {
        std::uint64_t rx = 0, tx = 0;
        double busy = 0.0;
        std::uint64_t mem_read = 0, mem_write = 0, sto_read = 0, sto_write = 0;
        double first_mem = -1.0, first_sto = -1.0;
        std::uint32_t bank = 0;
        std::uint64_t lbn = 0;
    };
    std::map<std::uint64_t, Sums> acc;
    for (const auto& r : ts.network)
        (r.direction == NetworkRecord::Direction::kRx ? acc[r.request_id].rx
                                                      : acc[r.request_id].tx) +=
            r.size_bytes;
    for (const auto& r : ts.cpu) acc[r.request_id].busy += r.busy_seconds;
    for (const auto& r : ts.memory) {
        auto& a = acc[r.request_id];
        (r.type == IoType::kRead ? a.mem_read : a.mem_write) += r.size_bytes;
        if (a.first_mem < 0.0 || r.time < a.first_mem) {
            a.first_mem = r.time;
            a.bank = r.bank;
        }
    }
    for (const auto& r : ts.storage) {
        auto& a = acc[r.request_id];
        (r.type == IoType::kRead ? a.sto_read : a.sto_write) += r.size_bytes;
        if (a.first_sto < 0.0 || r.time < a.first_sto) {
            a.first_sto = r.time;
            a.lbn = r.lbn;
        }
    }
    std::vector<RequestFeatures> out;
    for (const auto& req : ts.requests) {
        RequestFeatures f;
        f.request_id = req.request_id;
        f.arrival = req.arrival;
        f.latency = req.latency();
        if (const auto it = acc.find(req.request_id); it != acc.end()) {
            const Sums& a = it->second;
            f.network_bytes = std::max(a.rx, a.tx);
            f.cpu_utilization = f.latency > 0.0 ? a.busy / f.latency : 0.0;
            f.memory_bytes = a.mem_read + a.mem_write;
            f.memory_type = a.mem_write > a.mem_read ? IoType::kWrite : IoType::kRead;
            f.storage_bytes = a.sto_read + a.sto_write;
            f.storage_type = a.sto_write > a.sto_read ? IoType::kWrite : IoType::kRead;
            f.cpu_busy_seconds = a.busy;
            f.first_lbn = a.lbn;
            f.first_bank = a.bank;
        }
        out.push_back(f);
    }
    std::sort(out.begin(), out.end(), [](const RequestFeatures& a, const RequestFeatures& b) {
        return a.arrival < b.arrival;
    });
    return out;
}

void expect_same_rows(const std::vector<RequestFeatures>& got,
                      const std::vector<RequestFeatures>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE("row " + std::to_string(i) + ", request " +
                     std::to_string(want[i].request_id));
        EXPECT_EQ(got[i].request_id, want[i].request_id);
        EXPECT_EQ(got[i].arrival, want[i].arrival);
        EXPECT_EQ(got[i].latency, want[i].latency);
        EXPECT_EQ(got[i].network_bytes, want[i].network_bytes);
        EXPECT_EQ(got[i].cpu_utilization, want[i].cpu_utilization);
        EXPECT_EQ(got[i].cpu_busy_seconds, want[i].cpu_busy_seconds);
        EXPECT_EQ(got[i].memory_bytes, want[i].memory_bytes);
        EXPECT_EQ(got[i].memory_type, want[i].memory_type);
        EXPECT_EQ(got[i].storage_bytes, want[i].storage_bytes);
        EXPECT_EQ(got[i].storage_type, want[i].storage_type);
        EXPECT_EQ(got[i].first_lbn, want[i].first_lbn);
        EXPECT_EQ(got[i].first_bank, want[i].first_bank);
    }
}

/// Requests whose ids sit at the edges of the id space and 10,000 more
/// spaced 2^40 apart. Every fourth id has device records but no request
/// record, every fifth a request record but no device records.
TraceSet edge_id_traceset() {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::vector<std::uint64_t> ids{0, 1ull << 32, 1ull << 63, kMax - 1, kMax};
    for (std::uint64_t i = 1; i <= 10'000; ++i) ids.push_back(i << 40);
    TraceSet ts;
    for (std::size_t k = 0; k < ids.size(); ++k) {
        const std::uint64_t id = ids[k];
        const double t = double(k % 977) * 0.01;  // repeats: ties in arrival
        if (k % 4 != 3)
            ts.requests.push_back(
                {id, k % 3 == 0 ? IoType::kWrite : IoType::kRead, t, t + 0.002 * double(k % 7 + 1),
                 4096 * (k % 5 + 1)});
        if (k % 5 == 4) continue;
        ts.network.push_back({t, id, 100 + k, NetworkRecord::Direction::kRx, 0.001});
        ts.network.push_back({t + 0.001, id, 200 + 3 * (k % 11), NetworkRecord::Direction::kTx, 0.001});
        ts.cpu.push_back({t, id, 1e-5 * double(k % 13 + 1), 1.0});
        ts.cpu.push_back({t + 0.001, id, 2e-5, 1.0});
        // Out of time order: the later record is seen first.
        ts.memory.push_back({t + 0.0015, id, std::uint32_t(k % 4), 512 * (k % 3 + 1),
                             IoType::kRead});
        ts.memory.push_back({t + 0.0005, id, std::uint32_t((k + 1) % 4), 1024,
                             k % 2 == 0 ? IoType::kWrite : IoType::kRead});
        ts.storage.push_back({t + 0.0012, id, id ^ 0xffff, 65536, IoType::kRead, 0.001});
        ts.storage.push_back({t + 0.0011, id, id >> 3, 65536 * (k % 2 + 1),
                              IoType::kWrite, 0.001});
    }
    return ts;
}

TEST(Features, EdgeIdsFoldLikeAMap) {
    const TraceSet ts = edge_id_traceset();
    const auto want = map_fold(ts);
    ASSERT_EQ(want.size(), ts.requests.size());
    expect_same_rows(extract_features(ts), want);

    // Per-stream chunks, streams in another order and each cut in three.
    FeatureAccumulator acc;
    auto cut = [&acc](const auto& records, auto member) {
        const std::size_t n = records.size();
        for (std::size_t part = 0; part < 3; ++part) {
            TraceSet chunk;
            (chunk.*member).assign(records.begin() + std::ptrdiff_t(n * part / 3),
                                   records.begin() + std::ptrdiff_t(n * (part + 1) / 3));
            acc.observe(chunk);
        }
    };
    cut(ts.storage, &TraceSet::storage);
    cut(ts.requests, &TraceSet::requests);
    cut(ts.cpu, &TraceSet::cpu);
    cut(ts.memory, &TraceSet::memory);
    cut(ts.network, &TraceSet::network);
    expect_same_rows(acc.finish(), want);
}

TEST(Features, NonFiniteValuesNameTheRequest) {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    const std::string name = "request " + std::to_string(kMax);
    TraceSet busy = edge_id_traceset();
    busy.cpu[7].request_id = kMax;
    busy.cpu[7].busy_seconds = std::numeric_limits<double>::quiet_NaN();
    try {
        (void)extract_features(busy);
        ADD_FAILURE() << "NaN busy time accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos) << e.what();
    }
    TraceSet arrival = edge_id_traceset();
    const auto last = std::find_if(arrival.requests.begin(), arrival.requests.end(),
                                   [](const RequestRecord& r) { return r.request_id == kMax; });
    ASSERT_NE(last, arrival.requests.end());
    last->arrival = std::numeric_limits<double>::quiet_NaN();
    try {
        (void)extract_features(arrival);
        ADD_FAILURE() << "NaN arrival accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos) << e.what();
    }
}

TEST(Csv, RoundTrip) {
    auto ts = make_sample_traceset();
    ts.spans = make_tree_spans();
    const auto dir = std::filesystem::temp_directory_path() / "kooza_csv_test";
    std::filesystem::remove_all(dir);
    write_csv(ts, dir);
    const auto back = read_csv(dir);
    EXPECT_EQ(back.storage.size(), ts.storage.size());
    EXPECT_EQ(back.cpu.size(), ts.cpu.size());
    EXPECT_EQ(back.memory.size(), ts.memory.size());
    EXPECT_EQ(back.network.size(), ts.network.size());
    EXPECT_EQ(back.requests.size(), ts.requests.size());
    EXPECT_EQ(back.spans.size(), ts.spans.size());
    EXPECT_EQ(back.storage[0].lbn, ts.storage[0].lbn);
    EXPECT_EQ(back.storage[0].type, ts.storage[0].type);
    EXPECT_DOUBLE_EQ(back.requests[1].completion, ts.requests[1].completion);
    EXPECT_EQ(back.spans[0].name, ts.spans[0].name);
    std::filesystem::remove_all(dir);
}

TEST(Csv, MissingDirectoryThrows) {
    // A partial or absent capture must fail loudly, not read as a quiet
    // workload with empty streams.
    EXPECT_THROW((void)read_csv("/nonexistent/kooza"), std::runtime_error);
}

TEST(Csv, MalformedRowThrows) {
    const auto dir = std::filesystem::temp_directory_path() / "kooza_csv_bad";
    std::filesystem::remove_all(dir);
    write_csv(TraceSet{}, dir);
    {
        std::ofstream f(dir / "cpu.csv");
        f << "time,request_id,busy_seconds,utilization\n";
        f << "1.0,nonsense,0.1,0.5\n";
    }
    EXPECT_THROW(read_csv(dir), std::runtime_error);
    std::filesystem::remove_all(dir);
}

}  // namespace
