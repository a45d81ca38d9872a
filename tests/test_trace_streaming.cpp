// StreamingSink / ChunkedReader / train_streaming — the streamed capture
// path's unit contracts: canonical record ordering under the hold
// protocol (holds opened out of clock order and sharing keys included),
// chunk-size and spill-buffer invariance of the produced bytes, the
// sink's tallies, kooza.trace/1 bytes pinned absolutely for three
// captures, bounded-memory row-range reads agreeing with read_binary,
// and Trainer::train_streaming producing a byte-identical model to
// training on the materialized TraceSet.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/capture.hpp"
#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "trace/binary.hpp"
#include "trace/io.hpp"
#include "trace/sink.hpp"
#include "trace/streaming.hpp"

#include "digest.hpp"

namespace {

namespace fs = std::filesystem;
using namespace kooza;
using namespace kooza::trace;

fs::path fresh_dir(const char* name) {
    const auto dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    return dir;
}

std::string slurp(const fs::path& p) {
    std::ifstream f(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void expect_dirs_byte_equal(const fs::path& a, const fs::path& b) {
    for (const auto* stem : kStreamStems) {
        const auto name = std::string(stem) + ".bin";
        EXPECT_EQ(slurp(a / name), slurp(b / name)) << name;
    }
}

/// A kooza.trace/1 capture's digest, with its failure and span row
/// counts so a case can insist the streams it pins are populated.
struct BinDigest {
    std::uint64_t value = 0;
    std::uint64_t failures = 0;
    std::uint64_t spans = 0;
};

/// FNV-1a over the seven .bin files the capture `o` writes, in stream
/// order, each file's name before its bytes.
BinDigest bin_capture_digest(core::CaptureOptions o, const std::string& tag) {
    const auto dir = fs::temp_directory_path() /
                     ("kooza_bin_pin_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    o.out_dir = dir.string();
    o.format = Format::kBinary;
    (void)core::run_capture(o);
    testutil::Fnv d;
    for (const auto* stem : kStreamStems) {
        const auto name = std::string(stem) + ".bin";
        d.add_bytes(name);
        d.add_bytes(slurp(dir / name));
    }
    BinDigest out{d.value(), 0, 0};
    {
        ChunkedReader reader(dir);
        out.failures = reader.rows(StreamId::kFailures);
        out.spans = reader.rows(StreamId::kSpans);
    }
    fs::remove_all(dir);
    return out;
}

StorageRecord storage_at(double t, std::uint64_t id) {
    return {t, id, /*lbn=*/id * 8, /*size_bytes=*/4096, IoType::kRead,
            /*latency=*/0.001};
}

// The hold protocol's ordering contract: a record keyed in the past may
// arrive late (its I/O completed late), but as long as its emitter held
// the key, the sink must still lay it down before later-keyed records
// that arrived earlier.
TEST(Streaming, HoldsReorderLateArrivalsCanonically) {
    const auto dir = fresh_dir("kooza_stream_holds");
    double now = 0.0;
    StreamingSink sink({.dir = dir}, /*n_groups=*/3);
    sink.set_clock([&now] { return now; });

    // Group 1 issues a disk I/O at t=1.0; the record only lands later.
    sink.group(1).open_hold(StreamId::kStorage, 1.0);
    now = 3.0;
    // Group 2's record keyed t=2.0 arrives first. It must wait behind
    // the open hold — nothing keyed >= 1.0 may flush yet.
    sink.group(2).append(storage_at(2.0, 200));
    // The held record lands and the hold closes: both flush, in key
    // order, not arrival order.
    sink.group(1).append(storage_at(1.0, 100));
    sink.group(1).close_hold(StreamId::kStorage, 1.0);
    now = 10.0;
    sink.group(0).append(storage_at(9.0, 300));
    sink.finish();
    EXPECT_EQ(sink.records_seen(), 3u);

    const auto back = read_binary(dir);
    ASSERT_EQ(back.storage.size(), 3u);
    EXPECT_EQ(back.storage[0].request_id, 100u);
    EXPECT_EQ(back.storage[1].request_id, 200u);
    EXPECT_EQ(back.storage[2].request_id, 300u);

    // Byte-identity with the materialized path over the same records.
    TraceSet ts;
    ts.storage = {storage_at(1.0, 100), storage_at(2.0, 200),
                  storage_at(9.0, 300)};
    const auto mat = fresh_dir("kooza_stream_holds_mat");
    write_binary(ts, mat);
    expect_dirs_byte_equal(dir, mat);
    fs::remove_all(dir);
    fs::remove_all(mat);
}

// The Sink contract allows a hold at any key the stream's watermark has
// not passed, not only at the clock: below the newest open key, on a key
// other holds share, closed in any order. Seeded schedules over three
// groups and two streams must still lay records down exactly as the
// materialized path does. A second close of a closed key is an emitter
// bug, and its error names the stream and the key.
TEST(Streaming, HoldsBelowTheNewestKeyKeepCanonicalOrder) {
    struct Hold {
        StreamId stream;
        std::size_t group;
        double key;
    };
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        sim::Rng rng(seed);
        const auto dir = fresh_dir("kooza_stream_runs");
        const auto mat = fresh_dir("kooza_stream_runs_mat");
        double now = 0.0;
        StreamingSink sink({.dir = dir, .chunk_records = 7, .spill_buffer_bytes = 256},
                           /*n_groups=*/3);
        sink.set_clock([&now] { return now; });
        MemoryCapture expected(3);
        std::vector<Hold> open;
        std::uint64_t next_id = 0;

        auto append = [&](StreamId stream, std::size_t group, double key) {
            const std::uint64_t id = next_id++;
            for (Sink* s : {&sink.group(group), &expected.group(group)}) {
                if (stream == StreamId::kStorage)
                    s->append(storage_at(key, id));
                else
                    s->append(CpuRecord{key, id, 1e-4, 0.5});
            }
        };
        // The lowest key a new hold or record may take: the stream's
        // watermark, min(earliest open hold, now).
        auto floor_of = [&](StreamId stream) {
            double w = now;
            for (const auto& h : open)
                if (h.stream == stream) w = std::min(w, h.key);
            return w;
        };
        auto newest_of = [&](StreamId stream) {
            double k = -1.0;
            for (const auto& h : open)
                if (h.stream == stream) k = std::max(k, h.key);
            return k;
        };

        for (int step = 0; step < 3000; ++step) {
            const auto stream = rng.uniform() < 0.5 ? StreamId::kStorage : StreamId::kCpu;
            const auto group = std::size_t(rng.uniform_int(0, 2));
            const double u = rng.uniform();
            if (u < 0.15) {
                now += double(rng.uniform_int(0, 3)) * 0.25;
            } else if (u < 0.55 || open.empty()) {
                double key = now;
                const double lo = floor_of(stream), hi = newest_of(stream);
                const double v = rng.uniform();
                if (v < 0.3 && hi > lo)  // below the newest open key
                    key = lo + double(rng.uniform_int(0, std::int64_t((hi - lo) / 0.25))) * 0.25;
                else if (v < 0.5 && hi >= lo)  // on a key another hold has
                    key = hi;
                else if (v < 0.6)  // ahead of the clock
                    key = now + 0.25 * double(rng.uniform_int(1, 4));
                open.push_back({stream, group, key});
                sink.group(group).open_hold(stream, key);
            } else if (u < 0.9) {
                // Close a random open hold, usually after its record.
                const auto i = std::size_t(rng.uniform_int(0, std::int64_t(open.size()) - 1));
                const Hold h = open[i];
                open.erase(open.begin() + std::ptrdiff_t(i));
                if (rng.uniform() < 0.9) append(h.stream, h.group, h.key);
                sink.group(h.group).close_hold(h.stream, h.key);
            } else {
                append(stream, group, now);  // no hold: keyed at the clock
            }
        }
        for (const Hold& h : open) {
            append(h.stream, h.group, h.key);
            sink.group(h.group).close_hold(h.stream, h.key);
        }
        sink.finish();
        write_binary(expected.take(), mat);
        SCOPED_TRACE("seed " + std::to_string(seed));
        expect_dirs_byte_equal(dir, mat);
        fs::remove_all(dir);
        fs::remove_all(mat);
    }

    const auto dir = fresh_dir("kooza_stream_reclose");
    StreamingSink sink({.dir = dir}, 2);
    sink.group(1).open_hold(StreamId::kStorage, 2.5);
    sink.group(1).close_hold(StreamId::kStorage, 2.5);
    try {
        sink.group(1).close_hold(StreamId::kStorage, 2.5);
        ADD_FAILURE() << "a second close of a closed hold did not throw";
    } catch (const std::logic_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("storage"), std::string::npos) << msg;
        EXPECT_NE(msg.find("2.5"), std::string::npos) << msg;
    }
    sink.finish();
    fs::remove_all(dir);
}

// The sink counts its records, spill checks and heap high-water mark
// itself and publishes them once, at finish(): the totals are what a
// per-record tally would have reached.
TEST(Streaming, TalliesPublishedAtFinish) {
    auto& records = obs::counter("trace.stream.records_total");
    auto& chunks = obs::counter("trace.stream.chunks_flushed_total");
    auto& pending = obs::gauge("trace.stream.pending_records");
    const std::uint64_t records_before = records.value();
    const std::uint64_t chunks_before = chunks.value();
    pending.reset();

    const auto dir = fs::temp_directory_path() /
                     ("kooza_stream_tallies_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    core::CaptureOptions o;
    o.profile = "oltp";
    o.count = 2000;
    o.seed = 7;
    o.out_dir = dir.string();
    o.format = Format::kBinary;
    o.stream = true;
    o.chunk_records = 333;
    const auto res = core::run_capture(o);
    ASSERT_GT(res.records, 0u);

    std::uint64_t expected_chunks = 0;
    {
        ChunkedReader reader(dir);
        for (std::size_t s = 0; s < kStreamCount; ++s)
            expected_chunks += (reader.rows(StreamId(s)) + 332) / 333;
    }
    EXPECT_EQ(records.value() - records_before, res.records);
    EXPECT_EQ(chunks.value() - chunks_before, expected_chunks);
    EXPECT_EQ(pending.value(), 0.0);
    EXPECT_GE(pending.max(), 1.0);
    fs::remove_all(dir);
}

TEST(Streaming, TiesBreakByGroupThenSequence) {
    const auto dir = fresh_dir("kooza_stream_ties");
    double now = 0.0;
    StreamingSink sink({.dir = dir}, /*n_groups=*/3);
    sink.set_clock([&now] { return now; });
    // Three records with the identical key, appended in descending group
    // order; the canonical order is ascending (group, sequence).
    sink.group(2).append(storage_at(1.0, 22));
    sink.group(1).append(storage_at(1.0, 11));
    sink.group(1).append(storage_at(1.0, 12));
    sink.group(0).append(storage_at(1.0, 1));
    now = 2.0;
    sink.finish();
    const auto back = read_binary(dir);
    ASSERT_EQ(back.storage.size(), 4u);
    EXPECT_EQ(back.storage[0].request_id, 1u);
    EXPECT_EQ(back.storage[1].request_id, 11u);
    EXPECT_EQ(back.storage[2].request_id, 12u);
    EXPECT_EQ(back.storage[3].request_id, 22u);
    fs::remove_all(dir);
}

TEST(Streaming, ChunkSizeDoesNotChangeBytes) {
    // Flushing every 3 records vs one big flush at finish() must produce
    // identical files — chunking is an internal buffering detail.
    auto run = [](const fs::path& dir, std::size_t chunk_records) {
        fs::remove_all(dir);
        double now = 0.0;
        StreamingSink sink({.dir = dir, .chunk_records = chunk_records},
                           /*n_groups=*/2);
        sink.set_clock([&now] { return now; });
        for (int i = 0; i < 100; ++i) {
            now = 0.01 * double(i + 1);
            auto& g = sink.group(std::size_t(i) % 2);
            g.append(storage_at(now - 0.005, std::uint64_t(i)));
            g.append(CpuRecord{now - 0.005, std::uint64_t(i), 1e-4, 0.5});
            Span sp;
            sp.trace_id = std::uint64_t(i);
            sp.span_id = 1;
            sp.name = "disk.io";
            sp.start = now - 0.005;
            sp.end = now;
            g.append(sp);
        }
        sink.finish();
    };
    const auto small = fresh_dir("kooza_stream_chunk3");
    const auto big = fresh_dir("kooza_stream_chunk64k");
    run(small, 3);
    run(big, std::size_t(1) << 16);
    expect_dirs_byte_equal(small, big);
    fs::remove_all(small);
    fs::remove_all(big);
}

TEST(Streaming, FinishThrowsOnOpenHold) {
    const auto dir = fresh_dir("kooza_stream_leak");
    {
        StreamingSink sink({.dir = dir}, 1);
        sink.group(0).open_hold(StreamId::kNetwork, 0.5);
        EXPECT_THROW(sink.finish(), std::logic_error);
        // Closing the hold unblocks finish.
        sink.group(0).close_hold(StreamId::kNetwork, 0.5);
        sink.finish();
    }
    EXPECT_THROW(StreamingSink({.dir = dir, .chunk_records = 0}, 1),
                 std::invalid_argument);
    EXPECT_THROW(StreamingSink({.dir = dir}, 0), std::invalid_argument);
    fs::remove_all(dir);
}

TEST(Streaming, CloseHoldWithoutOpenThrows) {
    const auto dir = fresh_dir("kooza_stream_badclose");
    StreamingSink sink({.dir = dir}, 1);
    EXPECT_THROW(sink.group(0).close_hold(StreamId::kStorage, 1.0),
                 std::logic_error);
    EXPECT_THROW((void)sink.group(7), std::out_of_range);
    sink.finish();
    fs::remove_all(dir);
}

// Only finish() writes .bin files. A capture that throws part-way — the
// sink and its writer destroyed during stack unwinding — must leave
// nothing that reads as a complete capture, spill files included.
TEST(Streaming, UnfinishedSinkLeavesNoCapture) {
    const auto dir = fresh_dir("kooza_stream_unfinished");
    try {
        StreamingSink sink({.dir = dir, .chunk_records = 4, .spill_buffer_bytes = 64},
                           /*n_groups=*/2);
        for (int i = 0; i < 100; ++i)
            sink.group(std::size_t(i) % 2)
                .append(storage_at(0.01 * double(i), std::uint64_t(i)));
        throw std::runtime_error("capture failed");
    } catch (const std::runtime_error&) {
    }
    EXPECT_THROW(ChunkedReader{dir}, std::runtime_error);
    if (fs::exists(dir))
        for (const auto& e : fs::directory_iterator(dir))
            ADD_FAILURE() << "left behind: " << e.path();
    fs::remove_all(dir);
}

// End to end: replaying a request log with a non-finite arrival fails at
// load, naming the log and the request, and the streamed output
// directory holds no capture.
TEST(Streaming, ReplayOfNonFiniteArrivalLeavesNoCapture) {
    const auto src = fresh_dir("kooza_stream_inf_src");
    const auto out = fresh_dir("kooza_stream_inf_out");
    core::CaptureOptions co;
    co.profile = "micro";
    co.count = 400;
    co.seed = 7;
    co.out_dir = src.string();
    (void)core::run_capture(co);

    // Set one request's arrival (third CSV column) to inf.
    std::istringstream csv(slurp(src / "requests.csv"));
    std::string line, edited, request_id;
    for (int row = 0; std::getline(csv, line); ++row) {
        if (row == 200) {
            const auto c1 = line.find(',');
            const auto c2 = line.find(',', c1 + 1);
            const auto c3 = line.find(',', c2 + 1);
            request_id = line.substr(0, c1);
            line = line.substr(0, c2 + 1) + "inf" + line.substr(c3);
        }
        edited += line + "\n";
    }
    ASSERT_FALSE(request_id.empty());
    std::ofstream(src / "requests.csv", std::ios::trunc) << edited;

    core::CaptureOptions replay;
    replay.replay_dir = src.string();
    replay.out_dir = out.string();
    replay.stream = true;
    replay.chunk_records = 256;
    try {
        (void)core::run_capture(replay);
        ADD_FAILURE() << "replay of a non-finite arrival did not throw";
    } catch (const std::exception& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(src.string()), std::string::npos) << msg;
        EXPECT_NE(msg.find("request " + request_id), std::string::npos) << msg;
    }
    EXPECT_THROW(ChunkedReader{out}, std::runtime_error);
    fs::remove_all(src);
    fs::remove_all(out);
}

// Pins every byte of three kooza.trace/1 captures, each written once
// materialized and once streamed in 333-record chunks. The relative
// checks (chunked == one-shot, streamed == materialized, 1 vs 8 threads)
// cannot see a layout change that moves both sides; these constants
// can. Recorded from the hand-written per-stream encoder, before the
// layouts were declared in one table.
TEST(Streaming, BinaryCaptureBytesPinned) {
    auto both_ways = [](core::CaptureOptions o, const std::string& tag) {
        const auto materialized = bin_capture_digest(o, tag);
        o.stream = true;
        o.chunk_records = 333;
        const auto streamed = bin_capture_digest(o, tag + "_stream");
        EXPECT_EQ(streamed.value, materialized.value) << tag;
        return materialized;
    };

    core::CaptureOptions oltp;
    oltp.profile = "oltp";
    oltp.count = 2000;
    oltp.seed = 7;
    const auto oltp_digest = both_ways(oltp, "oltp").value;
    EXPECT_EQ(oltp_digest, 0xb6b6a269912fca76ull) << std::hex << oltp_digest;

    // Faults on five servers with two replicas: failures.bin has rows.
    core::CaptureOptions faulted;
    faulted.profile = "micro";
    faulted.count = 400;
    faulted.rate = 50.0;
    faulted.seed = 77;
    faulted.n_servers = 5;
    faulted.replication = 2;
    faulted.fault_rate = 0.2;
    faulted.mttr = 1.0;
    const auto faulted_digest = both_ways(faulted, "faulted");
    EXPECT_GT(faulted_digest.failures, 0u);
    EXPECT_EQ(faulted_digest.value, 0x4c130fb46d48aa77ull)
        << std::hex << faulted_digest.value;

    // Three replicas and 1-in-7 sampling: the span-name string table is
    // built from the sampled traces only.
    core::CaptureOptions sampled;
    sampled.profile = "micro";
    sampled.count = 400;
    sampled.rate = 50.0;
    sampled.seed = 7;
    sampled.n_servers = 4;
    sampled.replication = 3;
    sampled.span_sample_every = 7;
    const auto sampled_digest = both_ways(sampled, "sampled");
    EXPECT_GT(sampled_digest.spans, 0u);
    EXPECT_EQ(sampled_digest.value, 0xc327d34bf4a304e5ull)
        << std::hex << sampled_digest.value;
}

TEST(Streaming, WriterSpillPathBytesIdentical) {
    // A tiny spill buffer forces every column through the temp-file
    // spill-and-splice path; the final files must not change.
    TraceSet ts;
    for (int i = 0; i < 200; ++i) {
        ts.storage.push_back(storage_at(0.01 * double(i), std::uint64_t(i)));
        Span sp;
        sp.trace_id = std::uint64_t(i);
        sp.span_id = 2;
        sp.name = (i % 2) != 0 ? "net.rx" : "cpu.verify";
        sp.start = 0.01 * double(i);
        sp.end = sp.start + 0.001;
        ts.spans.push_back(sp);
    }
    const auto plain = fresh_dir("kooza_spill_off");
    const auto spilled = fresh_dir("kooza_spill_on");
    {
        BinaryWriter w(plain, /*spill_buffer_bytes=*/0);
        w.append(ts);
        w.finish();
    }
    {
        BinaryWriter w(spilled, /*spill_buffer_bytes=*/64);
        // Append in chunks so spills interleave with appends.
        for (int c = 0; c < 4; ++c) {
            TraceSet chunk;
            chunk.storage.assign(ts.storage.begin() + c * 50,
                                 ts.storage.begin() + (c + 1) * 50);
            chunk.spans.assign(ts.spans.begin() + c * 50,
                               ts.spans.begin() + (c + 1) * 50);
            w.append(chunk);
        }
        w.finish();
    }
    expect_dirs_byte_equal(plain, spilled);
    // No spill temp files are left behind.
    for (const auto& e : fs::directory_iterator(spilled))
        EXPECT_EQ(e.path().extension(), ".bin") << e.path();
    fs::remove_all(plain);
    fs::remove_all(spilled);
}

TEST(ChunkedReader, RowRangesAgreeWithReadBinary) {
    core::CaptureOptions opts;
    opts.profile = "micro";
    opts.count = 150;
    opts.rate = 50.0;
    opts.seed = 13;
    opts.n_servers = 3;
    opts.replication = 2;
    opts.fault_rate = 0.3;  // so the failures stream is non-empty
    opts.mttr = 1.5;
    opts.format = Format::kBinary;
    const auto dir = fresh_dir("kooza_chunked_reader");
    opts.out_dir = dir.string();
    const auto res = core::run_capture(opts);
    ASSERT_GT(res.records, 0u);

    const auto whole = read_binary(dir);
    ASSERT_FALSE(whole.failures.empty());
    ChunkedReader reader(dir);
    EXPECT_EQ(reader.total_rows(), res.records);
    EXPECT_EQ(reader.rows(StreamId::kStorage), whole.storage.size());
    EXPECT_EQ(reader.rows(StreamId::kRequests), whole.requests.size());
    EXPECT_EQ(reader.rows(StreamId::kSpans), whole.spans.size());

    // for_each_chunk hands over every stream in StreamId order, one stream
    // and at most 7 rows per chunk; concatenated, the chunks are the
    // capture read_binary returns (rewritten, they are the same bytes).
    TraceSet joined;
    std::size_t last_stream = 0;
    reader.for_each_chunk(7, [&](const TraceSet& c) {
        const std::size_t sizes[] = {c.storage.size(),  c.cpu.size(),
                                     c.memory.size(),   c.network.size(),
                                     c.requests.size(), c.failures.size(),
                                     c.spans.size()};
        std::size_t streams = 0;
        for (std::size_t s = 0; s < kStreamCount; ++s) {
            if (sizes[s] == 0) continue;
            ++streams;
            EXPECT_LE(sizes[s], 7u);
            EXPECT_GE(s, last_stream);
            last_stream = s;
        }
        EXPECT_EQ(streams, 1u);
        joined.merge(c);
    });
    EXPECT_EQ(last_stream, std::size_t(StreamId::kSpans));
    EXPECT_EQ(joined.total_records(), whole.total_records());
    const auto rewritten = fresh_dir("kooza_chunked_reader_joined");
    const auto from_whole = fresh_dir("kooza_chunked_reader_whole");
    write_binary(joined, rewritten);
    write_binary(whole, from_whole);
    expect_dirs_byte_equal(rewritten, from_whole);
    expect_dirs_byte_equal(rewritten, dir);
    fs::remove_all(rewritten);
    fs::remove_all(from_whole);
    EXPECT_THROW(reader.for_each_chunk(0, [](const TraceSet&) {}),
                 std::invalid_argument);

    // Reassemble the storage and span streams from odd-sized row ranges;
    // the concatenation must agree with the one-shot reader.
    TraceSet pieced;
    const std::uint64_t n_sto = reader.rows(StreamId::kStorage);
    for (std::uint64_t at = 0; at < n_sto;) {
        const auto n = std::min<std::uint64_t>(7, n_sto - at);
        reader.read_rows(StreamId::kStorage, at, n, pieced);
        at += n;
    }
    ASSERT_EQ(pieced.storage.size(), whole.storage.size());
    for (std::size_t i = 0; i < whole.storage.size(); ++i) {
        EXPECT_DOUBLE_EQ(pieced.storage[i].time, whole.storage[i].time) << i;
        EXPECT_EQ(pieced.storage[i].request_id, whole.storage[i].request_id) << i;
        EXPECT_EQ(pieced.storage[i].lbn, whole.storage[i].lbn) << i;
    }
    const std::uint64_t n_spans = reader.rows(StreamId::kSpans);
    reader.read_rows(StreamId::kSpans, 0, n_spans, pieced);
    ASSERT_EQ(pieced.spans.size(), whole.spans.size());
    for (std::size_t i = 0; i < whole.spans.size(); ++i) {
        EXPECT_EQ(pieced.spans[i].name, whole.spans[i].name) << i;
        EXPECT_DOUBLE_EQ(pieced.spans[i].start, whole.spans[i].start) << i;
    }

    EXPECT_THROW(reader.read_rows(StreamId::kStorage, n_sto, 1, pieced),
                 std::out_of_range);
    fs::remove_all(dir);
}

TEST(Trainer, TrainStreamingByteIdenticalToMaterialized) {
    // The chunked sufficient-statistics path must reproduce the
    // whole-TraceSet fit exactly: same capture, models serialized
    // byte-for-byte equal — including under faults with replication.
    core::CaptureOptions opts;
    opts.profile = "micro";
    opts.count = 400;
    opts.rate = 50.0;
    opts.seed = 21;
    opts.n_servers = 4;
    opts.replication = 2;
    opts.fault_rate = 0.3;
    opts.mttr = 1.5;
    opts.format = Format::kBinary;
    opts.stream = true;
    const auto dir = fresh_dir("kooza_train_streaming");
    opts.out_dir = dir.string();
    const auto res = core::run_capture(opts);
    ASSERT_GT(res.records, 0u);

    const core::Trainer trainer({.workload_name = "stream-eq"});
    auto serialized = [](const core::ServerModel& m) {
        std::stringstream ss;
        core::save_model(m, ss);
        return ss.str();
    };
    const auto materialized = serialized(trainer.train(read_binary(dir)));
    // An odd chunk size exercises ragged chunk boundaries on every stream.
    const auto streamed = serialized(trainer.train_streaming(dir, 97));
    EXPECT_EQ(materialized, streamed);
    EXPECT_EQ(materialized, serialized(trainer.train_streaming(dir)));
    EXPECT_THROW((void)trainer.train_streaming(dir, 0), std::invalid_argument);
    fs::remove_all(dir);
}

}  // namespace
