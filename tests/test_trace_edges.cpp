// Edge-case tests for the tracing stack: span-tree pathologies, CSV
// robustness, and feature extraction on sparse/partial traces.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "obs/metrics.hpp"
#include "trace/binary.hpp"
#include "trace/csv.hpp"
#include "trace/features.hpp"
#include "trace/sink.hpp"
#include "trace/span.hpp"
#include "trace/traceset.hpp"

namespace {

using namespace kooza::trace;

/// Strict read_csv requires the full stream set; lay down an empty
/// capture first so a test can overwrite just the stream it targets.
std::filesystem::path full_dir(const char* name) {
    const auto dir = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    write_csv(TraceSet{}, dir);
    return dir;
}

std::string slurp(const std::filesystem::path& p) {
    std::ifstream f(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void spit(const std::filesystem::path& p, const std::string& bytes) {
    std::ofstream f(p, std::ios::binary | std::ios::trunc);
    f << bytes;
}

/// Every field of every record as raw bytes, so comparing two TraceSets
/// is a memcmp: -0.0 differs from 0.0 and no ulp tolerance applies.
std::string field_bytes(const TraceSet& ts) {
    std::string out;
    auto add = [&out](const auto& v) {
        char b[sizeof v];
        std::memcpy(b, &v, sizeof v);
        out.append(b, sizeof v);
    };
    add(ts.storage.size());
    for (const auto& r : ts.storage) {
        add(r.time); add(r.request_id); add(r.lbn); add(r.size_bytes);
        add(r.type); add(r.latency);
    }
    add(ts.cpu.size());
    for (const auto& r : ts.cpu) {
        add(r.time); add(r.request_id); add(r.busy_seconds); add(r.utilization);
    }
    add(ts.memory.size());
    for (const auto& r : ts.memory) {
        add(r.time); add(r.request_id); add(r.bank); add(r.size_bytes); add(r.type);
    }
    add(ts.network.size());
    for (const auto& r : ts.network) {
        add(r.time); add(r.request_id); add(r.size_bytes); add(r.direction);
        add(r.latency);
    }
    add(ts.requests.size());
    for (const auto& r : ts.requests) {
        add(r.request_id); add(r.type); add(r.arrival); add(r.completion); add(r.bytes);
    }
    add(ts.failures.size());
    for (const auto& r : ts.failures) {
        add(r.time); add(r.request_id); add(r.server); add(r.kind); add(r.duration);
    }
    add(ts.spans.size());
    for (const auto& s : ts.spans) {
        add(s.trace_id); add(s.span_id); add(s.parent_id); add(s.name.str().size());
        out += s.name.str();
        add(s.start); add(s.end);
    }
    return out;
}

/// A TraceSet with every stream populated: `n` records per stream whose
/// doubles carry all 17 significant digits.
TraceSet busy_traceset(std::size_t n) {
    TraceSet ts;
    for (std::size_t i = 0; i < n; ++i) {
        const double t = double(i) / 3.0 + 0.1;
        const auto id = std::uint64_t(i) * 7919 + 1;
        const auto type = i % 3 == 0 ? IoType::kWrite : IoType::kRead;
        ts.storage.push_back({t, id, id * 13, 4096 * (i % 17 + 1), type, t / 997.0});
        ts.cpu.push_back({t, id, t / 4099.0, 1.0 / double(i % 11 + 1)});
        ts.memory.push_back({t, id, std::uint32_t(i % 8), 512 * (i % 5 + 1), type});
        ts.network.push_back({t, id, 1400 * (i % 9 + 1),
                              i % 2 ? NetworkRecord::Direction::kTx
                                    : NetworkRecord::Direction::kRx,
                              t / 1009.0});
        ts.requests.push_back({id, type, t, t + 1.0 / 7.0, 65536});
        ts.failures.push_back({t, id, std::uint32_t(i % 5),
                               FailureRecord::Kind(i % 6), t / 101.0});
        Span s;
        s.trace_id = id;
        s.span_id = id + 1;
        s.parent_id = i % 4 ? id : 0;
        s.name = i % 2 ? "disk.io" : "net.rx";
        s.start = t;
        s.end = t + 1.0 / 9.0;
        ts.spans.push_back(s);
    }
    return ts;
}

TEST(SpanEdges, MultipleRootsPerTraceTolerated) {
    // A trace with two root spans (e.g. client retried and re-rooted):
    // the tree picks the first root by start time and still renders.
    TraceSet recorded;
    MemorySink sink(recorded);
    SpanTracer t(1, sink);
    const auto r1 = t.start_span(5, 0, "request", 0.0);
    t.end_span(r1, 1.0);
    const auto r2 = t.start_span(5, 0, "request", 2.0);
    t.end_span(r2, 3.0);
    SpanTree tree(recorded.spans, 5);
    EXPECT_EQ(tree.root().start, 0.0);
    EXPECT_FALSE(tree.render().empty());
}

TEST(SpanEdges, OrphanParentTreatedAsLeaf) {
    // A child whose parent was never recorded (partial trace) is still in
    // the tree's span list; render starts from the root that exists.
    TraceSet recorded;
    MemorySink sink(recorded);
    SpanTracer t(1, sink);
    const auto root = t.start_span(7, 0, "request", 0.0);
    const auto orphan = t.start_span(7, 9999, "lost.child", 0.1);
    t.end_span(orphan, 0.2);
    t.end_span(root, 1.0);
    SpanTree tree(recorded.spans, 7);
    EXPECT_EQ(tree.spans().size(), 2u);
    EXPECT_EQ(tree.children_of(tree.root().span_id).size(), 0u);
}

TEST(SpanEdges, ZeroDurationSpans) {
    TraceSet recorded;
    MemorySink sink(recorded);
    SpanTracer t(1, sink);
    const auto s = t.start_span(1, 0, "instant", 5.0);
    t.end_span(s, 5.0);
    SpanTree tree(recorded.spans, 1);
    EXPECT_DOUBLE_EQ(tree.total_duration(), 0.0);
    EXPECT_DOUBLE_EQ(tree.phase_durations()[0], 0.0);
}

TEST(CsvEdges, EmptyTraceSetRoundTrips) {
    const auto dir = std::filesystem::temp_directory_path() / "kooza_csv_empty";
    std::filesystem::remove_all(dir);
    TraceSet empty;
    write_csv(empty, dir);
    const auto back = read_csv(dir);
    EXPECT_TRUE(back.empty());
    std::filesystem::remove_all(dir);
}

TEST(CsvEdges, BlankLinesSkipped) {
    const auto dir = full_dir("kooza_csv_blank");
    {
        std::ofstream f(dir / "requests.csv");
        f << "request_id,type,arrival,completion,bytes\n\n\n";
        f << "1,read,0.5,1.5,4096\n\n";
    }
    const auto ts = read_csv(dir);
    ASSERT_EQ(ts.requests.size(), 1u);
    EXPECT_EQ(ts.requests[0].bytes, 4096u);
    std::filesystem::remove_all(dir);
}

TEST(CsvEdges, LeadingBlankLineKeepsHeader) {
    // A blank first line used to demote the real header (matched by
    // line number, not content) to a data row, so the first record was
    // parsed from the header text and threw.
    const auto dir = full_dir("kooza_csv_lead");
    {
        std::ofstream f(dir / "requests.csv");
        f << "\n\nrequest_id,type,arrival,completion,bytes\n";
        f << "3,write,0.25,0.75,8192\n";
        f << "4,read,1.0,1.25,512\n";
    }
    const auto ts = read_csv(dir);
    ASSERT_EQ(ts.requests.size(), 2u);
    EXPECT_EQ(ts.requests[0].request_id, 3u);
    EXPECT_EQ(ts.requests[0].type, IoType::kWrite);
    EXPECT_EQ(ts.requests[1].bytes, 512u);
    std::filesystem::remove_all(dir);
}

TEST(CsvEdges, CrlfLineEndingsRoundTrip) {
    // Traces exported on Windows (or via git with autocrlf) carry \r\n;
    // the stray '\r' used to ride on the last field and break exact-match
    // parsing of enum columns like the I/O type.
    const auto dir = full_dir("kooza_csv_crlf");
    {
        std::ofstream f(dir / "requests.csv", std::ios::binary);
        f << "request_id,type,arrival,completion,bytes\r\n";
        f << "7,read,0.5,1.5,4096\r\n";
        f << "8,write,2.0,2.5,1024\r\n";
        f << "9,read,3.0,3.5,512\r\r\n";  // converted to CRLF twice
    }
    {
        std::ofstream f(dir / "storage.csv", std::ios::binary);
        f << "time,request_id,lbn,size_bytes,type,latency\r\n";
        f << "0.6,7,128,4096,read,0.01\r\n";
    }
    const auto ts = read_csv(dir);
    ASSERT_EQ(ts.requests.size(), 3u);
    EXPECT_EQ(ts.requests[0].type, IoType::kRead);
    EXPECT_EQ(ts.requests[0].bytes, 4096u);  // last field, where '\r' rode
    EXPECT_EQ(ts.requests[1].type, IoType::kWrite);
    EXPECT_EQ(ts.requests[2].bytes, 512u);
    ASSERT_EQ(ts.storage.size(), 1u);
    EXPECT_DOUBLE_EQ(ts.storage[0].latency, 0.01);
    std::filesystem::remove_all(dir);
}

TEST(CsvEdges, WrongFieldCountThrows) {
    const auto dir = full_dir("kooza_csv_fields");
    {
        std::ofstream f(dir / "storage.csv");
        f << "time,request_id,lbn,size_bytes,type,latency\n";
        f << "1.0,1,2,3\n";  // 4 fields, need 6
    }
    EXPECT_THROW(read_csv(dir), std::runtime_error);
    std::filesystem::remove_all(dir);
}

TEST(CsvEdges, BadEnumOrU32FieldThrows) {
    // An unknown I/O type or failure kind is a row error like any other:
    // it names the file, line and field and counts as a bad row. So is a
    // memory bank or failure server above 2^32-1, which kooza.trace/1
    // stores as u32: it used to load truncated (bank 1, server 2).
    struct Case {
        const char* file;
        const char* header;
        const char* row;
        const char* field;
    };
    const Case cases[] = {
        {"memory.csv", "time,request_id,bank,size_bytes,type", "1.0,1,0,4096,sideways",
         "type"},
        {"failures.csv", "time,request_id,server,kind,duration", "1.0,1,0,sideways,0.5",
         "kind"},
        {"memory.csv", "time,request_id,bank,size_bytes,type",
         "1.0,1,4294967297,4096,read", "bank"},
        {"failures.csv", "time,request_id,server,kind,duration",
         "1.0,1,4294967298,crash,0.5", "server"},
    };
    const auto& bad_rows = kooza::obs::counter("trace.csv.bad_rows_total");
    for (const auto& c : cases) {
        const auto dir = full_dir("kooza_csv_type");
        spit(dir / c.file, std::string(c.header) + "\n" + c.row + "\n");
        const auto before = bad_rows.value();
        try {
            (void)read_csv(dir);
            ADD_FAILURE() << c.file << " loaded";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(std::string(c.file) + ":2: " + c.field),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(bad_rows.value(), before + 1) << c.file << " " << c.field;
        std::filesystem::remove_all(dir);
    }
}

TEST(CsvEdges, TrailingJunkOnNumberThrows) {
    // A float field must be one number and nothing else: a valid prefix
    // ("0.5sec" -> 0.5) used to load silently as clean data. Like the id
    // fields, it takes no whitespace, no '+' and no hex; a subnormal is
    // an ordinary value.
    const auto dir = full_dir("kooza_csv_junknum");
    const auto& bad_rows = kooza::obs::counter("trace.csv.bad_rows_total");
    auto load = [&](const std::string& arrival) {
        spit(dir / "requests.csv", "request_id,type,arrival,completion,bytes\n1,read," +
                                       arrival + ",1.5,4096\n");
        return read_csv(dir);
    };
    for (const std::string bad :
         {"0.5sec", "0.5 ", " 0.5", "+0.5", "0x1p-1", "1e400", ""}) {
        const auto before = bad_rows.value();
        try {
            (void)load(bad);
            ADD_FAILURE() << "'" << bad << "' loaded";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("requests.csv:2: arrival"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(bad_rows.value(), before + 1) << "'" << bad << "'";
    }
    const auto arrival = [&](const std::string& good) {
        const auto ts = load(good);
        EXPECT_EQ(ts.requests.size(), 1u) << good;
        return ts.requests.empty() ? 0.0 : ts.requests[0].arrival;
    };
    EXPECT_TRUE(std::isinf(arrival("inf")));
    EXPECT_TRUE(std::isnan(arrival("nan")));
    EXPECT_EQ(arrival(".5"), 0.5);
    EXPECT_EQ(arrival("5."), 5.0);
    EXPECT_EQ(arrival("1E5"), 1e5);
    const double neg_zero = arrival("-0");
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(arrival("4.9406564584124654e-324")),
              std::bit_cast<std::uint64_t>(std::numeric_limits<double>::denorm_min()));
    std::filesystem::remove_all(dir);
}

TEST(CsvEdges, ExtremeValuesRoundTripBitForBit) {
    // Subnormals used to be written fine and then rejected on read: stod
    // reports ERANGE for any subnormal result. Every double and id here
    // must come back with the same bits.
    const double values[] = {std::numeric_limits<double>::denorm_min(),
                             1e-310,
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             -0.0,
                             0.1,
                             1.0 / 3.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
    const std::uint64_t ids[] = {0, std::numeric_limits<std::uint64_t>::max()};
    TraceSet ts;
    std::size_t i = 0;
    for (const double v : values) {
        const auto id = ids[i++ % 2];
        ts.storage.push_back({v, id, id, id, IoType::kWrite, v});
        ts.cpu.push_back({v, id, v, v});
        ts.memory.push_back({v, id, 0, id, IoType::kRead});
        ts.network.push_back({v, id, id, NetworkRecord::Direction::kTx, v});
        ts.requests.push_back({id, IoType::kRead, v, v, id});
        ts.failures.push_back({v, id, 0, FailureRecord::Kind::kFailover, v});
        Span s;
        s.trace_id = id;
        s.span_id = id;
        s.parent_id = id;
        s.name = "disk.io";
        s.start = v;
        s.end = v;
        ts.spans.push_back(s);
    }
    const auto dir = std::filesystem::temp_directory_path() / "kooza_csv_extreme";
    std::filesystem::remove_all(dir);
    write_csv(ts, dir);
    const auto back = read_csv(dir);
    EXPECT_TRUE(field_bytes(back) == field_bytes(ts));
    std::filesystem::remove_all(dir);
}

TEST(CsvEdges, ReadWindowEdgesLoadTheSameRecords) {
    // read_csv streams each file through a 1 MiB window (csv.cpp). A line
    // longer than the window, an unterminated last line and CRLF pairs
    // split across a refill must all load what the LF original loads.
    namespace fs = std::filesystem;
    const auto base = fs::temp_directory_path();
    const auto& rows = kooza::obs::counter("trace.csv.rows_total");
    const auto& bad_rows = kooza::obs::counter("trace.csv.bad_rows_total");
    constexpr std::size_t kWindow = std::size_t(1) << 20;

    // Several windows per file; rows_total counts every data row once.
    auto ts = busy_traceset(40000);
    const auto lf = base / "kooza_csv_window_lf";
    fs::remove_all(lf);
    write_csv(ts, lf);
    ASSERT_GT(fs::file_size(lf / "storage.csv"), 2 * kWindow);
    const auto rows_before = rows.value();
    const auto bad_before = bad_rows.value();
    const auto want = field_bytes(read_csv(lf));
    EXPECT_EQ(rows.value() - rows_before, ts.total_records());
    EXPECT_EQ(bad_rows.value(), bad_before);
    EXPECT_TRUE(want == field_bytes(ts));

    // CRLF copy. The storage header is padded so the first window ends
    // on a '\r': that pair straddles the first refill, and later refills
    // land wherever the rows put them.
    const auto crlf = base / "kooza_csv_window_crlf";
    fs::remove_all(crlf);
    fs::create_directories(crlf);
    for (const auto& e : fs::directory_iterator(lf)) {
        std::string out;
        for (const char c : slurp(e.path())) {
            if (c == '\n') out += '\r';
            out += c;
        }
        if (e.path().filename() == "storage.csv") {
            const auto cr = out.rfind('\r', kWindow - 1);
            ASSERT_NE(cr, std::string::npos);
            out.insert(out.find('\r'), kWindow - 1 - cr, 'x');
            ASSERT_EQ(out[kWindow - 1], '\r');
            ASSERT_EQ(out[kWindow], '\n');
        }
        spit(crlf / e.path().filename(), out);
    }
    EXPECT_TRUE(field_bytes(read_csv(crlf)) == want);

    // No newline after the last row of any file.
    for (const auto& e : fs::directory_iterator(lf)) {
        auto bytes = slurp(e.path());
        ASSERT_EQ(bytes.back(), '\n');
        bytes.pop_back();
        spit(e.path(), bytes);
    }
    EXPECT_TRUE(field_bytes(read_csv(lf)) == want);

    // A span name longer than the window, between ordinary rows: the
    // writer passes it straight through, the reader grows its window.
    ts.spans[100].name = std::string(kWindow + 12345, 'n');
    write_csv(ts, lf);
    EXPECT_GT(fs::file_size(lf / "spans.csv"), kWindow);
    EXPECT_TRUE(field_bytes(read_csv(lf)) == field_bytes(ts));

    fs::remove_all(lf);
    fs::remove_all(crlf);
}

TEST(TraceWriters, FullDiskThrowsNamingTheFile) {
    // A write that fails only at the final flush (the data fits in the
    // stream buffer) used to be lost silently: both writers returned and
    // left nothing on disk. /dev/full fails every write with ENOSPC.
    namespace fs = std::filesystem;
    if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
    TraceSet ts;
    for (std::uint64_t id = 1; id <= 3; ++id)
        ts.requests.push_back({id, IoType::kRead, double(id), double(id) + 0.5, 4096});
    struct Writer {
        const char* file;
        void (*write)(const TraceSet&, const fs::path&);
    };
    for (const auto& f : {Writer{"requests.csv", write_csv},
                          Writer{"requests.bin", write_binary}}) {
        const auto dir = fs::temp_directory_path() / "kooza_full_disk";
        fs::remove_all(dir);
        fs::create_directories(dir);
        fs::create_symlink("/dev/full", dir / f.file);
        try {
            f.write(ts, dir);
            ADD_FAILURE() << f.file << ": write returned normally";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(f.file), std::string::npos)
                << e.what();
        }
        fs::remove_all(dir);
    }
}

TEST(CsvEdges, NegativeIdThrows) {
    // stoull accepts a leading '-' and wraps: "-1" used to load as
    // 18446744073709551615 instead of being rejected.
    const auto dir = full_dir("kooza_csv_negid");
    {
        std::ofstream f(dir / "requests.csv");
        f << "request_id,type,arrival,completion,bytes\n";
        f << "-1,read,0.5,1.5,4096\n";
    }
    EXPECT_THROW(read_csv(dir), std::runtime_error);
    std::filesystem::remove_all(dir);
}

TEST(CsvEdges, JunkIdThrows) {
    const auto dir = full_dir("kooza_csv_junkid");
    {
        std::ofstream f(dir / "requests.csv");
        f << "request_id,type,arrival,completion,bytes\n";
        f << "1,read,0.5,1.5,4096 B\n";
    }
    EXPECT_THROW(read_csv(dir), std::runtime_error);
    std::filesystem::remove_all(dir);
}

TEST(CsvEdges, EmptyNumericFieldThrows) {
    const auto dir = full_dir("kooza_csv_emptyfield");
    {
        std::ofstream f(dir / "requests.csv");
        f << "request_id,type,arrival,completion,bytes\n";
        f << "1,read,0.5,1.5,\n";
    }
    EXPECT_THROW(read_csv(dir), std::runtime_error);
    std::filesystem::remove_all(dir);
}

TEST(FeatureEdges, RequestWithoutSubsystemRecords) {
    // A completed request with no device records (e.g. served entirely
    // from a cache we don't model) still extracts, with zeroed features.
    TraceSet ts;
    ts.requests.push_back({9, IoType::kRead, 1.0, 1.5, 100});
    const auto fs = extract_features(ts);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].network_bytes, 0u);
    EXPECT_EQ(fs[0].storage_bytes, 0u);
    EXPECT_DOUBLE_EQ(fs[0].cpu_utilization, 0.0);
    EXPECT_DOUBLE_EQ(fs[0].latency, 0.5);
}

TEST(FeatureEdges, OrphanDeviceRecordsIgnored) {
    // Device records whose request never completed don't produce feature
    // rows (the paper's models train on completed requests only).
    TraceSet ts;
    ts.storage.push_back({0.1, 77, 0, 4096, IoType::kRead, 0.01});
    ts.cpu.push_back({0.1, 77, 0.001, 1.0});
    const auto fs = extract_features(ts);
    EXPECT_TRUE(fs.empty());
}

TEST(CsvEdges, MissingStreamFileFailsLoudly) {
    // Deleting one stream file (say storage.csv) used to read back as an
    // empty stream — a partial capture masquerading as a quiet workload.
    const auto dir = full_dir("kooza_csv_missing");
    std::filesystem::remove(dir / "storage.csv");
    const auto& missing =
        kooza::obs::counter("trace.csv.missing_files_total");
    const auto before = missing.value();
    EXPECT_THROW(
        {
            try {
                (void)read_csv(dir);
            } catch (const std::runtime_error& e) {
                EXPECT_NE(std::string(e.what()).find("storage.csv"),
                          std::string::npos);
                throw;
            }
        },
        std::runtime_error);
    EXPECT_EQ(missing.value(), before + 1);
    std::filesystem::remove_all(dir);
}

TEST(CsvEdges, UnknownDirectionThrows) {
    // Anything but "rx"/"tx" used to silently parse as kTx.
    const auto dir = full_dir("kooza_csv_direction");
    {
        std::ofstream f(dir / "network.csv");
        f << "time,request_id,size_bytes,direction,latency\n";
        f << "1.0,1,4096,sideways,0.01\n";
    }
    EXPECT_THROW((void)read_csv(dir), std::runtime_error);
    std::filesystem::remove_all(dir);
}

TEST(Records, DirectionFromStringStrict) {
    using Direction = NetworkRecord::Direction;
    EXPECT_EQ(enum_from_string<Direction>("rx"), Direction::kRx);
    EXPECT_EQ(enum_from_string<Direction>("tx"), Direction::kTx);
    EXPECT_THROW((void)enum_from_string<Direction>("sideways"), std::invalid_argument);
    EXPECT_THROW((void)enum_from_string<Direction>(""), std::invalid_argument);
    EXPECT_THROW((void)enum_from_string<Direction>("TX"), std::invalid_argument);
}

TEST(CsvEdges, SpanNameWithCommaRejectedOnWrite) {
    // spans.csv has no quoting: a ',' (or stray CR) in a span name used
    // to shift every following field on read-back. The writer now
    // rejects such names; the binary string table is immune.
    const auto base = std::filesystem::temp_directory_path();
    for (const auto* name : {"disk,io", "net\rrx", "cpu\nverify"}) {
        TraceSet ts;
        Span s;
        s.trace_id = 1;
        s.span_id = 2;
        s.parent_id = 0;
        s.name = name;
        s.start = 0.5;
        s.end = 1.5;
        ts.spans.push_back(s);
        const auto csv_dir = base / "kooza_csv_spanname";
        std::filesystem::remove_all(csv_dir);
        EXPECT_THROW(write_csv(ts, csv_dir), std::runtime_error) << name;
        // Same names round-trip exactly through kooza.trace/1.
        const auto bin_dir = base / "kooza_bin_spanname";
        std::filesystem::remove_all(bin_dir);
        write_binary(ts, bin_dir);
        const auto back = read_binary(bin_dir);
        ASSERT_EQ(back.spans.size(), 1u) << name;
        EXPECT_EQ(back.spans[0].name, name);
        std::filesystem::remove_all(csv_dir);
        std::filesystem::remove_all(bin_dir);
    }
}

TEST(FeatureEdges, TiedMemoryTrafficPrefersRead) {
    TraceSet ts;
    ts.requests.push_back({1, IoType::kRead, 0.0, 1.0, 100});
    ts.memory.push_back({0.1, 1, 0, 512, IoType::kRead});
    ts.memory.push_back({0.2, 1, 1, 512, IoType::kWrite});
    const auto fs = extract_features(ts);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].memory_type, IoType::kRead);  // tie -> read
    EXPECT_EQ(fs[0].memory_bytes, 1024u);
}

}  // namespace
