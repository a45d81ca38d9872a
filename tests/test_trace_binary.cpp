// kooza.trace/1 binary trace format: property-style round-trips against
// randomized TraceSets, record-for-record agreement with the CSV reader,
// corruption rejection (truncation, bit flips vs per-section CRC32,
// hostile record counts),
// chunked-append byte-identity, and format auto-detection.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "trace/binary.hpp"
#include "trace/csv.hpp"
#include "trace/io.hpp"

namespace {

namespace fs = std::filesystem;
using namespace kooza;
using namespace kooza::trace;

fs::path fresh_dir(const char* name) {
    const auto dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    return dir;
}

/// Random TraceSet covering every stream, the full enum ranges, and
/// doubles of all magnitudes. `csv_safe_names` keeps span names inside
/// the CSV writer's alphabet so cross-reader tests can write both.
TraceSet random_traceset(std::uint64_t seed, std::size_t n,
                         bool csv_safe_names = true) {
    sim::Rng rng(seed);
    auto f64 = [&] {
        // Mix magnitudes: timestamps, tiny latencies, huge byte counts.
        const auto v = rng.lognormal(0.0, 4.0);
        return rng.bernoulli(0.5) ? v : -v;
    };
    auto u64 = [&] { return std::uint64_t(rng.uniform_int(0, 1'000'000'000)); };
    TraceSet ts;
    for (std::size_t i = 0; i < n; ++i) {
        ts.storage.push_back({f64(), u64(), u64(), u64(),
                              rng.bernoulli(0.5) ? IoType::kRead : IoType::kWrite,
                              f64()});
        ts.cpu.push_back({f64(), u64(), f64(), f64()});
        ts.memory.push_back({f64(), u64(), std::uint32_t(rng.uniform_int(0, 64)),
                             u64(),
                             rng.bernoulli(0.5) ? IoType::kRead : IoType::kWrite});
        ts.network.push_back({f64(), u64(), u64(),
                              rng.bernoulli(0.5) ? NetworkRecord::Direction::kRx
                                                 : NetworkRecord::Direction::kTx,
                              f64()});
        ts.requests.push_back({u64(),
                               rng.bernoulli(0.5) ? IoType::kRead : IoType::kWrite,
                               f64(), f64(), u64()});
        ts.failures.push_back(
            {f64(), u64(), std::uint32_t(rng.uniform_int(0, 32)),
             FailureRecord::Kind(rng.uniform_int(0, 5)), f64()});
        Span sp;
        sp.trace_id = u64();
        sp.span_id = u64();
        sp.parent_id = u64();
        static const char* kSafe[] = {"request", "net.rx", "cpu.verify",
                                      "disk.io", "repl.forward"};
        static const std::string_view kWild[] = {
            "a,b", "name with space", "crlf\r\n", "", "q\"uote",
            {"nul\0byte", 8}, "\xce\xbc.\xff\xfe"};
        sp.name = csv_safe_names
                      ? SpanName(kSafe[std::size_t(rng.uniform_int(0, 4))])
                      : SpanName(kWild[std::size_t(rng.uniform_int(0, 6))]);
        sp.start = f64();
        sp.end = f64();
        ts.spans.push_back(sp);
    }
    return ts;
}

void expect_equal(const TraceSet& a, const TraceSet& b) {
    ASSERT_EQ(a.storage.size(), b.storage.size());
    for (std::size_t i = 0; i < a.storage.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.storage[i].time, b.storage[i].time) << i;
        EXPECT_EQ(a.storage[i].request_id, b.storage[i].request_id) << i;
        EXPECT_EQ(a.storage[i].lbn, b.storage[i].lbn) << i;
        EXPECT_EQ(a.storage[i].size_bytes, b.storage[i].size_bytes) << i;
        EXPECT_EQ(a.storage[i].type, b.storage[i].type) << i;
        EXPECT_DOUBLE_EQ(a.storage[i].latency, b.storage[i].latency) << i;
    }
    ASSERT_EQ(a.cpu.size(), b.cpu.size());
    for (std::size_t i = 0; i < a.cpu.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.cpu[i].time, b.cpu[i].time) << i;
        EXPECT_EQ(a.cpu[i].request_id, b.cpu[i].request_id) << i;
        EXPECT_DOUBLE_EQ(a.cpu[i].busy_seconds, b.cpu[i].busy_seconds) << i;
        EXPECT_DOUBLE_EQ(a.cpu[i].utilization, b.cpu[i].utilization) << i;
    }
    ASSERT_EQ(a.memory.size(), b.memory.size());
    for (std::size_t i = 0; i < a.memory.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.memory[i].time, b.memory[i].time) << i;
        EXPECT_EQ(a.memory[i].request_id, b.memory[i].request_id) << i;
        EXPECT_EQ(a.memory[i].bank, b.memory[i].bank) << i;
        EXPECT_EQ(a.memory[i].size_bytes, b.memory[i].size_bytes) << i;
        EXPECT_EQ(a.memory[i].type, b.memory[i].type) << i;
    }
    ASSERT_EQ(a.network.size(), b.network.size());
    for (std::size_t i = 0; i < a.network.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.network[i].time, b.network[i].time) << i;
        EXPECT_EQ(a.network[i].request_id, b.network[i].request_id) << i;
        EXPECT_EQ(a.network[i].size_bytes, b.network[i].size_bytes) << i;
        EXPECT_EQ(a.network[i].direction, b.network[i].direction) << i;
        EXPECT_DOUBLE_EQ(a.network[i].latency, b.network[i].latency) << i;
    }
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].request_id, b.requests[i].request_id) << i;
        EXPECT_EQ(a.requests[i].type, b.requests[i].type) << i;
        EXPECT_DOUBLE_EQ(a.requests[i].arrival, b.requests[i].arrival) << i;
        EXPECT_DOUBLE_EQ(a.requests[i].completion, b.requests[i].completion) << i;
        EXPECT_EQ(a.requests[i].bytes, b.requests[i].bytes) << i;
    }
    ASSERT_EQ(a.failures.size(), b.failures.size());
    for (std::size_t i = 0; i < a.failures.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.failures[i].time, b.failures[i].time) << i;
        EXPECT_EQ(a.failures[i].request_id, b.failures[i].request_id) << i;
        EXPECT_EQ(a.failures[i].server, b.failures[i].server) << i;
        EXPECT_EQ(a.failures[i].kind, b.failures[i].kind) << i;
        EXPECT_DOUBLE_EQ(a.failures[i].duration, b.failures[i].duration) << i;
    }
    ASSERT_EQ(a.spans.size(), b.spans.size());
    for (std::size_t i = 0; i < a.spans.size(); ++i) {
        EXPECT_EQ(a.spans[i].trace_id, b.spans[i].trace_id) << i;
        EXPECT_EQ(a.spans[i].span_id, b.spans[i].span_id) << i;
        EXPECT_EQ(a.spans[i].parent_id, b.spans[i].parent_id) << i;
        EXPECT_EQ(a.spans[i].name, b.spans[i].name) << i;
        EXPECT_DOUBLE_EQ(a.spans[i].start, b.spans[i].start) << i;
        EXPECT_DOUBLE_EQ(a.spans[i].end, b.spans[i].end) << i;
    }
}

std::vector<std::uint8_t> slurp(const fs::path& p) {
    std::ifstream f(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

TEST(Binary, RandomRoundTripIsExact) {
    // Property-style: several random TraceSets (wild span names included)
    // must survive binary -> read bit-exactly.
    for (std::uint64_t seed : {1ull, 7ull, 1234ull}) {
        const auto dir = fresh_dir("kooza_bin_roundtrip");
        const auto ts = random_traceset(seed, 200, /*csv_safe_names=*/false);
        write_binary(ts, dir);
        const auto back = read_binary(dir);
        expect_equal(ts, back);
        fs::remove_all(dir);
    }
}

TEST(Binary, EmptyTraceSetRoundTrips) {
    const auto dir = fresh_dir("kooza_bin_empty");
    write_binary(TraceSet{}, dir);
    const auto back = read_binary(dir);
    EXPECT_TRUE(back.empty());
    fs::remove_all(dir);
}

TEST(Binary, AgreesWithCsvReaderRecordForRecord) {
    // The two readers must load the same capture identically. CSV text
    // is written at precision 17, so doubles survive both paths exactly.
    const auto ts = random_traceset(99, 300);
    const auto bin_dir = fresh_dir("kooza_bin_agree_b");
    const auto csv_dir = fresh_dir("kooza_bin_agree_c");
    write_binary(ts, bin_dir);
    write_csv(ts, csv_dir);
    const auto from_bin = read_binary(bin_dir);
    const auto from_csv = read_csv(csv_dir);
    expect_equal(from_bin, from_csv);
    expect_equal(ts, from_bin);
    fs::remove_all(bin_dir);
    fs::remove_all(csv_dir);
}

TEST(Binary, ChunkedAppendMatchesOneShotByteForByte) {
    // However the capture was chunked into the writer, the files are
    // byte-identical — the contract sharded captures rely on.
    const auto one = fresh_dir("kooza_bin_oneshot");
    const auto chunked = fresh_dir("kooza_bin_chunked");
    const auto a = random_traceset(5, 100, false);
    const auto b = random_traceset(6, 57, false);
    const auto c = random_traceset(7, 1, false);
    TraceSet all;
    all.merge(a);
    all.merge(b);
    all.merge(c);
    write_binary(all, one);
    {
        BinaryWriter w(chunked);
        w.append(a);
        w.append(b);
        w.append(c);
        w.finish();
        EXPECT_EQ(w.records_appended(), all.total_records());
    }
    for (const auto* stem : kStreamStems) {
        const auto name = std::string(stem) + ".bin";
        EXPECT_EQ(slurp(one / name), slurp(chunked / name)) << name;
    }
    fs::remove_all(one);
    fs::remove_all(chunked);
}

TEST(Binary, AppendAfterFinishThrows) {
    const auto dir = fresh_dir("kooza_bin_finished");
    BinaryWriter w(dir);
    w.append(random_traceset(1, 3));
    w.finish();
    w.finish();  // idempotent
    EXPECT_THROW(w.append(TraceSet{}), std::logic_error);
    fs::remove_all(dir);
}

TEST(Binary, MissingStreamFileFailsLoudly) {
    const auto dir = fresh_dir("kooza_bin_missing");
    write_binary(random_traceset(2, 10), dir);
    fs::remove(dir / "network.bin");
    const auto& missing = obs::counter("trace.bin.missing_files_total");
    const auto before = missing.value();
    EXPECT_THROW(
        {
            try {
                (void)read_binary(dir);
            } catch (const std::runtime_error& e) {
                EXPECT_NE(std::string(e.what()).find("network.bin"),
                          std::string::npos);
                throw;
            }
        },
        std::runtime_error);
    EXPECT_EQ(missing.value(), before + 1);
    fs::remove_all(dir);
}

TEST(Binary, TruncatedFileRejected) {
    const auto dir = fresh_dir("kooza_bin_trunc");
    write_binary(random_traceset(3, 50), dir);
    const auto p = dir / "storage.bin";
    fs::resize_file(p, fs::file_size(p) / 2);
    EXPECT_THROW((void)read_binary(dir), std::runtime_error);
    fs::remove_all(dir);
}

TEST(Binary, BitFlipRejectedByCrc) {
    const auto dir = fresh_dir("kooza_bin_flip");
    write_binary(random_traceset(4, 50), dir);
    const auto p = dir / "cpu.bin";
    auto bytes = slurp(p);
    ASSERT_GT(bytes.size(), 100u);
    bytes[bytes.size() / 2] ^= 0x01;  // one bit, mid-column
    {
        std::ofstream f(p, std::ios::binary | std::ios::trunc);
        f.write(reinterpret_cast<const char*>(bytes.data()),
                std::streamsize(bytes.size()));
    }
    EXPECT_THROW(
        {
            try {
                (void)read_binary(dir);
            } catch (const std::runtime_error& e) {
                EXPECT_NE(std::string(e.what()).find("CRC32"), std::string::npos);
                throw;
            }
        },
        std::runtime_error);
    fs::remove_all(dir);
}

TEST(Binary, CorruptHeaderRejected) {
    const auto dir = fresh_dir("kooza_bin_header");
    write_binary(random_traceset(8, 5), dir);
    const auto p = dir / "requests.bin";
    auto bytes = slurp(p);
    bytes[3] ^= 0xFF;  // damage the magic
    {
        std::ofstream f(p, std::ios::binary | std::ios::trunc);
        f.write(reinterpret_cast<const char*>(bytes.data()),
                std::streamsize(bytes.size()));
    }
    EXPECT_THROW((void)read_binary(dir), std::runtime_error);
    fs::remove_all(dir);
}

TEST(Binary, OutOfRangeEnumRejected) {
    // A CRC-valid file whose enum column holds a byte above the enum's
    // enum_max must still be rejected — strictness mirroring the CSV
    // readers' enum parsing. The error names the record and the field.
    const auto dir = fresh_dir("kooza_bin_badenum");
    TraceSet network;
    NetworkRecord r;
    r.time = 1.0;
    r.request_id = 1;
    r.size_bytes = 10;
    r.direction = static_cast<NetworkRecord::Direction>(7);  // corrupt source
    r.latency = 0.1;
    network.network.push_back(r);
    TraceSet storage;
    storage.storage.push_back(StorageRecord{});
    storage.storage.push_back(StorageRecord{});
    storage.storage.back().type = static_cast<IoType>(2);
    TraceSet failures;
    failures.failures.push_back(FailureRecord{});
    failures.failures.back().kind = static_cast<FailureRecord::Kind>(6);
    const std::pair<const TraceSet*, const char*> cases[] = {
        {&network, "network.bin: record 0: invalid direction value 7"},
        {&storage, "storage.bin: record 1: invalid type value 2"},
        {&failures, "failures.bin: record 0: invalid kind value 6"},
    };
    for (const auto& [ts, message] : cases) {
        write_binary(*ts, dir);
        try {
            (void)read_binary(dir);
            ADD_FAILURE() << message << ": loaded";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
                << e.what();
        }
    }
    fs::remove_all(dir);
}

TEST(Binary, HostileCountsRejected) {
    // Counts and lengths in CRC-valid files are still untrusted input.
    // Each case rewrites an empty capture, stores one hostile value into
    // one file and refits the CRC32 that covers it, so only the reader's
    // own bounds checks stand between the value and a bad allocation or
    // a decode from an empty buffer.
    const auto dir = fresh_dir("kooza_bin_hostile_count");
    constexpr std::size_t kCountAt = 8 + 4 + 4 + 8, kHeaderBytes = kCountAt + 8;
    // spans.bin of an empty capture: header + crc, six empty column
    // sections (u64 length + u32 crc), then the string table section.
    constexpr std::size_t kTableLenAt = kHeaderBytes + 4 + 6 * 12;
    constexpr std::size_t kTableAt = kTableLenAt + 8;
    auto patch = [&](const char* file, std::size_t at, auto value,
                     std::size_t crc_from, std::size_t crc_at) {
        write_binary(TraceSet{}, dir);
        const auto p = dir / file;
        auto bytes = slurp(p);
        std::memcpy(bytes.data() + at, &value, sizeof value);
        const auto crc = crc32(bytes.data() + crc_from, crc_at - crc_from);
        std::memcpy(bytes.data() + crc_at, &crc, 4);
        std::ofstream f(p, std::ios::binary | std::ios::trunc);
        f.write(reinterpret_cast<const char*>(bytes.data()),
                std::streamsize(bytes.size()));
    };
    auto expect_rejected = [&](const char* file) {
        auto named = [&](auto&& open) {
            EXPECT_THROW(
                {
                    try {
                        open();
                    } catch (const std::runtime_error& e) {
                        EXPECT_NE(std::string(e.what()).find(file),
                                  std::string::npos)
                            << e.what();
                        throw;
                    }
                },
                std::runtime_error)
                << file;
        };
        named([&] { (void)read_binary(dir); });
        named([&] { ChunkedReader reader(dir); });
    };
    // Record counts whose column bytes wrap u64 to zero. cpu.bin has four
    // 8-byte columns (2^61 * 8 == 2^64); spans.bin has 8- and 4-byte
    // columns (2^62 * 8 and 2^62 * 4 both wrap).
    patch("cpu.bin", kCountAt, std::uint64_t(1) << 61, 0, kHeaderBytes);
    expect_rejected("cpu.bin");
    patch("spans.bin", kCountAt, std::uint64_t(1) << 62, 0, kHeaderBytes);
    expect_rejected("spans.bin");
    // A string table claiming 2^32 - 1 names in a 4-byte payload.
    patch("spans.bin", kTableAt, std::uint32_t(0xFFFFFFFF), kTableAt,
          kTableAt + 4);
    expect_rejected("spans.bin");
    // A string-table section length of 1 TiB in a file of a few hundred
    // bytes (the length is not CRC-covered; the header CRC is refit to
    // its own value).
    patch("spans.bin", kTableLenAt, std::uint64_t(1) << 40, 0, kHeaderBytes);
    expect_rejected("spans.bin");
    fs::remove_all(dir);
}

TEST(Binary, StringTableDeduplicatesNames) {
    // 1000 spans over 2 distinct names: the name column is u32 indices,
    // so the file stays far smaller than inlining the strings would be.
    const auto dir = fresh_dir("kooza_bin_strtab");
    TraceSet ts;
    for (std::size_t i = 0; i < 1000; ++i) {
        Span s;
        s.trace_id = i;
        s.span_id = i + 1;
        s.name = (i % 2 == 0) ? "a.rather.long.phase.name.repeated.often"
                              : "another.long.name";
        ts.spans.push_back(s);
    }
    write_binary(ts, dir);
    const auto back = read_binary(dir);
    ASSERT_EQ(back.spans.size(), 1000u);
    EXPECT_EQ(back.spans[0].name, "a.rather.long.phase.name.repeated.often");
    EXPECT_EQ(back.spans[1].name, "another.long.name");
    // 1000 spans * (3*u64 + u32 + 2*f64) = 44 KB of columns; the two
    // names add ~60 bytes once. Inlined they would add ~28 KB.
    EXPECT_LT(fs::file_size(dir / "spans.bin"), 50'000u);
    fs::remove_all(dir);
}

TEST(Io, DetectFormatPrefersBinary) {
    const auto dir = fresh_dir("kooza_io_detect");
    const auto ts = random_traceset(11, 20);
    write_csv(ts, dir);
    EXPECT_EQ(detect_format(dir), Format::kCsv);
    write_binary(ts, dir);  // both layouts present -> binary wins
    EXPECT_EQ(detect_format(dir), Format::kBinary);
    expect_equal(read_traces(dir), ts);
    fs::remove_all(dir);
    EXPECT_THROW((void)detect_format(dir), std::runtime_error);
    fs::remove_all(dir);
}

TEST(Io, FormatStrings) {
    EXPECT_STREQ(to_string(Format::kCsv), "csv");
    EXPECT_STREQ(to_string(Format::kBinary), "bin");
    EXPECT_EQ(format_from_string("csv"), Format::kCsv);
    EXPECT_EQ(format_from_string("bin"), Format::kBinary);
    EXPECT_EQ(format_from_string("binary"), Format::kBinary);
    EXPECT_EQ(format_from_string("parquet"), std::nullopt);
}

TEST(Binary, Crc32KnownVectors) {
    // CRC-32/ISO-HDLC check value: crc32("123456789") == 0xCBF43926.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
}

/// CRC32 by its definition, one bit at a time over the reflected
/// polynomial 0xEDB88320, continuing from `seed` as crc32 does.
std::uint32_t crc32_bitwise(const std::uint8_t* p, std::size_t n, std::uint32_t seed) {
    std::uint32_t c = ~seed;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k) c = (c & 1) != 0 ? (c >> 1) ^ 0xEDB88320u : c >> 1;
    }
    return ~c;
}

// crc32 takes slicing-by-8 tables below 64 bytes and, on a CPU with
// carry-less multiply, folds the 16-byte-multiple prefix of longer
// buffers. Every length up to 300 crosses the 64-byte threshold and each
// 16-byte tail; random lengths up to 1 MiB at every start offset 0-63
// and random seeds cover long folds at any alignment; and chaining at
// split points on and off 16- and 64-byte boundaries is what the
// writer's spill path relies on.
TEST(Binary, Crc32MatchesBytewiseReference) {
    sim::Rng rng(2028);
    std::vector<std::uint8_t> buf((std::size_t(1) << 20) + 64);
    for (auto& b : buf) b = std::uint8_t(rng.uniform_int(0, 255));
    auto seed = [&rng] { return std::uint32_t(rng.uniform_int(0, 0xFFFFFFFFll)); };

    for (std::size_t len = 0; len <= 300; ++len) {
        const std::uint8_t* p = buf.data() + len % 64;
        EXPECT_EQ(crc32(p, len), crc32_bitwise(p, len, 0)) << "length " << len;
        const std::uint32_t s = seed();
        EXPECT_EQ(crc32(p, len, s), crc32_bitwise(p, len, s)) << "length " << len;
    }
    for (int i = 0; i < 40; ++i) {
        const auto off = std::size_t(rng.uniform_int(0, 63));
        const auto len = std::size_t(rng.uniform_int(0, std::int64_t(1) << 20));
        const std::uint32_t s = seed();
        EXPECT_EQ(crc32(buf.data() + off, len, s), crc32_bitwise(buf.data() + off, len, s))
            << "offset " << off << ", length " << len << ", seed " << s;
    }

    const std::uint8_t* a = buf.data() + 3;
    const std::size_t total = 1000;
    const std::uint32_t whole = crc32(a, total);
    EXPECT_EQ(whole, crc32_bitwise(a, total, 0));
    for (const std::size_t cut : {0, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 500, 936,
                                  999, 1000}) {
        EXPECT_EQ(crc32(a + cut, total - cut, crc32(a, cut)), whole) << "split at " << cut;
    }
}

}  // namespace
