#include "trace/binary.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "obs/metrics.hpp"

// The column payloads are written and bulk-loaded as native integers;
// the on-disk spec is little-endian, so a big-endian port would need
// byte-swapping loads here.
static_assert(std::endian::native == std::endian::little,
              "kooza.trace/1 I/O assumes a little-endian host");

namespace kooza::trace {

namespace {

namespace fs = std::filesystem;

struct BinMetrics {
    obs::Counter& rows = obs::counter("trace.bin.rows_total");
    obs::Counter& files_written = obs::counter("trace.bin.files_written_total");
    obs::Counter& bytes_written =
        obs::counter("trace.bin.bytes_written_total", obs::Unit::kBytes);
    obs::Counter& bad_files = obs::counter("trace.bin.bad_files_total");
    obs::Counter& missing_files = obs::counter("trace.bin.missing_files_total");
};

BinMetrics& metrics() {
    static BinMetrics m;
    return m;
}

/// Column value widths, used for both packing and validation.
enum class Col : std::uint8_t { kF64, kU64, kU32, kU8 };

constexpr std::size_t width(Col c) noexcept {
    switch (c) {
        case Col::kF64:
        case Col::kU64: return 8;
        case Col::kU32: return 4;
        case Col::kU8: return 1;
    }
    return 0;
}

/// Per-stream schema: id, file stem, column spec string (hashed into the
/// header — any layout change must bump it) and column widths.
struct StreamSchema {
    std::uint32_t id;
    const char* stem;
    const char* spec;
    std::vector<Col> cols;
};

const std::array<StreamSchema, 7>& schemas() {
    static const std::array<StreamSchema, 7> s{{
        {0, "storage",
         "time:f64,request_id:u64,lbn:u64,size_bytes:u64,type:u8,latency:f64",
         {Col::kF64, Col::kU64, Col::kU64, Col::kU64, Col::kU8, Col::kF64}},
        {1, "cpu", "time:f64,request_id:u64,busy_seconds:f64,utilization:f64",
         {Col::kF64, Col::kU64, Col::kF64, Col::kF64}},
        {2, "memory", "time:f64,request_id:u64,bank:u32,size_bytes:u64,type:u8",
         {Col::kF64, Col::kU64, Col::kU32, Col::kU64, Col::kU8}},
        {3, "network",
         "time:f64,request_id:u64,size_bytes:u64,direction:u8,latency:f64",
         {Col::kF64, Col::kU64, Col::kU64, Col::kU8, Col::kF64}},
        {4, "requests", "request_id:u64,type:u8,arrival:f64,completion:f64,bytes:u64",
         {Col::kU64, Col::kU8, Col::kF64, Col::kF64, Col::kU64}},
        {5, "failures",
         "time:f64,request_id:u64,server:u32,kind:u8,duration:f64",
         {Col::kF64, Col::kU64, Col::kU32, Col::kU8, Col::kF64}},
        {6, "spans",
         "trace_id:u64,span_id:u64,parent_id:u64,name:strtab32,start:f64,end:f64",
         {Col::kU64, Col::kU64, Col::kU64, Col::kU32, Col::kF64, Col::kF64}},
    }};
    return s;
}

/// FNV-1a 64-bit over the schema spec string.
std::uint64_t schema_hash(const char* spec) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char* p = spec; *p; ++p) {
        h ^= std::uint8_t(*p);
        h *= 0x100000001b3ull;
    }
    return h;
}

template <typename T>
void put(std::vector<std::uint8_t>& b, T v) {
    const auto old = b.size();
    b.resize(old + sizeof(T));
    std::memcpy(b.data() + old, &v, sizeof(T));
}

/// A field's wire value: f64 as its IEEE-754 bits, enums as their u8,
/// integers as themselves.
template <typename T>
auto wire(T v) noexcept {
    if constexpr (std::is_same_v<T, double>)
        return std::bit_cast<std::uint64_t>(v);
    else if constexpr (std::is_enum_v<T>)
        return static_cast<std::underlying_type_t<T>>(v);
    else
        return v;
}

/// Append a batch of records to one stream's columns, column by column:
/// field c (a data member or a projection) of every record lands in
/// cols[c] through a single resize and a tight fixed-stride store loop.
template <typename Rec, typename... Field>
void encode_columns(std::span<const Rec> rs, EncodedStream& out, Field... field) {
    if (rs.empty()) return;
    std::size_t c = 0;
    auto column = [&](auto get) {
        using V = decltype(wire(std::invoke(get, rs.front())));
        auto& b = out.cols[c++];
        const auto old = b.size();
        b.resize(old + rs.size() * sizeof(V));
        std::uint8_t* p = b.data() + old;
        for (const Rec& r : rs) {
            const V v = wire(std::invoke(get, r));
            std::memcpy(p, &v, sizeof(V));
            p += sizeof(V);
        }
    };
    (column(field), ...);
    out.count += rs.size();
}

EncodedStream& stream_of(EncodedStreams& streams, StreamId id) {
    return streams[std::size_t(id)];
}

// The kooza.trace/1 encoder: one overload per numeric stream, fields in
// schemas() order. BinaryWriter::append(TraceSet) calls it once per
// stream, ColumnChunk::add with a batch of one record. Spans, whose name
// column goes through the writer's string table, are encoded by
// BinaryWriter::encode_spans below.

void encode(std::span<const StorageRecord> rs, EncodedStreams& out) {
    using R = StorageRecord;
    encode_columns(rs, stream_of(out, StreamId::kStorage), &R::time, &R::request_id,
                   &R::lbn, &R::size_bytes, &R::type, &R::latency);
}

void encode(std::span<const CpuRecord> rs, EncodedStreams& out) {
    using R = CpuRecord;
    encode_columns(rs, stream_of(out, StreamId::kCpu), &R::time, &R::request_id,
                   &R::busy_seconds, &R::utilization);
}

void encode(std::span<const MemoryRecord> rs, EncodedStreams& out) {
    using R = MemoryRecord;
    encode_columns(rs, stream_of(out, StreamId::kMemory), &R::time, &R::request_id,
                   &R::bank, &R::size_bytes, &R::type);
}

void encode(std::span<const NetworkRecord> rs, EncodedStreams& out) {
    using R = NetworkRecord;
    encode_columns(rs, stream_of(out, StreamId::kNetwork), &R::time, &R::request_id,
                   &R::size_bytes, &R::direction, &R::latency);
}

void encode(std::span<const RequestRecord> rs, EncodedStreams& out) {
    using R = RequestRecord;
    encode_columns(rs, stream_of(out, StreamId::kRequests), &R::request_id, &R::type,
                   &R::arrival, &R::completion, &R::bytes);
}

void encode(std::span<const FailureRecord> rs, EncodedStreams& out) {
    using R = FailureRecord;
    encode_columns(rs, stream_of(out, StreamId::kFailures), &R::time, &R::request_id,
                   &R::server, &R::kind, &R::duration);
}

[[noreturn]] void bad_file(const fs::path& p, const std::string& why) {
    metrics().bad_files.add();
    throw std::runtime_error("kooza.trace/1: " + p.string() + ": " + why);
}

/// Fixed-size serialized header: magic + version + stream id + schema
/// hash + record count, then its CRC.
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8;

std::vector<std::uint8_t> make_header(const StreamSchema& s, std::uint64_t count) {
    std::vector<std::uint8_t> h;
    h.insert(h.end(), std::begin(kBinaryMagic), std::end(kBinaryMagic));
    put(h, kBinaryVersion);
    put(h, s.id);
    put(h, schema_hash(s.spec));
    put(h, count);
    put(h, crc32(h.data(), h.size()));
    return h;
}

}  // namespace

void ColumnChunk::add(const StorageRecord& r) { encode(std::span(&r, 1), streams_); }
void ColumnChunk::add(const CpuRecord& r) { encode(std::span(&r, 1), streams_); }
void ColumnChunk::add(const MemoryRecord& r) { encode(std::span(&r, 1), streams_); }
void ColumnChunk::add(const NetworkRecord& r) { encode(std::span(&r, 1), streams_); }
void ColumnChunk::add(const RequestRecord& r) { encode(std::span(&r, 1), streams_); }
void ColumnChunk::add(const FailureRecord& r) { encode(std::span(&r, 1), streams_); }

void BinaryWriter::encode_spans(std::span<const Span> spans) {
    static constexpr auto kNoIndex = std::numeric_limits<std::uint32_t>::max();
    auto name = [this](const Span& s) {
        if (s.name.id() >= name_ix_.size()) name_ix_.resize(s.name.id() + 1, kNoIndex);
        auto& ix = name_ix_[s.name.id()];
        if (ix == kNoIndex) {
            ix = std::uint32_t(names_.size());
            names_.push_back(s.name);
        }
        return ix;
    };
    encode_columns(spans, stream_of(streams_, StreamId::kSpans), &Span::trace_id,
                   &Span::span_id, &Span::parent_id, name, &Span::start, &Span::end);
}

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) noexcept {
    // Slicing-by-8: table[0] is the classic byte-at-a-time table; table[s]
    // advances a byte s extra positions through the shift register, so the
    // main loop folds 8 payload bytes per iteration. Same polynomial and
    // check value as the byte-wise form (crc32("123456789") == 0xCBF43926).
    static const auto tables = [] {
        std::array<std::array<std::uint32_t, 256>, 8> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (std::size_t s = 1; s < 8; ++s)
            for (std::uint32_t i = 0; i < 256; ++i)
                t[s][i] = t[0][t[s - 1][i] & 0xFF] ^ (t[s - 1][i] >> 8);
        return t;
    }();
    const auto& t = tables;
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    const auto* p = static_cast<const std::uint8_t*>(data);
    while (len >= 8) {
        std::uint32_t lo, hi;
        std::memcpy(&lo, p, 4);
        std::memcpy(&hi, p + 4, 4);
        lo ^= c;
        c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
            t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
            t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
        p += 8;
        len -= 8;
    }
    while (len-- > 0) c = t[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

BinaryWriter::BinaryWriter(std::filesystem::path dir,
                           std::size_t spill_buffer_bytes)
    : dir_(std::move(dir)), spill_buffer_bytes_(spill_buffer_bytes) {}

BinaryWriter::~BinaryWriter() {
    if (finished_) return;
    for (auto& stream : spills_)
        for (auto& spill : stream) {
            if (spill.path.empty()) continue;
            spill.file.close();
            std::error_code ec;
            fs::remove(spill.path, ec);
        }
}

void BinaryWriter::append(const TraceSet& chunk) {
    if (finished_)
        throw std::logic_error("BinaryWriter::append: writer already finished");
    encode(chunk.storage, streams_);
    encode(chunk.cpu, streams_);
    encode(chunk.memory, streams_);
    encode(chunk.network, streams_);
    encode(chunk.requests, streams_);
    encode(chunk.failures, streams_);
    encode_spans(chunk.spans);
    records_ += chunk.total_records();
    maybe_spill();
}

void BinaryWriter::append(const ColumnChunk& chunk) {
    if (finished_)
        throw std::logic_error("BinaryWriter::append: writer already finished");
    for (std::size_t id = 0; id < kStreamCount; ++id) {
        const auto& src = chunk.streams_[id];
        if (src.count == 0) continue;
        auto& dst = streams_[id];
        for (std::size_t c = 0; c < kMaxColumns; ++c)
            dst.cols[c].insert(dst.cols[c].end(), src.cols[c].begin(),
                               src.cols[c].end());
        dst.count += src.count;
    }
    encode_spans(chunk.spans_);
    records_ += chunk.records();
    maybe_spill();
}

void BinaryWriter::maybe_spill() {
    if (spill_buffer_bytes_ == 0) return;
    for (std::size_t id = 0; id < kStreamCount; ++id)
        for (std::size_t c = 0; c < kMaxColumns; ++c)
            if (streams_[id].cols[c].size() >= spill_buffer_bytes_)
                spill_column(id, c);
}

void BinaryWriter::spill_column(std::size_t stream_id, std::size_t col_ix) {
    auto& bytes = streams_[stream_id].cols[col_ix];
    auto& spill = spills_[stream_id][col_ix];
    if (!spill.file.is_open()) {
        fs::create_directories(dir_);
        spill.path = dir_ / (std::string(schemas()[stream_id].stem) + ".c" +
                             std::to_string(col_ix) + ".spill");
        spill.file.open(spill.path,
                        std::ios::binary | std::ios::trunc | std::ios::out);
        if (!spill.file)
            throw std::runtime_error("BinaryWriter: cannot open spill file " +
                                     spill.path.string());
    }
    spill.crc = crc32(bytes.data(), bytes.size(), spill.crc);
    spill.file.write(reinterpret_cast<const char*>(bytes.data()),
                     std::streamsize(bytes.size()));
    if (!spill.file)
        throw std::runtime_error("BinaryWriter: spill write failed: " +
                                 spill.path.string());
    spill.bytes += bytes.size();
    bytes.clear();
}

void BinaryWriter::write_stream_file(std::size_t stream_id) {
    const auto& schema = schemas()[stream_id];
    auto& stream = streams_[stream_id];
    const auto path = dir_ / (std::string(schema.stem) + ".bin");
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        throw std::runtime_error("BinaryWriter: cannot open " + path.string());

    std::uint64_t written = 0;
    auto emit = [&](const std::vector<std::uint8_t>& bytes) {
        f.write(reinterpret_cast<const char*>(bytes.data()),
                std::streamsize(bytes.size()));
        written += bytes.size();
    };
    auto emit_section = [&](const std::vector<std::uint8_t>& payload) {
        std::vector<std::uint8_t> frame;
        put(frame, std::uint64_t(payload.size()));
        emit(frame);
        emit(payload);
        std::vector<std::uint8_t> tail;
        put(tail, crc32(payload.data(), payload.size()));
        emit(tail);
    };
    // A spilled column splices its temp file in front of the still-
    // buffered tail; the section CRC chains across both, so the bytes
    // are identical to the all-in-memory path.
    auto emit_column = [&](const std::vector<std::uint8_t>& bytes, Spill& spill) {
        if (spill.bytes == 0) {
            emit_section(bytes);
            return;
        }
        std::vector<std::uint8_t> frame;
        put(frame, std::uint64_t(spill.bytes + bytes.size()));
        emit(frame);
        spill.file.close();
        std::ifstream in(spill.path, std::ios::binary);
        if (!in)
            throw std::runtime_error("BinaryWriter: cannot reopen spill file " +
                                     spill.path.string());
        std::vector<char> buf(1 << 20);
        std::uint64_t copied = 0;
        while (in) {
            in.read(buf.data(), std::streamsize(buf.size()));
            const auto got = in.gcount();
            if (got <= 0) break;
            f.write(buf.data(), got);
            written += std::uint64_t(got);
            copied += std::uint64_t(got);
        }
        if (copied != spill.bytes)
            throw std::runtime_error("BinaryWriter: spill file truncated: " +
                                     spill.path.string());
        emit(bytes);
        std::vector<std::uint8_t> tail;
        put(tail, crc32(bytes.data(), bytes.size(), spill.crc));
        emit(tail);
        std::error_code ec;
        fs::remove(spill.path, ec);
    };

    emit(make_header(schema, stream.count));
    for (std::size_t c = 0; c < schema.cols.size(); ++c)
        emit_column(stream.cols[c], spills_[stream_id][c]);
    if (schema.id == 6) {
        std::vector<std::uint8_t> tab;
        put(tab, std::uint32_t(names_.size()));
        for (const SpanName n : names_) {
            const std::string& text = n.str();
            put(tab, std::uint32_t(text.size()));
            tab.insert(tab.end(), text.begin(), text.end());
        }
        emit_section(tab);
    }
    // close() makes the final flush; a failure there (disk full) must
    // throw like any other short write, not vanish in the destructor.
    f.close();
    if (!f) throw std::runtime_error("BinaryWriter: write failed: " + path.string());
    metrics().files_written.add();
    metrics().bytes_written.add(written);
}

void BinaryWriter::finish() {
    if (finished_) return;
    fs::create_directories(dir_);
    for (std::size_t id = 0; id < streams_.size(); ++id) write_stream_file(id);
    finished_ = true;
}

void write_binary(const TraceSet& ts, const std::filesystem::path& dir) {
    BinaryWriter w(dir);
    w.append(ts);
    w.finish();
}

ChunkedReader::ChunkedReader(std::filesystem::path dir) : dir_(std::move(dir)) {
    files_.resize(schemas().size());
    std::vector<char> buf(1 << 20);
    for (const auto& s : schemas()) {
        auto& sf = files_[s.id];
        sf.path = dir_ / (std::string(s.stem) + ".bin");
        if (!fs::exists(sf.path)) {
            metrics().missing_files.add();
            throw std::runtime_error("kooza.trace/1: missing stream file " +
                                     sf.path.string() + " (partial capture?)");
        }
        sf.file.open(sf.path, std::ios::binary);
        if (!sf.file) bad_file(sf.path, "cannot open");

        // Header, from a small buffer.
        std::vector<std::uint8_t> h(kHeaderBytes + 4);
        sf.file.read(reinterpret_cast<char*>(h.data()),
                     std::streamsize(h.size()));
        if (std::size_t(sf.file.gcount()) != h.size())
            bad_file(sf.path, "truncated file (header)");
        if (std::memcmp(h.data(), kBinaryMagic, sizeof(kBinaryMagic)) != 0)
            bad_file(sf.path, "bad magic (not a kooza.trace/1 file)");
        std::size_t pos = sizeof(kBinaryMagic);
        auto take32 = [&] {
            std::uint32_t v;
            std::memcpy(&v, h.data() + pos, 4);
            pos += 4;
            return v;
        };
        auto take64 = [&] {
            std::uint64_t v;
            std::memcpy(&v, h.data() + pos, 8);
            pos += 8;
            return v;
        };
        std::uint32_t stored_hdr_crc;
        std::memcpy(&stored_hdr_crc, h.data() + kHeaderBytes, 4);
        if (crc32(h.data(), kHeaderBytes) != stored_hdr_crc)
            bad_file(sf.path, "header CRC32 mismatch");
        if (const auto ver = take32(); ver != kBinaryVersion)
            bad_file(sf.path, "unsupported version " + std::to_string(ver));
        if (const auto id = take32(); id != s.id)
            bad_file(sf.path, "stream id mismatch (file renamed?)");
        if (take64() != schema_hash(s.spec))
            bad_file(sf.path, "schema hash mismatch");
        sf.count = take64();

        // Walk the sections once, CRC-checking each payload through the
        // bounded buffer and remembering where it starts. A column section
        // must hold exactly `count` values of `col_width` bytes (0 = any
        // length). The check divides rather than multiplying count by
        // width, so a hostile count cannot wrap the product to a short,
        // CRC-valid section.
        std::uint64_t off = kHeaderBytes + 4;
        auto check_section = [&](std::uint64_t col_width, const char* what,
                                 std::vector<std::uint8_t>* capture) {
            std::uint64_t len = 0;
            sf.file.read(reinterpret_cast<char*>(&len), 8);
            if (sf.file.gcount() != 8)
                bad_file(sf.path,
                         std::string("truncated file (") + what + ")");
            if (col_width != 0 &&
                (len % col_width != 0 || len / col_width != sf.count))
                bad_file(sf.path,
                         std::string(what) + ": unexpected section length");
            off += 8;
            const std::uint64_t payload = off;
            std::uint32_t crc = 0;
            std::uint64_t left = len;
            while (left > 0) {
                const auto take =
                    std::size_t(std::min<std::uint64_t>(left, buf.size()));
                sf.file.read(buf.data(), std::streamsize(take));
                if (std::size_t(sf.file.gcount()) != take)
                    bad_file(sf.path,
                             std::string("truncated file (") + what + ")");
                crc = crc32(buf.data(), take, crc);
                if (capture)
                    capture->insert(capture->end(), buf.data(),
                                    buf.data() + take);
                left -= take;
            }
            std::uint32_t stored = 0;
            sf.file.read(reinterpret_cast<char*>(&stored), 4);
            if (sf.file.gcount() != 4)
                bad_file(sf.path,
                         std::string("truncated file (") + what + ")");
            if (crc != stored)
                bad_file(sf.path, std::string(what) +
                                      ": CRC32 mismatch (corrupt section)");
            off += len + 4;
            return payload;
        };
        for (std::size_t c = 0; c < s.cols.size(); ++c)
            sf.col_offsets.push_back(
                check_section(width(s.cols[c]), "column", nullptr));
        if (s.id == 6) {
            // The string table is bounded by the number of distinct span
            // names, so it is safe to hold in memory.
            std::vector<std::uint8_t> tab;
            check_section(0, "string table", &tab);
            std::size_t p = 0;
            auto need = [&](std::size_t n) {
                if (p + n > tab.size())
                    bad_file(sf.path, "string table truncated");
            };
            need(4);
            std::uint32_t n;
            std::memcpy(&n, tab.data(), 4);
            p += 4;
            for (std::uint32_t i = 0; i < n; ++i) {
                need(4);
                std::uint32_t len;
                std::memcpy(&len, tab.data() + p, 4);
                p += 4;
                need(len);
                names_.emplace_back(std::string_view(
                    reinterpret_cast<const char*>(tab.data() + p), len));
                p += len;
            }
            if (p != tab.size())
                bad_file(sf.path, "string table has trailing bytes");
        }
    }
}

std::uint64_t ChunkedReader::rows(StreamId s) const noexcept {
    return files_[std::size_t(s)].count;
}

std::uint64_t ChunkedReader::total_rows() const noexcept {
    std::uint64_t n = 0;
    for (const auto& sf : files_) n += sf.count;
    return n;
}

void ChunkedReader::read_rows(StreamId s, std::uint64_t begin, std::uint64_t n,
                              TraceSet& out) {
    const auto id = std::size_t(s);
    const auto& schema = schemas()[id];
    auto& sf = files_[id];
    if (begin + n < begin || begin + n > sf.count)
        throw std::out_of_range("ChunkedReader::read_rows: rows [" +
                                std::to_string(begin) + ", " +
                                std::to_string(begin + n) + ") past end of " +
                                sf.path.string());
    if (n == 0) return;

    std::vector<std::vector<std::uint8_t>> cols(schema.cols.size());
    for (std::size_t c = 0; c < schema.cols.size(); ++c) {
        const auto w = width(schema.cols[c]);
        cols[c].resize(std::size_t(n) * w);
        sf.file.clear();
        sf.file.seekg(std::streamoff(sf.col_offsets[c] + begin * w));
        sf.file.read(reinterpret_cast<char*>(cols[c].data()),
                     std::streamsize(cols[c].size()));
        if (std::size_t(sf.file.gcount()) != cols[c].size())
            bad_file(sf.path, "short read");
    }
    auto u64 = [&](std::size_t c, std::size_t i) {
        std::uint64_t v;
        std::memcpy(&v, cols[c].data() + i * 8, 8);
        return v;
    };
    auto u32 = [&](std::size_t c, std::size_t i) {
        std::uint32_t v;
        std::memcpy(&v, cols[c].data() + i * 4, 4);
        return v;
    };
    auto f64 = [&](std::size_t c, std::size_t i) {
        return std::bit_cast<double>(u64(c, i));
    };
    auto enum8 = [&](std::size_t c, std::size_t i, std::uint8_t max,
                     const char* what) {
        const auto v = cols[c][i];
        if (v > max)
            bad_file(sf.path, "record " + std::to_string(begin + i) +
                                  ": invalid " + what + " value " +
                                  std::to_string(v));
        return v;
    };
    // One allocation for a whole-stream read (read_binary's drain);
    // repeated appends into the same vector still grow geometrically.
    auto append = [n](auto& vec, auto&& decode) {
        vec.reserve(std::max<std::size_t>(vec.size() + n, 2 * vec.size()));
        for (std::size_t i = 0; i < n; ++i) vec.push_back(decode(i));
    };

    switch (s) {
        case StreamId::kStorage:
            append(out.storage, [&](std::size_t i) {
                return StorageRecord{f64(0, i), u64(1, i), u64(2, i), u64(3, i),
                                     IoType(enum8(4, i, 1, "io type")),
                                     f64(5, i)};
            });
            break;
        case StreamId::kCpu:
            append(out.cpu, [&](std::size_t i) {
                return CpuRecord{f64(0, i), u64(1, i), f64(2, i), f64(3, i)};
            });
            break;
        case StreamId::kMemory:
            append(out.memory, [&](std::size_t i) {
                return MemoryRecord{f64(0, i), u64(1, i), u32(2, i), u64(3, i),
                                    IoType(enum8(4, i, 1, "io type"))};
            });
            break;
        case StreamId::kNetwork:
            append(out.network, [&](std::size_t i) {
                return NetworkRecord{
                    f64(0, i), u64(1, i), u64(2, i),
                    NetworkRecord::Direction(enum8(3, i, 1, "direction")),
                    f64(4, i)};
            });
            break;
        case StreamId::kRequests:
            append(out.requests, [&](std::size_t i) {
                return RequestRecord{u64(0, i), IoType(enum8(1, i, 1, "io type")),
                                     f64(2, i), f64(3, i), u64(4, i)};
            });
            break;
        case StreamId::kFailures:
            append(out.failures, [&](std::size_t i) {
                return FailureRecord{
                    f64(0, i), u64(1, i), u32(2, i),
                    FailureRecord::Kind(enum8(3, i, 5, "failure kind")),
                    f64(4, i)};
            });
            break;
        case StreamId::kSpans:
            append(out.spans, [&](std::size_t i) {
                Span sp;
                sp.trace_id = u64(0, i);
                sp.span_id = u64(1, i);
                sp.parent_id = u64(2, i);
                const auto ix = u32(3, i);
                if (ix >= names_.size())
                    bad_file(sf.path, "record " + std::to_string(begin + i) +
                                          ": name index out of range");
                sp.name = names_[ix];
                sp.start = f64(4, i);
                sp.end = f64(5, i);
                return sp;
            });
            break;
    }
    metrics().rows.add(n);
}

void ChunkedReader::for_each_chunk(
    std::size_t chunk_rows, const std::function<void(const TraceSet&)>& fn) {
    if (chunk_rows == 0)
        throw std::invalid_argument(
            "ChunkedReader::for_each_chunk: chunk_rows must be >= 1");
    for (std::size_t id = 0; id < files_.size(); ++id) {
        const auto s = StreamId(id);
        const std::uint64_t total = rows(s);
        for (std::uint64_t off = 0; off < total; off += chunk_rows) {
            TraceSet chunk;
            read_rows(s, off, std::min<std::uint64_t>(chunk_rows, total - off),
                      chunk);
            fn(chunk);
        }
    }
}

TraceSet read_binary(const std::filesystem::path& dir) {
    ChunkedReader reader(dir);
    TraceSet ts;
    for (std::size_t id = 0; id < kStreamCount; ++id) {
        const auto s = StreamId(id);
        reader.read_rows(s, 0, reader.rows(s), ts);
    }
    return ts;
}

}  // namespace kooza::trace
