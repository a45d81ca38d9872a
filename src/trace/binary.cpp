#include "trace/binary.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>

#include "obs/metrics.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

/// FNV-1a 64-bit over the schema spec string.
std::uint64_t schema_hash(std::string_view spec) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : spec) {
        h ^= std::uint8_t(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/// The spec-string name of a field's column type, which the field's C++
/// type picks (schema.hpp). A value is stored as its own little-endian
/// bytes (a double as its IEEE-754 bits, an enum as its u8); a SpanName
/// as a u32 index into the string table.
template <typename T>
constexpr const char* wire_name() {
    if constexpr (std::is_same_v<T, double>) {
        return "f64";
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
        return "u64";
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
        return "u32";
    } else if constexpr (std::is_same_v<T, SpanName>) {
        return "strtab32";
    } else {
        static_assert(std::is_enum_v<T> && sizeof(T) == 1);
        return "u8";
    }
}

template <typename T>
constexpr std::size_t wire_width = std::is_same_v<T, SpanName> ? 4 : sizeof(T);

/// A stream's file layout, derived from its schema.hpp entry.
struct Layout {
    std::uint64_t hash = 0;           ///< schema_hash of the column spec
    std::vector<std::size_t> widths;  ///< bytes per value, per column
    bool strings = false;             ///< a string table follows the columns
};

const std::array<Layout, kStreamCount>& layouts() {
    static const auto all = [] {
        std::array<Layout, kStreamCount> out;
        for_each_stream([&out](const auto& s) {
            auto& layout = out[std::size_t(s.id)];
            std::string spec;
            for_each_field(s, [&](const auto& f) {
                using T = typename std::remove_cvref_t<decltype(f)>::Type;
                if (!spec.empty()) spec += ',';
                spec += std::string(f.name) + ':' + wire_name<T>();
                layout.widths.push_back(wire_width<T>);
                layout.strings = layout.strings || std::is_same_v<T, SpanName>;
            });
            layout.hash = schema_hash(spec);
        });
        return out;
    }();
    return all;
}

template <typename T>
void put(std::vector<std::uint8_t>& b, T v) {
    const auto old = b.size();
    b.resize(old + sizeof(T));
    std::memcpy(b.data() + old, &v, sizeof(T));
}

[[noreturn]] void bad_file(const fs::path& p, const std::string& why) {
    metrics().bad_files.add();
    throw std::runtime_error("kooza.trace/1: " + p.string() + ": " + why);
}

/// Fixed-size serialized header: magic + version + stream id + schema
/// hash + record count, then its CRC.
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8;

std::vector<std::uint8_t> make_header(std::size_t stream_id, std::uint64_t count) {
    std::vector<std::uint8_t> h;
    h.insert(h.end(), std::begin(kBinaryMagic), std::end(kBinaryMagic));
    put(h, kBinaryVersion);
    put(h, std::uint32_t(stream_id));
    put(h, layouts()[stream_id].hash);
    put(h, count);
    put(h, crc32(h.data(), h.size()));
    return h;
}

fs::path stream_path(const fs::path& dir, std::size_t stream_id, const char* ext) {
    return dir / (std::string(kStreamStems[stream_id]) + ext);
}

}  // namespace

/// Append a batch of records to one stream's columns, column by column:
/// field c of every record lands in column c through a single resize
/// and a tight fixed-stride store loop. With spilling on, a column's
/// first append reserves the whole spill buffer, so it fills up to its
/// first spill without a reallocation.
template <typename S>
void BinaryWriter::encode(const S& s, std::span<const typename S::Record> rs) {
    if (rs.empty()) return;
    auto& stream = streams_[std::size_t(s.id)];
    std::size_t c = 0;
    for_each_field(s, [&](const auto& f) {
        using T = typename std::remove_cvref_t<decltype(f)>::Type;
        auto& b = stream.cols[c++].bytes;
        if (b.capacity() < spill_buffer_bytes_) b.reserve(spill_buffer_bytes_);
        const auto old = b.size();
        b.resize(old + rs.size() * wire_width<T>);
        std::uint8_t* p = b.data() + old;
        for (const auto& r : rs) {
            if constexpr (std::is_same_v<T, SpanName>) {
                const std::uint32_t ix = name_index(r.*f.member);
                std::memcpy(p, &ix, sizeof ix);
            } else {
                std::memcpy(p, &(r.*f.member), sizeof(T));
            }
            p += wire_width<T>;
        }
    });
    stream.count += rs.size();
}

std::uint32_t BinaryWriter::name_index(SpanName name) {
    static constexpr auto kNoIndex = std::numeric_limits<std::uint32_t>::max();
    if (name.id() >= name_ix_.size()) name_ix_.resize(name.id() + 1, kNoIndex);
    auto& ix = name_ix_[name.id()];
    if (ix == kNoIndex) {
        ix = std::uint32_t(names_.size());
        names_.push_back(name);
    }
    return ix;
}

namespace {

#if defined(__x86_64__)
#define KOOZA_CLMUL __attribute__((target("pclmul,sse4.1")))

/// x folded over k (x's low qword times k's low, high times high) plus
/// the next 16 bytes y.
KOOZA_CLMUL __m128i fold16(__m128i x, __m128i k, __m128i y) noexcept {
    return _mm_xor_si128(
        _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11)),
        y);
}

KOOZA_CLMUL __m128i load16(const std::uint8_t* p) noexcept {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Fold `len` bytes at `p` (a multiple of 16, at least 64) into the CRC
/// register `c`, which holds the pre-inverted running value, and return
/// the register. Four 128-bit lanes are folded 64 bytes at a time by
/// carry-less multiplies with x^(512±32) mod P, then folded into one lane
/// (x^(128±32) mod P) and 16 bytes at a time, reduced to 64 bits and
/// Barrett-reduced to 32 (Intel's PCLMULQDQ CRC paper, 2009). The
/// constants are those of the bit-reflected polynomial 0xEDB88320, as in
/// zlib's and Linux's x86 paths: k1..k5, then P' and mu for the
/// reduction.
KOOZA_CLMUL std::uint32_t crc32_fold(const std::uint8_t* p, std::size_t len,
                                     std::uint32_t c) noexcept {
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);  // mu, P'
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 = _mm_xor_si128(load16(p), _mm_cvtsi32_si128(int(c)));
    __m128i x2 = load16(p + 16);
    __m128i x3 = load16(p + 32);
    __m128i x4 = load16(p + 48);
    for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
        x1 = fold16(x1, k1k2, load16(p));
        x2 = fold16(x2, k1k2, load16(p + 16));
        x3 = fold16(x3, k1k2, load16(p + 32));
        x4 = fold16(x4, k1k2, load16(p + 48));
    }
    x1 = fold16(x1, k3k4, x2);
    x1 = fold16(x1, k3k4, x3);
    x1 = fold16(x1, k3k4, x4);
    for (; len >= 16; p += 16, len -= 16) x1 = fold16(x1, k3k4, load16(p));

    // 128 -> 64 bits, then 64 -> 32 via k5.
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                       _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
    // Barrett reduction to the 32-bit remainder.
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
    return std::uint32_t(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}
#undef KOOZA_CLMUL

bool has_clmul() noexcept {
    static const bool yes = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
    }();
    return yes;
}
#endif

}  // namespace

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
#if defined(__x86_64__)
    if (len >= 64 && has_clmul()) {
        const std::size_t n = len & ~std::size_t(15);
        c = crc32_fold(p, n, c);
        p += n;
        len -= n;
    }
#endif
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
    for (auto& stream : streams_)
        for (auto& col : stream.cols) {
            if (col.spill.path.empty()) continue;
            col.spill.file.close();
            std::error_code ec;
            fs::remove(col.spill.path, ec);
        }
}

void BinaryWriter::check_open() const {
    if (finished_)
        throw std::logic_error("BinaryWriter::append: writer already finished");
}

void BinaryWriter::append(const TraceSet& chunk) {
    for_each_stream([&](const auto& s) { append(std::span(std::as_const(chunk.*s.records))); });
    spill_full_columns();
}

template <typename R>
void BinaryWriter::append(std::span<const R> records) {
    check_open();
    for_each_stream([&](const auto& s) {
        if constexpr (std::is_same_v<typename std::remove_cvref_t<decltype(s)>::Record, R>)
            encode(s, records);
    });
    records_ += records.size();
}

template void BinaryWriter::append(std::span<const StorageRecord>);
template void BinaryWriter::append(std::span<const CpuRecord>);
template void BinaryWriter::append(std::span<const MemoryRecord>);
template void BinaryWriter::append(std::span<const NetworkRecord>);
template void BinaryWriter::append(std::span<const RequestRecord>);
template void BinaryWriter::append(std::span<const FailureRecord>);
template void BinaryWriter::append(std::span<const Span>);

void BinaryWriter::spill_full_columns() {
    if (spill_buffer_bytes_ == 0) return;
    for (std::size_t id = 0; id < kStreamCount; ++id)
        for (std::size_t c = 0; c < kMaxFields; ++c)
            if (streams_[id].cols[c].bytes.size() >= spill_buffer_bytes_)
                spill_column(id, c);
}

void BinaryWriter::spill_column(std::size_t stream_id, std::size_t col_ix) {
    auto& [bytes, spill] = streams_[stream_id].cols[col_ix];
    if (!spill.file.is_open()) {
        fs::create_directories(dir_);
        spill.path = stream_path(dir_, stream_id,
                                 (".c" + std::to_string(col_ix) + ".spill").c_str());
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
    const auto& layout = layouts()[stream_id];
    auto& stream = streams_[stream_id];
    const auto path = stream_path(dir_, stream_id, ".bin");
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

    emit(make_header(stream_id, stream.count));
    for (std::size_t c = 0; c < layout.widths.size(); ++c)
        emit_column(stream.cols[c].bytes, stream.cols[c].spill);
    if (layout.strings) {
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
    files_.resize(kStreamCount);
    std::vector<char> buf(1 << 20);
    for (std::size_t id = 0; id < kStreamCount; ++id) {
        const auto& layout = layouts()[id];
        auto& sf = files_[id];
        sf.path = stream_path(dir_, id, ".bin");
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
        if (take32() != id)
            bad_file(sf.path, "stream id mismatch (file renamed?)");
        if (take64() != layout.hash)
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
        for (const std::size_t width : layout.widths)
            sf.col_offsets.push_back(check_section(width, "column", nullptr));
        if (layout.strings) {
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
    const auto& widths = layouts()[id].widths;
    auto& sf = files_[id];
    if (begin + n < begin || begin + n > sf.count)
        throw std::out_of_range("ChunkedReader::read_rows: rows [" +
                                std::to_string(begin) + ", " +
                                std::to_string(begin + n) + ") past end of " +
                                sf.path.string());
    if (n == 0) return;

    std::array<std::vector<std::uint8_t>, kMaxFields> bufs;
    std::array<const std::uint8_t*, kMaxFields> cols{};
    for (std::size_t c = 0; c < widths.size(); ++c) {
        auto& b = bufs[c];
        b.resize(std::size_t(n) * widths[c]);
        sf.file.clear();
        sf.file.seekg(std::streamoff(sf.col_offsets[c] + begin * widths[c]));
        sf.file.read(reinterpret_cast<char*>(b.data()), std::streamsize(b.size()));
        if (std::size_t(sf.file.gcount()) != b.size()) bad_file(sf.path, "short read");
        cols[c] = b.data();
    }
    // Value i of a column into `v`: the inverse of BinaryWriter::encode,
    // with an enum checked against its enum_max and a name index against
    // the string table.
    auto decode = [&](auto& v, const std::uint8_t* col, std::size_t i,
                      const char* field) {
        using T = std::remove_cvref_t<decltype(v)>;
        if constexpr (std::is_same_v<T, SpanName>) {
            std::uint32_t ix;
            std::memcpy(&ix, col + i * sizeof ix, sizeof ix);
            if (ix >= names_.size())
                bad_file(sf.path, "record " + std::to_string(begin + i) +
                                      ": name index out of range");
            v = names_[ix];
        } else {
            std::memcpy(&v, col + i * sizeof(T), sizeof(T));
            if constexpr (std::is_enum_v<T>)
                if (v > enum_max(T{}))
                    bad_file(sf.path, "record " + std::to_string(begin + i) +
                                          ": invalid " + field + " value " +
                                          std::to_string(unsigned(v)));
        }
    };
    visit_stream(s, [&](const auto& st) {
        auto& vec = out.*st.records;
        // One allocation for a whole-stream read (read_binary's drain);
        // repeated appends into the same vector still grow geometrically.
        vec.reserve(std::max<std::size_t>(vec.size() + n, 2 * vec.size()));
        for (std::size_t i = 0; i < n; ++i) {
            typename std::remove_cvref_t<decltype(st)>::Record rec;
            std::size_t c = 0;
            for_each_field(st, [&](const auto& f) {
                decode(rec.*f.member, cols[c++], i, f.name);
            });
            vec.push_back(rec);
        }
    });
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
