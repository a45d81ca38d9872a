// kooza.trace/1 — versioned binary columnar persistence for TraceSets,
// the fast path next to the human-readable CSV layout (csv.hpp).
//
// Layout: one file per stream inside a directory, `<stem>.bin` for each
// stream of the table in schema.hpp, which also fixes each file's
// columns. Each file is:
//   [header]   magic "KOOZATR1", u32 version, u32 stream id,
//              u64 schema hash (FNV-1a over the column spec string,
//              e.g. "time:f64,request_id:u64,busy_seconds:f64,
//              utilization:f64" for cpu.bin), u64 record count,
//              u32 CRC32 of the header bytes
//   [columns]  one section per field, in table order: u64 byte length,
//              the column's values packed little-endian fixed-width
//              (f64 as IEEE-754 bits, u64/u32/u8), u32 CRC32 of the bytes
//   [strings]  spans.bin only: a final section holding the deduplicated
//              span-name table (u32 count, then u32 length + bytes each);
//              the name column (strtab32) stores u32 indices into it
// Every section is CRC-checked on read, every column section must hold
// exactly the header's record count, enum columns are range-checked
// against the same enum_max as the CSV reader, and doubles round-trip
// bit-exactly — including NaN payloads — which text formats cannot
// guarantee.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "trace/schema.hpp"
#include "trace/traceset.hpp"

namespace kooza::trace {

/// First 8 bytes of every kooza.trace/1 stream file.
inline constexpr char kBinaryMagic[8] = {'K', 'O', 'O', 'Z', 'A', 'T', 'R', '1'};
inline constexpr std::uint32_t kBinaryVersion = 1;

/// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) — the per-section
/// checksum. Exposed so tests can corrupt-then-refit sections. Passing a
/// previous return value as `seed` continues the checksum, so
/// crc32(b, nb, crc32(a, na)) == crc32(a || b) — the chaining the spill
/// path relies on.
///
/// On an x86-64 CPU that reports PCLMULQDQ and SSE4.1 (checked once, at
/// run time) the 16-byte-multiple prefix of a buffer of 64 bytes or more
/// is folded by carry-less multiplies, four 128-bit lanes at a time, and
/// Barrett-reduced (Intel, "Fast CRC Computation for Generic Polynomials
/// Using PCLMULQDQ", 2009); slicing-by-8 tables take the tail and every
/// other CPU. Both give the same value.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t len,
                                  std::uint32_t seed = 0) noexcept;

/// Buffered streaming writer: append records as they are captured (no
/// full-TraceSet materialization required by the caller), then finish()
/// to lay the files down. Both append overloads encode through the one
/// encoder the schema.hpp table drives, a batch at a time with one
/// resize per column, and columns are buffered per stream, so the output
/// is byte-identical however the records were batched.
///
/// With `spill_buffer_bytes > 0`, each column buffer is reserved to that
/// size at its first append, and spill_full_columns() flushes every
/// column buffer that has reached it to a temp file next to the output
/// (CRC chained across flushes), keeping the writer's memory flat for
/// arbitrarily long captures; finish() splices the spill files into the
/// final sections. The produced bytes are identical either way.
///
/// Only finish() writes .bin files. A writer destroyed unfinished — its
/// capture failed and the stack is unwinding — removes its spill files
/// and leaves no capture behind that could read as complete.
class BinaryWriter {
public:
    explicit BinaryWriter(std::filesystem::path dir,
                          std::size_t spill_buffer_bytes = 0);
    BinaryWriter(const BinaryWriter&) = delete;
    BinaryWriter& operator=(const BinaryWriter&) = delete;
    ~BinaryWriter();

    /// Append every record in `chunk`, one batch per stream, then
    /// spill_full_columns(). Throws std::logic_error after finish().
    void append(const TraceSet& chunk);

    /// Append `records` to the stream of their type (a schema.hpp record
    /// type), one batch. Does not spill: a caller appending batch by
    /// batch calls spill_full_columns() now and then (StreamingSink does
    /// every chunk_records records of a stream). Throws std::logic_error
    /// after finish().
    template <typename R>
    void append(std::span<const R> records);

    /// Flush every column buffer holding at least spill_buffer_bytes to
    /// its temp file; a no-op when spill_buffer_bytes is 0.
    void spill_full_columns();

    /// Write all seven stream files (directory created if missing).
    /// Idempotent; throws std::runtime_error on I/O failure.
    void finish();

    [[nodiscard]] std::uint64_t records_appended() const noexcept {
        return records_;
    }

private:
    /// A column's bytes already flushed to `path`, with the running CRC32
    /// over them (chained into the section checksum).
    struct Spill {
        std::filesystem::path path;
        std::ofstream file;
        std::uint64_t bytes = 0;
        std::uint32_t crc = 0;
    };
    struct Column {
        std::vector<std::uint8_t> bytes;  ///< encoded, not yet spilled
        Spill spill;
    };
    struct StreamColumns {
        std::array<Column, kMaxFields> cols;
        std::uint64_t count = 0;
    };

    void check_open() const;
    template <typename S>
    void encode(const S& stream, std::span<const typename S::Record> records);
    std::uint32_t name_index(SpanName name);
    void spill_column(std::size_t stream_id, std::size_t col_ix);
    void write_stream_file(std::size_t stream_id);

    std::filesystem::path dir_;
    std::size_t spill_buffer_bytes_ = 0;
    std::array<StreamColumns, kStreamCount> streams_;
    /// The span-name string table, in order of first appearance.
    std::vector<SpanName> names_;
    /// names_ index by SpanName id; UINT32_MAX for a name not yet seen.
    std::vector<std::uint32_t> name_ix_;
    std::uint64_t records_ = 0;
    bool finished_ = false;
};

/// One-shot convenience: write `ts` as kooza.trace/1 into `dir`.
void write_binary(const TraceSet& ts, const std::filesystem::path& dir);

/// Read a TraceSet previously written by BinaryWriter: a ChunkedReader
/// drained one whole stream at a time, so it validates and fails exactly
/// as ChunkedReader does.
[[nodiscard]] TraceSet read_binary(const std::filesystem::path& dir);

/// The kooza.trace/1 decoder. Validates every header and section CRC once
/// at construction (streamed through a small buffer, never loading a
/// whole file), then serves arbitrary row ranges per stream, so trainers
/// can consume captures far larger than RAM (core::Trainer::
/// train_streaming). read_binary is the whole-capture drain of it.
class ChunkedReader {
public:
    /// Opens and fully validates all seven stream files. Every file must
    /// be present: a partial capture fails loudly and counts
    /// trace.bin.missing_files_total. A bad magic, version, stream id,
    /// schema hash, CRC, or a section length that disagrees with the
    /// header's record count throws std::runtime_error naming the file.
    explicit ChunkedReader(std::filesystem::path dir);
    ChunkedReader(const ChunkedReader&) = delete;
    ChunkedReader& operator=(const ChunkedReader&) = delete;

    /// Record count of one stream.
    [[nodiscard]] std::uint64_t rows(StreamId s) const noexcept;

    /// Total records across all streams.
    [[nodiscard]] std::uint64_t total_rows() const noexcept;

    /// Decode rows [begin, begin + n) of `s`, appending them to the
    /// matching stream of `out` (other streams untouched). Enum columns
    /// are range-checked (std::runtime_error naming the file, record and
    /// field, e.g. "record 3: invalid direction value 7").
    /// Throws std::out_of_range when the range exceeds rows(s).
    void read_rows(StreamId s, std::uint64_t begin, std::uint64_t n,
                   TraceSet& out);

    /// Visit the whole capture as chunks: streams in StreamId order, each
    /// cut into consecutive runs of at most `chunk_rows` rows. Every call
    /// passes a fresh TraceSet holding one run of one stream, so record
    /// order within a stream is preserved. Throws std::invalid_argument
    /// when `chunk_rows` is 0.
    void for_each_chunk(std::size_t chunk_rows,
                        const std::function<void(const TraceSet&)>& fn);

private:
    struct StreamFile {
        std::filesystem::path path;
        std::ifstream file;
        std::uint64_t count = 0;
        std::vector<std::uint64_t> col_offsets;  ///< absolute payload offsets
    };

    std::filesystem::path dir_;
    std::vector<StreamFile> files_;     ///< indexed by stream id
    std::vector<SpanName> names_;       ///< spans string table, interned
};

}  // namespace kooza::trace
