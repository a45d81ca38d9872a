#include "trace/csv.hpp"

#include <array>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"

namespace kooza::trace {

namespace {

namespace fs = std::filesystem;

/// write_csv formats rows into one buffer of this size per call.
constexpr std::size_t kWriteBufferBytes = std::size_t(1) << 20;
/// read_csv streams each file through a window of this size; it grows
/// only for a line longer than the window.
constexpr std::size_t kReadWindowBytes = std::size_t(1) << 20;
/// Longest number a field can format to: "-2.2250738585072014e-308"
/// at 17 significant digits is 24 characters, a u64 is 20.
constexpr std::size_t kMaxNumberChars = 32;

struct CsvMetrics {
    obs::Counter& rows = obs::counter("trace.csv.rows_total");
    obs::Counter& bad_rows = obs::counter("trace.csv.bad_rows_total");
    obs::Counter& missing_files = obs::counter("trace.csv.missing_files_total");
};

CsvMetrics& metrics() {
    static CsvMetrics m;
    return m;
}

/// Formats rows into the caller's buffer and writes it out with fwrite.
/// Doubles go through to_chars at 17 significant digits, which is
/// printf's "%.17g" and so the same text `ostream << double` writes at
/// precision(17). Every fwrite and the fclose are checked.
class FileWriter {
public:
    FileWriter(const fs::path& p, std::vector<char>& buf)
        : path_(p), file_(std::fopen(p.c_str(), "wb")),
          begin_(buf.data()), pos_(begin_), end_(begin_ + buf.size()) {
        if (!file_) throw std::runtime_error("write_csv: cannot open " + path_.string());
        // Rows are already buffered here; a second stdio copy buys nothing.
        std::setvbuf(file_, nullptr, _IONBF, 0);
    }
    FileWriter(const FileWriter&) = delete;
    FileWriter& operator=(const FileWriter&) = delete;
    ~FileWriter() {
        if (file_) std::fclose(file_);  // unwinding: the error is already thrown
    }

    template <typename First, typename... Rest>
    void row(const First& first, const Rest&... rest) {
        field(first);
        ((put(','), field(rest)), ...);
        put('\n');
    }

    void text(std::string_view s) {
        if (std::size_t(end_ - pos_) < s.size()) {
            flush();
            if (s.size() > std::size_t(end_ - begin_)) return write_out(s.data(), s.size());
        }
        std::memcpy(pos_, s.data(), s.size());
        pos_ += s.size();
    }

    void close() {
        flush();
        const int rc = std::fclose(file_);
        file_ = nullptr;
        if (rc != 0) fail();
    }

private:
    template <typename T>
    void field(const T& v) {
        if constexpr (std::is_arithmetic_v<T>) {
            if (std::size_t(end_ - pos_) < kMaxNumberChars) flush();
            if constexpr (std::is_floating_point_v<T>)
                pos_ = std::to_chars(pos_, end_, v, std::chars_format::general, 17).ptr;
            else
                pos_ = std::to_chars(pos_, end_, v).ptr;
        } else {
            text(v);
        }
    }
    void put(char c) {
        if (pos_ == end_) flush();
        *pos_++ = c;
    }
    void flush() {
        write_out(begin_, std::size_t(pos_ - begin_));
        pos_ = begin_;
    }
    void write_out(const char* data, std::size_t n) {
        if (std::fwrite(data, 1, n, file_) != n) fail();
    }
    [[noreturn]] void fail() const {
        throw std::runtime_error("write_csv: write failed: " + path_.string());
    }

    fs::path path_;
    std::FILE* file_;
    char* begin_;
    char* pos_;
    char* end_;
};

/// Streams one stream file through the caller's window and splits each
/// data row into string_view fields that stay valid until the next row.
class Reader {
public:
    Reader(const fs::path& p, std::vector<char>& window)
        : path_(p), file_(std::fopen(p.c_str(), "rb")), window_(window) {
        // A capture always writes the full stream set, so an absent file
        // is a partial/deleted capture — failing quietly here used to
        // make it masquerade as a workload with an empty stream.
        if (!file_) {
            metrics().missing_files.add();
            throw std::runtime_error("read_csv: missing stream file " +
                                     p.string() + " (partial capture?)");
        }
        std::setvbuf(file_, nullptr, _IONBF, 0);  // the window is the buffer
    }
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;
    ~Reader() {
        metrics().rows.add(rows_);
        std::fclose(file_);
    }

    /// Next data row split into exactly N fields; false at end of file.
    template <std::size_t N>
    bool next(std::array<std::string_view, N>& fields) {
        std::string_view line;
        while (next_line(line)) {
            ++line_no_;
            // CRLF files: the '\r' stays on the line.
            if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
            if (line.empty()) continue;
            // The header is the first *non-empty* line, wherever it sits —
            // keying on line_no == 1 made a leading blank line demote the
            // real header to a data row.
            if (!header_skipped_) {
                header_skipped_ = true;
                continue;
            }
            ++rows_;
            // A second CR ("\r\r\n") rides on the last field; drop it too.
            if (line.back() == '\r') line.remove_suffix(1);
            split(line, fields);
            return true;
        }
        return false;
    }

    double num(std::string_view s, const char* what) const {
        // from_chars must consume the whole field: a valid prefix
        // ("1.5GB" -> 1.5) is corrupt data, not a number. It takes no
        // leading whitespace, '+' or hex, and reads subnormals exactly.
        double v = 0.0;
        const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
        if (ec != std::errc{} || end != s.data() + s.size()) bad(what);
        return v;
    }
    std::uint64_t id(std::string_view s, const char* what) const {
        // IDs and sizes are unsigned decimal fields: from_chars for an
        // unsigned type takes digits only (no sign, no whitespace) and
        // reports overflow, so "-1" is an error rather than 2^64-1.
        std::uint64_t v = 0;
        const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
        if (ec != std::errc{} || end != s.data() + s.size()) bad(what);
        return v;
    }
    /// Strict enum parse: an unknown name is a row error with file and
    /// line, never a default value.
    template <typename Parse>
    auto enumerated(Parse parse, std::string_view s, const char* what) const {
        try {
            return parse(s);
        } catch (const std::invalid_argument&) {
            bad(what);
        }
    }

private:
    [[noreturn]] void bad(const char* what) const {
        metrics().bad_rows.add();
        throw std::runtime_error("read_csv: " + path_.string() + ":" +
                                 std::to_string(line_no_) + ": " + what);
    }

    template <std::size_t N>
    void split(std::string_view line, std::array<std::string_view, N>& fields) const {
        std::size_t n = 0;
        for (;;) {
            if (n == N) bad("wrong field count");
            const auto comma = line.find(',');
            fields[n++] = line.substr(0, comma);
            if (comma == std::string_view::npos) break;
            line.remove_prefix(comma + 1);
        }
        if (n != N) bad("wrong field count");
    }

    /// Next '\n'-terminated line (or the unterminated last one) without
    /// its '\n'; false at end of file.
    bool next_line(std::string_view& line) {
        for (;;) {
            const char* b = window_.data() + begin_;
            const std::size_t avail = end_ - begin_;
            if (const auto* nl = static_cast<const char*>(std::memchr(b, '\n', avail))) {
                line = {b, std::size_t(nl - b)};
                begin_ += line.size() + 1;
                return true;
            }
            if (eof_) {
                if (avail == 0) return false;
                line = {b, avail};
                begin_ = end_;
                return true;
            }
            refill();
        }
    }

    /// Move the unfinished line to the front of the window and read more
    /// after it, doubling the window only when that line fills it.
    void refill() {
        const std::size_t tail = end_ - begin_;
        if (tail != 0 && begin_ != 0)
            std::memmove(window_.data(), window_.data() + begin_, tail);
        begin_ = 0;
        end_ = tail;
        if (end_ == window_.size()) window_.resize(window_.size() * 2);
        const std::size_t got =
            std::fread(window_.data() + end_, 1, window_.size() - end_, file_);
        if (std::ferror(file_))
            throw std::runtime_error("read_csv: read failed: " + path_.string());
        end_ += got;
        eof_ = got == 0;
    }

    fs::path path_;
    std::FILE* file_;
    std::vector<char>& window_;
    std::size_t begin_ = 0;  ///< first unread byte in the window
    std::size_t end_ = 0;    ///< one past the last byte read into it
    bool eof_ = false;
    std::size_t line_no_ = 0;
    std::size_t rows_ = 0;
    bool header_skipped_ = false;
};

}  // namespace

void write_csv(const TraceSet& ts, const fs::path& dir) {
    fs::create_directories(dir);
    std::vector<char> buf(kWriteBufferBytes);
    {
        FileWriter f(dir / "storage.csv", buf);
        f.text("time,request_id,lbn,size_bytes,type,latency\n");
        for (const auto& r : ts.storage)
            f.row(r.time, r.request_id, r.lbn, r.size_bytes, to_string(r.type), r.latency);
        f.close();
    }
    {
        FileWriter f(dir / "cpu.csv", buf);
        f.text("time,request_id,busy_seconds,utilization\n");
        for (const auto& r : ts.cpu)
            f.row(r.time, r.request_id, r.busy_seconds, r.utilization);
        f.close();
    }
    {
        FileWriter f(dir / "memory.csv", buf);
        f.text("time,request_id,bank,size_bytes,type\n");
        for (const auto& r : ts.memory)
            f.row(r.time, r.request_id, r.bank, r.size_bytes, to_string(r.type));
        f.close();
    }
    {
        FileWriter f(dir / "network.csv", buf);
        f.text("time,request_id,size_bytes,direction,latency\n");
        for (const auto& r : ts.network)
            f.row(r.time, r.request_id, r.size_bytes, to_string(r.direction), r.latency);
        f.close();
    }
    {
        FileWriter f(dir / "requests.csv", buf);
        f.text("request_id,type,arrival,completion,bytes\n");
        for (const auto& r : ts.requests)
            f.row(r.request_id, to_string(r.type), r.arrival, r.completion, r.bytes);
        f.close();
    }
    {
        FileWriter f(dir / "failures.csv", buf);
        f.text("time,request_id,server,kind,duration\n");
        for (const auto& r : ts.failures)
            f.row(r.time, r.request_id, r.server, to_string(r.kind), r.duration);
        f.close();
    }
    {
        FileWriter f(dir / "spans.csv", buf);
        f.text("trace_id,span_id,parent_id,name,start,end\n");
        std::vector<const std::string*> texts;  // by SpanName id, checked
        for (const auto& s : ts.spans) {
            if (s.name.id() >= texts.size()) texts.resize(s.name.id() + 1, nullptr);
            const std::string*& text = texts[s.name.id()];
            if (text == nullptr) {
                text = &s.name.str();
                // The format has no quoting, so a ',' / CR / LF in a span
                // name would silently shift every following field on
                // read-back. Reject at the source; kooza.trace/1
                // (binary.hpp) stores names in a string table and takes
                // arbitrary bytes.
                if (text->find_first_of(",\r\n") != std::string::npos)
                    throw std::runtime_error(
                        "write_csv: span name contains ',' or a line break "
                        "(unrepresentable in spans.csv, use --format=bin): '" +
                        *text + "'");
            }
            f.row(s.trace_id, s.span_id, s.parent_id, std::string_view(*text), s.start,
                  s.end);
        }
        f.close();
    }
}

TraceSet read_csv(const fs::path& dir) {
    TraceSet ts;
    std::vector<char> window(kReadWindowBytes);
    {
        Reader r(dir / "storage.csv", window);
        std::array<std::string_view, 6> f;
        while (r.next(f)) {
            StorageRecord rec;
            rec.time = r.num(f[0], "time");
            rec.request_id = r.id(f[1], "request_id");
            rec.lbn = r.id(f[2], "lbn");
            rec.size_bytes = r.id(f[3], "size_bytes");
            rec.type = r.enumerated(iotype_from_string, f[4], "type");
            rec.latency = r.num(f[5], "latency");
            ts.storage.push_back(rec);
        }
    }
    {
        Reader r(dir / "cpu.csv", window);
        std::array<std::string_view, 4> f;
        while (r.next(f)) {
            CpuRecord rec;
            rec.time = r.num(f[0], "time");
            rec.request_id = r.id(f[1], "request_id");
            rec.busy_seconds = r.num(f[2], "busy_seconds");
            rec.utilization = r.num(f[3], "utilization");
            ts.cpu.push_back(rec);
        }
    }
    {
        Reader r(dir / "memory.csv", window);
        std::array<std::string_view, 5> f;
        while (r.next(f)) {
            MemoryRecord rec;
            rec.time = r.num(f[0], "time");
            rec.request_id = r.id(f[1], "request_id");
            rec.bank = std::uint32_t(r.id(f[2], "bank"));
            rec.size_bytes = r.id(f[3], "size_bytes");
            rec.type = r.enumerated(iotype_from_string, f[4], "type");
            ts.memory.push_back(rec);
        }
    }
    {
        Reader r(dir / "network.csv", window);
        std::array<std::string_view, 5> f;
        while (r.next(f)) {
            NetworkRecord rec;
            rec.time = r.num(f[0], "time");
            rec.request_id = r.id(f[1], "request_id");
            rec.size_bytes = r.id(f[2], "size_bytes");
            rec.direction = r.enumerated(direction_from_string, f[3], "direction");
            rec.latency = r.num(f[4], "latency");
            ts.network.push_back(rec);
        }
    }
    {
        Reader r(dir / "requests.csv", window);
        std::array<std::string_view, 5> f;
        while (r.next(f)) {
            RequestRecord rec;
            rec.request_id = r.id(f[0], "request_id");
            rec.type = r.enumerated(iotype_from_string, f[1], "type");
            rec.arrival = r.num(f[2], "arrival");
            rec.completion = r.num(f[3], "completion");
            rec.bytes = r.id(f[4], "bytes");
            ts.requests.push_back(rec);
        }
    }
    {
        Reader r(dir / "failures.csv", window);
        std::array<std::string_view, 5> f;
        while (r.next(f)) {
            FailureRecord rec;
            rec.time = r.num(f[0], "time");
            rec.request_id = r.id(f[1], "request_id");
            rec.server = std::uint32_t(r.id(f[2], "server"));
            rec.kind = r.enumerated(failure_kind_from_string, f[3], "kind");
            rec.duration = r.num(f[4], "duration");
            ts.failures.push_back(rec);
        }
    }
    {
        Reader r(dir / "spans.csv", window);
        std::array<std::string_view, 6> f;
        // Each distinct name is interned once; the keys view the table's
        // own copy of the text, which never moves.
        std::unordered_map<std::string_view, SpanName> names;
        while (r.next(f)) {
            Span s;
            s.trace_id = r.id(f[0], "trace_id");
            s.span_id = r.id(f[1], "span_id");
            s.parent_id = r.id(f[2], "parent_id");
            auto it = names.find(f[3]);
            if (it == names.end()) {
                const SpanName name(f[3]);
                it = names.emplace(name.str(), name).first;
            }
            s.name = it->second;
            s.start = r.num(f[4], "start");
            s.end = r.num(f[5], "end");
            ts.spans.push_back(s);
        }
    }
    return ts;
}

}  // namespace kooza::trace
