#include "trace/csv.hpp"

#include <array>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "obs/format.hpp"
#include "obs/metrics.hpp"
#include "trace/schema.hpp"

namespace kooza::trace {

namespace {

namespace fs = std::filesystem;

/// write_csv formats rows into one buffer of this size per call.
constexpr std::size_t kWriteBufferBytes = std::size_t(1) << 20;
/// read_csv streams each file through a window of this size; it grows
/// only for a line longer than the window.
constexpr std::size_t kReadWindowBytes = std::size_t(1) << 20;
/// Room left before a number is formatted: what obs::format_g17 needs for
/// its exact path, more than any double's or u64's text.
constexpr std::size_t kMaxNumberChars = obs::kG17BufferBytes;

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
/// Doubles go through obs::format_g17, printf's "%.17g" text. Every fwrite
/// and the fclose are checked.
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

    /// The header row: the field names of stream `s`.
    template <typename S>
    void header(const S& s) {
        join(s, [this](const auto& f) { text(f.name); });
    }

    /// One data row of stream `s`.
    template <typename S>
    void row(const S& s, const typename S::Record& r) {
        join(s, [&](const auto& f) { field(r.*f.member); });
    }

    void close() {
        flush();
        const int rc = std::fclose(file_);
        file_ = nullptr;
        if (rc != 0) fail();
    }

private:
    /// each(field) for every field of `s`, comma-separated, then '\n'.
    template <typename S, typename Each>
    void join(const S& s, Each each) {
        std::apply(
            [&](const auto& first, const auto&... rest) {
                each(first);
                ((put(','), each(rest)), ...);
            },
            s.fields);
        put('\n');
    }

    template <typename T>
    void field(const T& v) {
        if constexpr (std::is_arithmetic_v<T>) {
            if (std::size_t(end_ - pos_) < kMaxNumberChars) flush();
            if constexpr (std::is_floating_point_v<T>)
                pos_ = obs::format_g17(pos_, end_, v).ptr;
            else
                pos_ = std::to_chars(pos_, end_, v).ptr;
        } else if constexpr (std::is_enum_v<T>) {
            text(to_string(v));
        } else {
            text(name_text(v));
        }
    }

    /// A span name's text, checked once per distinct name.
    const std::string& name_text(SpanName name) {
        if (name.id() >= names_.size()) names_.resize(name.id() + 1, nullptr);
        const std::string*& checked = names_[name.id()];
        if (checked == nullptr) {
            checked = &name.str();
            // The format has no quoting, so a ',' / CR / LF in a span
            // name would silently shift every following field on
            // read-back. Reject at the source; kooza.trace/1
            // (binary.hpp) stores names in a string table and takes
            // arbitrary bytes.
            if (checked->find_first_of(",\r\n") != std::string::npos)
                throw std::runtime_error(
                    "write_csv: span name contains ',' or a line break "
                    "(unrepresentable in spans.csv, use --format=bin): '" +
                    *checked + "'");
        }
        return *checked;
    }
    void text(std::string_view s) {
        if (std::size_t(end_ - pos_) < s.size()) {
            flush();
            if (s.size() > std::size_t(end_ - begin_)) return write_out(s.data(), s.size());
        }
        std::memcpy(pos_, s.data(), s.size());
        pos_ += s.size();
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
    std::vector<const std::string*> names_;  ///< checked text, by SpanName id
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

    /// Parse one field into `out` by its type (schema.hpp). A number
    /// must be the whole field: from_chars takes no leading whitespace,
    /// '+' or hex, reads subnormals exactly, and for an unsigned type
    /// takes digits only and reports a value above the type's maximum,
    /// so "-1" and a u32 field above 2^32-1 are errors, not wrapped
    /// values. An unknown enum name is an error too, never a default.
    template <typename T>
    void parse(std::string_view s, const char* what, T& out) {
        if constexpr (std::is_arithmetic_v<T>) {
            const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
            if (ec != std::errc{} || end != s.data() + s.size()) bad(what);
        } else if constexpr (std::is_enum_v<T>) {
            try {
                out = enum_from_string<T>(s);
            } catch (const std::invalid_argument&) {
                bad(what);
            }
        } else {
            // Each distinct name is interned once; the keys view the
            // table's own copy of the text, which never moves.
            auto it = names_.find(s);
            if (it == names_.end()) {
                const SpanName name(s);
                it = names_.emplace(name.str(), name).first;
            }
            out = it->second;
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
    std::unordered_map<std::string_view, SpanName> names_;
};

}  // namespace

void write_csv(const TraceSet& ts, const fs::path& dir) {
    fs::create_directories(dir);
    std::vector<char> buf(kWriteBufferBytes);
    for_each_stream([&](const auto& s) {
        FileWriter f(dir / (std::string(s.stem) + ".csv"), buf);
        f.header(s);
        for (const auto& r : ts.*s.records) f.row(s, r);
        f.close();
    });
}

TraceSet read_csv(const fs::path& dir) {
    TraceSet ts;
    std::vector<char> window(kReadWindowBytes);
    for_each_stream([&](const auto& s) {
        Reader r(dir / (std::string(s.stem) + ".csv"), window);
        std::array<std::string_view, std::tuple_size_v<decltype(s.fields)>> fields;
        auto& out = ts.*s.records;
        while (r.next(fields)) {
            typename std::remove_cvref_t<decltype(s)>::Record rec;
            std::size_t c = 0;
            for_each_field(s, [&](const auto& f) {
                r.parse(fields[c++], f.name, rec.*f.member);
            });
            out.push_back(rec);
        }
    });
    return ts;
}

}  // namespace kooza::trace
