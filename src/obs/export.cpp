#include "obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/format.hpp"

namespace kooza::obs {

namespace {

const char* kind_name(MetricSnapshot::Kind k) {
    switch (k) {
        case MetricSnapshot::Kind::kGauge: return "gauge";
        case MetricSnapshot::Kind::kHistogram: return "histogram";
        case MetricSnapshot::Kind::kCounter: break;
    }
    return "counter";
}

// %.17g round-trips doubles exactly, keeping exports byte-stable.
std::string fmt_double(double v) {
    char buf[kG17BufferBytes];
    return std::string(buf, format_g17(buf, buf + sizeof buf, v).ptr);
}

std::string fmt_u64(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    return buf;
}

}  // namespace

std::string to_json(const Snapshot& snap, const ExportOptions& opts) {
    std::string out;
    out += "{\n  \"schema\": \"kooza.metrics/1\",\n  \"metrics\": [";
    bool first = true;
    for (const auto& m : snap.metrics) {
        if (m.wall && !opts.include_wall) continue;
        out += first ? "\n" : ",\n";
        first = false;
        out += "    {\"name\": \"" + m.name + "\", \"kind\": \"" +
               kind_name(m.kind) + "\", \"unit\": \"" + to_string(m.unit) +
               "\", \"wall\": " + (m.wall ? "true" : "false");
        switch (m.kind) {
            case MetricSnapshot::Kind::kCounter:
                out += ", \"value\": " + fmt_u64(m.value);
                break;
            case MetricSnapshot::Kind::kGauge:
                out += ", \"value\": " + fmt_double(m.gauge_value) +
                       ", \"max\": " + fmt_double(m.gauge_max);
                break;
            case MetricSnapshot::Kind::kHistogram: {
                out += ", \"count\": " + fmt_u64(m.count) +
                       ", \"sum\": " + fmt_u64(m.sum) + ", \"buckets\": [";
                bool bf = true;
                for (const auto& [i, n] : m.buckets) {
                    if (!bf) out += ", ";
                    bf = false;
                    out += "[" + fmt_u64(i) + ", " + fmt_u64(n) + "]";
                }
                out += "]";
                break;
            }
        }
        out += "}";
    }
    out += "\n  ]\n}\n";
    return out;
}

std::string to_csv(const Snapshot& snap, const ExportOptions& opts) {
    std::string out = "name,kind,unit,wall,value,max,count,sum,buckets\n";
    for (const auto& m : snap.metrics) {
        if (m.wall && !opts.include_wall) continue;
        out += m.name;
        out += ',';
        out += kind_name(m.kind);
        out += ',';
        out += to_string(m.unit);
        out += ',';
        out += m.wall ? '1' : '0';
        out += ',';
        switch (m.kind) {
            case MetricSnapshot::Kind::kCounter:
                out += fmt_u64(m.value) + ",,,,";
                break;
            case MetricSnapshot::Kind::kGauge:
                out += fmt_double(m.gauge_value) + "," + fmt_double(m.gauge_max) +
                       ",,,";
                break;
            case MetricSnapshot::Kind::kHistogram: {
                out += ",," + fmt_u64(m.count) + "," + fmt_u64(m.sum) + ",";
                bool bf = true;
                for (const auto& [i, n] : m.buckets) {
                    if (!bf) out += ';';
                    bf = false;
                    out += fmt_u64(i) + ":" + fmt_u64(n);
                }
                break;
            }
        }
        out += '\n';
    }
    return out;
}

void write_metrics(const Snapshot& snap, const std::filesystem::path& path,
                   const ExportOptions& opts) {
    if (path.has_parent_path())
        std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("obs: cannot open " + path.string());
    out << (path.extension() == ".csv" ? to_csv(snap, opts) : to_json(snap, opts));
}

namespace {

[[noreturn]] void bad_file(const std::filesystem::path& path,
                           const std::string& why) {
    throw std::runtime_error("obs: malformed metrics file " + path.string() +
                             ": " + why);
}

Unit parse_unit(std::string_view s) {
    if (s == "bytes") return Unit::kBytes;
    if (s == "ns") return Unit::kNanoseconds;
    return Unit::kCount;
}

MetricSnapshot::Kind parse_kind(std::string_view s, bool& ok) {
    ok = true;
    if (s == "counter") return MetricSnapshot::Kind::kCounter;
    if (s == "gauge") return MetricSnapshot::Kind::kGauge;
    if (s == "histogram") return MetricSnapshot::Kind::kHistogram;
    ok = false;
    return MetricSnapshot::Kind::kCounter;
}

// Minimal scanner for the JSON we write ourselves — it does not aim to
// parse arbitrary JSON, only the canonical kooza.metrics/1 layout.
class JsonScan {
public:
    explicit JsonScan(std::string_view text) : text_(text) {}

    bool find_object_start() {
        pos_ = text_.find('{', pos_);
        if (pos_ == std::string_view::npos) return false;
        ++pos_;
        return true;
    }

    /// Value of a `"key": <scalar or string>` pair inside the current
    /// object region, empty when absent.
    std::string_view field(std::string_view key, std::size_t end) const {
        const std::string needle = "\"" + std::string(key) + "\":";
        auto at = text_.find(needle, pos_);
        if (at == std::string_view::npos || at >= end) return {};
        at += needle.size();
        while (at < end && text_[at] == ' ') ++at;
        if (at < end && text_[at] == '"') {
            auto close = text_.find('"', at + 1);
            if (close == std::string_view::npos || close > end) return {};
            return text_.substr(at + 1, close - at - 1);
        }
        auto stop = text_.find_first_of(",}]", at);
        if (stop == std::string_view::npos || stop > end) stop = end;
        return text_.substr(at, stop - at);
    }

    std::size_t pos() const { return pos_; }
    std::size_t object_end() const {
        auto e = text_.find('}', pos_);
        return e == std::string_view::npos ? text_.size() : e;
    }
    std::string_view text() const { return text_; }

private:
    std::string_view text_;
    std::size_t pos_ = 0;
};

std::uint64_t to_u64(std::string_view s) {
    std::uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9') break;
        v = v * 10 + std::uint64_t(c - '0');
    }
    return v;
}

Snapshot load_json(const std::filesystem::path& path, const std::string& text) {
    Snapshot snap;
    if (text.find("\"kooza.metrics/1\"") == std::string::npos)
        bad_file(path, "missing kooza.metrics/1 schema tag");
    auto list = text.find("\"metrics\"");
    if (list == std::string::npos) bad_file(path, "missing metrics array");
    std::size_t pos = text.find('[', list);
    if (pos == std::string::npos) bad_file(path, "missing metrics array");
    while (true) {
        auto open = text.find('{', pos);
        if (open == std::string::npos) break;
        auto close = text.find('}', open);
        if (close == std::string::npos) bad_file(path, "unterminated object");
        JsonScan scan(std::string_view(text).substr(open, close - open + 1));
        scan.find_object_start();
        const auto end = scan.text().size();
        MetricSnapshot m;
        m.name = std::string(scan.field("name", end));
        if (m.name.empty()) bad_file(path, "metric without a name");
        bool kind_ok = false;
        m.kind = parse_kind(scan.field("kind", end), kind_ok);
        if (!kind_ok) bad_file(path, "unknown kind for " + m.name);
        m.unit = parse_unit(scan.field("unit", end));
        m.wall = scan.field("wall", end) == "true";
        switch (m.kind) {
            case MetricSnapshot::Kind::kCounter:
                m.value = to_u64(scan.field("value", end));
                break;
            case MetricSnapshot::Kind::kGauge:
                m.gauge_value = std::strtod(
                    std::string(scan.field("value", end)).c_str(), nullptr);
                m.gauge_max = std::strtod(
                    std::string(scan.field("max", end)).c_str(), nullptr);
                break;
            case MetricSnapshot::Kind::kHistogram:
                m.count = to_u64(scan.field("count", end));
                m.sum = to_u64(scan.field("sum", end));
                break;
        }
        if (m.kind == MetricSnapshot::Kind::kHistogram) {
            auto barr = text.find("\"buckets\"", open);
            if (barr == std::string::npos || barr > close)
                bad_file(path, "histogram without buckets: " + m.name);
            auto bopen = text.find('[', barr);
            // The bucket array nests "[i, n]" pairs: balance brackets to
            // find where the outer array closes.
            std::size_t depth = 1, at = bopen + 1;
            while (at < text.size() && depth > 0) {
                if (text[at] == '[') ++depth;
                else if (text[at] == ']') --depth;
                ++at;
            }
            const std::size_t bclose = at - 1;
            std::string_view arr(text.data() + bopen + 1, bclose - bopen - 1);
            std::size_t p = 0;
            while ((p = arr.find('[', p)) != std::string_view::npos) {
                auto comma = arr.find(',', p);
                auto pe = arr.find(']', p);
                if (comma == std::string_view::npos ||
                    pe == std::string_view::npos || comma > pe)
                    bad_file(path, "malformed bucket pair in " + m.name);
                auto idx = to_u64(arr.substr(p + 1, comma - p - 1));
                auto sv = arr.substr(comma + 1, pe - comma - 1);
                while (!sv.empty() && sv.front() == ' ') sv.remove_prefix(1);
                m.buckets.emplace_back(std::uint32_t(idx), to_u64(sv));
                p = pe + 1;
            }
            close = text.find('}', bclose);
            if (close == std::string::npos) bad_file(path, "unterminated object");
        }
        snap.metrics.push_back(std::move(m));
        pos = close + 1;
        // Stop at the end of the metrics array.
        auto next_delim = text.find_first_not_of(" \n\r\t,", pos);
        if (next_delim == std::string::npos || text[next_delim] == ']') break;
    }
    return snap;
}

std::vector<std::string> split(std::string_view line, char sep) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        auto at = line.find(sep, start);
        if (at == std::string_view::npos) {
            out.emplace_back(line.substr(start));
            return out;
        }
        out.emplace_back(line.substr(start, at - start));
        start = at + 1;
    }
}

Snapshot load_csv(const std::filesystem::path& path, const std::string& text) {
    Snapshot snap;
    std::istringstream in(text);
    std::string line;
    bool header = true;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        if (header) {
            header = false;
            continue;
        }
        auto f = split(line, ',');
        if (f.size() != 9) bad_file(path, "expected 9 fields, got line: " + line);
        MetricSnapshot m;
        m.name = f[0];
        bool kind_ok = false;
        m.kind = parse_kind(f[1], kind_ok);
        if (!kind_ok) bad_file(path, "unknown kind " + f[1]);
        m.unit = parse_unit(f[2]);
        m.wall = f[3] == "1";
        switch (m.kind) {
            case MetricSnapshot::Kind::kCounter:
                m.value = to_u64(f[4]);
                break;
            case MetricSnapshot::Kind::kGauge:
                m.gauge_value = std::strtod(f[4].c_str(), nullptr);
                m.gauge_max = std::strtod(f[5].c_str(), nullptr);
                break;
            case MetricSnapshot::Kind::kHistogram:
                m.count = to_u64(f[6]);
                m.sum = to_u64(f[7]);
                for (const auto& pair : split(f[8], ';')) {
                    if (pair.empty()) continue;
                    auto colon = pair.find(':');
                    if (colon == std::string::npos)
                        bad_file(path, "malformed bucket " + pair);
                    m.buckets.emplace_back(
                        std::uint32_t(to_u64(pair.substr(0, colon))),
                        to_u64(pair.substr(colon + 1)));
                }
                break;
        }
        snap.metrics.push_back(std::move(m));
    }
    return snap;
}

}  // namespace

Snapshot load_metrics(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("obs: cannot read " + path.string());
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    if (path.extension() == ".csv") return load_csv(path, text);
    return load_json(path, text);
}

double histogram_quantile(const MetricSnapshot& m, double q) {
    if (m.count == 0 || m.buckets.empty()) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Continuous rank in [1, count]; bucket b >= 1 covers [2^(b-1), 2^b)
    // with its mass spread uniformly, so the estimate interpolates to the
    // rank's fraction of the bucket instead of jumping to its upper bound
    // (which overstated every percentile by up to 2x).
    const double target = q * double(m.count - 1) + 1.0;
    std::uint64_t seen = 0;
    for (const auto& [b, n] : m.buckets) {
        if (n == 0) continue;
        if (double(seen) + double(n) >= target) {
            if (b == 0) return 0.0;
            const double lo = std::ldexp(1.0, int(b) - 1);
            const double hi = std::ldexp(1.0, int(b));
            const double f =
                std::clamp((target - double(seen)) / double(n), 0.0, 1.0);
            return lo + f * (hi - lo);
        }
        seen += n;
    }
    return std::ldexp(1.0, int(std::min<std::uint32_t>(m.buckets.back().first, 64)));
}

namespace {

std::string human_value(double v, Unit unit) {
    char buf[64];
    switch (unit) {
        case Unit::kBytes:
            if (v >= 1 << 20)
                std::snprintf(buf, sizeof buf, "%.2f MiB", v / double(1 << 20));
            else if (v >= 1 << 10)
                std::snprintf(buf, sizeof buf, "%.2f KiB", v / double(1 << 10));
            else
                std::snprintf(buf, sizeof buf, "%.0f B", v);
            return buf;
        case Unit::kNanoseconds:
            if (v >= 1e9)
                std::snprintf(buf, sizeof buf, "%.3f s", v / 1e9);
            else if (v >= 1e6)
                std::snprintf(buf, sizeof buf, "%.3f ms", v / 1e6);
            else if (v >= 1e3)
                std::snprintf(buf, sizeof buf, "%.3f us", v / 1e3);
            else
                std::snprintf(buf, sizeof buf, "%.0f ns", v);
            return buf;
        case Unit::kCount: break;
    }
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

}  // namespace

std::string summarize(const Snapshot& snap) {
    std::string out;
    char buf[256];
    for (const auto& m : snap.metrics) {
        switch (m.kind) {
            case MetricSnapshot::Kind::kCounter:
                std::snprintf(buf, sizeof buf, "  %-44s %s\n", m.name.c_str(),
                              human_value(double(m.value), m.unit).c_str());
                break;
            case MetricSnapshot::Kind::kGauge:
                std::snprintf(buf, sizeof buf, "  %-44s %s (max %s)\n",
                              m.name.c_str(),
                              human_value(m.gauge_value, m.unit).c_str(),
                              human_value(m.gauge_max, m.unit).c_str());
                break;
            case MetricSnapshot::Kind::kHistogram:
                std::snprintf(
                    buf, sizeof buf,
                    "  %-44s n=%" PRIu64 " mean=%s p50~%s p95~%s p99~%s%s\n",
                    m.name.c_str(), m.count,
                    human_value(m.mean(), m.unit).c_str(),
                    human_value(histogram_quantile(m, 0.50), m.unit).c_str(),
                    human_value(histogram_quantile(m, 0.95), m.unit).c_str(),
                    human_value(histogram_quantile(m, 0.99), m.unit).c_str(),
                    m.wall ? " [wall]" : "");
                break;
        }
        out += buf;
    }
    return out;
}

}  // namespace kooza::obs
