// Minimal flag parsing shared by the kooza_* command-line tools.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace kooza::cli {

/// Parses "positional... [--flag value]... [--switch]..." command lines.
/// A flag followed by another "--" token (or the end of the line) is a
/// boolean switch; query those with has(). Names in `switches` never
/// consume a value, so "--closed-loop <output-dir>" keeps the directory
/// as a positional instead of swallowing it as the switch's value. The
/// parser accepts any flag name; a tool checks the names against the
/// flags it reads with unknown_flag().
class Args {
public:
    Args(int argc, char** argv, std::set<std::string> switches = {}) {
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            if (a.rfind("--", 0) == 0) {
                const std::string name = a.substr(2);
                if (switches.count(name) != 0 || i + 1 >= argc ||
                    std::string(argv[i + 1]).rfind("--", 0) == 0)
                    flags_[name] = "";
                else
                    flags_[name] = argv[++i];
            } else {
                positional_.push_back(std::move(a));
            }
        }
    }

    [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
        return positional_;
    }

    /// The first flag, in name order, that is not in `known`: a tool
    /// lists every flag it reads, so a misspelt "--coutn" fails instead
    /// of leaving the count at its default.
    [[nodiscard]] std::optional<std::string> unknown_flag(
        const std::set<std::string>& known) const {
        for (const auto& [name, value] : flags_)
            if (known.count(name) == 0) return name;
        return std::nullopt;
    }

    /// True if the flag appeared at all (with or without a value).
    [[nodiscard]] bool has(const std::string& name) const {
        return flags_.count(name) != 0;
    }

    [[nodiscard]] std::string get(const std::string& name,
                                  const std::string& fallback) const {
        auto it = flags_.find(name);
        return it == flags_.end() ? fallback : it->second;
    }

    /// Unsigned decimal only, full field consumed. Bare std::stoull
    /// accepted trailing junk ("10x" -> 10) and wrapped negatives into
    /// huge unsigned values ("-1" -> 2^64-1); a mistyped flag must fail
    /// loudly, naming itself, not silently truncate.
    [[nodiscard]] std::uint64_t get_u64(const std::string& name,
                                        std::uint64_t fallback) const {
        auto it = flags_.find(name);
        if (it == flags_.end()) return fallback;
        const std::string& s = it->second;
        if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
            bad_value(name, s, "an unsigned integer");
        try {
            return std::stoull(s);
        } catch (const std::out_of_range&) {
            bad_value(name, s, "an unsigned integer (out of range)");
        }
    }

    /// Floating-point, full field consumed ("1.5GB" and "1,000" no longer
    /// parse as 1.5 / 1).
    [[nodiscard]] double get_double(const std::string& name, double fallback) const {
        auto it = flags_.find(name);
        if (it == flags_.end()) return fallback;
        const std::string& s = it->second;
        std::size_t pos = 0;
        double v = 0.0;
        try {
            v = std::stod(s, &pos);
        } catch (const std::exception&) {
            bad_value(name, s, "a number");
        }
        if (pos != s.size()) bad_value(name, s, "a number");
        return v;
    }

private:
    [[noreturn]] static void bad_value(const std::string& name,
                                       const std::string& value,
                                       const char* expected) {
        throw std::invalid_argument("--" + name + ": expected " + expected +
                                    ", got '" + value + "'");
    }

    std::vector<std::string> positional_;
    std::map<std::string, std::string> flags_;
};

}  // namespace kooza::cli
