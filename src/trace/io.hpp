// Format-dispatching trace persistence: one entry point over the CSV
// (csv.hpp, human-readable interop) and kooza.trace/1 binary columnar
// (binary.hpp, fast path) layouts, with auto-detection on read.
//
// Detection rule: a directory containing any `<stream>.bin` file is a
// binary capture (binary wins if both layouts are present — the .bin
// files are the authoritative, CRC-protected copy); otherwise it is
// read as CSV.
#pragma once

#include <filesystem>
#include <optional>
#include <string>

#include "trace/schema.hpp"
#include "trace/traceset.hpp"

namespace kooza::trace {

enum class Format : std::uint8_t { kCsv = 0, kBinary = 1 };

[[nodiscard]] const char* to_string(Format f) noexcept;

/// Parse a --format flag value ("csv" or "bin"); empty optional on junk.
[[nodiscard]] std::optional<Format> format_from_string(const std::string& s);

/// Decide which layout `dir` holds (see detection rule above). Throws
/// std::runtime_error when the directory holds neither layout.
[[nodiscard]] Format detect_format(const std::filesystem::path& dir);

/// Read a trace directory in the given format.
[[nodiscard]] TraceSet read_traces(const std::filesystem::path& dir, Format f);

/// Read a trace directory, auto-detecting the format.
[[nodiscard]] TraceSet read_traces(const std::filesystem::path& dir);

/// Write every stream into `dir` (created if missing) in the given format.
void write_traces(const TraceSet& ts, const std::filesystem::path& dir, Format f);

}  // namespace kooza::trace
