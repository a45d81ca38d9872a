// CSV persistence for TraceSets, so captured workloads can be stored,
// shared and re-trained on — the role production trace archives (SNIA,
// IISWC traces) play for the papers the survey covers.
//
// Layout: one file per stream inside a directory, `<stem>.csv` for each
// stream of the table in schema.hpp, which also fixes each file's
// columns. Each file has a header row of the field names; fields are
// comma-separated, no quoting (span names must not contain commas or
// line breaks). Enums are written as their to_string text.
// Doubles are written at 17 significant digits (printf's "%.17g"), so
// every value but a NaN's payload, subnormals included, reads back bit
// for bit. obs::format_g17 writes them: a finite |v| in [1e-22, 1e17) —
// the range of a capture's times, durations and sizes — by exact
// 128-bit integer arithmetic;
// zero, subnormals, values outside that range, infinities, NaN and exact
// rounding ties through std::to_chars(general, 17), whose text the exact
// path matches byte for byte.
#pragma once

#include <filesystem>

#include "trace/traceset.hpp"

namespace kooza::trace {

/// Write every stream into `dir` (created if missing).
/// Throws std::runtime_error on I/O failure, or when a span name contains
/// a ',' or line break (unrepresentable without quoting — the binary
/// format's string table has no such restriction).
void write_csv(const TraceSet& ts, const std::filesystem::path& dir);

/// Read a TraceSet previously written by write_csv, one bounded window
/// per file. Every stream file must be present — a missing file means a
/// partial capture and throws (counted in trace.csv.missing_files_total);
/// a malformed row (wrong field count, a number or id that is not the
/// whole field or is out of range for its field's type, an unknown enum
/// name) throws std::runtime_error naming the file, line and field
/// (counted in trace.csv.bad_rows_total).
[[nodiscard]] TraceSet read_csv(const std::filesystem::path& dir);

}  // namespace kooza::trace
