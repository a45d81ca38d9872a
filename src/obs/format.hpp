// Doubles as printf's "%.17g" text: the one formatter behind every
// 17-digit writer (CSV traces, saved models, metrics exports). 17
// significant digits read back bit for bit, so these files round-trip.
#pragma once

#include <charconv>
#include <cstddef>

namespace kooza::obs {

/// Bytes format_g17 needs free to take its exact path. No double's
/// %.17g text is longer ("-2.2250738585072014e-308" is 24).
inline constexpr std::size_t kG17BufferBytes = 32;

/// Write `v` into [first, last) exactly as
/// std::to_chars(first, last, v, std::chars_format::general, 17) does,
/// result included (an end pointer, or {last, value_too_large}).
///
/// A finite |v| in [1e-22, 1e17) takes an exact integer path: with
/// v = m * 2^e and X = floor(log10 |v|) (from e, then from the product),
/// D = floor(m * 5^q * 2^(e+q)) for q = 16 - X is v's first 17 digits,
/// computed in at most 192 bits, and the bits shifted out round it. The
/// digits are laid out as %g does: fixed for -4 <= X < 17, d.ddde-XX
/// below, trailing zeros dropped. Everything else — zero, subnormals,
/// values outside that range, infinities, NaN, a remainder of exactly
/// one half (a rounding tie) and a buffer under kG17BufferBytes — goes to
/// std::to_chars itself, so no byte can differ.
std::to_chars_result format_g17(char* first, char* last, double v);

}  // namespace kooza::obs
