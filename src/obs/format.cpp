#include "obs/format.hpp"

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace kooza::obs {

namespace {

using u128 = unsigned __int128;

constexpr std::uint64_t kTen8 = 100'000'000;
constexpr std::uint64_t kTen16 = kTen8 * kTen8;
constexpr std::uint64_t kTen17 = 10 * kTen16;

/// 5^q for every q = 16 - k the exact path uses: k >= -23 when
/// |v| >= 1e-22, and 5^39 < 2^91.
constexpr auto kPow5 = [] {
    std::array<u128, 40> p{};
    p[0] = 1;
    for (std::size_t q = 1; q < p.size(); ++q) p[q] = p[q - 1] * 5;
    return p;
}();

/// "00", "01", ..., "99".
constexpr auto kPairs = [] {
    std::array<char, 200> t{};
    for (int i = 0; i < 100; ++i) {
        t[2 * i] = char('0' + i / 10);
        t[2 * i + 1] = char('0' + i % 10);
    }
    return t;
}();

/// The 8 digits of x < 10^8 at out[0, 8).
void put8(char* out, std::uint32_t x) {
    const std::uint32_t hi = x / 10000, lo = x % 10000;
    std::memcpy(out, &kPairs[2 * (hi / 100)], 2);
    std::memcpy(out + 2, &kPairs[2 * (hi % 100)], 2);
    std::memcpy(out + 4, &kPairs[2 * (lo / 100)], 2);
    std::memcpy(out + 6, &kPairs[2 * (lo % 100)], 2);
}

std::to_chars_result library(char* first, char* last, double v) {
    return std::to_chars(first, last, v, std::chars_format::general, 17);
}

}  // namespace

std::to_chars_result format_g17(char* first, char* last, double v) {
    const double a = std::fabs(v);
    // The exact path's longest text is 24 bytes ("-0.000012345678901234567"),
    // and it stores digits in fixed-size blocks that may run past its end.
    if (last - first < std::ptrdiff_t(kG17BufferBytes) || !(a >= 1e-22 && a < 1e17))
        return library(first, last, v);
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    // |v| = m * 2^e with m in [2^52, 2^53), so 10^k <= |v| < 2 * 10^(k+1)
    // for k = floor((e + 52) * log10 2), which the shift computes exactly
    // for |e + 52| <= 1100. X = floor(log10 |v|) is k or k + 1.
    const std::uint64_t m = (bits & ((std::uint64_t(1) << 52) - 1)) | std::uint64_t(1) << 52;
    const int e = int(bits >> 52 & 0x7ff) - 1075;
    int x = ((e + 52) * 78913) >> 18;
    // d = floor(|v| * 10^q) = floor(m * 5^q * 2^(e+q)) for q = 16 - k,
    // in [10^16, 2 * 10^17); `half` is the first bit shifted out of it and
    // `rest` says whether any bit below that one is set.
    const int q = 16 - x;
    const int s = -(e + q);
    std::uint64_t d;
    bool half = false, rest = false;
    if (s <= 0) {
        d = (m * std::uint64_t(kPow5[q])) << -s;  // an integer: nothing shifted out
    } else {
        // m * 5^q = hi * 2^128 + lo, at most 144 bits; s <= 88 in range.
        const u128 p = kPow5[q];
        const u128 low = u128(m) * std::uint64_t(p);
        const u128 high = u128(m) * std::uint64_t(p >> 64);
        const u128 lo = low + (high << 64);
        const std::uint64_t hi = std::uint64_t(high >> 64) + (lo < low);
        d = std::uint64_t(lo >> s | u128(hi) << (128 - s));
        half = (lo >> (s - 1) & 1) != 0;
        rest = (lo & ((u128(1) << (s - 1)) - 1)) != 0;
    }
    // Round d to 17 digits by the exact remainder: from one half up, below
    // it down, except that exactly one half — a tie — goes to the library,
    // whose rule it is.
    bool up = false, tie = false;
    if (d >= kTen17) {  // X = k + 1: an 18th digit, then the bits below it
        const unsigned r = unsigned(d % 10);
        d /= 10;
        ++x;
        up = r >= 5;
        tie = r == 5 && !half && !rest;
    } else {
        up = half;
        tie = half && !rest;
    }
    if (tie) return library(first, last, v);
    d += up;
    if (d == kTen17) {
        d = kTen16;
        ++x;
    }

    // The 17 digits, then how many are left without trailing zeros.
    char digits[17];
    digits[0] = char('0' + d / kTen16);
    put8(digits + 1, std::uint32_t(d % kTen16 / kTen8));
    put8(digits + 9, std::uint32_t(d % kTen8));
    int n = 17;
    while (digits[n - 1] == '0') --n;

    // %g's layout: fixed for -4 <= X < 17 (X <= 16 here), else d.ddde-XX.
    char* p = first;
    if (bits >> 63) *p++ = '-';
    if (x >= 0) {
        std::memcpy(p, digits, 17);
        p += x + 1;
        if (n > x + 1) {
            *p = '.';
            std::memcpy(p + 1, digits + x + 1, std::size_t(n - x - 1));
            p += n - x;
        }
    } else if (x >= -4) {
        std::memcpy(p, "0.000", 5);  // "0." and -x - 1 zeros
        p += 1 - x;
        std::memcpy(p, digits, 17);
        p += n;
    } else {
        p[0] = digits[0];
        p[1] = '.';
        std::memcpy(p + 2, digits + 1, 16);
        p += n > 1 ? n + 1 : 1;
        std::memcpy(p, "e-", 2);
        std::memcpy(p + 2, &kPairs[2 * -x], 2);  // -x <= 23
        p += 4;
    }
    return {p, std::errc()};
}

}  // namespace kooza::obs
