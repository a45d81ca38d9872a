// obs::format_g17 against its oracle, std::to_chars(general, 17): byte for
// byte on random bit patterns, log-uniform magnitudes, integers, halves,
// thirds, rounding ties, every power of ten and of two with neighbours,
// the exact path's range edges and the special values, and into buffers
// too short to hold the text.
#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "obs/format.hpp"

namespace {

using kooza::obs::format_g17;

// AddressSanitizer slows every call several times over: the random sets
// shrink under it, the enumerated ones do not.
#if defined(__SANITIZE_ADDRESS__)
constexpr std::uint64_t kScale = 20;
#else
constexpr std::uint64_t kScale = 1;
#endif

std::to_chars_result oracle(char* first, char* last, double v) {
    return std::to_chars(first, last, v, std::chars_format::general, 17);
}

/// Checks values against the oracle in buffers of kG17BufferBytes (the
/// smallest the exact path takes) and counts the ones whose text or result
/// differs.
class Checker {
public:
    explicit Checker(const char* set) : set_(set) {}
    ~Checker() {
        std::printf("[ format   ] %s: %llu values, %llu mismatches\n", set_,
                    static_cast<unsigned long long>(checked_),
                    static_cast<unsigned long long>(mismatches_));
    }
    Checker(const Checker&) = delete;
    Checker& operator=(const Checker&) = delete;

    void check(double v) {
        char got[kooza::obs::kG17BufferBytes], want[kooza::obs::kG17BufferBytes];
        const auto g = format_g17(got, got + sizeof got, v);
        const auto w = oracle(want, want + sizeof want, v);
        ++checked_;
        const std::string_view gs(got, std::size_t(g.ptr - got));
        const std::string_view ws(want, std::size_t(w.ptr - want));
        if (g.ec == w.ec && gs == ws) return;
        if (++mismatches_ <= 5) {
            std::uint64_t bits;
            std::memcpy(&bits, &v, sizeof bits);
            char hex[24];
            std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(bits));
            first_ += std::string(hex) + ": got '" + std::string(gs) + "', want '" +
                      std::string(ws) + "'\n";
        }
    }
    /// v and -v.
    void both(double v) {
        check(v);
        check(-v);
    }
    /// v, its neighbours `ulps` apart on each side, and their negatives.
    void around(double v, int ulps) {
        both(v);
        double up = v, down = v;
        for (int i = 0; i < ulps; ++i) {
            up = std::nextafter(up, std::numeric_limits<double>::infinity());
            down = std::nextafter(down, -std::numeric_limits<double>::infinity());
            both(up);
            both(down);
        }
    }
    std::uint64_t checked() const { return checked_; }
    std::uint64_t mismatches() const { return mismatches_; }
    const std::string& first() const { return first_; }

private:
    const char* set_;
    std::uint64_t checked_ = 0;
    std::uint64_t mismatches_ = 0;
    std::string first_;
};

#define EXPECT_NO_MISMATCH(c) \
    EXPECT_EQ((c).mismatches(), 0u) << "first mismatches:\n" << (c).first()

double from_bits(std::uint64_t bits) {
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

TEST(FormatG17, RandomBitPatterns) {
    Checker c("random bit patterns");
    std::mt19937_64 rng(1);
    for (std::uint64_t i = 0; i < 20'000'000 / kScale; ++i) c.check(from_bits(rng()));
    EXPECT_NO_MISMATCH(c);
}

TEST(FormatG17, LogUniformMagnitudes) {
    Checker c("log-uniform over [1e-25, 1e20]");
    std::mt19937_64 rng(2);
    std::uniform_real_distribution<double> exponent(-25.0, 20.0);
    for (std::uint64_t i = 0; i < 10'000'000 / kScale; ++i) {
        const double v = std::pow(10.0, exponent(rng));
        c.check(rng() & 1 ? -v : v);
    }
    EXPECT_NO_MISMATCH(c);
}

/// Random mantissas at each binary exponent the exact path covers, and a
/// few past either end of it.
TEST(FormatG17, EveryInRangeBinaryExponent) {
    Checker c("random mantissas at exponents 2^-80 .. 2^60");
    std::mt19937_64 rng(3);
    for (int e = -80; e <= 60; ++e)
        for (std::uint64_t i = 0; i < 20'000 / kScale; ++i)
            c.both(std::ldexp(1.0 + double(rng() >> 11) * 0x1p-53, e));
    EXPECT_NO_MISMATCH(c);
}

TEST(FormatG17, IntegersHalvesAndThirds) {
    Checker c("integers, halves and thirds");
    for (std::int64_t i = 0; i <= 1'000'000; ++i) {
        c.both(double(i));
        c.both(double(i) + 0.5);
        c.both(double(i) / 3.0);
    }
    std::mt19937_64 rng(4);
    for (std::uint64_t i = 0; i < 1'000'000 / kScale; ++i) {
        const double big = double(rng() >> 11);  // below 2^53, exact
        c.both(big);
        c.both(big / 2.0);
        c.both(big / 3.0);
        c.both(double(rng() % 100'000'000'000'000'000ULL));  // below 1e17, rounded
    }
    EXPECT_NO_MISMATCH(c);
}

/// a / 2^k with a * 5^k of exactly 18 digits ends in a 5 at the 18th
/// significant digit: an exact tie at 17 digits, which the library rounds.
TEST(FormatG17, RoundingTies) {
    Checker c("exact ties at the 18th digit");
    std::mt19937_64 rng(5);
    for (int k = 2; k <= 25; ++k) {
        const double p5 = std::pow(5.0, k);
        const auto lo = std::uint64_t(std::ceil(1e17 / p5));
        const auto hi = std::min(std::uint64_t(1) << 53, std::uint64_t(1e18 / p5));
        for (std::uint64_t i = 0; i < 20'000 / kScale; ++i) {
            const std::uint64_t a = (lo + rng() % (hi - lo)) | 1;
            if (a >= hi) continue;
            c.both(std::ldexp(double(a), -k));
            c.both(std::ldexp(double(a + 1), -k));
            c.both(std::ldexp(double(a - 1), -k));
        }
    }
    EXPECT_NO_MISMATCH(c);
}

TEST(FormatG17, EveryPowerOfTenAndItsNeighbours) {
    Checker c("10^k for k in [-330, 310], +-1 ulp");
    for (int k = -330; k <= 310; ++k) {
        const std::string text = "1e" + std::to_string(k);
        c.around(std::strtod(text.c_str(), nullptr), 1);  // correctly rounded
    }
    EXPECT_NO_MISMATCH(c);
}

TEST(FormatG17, EveryPowerOfTwo) {
    Checker c("2^k and 1.5 * 2^k for every exponent");
    for (int k = -1080; k <= 1030; ++k) {
        c.both(std::ldexp(1.0, k));
        c.both(std::ldexp(1.5, k));
    }
    EXPECT_NO_MISMATCH(c);
}

TEST(FormatG17, RangeEdgesAndSpecialValues) {
    Checker c("range edges and special values");
    c.around(1e-22, 8);
    c.around(1e17, 8);
    c.around(1e16, 8);
    c.around(1e-4, 8);
    c.around(1e-5, 8);
    using lim = std::numeric_limits<double>;
    for (double v : {0.0, lim::infinity(), lim::quiet_NaN(), lim::denorm_min(), lim::min(),
                     lim::max(), lim::epsilon(), 0.1, 0.2, 0.3, 1.0 / 3.0, 2.0 / 3.0})
        c.both(v);
    EXPECT_NO_MISMATCH(c);
}

/// Into [first, last) with fewer bytes than the text, or just enough:
/// nothing is written past `last`, and the result is the oracle's.
TEST(FormatG17, ShortBuffers) {
    constexpr std::size_t kGuard = 16;
    const double values[] = {-0.000012345678901234567, -1.2345678901234567e-22,
                             -12345678901234567.0,     0.1,
                             1e-22,                    123.0,
                             1.0 / 3.0,                -std::numeric_limits<double>::infinity(),
                             -2.2250738585072014e-308, 0.0};
    std::uint64_t checked = 0;
    for (const double v : values)
        for (std::size_t len = 0; len <= 40; ++len) {
            std::vector<char> got(len + kGuard, '#'), want(len + kGuard, '#');
            const auto g = format_g17(got.data(), got.data() + len, v);
            const auto w = oracle(want.data(), want.data() + len, v);
            EXPECT_EQ(g.ec, w.ec) << v << " into " << len;
            EXPECT_EQ(g.ptr - got.data(), w.ptr - want.data()) << v << " into " << len;
            if (w.ec == std::errc()) {
                EXPECT_EQ(std::string_view(got.data(), std::size_t(g.ptr - got.data())),
                          std::string_view(want.data(), std::size_t(w.ptr - want.data())));
            }
            for (std::size_t i = len; i < len + kGuard; ++i)
                ASSERT_EQ(got[i], '#') << v << " wrote past " << len << " bytes";
            ++checked;
        }
    std::printf("[ format   ] short buffers: %llu calls\n",
                static_cast<unsigned long long>(checked));
}

}  // namespace
