// FNV-1a digest for the pinned-output tests: a test folds every value a
// computation produces into one 64-bit constant recorded from a trusted
// build, so a rewrite must reproduce its predecessor bit for bit.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace kooza::testutil {

/// FNV-1a over the bytes of each value added.
class Fnv {
public:
    template <typename T>
    void add(const T& v) {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (unsigned char b : bytes) byte(b);
    }
    void add_bytes(std::string_view s) {
        for (char c : s) byte(static_cast<unsigned char>(c));
    }
    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

private:
    void byte(unsigned char b) {
        h_ ^= b;
        h_ *= 1099511628211ull;
    }
    std::uint64_t h_ = 14695981039346656037ull;
};

}  // namespace kooza::testutil
