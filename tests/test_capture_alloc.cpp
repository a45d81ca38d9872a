// Capture allocation audit: global operator new counting hooks around one
// run_capture bound the system-heap allocations a captured request costs.
// Device and GFS continuations are sim::EventFn drawing overflow blocks
// from the engine's arena, each request and request piece is one
// recycled record, and a span is a plain record in the tracer's flat
// open-span table with its name interned once. So the request path
// should not touch the heap at all, with every request traced or with
// spans sampled away; what remains is set-up, trace vectors growing, and
// the occasional queue block.
//
// Skipped under sanitizers: their interceptors own the allocator and the
// replacement operators below would fight them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/capture.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KOOZA_ALLOC_HOOKS_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define KOOZA_ALLOC_HOOKS_DISABLED 1
#endif
#endif

#ifndef KOOZA_ALLOC_HOOKS_DISABLED

namespace {
// A capture held in memory never leaves the calling thread, so plain
// counters are enough.
bool g_counting = false;
std::uint64_t g_new_calls = 0;

void* counted_alloc(std::size_t sz) {
    if (g_counting) ++g_new_calls;
    if (void* p = std::malloc(sz ? sz : 1)) return p;
    throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t sz) { return counted_alloc(sz); }
void* operator new[](std::size_t sz) { return counted_alloc(sz); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // !KOOZA_ALLOC_HOOKS_DISABLED

namespace {

using kooza::core::CaptureOptions;

constexpr std::size_t kRequests = 20'000;
// Only request 0 is sampled: the count leaves the span tracer out.
constexpr std::uint64_t kSampleEvery = 1'000'000'000;

void expect_at_most_one_alloc_per_request(CaptureOptions opts) {
#ifdef KOOZA_ALLOC_HOOKS_DISABLED
    (void)opts;
    GTEST_SKIP() << "allocator hooks disabled under sanitizers";
#else
    opts.count = kRequests;
    opts.seed = 7;
    g_new_calls = 0;
    g_counting = true;
    const auto res = kooza::core::run_capture(opts);
    g_counting = false;
    const std::uint64_t requests = res.completed + res.failed;
    ASSERT_EQ(requests, kRequests);
    const double per_request = double(g_new_calls) / double(requests);
    std::printf("%llu allocations over %llu requests: %.2f per request\n",
                static_cast<unsigned long long>(g_new_calls),
                static_cast<unsigned long long>(requests), per_request);
    EXPECT_LE(per_request, 1.0);
#endif
}

CaptureOptions oltp() {
    CaptureOptions o;
    o.profile = "oltp";
    return o;
}

/// 32 clients x 4 outstanding on one chunkserver: deep device queues.
CaptureOptions saturated_closed_loop() {
    CaptureOptions o;
    o.closed_loop = true;
    o.clients = 32;
    o.outstanding = 4;
    o.think_time = 0.001;
    o.read_fraction = 0.9;
    o.read_size = 64 << 10;
    o.write_size = 256 << 10;
    return o;
}

TEST(CaptureAlloc, OltpRequestPathStaysOffTheHeap) {
    auto o = oltp();
    o.span_sample_every = kSampleEvery;
    expect_at_most_one_alloc_per_request(o);
}

TEST(CaptureAlloc, SaturatedClosedLoopRequestPathStaysOffTheHeap) {
    auto o = saturated_closed_loop();
    o.span_sample_every = kSampleEvery;
    expect_at_most_one_alloc_per_request(o);
}

// The default sampling traces every request: spans cost no heap either.
TEST(CaptureAlloc, OltpTracedRequestPathStaysOffTheHeap) {
    expect_at_most_one_alloc_per_request(oltp());
}

TEST(CaptureAlloc, SaturatedClosedLoopTracedRequestPathStaysOffTheHeap) {
    expect_at_most_one_alloc_per_request(saturated_closed_loop());
}

}  // namespace
