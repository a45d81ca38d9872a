// Capture allocation audit: global operator new counting hooks around one
// run_capture bound the system-heap allocations a captured request costs,
// and around each model-stage call on a capture (train, generate, feature
// extraction, structured replay) bound what a modelled request costs.
// Device and GFS continuations are inline sim::EventFns that capture an
// index into a recycled record (one per request, request piece and device
// operation), and a span is a plain record in the tracer's flat open-span
// table with its name interned once. So the request path
// should not touch the heap at all, with every request traced or with
// spans sampled away; what remains is set-up, trace vectors growing, and
// record pools growing to their peak concurrency.
//
// A request names its file by the master's FileId from the generator's
// draw to the disk: no file name travels the request path, and the
// client's location cache is one vector per file indexed by chunk. A
// --model capture's request path is as free of the heap as oltp's once
// the model file is loaded.
//
// A streamed capture adds trace::StreamingSink's path: a stream's holds
// are (key, count) runs in one vector, waiting records sit in a typed
// heap per stream, released ones in a fixed-size batch, and the writer's
// column buffers are reserved to the spill size once. Those vectors grow
// to their peak and stay there, so the streamed request path stays off
// the heap too; what remains is the spill and output files.
//
// Skipped under sanitizers: their interceptors own the allocator and the
// replacement operators below would fight them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/capture.hpp"
#include "core/generator.hpp"
#include "core/replayer.hpp"
#include "core/serialize.hpp"
#include "core/trainer.hpp"
#include "par/pool.hpp"
#include "trace/features.hpp"

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

void expect_allocs_per_request_at_most(CaptureOptions opts, double bound) {
#ifdef KOOZA_ALLOC_HOOKS_DISABLED
    (void)opts;
    (void)bound;
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
    EXPECT_LE(per_request, bound);
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
    expect_allocs_per_request_at_most(o, 0.05);
}

TEST(CaptureAlloc, SaturatedClosedLoopRequestPathStaysOffTheHeap) {
    auto o = saturated_closed_loop();
    o.span_sample_every = kSampleEvery;
    expect_allocs_per_request_at_most(o, 0.5);
}

// The default sampling traces every request: spans cost no heap either.
TEST(CaptureAlloc, OltpTracedRequestPathStaysOffTheHeap) {
    expect_allocs_per_request_at_most(oltp(), 0.05);
}

TEST(CaptureAlloc, SaturatedClosedLoopTracedRequestPathStaysOffTheHeap) {
    expect_allocs_per_request_at_most(saturated_closed_loop(), 0.5);
}

// bench_pipeline's dc-stream shape at a fifth of its size: 100 servers,
// 8 KiB requests, one trace in 100 sampled, streamed to disk.
TEST(CaptureAlloc, StreamedRequestPathStaysOffTheHeap) {
    const auto dir = std::filesystem::temp_directory_path() /
                     ("kooza_alloc_stream_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    CaptureOptions o;
    o.profile = "micro";
    o.n_servers = 100;
    o.rate = 1000.0;
    o.read_size = 8192;
    o.write_size = 8192;
    o.span_sample_every = 100;
    o.collect_latencies = false;
    o.stream = true;
    o.out_dir = dir.string();
    o.format = kooza::trace::Format::kBinary;
    expect_allocs_per_request_at_most(o, 0.25);
    std::filesystem::remove_all(dir);
}

// A --model capture replays a trained model through the simulator. What
// loading the model file costs is set-up; what is left per request must
// be as small as an oltp capture's.
TEST(CaptureAlloc, ModelReplayRequestPathStaysOffTheHeap) {
#ifdef KOOZA_ALLOC_HOOKS_DISABLED
    GTEST_SKIP() << "allocator hooks disabled under sanitizers";
#else
    auto o = oltp();
    o.count = kRequests;
    o.seed = 7;
    const auto path = std::filesystem::temp_directory_path() /
                      ("kooza_alloc_model_" + std::to_string(::getpid()) + ".model");
    const auto cap = kooza::core::run_capture(o);
    kooza::core::save_model(kooza::core::Trainer().train(cap.traces), path);

    g_new_calls = 0;
    g_counting = true;
    (void)kooza::core::load_model(path);
    g_counting = false;
    const std::uint64_t load = g_new_calls;

    CaptureOptions replay;
    replay.model_file = path.string();
    replay.count = kRequests;
    replay.seed = 7;
    replay.span_sample_every = kSampleEvery;
    g_new_calls = 0;
    g_counting = true;
    const auto res = kooza::core::run_capture(replay);
    g_counting = false;
    const std::uint64_t capture = g_new_calls;
    std::filesystem::remove(path);
    ASSERT_EQ(res.completed + res.failed, kRequests);
    const double per_request = (double(capture) - double(load)) / double(kRequests);
    std::printf("model load %llu, capture %llu allocations: %.3f per request\n",
                static_cast<unsigned long long>(load),
                static_cast<unsigned long long>(capture), per_request);
    EXPECT_LE(per_request, 0.1);
#endif
}

#ifndef KOOZA_ALLOC_HOOKS_DISABLED
/// Heap allocations per captured request made while `stage` runs.
template <typename Stage>
double allocations_per_request(const char* name, Stage&& stage) {
    g_new_calls = 0;
    g_counting = true;
    stage();
    g_counting = false;
    const double per_request = double(g_new_calls) / double(kRequests);
    std::printf("%s: %llu allocations over %zu requests: %.4f per request\n", name,
                static_cast<unsigned long long>(g_new_calls), kRequests, per_request);
    return per_request;
}
#endif

// The per-request paths of the model stage hold no map, string or vector
// of their own: the chains sample into a buffer, a request's phase order
// is an interned handle, and the feature fold and the structure fold each
// keep one flat table. What remains is each call's output and set-up.
TEST(ModelStageAlloc, GenerateExtractAndReplayStayOffTheHeap) {
#ifdef KOOZA_ALLOC_HOOKS_DISABLED
    GTEST_SKIP() << "allocator hooks disabled under sanitizers";
#else
    // One lane: every stage runs on this thread, as the plain counters need.
    kooza::par::set_threads(1);
    auto o = oltp();
    o.count = kRequests;
    o.seed = 7;
    const auto cap = kooza::core::run_capture(o);
    ASSERT_EQ(cap.completed, kRequests);

    std::optional<kooza::core::ServerModel> model;
    EXPECT_LE(allocations_per_request("train",
                                      [&] {
                                          model.emplace(
                                              kooza::core::Trainer().train(cap.traces));
                                      }),
              1.0);
    kooza::core::SyntheticWorkload synth;
    kooza::sim::Rng rng(7);
    EXPECT_LE(allocations_per_request("generate",
                                      [&] {
                                          synth = kooza::core::Generator(*model).generate(
                                              kRequests, rng);
                                      }),
              0.01);
    std::vector<kooza::trace::RequestFeatures> features;
    EXPECT_LE(allocations_per_request(
                  "extract_features",
                  [&] { features = kooza::trace::extract_features(cap.traces); }),
              0.01);
    EXPECT_EQ(features.size(), kRequests);
    kooza::core::ReplayConfig rc;
    rc.cpu_verify_fraction = model->cpu_verify_fraction();
    kooza::core::ReplayResult replayed;
    EXPECT_LE(allocations_per_request(
                  "structured replay",
                  [&] { replayed = kooza::core::Replayer(rc).replay(synth); }),
              0.02);
    EXPECT_EQ(replayed.latencies.size(), kRequests);
#endif
}

}  // namespace
