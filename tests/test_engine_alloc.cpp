// Steady-state allocation audit: global operator new/delete counting
// hooks prove that a schedule/dispatch cycle at constant queue depth
// touches the system heap zero times — event nodes come from the engine's
// slab arena, EventFn captures live inline, and metrics are batched into
// engine-local tallies.
//
// Skipped under sanitizers: their interceptors own the allocator and the
// replacement operators below would fight them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/engine.hpp"
#include "sim/resource.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KOOZA_ALLOC_HOOKS_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define KOOZA_ALLOC_HOOKS_DISABLED 1
#endif
#endif

#ifndef KOOZA_ALLOC_HOOKS_DISABLED

namespace {
// Single-threaded test binary: plain counters are enough.
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

using kooza::sim::Engine;

std::uint64_t next_u64(std::uint64_t& s) {
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}
double next_unit(std::uint64_t& s) { return double(next_u64(s) >> 11) * 0x1.0p-53; }

// Self-rescheduling hold actor: the queue sits at constant depth forever,
// so run_until() windows measure pure steady-state scheduling.
template <typename MakeAction>
void expect_zero_steady_state_allocs(MakeAction make_action) {
#ifdef KOOZA_ALLOC_HOOKS_DISABLED
    GTEST_SKIP() << "allocator hooks disabled under sanitizers";
#else
    Engine eng;
    std::uint64_t s = 11;
    for (int i = 0; i < 512; ++i)
        eng.schedule_after(next_unit(s) * 1e-3, make_action(eng, s));

    // Warm up: first-touch work (slab carving, bucket resizes to the
    // steady-state size, metric registration) is allowed to allocate.
    eng.run_until(0.05);
    const std::uint64_t warm_events = eng.executed();
    ASSERT_GT(warm_events, 10000u);
    const std::size_t warm_slabs = eng.arena().slab_count();

    g_new_calls = 0;
    g_counting = true;
    eng.run_until(0.10);
    g_counting = false;

    ASSERT_GT(eng.executed(), warm_events + 10000u);
    EXPECT_EQ(g_new_calls, 0u)
        << "steady-state schedule/dispatch touched the system heap";
    EXPECT_EQ(eng.arena().slab_count(), warm_slabs)
        << "steady state grew the arena";
#endif
}

TEST(EngineAlloc, InlineCaptureHoldModelIsAllocationFree) {
    struct Actor {
        Engine* eng;
        std::uint64_t* s;
        void fire() const {
            Actor self = *this;
            eng->schedule_after(next_unit(*s) * 1e-3, [self] { self.fire(); });
        }
    };
    expect_zero_steady_state_allocs([](Engine& eng, std::uint64_t& s) {
        Actor actor{&eng, &s};
        return [actor] { actor.fire(); };
    });
}

// A Resource keeps its waiters in a pool that grows only when one
// queues: building one and holding it uncontended touch no heap.
TEST(ResourceAlloc, IdleResourceAllocatesNothing) {
#ifdef KOOZA_ALLOC_HOOKS_DISABLED
    GTEST_SKIP() << "allocator hooks disabled under sanitizers";
#else
    Engine eng;
    g_new_calls = 0;
    g_counting = true;
    {
        kooza::sim::Resource disk(eng, 1);
        bool granted = false;
        disk.acquire([&granted] { granted = true; });
        disk.release();
        EXPECT_TRUE(granted);
    }
    g_counting = false;
    EXPECT_EQ(g_new_calls, 0u);
#endif
}

}  // namespace
