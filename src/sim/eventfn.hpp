// sim::EventFn — the engine's callback type: a fixed-capacity small-buffer
// callable with ~48 bytes of inline storage, move-only and non-allocating
// for the captures the simulator actually schedules. Oversized captures
// fall back to a slab/free-list arena block (EventArena) — or a plain
// heap block when no arena is supplied — so steady-state scheduling still
// performs zero system-heap allocations per event. Defining
// KOOZA_EVENTFN_INLINE_ONLY compiles the fallback out entirely: any
// capture larger than the inline buffer becomes a build error, which is
// how a hot-path audit finds fat lambdas.
//
// Contract: a callable is stored inline iff
//   sizeof(F)  <= kEventFnInlineBytes,
//   alignof(F) <= alignof(std::max_align_t), and
//   F is nothrow-move-constructible
// (EventFn itself is relocated when a queued continuation moves, so a
// throwing move could lose an event mid-flight).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace kooza::sim {

/// Inline capture capacity of EventFn, in bytes.
inline constexpr std::size_t kEventFnInlineBytes = 48;

/// Slab/free-list allocator for engine-owned allocations: queued event
/// callbacks and oversized EventFn captures. Blocks come from geometric
/// size classes (64 B .. 8 KiB) carved out of 64 KiB slabs; freed blocks
/// return to a per-class intrusive free list, so a steady-state
/// schedule/dispatch cycle touches the system heap zero times. Requests
/// beyond the largest class pass through to ::operator new.
///
/// Not thread-safe: each Engine owns one arena, and an engine is
/// single-threaded by contract (kooza_par runs one engine per shard).
class EventArena {
public:
    static constexpr std::size_t kMinBlockBytes = 64;
    static constexpr std::size_t kClasses = 8;  ///< 64, 128, ... 8192 bytes
    static constexpr std::size_t kSlabBytes = 64 * 1024;

    EventArena() = default;
    EventArena(const EventArena&) = delete;
    EventArena& operator=(const EventArena&) = delete;
    ~EventArena() {
        for (auto* s : slabs_) ::operator delete(s);
    }

    /// Size class covering `bytes` (>= kClasses when only ::operator new
    /// can serve the request).
    [[nodiscard]] static std::size_t class_of(std::size_t bytes) noexcept {
        std::size_t c = 0;
        for (std::size_t sz = kMinBlockBytes; sz < bytes; sz <<= 1) ++c;
        return c;
    }

    [[nodiscard]] void* allocate(std::size_t bytes) {
        const std::size_t c = class_of(bytes);
        if (c >= kClasses) return ::operator new(bytes);
        if (void* p = free_[c]) {
            free_[c] = *static_cast<void**>(p);
            return p;
        }
        const std::size_t sz = kMinBlockBytes << c;
        if (bump_remaining_ < sz) {
            slabs_.push_back(
                static_cast<unsigned char*>(::operator new(kSlabBytes)));
            bump_ = slabs_.back();
            bump_remaining_ = kSlabBytes;
        }
        void* p = bump_;
        bump_ += sz;
        bump_remaining_ -= sz;
        return p;
    }

    /// `bytes` must be the size passed to the matching allocate().
    void deallocate(void* p, std::size_t bytes) noexcept {
        const std::size_t c = class_of(bytes);
        if (c >= kClasses) {
            ::operator delete(p);
            return;
        }
        *static_cast<void**>(p) = free_[c];
        free_[c] = p;
    }

    /// Slabs held (observability; monotone within an engine's lifetime).
    [[nodiscard]] std::size_t slab_count() const noexcept { return slabs_.size(); }

private:
    void* free_[kClasses] = {};
    unsigned char* bump_ = nullptr;
    std::size_t bump_remaining_ = 0;
    std::vector<unsigned char*> slabs_;
};

class EventFn {
    /// Per-callable-type operation table; `overflow` selects the pointer
    /// representation (payload lives in an arena/heap block, not buf_).
    /// `relocate`/`destroy` are null when the operation is trivial (a raw
    /// buffer copy / a no-op), so the per-event dispatch path skips the
    /// indirect call for the plain-data captures the simulator mostly
    /// schedules.
    struct Ops {
        void (*invoke)(EventFn&);
        void (*relocate)(EventFn& from, EventFn& to) noexcept;
        void (*destroy)(EventFn&) noexcept;
    };

    template <typename Fn>
    static constexpr bool fits_inline =
        sizeof(Fn) <= kEventFnInlineBytes &&
        alignof(Fn) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<Fn>;

    /// Arena block layout for oversized captures: the owning arena (null
    /// for plain-heap blocks) followed by the callable itself.
    template <typename Fn>
    struct OverflowBlock {
        EventArena* arena;
        Fn fn;
    };

public:
    EventFn() noexcept = default;

    /// Wrap `f`, spilling oversized captures into `arena` (or the system
    /// heap when `arena` is null). Engine::schedule_* always passes its
    /// own arena.
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
                  std::is_invocable_v<std::remove_cvref_t<F>&>>>
    EventFn(EventArena* arena, F&& f) {
        using Fn = std::remove_cvref_t<F>;
        if constexpr (fits_inline<Fn>) {
            (void)arena;
            ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
            ops_ = &inline_ops<Fn>;
        } else {
#ifdef KOOZA_EVENTFN_INLINE_ONLY
            static_assert(fits_inline<Fn>,
                          "EventFn capture exceeds kEventFnInlineBytes and "
                          "KOOZA_EVENTFN_INLINE_ONLY is set — shrink the "
                          "lambda's capture list");
#else
            void* raw = arena ? arena->allocate(sizeof(OverflowBlock<Fn>))
                              : ::operator new(sizeof(OverflowBlock<Fn>));
            auto* blk = static_cast<OverflowBlock<Fn>*>(raw);
            blk->arena = arena;
            ::new (static_cast<void*>(&blk->fn)) Fn(std::forward<F>(f));
            ptr() = raw;
            ops_ = &overflow_ops<Fn>;
#endif
        }
    }

    /// Convenience: wrap with the system-heap fallback for oversized
    /// captures (tests, standalone use).
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
                  std::is_invocable_v<std::remove_cvref_t<F>&>>>
    EventFn(F&& f) : EventFn(nullptr, std::forward<F>(f)) {}  // NOLINT(google-explicit-constructor)

    EventFn(EventFn&& other) noexcept { move_from(other); }
    EventFn& operator=(EventFn&& other) noexcept {
        if (this != &other) {
            reset();
            move_from(other);
        }
        return *this;
    }
    EventFn(const EventFn&) = delete;
    EventFn& operator=(const EventFn&) = delete;
    ~EventFn() { reset(); }

    /// True when a callable is held.
    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /// Invoke the callable (undefined when empty, like std::move'd-from
    /// std::function — the engine never stores empty EventFns).
    void operator()() { ops_->invoke(*this); }

    /// Destroy the held callable (releasing any overflow block) and
    /// become empty.
    void reset() noexcept {
        if (ops_) {
            if (ops_->destroy) ops_->destroy(*this);
            ops_ = nullptr;
        }
    }

private:
    void move_from(EventFn& other) noexcept {
        ops_ = other.ops_;
        if (ops_) {
            if (ops_->relocate)
                ops_->relocate(other, *this);
            else
                std::memcpy(buf_, other.buf_, kEventFnInlineBytes);
            other.ops_ = nullptr;
        }
    }

    void*& ptr() noexcept { return *reinterpret_cast<void**>(buf_); }

    template <typename Fn>
    static Fn& inline_obj(EventFn& e) noexcept {
        return *std::launder(reinterpret_cast<Fn*>(e.buf_));
    }
    template <typename Fn>
    static OverflowBlock<Fn>& overflow_obj(EventFn& e) noexcept {
        return *static_cast<OverflowBlock<Fn>*>(e.ptr());
    }

    template <typename Fn>
    static void inline_invoke(EventFn& e) {
        inline_obj<Fn>(e)();
    }
    template <typename Fn>
    static void inline_relocate(EventFn& from, EventFn& to) noexcept {
        ::new (static_cast<void*>(to.buf_)) Fn(std::move(inline_obj<Fn>(from)));
        inline_obj<Fn>(from).~Fn();
    }
    template <typename Fn>
    static void inline_destroy(EventFn& e) noexcept {
        inline_obj<Fn>(e).~Fn();
    }
    template <typename Fn>
    static constexpr Ops inline_ops{
        &inline_invoke<Fn>,
        std::is_trivially_copyable_v<Fn> ? nullptr : &inline_relocate<Fn>,
        std::is_trivially_destructible_v<Fn> ? nullptr : &inline_destroy<Fn>};

    template <typename Fn>
    static void overflow_invoke(EventFn& e) {
        overflow_obj<Fn>(e).fn();
    }
    static void overflow_relocate(EventFn& from, EventFn& to) noexcept {
        to.ptr() = from.ptr();
    }
    template <typename Fn>
    static void overflow_destroy(EventFn& e) noexcept {
        auto& blk = overflow_obj<Fn>(e);
        EventArena* arena = blk.arena;
        blk.fn.~Fn();
        if (arena)
            arena->deallocate(&blk, sizeof(OverflowBlock<Fn>));
        else
            ::operator delete(&blk);
    }
    template <typename Fn>
    static constexpr Ops overflow_ops{&overflow_invoke<Fn>, &overflow_relocate,
                                      &overflow_destroy<Fn>};

    alignas(std::max_align_t) unsigned char buf_[kEventFnInlineBytes];
    const Ops* ops_ = nullptr;
};

}  // namespace kooza::sim
