// sim::EventFn — the engine's callback type: a move-only callable held in
// 48 bytes of inline storage, never on the heap. The one rule for a
// continuation: it captures its owner and a sim::Slots index, and the
// state it works on lives in the owner's record. Such a capture always
// fits; a bigger one is a build error that names the rule.
//
// Contract (kFitsEventFn): a callable F fits iff
//   sizeof(F)  <= kEventFnInlineBytes,
//   alignof(F) <= alignof(std::max_align_t), and
//   F is nothrow-move-constructible
// (EventFn itself is relocated when a queued continuation moves, so a
// throwing move could lose an event mid-flight).
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace kooza::sim {

/// Inline capture capacity of EventFn, in bytes.
inline constexpr std::size_t kEventFnInlineBytes = 48;

/// True when a callable of type F fits an EventFn (see the contract above).
template <typename F>
inline constexpr bool kFitsEventFn = sizeof(F) <= kEventFnInlineBytes &&
                                     alignof(F) <= alignof(std::max_align_t) &&
                                     std::is_nothrow_move_constructible_v<F>;

class EventFn {
    /// Per-callable-type operation table. `relocate`/`destroy` are null
    /// when the operation is trivial (a raw buffer copy / a no-op), so the
    /// per-event dispatch path skips the indirect call for the plain-data
    /// captures the simulator mostly schedules.
    struct Ops {
        void (*invoke)(EventFn&);
        void (*relocate)(EventFn& from, EventFn& to) noexcept;
        void (*destroy)(EventFn&) noexcept;
    };

public:
    EventFn() noexcept = default;

    /// Wrap `f` in the inline buffer.
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
                  std::is_invocable_v<std::remove_cvref_t<F>&>>>
    EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
        using Fn = std::remove_cvref_t<F>;
        static_assert(kFitsEventFn<Fn>,
                      "sim::EventFn holds at most kEventFnInlineBytes (48) of "
                      "nothrow-movable capture: keep the continuation's state in "
                      "a sim::Slots record and capture (owner, slot)");
        ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
        ops_ = &ops<Fn>;
    }

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

    /// Destroy the held callable and become empty.
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

    template <typename Fn>
    static Fn& obj(EventFn& e) noexcept {
        return *std::launder(reinterpret_cast<Fn*>(e.buf_));
    }
    template <typename Fn>
    static void invoke(EventFn& e) {
        obj<Fn>(e)();
    }
    template <typename Fn>
    static void relocate(EventFn& from, EventFn& to) noexcept {
        ::new (static_cast<void*>(to.buf_)) Fn(std::move(obj<Fn>(from)));
        obj<Fn>(from).~Fn();
    }
    template <typename Fn>
    static void destroy(EventFn& e) noexcept {
        obj<Fn>(e).~Fn();
    }
    template <typename Fn>
    static constexpr Ops ops{
        &invoke<Fn>,
        std::is_trivially_copyable_v<Fn> ? nullptr : &relocate<Fn>,
        std::is_trivially_destructible_v<Fn> ? nullptr : &destroy<Fn>};

    alignas(std::max_align_t) unsigned char buf_[kEventFnInlineBytes];
    const Ops* ops_ = nullptr;
};

/// Slab/free-list allocator for the engine's queued callbacks: blocks of
/// sizeof(EventFn) carved out of 64 KiB slabs; a freed block returns to an
/// intrusive free list, so a steady-state schedule/dispatch cycle touches
/// the system heap zero times. Blocks stay put while the engine's heap
/// entries move.
///
/// Not thread-safe: each Engine owns one arena, and an engine is
/// single-threaded by contract (kooza_par runs one engine per shard).
class EventArena {
public:
    static constexpr std::size_t kBlockBytes = sizeof(EventFn);
    static constexpr std::size_t kSlabBytes = 64 * 1024;

    EventArena() = default;
    EventArena(const EventArena&) = delete;
    EventArena& operator=(const EventArena&) = delete;
    ~EventArena() {
        for (auto* s : slabs_) ::operator delete(s);
    }

    /// A block of kBlockBytes.
    [[nodiscard]] void* allocate() {
        if (void* p = free_) {
            free_ = *static_cast<void**>(p);
            return p;
        }
        if (bump_remaining_ < kBlockBytes) {
            slabs_.push_back(static_cast<unsigned char*>(::operator new(kSlabBytes)));
            bump_ = slabs_.back();
            bump_remaining_ = kSlabBytes;
        }
        void* p = bump_;
        bump_ += kBlockBytes;
        bump_remaining_ -= kBlockBytes;
        return p;
    }

    /// Return a block from allocate().
    void deallocate(void* p) noexcept {
        *static_cast<void**>(p) = free_;
        free_ = p;
    }

    /// Slabs held (observability; monotone within an engine's lifetime).
    [[nodiscard]] std::size_t slab_count() const noexcept { return slabs_.size(); }

private:
    void* free_ = nullptr;
    unsigned char* bump_ = nullptr;
    std::size_t bump_remaining_ = 0;
    std::vector<unsigned char*> slabs_;
};

}  // namespace kooza::sim
