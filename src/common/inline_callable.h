#ifndef REDY_COMMON_INLINE_CALLABLE_H_
#define REDY_COMMON_INLINE_CALLABLE_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace redy::common {

/// Move-only callable with a small-buffer-optimized inline storage of
/// `Capacity` bytes. The simulator schedules millions of event lambdas
/// per simulated second (`sim::InlineFunction` is this type over
/// `void()`) and the data path fires one completion callback per cache
/// op; std::function heap-allocates anything past its tiny SBO and
/// requires copyability. InlineCallable stores the callable in place,
/// moves instead of copying, and falls back to a single heap allocation
/// only for oversized captures (which hot call sites rule out with a
/// `static_assert(fits_inline)`).
///
/// Trivially-copyable inline callables get null relocate/destroy
/// entries in the ops table, so moving a pooled record is a memcpy,
/// destroying it is free, and a fired event costs exactly one indirect
/// call (the invoke).
template <typename Signature, size_t Capacity = 64>
class InlineCallable;

template <typename R, typename... Args, size_t Capacity>
class InlineCallable<R(Args...), Capacity> {
 public:
  static constexpr size_t kInlineCapacity = Capacity;

  /// True iff F is stored in place (no allocation on construction).
  template <typename F>
  static constexpr bool fits_inline() {
    return sizeof(F) <= kInlineCapacity &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  InlineCallable() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallable> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineCallable(F&& f) {  // NOLINT(google-explicit-constructor)
    Construct(std::forward<F>(f));
  }

  /// Destroys the current callable (if any) and constructs `f` directly
  /// in place — no intermediate InlineCallable, no relocate.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallable> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  void Emplace(F&& f) {
    Reset();
    Construct(std::forward<F>(f));
  }

  InlineCallable(InlineCallable&& other) noexcept { MoveFrom(other); }

  InlineCallable& operator=(InlineCallable&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineCallable(const InlineCallable&) = delete;
  InlineCallable& operator=(const InlineCallable&) = delete;

  ~InlineCallable() { Reset(); }

  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return ops_ != nullptr; }

  void Reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    /// Move-constructs into dst's raw storage and destroys src's value.
    /// nullptr means "memcpy the storage": the callable is trivially
    /// copyable, so relocation needs no indirect call.
    void (*relocate)(void* src, void* dst) noexcept;
    /// nullptr means trivially destructible: Reset() skips the indirect
    /// call entirely.
    void (*destroy)(void* storage);
  };

  template <typename F>
  static constexpr bool trivial_inline() {
    return fits_inline<F>() && std::is_trivially_copyable_v<F> &&
           std::is_trivially_destructible_v<F>;
  }

  template <typename Fn>
  static constexpr Ops kTrivialOps = {
      [](void* s, Args&&... a) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(s)))(
            std::forward<Args>(a)...);
      },
      nullptr,
      nullptr,
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* s, Args&&... a) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(s)))(
            std::forward<Args>(a)...);
      },
      [](void* src, void* dst) noexcept {
        Fn* f = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*f));
        f->~Fn();
      },
      [](void* s) { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* s, Args&&... a) -> R {
        return (**reinterpret_cast<Fn**>(s))(std::forward<Args>(a)...);
      },
      [](void* src, void* dst) noexcept {
        *reinterpret_cast<Fn**>(dst) = *reinterpret_cast<Fn**>(src);
      },
      [](void* s) { delete *reinterpret_cast<Fn**>(s); },
  };

  template <typename F>
  void Construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (trivial_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kTrivialOps<Fn>;
    } else if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &kHeapOps<Fn>;
    }
  }

  void MoveFrom(InlineCallable& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(other.storage_, storage_);
      } else {
        std::memcpy(storage_, other.storage_, kInlineCapacity);
      }
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace redy::common

#endif  // REDY_COMMON_INLINE_CALLABLE_H_
