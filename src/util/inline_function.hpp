// inline_function.hpp — a move-only `void()` callable with a small buffer.
//
// Every scheduled simulator event used to carry a
// `std::shared_ptr<std::function<void()>>`: one allocation for the control
// block and (for non-trivial captures) one inside std::function. At millions
// of events per simulated hour that allocator traffic dominates the event
// loop. InlineFunction stores captures up to kInlineBytes directly in the
// object — enough for every timer/link callback in the tree — and falls back
// to a single heap allocation only beyond that.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace slp::util {

class InlineFunction {
 public:
  /// Sized for the common "this + a few words" capture; a lambda capturing a
  /// whole Packet spills to the heap, which is the rare case.
  static constexpr std::size_t kInlineBytes = 48;

  InlineFunction() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  // NOLINTNEXTLINE(google-explicit-constructor): implicit, like std::function.
  InlineFunction(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      if constexpr (sizeof(Fn) < kInlineBytes) {
        // The fixed-size memcpy in adopt() reads the whole buffer; zero the
        // tail once here so every byte it copies is initialized.
        std::memset(buf_ + sizeof(Fn), 0, kInlineBytes - sizeof(Fn));
      }
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &InlineImpl<Fn>::ops;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &HeapImpl<Fn>::ops;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { adopt(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      adopt(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  /// Invokes the stored callable. Requires a non-empty function.
  void operator()() { ops_->invoke(buf_); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Destroys the stored callable (no-op when empty).
  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// True when the callable (if any) lives in the inline buffer.
  [[nodiscard]] bool is_inline() const { return ops_ == nullptr || ops_->inline_storage; }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs the representation at `dst` from `src`, then destroys
    /// `src`'s. Must not throw (gated by fits_inline for the inline case).
    /// Null for trivially-relocatable callables: moving is a buffer memcpy —
    /// the common case (`this` + a few scalars), kept free of indirect calls
    /// because the event queue relocates every callback at least once.
    void (*relocate)(void* src, void* dst);
    /// Null when destruction is a no-op (trivially destructible callables).
    void (*destroy)(void*);
    bool inline_storage;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  struct InlineImpl {
    static constexpr bool kTrivial =
        std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>;
    static void invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void relocate(void* src, void* dst) {
      ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
      static_cast<Fn*>(src)->~Fn();
    }
    static void destroy(void* p) { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops ops{&invoke, kTrivial ? nullptr : &relocate,
                             kTrivial ? nullptr : &destroy, true};
  };

  template <typename Fn>
  struct HeapImpl {
    static void invoke(void* p) { (**static_cast<Fn**>(p))(); }
    static void relocate(void* src, void* dst) {
      ::new (dst) Fn*(*static_cast<Fn**>(src));
    }
    static void destroy(void* p) { delete *static_cast<Fn**>(p); }
    static constexpr Ops ops{&invoke, &relocate, &destroy, false};
  };

  void adopt(InlineFunction& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(other.buf_, buf_);
      } else {
        // Fixed-size copy: cheaper than a branch on the callable's true size.
        std::memcpy(buf_, other.buf_, kInlineBytes);
      }
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace slp::util
