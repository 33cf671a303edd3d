// Coroutine task type for the discrete-event simulator.
//
// A `Task<T>` is a lazily-started coroutine. It begins execution when
// co_awaited by another coroutine (symmetric transfer), or when handed to
// `Simulator::Spawn`, which runs it as a root "simulated thread".
//
// Tasks are move-only and own their coroutine frame; destroying an unfinished
// task destroys the frame (cancellation of a never-started or suspended
// task). A root task has no owner and no continuation: it frees its own
// frame when it finishes, and an exception it lets escape terminates the
// program.
//
// FRAME RECYCLING: every Task frame is allocated through PromiseBase's
// operator new, which takes it from the current Simulator's free lists, and
// goes back on the current simulator's lists when it is destroyed
// (src/sim/simulator.h), so a warm simulation allocates no frames. With no
// current simulator a frame comes from and returns to the heap. A `Latch`
// waiter is an awaiter inside the waiting frame (src/sim/sync.h), so parking
// on a latch allocates nothing either.
//
// LAMBDA CAPTURE RULE: a lambda coroutine's captures live in the closure
// object, which is NOT copied into the coroutine frame. Never invoke a
// temporary capturing lambda as a coroutine (e.g. `Spawn([&]{...}())`);
// instead name the lambda so the closure outlives the coroutine, or pass
// state through parameters (parameters are moved into the frame).
//
// AWAITER TRIVIALITY RULE: GCC 12 runs the destructor of a co_await operand
// temporary twice. Task tolerates this (Destroy() nulls the handle, making
// the destructor idempotent), but custom awaitables used as temporaries
// must hold only trivially-destructible members (raw pointers, integers) —
// never a shared_ptr or container by value.
#ifndef SRC_SIM_TASK_H_
#define SRC_SIM_TASK_H_

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

namespace splitio {

template <typename T = void>
class Task;

namespace internal {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  // Awaited task: transfers to the awaiting coroutine. Root task (no
  // continuation): does not suspend, so the coroutine flows off its end and
  // its frame is destroyed. Holds a raw pointer only (see the awaiter rule
  // above).
  struct FinalAwaiter {
    PromiseBase* promise;
    bool await_ready() noexcept { return !promise->continuation; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<>) noexcept {
      return promise->continuation;
    }
    // Reached by root tasks only. Nobody can catch a root task's exception:
    // rethrowing it in a noexcept function terminates with its message.
    void await_resume() noexcept {
      if (promise->exception) {
        std::rethrow_exception(promise->exception);
      }
    }
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {this}; }
  void unhandled_exception() { exception = std::current_exception(); }

  // Frame storage: the current simulator's free lists (simulator.cc).
  static void* operator new(std::size_t size);
  static void operator delete(void* frame, std::size_t size) noexcept;
};

template <typename T>
struct Promise : PromiseBase {
  alignas(T) unsigned char storage[sizeof(T)];
  bool has_value = false;

  Task<T> get_return_object();
  void return_value(T value) {
    new (storage) T(std::move(value));
    has_value = true;
  }
  T& value() { return *reinterpret_cast<T*>(storage); }
  ~Promise() {
    if (has_value) {
      value().~T();
    }
  }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

}  // namespace internal

template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = internal::Promise<T>;

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  // Awaiter: starts the child coroutine and resumes the parent when it
  // finishes (symmetric transfer in both directions).
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> parent) noexcept {
        handle.promise().continuation = parent;
        return handle;
      }
      T await_resume() {
        auto& promise = handle.promise();
        if (promise.exception) {
          std::rethrow_exception(promise.exception);
        }
        if constexpr (!std::is_void_v<T>) {
          return std::move(promise.value());
        }
      }
    };
    return Awaiter{handle_};
  }

  // Releases ownership of the coroutine frame to the caller. A released
  // task that runs to completion frees its own frame.
  std::coroutine_handle<promise_type> Release() {
    return std::exchange(handle_, {});
  }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

namespace internal {

template <typename T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace internal

}  // namespace splitio

#endif  // SRC_SIM_TASK_H_
