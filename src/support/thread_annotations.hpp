#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

/// Clang Thread Safety Analysis attribute macros plus annotated lock shims.
///
/// Every mutex-holding component in the serving stack (ScheduleCache,
/// SubgraphCache, PartitionCanonMemo, ScheduleService, ShardRouter,
/// TaskGraph's CSR rebuild) declares which members each lock protects
/// (GUARDED_BY) and which capabilities each method needs (REQUIRES) or takes
/// (ACQUIRE/RELEASE/EXCLUDES), so lock discipline is a *compile-time*
/// property: `-DSTS_THREAD_SAFETY_ANALYSIS=ON` builds with
/// `-Wthread-safety -Werror=thread-safety` under Clang and refuses any code
/// path that touches shared state without its lock. Under GCC (which has no
/// thread-safety analysis) the attributes expand to nothing and the shims
/// compile down to the std types they wrap.
///
/// Conventions (see README "Correctness tooling"):
///  - a private helper that assumes the lock is already held is named
///    `*_locked()` and annotated `REQUIRES(mutex_)`;
///  - public entry points that take a lock are annotated `EXCLUDES(mutex_)`
///    so re-entrant (self-deadlocking) calls fail to compile;
///  - condition-variable waits are written as explicit `while (!cond) wait;`
///    loops in the caller's scope — never as predicate lambdas, whose bodies
///    the analysis treats as separate lock-free functions.
#if defined(__clang__) && !defined(SWIG)
#define STS_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define STS_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op outside Clang
#endif

#define CAPABILITY(x) STS_THREAD_ANNOTATION_ATTRIBUTE(capability(x))
#define SCOPED_CAPABILITY STS_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)
#define GUARDED_BY(x) STS_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))
#define PT_GUARDED_BY(x) STS_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) STS_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) STS_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))
#define REQUIRES(...) STS_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  STS_THREAD_ANNOTATION_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) STS_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  STS_THREAD_ANNOTATION_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) STS_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  STS_THREAD_ANNOTATION_ATTRIBUTE(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  STS_THREAD_ANNOTATION_ATTRIBUTE(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) STS_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  STS_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) STS_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) STS_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  STS_THREAD_ANNOTATION_ATTRIBUTE(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) STS_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS STS_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

namespace sts {

class CondVar;

/// std::mutex with the `capability` attribute, so it can appear in
/// GUARDED_BY/REQUIRES expressions (libstdc++'s std::mutex carries no
/// annotations and is rejected there). Identical layout and cost.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mutex_.lock(); }
  void unlock() RELEASE() { mutex_.unlock(); }
  [[nodiscard]] bool try_lock() TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mutex_;
};

/// std::shared_mutex with the `capability` attribute (reader/writer lock).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() { mutex_.lock(); }
  void unlock() RELEASE() { mutex_.unlock(); }
  void lock_shared() ACQUIRE_SHARED() { mutex_.lock_shared(); }
  void unlock_shared() RELEASE_SHARED() { mutex_.unlock_shared(); }

 private:
  std::shared_mutex mutex_;
};

/// RAII exclusive lock over Mutex (std::lock_guard replacement) that the
/// analysis tracks as a scoped capability. Supports early release and
/// re-acquisition for the few paths (admission rejection, single-flight
/// compute) that must drop the lock mid-scope — the analysis still verifies
/// every guarded access against the current lock state.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ACQUIRE(mutex) : mutex_(mutex), held_(true) {
    mutex_.lock();
  }
  ~MutexLock() RELEASE() {
    if (held_) mutex_.unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Early release (the destructor then does nothing).
  void unlock() RELEASE() {
    held_ = false;
    mutex_.unlock();
  }
  /// Re-acquisition after an early unlock().
  void lock() ACQUIRE() {
    mutex_.lock();
    held_ = true;
  }

 private:
  Mutex& mutex_;
  bool held_;
};

/// RAII shared (reader) lock over SharedMutex.
class SCOPED_CAPABILITY SharedLock {
 public:
  explicit SharedLock(SharedMutex& mutex) ACQUIRE_SHARED(mutex) : mutex_(mutex) {
    mutex_.lock_shared();
  }
  ~SharedLock() RELEASE_GENERIC() { mutex_.unlock_shared(); }
  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// RAII exclusive (writer) lock over SharedMutex.
class SCOPED_CAPABILITY ExclusiveLock {
 public:
  explicit ExclusiveLock(SharedMutex& mutex) ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~ExclusiveLock() RELEASE_GENERIC() { mutex_.unlock(); }
  ExclusiveLock(const ExclusiveLock&) = delete;
  ExclusiveLock& operator=(const ExclusiveLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// Condition variable waiting on an annotated Mutex. wait() REQUIRES the
/// mutex, so a wait outside the lock is a compile error; there is
/// deliberately no predicate overload — the analysis cannot see into a
/// predicate lambda, so waits are written as explicit while loops where the
/// guarded condition is checked in the (annotated) caller's scope.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mutex`, waits, and re-acquires it before
  /// returning. Spurious wakeups happen; always wait in a while loop.
  void wait(Mutex& mutex) REQUIRES(mutex) {
    // Borrow the already-held native handle for the wait; release it back to
    // the caller's scoped lock on return. std::condition_variable keeps the
    // fast futex path (condition_variable_any would need an extra shim).
    std::unique_lock<std::mutex> native(mutex.mutex_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace sts
