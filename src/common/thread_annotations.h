// Clang Thread Safety Analysis macros + annotated std wrappers (PR 10).
//
// Two complementary enforcement layers share this header:
//
//  1. Static: the annotation macros below expand to Clang's thread-safety
//     attributes (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html)
//     under clang and to nothing elsewhere, so the CI static-analysis job
//     (clang++ -Wthread-safety -Werror) proves at compile time that every
//     GUARDED_BY field is only touched with its capability held and every
//     REQUIRES function is only called under the right lock. GCC builds are
//     unaffected.
//
//  2. Dynamic: fdp::Mutex carries a documented lock rank
//     (src/common/lock_rank.h) and, in debug builds, feeds a thread-local
//     held-lock stack that aborts on rank inversions, double-acquires, and
//     AssertHeld violations at run time — covering exactly the sites the
//     static analysis cannot see (dynamic arrays of locks, lambdas). In
//     NDEBUG builds fdp::Mutex is a bare std::mutex: zero overhead, and
//     Release fdpbench CSVs stay byte-identical.
//
// Conventions (enforced by the CI job; see README "Lock discipline"):
//  - Every mutex in the library is an fdp::Mutex constructed with its rank
//    and a debug name; std::mutex is reserved for tests.
//  - Scoped acquisition uses fdp::MutexLock (never std::lock_guard /
//    std::unique_lock, which the analysis cannot see).
//  - Condition waits use fdp::CondVar with explicit while-loops around
//    Wait()/WaitFor() instead of predicate lambdas — the loop body then
//    sits in the annotated function where the capability is visibly held.
//  - Fields touched from lambdas the analysis cannot attribute (staged
//    completion callbacks) go through a NO_THREAD_SAFETY_ANALYSIS helper
//    that documents the external guarantee and calls Mutex::AssertHeld().
#ifndef SRC_COMMON_THREAD_ANNOTATIONS_H_
#define SRC_COMMON_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "src/common/lock_rank.h"

#if defined(__clang__)
#define FDP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define FDP_THREAD_ANNOTATION(x)  // GCC and others: annotations compile away.
#endif

// A type that acts as a lock (mutex, seqlock writer side, ...).
#define CAPABILITY(x) FDP_THREAD_ANNOTATION(capability(x))
// An RAII type that acquires in its constructor and releases in its
// destructor (fdp::MutexLock).
#define SCOPED_CAPABILITY FDP_THREAD_ANNOTATION(scoped_lockable)
// Data member readable/writable only with the capability held.
#define GUARDED_BY(x) FDP_THREAD_ANNOTATION(guarded_by(x))
// Function callable only with the capability already held.
#define REQUIRES(...) FDP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
// Function that acquires / releases the capability itself.
#define ACQUIRE(...) FDP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define RELEASE(...) FDP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
// Runtime-checked capability assertion (fdp::Mutex::AssertHeld).
#define ASSERT_CAPABILITY(x) FDP_THREAD_ANNOTATION(assert_capability(x))
// Escape hatch for functions the analysis cannot model (dynamic lock
// arrays, adopted locks). Every use must say why in a comment.
#define NO_THREAD_SAFETY_ANALYSIS FDP_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace fdp {

// Annotated drop-in std::mutex. In debug builds every acquire/release runs
// through the lock-rank validator; NDEBUG strips the rank, the name, and
// all checking — sizeof(Mutex) == sizeof(std::mutex) and Lock() inlines to
// std::mutex::lock().
class CAPABILITY("mutex") Mutex {
 public:
  // `rank` positions this mutex in the stack-wide order
  // (lock_rank::Make(major, minor)); `name` labels it in abort messages.
  // Both are ignored (and cost nothing) in NDEBUG builds.
  explicit Mutex(uint32_t rank = 0, const char* name = "mutex") {
#ifndef NDEBUG
    rank_ = rank;
    name_ = name;
#else
    (void)rank;
    (void)name;
#endif
  }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock(const char* site = __builtin_FUNCTION()) ACQUIRE() {
#ifndef NDEBUG
    // Check BEFORE blocking: a self-deadlock or inversion is diagnosed with
    // a named abort instead of a silent hang waiting for the lock.
    fdpcache::lock_rank::NoteAcquire(this, rank_, name_, site);
#else
    (void)site;
#endif
    mu_.lock();
  }

  void Unlock() RELEASE() {
#ifndef NDEBUG
    fdpcache::lock_rank::NoteRelease(this);
#endif
    mu_.unlock();
  }

  // Debug-checked runtime twin of REQUIRES(this): aborts unless the calling
  // thread holds this mutex. Use in helpers reached through lambdas or
  // type-erased callbacks where the static analysis loses the caller.
  void AssertHeld(const char* site = __builtin_FUNCTION()) const ASSERT_CAPABILITY(this) {
#ifndef NDEBUG
    fdpcache::lock_rank::CheckHeld(this, name_, site);
#else
    (void)site;
#endif
  }

  // Underlying handle for fdp::CondVar. Never lock()/unlock() it directly —
  // that would bypass both enforcement layers.
  std::mutex& native() { return mu_; }

#ifndef NDEBUG
  uint32_t rank() const { return rank_; }
  const char* name() const { return name_; }
#endif

 private:
  std::mutex mu_;
#ifndef NDEBUG
  uint32_t rank_ = 0;
  const char* name_ = "mutex";
#endif
};

// Tag for MutexLock's adopting constructor.
struct AdoptLockT {};
inline constexpr AdoptLockT kAdoptLock{};

// RAII scoped acquisition of an fdp::Mutex, visible to the static analysis
// (std::lock_guard/std::unique_lock are not). Supports the mid-scope
// Unlock()/Lock() the pipeline code needs; the destructor releases only if
// still held.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu, const char* site = __builtin_FUNCTION()) ACQUIRE(mu) : mu_(mu) {
    mu_->Lock(site);
    held_ = true;
  }

  // Adopts a mutex the caller already locked through an ACQUIRE-annotated
  // helper (e.g. ShardedCache::LockShard, which counts the acquisition and
  // traces the wait); the destructor still releases it. The REQUIRES
  // annotation is clang's adopt idiom for scoped capabilities.
  MutexLock(Mutex* mu, AdoptLockT) REQUIRES(mu) : mu_(mu), held_(true) {}
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() RELEASE() {
    if (held_) {
      mu_->Unlock();
    }
  }

  void Unlock() RELEASE() {
    mu_->Unlock();
    held_ = false;
  }

  void Lock(const char* site = __builtin_FUNCTION()) ACQUIRE() {
    mu_->Lock(site);
    held_ = true;
  }

 private:
  Mutex* mu_;
  bool held_ = false;
};

// Condition variable bound to fdp::Mutex. Waits keep the mutex on the
// debug held-lock stack (the thread is blocked; it acquires nothing), so a
// wait inside a correctly-ranked critical section needs no special casing.
//
// No predicate overloads on purpose: write the while-loop at the call site,
// where the guarded fields are visible to the static analysis.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases *mu and blocks; re-acquires before returning.
  void Wait(Mutex* mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu->native(), std::adopt_lock);
    cv_.wait(native);
    native.release();  // Ownership stays with the caller's MutexLock.
  }

  // Returns false on timeout (mutex re-acquired either way).
  template <class Rep, class Period>
  bool WaitFor(Mutex* mu, const std::chrono::duration<Rep, Period>& timeout) REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu->native(), std::adopt_lock);
    const bool signalled = cv_.wait_for(native, timeout) == std::cv_status::no_timeout;
    native.release();
    return signalled;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace fdp

#endif  // SRC_COMMON_THREAD_ANNOTATIONS_H_
