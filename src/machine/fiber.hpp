// fiber.hpp — cooperatively scheduled stackful fibers for rank execution.
//
// Thread-per-rank execution caps executed validation at P ≈ 512: beyond
// that, OS thread creation and kernel scheduling dominate, and the regimes
// where the paper's bounds bite (P in the tens of thousands) stay out of
// reach.  A Fiber is a stackful execution context — its own mmap'd,
// guard-paged stack plus a saved register frame — that costs a context
// *switch* instead of a context *thread*: a FiberScheduler multiplexes all
// P rank bodies onto a handful of worker threads drawn from the process
// WorkerPool, so a run at P = 65,536 needs pool-width OS threads.
//
// Yield points: the only places a rank body can block are the mailbox waits
// (recv / recv_timed), the machine barrier, and everything built on them
// (collective rounds, checkpoint commits, rollback sync).  Each of those
// sites calls fiber_aware_wait / Fiber::park_on: on a fiber it parks the
// fiber and switches back to the scheduler; on a plain thread it falls back
// to the original condition-variable wait.  Nothing else in a rank body
// yields, so code between communication calls runs exactly as it does under
// threads.
//
// Run queues: each worker owns one FIFO ring behind its own mutex, and rank
// i lives on worker i mod w — it starts there and every wake puts it back
// there.  A worker runs its own ring; when that is empty it steals the older
// half of another worker's ring (both locks taken together), spins briefly,
// then sleeps on one idle condition variable that a push signals only when
// some worker is asleep.  No lock is shared by all workers on the hot path.
//
// Termination and deadlock: one atomic quiescence count holds the fibers
// that are queued, running, or inside a park handshake.  Only a running
// fiber can wake a parked one, so when the count reaches 0 nothing can run
// again: the run is over, and if any fiber is not done it is a deadlock,
// reported as an Error naming the parked ranks.
//
// Determinism contract: simulation results (per-rank word/message counts,
// logical clocks, output bits) are invariant to the interleaving of rank
// bodies by construction — mailbox matching is FIFO per (src, tag) envelope,
// crash positions are program-order facts, and all "time" is the logical
// α-β clock, never wall clock.  The fiber scheduler therefore does not need
// a deterministic schedule to reproduce results; the interleave_seed knob
// exists to *fuzz* that contract (one worker and one ring, seeded random
// run-queue picks plus forced yields after each send/receive) and is pinned
// by test_fiber_scheduler, down to the receive order of each seed.
//
// Parking protocol (lost-wakeup freedom): a parking fiber publishes
// kWakeParking and enlists itself on the wait list *while still holding the
// condition's mutex*; notifiers take the wait list and exchange each entry
// to kWakeNotified; the scheduler, after switching away from the fiber,
// exchanges to kWakeParked.  Whichever side observes the other's value
// requeues the fiber — exactly one of them does, no matter how the two
// exchanges interleave.  The worker keeps the fiber in the quiescence count
// until its exchange is done, so the count cannot touch 0 while a notified
// fiber is in flight.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "machine/flat.hpp"

namespace camb {

class BufferPool;
class Fiber;
class FiberScheduler;
class FiberWaitList;

/// Which execution substrate Machine::run puts under the rank bodies.
enum class SchedulerKind {
  kDefault,  ///< resolve via set_default_scheduler_kind / $CAMB_SCHEDULER
  kThreads,  ///< one WorkerPool OS thread per rank (the original mode)
  kFibers,   ///< P fibers multiplexed on pool-width threads
};

/// The process default used when a spec says kDefault: an explicit
/// set_default_scheduler_kind wins, else $CAMB_SCHEDULER ("threads" /
/// "fibers"), else kThreads.
SchedulerKind default_scheduler_kind();
/// Override the process default (pass kDefault to fall back to the env).
void set_default_scheduler_kind(SchedulerKind kind);
/// kDefault -> default_scheduler_kind(), anything else unchanged.
SchedulerKind resolve_scheduler_kind(SchedulerKind kind);
/// Parse "threads" / "fibers" (throws Error on anything else).
SchedulerKind scheduler_kind_from_name(const std::string& name);
const char* scheduler_kind_name(SchedulerKind kind);

/// How to run a Machine's rank bodies.  workers / stack_bytes of 0 mean
/// "pick a default" (hardware concurrency capped at the fiber count;
/// $CAMB_FIBER_STACK_KB or 256 KiB).  A non-zero interleave_seed turns on
/// chaos mode: one worker, seeded random run-queue picks, and a forced
/// yield after every send and receive.
struct SchedulerSpec {
  SchedulerKind kind = SchedulerKind::kDefault;
  int workers = 0;
  std::size_t stack_bytes = 0;
  std::uint64_t interleave_seed = 0;
};

/// The low-level saved state of one execution context (a fiber, or the
/// worker-thread frame the fiber switches back to).
struct FiberContext {
  void* sp = nullptr;            ///< saved stack pointer (asm backend)
  void* uctx = nullptr;          ///< ucontext_t* (portable backend)
  void* stack_base = nullptr;    ///< lowest usable stack address
  std::size_t stack_size = 0;
  void* asan_fake = nullptr;     ///< ASan fake-stack handle across switches
  void* tsan_fiber = nullptr;    ///< TSan fiber identity
  /// The C++ runtime's per-thread exception globals (__cxa_eh_globals: the
  /// caught-exception stack + uncaught count).  Rank bodies communicate —
  /// and therefore park — inside catch blocks (rollback's round_sync), so
  /// this state must travel with the fiber, not the OS thread.
  unsigned char eh_save[16] = {};
};

/// Fibers a notifier may need to wake.  Every blocking site owns one next
/// to its condition_variable; add() must be called with the site's mutex
/// held (park_on does), which is what makes the maybe_waiters_ fast path
/// race-free for notifiers that notify after releasing that mutex.
class FiberWaitList {
 public:
  /// Room for one waiter up front: a mailbox's list never holds more than
  /// its owner, so a first park allocates nothing — and how many ranks
  /// happen to park at least once, which depends on the schedule, does not
  /// change a run's allocation count.
  FiberWaitList() { waiters_.reserve(1); }

  void add(Fiber* fiber);
  void notify_all();

 private:
  std::mutex mutex_;
  std::vector<Fiber*> waiters_;
  std::atomic<bool> maybe_waiters_{false};
};

/// One fiber's stack placement, handed out by the scheduler.  Below the
/// packed-stack threshold every fiber gets a dedicated mapping with its own
/// guard page (owned — munmapped as soon as the fiber finishes).  Above it,
/// per-fiber mappings would exhaust the kernel's VMA budget
/// (vm.max_map_count ≈ 64 Ki, two VMAs per guarded stack), so stacks are
/// packed into shared slabs guarded only at the slab base; a slab lives
/// until the scheduler is destroyed, and finished fibers return their pages
/// with madvise instead of munmap.  In lieu of per-stack guard pages each
/// packed stack carries a canary word at its base, checked at completion,
/// so an overflow into a neighbor is detected rather than silent.
struct FiberStack {
  void* base = nullptr;        ///< lowest usable address
  std::size_t size = 0;        ///< usable bytes
  void* alloc_base = nullptr;  ///< mapping to munmap when owned
  std::size_t alloc_size = 0;
  bool owned = false;
};

/// One cooperatively scheduled rank body.  Construction and scheduling are
/// FiberScheduler internals; rank-side code only meets the static calls.
class Fiber {
 public:
  /// The fiber running on this thread, or nullptr on a plain thread.
  static Fiber* current();

  /// Chaos-mode yield point (no-op on plain threads and outside chaos
  /// mode).  Called by RankCtx after every send and receive.
  static void maybe_preempt();

  int index() const { return index_; }

  /// Per-fiber slot behind BufferPool::current(): the installed pool must
  /// follow the fiber across worker threads, not stay with the thread.
  BufferPool*& pool_slot() { return pool_; }

  /// Park this fiber on `waiters` until notified.  `lock` (the blocking
  /// site's mutex, currently held) is released while parked and reacquired
  /// before returning.  Callers re-check their predicate in a loop, exactly
  /// as with condition_variable::wait.
  void park_on(FiberWaitList& waiters, std::unique_lock<std::mutex>& lock);

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber();

 private:
  friend class FiberScheduler;
  friend class FiberWaitList;

  enum WakeState : int {
    kWakeRunning = 0,  ///< not parked, nothing pending
    kWakeParking,      ///< announced intent to park, switch still in flight
    kWakeParked,       ///< scheduler finished the switch; safe to requeue
    kWakeNotified,     ///< a notifier fired; whoever saw it requeues
  };

  enum class Phase { kRunnable, kRunning, kParking, kParked, kYielded, kDone };

  Fiber(FiberScheduler& sched, int index, const FiberStack& stack, bool chaos);

  void preempt();
  void run_body();
  void yield_to_scheduler(Phase why);
  void release_stack();
  /// Packed-slab stacks only: verify the canary word at the stack base is
  /// intact and record an Error into error_ if not.  Called when the fiber
  /// completes, before its pages are returned to the kernel.
  void check_stack_canary();

  FiberScheduler& sched_;
  int index_;
  bool chaos_;
  std::atomic<int> wake_{kWakeRunning};
  Phase phase_ = Phase::kRunnable;
  BufferPool* pool_ = nullptr;
  FiberContext ctx_;
  FiberContext* ret_ = nullptr;  ///< worker frame to switch back to
  std::exception_ptr error_;
  void* stack_alloc_ = nullptr;  ///< mmap base (guard page + stack)
  std::size_t stack_alloc_size_ = 0;
  bool stack_owned_ = true;  ///< false for packed slab slices

  friend void camb_fiber_start(Fiber* fiber);
};

/// Runs n rank bodies as fibers on WorkerPool threads and blocks until all
/// finish.  Unlike thread-per-rank execution — which silently hangs — a run
/// where every live fiber is parked with nothing runnable is detected and
/// reported as an Error naming the parked ranks.  Scheduling follows the
/// header comment: per-worker rings, stealing, one quiescence count.
class FiberScheduler {
 public:
  struct Options {
    int workers = 0;
    std::size_t stack_bytes = 0;
    std::uint64_t interleave_seed = 0;
  };

  static void run(int nfibers, const std::function<void(int)>& body,
                  const Options& opts);
  static void run(int nfibers, const std::function<void(int)>& body);

 private:
  friend class Fiber;
  friend class FiberWaitList;

  FiberScheduler(int nfibers, const std::function<void(int)>& body,
                 const Options& opts);
  ~FiberScheduler();

  /// One worker's run queue.  Cache-line aligned so two workers' locks never
  /// share a line.
  struct alignas(64) WorkerQueue {
    std::mutex mutex;
    RingQueue<Fiber*> runq;  ///< reserved to the fiber count: never grows
  };

  void execute();
  void worker_loop(int self);
  /// The next fiber for worker `self`: its own ring, else a steal, else spin
  /// and sleep until work arrives; nullptr once the run is over.
  Fiber* find_work(int self);
  Fiber* pop(int self);    // seeded random pick in chaos mode
  Fiber* steal(int self);  // older half of the first non-empty victim
  bool any_queued();  // each ring checked under its own lock
  /// A parked fiber became runnable: count it, then push it.
  void enqueue(Fiber* fiber);
  /// Put an already counted fiber on its home ring and wake a sleeper.
  void push(Fiber* fiber);
  /// One fiber left the quiescence count; the last one ends the run.
  void retire();

  /// Carve out one fiber stack (construction-time, serial).  Dedicated
  /// guarded mapping below the packed threshold, slab slice above it.
  FiberStack allocate_stack(std::size_t stack_bytes);

  const std::function<void(int)>& body_;
  Options opts_;
  bool chaos_ = false;
  std::vector<Fiber*> fibers_;

  bool packed_stacks_ = false;  ///< huge-P mode: slab-packed stacks
  std::vector<std::pair<void*, std::size_t>> slabs_;  ///< (base, bytes)
  unsigned char* slab_cursor_ = nullptr;
  std::size_t slab_left_ = 0;

  int nworkers_ = 1;
  std::unique_ptr<WorkerQueue[]> queues_;
  std::uint64_t pick_state_ = 0;  ///< chaos-mode splitmix64 stream
  /// Fibers queued, running, or mid park handshake; 0 ends the run.
  std::atomic<int> active_{0};
  std::atomic<bool> stop_{false};
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::atomic<int> sleepers_{0};  ///< changed only under idle_mutex_
};

/// The shape every blocking site uses: wait until pred() holds, yielding to
/// the fiber scheduler when called on a fiber and falling back to the plain
/// condition-variable wait on an OS thread.  `lock` holds the mutex that
/// guards pred's state; `waiters` is the site's FiberWaitList, notified by
/// the same code paths that notify `cv`.
template <typename Pred>
void fiber_aware_wait(std::unique_lock<std::mutex>& lock,
                      std::condition_variable& cv, FiberWaitList& waiters,
                      Pred pred) {
  Fiber* fiber = Fiber::current();
  if (fiber == nullptr) {
    cv.wait(lock, pred);
    return;
  }
  while (!pred()) fiber->park_on(waiters, lock);
}

}  // namespace camb
