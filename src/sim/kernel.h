// pim::sim — a discrete-event simulation kernel.
//
// This module replaces the SystemC engine the paper builds on. It provides
// the same core facilities a cycle-accurate architecture model needs:
//
//   * a global simulated clock (`Time`, picosecond resolution),
//   * an ordered pending-event queue with deterministic tie-breaking
//     (same-time events fire in schedule order),
//   * lightweight processes written as C++20 coroutines
//     (`Process model(...) { ...; co_await Delay{...}; ... }`); a process
//     may `co_await` another `Process` to run it as a subroutine,
//   * `Event` for wait/notify synchronization (all waiters wake in the same
//     delta, scheduled — not recursively resumed — so models cannot starve
//     each other),
//   * `Resource` — a counting semaphore with FIFO admission, used for
//     structural hazards (crossbar groups, shared ADCs, NoC links),
//   * `Clock` helpers to express cycle-quantized waits of a frequency domain.
//
// Scheduler architecture (the hot path of every simulation in this repo):
//
//   * One event kind. Every pending event is a coroutine resumption; there
//     are no parked callbacks. A model that needs a one-shot action at a
//     time owns a process for it and schedules it with `resume_at`.
//   * Two tiers. Events scheduled at the *current* time — the dominant case:
//     `Event::notify`, `Resource::release` hand-off, `spawn` — go into a FIFO
//     ring buffer of 16-byte `{handle, seq}` items and never touch the heap.
//     Only future-time events enter a binary min-heap of 24-byte POD entries
//     `{time, seq, handle}` ordered by (time, seq). Because simulated time is
//     monotone, every heap entry at the current time was scheduled (and
//     numbered) before every ring entry, so draining heap-at-now before the
//     ring reproduces exactly the global (time, seq) firing order of a
//     single ordered queue.
//   * No third tier. A hierarchical bucketed tier for near-future events
//     (Varghese & Lauck) between ring and heap was tried and removed: it ran
//     the synthetic all-timers microbench ~2.5x faster, but end to end it
//     was noise. Over 12 interleaved rounds of 13 cold timing-only zoo runs,
//     ring + heap took a median 3.17 s per round against 3.31 s with the
//     extra tier, with overlapping quartiles and byte-identical reports.
//   * Intrusive bookkeeping. `Event`/`Resource` waiter FIFOs and the kernel's
//     live-process set are singly/doubly-linked lists threaded through the
//     coroutine promise (`Process::promise_type`); steady-state simulation
//     performs zero allocations per event.
//   * Awaited children run inline. `co_await child_process` starts the child
//     at once by symmetric transfer, and its final suspend transfers straight
//     back to the caller, so a call schedules no event and takes no seq: the
//     (time, seq) stream is the one the child's body would give written
//     inline. Each call does allocate the child's coroutine frame.
//
// The kernel is single-threaded and deterministic: given the same inputs,
// every simulation produces bit-identical results. `order_fingerprint()`
// exposes a hash of the (time, seq) firing stream so tests can assert the
// event order itself, not just the end state.
#pragma once

#include <chrono>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/math_util.h"

namespace pim::telemetry {
class TraceSink;
}

namespace pim::sim {

/// Simulated time in picoseconds.
using Time = uint64_t;
inline constexpr Time kTimeMax = std::numeric_limits<Time>::max();

class Kernel;

// ---------------------------------------------------------------------------
// Process: coroutine handle wrapper
// ---------------------------------------------------------------------------

/// Return type of simulation-process coroutines. A `Process` is inert until
/// it is either handed to `Kernel::spawn` or awaited by another process.
/// Spawned, the kernel resumes it at the current time and the frame
/// self-destroys when the coroutine finishes. Awaited
/// (`co_await child(...)`), it runs at once inside the caller's time step,
/// the caller resumes the moment it finishes, and the `Process` temporary
/// frees the frame at the end of the caller's `co_await` expression.
class Process {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(Handle h) noexcept;
    void await_resume() const noexcept {}
  };

  struct promise_type {
    Kernel* kernel = nullptr;          // set by Kernel::spawn
    std::coroutine_handle<> caller{};  // set when awaited by another process
    // Intrusive links, owned by the kernel machinery (never by user code):
    // one wait-queue link (a suspended process waits on at most one Event or
    // Resource at a time) and a doubly-linked membership in the kernel's
    // live-process list. Keeping them in the promise makes every wait-queue
    // and spawn/finish operation allocation-free.
    promise_type* wait_next = nullptr;
    promise_type* live_prev = nullptr;
    promise_type* live_next = nullptr;

    Process get_return_object() { return Process(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception();
  };

  Process() = default;
  explicit Process(Handle h) : handle_(h) {}
  Process(Process&& other) noexcept : handle_(other.handle_) { other.handle_ = {}; }
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = other.handle_;
      other.handle_ = {};
    }
    return *this;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  /// The frame, for a process its owner resumes itself with
  /// `Kernel::resume_at` rather than spawning or awaiting it. The owner
  /// keeps this Process, which frees the frame; the kernel never does.
  std::coroutine_handle<> handle() const { return handle_; }

  /// Awaiting a child: start it now and resume the caller when it finishes.
  struct Awaiter {
    Handle child;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> caller) noexcept {
      child.promise().caller = caller;
      return child;
    }
    void await_resume() const noexcept {}
  };
  Awaiter operator co_await() && noexcept { return Awaiter{handle_}; }

 private:
  friend class Kernel;
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle release() {
    Handle h = handle_;
    handle_ = {};
    return h;
  }
  Handle handle_{};
};

namespace detail {

/// Intrusive FIFO of suspended processes, linked through
/// `promise_type::wait_next`. Shared by Event and Resource.
struct WaitQueue {
  Process::promise_type* head = nullptr;
  Process::promise_type* tail = nullptr;
  size_t count = 0;

  void push(Process::promise_type& p) {
    p.wait_next = nullptr;
    if (tail != nullptr) {
      tail->wait_next = &p;
    } else {
      head = &p;
    }
    tail = &p;
    ++count;
  }

  Process::promise_type* pop() {
    Process::promise_type* p = head;
    if (p != nullptr) {
      head = p->wait_next;
      if (head == nullptr) tail = nullptr;
      p->wait_next = nullptr;
      --count;
    }
    return p;
  }

  /// Detach the whole chain (head returned, queue left empty).
  Process::promise_type* take_all() {
    Process::promise_type* p = head;
    head = tail = nullptr;
    count = 0;
    return p;
  }
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Event
// ---------------------------------------------------------------------------

/// A wait/notify synchronization point. `co_await event` suspends the current
/// process until some other process calls `notify()`. All waiters present at
/// notify time are scheduled to resume at the current simulation time, in
/// their wait order. Waiters that arrive after the notify wait for the next
/// one (auto-reset semantics, like a SystemC sc_event).
class Event {
 public:
  explicit Event(Kernel& kernel) : kernel_(&kernel) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  /// Wake every currently-waiting process at the current time.
  void notify();

  /// Number of processes currently blocked on this event.
  size_t waiter_count() const { return waiters_.count; }

  /// Record an instant trace event on `tid` (in the kernel's attached
  /// TraceSink) at every notify() that wakes at least one waiter. Purely
  /// observational; tid 0 detaches.
  void attach_trace(uint32_t tid) { trace_tid_ = tid; }

  struct Awaiter {
    Event* event;
    bool await_ready() const noexcept { return false; }
    void await_suspend(Process::Handle h) { event->waiters_.push(h.promise()); }
    void await_resume() const noexcept {}
  };
  Awaiter operator co_await() { return Awaiter{this}; }

 private:
  Kernel* kernel_;
  detail::WaitQueue waiters_;
  uint32_t trace_tid_ = 0;
};

// ---------------------------------------------------------------------------
// Kernel
// ---------------------------------------------------------------------------

/// The simulation scheduler. Owns the pending-event queue (same-delta ring +
/// future-time heap) and the intrusive list of live process frames.
class Kernel {
 public:
  Kernel() = default;
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Current simulated time (ps).
  Time now() const { return now_; }

  /// Register a coroutine as a simulation process; it first runs at the
  /// current time (after already-pending same-time events).
  void spawn(Process process);

  /// Schedule a coroutine resumption at absolute time `t` (clamped to now()).
  void resume_at(Time t, std::coroutine_handle<> h) {
    const uint64_t seq = seq_++;
    if (t <= now_) {
      ring_push(RingItem{h.address(), seq});
    } else {
      heap_push(HeapEntry{t, seq, h.address()});
    }
  }

  /// Run until the event queue drains or `until` is reached (exclusive upper
  /// bound on event times). Returns the final simulation time.
  Time run(Time until = kTimeMax);

  /// Arm a wall-clock watchdog: run() abandons the simulation (leaving the
  /// event queue intact and wall_expired() set) once the host clock passes
  /// `deadline`. The check is strided — every few thousand events — so the
  /// unarmed hot path pays one predictable branch and the armed path almost
  /// never touches the host clock; expiry is therefore detected within a few
  /// milliseconds, not exactly at the deadline. This is the only way to
  /// bound a scenario whose *simulated* time budget never triggers (e.g. a
  /// same-time notify storm that stops advancing the clock).
  void arm_wall_watchdog(std::chrono::steady_clock::time_point deadline) {
    wall_deadline_ = deadline;
    wall_armed_ = true;
    wall_expired_ = false;
  }
  void disarm_wall_watchdog() {
    wall_armed_ = false;
    wall_expired_ = false;
  }
  /// True when the last run() was abandoned by the wall-clock watchdog.
  bool wall_expired() const { return wall_expired_; }

  bool empty() const { return ring_count_ == 0 && heap_.empty(); }
  uint64_t events_executed() const { return events_executed_; }
  size_t live_process_count() const { return live_count_; }

  /// FNV-1a hash of the (time, seq) stream of every event fired so far — a
  /// fingerprint of the exact scheduling order. Two kernels that executed
  /// the same workload must report identical fingerprints; any reordering of
  /// same-time events changes the value.
  uint64_t order_fingerprint() const { return fingerprint_; }

  /// Attach a trace sink (nullptr detaches). Instrumented primitives
  /// (Event/Resource with a trace tid, arch models) emit through it; with no
  /// sink, or with no tid attached, instrumented paths cost one predictable
  /// branch. Attaching never alters scheduling — order_fingerprint() is
  /// identical with tracing on or off.
  void set_trace(telemetry::TraceSink* sink) { trace_ = sink; }
  telemetry::TraceSink* trace() const { return trace_; }

  /// Awaitable: suspend the calling process for `delta` picoseconds.
  struct DelayAwaiter {
    Kernel* kernel;
    Time delta;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { kernel->resume_at(kernel->now_ + delta, h); }
    void await_resume() const noexcept {}
  };
  DelayAwaiter delay(Time delta) { return DelayAwaiter{this, delta}; }

 private:
  friend struct Process::FinalAwaiter;
  friend struct Process::promise_type;
  friend class Event;
  friend class Resource;
  void on_process_finished(Process::Handle h);

  /// Same-delta fast path: FIFO-schedule a resumption at the current time.
  void schedule_now(Process::Handle h) { ring_push(RingItem{h.address(), seq_++}); }

  // One pending event: the coroutine frame address to resume. POD on
  // purpose: heap sifts move 24 bytes.
  struct RingItem {
    void* h;
    uint64_t seq;
  };
  struct HeapEntry {
    Time t;
    uint64_t seq;
    void* h;
  };
  static bool heap_less(const HeapEntry& a, const HeapEntry& b) {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
  }

  void ring_push(RingItem item) {
    if (ring_count_ == ring_.size()) ring_grow();
    ring_[(ring_head_ + ring_count_) & (ring_.size() - 1)] = item;
    ++ring_count_;
  }
  RingItem ring_pop() {
    RingItem item = ring_[ring_head_];
    ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
    --ring_count_;
    return item;
  }
  void ring_grow();

  void heap_push(HeapEntry e) {
    size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!heap_less(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }
  HeapEntry heap_pop();

  /// Account for and dispatch one event (hot: inlined into run()'s loops).
  void exec(Time t, uint64_t seq, void* h) {
    ++events_executed_;
    fingerprint_ = (fingerprint_ ^ t) * 0x100000001b3ull;
    fingerprint_ = (fingerprint_ ^ seq) * 0x100000001b3ull;
    std::coroutine_handle<>::from_address(h).resume();
  }

  std::vector<RingItem> ring_;  // power-of-two circular buffer; [head, head+count)
  size_t ring_head_ = 0;
  size_t ring_count_ = 0;
  std::vector<HeapEntry> heap_;                 // binary min-heap on (t, seq)
  Process::promise_type* live_head_ = nullptr;  // unfinished spawned processes
  size_t live_count_ = 0;
  // True while ~Kernel destroys suspended frames. Wait-queue nodes live in
  // coroutine promises, so once teardown starts, Event/Resource wake paths
  // (reachable from frame destructors) must not dereference queue links —
  // the frames they point into may already be gone.
  bool destroying_ = false;
  telemetry::TraceSink* trace_ = nullptr;
  bool wall_armed_ = false;
  bool wall_expired_ = false;
  uint32_t wall_tick_ = 0;  // strides host-clock reads while armed
  std::chrono::steady_clock::time_point wall_deadline_{};
  Time now_ = 0;
  uint64_t seq_ = 0;
  uint64_t events_executed_ = 0;
  uint64_t fingerprint_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
};

// ---------------------------------------------------------------------------
// Resource
// ---------------------------------------------------------------------------

/// Counting semaphore with FIFO admission. Models structural hazards: shared
/// ADCs, busy crossbar groups, NoC link occupancy.
///
///   co_await adc.acquire();
///   co_await kernel.delay(conversion_time);
///   adc.release();
class Resource {
 public:
  Resource(Kernel& kernel, uint32_t count) : kernel_(&kernel), available_(count), capacity_(count) {}
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  struct AcquireAwaiter {
    Resource* res;
    bool await_ready() {
      // Uncontended fast path: untouched by tracing (no extra branch here —
      // only the wait path below is instrumented).
      if (res->available_ > 0) {
        --res->available_;
        return true;
      }
      return false;
    }
    void await_suspend(Process::Handle h) {
      res->waiters_.push(h.promise());
      if (res->trace_tid_ != 0) res->trace_queue_changed();
    }
    void await_resume() const noexcept {}
  };
  AcquireAwaiter acquire() { return AcquireAwaiter{this}; }

  /// Release one unit; if processes are queued, hands the unit directly to
  /// the front waiter (scheduled at current time, FIFO order preserved).
  void release();

  uint32_t available() const { return available_; }
  uint32_t capacity() const { return capacity_; }
  size_t queue_length() const { return waiters_.count; }
  bool busy() const { return available_ == 0; }

  /// Emit a queue-length counter event on `tid` (in the kernel's attached
  /// TraceSink) whenever a process joins or leaves the wait queue. Purely
  /// observational; tid 0 detaches.
  void attach_trace(uint32_t tid) { trace_tid_ = tid; }

 private:
  void trace_queue_changed();  // out of line: needs telemetry::TraceSink

  Kernel* kernel_;
  uint32_t available_;
  uint32_t capacity_;
  detail::WaitQueue waiters_;
  uint32_t trace_tid_ = 0;
};

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// A frequency domain. Converts cycles to picoseconds and provides
/// cycle-granular waits. Models in this codebase express latencies in cycles
/// of their domain clock and convert at the boundary.
class Clock {
 public:
  /// `freq_mhz` must be > 0 (enforced: throws std::invalid_argument
  /// otherwise — a non-positive frequency would make `now_cycles` divide by
  /// zero). Frequencies above 1 THz quantize to the 1 ps resolution floor.
  Clock(Kernel& kernel, double freq_mhz) : kernel_(&kernel) {
    if (!(freq_mhz > 0.0)) {
      throw std::invalid_argument("sim::Clock: freq_mhz must be > 0");
    }
    period_ps_ = static_cast<Time>(1e6 / freq_mhz + 0.5);
    if (period_ps_ == 0) period_ps_ = 1;
  }

  Time period_ps() const { return period_ps_; }
  /// Saturates at kTimeMax: a cycle count large enough to overflow the
  /// picosecond clock means "beyond the end of simulated time", and a
  /// wrapped small value would silently reorder the event queue.
  Time to_ps(uint64_t cycles) const { return saturating_mul_u64(cycles, period_ps_); }
  /// Cycles elapsed at current kernel time (floor).
  uint64_t now_cycles() const { return kernel_->now() / period_ps_; }

  /// Awaitable: wait an integral number of cycles.
  Kernel::DelayAwaiter cycles(uint64_t n) const { return kernel_->delay(to_ps(n)); }

  /// Awaitable: wait until the next rising edge (align to the cycle grid).
  Kernel::DelayAwaiter next_edge() const {
    Time now = kernel_->now();
    Time next = ((now / period_ps_) + 1) * period_ps_;
    return kernel_->delay(next - now);
  }

 private:
  Kernel* kernel_;
  Time period_ps_;
};

}  // namespace pim::sim
