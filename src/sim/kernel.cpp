#include "sim/kernel.h"

#include <cstdlib>
#include <exception>
#include <utility>

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace pim::sim {

// ------------------------------------------------------------------ Process

std::coroutine_handle<> Process::FinalAwaiter::await_suspend(Handle h) noexcept {
  promise_type& promise = h.promise();
  // An awaited child hands control straight back to its caller; the
  // caller's Process temporary destroys this frame afterwards.
  if (promise.caller) return promise.caller;
  if (promise.kernel != nullptr) {
    promise.kernel->on_process_finished(h);
    // The frame belongs to the kernel once spawned; destroying here while
    // suspended at the final suspend point is the standard fire-and-forget
    // coroutine teardown.
    h.destroy();
  }
  return std::noop_coroutine();
}

void Process::promise_type::unhandled_exception() {
  // A simulation process leaking an exception is a modeling bug; the kernel
  // cannot meaningfully unwind other processes, so fail fast and loudly.
  try {
    std::rethrow_exception(std::current_exception());
  } catch (const std::exception& e) {
    PIM_LOG(Error) << "unhandled exception in simulation process: " << e.what();
  } catch (...) {
    PIM_LOG(Error) << "unhandled non-standard exception in simulation process";
  }
  std::abort();
}

// -------------------------------------------------------------------- Event

void Event::notify() {
  if (kernel_->destroying_) {
    // Frames holding our queue nodes may already be destroyed; drop the
    // waiters without walking their links (nobody will run anyway).
    waiters_ = {};
    return;
  }
  if (trace_tid_ != 0 && kernel_->trace_ != nullptr && waiters_.count > 0) {
    kernel_->trace_->instant(trace_tid_, "notify", kernel_->now_);
  }
  // Detach the waiter chain first: a resumed process may immediately
  // co_await this event again and must land in the *next* notification.
  // Waking is pure scheduling (ring pushes), never recursive resumption.
  Process::promise_type* p = waiters_.take_all();
  while (p != nullptr) {
    Process::promise_type* next = p->wait_next;
    p->wait_next = nullptr;
    kernel_->schedule_now(Process::Handle::from_promise(*p));
    p = next;
  }
}

// ------------------------------------------------------------------- Kernel

Kernel::~Kernel() {
  destroying_ = true;
  // Destroy any still-suspended process frames so leak checkers stay quiet.
  // A spawned frame suspended inside `co_await child(...)` owns that child
  // through the Process temporary, so destroying it frees the whole chain.
  // Snapshot the handles first: destroying a frame runs destructors which
  // must not mutate the live list mid-walk (they don't — only final_suspend
  // does — but the snapshot keeps iteration valid regardless).
  std::vector<void*> frames;
  frames.reserve(live_count_);
  for (Process::promise_type* p = live_head_; p != nullptr; p = p->live_next) {
    frames.push_back(Process::Handle::from_promise(*p).address());
  }
  live_head_ = nullptr;
  live_count_ = 0;
  for (void* frame : frames) {
    std::coroutine_handle<>::from_address(frame).destroy();
  }
}

void Kernel::spawn(Process process) {
  Process::Handle h = process.release();
  if (!h) return;
  Process::promise_type& p = h.promise();
  p.kernel = this;
  p.live_prev = nullptr;
  p.live_next = live_head_;
  if (live_head_ != nullptr) live_head_->live_prev = &p;
  live_head_ = &p;
  ++live_count_;
  schedule_now(h);
}

void Kernel::ring_grow() {
  const size_t old_cap = ring_.size();
  const size_t new_cap = old_cap == 0 ? 16 : old_cap * 2;  // stays a power of two
  std::vector<RingItem> grown(new_cap);
  for (size_t i = 0; i < ring_count_; ++i) {
    grown[i] = ring_[(ring_head_ + i) & (old_cap - 1)];
  }
  ring_ = std::move(grown);
  ring_head_ = 0;
}

Kernel::HeapEntry Kernel::heap_pop() {
  HeapEntry top = heap_.front();
  HeapEntry last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n > 0) {
    size_t i = 0;
    for (;;) {
      size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_less(heap_[child + 1], heap_[child])) ++child;
      if (!heap_less(heap_[child], last)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = last;
  }
  return top;
}

Time Kernel::run(Time until) {
  // Batch-drain loop. Two invariants let the per-event checks hoist out of
  // the inner loops: (1) ring entries always live at the current time, and
  // (2) firing an event can only push ring entries (at now) or heap entries
  // strictly in the future — so while draining one timestamp, no *new*
  // heap-at-now work can appear, and ring pushes append FIFO behind the
  // current batch.
  for (;;) {
    // Wall-clock watchdog: one predictable branch per outer iteration when
    // unarmed; when armed, the host clock is read every 64th iteration (the
    // bounded ring drain below guarantees outer iterations keep happening
    // even in a same-time notify storm).
    if (wall_armed_ && (++wall_tick_ & 63u) == 0 &&
        std::chrono::steady_clock::now() >= wall_deadline_) {
      wall_expired_ = true;
      break;
    }
    if (!heap_.empty() && heap_.front().t == now_) {
      // Same-time heap entries left by a run that stopped after advancing
      // the clock: run(until)'s clamp onto an event time, or the watchdog.
      // Their seqs precede every ring entry's — drain first.
      if (now_ >= until) break;  // `until` is exclusive
      do {
        const HeapEntry e = heap_pop();
        exec(e.t, e.seq, e.h);
      } while (!heap_.empty() && heap_.front().t == now_);
      continue;
    }
    if (ring_count_ > 0) {
      if (now_ >= until) break;
      if (!wall_armed_) {
        do {
          const RingItem item = ring_pop();
          exec(now_, item.seq, item.h);
        } while (ring_count_ > 0);
      } else {
        // Armed: cap the drain so a ring that perpetually refills (events
        // scheduling more events at the same time) still yields to the
        // watchdog check above. The unarmed loop stays branch-identical.
        size_t budget = 4096;
        do {
          const RingItem item = ring_pop();
          exec(now_, item.seq, item.h);
        } while (ring_count_ > 0 && --budget > 0);
      }
      continue;
    }
    if (heap_.empty() || heap_.front().t >= until) break;
    now_ = heap_.front().t;  // advance; the loop re-enters the heap-at-now drain
  }
  // An abandoned run must not pretend it reached the simulated-time budget.
  if (!wall_expired_ && now_ < until && until != kTimeMax) now_ = until;
  return now_;
}

void Kernel::on_process_finished(Process::Handle h) {
  Process::promise_type& p = h.promise();
  if (p.live_prev != nullptr) {
    p.live_prev->live_next = p.live_next;
  } else {
    live_head_ = p.live_next;
  }
  if (p.live_next != nullptr) p.live_next->live_prev = p.live_prev;
  --live_count_;
}

// ----------------------------------------------------------------- Resource

void Resource::release() {
  if (kernel_->destroying_) {
    // Reachable from a frame destructor while ~Kernel tears down suspended
    // frames: the queued waiters' promises may already be freed — do not
    // touch them.
    waiters_ = {};
    return;
  }
  if (Process::promise_type* next = waiters_.pop()) {
    // Hand the unit directly to the next waiter: available_ stays 0.
    kernel_->schedule_now(Process::Handle::from_promise(*next));
    if (trace_tid_ != 0) trace_queue_changed();
    return;
  }
  if (available_ < capacity_) ++available_;
}

void Resource::trace_queue_changed() {
  if (telemetry::TraceSink* sink = kernel_->trace_) {
    sink->counter(trace_tid_, "queue", static_cast<double>(waiters_.count), kernel_->now_);
  }
}

}  // namespace pim::sim
