// Unit tests for the discrete-event simulation kernel — the SystemC-replacing
// substrate. These validate exactly the semantics the architecture models
// rely on: deterministic ordering, delta-style event notification, FIFO
// resource handoff, and clock arithmetic.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <queue>
#include <tuple>
#include <vector>

#include "sim/kernel.h"
#include "telemetry/telemetry.h"

namespace pim::sim {
namespace {

// One-shot actions for these tests: at(t, fn) takes one seq now and fires
// one event at `t` (clamped to now()) that runs `fn`, through the kernel's
// only scheduling path for a frame it does not own, resume_at. The frames
// are owned here, so they are freed whether or not they ran.
class OneShots {
 public:
  explicit OneShots(Kernel& k) : kernel_(&k) {}
  void at(Time t, std::function<void()> fn) {
    frames_.push_back(body(std::move(fn)));
    kernel_->resume_at(t, frames_.back().handle());
  }

 private:
  static Process body(std::function<void()> fn) {
    fn();
    co_return;
  }
  Kernel* kernel_;
  std::vector<Process> frames_;
};

TEST(Kernel, EventsRunInTimeOrder) {
  Kernel k;
  OneShots shots(k);
  std::vector<int> order;
  shots.at(30, [&] { order.push_back(3); });
  shots.at(10, [&] { order.push_back(1); });
  shots.at(20, [&] { order.push_back(2); });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(k.now(), 30u);
  EXPECT_EQ(k.events_executed(), 3u);
}

TEST(Kernel, SameTimeEventsKeepScheduleOrder) {
  Kernel k;
  OneShots shots(k);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    shots.at(5, [&order, i] { order.push_back(i); });
  }
  k.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Kernel, RunUntilStopsBeforeBoundary) {
  Kernel k;
  OneShots shots(k);
  int fired = 0;
  shots.at(10, [&] { ++fired; });
  shots.at(20, [&] { ++fired; });
  k.run(/*until=*/15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(k.now(), 15u);  // advanced to the boundary
  k.run();
  EXPECT_EQ(fired, 2);
}

TEST(Kernel, RunUntilClampingSemantics) {
  Kernel k;
  OneShots shots(k);
  int fired = 0;
  // `until` is an exclusive bound: an event exactly at the boundary must not
  // fire, but now() still advances to the boundary.
  shots.at(10, [&] { ++fired; });
  k.run(/*until=*/10);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(k.now(), 10u);
  EXPECT_FALSE(k.empty());
  // The event now waits at now(), and the same bound still excludes it.
  k.run(/*until=*/10);
  EXPECT_EQ(fired, 0);
  // A second bounded run from the boundary fires it (t < until now holds).
  k.run(/*until=*/11);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(k.now(), 11u);
  EXPECT_TRUE(k.empty());
  // Draining run with the default bound does not clamp now() to kTimeMax.
  k.run();
  EXPECT_EQ(k.now(), 11u);
  // An empty bounded run still advances the clock to the boundary.
  k.run(/*until=*/50);
  EXPECT_EQ(k.now(), 50u);
  // `until` in the past is a no-op: time never moves backwards.
  k.run(/*until=*/20);
  EXPECT_EQ(k.now(), 50u);
  // A bound strictly between now() and a pending event parks the clock at
  // the bound with the event still queued; the next run fires it at its own
  // time, not at the bound.
  shots.at(90, [&] { ++fired; });
  k.run(/*until=*/60);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(k.now(), 60u);
  k.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(k.now(), 90u);
}

TEST(Kernel, ClampLeftoversFireBeforeLaterRingEvents) {
  // A run(until) that clamps the clock onto an event's time leaves that
  // event queued on the heap at now(). A same-time post made between runs
  // goes to the ring with a later seq, so the next run() must fire the
  // leftover first, then that post, then what the leftover posted itself.
  Kernel k;
  OneShots shots(k);
  std::vector<int> order;
  shots.at(5, [&] {
    order.push_back(0);
    shots.at(5, [&] { order.push_back(2); });  // same time, later schedule
  });
  k.run(/*until=*/5);
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(k.now(), 5u);
  shots.at(k.now(), [&] { order.push_back(1); });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

Process delayer(Kernel& k, std::vector<Time>& log, Time d1, Time d2) {
  co_await k.delay(d1);
  log.push_back(k.now());
  co_await k.delay(d2);
  log.push_back(k.now());
}

TEST(Process, DelaysAdvanceTime) {
  Kernel k;
  std::vector<Time> log;
  k.spawn(delayer(k, log, 5, 7));
  k.run();
  EXPECT_EQ(log, (std::vector<Time>{5, 12}));
  EXPECT_EQ(k.live_process_count(), 0u);
}

Process waiter(Event& e, std::vector<int>& log, int id) {
  co_await e;
  log.push_back(id);
}

Process notifier(Kernel& k, Event& e, Time at) {
  co_await k.delay(at);
  e.notify();
}

TEST(Event, WakesAllWaitersInOrder) {
  Kernel k;
  Event e(k);
  std::vector<int> log;
  k.spawn(waiter(e, log, 1));
  k.spawn(waiter(e, log, 2));
  k.spawn(waiter(e, log, 3));
  k.spawn(notifier(k, e, 10));
  k.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(k.now(), 10u);
}

TEST(Event, AutoResetLateWaitersWaitForNextNotify) {
  Kernel k;
  Event e(k);
  std::vector<int> log;
  k.spawn(waiter(e, log, 1));
  k.spawn(notifier(k, e, 10));
  k.run();
  EXPECT_EQ(log, (std::vector<int>{1}));
  // A waiter arriving after the notify must block until another notify.
  k.spawn(waiter(e, log, 2));
  k.run();
  EXPECT_EQ(log, (std::vector<int>{1}));
  EXPECT_EQ(e.waiter_count(), 1u);
  e.notify();
  k.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

Process hold_resource(Kernel& k, Resource& r, std::vector<std::pair<int, Time>>& log, int id,
                      Time hold) {
  co_await r.acquire();
  log.push_back({id, k.now()});
  co_await k.delay(hold);
  r.release();
}

TEST(Resource, SerializesFifo) {
  Kernel k;
  Resource r(k, 1);
  std::vector<std::pair<int, Time>> log;
  k.spawn(hold_resource(k, r, log, 1, 10));
  k.spawn(hold_resource(k, r, log, 2, 10));
  k.spawn(hold_resource(k, r, log, 3, 10));
  k.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], (std::pair<int, Time>{1, 0}));
  EXPECT_EQ(log[1], (std::pair<int, Time>{2, 10}));
  EXPECT_EQ(log[2], (std::pair<int, Time>{3, 20}));
}

TEST(Resource, CountingAdmitsUpToCapacity) {
  Kernel k;
  Resource r(k, 2);
  std::vector<std::pair<int, Time>> log;
  for (int i = 0; i < 4; ++i) k.spawn(hold_resource(k, r, log, i, 10));
  k.run();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].second, 0u);
  EXPECT_EQ(log[1].second, 0u);
  EXPECT_EQ(log[2].second, 10u);
  EXPECT_EQ(log[3].second, 10u);
  EXPECT_EQ(r.available(), 2u);
}

TEST(Clock, CycleArithmetic) {
  Kernel k;
  Clock c(k, 1000.0);  // 1 GHz -> 1000 ps period
  EXPECT_EQ(c.period_ps(), 1000u);
  EXPECT_EQ(c.to_ps(5), 5000u);
  Clock c2(k, 500.0);  // 500 MHz -> 2000 ps
  EXPECT_EQ(c2.period_ps(), 2000u);
}

Process edge_waiter(Kernel& k, Clock& c, std::vector<Time>& log) {
  co_await k.delay(1500);       // mid-cycle
  co_await c.next_edge();       // align to 2000
  log.push_back(k.now());
  co_await c.next_edge();       // 3000? period 1000: next edge after 2000 is 3000
  log.push_back(k.now());
}

TEST(Clock, NextEdgeAligns) {
  Kernel k;
  Clock c(k, 1000.0);
  std::vector<Time> log;
  k.spawn(edge_waiter(k, c, log));
  k.run();
  EXPECT_EQ(log, (std::vector<Time>{2000, 3000}));
}

TEST(Kernel, DestructorReclaimsBlockedProcesses) {
  // A process left waiting on an event that never fires must be destroyed
  // with the kernel (no leak, no crash).
  auto k = std::make_unique<Kernel>();
  Event e(*k);
  std::vector<int> log;
  k->spawn(waiter(e, log, 1));
  k->run();
  EXPECT_EQ(k->live_process_count(), 1u);
  k.reset();  // must destroy the suspended frame
  EXPECT_TRUE(log.empty());
}

TEST(Kernel, DeterministicAcrossRuns) {
  auto run_once = [] {
    Kernel k;
    Resource r(k, 2);
    Event e(k);
    std::vector<std::pair<int, Time>> log;
    for (int i = 0; i < 5; ++i) k.spawn(hold_resource(k, r, log, i, 3 + i));
    k.spawn(notifier(k, e, 4));
    k.run();
    return std::make_pair(log, k.events_executed());
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

Process rewaiter(Event& e, std::vector<int>& log, int id) {
  co_await e;
  log.push_back(id);
  co_await e;  // re-arms during the wake delta: must need a *second* notify
  log.push_back(100 + id);
}

TEST(Event, WaiterArrivingDuringNotifyWaitsForNextOne) {
  // Auto-reset: a process woken by notify() that immediately re-awaits the
  // same event must not be woken by that same notification.
  Kernel k;
  Event e(k);
  std::vector<int> log;
  k.spawn(rewaiter(e, log, 1));
  k.spawn(rewaiter(e, log, 2));
  k.run();
  e.notify();
  k.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.waiter_count(), 2u);
  e.notify();
  k.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 101, 102}));
  EXPECT_EQ(e.waiter_count(), 0u);
}

Process observe_handoff(Kernel& k, Resource& r, std::vector<uint32_t>& avail, Time hold) {
  co_await r.acquire();
  avail.push_back(r.available());
  co_await k.delay(hold);
  r.release();
}

TEST(Resource, ReleaseHandsOffDirectlyKeepingZeroAvailable) {
  // With waiters queued, release() bypasses available_: the unit transfers
  // to the front waiter and the count observed by every holder stays 0.
  Kernel k;
  Resource r(k, 1);
  std::vector<uint32_t> avail;
  for (int i = 0; i < 3; ++i) k.spawn(observe_handoff(k, r, avail, 10));
  k.run(/*until=*/15);
  // Second holder admitted via direct hand-off at t=10: still zero available.
  EXPECT_EQ(avail, (std::vector<uint32_t>{0, 0}));
  EXPECT_TRUE(r.busy());
  EXPECT_EQ(r.queue_length(), 1u);
  k.run();
  EXPECT_EQ(avail, (std::vector<uint32_t>{0, 0, 0}));
  EXPECT_EQ(r.available(), 1u);  // last release finds no waiters -> refill
}

// --------------------------------------------------------------- fingerprint

Process fp_worker(Kernel& k, Resource& r, Event& e, std::vector<int>& log, int id) {
  co_await k.delay(static_cast<Time>(id) * 3);
  co_await r.acquire();
  log.push_back(id);
  co_await k.delay(5 + static_cast<Time>(id % 4));
  r.release();
  if (id % 2 == 0) {
    co_await e;
    log.push_back(100 + id);
  }
}

Process fp_notifier(Kernel& k, Event& e) {
  for (int round = 0; round < 4; ++round) {
    co_await k.delay(11);
    e.notify();
  }
}

Process fp_child(std::vector<int>& log, int id) {
  log.push_back(200 + id);
  co_return;
}

Process fp_parent(Kernel& k, std::vector<int>& log) {
  for (int i = 0; i < 3; ++i) {
    k.spawn(fp_child(log, i));
    co_await k.delay(2);
  }
}

// Deterministic mix of every scheduling path: same-delta notify/release and
// nested spawn, future-time delays, owned one-shot frames, FIFO resource
// handoff.
uint64_t reference_fingerprint(std::vector<int>* order = nullptr,
                               telemetry::TraceSink* sink = nullptr) {
  Kernel k;
  OneShots shots(k);
  Resource r(k, 2);
  Event e(k);
  if (sink != nullptr) {
    k.set_trace(sink);
    const uint32_t pid = sink->pid("kernel");
    r.attach_trace(sink->tid(pid, "resource"));
    e.attach_trace(sink->tid(pid, "event"));
  }
  std::vector<int> log;
  for (int id = 0; id < 8; ++id) k.spawn(fp_worker(k, r, e, log, id));
  k.spawn(fp_notifier(k, e));
  k.spawn(fp_parent(k, log));
  shots.at(7, [&] { log.push_back(300); });
  shots.at(7, [&] { log.push_back(301); });
  k.run();
  if (order != nullptr) *order = log;
  return k.order_fingerprint();
}

TEST(Kernel, OrderFingerprintMatchesPreRefactorKernel) {
  // Golden value recorded from the pre-refactor single-heap scheduler (the
  // same FNV-1a over the (time, seq) firing stream, added to it verbatim
  // before the two-tier rewrite). Equality proves the rewrite preserves the
  // exact global event order, not just the end state. If this fails, the
  // scheduler reordered events — that is a correctness regression, never an
  // acceptable side effect of an optimization.
  std::vector<int> log;
  EXPECT_EQ(reference_fingerprint(&log), 0xb1da6631ea84033bull);
  EXPECT_EQ(log, (std::vector<int>{0, 200, 201, 1, 202, 2, 300, 301, 3, 100, 4, 5, 6, 102,
                                   104, 7, 106}));
}

TEST(Kernel, OrderFingerprintDeterministicAcrossRuns) {
  EXPECT_EQ(reference_fingerprint(), reference_fingerprint());
}

TEST(Kernel, OrderFingerprintUnchangedWithTracingAttached) {
  // Telemetry is pure observation: attaching a TraceSink to the kernel and
  // to the contended resource/event must not perturb the global event order.
  // Same golden as OrderFingerprintMatchesPreRefactorKernel, tracing on.
  telemetry::TraceSink sink;
  std::vector<int> traced_log, plain_log;
  EXPECT_EQ(reference_fingerprint(&traced_log, &sink), 0xb1da6631ea84033bull);
  EXPECT_EQ(reference_fingerprint(&plain_log), 0xb1da6631ea84033bull);
  EXPECT_EQ(traced_log, plain_log);
  // The contended resource queue and the event notifies were recorded.
  EXPECT_GT(sink.event_count(), 0u);
}

TEST(Kernel, OrderFingerprintSensitiveToOrder) {
  // Swapping two same-time events changes only their schedule order; the
  // fingerprint must see it.
  auto fp = [](bool swapped) {
    Kernel k;
    OneShots shots(k);
    int a = 0, b = 0;
    if (swapped) {
      shots.at(5, [&] { b = 1; });
      shots.at(5, [&] { a = 1; });
    } else {
      shots.at(5, [&] { a = 1; });
      shots.at(5, [&] { b = 1; });
    }
    shots.at(9, [] {});
    k.run();
    return k.order_fingerprint();
  };
  EXPECT_EQ(fp(false), fp(false));
  // Same-time swap keeps the (time, seq) stream identical — the fingerprint
  // tracks the schedule, so this *stays equal*; what must differ is a
  // different schedule shape.
  Kernel k;
  OneShots shots(k);
  shots.at(5, [] {});
  shots.at(9, [] {});
  k.run();
  EXPECT_NE(fp(false), k.order_fingerprint());
}

TEST(Clock, RejectsNonPositiveFrequency) {
  Kernel k;
  EXPECT_THROW(Clock(k, 0.0), std::invalid_argument);
  EXPECT_THROW(Clock(k, -1000.0), std::invalid_argument);
  // Above 1 THz the period quantizes to the 1 ps floor instead of 0.
  Clock thz(k, 5e6);  // 5 THz
  EXPECT_EQ(thz.period_ps(), 1u);
}

TEST(Clock, ToPsSaturatesInsteadOfWrapping) {
  // Regression: cycles * period_ps used to wrap on 64-bit overflow, turning
  // a huge-but-legal cycle count into a *small* delay that silently
  // reordered the event queue. It must clamp to kTimeMax instead.
  Kernel k;
  Clock slow(k, 1.0);  // 1 MHz -> 1'000'000 ps period
  EXPECT_EQ(slow.period_ps(), 1'000'000u);
  EXPECT_EQ(slow.to_ps(5), 5'000'000u);                        // exact well below the edge
  EXPECT_EQ(slow.to_ps(UINT64_MAX), kTimeMax);                 // total overflow
  EXPECT_EQ(slow.to_ps(UINT64_MAX / 1'000'000 + 1), kTimeMax); // just past the edge
  EXPECT_EQ(slow.to_ps(UINT64_MAX / 1'000'000),                // largest exact product
            (UINT64_MAX / 1'000'000) * 1'000'000u);
  // A 1 ps period never overflows: identity mapping across the full range.
  Clock thz(k, 5e6);
  EXPECT_EQ(thz.to_ps(UINT64_MAX), UINT64_MAX);
}

Process spawner_child(std::vector<int>& log, int id) {
  log.push_back(id);
  co_return;
}

Process spawner_parent(Kernel& k, std::vector<int>& log) {
  log.push_back(0);
  k.spawn(spawner_child(log, 1));
  co_await k.delay(1);
  log.push_back(2);
}

TEST(Process, NestedSpawnRunsAtCurrentTime) {
  Kernel k;
  std::vector<int> log;
  k.spawn(spawner_parent(k, log));
  k.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
}

// ------------------------------------------------------- awaited children

using AccessLog = std::vector<std::pair<int, Time>>;

// One worker's sequence written inline: per round, a delay and two holds of
// a shared resource, each followed by a log entry.
Process inline_worker(Kernel& k, Resource& r, int id, AccessLog& log) {
  for (int round = 0; round < 3; ++round) {
    co_await k.delay(1 + static_cast<Time>(id));
    co_await r.acquire();
    co_await k.delay(5);
    r.release();
    log.push_back({id, k.now()});
    co_await r.acquire();
    co_await k.delay(3);
    r.release();
    log.push_back({id, k.now()});
  }
}

// The same sequence as awaited children, two levels deep; note() finishes
// without ever suspending.
Process note(Kernel& k, int id, AccessLog& log) {
  log.push_back({id, k.now()});
  co_return;
}

Process access(Kernel& k, Resource& r, Time hold, int id, AccessLog& log) {
  co_await r.acquire();
  co_await k.delay(hold);
  r.release();
  co_await note(k, id, log);
}

Process round_of_accesses(Kernel& k, Resource& r, int id, AccessLog& log) {
  co_await k.delay(1 + static_cast<Time>(id));
  co_await access(k, r, 5, id, log);
  co_await access(k, r, 3, id, log);
}

Process awaiting_worker(Kernel& k, Resource& r, int id, AccessLog& log) {
  for (int round = 0; round < 3; ++round) co_await round_of_accesses(k, r, id, log);
}

TEST(Process, AwaitedChildrenMatchTheInlineSequence) {
  // Awaiting a child runs it inline and returns straight to the caller: no
  // event is scheduled and no seq is taken, so the (time, seq) stream of
  // four workers contending for one resource is the one the inline code
  // gives, down to order_fingerprint().
  struct Result {
    AccessLog log;
    uint64_t fingerprint, events;
    Time now;
  };
  auto run_workers = [](bool awaited) {
    Kernel k;
    Resource r(k, 1);
    Result res;
    for (int id = 0; id < 4; ++id) {
      k.spawn(awaited ? awaiting_worker(k, r, id, res.log) : inline_worker(k, r, id, res.log));
    }
    k.run();
    EXPECT_EQ(k.live_process_count(), 0u);
    EXPECT_EQ(r.available(), 1u);
    res.fingerprint = k.order_fingerprint();
    res.events = k.events_executed();
    res.now = k.now();
    return res;
  };
  const Result inline_run = run_workers(false);
  const Result awaited_run = run_workers(true);
  ASSERT_EQ(inline_run.log.size(), 24u);
  EXPECT_EQ(awaited_run.log, inline_run.log);
  EXPECT_EQ(awaited_run.fingerprint, inline_run.fingerprint);
  EXPECT_EQ(awaited_run.events, inline_run.events);
  EXPECT_EQ(awaited_run.now, inline_run.now);
}

TEST(Kernel, TeardownWithAwaitedChildQueuedOnResourceIsClean) {
  // A holder parks on the heap with the resource; a worker's child, two
  // awaits deep, queues behind it. Destroying the kernel destroys the
  // worker's frame, which owns its children through the awaited Process
  // temporaries; the sanitizer jobs fail on any leaked or doubly freed
  // frame and on any touch of the freed wait-queue node.
  auto k = std::make_unique<Kernel>();
  Resource r(*k, 1);
  AccessLog log;
  k->spawn(hold_resource(*k, r, log, 7, /*hold=*/1000));
  k->spawn(awaiting_worker(*k, r, 1, log));
  k->run(/*until=*/10);
  EXPECT_EQ(r.queue_length(), 1u);
  EXPECT_EQ(k->live_process_count(), 2u);
  k.reset();
  EXPECT_EQ(log, (AccessLog{{7, 0}}));
}

// Property-style sweep: N contenders on capacity-C resources always serialize
// into ceil(N/C) waves of the hold time.
class ResourceWaveTest : public ::testing::TestWithParam<std::pair<int, uint32_t>> {};

TEST_P(ResourceWaveTest, WaveTiming) {
  const auto [n, cap] = GetParam();
  Kernel k;
  Resource r(k, cap);
  std::vector<std::pair<int, Time>> log;
  for (int i = 0; i < n; ++i) k.spawn(hold_resource(k, r, log, i, 7));
  k.run();
  ASSERT_EQ(log.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Time expected_wave = static_cast<Time>(i / static_cast<int>(cap)) * 7;
    EXPECT_EQ(log[static_cast<size_t>(i)].second, expected_wave) << "contender " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Waves, ResourceWaveTest,
                         ::testing::Values(std::pair<int, uint32_t>{1, 1},
                                           std::pair<int, uint32_t>{8, 1},
                                           std::pair<int, uint32_t>{8, 2},
                                           std::pair<int, uint32_t>{9, 4},
                                           std::pair<int, uint32_t>{16, 16}));

// --------------------------------------------------------- queue edge cases

TEST(Kernel, SameTimeHeapEventsFireBeforeRingEvents) {
  // Three events at one timestamp: two posted from the past (heap), one
  // posted at that time by an event firing there (ring). Global (time, seq)
  // order must hold across the two tiers.
  Kernel k;
  OneShots shots(k);
  std::vector<int> order;
  const Time t = 1000;
  shots.at(t, [&order] { order.push_back(0); });
  shots.at(t - 50, [&k, &shots, &order, t] {
    shots.at(t, [&order] { order.push_back(1); });
    shots.at(t, [&k, &shots, &order] {
      order.push_back(2);
      shots.at(k.now(), [&order] { order.push_back(3); });  // ring
    });
  });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(k.now(), t);
}

TEST(Kernel, TimeMaxEventNeverFires) {
  // An event parked at kTimeMax lies beyond the end of simulated time: a
  // draining run() leaves it unfired — until is exclusive and never clamps
  // to kTimeMax — and leaves the clock where the last event put it.
  Kernel k;
  OneShots shots(k);
  int fired = 0;
  shots.at(kTimeMax, [&fired] { ++fired; });
  shots.at(3, [] {});
  k.run();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(k.empty());
  EXPECT_EQ(k.now(), 3u);
  k.run(/*until=*/kTimeMax);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(k.now(), 3u);
}

Process parked_sleeper(Kernel& k, Time delta) {
  co_await k.delay(delta);
}

TEST(Kernel, TeardownWithParkedHeapEntriesIsClean) {
  // Destroying a kernel with spawned frames parked in the heap must reclaim
  // every one; frames queued beside them that the kernel does not own (the
  // shape of a core's scan process) must be left alone for their owner to
  // free. The sanitizer jobs run this under ASan/LSan, so a leaked frame, a
  // double free or a touch of the owner's frame fails.
  auto k = std::make_unique<Kernel>();
  OneShots shots(*k);
  for (Time d : {Time{3}, Time{70}, Time{5000}, Time{1} << 20, Time{1} << 31}) {
    k->spawn(parked_sleeper(*k, d));
    shots.at(k->now() + d + 1, [] {});
  }
  k->run(/*until=*/2);  // every sleeper and one-shot still parked
  EXPECT_EQ(k->live_process_count(), 5u);
  EXPECT_FALSE(k->empty());
  k.reset();
}

// Counter-based hash: deterministic per (actor, step), independent of how
// the run is driven, so every driver sees byte-identical schedules.
uint64_t fuzz_mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ull + b + 0x7f4a7c15ull;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// Next-but-`skip` multiple of 2^bits strictly after `now`.
Time fuzz_snap(Time now, int bits, uint64_t skip) {
  return ((now >> bits) + 1 + skip) << bits;
}

// Time of an actor's `step`-th post, made at `now`: from same-time (ring)
// through near and far future (heap). Most posts snap to shared grids of
// three granularities, so actors that drift apart meet again on the coarse
// grid and then collide on the fine ones: that is what queues same-time
// events posted at different times together.
Time fuzz_time(uint64_t seed, int id, int step, Time now) {
  const uint64_t h = fuzz_mix(seed ^ static_cast<uint64_t>(id), static_cast<uint64_t>(step));
  const uint64_t r = h >> 8;
  switch (h % 8) {
    case 0: return now;                               // same time
    case 1: return now + 1 + r % 63;                  // off-grid, near
    case 2: return now + r % (Time{1} << 16);         // off-grid, mid
    case 3:
    case 4: return fuzz_snap(now, 6, r % 4);          // fine grid
    case 5:
    case 6: return fuzz_snap(now, 12, r % 4);         // mid grid
    default: return fuzz_snap(now, 20, r % 2);        // coarse grid, far
  }
}

// Self-rescheduling actor: fires `steps` times, each firing posting the next.
void fuzz_actor(Kernel& k, OneShots& shots, uint64_t seed, int id, int step, int steps) {
  if (step >= steps) return;
  shots.at(fuzz_time(seed, id, step, k.now()), [&k, &shots, seed, id, step, steps] {
    fuzz_actor(k, shots, seed, id, step + 1, steps);
  });
}

// The same actor streams on one ordered queue of (time, seq): the
// order_fingerprint() a kernel must reproduce.
uint64_t fuzz_reference_fingerprint(uint64_t seed, int actors, int steps) {
  using Post = std::tuple<Time, uint64_t, int, int>;  // time, seq, actor, next step
  std::priority_queue<Post, std::vector<Post>, std::greater<>> queue;
  uint64_t seq = 0;
  uint64_t fp = 0xcbf29ce484222325ull;
  for (int id = 0; id < actors; ++id) queue.emplace(fuzz_time(seed, id, 0, 0), seq++, id, 1);
  while (!queue.empty()) {
    const auto [t, s, id, step] = queue.top();
    queue.pop();
    fp = (fp ^ t) * 0x100000001b3ull;
    fp = (fp ^ s) * 0x100000001b3ull;
    if (step < steps) queue.emplace(fuzz_time(seed, id, step, t), seq++, id, step + 1);
  }
  return fp;
}

TEST(Kernel, SegmentedRunMatchesSingleRunFuzz) {
  // The same seeded actor streams driven two ways — a chain of run(until)
  // segments versus one draining run() — must fire the (time, seq) stream
  // of a single ordered queue. order_fingerprint() hashes every event
  // fired, so equality proves order identity; any divergence also derails
  // the actors' shared schedule and shows up as differing clocks or counts.
  // The segments exercise the until-clamp, including clamps onto a time
  // where events are queued, and resumption from a clamped clock.
  constexpr int kActors = 16;
  constexpr int kSteps = 200;
  for (uint64_t seed : {0xdecaf0ull, 0xbadc0ffeeull, 0x5eed5ull}) {
    const uint64_t reference = fuzz_reference_fingerprint(seed, kActors, kSteps);

    Kernel whole;
    OneShots whole_shots(whole);
    for (int id = 0; id < kActors; ++id) fuzz_actor(whole, whole_shots, seed, id, 0, kSteps);
    whole.run();

    Kernel segmented;
    OneShots segmented_shots(segmented);
    for (int id = 0; id < kActors; ++id) {
      fuzz_actor(segmented, segmented_shots, seed, id, 0, kSteps);
    }
    // Segments up to 2^24 ps, well before the streams end (~5e7 ps): a
    // quarter of log-spread length, the rest up to the next point of the
    // 64 ps or 4096 ps grid, where events are often queued; the clamp then
    // leaves them at now() for the next segment (50-100 times per seed).
    for (uint64_t segment = 0; segmented.now() < (Time{1} << 24); ++segment) {
      const uint64_t h = fuzz_mix(seed, 1000 + segment);
      const Time now = segmented.now();
      switch (h % 4) {
        case 0: segmented.run(now + 1 + (h >> 8) % (Time{1} << ((h >> 2) % 20))); break;
        case 1: segmented.run(fuzz_snap(now, 6, 0)); break;
        default: segmented.run(fuzz_snap(now, 12, 0)); break;
      }
    }
    // Work must remain, or a final until-clamp could leave now() past the
    // last event and the clocks would differ for a reason other than order.
    ASSERT_FALSE(segmented.empty());
    segmented.run();

    EXPECT_EQ(whole.order_fingerprint(), reference);
    EXPECT_EQ(segmented.order_fingerprint(), reference);
    EXPECT_EQ(segmented.now(), whole.now());
    EXPECT_EQ(segmented.events_executed(), whole.events_executed());
    EXPECT_EQ(whole.events_executed(), uint64_t{kActors} * kSteps);
  }
}

}  // namespace
}  // namespace pim::sim
