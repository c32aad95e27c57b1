// Kernel stress — raw event throughput of the pim::sim scheduler.
//
// Every simulated picosecond in this repository funnels through
// sim::Kernel::run(), so scheduler throughput multiplies every bench,
// every pimbatch sweep and every pimdse evaluation. This harness measures
// events/second on four synthetic workloads that isolate the kernel's hot
// paths from the architecture model:
//
//   ping_pong   two processes notifying each other through a pair of
//               Events — the same-delta (scheduled-at-now) fast path.
//   fan_out     one notifier waking N waiters per round — Event waiter
//               bookkeeping and bulk same-delta scheduling.
//   contention  P processes fighting over a small Resource — FIFO handoff
//               (release at now) plus short heap-ordered delays.
//   timers      P processes sleeping for varied future deltas — the
//               binary-heap (future-time) path.
//
// Besides the human-readable table it writes BENCH_kernel.json (path
// overridable via PIM_BENCH_JSON) so successive PRs have a machine-readable
// perf trajectory to diff against. PIM_BENCH_QUICK=1 shrinks the workloads
// for smoke testing.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "json/json.h"
#include "sim/kernel.h"
#include "stats/report.h"

namespace {

using pim::sim::Event;
using pim::sim::Kernel;
using pim::sim::Process;
using pim::sim::Resource;
using pim::sim::Time;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

bool quick() {
  const char* env = std::getenv("PIM_BENCH_QUICK");
  return env != nullptr && std::atoi(env) != 0;
}

// ------------------------------------------------------------- workloads

Process ping(Event& my, Event& other, uint64_t rounds) {
  for (uint64_t i = 0; i < rounds; ++i) {
    other.notify();
    co_await my;
  }
}

Process pong(Event& my, Event& other, uint64_t rounds) {
  for (uint64_t i = 0; i < rounds; ++i) {
    co_await my;
    other.notify();
  }
}

uint64_t run_ping_pong(Kernel& k, uint64_t rounds) {
  Event ea(k), eb(k);
  // pong first: it must be waiting before ping's first notify arrives.
  k.spawn(pong(eb, ea, rounds));
  k.spawn(ping(ea, eb, rounds));
  k.run();
  return k.events_executed();
}

Process fan_waiter(Kernel& k, Event& e, uint64_t rounds) {
  for (uint64_t i = 0; i < rounds; ++i) {
    co_await e;
  }
  (void)k;
}

Process fan_notifier(Kernel& k, Event& e, uint64_t rounds) {
  for (uint64_t i = 0; i < rounds; ++i) {
    co_await k.delay(1);
    e.notify();
  }
}

uint64_t run_fan_out(Kernel& k, uint64_t waiters, uint64_t rounds) {
  Event e(k);
  for (uint64_t w = 0; w < waiters; ++w) k.spawn(fan_waiter(k, e, rounds));
  k.spawn(fan_notifier(k, e, rounds));
  k.run();
  return k.events_executed();
}

Process contender(Kernel& k, Resource& r, uint64_t iters) {
  for (uint64_t i = 0; i < iters; ++i) {
    co_await r.acquire();
    co_await k.delay(1);
    r.release();
  }
}

uint64_t run_contention(Kernel& k, uint64_t procs, uint32_t capacity, uint64_t iters) {
  Resource r(k, capacity);
  for (uint64_t p = 0; p < procs; ++p) k.spawn(contender(k, r, iters));
  k.run();
  return k.events_executed();
}

Process timer_proc(Kernel& k, uint64_t seed, uint64_t iters) {
  // Cheap deterministic per-process delta pattern; spreads wakeups across
  // the time axis so the pending-queue stays deep.
  uint64_t state = seed * 2654435761u + 1;
  for (uint64_t i = 0; i < iters; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    co_await k.delay(1 + (state >> 33) % 1024);
  }
}

uint64_t run_timers(Kernel& k, uint64_t procs, uint64_t iters) {
  for (uint64_t p = 0; p < procs; ++p) k.spawn(timer_proc(k, p, iters));
  k.run();
  return k.events_executed();
}

struct Measurement {
  std::string name;
  uint64_t events = 0;
  double wall_ms = 0.0;
  double events_per_s() const { return wall_ms > 0.0 ? 1e3 * static_cast<double>(events) / wall_ms : 0.0; }
};

template <typename Fn>
Measurement measure(const std::string& name, Fn&& body) {
  Measurement m;
  m.name = name;
  const auto start = std::chrono::steady_clock::now();
  Kernel k;
  m.events = body(k);
  m.wall_ms = seconds_since(start) * 1e3;
  return m;
}

}  // namespace

int main() {
  using namespace pim;

  const uint64_t scale = quick() ? 1 : 20;
  std::printf("==========================================================================\n");
  std::printf("Kernel stress — raw event throughput of the pim::sim scheduler\n");
  std::printf("(synthetic hot-path workloads; scale x%llu%s)\n",
              static_cast<unsigned long long>(scale), quick() ? " [quick]" : "");
  std::printf("==========================================================================\n");

  std::vector<Measurement> ms;
  ms.push_back(measure("ping_pong",
                       [&](Kernel& k) { return run_ping_pong(k, 50'000 * scale); }));
  ms.push_back(measure("fan_out", [&](Kernel& k) {
    return run_fan_out(k, /*waiters=*/64, 1'000 * scale);
  }));
  ms.push_back(measure("contention", [&](Kernel& k) {
    return run_contention(k, /*procs=*/32, /*capacity=*/4, 1'000 * scale);
  }));
  ms.push_back(measure("timers", [&](Kernel& k) {
    return run_timers(k, /*procs=*/256, 200 * scale);
  }));

  std::vector<std::vector<std::string>> rows;
  uint64_t total_events = 0;
  double total_ms = 0.0;
  for (const Measurement& m : ms) {
    rows.push_back({m.name, std::to_string(m.events), stats::fmt(m.wall_ms),
                    stats::fmt(m.events_per_s() / 1e6)});
    total_events += m.events;
    total_ms += m.wall_ms;
  }
  const double total_eps = total_ms > 0.0 ? 1e3 * static_cast<double>(total_events) / total_ms : 0.0;
  rows.push_back({"TOTAL", std::to_string(total_events), stats::fmt(total_ms),
                  stats::fmt(total_eps / 1e6)});
  std::printf("%s\n", stats::markdown_table({"workload", "events", "wall (ms)", "Mevents/sec"},
                                            rows)
                          .c_str());
  std::printf("total: %.2f Mevents/sec\n", total_eps / 1e6);

  // Machine-readable trajectory. Best-effort: an unwritable path must not
  // discard the table above.
  const char* json_env = std::getenv("PIM_BENCH_JSON");
  const std::string json_path = json_env != nullptr ? json_env : "BENCH_kernel.json";
  json::Value out;
  out["bench"] = json::Value("kernel_stress");
  out["scale"] = json::Value(scale);
  json::Array arr;
  for (const Measurement& m : ms) {
    json::Value v;
    v["workload"] = json::Value(m.name);
    v["events"] = json::Value(m.events);
    v["wall_ms"] = json::Value(m.wall_ms);
    v["events_per_s"] = json::Value(m.events_per_s());
    arr.push_back(std::move(v));
  }
  out["measurements"] = json::Value(std::move(arr));
  out["total_events_per_s"] = json::Value(total_eps);
  try {
    json::write_file(json_path, out);
    std::printf("wrote %s\n", json_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kernel_stress: cannot write %s: %s\n", json_path.c_str(), e.what());
  }
  return 0;
}
