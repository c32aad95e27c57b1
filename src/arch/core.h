// Core model (paper Fig. 2b): fetch/decode -> dispatch -> re-order buffer ->
// four execution units (matrix / vector / transfer / scalar) over a local
// memory and a scalar register file.
//
// Execution model:
//  * Instructions are fetched and dispatched in order, one per
//    fetch_decode_cycles, into the ROB (capacity = rob_size). A full ROB
//    stalls dispatch — this is the knob the paper sweeps in Fig. 4.
//  * An entry issues to its unit when (a) no data hazard against any older
//    in-flight entry remains (local-memory ranges + scalar registers, all of
//    RAW/WAR/WAW), and (b) no older instruction of the same class is still
//    un-issued (units process their class in program order).
//  * Issue is event-driven, in the issue-window/wakeup shape of SESC. Each
//    class keeps a FIFO of its Waiting entries. When an entry first reaches
//    the head of its FIFO it counts the older non-Done entries it conflicts
//    with (`deps`) and joins each one's wakeup list; a completing entry
//    decrements the deps of everything on its list. A scan then issues the
//    oldest class head with deps == 0, repeatedly, until no head qualifies.
//    Done is monotonic and entries only arrive younger, so deps always equals
//    the number of older non-Done conflicts, and each scan spawns the same
//    entries in the same ROB order as a full walk of the ROB would.
//  * Units execute concurrently; completion is out of order; retirement is
//    in order from the ROB head.
//  * The matrix unit admits concurrent MVMs on *different* crossbar groups;
//    MVMs on the same group serialize on the group — the "structure hazard"
//    the paper names as the reason ROB scaling flattens (Fig. 4).
//  * Transfers are synchronized rendezvous through the mesh NoC (see noc.h).
//
// The core is also *functional*: local memory holds real bytes, units
// compute real int8/int32 arithmetic, so simulated inference results can be
// checked against the nn reference executor bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "arch/noc.h"
#include "arch/stats.h"
#include "config/arch_config.h"
#include "isa/program.h"
#include "sim/kernel.h"

namespace pim::arch {

class Chip;

class Core {
 public:
  Core(sim::Kernel& kernel, const config::ArchConfig& cfg, uint16_t id, Chip& chip,
       const isa::CoreProgram& program, RunStats& stats);
  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  /// Spawn the dispatch process. No-op for a core with an empty program.
  void start();

  uint16_t id() const { return id_; }
  bool halted() const { return halted_; }
  bool started() const { return started_; }

  /// Functional local memory. Empty in timing-only runs (sim.functional ==
  /// false): contents are never read or written there, so the backing
  /// store is not allocated.
  std::vector<uint8_t>& lm() { return lm_; }
  const std::vector<uint8_t>& lm() const { return lm_; }

  CoreStats& stats() { return my_stats_; }

 private:
  struct Range {
    uint32_t addr = 0;
    uint64_t bytes = 0;
    bool overlaps(const Range& o) const {
      return bytes != 0 && o.bytes != 0 && addr < o.addr + o.bytes && o.addr < addr + bytes;
    }
  };

  static constexpr uint32_t kNoWakeup = UINT32_MAX;  ///< end of a wakeup list

  struct RobEntry {
    const isa::Instruction* instr = nullptr;
    isa::InstrClass cls = isa::InstrClass::Scalar;
    enum class State { Waiting, Executing, Done } state = State::Waiting;
    uint64_t seq = 0;     ///< program-order dispatch index
    bool armed = false;   ///< deps counted (once, at the head of its class FIFO)
    uint32_t deps = 0;    ///< older non-Done entries this one conflicts with
    uint32_t wakeups = kNoWakeup;  ///< head of the list of younger entries waiting on it
    Range reads[2];
    int read_count = 0;
    Range write;
    uint32_t reg_reads = 0;   ///< bitmask of registers read
    uint32_t reg_writes = 0;  ///< bitmask of registers written
    sim::Time issue_ps = 0;
    LayerStats* layer = nullptr;  ///< stats_.layers entry, looked up at issue
    bool is_branch = false;
  };

  /// One edge of a wakeup list: `waiter` counts the list's owner in its deps.
  /// Edges live in a per-core pool (wakeup_pool_) linked by index.
  struct Wakeup {
    RobEntry* waiter = nullptr;
    uint32_t next = kNoWakeup;
  };

  // -- processes ------------------------------------------------------------
  /// One local-memory access of `bytes`: holds the single port for latency +
  /// serialization, then charges its energy. The only user of lm_port_,
  /// which remote senders delivering into this core share.
  sim::Process lm_access(uint64_t bytes);
  sim::Process dispatch_proc();
  sim::Process exec_matrix(RobEntry& e);
  sim::Process exec_vector(RobEntry& e);
  sim::Process exec_transfer(RobEntry& e);
  sim::Process exec_scalar(RobEntry& e);
  /// Runs scan() once per resumption, forever. Never spawned: request_scan()
  /// resumes it through the kernel, and scan_proc_ owns the frame.
  sim::Process scan_loop();

  // -- ROB machinery ----------------------------------------------------------
  void fill_hazard_info(RobEntry& e) const;
  /// True when `e` must wait for the older entry `o` (RAW/WAR/WAW on local
  /// memory or registers).
  static bool conflicts(const RobEntry& e, const RobEntry& o);
  /// Count `e`'s deps against the older non-Done entries and join their
  /// wakeup lists.
  void arm(RobEntry& e);
  /// Queue one scan at the current time, unless one is already queued.
  void request_scan();
  void scan();  ///< retire from head, then issue ready class heads
  void issue(RobEntry& e);
  void complete(RobEntry& e);

  // -- helpers ----------------------------------------------------------------
  const isa::GroupDef& group(uint16_t id) const;
  /// Book a transfer's wire time (wire_start to now) and bytes to its layer.
  void account_wire(const RobEntry& e, sim::Time wire_start, uint64_t bytes);

  sim::Kernel& kernel_;
  const config::ArchConfig& cfg_;
  const uint16_t id_;
  Chip& chip_;
  // Tracing (owned by the tool / Chip; null = off). unit_tids_ is indexed by
  // InstrClass; dispatch_tid_ carries ROB-full stall spans.
  telemetry::TraceSink* trace_ = nullptr;
  std::array<uint32_t, 4> unit_tids_{};
  uint32_t dispatch_tid_ = 0;
  const isa::CoreProgram& program_;
  RunStats& stats_;
  CoreStats& my_stats_;

  sim::Clock clock_;
  std::vector<uint8_t> lm_;
  std::array<int32_t, 32> regs_{};

  // Structural resources.
  sim::Resource lm_port_;
  sim::Resource vector_unit_;
  sim::Resource transfer_unit_;
  sim::Resource scalar_unit_;
  sim::Resource adc_pool_;
  std::vector<std::unique_ptr<sim::Resource>> group_locks_;  // index: group id

  // ROB. Entries never move (deque push_back/pop_front keep references), so
  // the class FIFOs, wakeup edges and exec processes point into it.
  std::deque<RobEntry> rob_;
  uint64_t next_seq_ = 0;
  std::array<std::deque<RobEntry*>, 4> waiting_;  ///< per InstrClass, in program order
  std::vector<Wakeup> wakeup_pool_;
  uint32_t free_wakeup_ = kNoWakeup;  ///< head of the pool's free list
  sim::Event rob_slot_freed_;
  sim::Event branch_resolved_;
  int32_t branch_target_ = -1;  ///< -1 = fall-through, else new pc
  sim::Process scan_proc_;  ///< the scan_loop() frame, created by start()
  bool scan_scheduled_ = false;
  bool dispatch_done_ = false;
  bool halted_ = false;
  bool started_ = false;
};

}  // namespace pim::arch
