// Unit tests for the cycle-accurate architecture model: NoC routing and
// contention, core execution of hand-written ISA programs (all four units),
// hazards, rendezvous transfers, global memory, deadlock detection.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "arch/chip.h"
#include "config/arch_config.h"
#include "isa/assembler.h"
#include "json/json.h"
#include "telemetry/telemetry.h"

namespace pim::arch {
namespace {

using isa::DType;
using isa::Instruction;
using isa::Opcode;
using isa::Program;

config::ArchConfig tiny_cfg() {
  config::ArchConfig cfg = config::ArchConfig::tiny();
  cfg.sim.functional = true;
  return cfg;
}

Instruction make(Opcode op) {
  Instruction in;
  in.op = op;
  return in;
}

Program empty_program(size_t cores) {
  Program p;
  p.cores.resize(cores);
  return p;
}

void push_halt(Program& p, size_t core) { p.cores[core].code.push_back(make(Opcode::HALT)); }

// -------------------------------------------------------------------- NoC

TEST(Noc, XyRouteLengths) {
  config::ArchConfig cfg = tiny_cfg();  // 2x2 mesh
  sim::Kernel k;
  EnergyMeter e;
  Noc noc(k, cfg, e);
  EXPECT_EQ(noc.route(0, 0).size(), 0u);
  EXPECT_EQ(noc.route(0, 1).size(), 1u);  // one hop east
  EXPECT_EQ(noc.route(0, 3).size(), 2u);  // east then south
  EXPECT_EQ(noc.route(3, 0).size(), 2u);
  EXPECT_EQ(noc.hop_count(0, 3), 2u);
  EXPECT_EQ(noc.hop_count(1, 2), 2u);
}

TEST(Noc, GlobalMemoryPortRoutesThroughRouter0) {
  config::ArchConfig cfg = tiny_cfg();
  sim::Kernel k;
  EnergyMeter e;
  Noc noc(k, cfg, e);
  EXPECT_EQ(noc.route(Noc::kGlobalMemNode, 0).size(), 1u);  // just the memory link
  EXPECT_EQ(noc.route(Noc::kGlobalMemNode, 3).size(), 3u);
  EXPECT_EQ(noc.hop_count(3, Noc::kGlobalMemNode), 3u);
}

TEST(Noc, ChargeAccountsEnergyAndBytes) {
  config::ArchConfig cfg = tiny_cfg();
  sim::Kernel k;
  EnergyMeter e;
  Noc noc(k, cfg, e);
  k.spawn(noc.transfer(Noc::kGlobalMemNode, 3, 100));  // memory link + 2 mesh hops
  k.run();
  EXPECT_EQ(noc.total_byte_hops(), 300u);
  EXPECT_EQ(noc.total_messages(), 1u);
  EXPECT_DOUBLE_EQ(e.get(Component::Noc), cfg.noc.energy_pj_per_byte_hop * 300.0);
  for (Link* l : noc.route(Noc::kGlobalMemNode, 3)) EXPECT_EQ(l->bytes_carried, 100u);
}

// ----------------------------------------------------------------- scalar

TEST(Core, ScalarLoopComputesSum) {
  // sum = 1 + 2 + ... + 10, left in r3; verified via the register-visible
  // side effect of a store... registers are internal, so expose the result
  // as a GSTORE of a vector initialized via VSET+VADDI chain instead.
  // Simpler: compute via scalar loop, then use r-value-independent check:
  // the loop must retire the right number of instructions.
  Program p = empty_program(1);
  p.cores[0].code = isa::assemble(R"(
      ldi r1, 10
      ldi r2, 0
      ldi r3, 0
    loop:
      saddi r2, r2, 1
      sadd r3, r3, r2
      bne r2, r1, loop
      halt
  )").cores[0].code;
  config::ArchConfig cfg = tiny_cfg();
  Chip chip(cfg, p);
  RunStats stats = chip.run();
  EXPECT_TRUE(chip.finished());
  // 3 ldi + 10 iterations x 3 + halt = 34 retired instructions.
  EXPECT_EQ(stats.cores[0].instructions_retired, 34u);
}

TEST(Core, TakenAndNotTakenBranches) {
  Program p = empty_program(1);
  p.cores[0].code = isa::assemble(R"(
      ldi r1, 1
      beq r1, r0, skip   # not taken
      saddi r2, r2, 1
    skip:
      jmp end
      saddi r2, r2, 100  # skipped
    end:
      halt
  )").cores[0].code;
  Chip chip(tiny_cfg(), p);
  RunStats stats = chip.run();
  EXPECT_TRUE(chip.finished());
  EXPECT_EQ(stats.cores[0].instructions_retired, 5u);  // ldi,beq,saddi,jmp,halt
}

// ----------------------------------------------------------------- vector

/// Runs a single-core program with `pre` preloaded into local memory and
/// returns the local memory after completion.
std::vector<uint8_t> run_single_core(const std::vector<Instruction>& code,
                                     const std::vector<isa::DataSegment>& segs = {},
                                     config::ArchConfig cfg = tiny_cfg(),
                                     sim::Time* latency = nullptr) {
  Program p = empty_program(1);
  p.cores[0].code = code;
  p.cores[0].code.push_back(make(Opcode::HALT));
  p.cores[0].lm_init = segs;
  Chip chip(cfg, p);
  RunStats stats = chip.run();
  EXPECT_TRUE(chip.finished());
  if (latency != nullptr) *latency = stats.total_ps;
  return chip.core(0).lm();
}

isa::DataSegment seg_i32(uint32_t addr, std::vector<int32_t> vals) {
  isa::DataSegment s;
  s.addr = addr;
  s.bytes.resize(vals.size() * 4);
  std::memcpy(s.bytes.data(), vals.data(), s.bytes.size());
  return s;
}

std::vector<int32_t> read_i32(const std::vector<uint8_t>& lm, uint32_t addr, size_t n) {
  std::vector<int32_t> out(n);
  std::memcpy(out.data(), lm.data() + addr, n * 4);
  return out;
}

TEST(VectorUnit, AddI32) {
  Instruction add = make(Opcode::VADD);
  add.dtype = DType::I32;
  add.dst_addr = 0x200;
  add.src1_addr = 0x0;
  add.src2_addr = 0x100;
  add.len = 4;
  auto lm = run_single_core({add}, {seg_i32(0x0, {1, -2, 3, 1000000}),
                                    seg_i32(0x100, {10, 20, -30, 1000000})});
  EXPECT_EQ(read_i32(lm, 0x200, 4), (std::vector<int32_t>{11, 18, -27, 2000000}));
}

TEST(VectorUnit, AddI8Saturates) {
  isa::DataSegment a;
  a.addr = 0;
  a.bytes = {100, 200 /* -56 */, 127};
  isa::DataSegment b;
  b.addr = 0x40;
  b.bytes = {100, 200, 1};
  Instruction add = make(Opcode::VADD);
  add.dtype = DType::I8;
  add.dst_addr = 0x80;
  add.src1_addr = 0;
  add.src2_addr = 0x40;
  add.len = 3;
  auto lm = run_single_core({add}, {a, b});
  EXPECT_EQ(static_cast<int8_t>(lm[0x80]), 127);    // 100+100 saturates
  EXPECT_EQ(static_cast<int8_t>(lm[0x81]), -112);   // -56 + -56
  EXPECT_EQ(static_cast<int8_t>(lm[0x82]), 127);    // 127+1 saturates
}

TEST(VectorUnit, QuantDequantRoundTrip) {
  Instruction vq = make(Opcode::VQUANT);
  vq.dst_addr = 0x100;
  vq.src1_addr = 0x0;
  vq.imm = 4;
  vq.len = 4;
  Instruction vd = make(Opcode::VDEQUANT);
  vd.dst_addr = 0x140;
  vd.src1_addr = 0x100;
  vd.len = 4;
  auto lm = run_single_core({vq, vd}, {seg_i32(0x0, {160, -160, 8, 100000})});
  // 160>>4=10, -160>>4=-10, 8>>4 rounds to 1 (0.5 away from zero), 100000>>4 sat 127
  EXPECT_EQ(read_i32(lm, 0x140, 4), (std::vector<int32_t>{10, -10, 1, 127}));
}

TEST(VectorUnit, ReluShrDivi) {
  Instruction relu = make(Opcode::VRELU);
  relu.dtype = DType::I32;
  relu.dst_addr = 0x100;
  relu.src1_addr = 0;
  relu.len = 3;
  Instruction shr = make(Opcode::VSHR);
  shr.dtype = DType::I32;
  shr.dst_addr = 0x200;
  shr.src1_addr = 0;
  shr.imm = 1;
  shr.len = 3;
  Instruction divi = make(Opcode::VDIVI);
  divi.dtype = DType::I32;
  divi.dst_addr = 0x300;
  divi.src1_addr = 0;
  divi.imm = 4;
  divi.len = 3;
  auto lm = run_single_core({relu, shr, divi}, {seg_i32(0, {-8, 0, 9})});
  EXPECT_EQ(read_i32(lm, 0x100, 3), (std::vector<int32_t>{0, 0, 9}));
  EXPECT_EQ(read_i32(lm, 0x200, 3), (std::vector<int32_t>{-4, 0, 5}));  // rounded
  EXPECT_EQ(read_i32(lm, 0x300, 3), (std::vector<int32_t>{-1, 0, 2}));  // (x+2)/4 trunc
}

TEST(VectorUnit, SetMovMaxMin) {
  Instruction vset = make(Opcode::VSET);
  vset.dtype = DType::I32;
  vset.dst_addr = 0x0;
  vset.imm = 7;
  vset.len = 4;
  Instruction vmov = make(Opcode::VMOV);
  vmov.dtype = DType::I32;
  vmov.dst_addr = 0x100;
  vmov.src1_addr = 0x0;
  vmov.len = 4;
  Instruction vmax = make(Opcode::VMAX);
  vmax.dtype = DType::I32;
  vmax.dst_addr = 0x200;
  vmax.src1_addr = 0x100;
  vmax.src2_addr = 0x300;
  vmax.len = 4;
  Instruction vmin = make(Opcode::VMIN);
  vmin.dtype = DType::I32;
  vmin.dst_addr = 0x240;
  vmin.src1_addr = 0x100;
  vmin.src2_addr = 0x300;
  vmin.len = 4;
  auto lm = run_single_core({vset, vmov, vmax, vmin}, {seg_i32(0x300, {1, 9, 7, -1})});
  EXPECT_EQ(read_i32(lm, 0x100, 4), (std::vector<int32_t>{7, 7, 7, 7}));
  EXPECT_EQ(read_i32(lm, 0x200, 4), (std::vector<int32_t>{7, 9, 7, 7}));
  EXPECT_EQ(read_i32(lm, 0x240, 4), (std::vector<int32_t>{1, 7, 7, -1}));
}

// ------------------------------------------------------------------ matrix

TEST(MatrixUnit, MvmComputesGroupGemv) {
  Program p = empty_program(1);
  isa::GroupDef g;
  g.id = 0;
  g.in_len = 3;
  g.out_len = 2;
  g.xbar_count = 1;
  // W row-major [in][out]: rows {1,2},{3,4},{5,6}
  g.weights = {1, 2, 3, 4, 5, 6};
  p.cores[0].groups.push_back(g);
  isa::DataSegment in;
  in.addr = 0;
  in.bytes = {1, 0xFF /* -1 */, 2};
  p.cores[0].lm_init.push_back(in);
  Instruction mvm = make(Opcode::MVM);
  mvm.group = 0;
  mvm.src1_addr = 0;
  mvm.dst_addr = 0x100;
  mvm.len = 3;
  p.cores[0].code.push_back(mvm);
  push_halt(p, 0);
  Chip chip(tiny_cfg(), p);
  chip.run();
  EXPECT_TRUE(chip.finished());
  // out = [1*1 -1*3 + 2*5, 1*2 -1*4 + 2*6] = [8, 10]
  auto lm = chip.core(0).lm();
  int32_t out[2];
  std::memcpy(out, lm.data() + 0x100, 8);
  EXPECT_EQ(out[0], 8);
  EXPECT_EQ(out[1], 10);
  EXPECT_EQ(chip.stats().cores[0].matrix.ops, 1u);
  EXPECT_GT(chip.stats().energy.get(Component::Xbar), 0.0);
  EXPECT_GT(chip.stats().energy.get(Component::Adc), 0.0);
}

TEST(MatrixUnit, SameGroupSerializesDifferentGroupsOverlap) {
  auto build = [](bool same_group) {
    Program p = empty_program(1);
    for (uint16_t gid = 0; gid < 2; ++gid) {
      isa::GroupDef g;
      g.id = gid;
      g.in_len = 16;
      g.out_len = 16;
      g.xbar_count = 1;
      p.cores[0].groups.push_back(g);
    }
    for (int i = 0; i < 2; ++i) {
      Instruction mvm = make(Opcode::MVM);
      mvm.group = same_group ? 0 : static_cast<uint16_t>(i);
      mvm.src1_addr = 0;
      mvm.dst_addr = 0x100 + 0x100 * static_cast<uint32_t>(i);
      mvm.len = 16;
      p.cores[0].code.push_back(mvm);
    }
    push_halt(p, 0);
    return p;
  };
  config::ArchConfig cfg = tiny_cfg();
  cfg.core.rob_size = 8;
  Program same = build(true), diff = build(false);
  Chip c1(cfg, same), c2(cfg, diff);
  const sim::Time t_same = c1.run().total_ps;
  const sim::Time t_diff = c2.run().total_ps;
  // The structure hazard (paper Fig. 4): same group is markedly slower.
  EXPECT_GT(t_same, t_diff + t_diff / 2);
}

TEST(MatrixUnit, AdcSharingSerializes) {
  auto run_with_adc = [](uint32_t adcs) {
    config::ArchConfig cfg = tiny_cfg();
    cfg.core.matrix.adc_count = adcs;
    cfg.core.rob_size = 8;
    Program p = empty_program(1);
    for (uint16_t gid = 0; gid < 4; ++gid) {
      isa::GroupDef g;
      g.id = gid;
      g.in_len = 32;
      g.out_len = 32;
      g.xbar_count = 1;
      p.cores[0].groups.push_back(g);
      Instruction mvm = make(Opcode::MVM);
      mvm.group = gid;
      mvm.src1_addr = 0;
      mvm.dst_addr = 0x100 + 0x100 * gid;
      mvm.len = 32;
      p.cores[0].code.push_back(mvm);
    }
    push_halt(p, 0);
    Chip chip(cfg, p);
    return chip.run().total_ps;
  };
  EXPECT_GT(run_with_adc(1), run_with_adc(4));
}

// ---------------------------------------------------------------- transfer

TEST(Transfer, SendRecvMovesDataAcrossCores) {
  Program p = empty_program(4);
  isa::DataSegment seg;
  seg.addr = 0;
  seg.bytes = {1, 2, 3, 4, 5, 6, 7, 8};
  p.cores[0].lm_init.push_back(seg);
  Instruction snd = make(Opcode::SEND);
  snd.core = 3;
  snd.tag = 0;
  snd.src1_addr = 0;
  snd.len = 8;
  p.cores[0].code.push_back(snd);
  push_halt(p, 0);
  Instruction rcv = make(Opcode::RECV);
  rcv.core = 0;
  rcv.tag = 0;
  rcv.dst_addr = 0x40;
  rcv.len = 8;
  p.cores[3].code.push_back(rcv);
  push_halt(p, 3);
  Chip chip(tiny_cfg(), p);
  RunStats stats = chip.run();
  EXPECT_TRUE(chip.finished());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(chip.core(3).lm()[0x40 + static_cast<size_t>(i)], static_cast<uint8_t>(i + 1));
  }
  EXPECT_EQ(stats.cores[0].bytes_sent, 8u);
  EXPECT_EQ(stats.cores[3].bytes_received, 8u);
  EXPECT_GT(stats.energy.get(Component::Noc), 0.0);
}

TEST(Transfer, RendezvousBlocksSenderUntilRecvPosted) {
  // Receiver delays its RECV with a long scalar spin; SEND must wait.
  Program p = empty_program(4);
  Instruction snd = make(Opcode::SEND);
  snd.core = 1;
  snd.tag = 0;
  snd.src1_addr = 0;
  snd.len = 4;
  p.cores[0].code.push_back(snd);
  push_halt(p, 0);
  auto spin = isa::assemble(R"(
      ldi r1, 2000
      ldi r2, 0
    loop:
      saddi r2, r2, 1
      bne r2, r1, loop
  )").cores[0].code;
  p.cores[1].code = spin;
  Instruction rcv = make(Opcode::RECV);
  rcv.core = 0;
  rcv.tag = 0;
  rcv.dst_addr = 0x40;
  rcv.len = 4;
  p.cores[1].code.push_back(rcv);
  push_halt(p, 1);
  config::ArchConfig cfg = tiny_cfg();
  Chip chip(cfg, p);
  RunStats stats = chip.run();
  EXPECT_TRUE(chip.finished());
  // Core 0 halts only after the rendezvous completes -> after the spin.
  const sim::Time spin_time =
      static_cast<sim::Time>(2000 * 2) * 1000;  // ~2 instr/iter, 1ns cycle
  EXPECT_GT(stats.cores[0].halt_time_ps, spin_time / 2);
}

TEST(Transfer, MismatchedRecvDeadlocksAndIsReported) {
  Program p = empty_program(4);
  Instruction rcv = make(Opcode::RECV);
  rcv.core = 2;
  rcv.tag = 0;
  rcv.dst_addr = 0;
  rcv.len = 4;
  p.cores[1].code.push_back(rcv);
  push_halt(p, 1);
  // NOTE: verify() would flag this program; bypass it by building the chip
  // with a matching-but-never-executed send... instead use max_time budget.
  Instruction snd = make(Opcode::SEND);
  snd.core = 1;
  snd.tag = 0;
  snd.src1_addr = 0;
  snd.len = 4;
  // Put the matching SEND after an infinite-ish spin so it never fires
  // within the budget.
  auto spin = isa::assemble(R"(
      ldi r1, 1000000
      ldi r2, 0
    loop:
      saddi r2, r2, 1
      bne r2, r1, loop
  )").cores[0].code;
  p.cores[2].code = spin;
  p.cores[2].code.push_back(snd);
  push_halt(p, 2);
  config::ArchConfig cfg = tiny_cfg();
  cfg.sim.max_time_ps = 1'000'000'000;  // 1 ms budget
  Chip chip(cfg, p);
  chip.run();
  EXPECT_FALSE(chip.finished());
}

TEST(Transfer, GloadGstoreRoundTripThroughGlobalMemory) {
  Program p = empty_program(4);
  Instruction gl = make(Opcode::GLOAD);
  gl.dst_addr = 0x0;
  gl.imm = 0x1000;
  gl.len = 16;
  Instruction gs = make(Opcode::GSTORE);
  gs.src1_addr = 0x0;
  gs.imm = 0x2000;
  gs.len = 16;
  p.cores[2].code = {gl, gs};
  push_halt(p, 2);
  Chip chip(tiny_cfg(), p);
  std::vector<uint8_t> input(16);
  for (size_t i = 0; i < 16; ++i) input[i] = static_cast<uint8_t>(0xA0 + i);
  chip.write_global(0x1000, input);
  chip.run();
  EXPECT_TRUE(chip.finished());
  EXPECT_EQ(chip.read_global(0x2000, 16), input);
  EXPECT_GT(chip.stats().energy.get(Component::GlobalMemory), 0.0);
}

// ------------------------------------------------------------------ hazards

TEST(Hazards, RawChainPreservesFunctionalOrder) {
  // v[0x100] = set(3); v[0x200] = v[0x100] + v[0x100]  -> 6, even with a
  // large ROB that would otherwise reorder.
  Instruction vset = make(Opcode::VSET);
  vset.dtype = DType::I32;
  vset.dst_addr = 0x100;
  vset.imm = 3;
  vset.len = 4;
  Instruction vadd = make(Opcode::VADD);
  vadd.dtype = DType::I32;
  vadd.dst_addr = 0x200;
  vadd.src1_addr = 0x100;
  vadd.src2_addr = 0x100;
  vadd.len = 4;
  config::ArchConfig cfg = tiny_cfg();
  cfg.core.rob_size = 8;
  auto lm = run_single_core({vset, vadd}, {}, cfg);
  EXPECT_EQ(read_i32(lm, 0x200, 4), (std::vector<int32_t>{6, 6, 6, 6}));
}

TEST(Hazards, WawKeepsLastWriter) {
  Instruction s1 = make(Opcode::VSET);
  s1.dtype = DType::I32;
  s1.dst_addr = 0x100;
  s1.imm = 1;
  s1.len = 2;
  Instruction s2 = s1;
  s2.imm = 2;
  config::ArchConfig cfg = tiny_cfg();
  cfg.core.rob_size = 8;
  auto lm = run_single_core({s1, s2}, {}, cfg);
  EXPECT_EQ(read_i32(lm, 0x100, 2), (std::vector<int32_t>{2, 2}));
}

TEST(Hazards, RobSizeOneStillCorrect) {
  config::ArchConfig cfg = tiny_cfg();
  cfg.core.rob_size = 1;
  Instruction vset = make(Opcode::VSET);
  vset.dtype = DType::I32;
  vset.dst_addr = 0x0;
  vset.imm = 5;
  vset.len = 8;
  Instruction vmul = make(Opcode::VMULI);
  vmul.dtype = DType::I32;
  vmul.dst_addr = 0x100;
  vmul.src1_addr = 0x0;
  vmul.imm = 3;
  vmul.len = 8;
  auto lm = run_single_core({vset, vmul}, {}, cfg);
  EXPECT_EQ(read_i32(lm, 0x100, 8), std::vector<int32_t>(8, 15));
}

TEST(Hazards, LargerRobReducesLatencyForIndependentWork) {
  auto run_with_rob = [](uint32_t rob) {
    config::ArchConfig cfg = tiny_cfg();
    cfg.core.rob_size = rob;
    std::vector<Instruction> code;
    // 8 independent (MVM, quant) pairs on different groups/addresses.
    Program p = empty_program(1);
    for (uint16_t i = 0; i < 8; ++i) {
      isa::GroupDef g;
      g.id = i;
      g.in_len = 32;
      g.out_len = 32;
      g.xbar_count = 1;
      p.cores[0].groups.push_back(g);
      Instruction mvm = make(Opcode::MVM);
      mvm.group = i;
      mvm.src1_addr = 0;
      mvm.dst_addr = 0x1000 + 0x100u * i;
      mvm.len = 32;
      p.cores[0].code.push_back(mvm);
    }
    push_halt(p, 0);
    Chip chip(cfg, p);
    return chip.run().total_ps;
  };
  const sim::Time t1 = run_with_rob(1);
  const sim::Time t8 = run_with_rob(8);
  EXPECT_GT(t1, t8 * 3);  // near-linear overlap on independent groups
}

Instruction vec_op(Opcode op, uint32_t dst, uint32_t src1, uint32_t src2, uint32_t len,
                   int32_t imm = 0) {
  Instruction in = make(op);
  in.dtype = DType::I32;
  in.dst_addr = dst;
  in.src1_addr = src1;
  in.src2_addr = src2;
  in.len = len;
  in.imm = imm;
  return in;
}

TEST(Hazards, WarYoungerWriteWaitsForOlderSlowRead) {
  // Two MVMs on one crossbar group: the second waits for the group, so it
  // reads its input at 0x0 late. The younger VSET that zeroes 0x0 conflicts
  // with it only by WAR; on the idle vector unit it would otherwise finish
  // long before that read.
  Program p = empty_program(1);
  isa::GroupDef g;
  g.id = 0;
  g.in_len = 4;
  g.out_len = 2;
  g.xbar_count = 1;
  g.weights = {1, 2, 3, 4, 5, 6, 7, 8};  // row-major [in][out]
  p.cores[0].groups.push_back(g);
  isa::DataSegment x;
  x.addr = 0x0;
  x.bytes = {1, 2, 3, 4};
  isa::DataSegment ones;
  ones.addr = 0x40;
  ones.bytes = {1, 1, 1, 1};
  p.cores[0].lm_init = {x, ones};
  Instruction mvm1 = make(Opcode::MVM);
  mvm1.group = 0;
  mvm1.src1_addr = 0x40;
  mvm1.dst_addr = 0x100;
  mvm1.len = 4;
  Instruction mvm2 = mvm1;
  mvm2.src1_addr = 0x0;
  mvm2.dst_addr = 0x200;
  Instruction vset = vec_op(Opcode::VSET, 0x0, 0, 0, 1, 0);  // 4 bytes of zeros
  p.cores[0].code = {mvm1, mvm2, vset};
  push_halt(p, 0);
  config::ArchConfig cfg = tiny_cfg();
  cfg.core.rob_size = 8;
  Chip chip(cfg, p);
  chip.run();
  ASSERT_TRUE(chip.finished());
  const std::vector<uint8_t>& lm = chip.core(0).lm();
  EXPECT_EQ(read_i32(lm, 0x100, 2), (std::vector<int32_t>{16, 20}));
  // x = {1, 2, 3, 4}: the second MVM saw the input as it was before the VSET.
  EXPECT_EQ(read_i32(lm, 0x200, 2), (std::vector<int32_t>{50, 60}));
  EXPECT_EQ(read_i32(lm, 0x0, 1), (std::vector<int32_t>{0}));
}

struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
};

/// The X spans of a traced single-core run, keyed by lane name
/// ("core0/matrix", "core0/vector", ...), in start order.
std::map<std::string, std::vector<Span>> traced_spans(const Program& p,
                                                      const config::ArchConfig& cfg) {
  telemetry::TraceSink sink;
  Chip chip(cfg, p, &sink);
  chip.run();
  EXPECT_TRUE(chip.finished());
  std::map<int64_t, std::string> lane;
  std::map<std::string, std::vector<Span>> spans;
  const json::Value doc = sink.to_json();
  for (const json::Value& ev : doc.at("traceEvents").as_array()) {
    const std::string& ph = ev.at("ph").as_string();
    if (ph == "M" && ev.at("name").as_string() == "thread_name") {
      lane[ev.at("tid").as_int()] = ev.at("args").at("name").as_string();
    } else if (ph == "X") {
      const double ts = ev.at("ts").as_double();
      spans[lane.at(ev.at("tid").as_int())].push_back(
          Span{ev.at("name").as_string(), ts, ts + ev.at("dur").as_double()});
    }
  }
  return spans;
}

/// A slow MVM, then a VADD that reads its result (RAW), then a VSET and an
/// LDI that conflict with nothing.
Program raw_blocked_vector_program() {
  Program p = empty_program(1);
  isa::GroupDef g;
  g.id = 0;
  g.in_len = 16;
  g.out_len = 8;
  g.xbar_count = 1;
  p.cores[0].groups.push_back(g);
  Instruction mvm = make(Opcode::MVM);
  mvm.group = 0;
  mvm.src1_addr = 0x0;
  mvm.dst_addr = 0x100;
  mvm.len = 16;
  p.cores[0].code = {mvm, vec_op(Opcode::VADD, 0x200, 0x100, 0x100, 8),
                     vec_op(Opcode::VSET, 0x300, 0, 0, 8, 1)};
  Instruction ldi = make(Opcode::LDI);
  ldi.rd = 1;
  ldi.imm = 5;
  p.cores[0].code.push_back(ldi);
  push_halt(p, 0);
  return p;
}

/// The span on `lane` whose name starts with `mnemonic`; fails the test
/// unless there is exactly one.
Span only_span(const std::map<std::string, std::vector<Span>>& spans, const std::string& lane,
               const std::string& mnemonic) {
  std::vector<Span> found;
  if (auto it = spans.find(lane); it != spans.end()) {
    for (const Span& s : it->second) {
      if (s.name.rfind(mnemonic, 0) == 0) found.push_back(s);
    }
  }
  EXPECT_EQ(found.size(), 1u) << mnemonic << " on " << lane;
  return found.empty() ? Span{} : found.front();
}

TEST(Hazards, VectorOpsIssueInProgramOrderBehindRawStall) {
  config::ArchConfig cfg = tiny_cfg();
  cfg.core.rob_size = 8;
  const auto spans = traced_spans(raw_blocked_vector_program(), cfg);
  const Span mvm = only_span(spans, "core0/matrix", "mvm");
  const Span vadd = only_span(spans, "core0/vector", "vadd");
  const Span vset = only_span(spans, "core0/vector", "vset");
  // The VADD issues once the MVM is done; the hazard-free VSET behind it
  // issues no earlier.
  EXPECT_GE(vadd.start_us, mvm.end_us);
  EXPECT_GE(vset.start_us, vadd.start_us);
}

TEST(Hazards, ScalarOpBypassesStalledVectorOp) {
  config::ArchConfig cfg = tiny_cfg();
  cfg.core.rob_size = 8;
  const auto spans = traced_spans(raw_blocked_vector_program(), cfg);
  const Span mvm = only_span(spans, "core0/matrix", "mvm");
  const Span vadd = only_span(spans, "core0/vector", "vadd");
  const Span ldi = only_span(spans, "core0/scalar", "ldi");
  // The LDI is younger than the VADD but issues, and finishes, while the
  // VADD still waits for the MVM.
  EXPECT_LT(ldi.start_us, vadd.start_us);
  EXPECT_LT(ldi.end_us, mvm.end_us);
}

TEST(Hazards, RegisterChainGivesSequentialResult) {
  // r4 = 22 only if every read sees the value the instruction before wrote
  // (RAW), the overwrite of r1 waits for the SADD that reads it (WAR) and
  // lands after the LDI (WAW). The VSET marks the expected outcome.
  const std::string code = R"(
      ldi r1, 5
      saddi r2, r1, 3
      sadd r3, r2, r1
      saddi r1, r3, 1
      sadd r4, r1, r2
      ldi r5, 22
      bne r4, r5, end
      vset 0x0, imm=1, len=1, i32
    end:
      halt
  )";
  for (uint32_t rob : {1u, 4u, 16u}) {
    Program p = empty_program(1);
    p.cores[0].code = isa::assemble(code).cores[0].code;
    config::ArchConfig cfg = tiny_cfg();
    cfg.core.rob_size = rob;
    Chip chip(cfg, p);
    chip.run();
    ASSERT_TRUE(chip.finished()) << "rob " << rob;
    EXPECT_EQ(read_i32(chip.core(0).lm(), 0x0, 1), (std::vector<int32_t>{1})) << "rob " << rob;
  }
}

TEST(Hazards, RandomProgramsMatchInOrderExecution) {
  // Random single-core programs over a 256-byte window of local memory, so
  // ranges overlap often. Vector ops share one unit in program order; MVMs on
  // two crossbar groups and GLOADs from read-only global memory run beside
  // them, so only the RAW/WAR/WAW checks keep the classes apart. Scalar ops
  // interleave as register traffic. ROB 1 is strictly in order; every larger
  // ROB must leave the same final local memory.
  constexpr uint32_t kWindow = 256;
  constexpr uint32_t kGlobal = 0x1000;
  for (uint32_t seed = 1; seed <= 24; ++seed) {
    std::mt19937 rng(seed);
    auto pick = [&rng](uint32_t n) { return static_cast<uint32_t>(rng() % n); };
    Program p = empty_program(1);
    for (uint16_t gid = 0; gid < 2; ++gid) {
      isa::GroupDef g;
      g.id = gid;
      g.in_len = 8;
      g.out_len = 4;
      g.xbar_count = 1;
      for (int k = 0; k < 32; ++k) g.weights.push_back(static_cast<int8_t>(pick(15)) - 7);
      p.cores[0].groups.push_back(g);
    }
    isa::DataSegment init;
    init.addr = 0;
    for (uint32_t b = 0; b < kWindow; ++b) init.bytes.push_back(static_cast<uint8_t>(pick(256)));
    p.cores[0].lm_init.push_back(init);
    // A word-aligned range of `bytes` inside the window.
    auto addr = [&](uint32_t bytes) { return 4 * pick((kWindow - bytes) / 4 + 1); };
    std::vector<Instruction>& code = p.cores[0].code;
    for (int i = 0; i < 48; ++i) {
      const uint32_t len = 1 + pick(8);
      switch (pick(8)) {
        case 0:
          code.push_back(
              vec_op(Opcode::VSET, addr(4 * len), 0, 0, len, static_cast<int32_t>(pick(9))));
          break;
        case 1:
          code.push_back(vec_op(Opcode::VADD, addr(4 * len), addr(4 * len), addr(4 * len), len));
          break;
        case 2:
          code.push_back(vec_op(Opcode::VMULI, addr(4 * len), addr(4 * len), 0, len, 3));
          break;
        case 3: code.push_back(vec_op(Opcode::VMOV, addr(4 * len), addr(4 * len), 0, len)); break;
        case 4: {
          Instruction ldi = make(Opcode::LDI);
          ldi.rd = static_cast<uint8_t>(1 + pick(3));
          ldi.imm = static_cast<int32_t>(pick(100));
          code.push_back(ldi);
          break;
        }
        case 5: {
          Instruction sadd = make(Opcode::SADD);
          sadd.rd = static_cast<uint8_t>(1 + pick(3));
          sadd.rs1 = static_cast<uint8_t>(1 + pick(3));
          sadd.rs2 = static_cast<uint8_t>(1 + pick(3));
          code.push_back(sadd);
          break;
        }
        case 6: {
          Instruction mvm = make(Opcode::MVM);
          mvm.group = static_cast<uint16_t>(pick(2));
          mvm.src1_addr = addr(8);
          mvm.dst_addr = addr(16);
          mvm.len = 8;
          code.push_back(mvm);
          break;
        }
        default: {
          Instruction gl = make(Opcode::GLOAD);
          gl.dtype = DType::I8;
          gl.len = 4 * len;
          gl.dst_addr = addr(gl.len);
          gl.imm = static_cast<int32_t>(kGlobal + 4 * pick(16));
          code.push_back(gl);
          break;
        }
      }
    }
    push_halt(p, 0);
    std::vector<uint8_t> global(128);
    for (uint8_t& b : global) b = static_cast<uint8_t>(pick(256));
    auto final_window = [&](uint32_t rob) {
      config::ArchConfig cfg = tiny_cfg();
      cfg.core.rob_size = rob;
      Chip chip(cfg, p);
      chip.write_global(kGlobal, global);
      chip.run();
      EXPECT_TRUE(chip.finished()) << "seed " << seed << " rob " << rob;
      const std::vector<uint8_t>& lm = chip.core(0).lm();
      return std::vector<uint8_t>(lm.begin(), lm.begin() + kWindow);
    };
    const std::vector<uint8_t> in_order = final_window(1);
    for (uint32_t rob : {2u, 8u, 64u}) {
      EXPECT_EQ(final_window(rob), in_order) << "seed " << seed << " rob " << rob;
    }
  }
}

TEST(Stats, RobFullStallsCounted) {
  config::ArchConfig cfg = tiny_cfg();
  cfg.core.rob_size = 1;
  Program p = empty_program(1);
  std::vector<Instruction> code;
  for (int i = 0; i < 4; ++i) {
    Instruction vset = make(Opcode::VSET);
    vset.dtype = DType::I32;
    vset.dst_addr = 0x100u * static_cast<uint32_t>(i);
    vset.imm = i;
    vset.len = 16;
    code.push_back(vset);
  }
  sim::Time latency = 0;
  run_single_core(code, {}, cfg, &latency);
  // With ROB=1 dispatch must stall; just assert the run completed with the
  // expected serialized latency ordering vs a larger ROB.
  config::ArchConfig cfg8 = tiny_cfg();
  cfg8.core.rob_size = 8;
  sim::Time latency8 = 0;
  run_single_core(code, {}, cfg8, &latency8);
  EXPECT_GE(latency, latency8);
}

TEST(Chip, RunTwiceThrows) {
  Program p = empty_program(1);
  push_halt(p, 0);
  Chip chip(tiny_cfg(), p);
  chip.run();
  EXPECT_THROW(chip.run(), std::logic_error);
}

TEST(Chip, InvalidProgramRejectedAtConstruction) {
  Program p = empty_program(1);
  Instruction mvm = make(Opcode::MVM);
  mvm.group = 9;  // undefined
  mvm.len = 4;
  p.cores[0].code.push_back(mvm);
  push_halt(p, 0);
  EXPECT_THROW(Chip(tiny_cfg(), p), std::invalid_argument);
}

TEST(Chip, TeardownMidRunWithQueuedScansIsClean) {
  // A run cut short by the wall-clock watchdog stops between two batches of
  // same-time events, so a core's scan process can still be queued in the
  // kernel when the chip is destroyed. The core owns that frame and frees
  // it; the kernel frees only the spawned processes. A deadline already
  // past makes every cut deterministic: each run() stops at its 64th drain
  // batch, and with this program the third cut leaves both cores' scans
  // queued. The sanitizer jobs fail on any leaked, doubly freed or touched
  // freed frame.
  Program p = empty_program(2);
  for (size_t core = 0; core < 2; ++core) {
    for (uint16_t i = 0; i < 8; ++i) {
      isa::GroupDef g;
      g.id = i;
      g.in_len = 32;
      g.out_len = 32;
      g.xbar_count = 1;
      p.cores[core].groups.push_back(g);
    }
    for (uint16_t n = 0; n < 64; ++n) {
      const uint16_t i = n % 8;
      Instruction mvm = make(Opcode::MVM);
      mvm.group = i;
      mvm.dst_addr = 0x1000 + 0x100u * i;
      mvm.len = 32;
      p.cores[core].code.push_back(mvm);
      p.cores[core].code.push_back(vec_op(Opcode::VADD, 0x2000 + 0x100u * i,
                                          0x1000 + 0x100u * i, 0x1000 + 0x100u * i, 32));
    }
    push_halt(p, core);
  }
  for (int cuts = 1; cuts <= 8; ++cuts) {
    Chip chip(tiny_cfg(), p);
    chip.kernel().arm_wall_watchdog(std::chrono::steady_clock::time_point{});
    chip.run();
    for (int i = 1; i < cuts; ++i) chip.kernel().run();
    EXPECT_TRUE(chip.wall_expired());
    EXPECT_FALSE(chip.finished()) << "cut " << cuts << " must stop mid-run";
  }
}

TEST(Chip, StaticEnergyScalesWithTime) {
  Program p = empty_program(1);
  p.cores[0].code = isa::assemble(R"(
      ldi r1, 100
      ldi r2, 0
    loop:
      saddi r2, r2, 1
      bne r2, r1, loop
      halt
  )").cores[0].code;
  Chip chip(tiny_cfg(), p);
  RunStats stats = chip.run();
  EXPECT_GT(stats.energy.get(Component::Static), 0.0);
  EXPECT_NEAR(stats.energy.get(Component::Static),
              chip.static_power_mw() * static_cast<double>(stats.total_ps) * 1e-3,
              stats.energy.get(Component::Static) * 1e-9);
}

}  // namespace
}  // namespace pim::arch
