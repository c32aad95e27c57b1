// Golden Report hashes: every zoo model on the paper chip, pinned as
// fnv1a64(Report::to_json().dump()). The hashes cover latency, energy, the
// per-layer breakdown and kernel_events, so any change to the timing model
// shows up here. Report::to_json() carries no network output, so the
// functional runs pin fnv1a64 of the output bytes as well. A change to any
// hash must be deliberate: update it and say why in CHANGES.md. A refactor
// of the models must leave every hash as it is.
//
// Under the zoo's deterministic weights the activations die out after the
// first few layers, so each functional output reads back as all zeros. The
// functional rows therefore also pin every core's local memory at the end of
// the run, which holds the nonzero partial sums of the early layers.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "arch/chip.h"
#include "common/strings.h"
#include "compiler/compiler.h"
#include "config/arch_config.h"
#include "nn/executor.h"
#include "nn/models.h"
#include "runtime/simulator.h"
#include "workload/workload.h"

namespace pim {
namespace {

constexpr int32_t kInputHw = 16;

struct Golden {
  const char* model;
  uint32_t rob;
  compiler::MappingPolicy policy;
  uint64_t report_hash;
};

/// One golden run as `pimsim --workload <model> --arch paper --input-hw 16
/// --json` sets it up: functional runs carry the weights and the seed-7 input.
struct Setup {
  workload::BuiltWorkload wl;
  config::ArchConfig cfg = config::ArchConfig::paper_default();
  compiler::CompileOptions copts;
  nn::Tensor input;

  Setup(const Golden& g, bool functional)
      : wl(workload::build(workload::WorkloadSpec::builtin(g.model, kInputHw), functional)) {
    cfg.core.rob_size = g.rob;
    cfg.sim.functional = functional;
    copts.policy = g.policy;
    copts.include_weights = functional;
    if (functional) input = nn::random_input(wl.input_shape, /*seed=*/7);
  }
};

runtime::Report run(const Golden& g, bool functional) {
  const Setup s(g, functional);
  runtime::Report report =
      runtime::simulate_network(s.wl.graph, s.cfg, s.copts, functional ? &s.input : nullptr);
  EXPECT_TRUE(report.finished) << g.model;
  return report;
}

runtime::Report run_truncated(const Golden& g, uint64_t max_time_ps) {
  Setup s(g, /*functional=*/false);
  s.cfg.sim.max_time_ps = max_time_ps;
  return runtime::simulate_network(s.wl.graph, s.cfg, s.copts);
}

std::string label(const Golden& g) {
  return std::string(g.model) + " rob " + std::to_string(g.rob) + " " +
         compiler::policy_name(g.policy);
}

uint64_t report_hash(const runtime::Report& r) { return fnv1a64(r.to_json().dump()); }

uint64_t bytes_hash(const void* data, size_t size) {
  return fnv1a64(std::string_view(static_cast<const char*>(data), size));
}

/// fnv1a64 over the per-core fnv1a64 of each local memory after a
/// functional run of `g` driven straight through arch::Chip.
uint64_t local_memory_hash(const Golden& g) {
  const Setup s(g, /*functional=*/true);
  const runtime::CompiledNetwork net = runtime::compile_network(s.wl.graph, s.cfg, s.copts);
  arch::Chip chip(s.cfg, net.program);
  chip.write_global(s.copts.input_gaddr,
                    std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.input.data.data()),
                                             s.input.data.size()));
  chip.run();
  EXPECT_TRUE(chip.finished()) << g.model;
  std::vector<uint64_t> per_core;
  for (uint16_t id = 0; id < s.cfg.core_count; ++id) {
    const std::vector<uint8_t>& lm = chip.core(id).lm();
    per_core.push_back(bytes_hash(lm.data(), lm.size()));
  }
  return bytes_hash(per_core.data(), per_core.size() * sizeof(uint64_t));
}

constexpr compiler::MappingPolicy kPerf = compiler::MappingPolicy::PerformanceFirst;
constexpr compiler::MappingPolicy kUtil = compiler::MappingPolicy::UtilizationFirst;

TEST(GoldenReport, TimingOnlyZooOnPaperChip) {
  static constexpr Golden kGoldens[] = {
      {"alexnet", 16, kPerf, 0xa211c5a2a9227055}, {"alexnet", 16, kUtil, 0xcda6de9d9fdeed5b},
      {"alexnet", 64, kPerf, 0xae5a4bb0611c8e7c}, {"alexnet", 64, kUtil, 0x5e83147d959e0359},
      {"vgg8", 16, kPerf, 0xe8b84879e1738cb7}, {"vgg8", 16, kUtil, 0xbdfba8c4cd794b04},
      {"vgg8", 64, kPerf, 0xf5f571a53680113d}, {"vgg8", 64, kUtil, 0xd650b18d39157e9a},
      {"vgg16", 16, kPerf, 0xbc762f41462ab54c}, {"vgg16", 16, kUtil, 0xe217d6b27dd805aa},
      {"vgg16", 64, kPerf, 0x7903913fbac218e9}, {"vgg16", 64, kUtil, 0x74a7b42ae71882b0},
      {"resnet18", 16, kPerf, 0x6214936f075001a9}, {"resnet18", 16, kUtil, 0x1244e33137ffc829},
      {"resnet18", 64, kPerf, 0x642105276c6d4654}, {"resnet18", 64, kUtil, 0xad09055c92742089},
      {"googlenet", 16, kPerf, 0xc11961d0c1c323a3}, {"googlenet", 16, kUtil, 0xe69e3361a75718be},
      {"googlenet", 64, kPerf, 0x1880e66a9f25d495}, {"googlenet", 64, kUtil, 0xcdfd848da45f971a},
      {"squeezenet", 16, kPerf, 0x3151e337a86a06d9}, {"squeezenet", 16, kUtil, 0xec4b948ef4077f5d},
      {"squeezenet", 64, kPerf, 0xf62905a7c56c447f}, {"squeezenet", 64, kUtil, 0xe4e3d9a6c28f2ba0},
      {"tiny_cnn", 16, kPerf, 0x252c659c8b3d9de8}, {"tiny_cnn", 16, kUtil, 0xe694c8bb814d9abc},
      {"tiny_cnn", 64, kPerf, 0x00107b5a16193188}, {"tiny_cnn", 64, kUtil, 0x5095039ebdab4877},
  };
  std::set<std::string> covered;
  for (const Golden& g : kGoldens) {
    covered.insert(g.model);
    const uint64_t got = report_hash(run(g, /*functional=*/false));
    EXPECT_EQ(got, g.report_hash) << label(g) << ": report drifted, fnv1a64 = 0x" << std::hex
                                  << got;
  }
  for (const std::string& model : nn::model_names()) {
    EXPECT_EQ(covered.count(model), 1u) << model << " has no golden";
  }
}

// The rest of the Fig. 4 sweep: ROB 1 issues strictly in order, 4 is below
// the paper's knee and 256 leaves the ROB practically unbounded. Together
// with the rows above these pin every ROB size the paper chip is run at.
TEST(GoldenReport, TimingOnlyZooAcrossRobSizes) {
  static constexpr Golden kGoldens[] = {
      {"alexnet", 1, kPerf, 0x7afa3c99bd48e361}, {"alexnet", 1, kUtil, 0x73225579e1132611},
      {"alexnet", 4, kPerf, 0x68aa91a54685e042}, {"alexnet", 4, kUtil, 0xe49e4a985c5b660f},
      {"alexnet", 256, kPerf, 0xa270398268afcea6}, {"alexnet", 256, kUtil, 0x90087e32c0bbf3a3},
      {"vgg8", 1, kPerf, 0xde00562fab7b415a}, {"vgg8", 1, kUtil, 0x5c2caf9d2f2c919f},
      {"vgg8", 4, kPerf, 0x9a77d07b79476678}, {"vgg8", 4, kUtil, 0xa11f7d9deb68eef3},
      {"vgg8", 256, kPerf, 0xc739faf013ddb64d}, {"vgg8", 256, kUtil, 0x6145a06c5408475c},
      {"vgg16", 1, kPerf, 0x70753acf51e3bdf9}, {"vgg16", 1, kUtil, 0x8bb094564f79c1c1},
      {"vgg16", 4, kPerf, 0x6874493b2f1b6ec7}, {"vgg16", 4, kUtil, 0x61d0984d1074a270},
      {"vgg16", 256, kPerf, 0xa82acb87100e91cf}, {"vgg16", 256, kUtil, 0x8762adf04b750d65},
      {"resnet18", 1, kPerf, 0x65169a421572f05e}, {"resnet18", 1, kUtil, 0xc1adc13d592c90f2},
      {"resnet18", 4, kPerf, 0x2fb11757f77a67c1}, {"resnet18", 4, kUtil, 0xfde2e22426842a8d},
      {"resnet18", 256, kPerf, 0x33b8e27aa9717e33}, {"resnet18", 256, kUtil, 0xe391317e86823459},
      {"googlenet", 1, kPerf, 0x319890396c37a20b}, {"googlenet", 1, kUtil, 0x9f2d3a696cd94a28},
      {"googlenet", 4, kPerf, 0xb6d0a8f66abc8c3a}, {"googlenet", 4, kUtil, 0x6fe44f9896824e68},
      {"googlenet", 256, kPerf, 0x8211e20cd7448b36}, {"googlenet", 256, kUtil, 0xdfc0327d5a3cdd10},
      {"squeezenet", 1, kPerf, 0xa1da8184fa3631dd}, {"squeezenet", 1, kUtil, 0x846b69e0fcc16336},
      {"squeezenet", 4, kPerf, 0xc374655528fa76ea}, {"squeezenet", 4, kUtil, 0x417ff2c80e5f9777},
      {"squeezenet", 256, kPerf, 0x89181a45162bc99f},
      {"squeezenet", 256, kUtil, 0x65a950d59761c46c},
      {"tiny_cnn", 1, kPerf, 0xdf2f30d97f1336f5}, {"tiny_cnn", 1, kUtil, 0xf007136fff7737b6},
      {"tiny_cnn", 4, kPerf, 0xfc52b2004cf74da5}, {"tiny_cnn", 4, kUtil, 0x40a486294de3e74c},
      {"tiny_cnn", 256, kPerf, 0x8809472349eaa47c}, {"tiny_cnn", 256, kUtil, 0x312986e8f87fb3e7},
  };
  for (const Golden& g : kGoldens) {
    const uint64_t got = report_hash(run(g, /*functional=*/false));
    EXPECT_EQ(got, g.report_hash) << label(g) << ": report drifted, fnv1a64 = 0x" << std::hex
                                  << got;
  }
}

// A run stopped by its simulated-time budget halfway through: the report
// pins which layers have issued by then (a layer enters stats.layers with
// its first issued instruction) and their partial statistics.
TEST(GoldenReport, BudgetTruncatedRunPinsPartialLayers) {
  const Golden g{"resnet18", 64, kPerf, 0x7d53d4d8e08d6880};
  // About half of the 1.66 ms the whole run takes.
  const runtime::Report report = run_truncated(g, /*max_time_ps=*/832'000'000);
  EXPECT_FALSE(report.finished);
  EXPECT_EQ(report.stats.layers.size(), 29u) << "of resnet18's 48 layers";
  const uint64_t got = report_hash(report);
  EXPECT_EQ(got, g.report_hash) << label(g) << " truncated: report drifted, fnv1a64 = 0x"
                                << std::hex << got;
}

TEST(GoldenReport, FunctionalRunsPinOutputAndLocalMemory) {
  struct FunctionalGolden {
    Golden run;
    uint64_t output_hash;
    uint64_t local_memory_hash;
  };
  // 0x69d307cc20f6ef8d is the hash of ten zero bytes (see the file comment).
  static constexpr FunctionalGolden kGoldens[] = {
      {{"squeezenet", 16, kPerf, 0x3151e337a86a06d9}, 0x69d307cc20f6ef8d, 0x8253c14f65113039},
      {{"vgg8", 16, kPerf, 0xe8b84879e1738cb7}, 0x69d307cc20f6ef8d, 0xeaae0f0707c0971b},
  };
  for (const FunctionalGolden& g : kGoldens) {
    const runtime::Report report = run(g.run, /*functional=*/true);
    const uint64_t got = report_hash(report);
    EXPECT_EQ(got, g.run.report_hash) << label(g.run) << " functional: report drifted, "
                                      << "fnv1a64 = 0x" << std::hex << got;
    ASSERT_FALSE(report.output.empty()) << label(g.run);
    const uint64_t out = bytes_hash(report.output.data(), report.output.size());
    EXPECT_EQ(out, g.output_hash) << label(g.run) << " functional: output drifted, "
                                  << "fnv1a64 = 0x" << std::hex << out;
    const uint64_t lm = local_memory_hash(g.run);
    EXPECT_EQ(lm, g.local_memory_hash) << label(g.run) << " functional: local memory drifted, "
                                       << "hash = 0x" << std::hex << lm;
  }
}

}  // namespace
}  // namespace pim
