// Paper-fidelity checks: the shapes the paper's figures report, asserted on
// quick inputs instead of printed by the bench/fig* programs.
//
// Fig. 4 (latency vs ROB size): on the paper chip under performance-first
// mapping, latency falls as the ROB grows over {1, 4, 8, 12, 16}, but the
// 12 -> 16 step gains less than the 8 -> 12 step. MVMs that hit a crossbar
// group already in flight serialize on it (a structure hazard), which caps
// the useful lookahead. Gains are latency drops normalized to the ROB 1
// latency, as bench/fig4_rob prints them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "config/arch_config.h"
#include "nn/models.h"
#include "runtime/simulator.h"

namespace pim {
namespace {

constexpr int32_t kInputHw = 16;

TEST(Fig4RobPlateau, LatencyFallsAndFlattensPast12) {
  const std::vector<uint32_t> robs = {1, 4, 8, 12, 16};
  for (const std::string model : {"alexnet", "googlenet", "resnet18", "squeezenet"}) {
    nn::ModelOptions mopt;
    mopt.input_hw = kInputHw;
    mopt.init_params = false;
    const nn::Graph graph = nn::build_model(model, mopt);
    compiler::CompileOptions copts;
    copts.policy = compiler::MappingPolicy::PerformanceFirst;
    copts.include_weights = false;
    std::vector<double> latency;
    for (uint32_t rob : robs) {
      config::ArchConfig cfg = config::ArchConfig::paper_default();
      cfg.core.rob_size = rob;
      cfg.sim.functional = false;
      const runtime::Report report = runtime::simulate_network(graph, cfg, copts);
      ASSERT_TRUE(report.finished) << model << " rob " << rob;
      latency.push_back(report.latency_ms());
    }
    for (size_t i = 1; i < robs.size(); ++i) {
      EXPECT_LE(latency[i], latency[i - 1])
          << model << ": latency rose from rob " << robs[i - 1] << " to rob " << robs[i];
    }
    const double gain_8_12 = (latency[2] - latency[3]) / latency[0];
    const double gain_12_16 = (latency[3] - latency[4]) / latency[0];
    EXPECT_LT(gain_12_16, gain_8_12)
        << model << ": no plateau, gain 8->12 = " << gain_8_12 << ", 12->16 = " << gain_12_16;
  }
}

}  // namespace
}  // namespace pim
