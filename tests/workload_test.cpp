// pim::workload — spec parsing, the builder registry, graph-file
// round-trips (the equivalence oracle of the whole layer), malformed-graph
// rejection, and the workload-fingerprint cache-key contract.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/strings.h"
#include "config/arch_config.h"
#include "dse/cache.h"
#include "dse/evaluator.h"
#include "dse/sampler.h"
#include "dse/search_space.h"
#include "nn/models.h"
#include "runtime/batch_runner.h"
#include "workload/workload.h"

namespace pim::workload {
namespace {

std::string temp_path(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "pim_workload";
  std::filesystem::create_directories(dir);
  return dir + "/" + name;
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  ASSERT_TRUE(f.good()) << path;
}

/// The compact graph description of `g`, parameters included.
std::string graph_text(const nn::Graph& g) {
  std::string text;
  json::Writer out(text);
  write_graph(out, g, /*include_params=*/true);
  return text;
}

// ----------------------------------------------------------------- parsing

TEST(WorkloadSpecTest, TokenParsing) {
  const WorkloadSpec zoo = parse_workload_token("alexnet", 16);
  EXPECT_EQ(zoo.kind, Kind::Builtin);
  EXPECT_EQ(zoo.name, "alexnet");
  EXPECT_EQ(zoo.input_hw, 16);
  EXPECT_EQ(zoo.label(), "alexnet");

  const WorkloadSpec mlp = parse_workload_token("mlp", 8);
  EXPECT_EQ(mlp.kind, Kind::Mlp);
  EXPECT_EQ(mlp.label(), "mlp");
  EXPECT_EQ(mlp.input_hw, 8);

  const WorkloadSpec file = parse_workload_token("nets/res_block.json", 32, "/base");
  EXPECT_EQ(file.kind, Kind::GraphFile);
  EXPECT_EQ(file.path, "/base/nets/res_block.json");
  EXPECT_EQ(file.label(), "res_block");  // basename without extension
  // Absolute paths ignore base_dir.
  EXPECT_EQ(parse_workload_token("/abs/net.json", 32, "/base").path, "/abs/net.json");

  EXPECT_THROW(parse_workload_token("warp_net", 32), std::invalid_argument);
}

TEST(WorkloadSpecTest, JsonRoundTripAllKinds) {
  WorkloadSpec zoo = WorkloadSpec::builtin("resnet18", 16);
  zoo.weight_seed = 9;
  zoo.num_classes = 100;
  WorkloadSpec mlp = WorkloadSpec::mlp(8, {48, 24}, 12);
  WorkloadSpec file = WorkloadSpec::graph_file("/tmp/net.json");
  for (const WorkloadSpec& spec : {zoo, mlp, file}) {
    const WorkloadSpec back = WorkloadSpec::from_json(spec.to_json());
    EXPECT_EQ(back, spec) << spec.to_json().dump();
  }
}

TEST(WorkloadSpecTest, JsonObjectDefaultsAndInference) {
  WorkloadSpec defaults;
  defaults.input_hw = 8;
  // "kind" may be inferred from the distinguishing field.
  const WorkloadSpec file =
      WorkloadSpec::from_json(json::parse(R"({"path": "n.json"})"), "/d", defaults);
  EXPECT_EQ(file.kind, Kind::GraphFile);
  EXPECT_EQ(file.path, "/d/n.json");
  const WorkloadSpec mlp =
      WorkloadSpec::from_json(json::parse(R"({"hidden": [16]})"), "", defaults);
  EXPECT_EQ(mlp.kind, Kind::Mlp);
  EXPECT_EQ(mlp.mlp_hidden, (std::vector<int32_t>{16}));
  EXPECT_EQ(mlp.input_hw, 8);  // threaded through the defaults

  EXPECT_THROW(WorkloadSpec::from_json(json::parse(R"({"kind": "hologram"})")),
               std::invalid_argument);
  EXPECT_THROW(WorkloadSpec::from_json(json::parse(R"({"name": "warp_net"})")),
               std::invalid_argument);
  EXPECT_THROW(WorkloadSpec::from_json(json::parse(R"({"kind": "graph_file"})")),
               std::invalid_argument);  // no path
  EXPECT_THROW(WorkloadSpec::from_json(json::parse(R"({"name": "alexnet", "input_hw": 0})")),
               std::invalid_argument);
}

// ---------------------------------------------------------------- registry

TEST(RegistryTest, SubsumesTheModelZoo) {
  const std::vector<std::string> names = builtin_names();
  for (const std::string& zoo : nn::model_names()) {
    EXPECT_TRUE(Registry::instance().contains(zoo)) << zoo;
    EXPECT_NE(std::find(names.begin(), names.end(), zoo), names.end()) << zoo;
  }
  EXPECT_FALSE(Registry::instance().contains("lenet5000"));
  nn::ModelOptions mopt;
  mopt.input_hw = 8;
  mopt.init_params = false;
  EXPECT_THROW(Registry::instance().build("lenet5000", mopt), std::invalid_argument);
  // Registration guards: duplicates and reserved names are rejected.
  EXPECT_THROW(Registry::instance().add("tiny_cnn", nullptr), std::invalid_argument);
  EXPECT_THROW(Registry::instance().add("mlp", nullptr), std::invalid_argument);
  EXPECT_THROW(Registry::instance().add("net.json", nullptr), std::invalid_argument);
}

TEST(RegistryTest, ClientBuildersBecomeFirstClassWorkloads) {
  if (!Registry::instance().contains("test_linear")) {
    Registry::instance().add("test_linear", [](const nn::ModelOptions& opt) {
      nn::Graph g("test_linear");
      const int32_t in = g.add_input({opt.input_channels, opt.input_hw, opt.input_hw});
      const int32_t flat = g.add_flatten(in);
      g.add_fc(flat, opt.num_classes);
      g.infer_shapes();
      if (opt.init_params) g.init_parameters(opt.weight_seed);
      return g;
    });
  }
  // The registered name parses like any zoo name and builds.
  const WorkloadSpec spec = parse_workload_token("test_linear", 4);
  const BuiltWorkload wl = build(spec, /*init_params=*/false);
  EXPECT_EQ(wl.graph.name(), "test_linear");
  EXPECT_EQ(wl.input_shape, (nn::Shape{3, 4, 4}));
}

// ------------------------------------------------- round-trip (the oracle)

TEST(RoundTripTest, EveryZooModelTopologySurvivesExportReload) {
  // Topology-only export at the canonical 32x32 resolution: reloading must
  // reproduce the graph fingerprint bit-for-bit for every zoo network.
  for (const std::string& name : nn::model_names()) {
    nn::ModelOptions mopt;
    mopt.input_hw = 32;
    mopt.init_params = false;
    const nn::Graph g = nn::build_model(name, mopt);
    const std::string path = temp_path("zoo_" + name + ".json");
    export_graph(g, path, /*include_params=*/false);
    const nn::Graph back = load_graph(path);
    EXPECT_EQ(graph_fingerprint(back), graph_fingerprint(g)) << name;
    EXPECT_EQ(graph_text(back), graph_text(g)) << name;
  }
}

TEST(RoundTripTest, ParameterizedExportIsBitIdentical) {
  nn::ModelOptions mopt;
  mopt.input_hw = 8;
  const nn::Graph g = nn::build_model("tiny_cnn", mopt);  // init_params on
  const std::string path = temp_path("tiny_params.json");
  export_graph(g, path, /*include_params=*/true);
  const nn::Graph back = load_graph(path);
  EXPECT_EQ(graph_fingerprint(back), graph_fingerprint(g));
  ASSERT_EQ(back.size(), g.size());
  for (size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(back.layers()[i].weights, g.layers()[i].weights);
    EXPECT_EQ(back.layers()[i].bias, g.layers()[i].bias);
    EXPECT_EQ(back.layers()[i].out_shift, g.layers()[i].out_shift);
  }
}

/// The acceptance oracle: a zoo model exported to a file and reloaded as a
/// GraphFile workload must produce a bit-identical Report to the builtin.
void expect_exported_matches_builtin(const std::string& name, int32_t hw, bool functional,
                                     const config::ArchConfig& arch) {
  const WorkloadSpec builtin = WorkloadSpec::builtin(name, hw);
  const BuiltWorkload built = build(builtin, /*init_params=*/functional);
  const std::string path = temp_path("report_" + name + ".json");
  export_graph(built.graph, path, /*include_params=*/functional);
  WorkloadSpec from_file = WorkloadSpec::graph_file(path);
  from_file.name = name;  // same label -> same derived scenario names

  const std::vector<runtime::Scenario> a = runtime::expand_sweep(
      {builtin}, {compiler::MappingPolicy::PerformanceFirst}, {1}, arch, functional);
  const std::vector<runtime::Scenario> b = runtime::expand_sweep(
      {from_file}, {compiler::MappingPolicy::PerformanceFirst}, {1}, arch, functional);
  const runtime::BatchResult ra = runtime::BatchRunner(1).run(a);
  const runtime::BatchResult rb = runtime::BatchRunner(1).run(b);
  ASSERT_TRUE(ra.all_ok()) << name << ": " << ra.results[0].error;
  ASSERT_TRUE(rb.all_ok()) << name << ": " << rb.results[0].error;
  const std::vector<std::string> diffs = runtime::compare_results(ra, rb);
  EXPECT_TRUE(diffs.empty()) << name << ": " << diffs.front();
}

TEST(RoundTripTest, ExportedZooModelsReproduceBuiltinReports) {
  // Timing-only runs on the paper's 64-core chip (the zoo does not fit the
  // 4-core tiny config): the Report — latency, energy, instruction stream —
  // must be bit-identical between the builtin and its exported file, for
  // every zoo network at a resolution its stem supports (the VGG stacks
  // pool five times, so they need 32x32).
  const config::ArchConfig paper = config::ArchConfig::paper_default();
  for (const auto& [name, hw] : std::initializer_list<std::pair<const char*, int32_t>>{
           {"tiny_cnn", 8}, {"alexnet", 8}, {"squeezenet", 8}, {"resnet18", 8},
           {"googlenet", 8}, {"vgg8", 32}, {"vgg16", 32}}) {
    expect_exported_matches_builtin(name, hw, /*functional=*/false, paper);
  }
}

TEST(RoundTripTest, FunctionalReportsMatchIncludingOutputs) {
  // With parameters in the file, the functional output must match too.
  expect_exported_matches_builtin("tiny_cnn", 8, /*functional=*/true,
                                  config::ArchConfig::tiny());
}

TEST(RoundTripTest, GraphFileOnlyNetworkRunsEndToEnd) {
  // A network that exists *only* as a description file — no builder, no
  // recompile — runs through the batch runner, deterministically.
  const std::string path = temp_path("filenet.json");
  write_text_file(path, R"({
    "name": "filenet",
    "layers": [
      {"type": "input", "shape": [3, 8, 8]},
      {"type": "conv", "inputs": [0], "out_channels": 8, "kernel": 3, "stride": 1, "pad": 1},
      {"type": "relu", "inputs": [1]},
      {"type": "global_avgpool", "inputs": [2]},
      {"type": "fc", "inputs": [3], "out_channels": 10}
    ]
  })");
  std::vector<runtime::Scenario> sweep = runtime::expand_sweep(
      {WorkloadSpec::graph_file(path)},
      {compiler::MappingPolicy::PerformanceFirst, compiler::MappingPolicy::UtilizationFirst},
      {1, 2}, config::ArchConfig::tiny(), /*functional=*/true);
  ASSERT_EQ(sweep.size(), 4u);
  EXPECT_EQ(sweep[0].name, "filenet/perf/b1");

  // Two different files sharing a basename must still get unique names.
  const std::string twin_dir = temp_path("twin");
  std::filesystem::create_directories(twin_dir);
  const std::string twin = twin_dir + "/filenet.json";
  std::filesystem::copy_file(path, twin, std::filesystem::copy_options::overwrite_existing);
  const std::vector<runtime::Scenario> twins = runtime::expand_sweep(
      {WorkloadSpec::graph_file(path), WorkloadSpec::graph_file(twin)},
      {compiler::MappingPolicy::PerformanceFirst}, {1}, config::ArchConfig::tiny(), false);
  ASSERT_EQ(twins.size(), 2u);
  EXPECT_EQ(twins[0].name, "filenet/perf/b1");
  EXPECT_EQ(twins[1].name, "filenet/perf/b1#2");
  const runtime::BatchResult parallel = runtime::BatchRunner(2).run(sweep);
  const runtime::BatchResult serial = runtime::BatchRunner(1).run(sweep);
  ASSERT_TRUE(parallel.all_ok()) << parallel.results[0].error;
  const std::vector<std::string> diffs = runtime::compare_results(parallel, serial);
  EXPECT_TRUE(diffs.empty()) << diffs.front();
  EXPECT_FALSE(parallel.results[0].report.output.empty());
}

// ------------------------------------------------------ malformed rejection

TEST(LoaderTest, RejectsMalformedGraphs) {
  const auto parse = [](const char* text) { return graph_from_json(text); };
  // Structurally not a graph.
  EXPECT_THROW(parse(R"({"name": "x"})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"layers": []})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"layers": [7]})"), std::invalid_argument);
  // Unknown op.
  EXPECT_THROW(parse(R"({"layers": [{"type": "warp"}]})"), std::invalid_argument);
  // Input layers: missing/malformed shape, or taking inputs.
  EXPECT_THROW(parse(R"({"layers": [{"type": "input"}]})"), std::invalid_argument);
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 8]}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 0, 8]}]})"),
               std::invalid_argument);
  // Non-input layer without inputs; wrong arity; unknown producer id.
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 8, 8]},
                                    {"type": "relu"}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 8, 8]},
                                    {"type": "add", "inputs": [0]}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 8, 8]},
                                    {"type": "relu", "inputs": [5]}]})"),
               std::invalid_argument);
  // Forward reference (cycles are impossible to express, and rejected).
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 8, 8]},
                                    {"type": "relu", "inputs": [2]},
                                    {"type": "relu", "inputs": [1]}]})"),
               std::invalid_argument);
  // An "id" disagreeing with the layer's position would silently rewire.
  EXPECT_THROW(parse(R"({"layers": [{"id": 3, "type": "input", "shape": [3, 8, 8]}]})"),
               std::invalid_argument);
  // Conv/fc geometry.
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 8, 8]},
                                    {"type": "conv", "inputs": [0], "kernel": 3}]})"),
               std::invalid_argument);  // no out_channels
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 8, 8]},
                                    {"type": "conv", "inputs": [0], "out_channels": 8}]})"),
               std::invalid_argument);  // no kernel
  // Window larger than the input (shape inference).
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 4, 4]},
                                    {"type": "maxpool", "inputs": [0], "kernel": 8,
                                     "stride": 8}]})"),
               std::invalid_argument);
  // stride = 0 used to SIGFPE inside shape inference; negative pad is nonsense.
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 8, 8]},
                                    {"type": "conv", "inputs": [0], "out_channels": 4,
                                     "kernel": 3, "stride": 0}]})"),
               std::invalid_argument);
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [3, 8, 8]},
                                    {"type": "maxpool", "inputs": [0], "kernel": 2,
                                     "stride": 2, "pad": -1}]})"),
               std::invalid_argument);
  // Parameter arrays must agree with the geometry and come in pairs.
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [2, 1, 1]},
                                    {"type": "fc", "inputs": [0], "out_channels": 2,
                                     "weights": [1, 2, 3], "bias": [0, 0]}]})"),
               std::invalid_argument);  // 3 weights, geometry needs 4
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [2, 1, 1]},
                                    {"type": "fc", "inputs": [0], "out_channels": 2,
                                     "weights": [1, 2, 3, 4]}]})"),
               std::invalid_argument);  // weights without bias
  // Half-parameterized graphs cannot run functionally or be re-seeded.
  EXPECT_THROW(parse(R"({"layers": [{"type": "input", "shape": [2, 1, 1]},
                                    {"type": "fc", "inputs": [0], "out_channels": 2,
                                     "weights": [1, 2, 3, 4], "bias": [0, 0]},
                                    {"type": "fc", "inputs": [1], "out_channels": 2}]})"),
               std::invalid_argument);

  // Parameter values must be integers the layer's storage holds: int8
  // weights, int32 bias. 300 used to load as 44 and 5000000000 as 705032704.
  const auto error_of = [&](const char* text) {
    try {
      parse(text);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("(parsed)");
  };
  const std::string too_big_weight = error_of(R"({"layers": [{"type": "input", "shape": [2, 1, 1]},
      {"type": "fc", "name": "head", "inputs": [0], "out_channels": 2,
       "weights": [1, 300, 3, 4], "bias": [0, 0]}]})");
  EXPECT_NE(too_big_weight.find("layer 1 ('head')"), std::string::npos) << too_big_weight;
  EXPECT_NE(too_big_weight.find("\"weights\" value 300"), std::string::npos) << too_big_weight;
  // The name comes after "bias" here, as in every exported file.
  const std::string too_big_bias = error_of(R"({"layers": [{"type": "input", "shape": [2, 1, 1]},
      {"bias": [5000000000, 0], "inputs": [0], "name": "head", "out_channels": 2,
       "type": "fc", "weights": [1, 2, 3, 4]}]})");
  EXPECT_NE(too_big_bias.find("layer 1 ('head')"), std::string::npos) << too_big_bias;
  EXPECT_NE(too_big_bias.find("\"bias\" value 5000000000"), std::string::npos) << too_big_bias;
  for (const char* weights : {"[1, -129, 3, 4]", "[1, 2.5, 3, 4]", "[1, \"2\", 3, 4]",
                              "[1, null, 3, 4]", "[1, 1e300, 3, 4]", "7"}) {
    const std::string text = std::string(R"({"layers": [{"type": "input", "shape": [2, 1, 1]},
        {"type": "fc", "inputs": [0], "out_channels": 2, "bias": [0, 0], "weights": )") +
                             weights + "}]}";
    EXPECT_THROW(parse(text.c_str()), std::invalid_argument) << weights;
  }
  // Integral values written as doubles still count, as for json::Value::as_int.
  EXPECT_EQ(parse(R"({"layers": [{"type": "input", "shape": [2, 1, 1]},
      {"type": "fc", "inputs": [0], "out_channels": 2, "bias": [-2147483648, 2147483647],
       "weights": [1.0, -128, 127, 4e0]}]})").layer(1).weights,
            (std::vector<int8_t>{1, -128, 127, 4}));
  // A field of the wrong JSON type names its layer; syntax errors are
  // invalid_argument too, with the position.
  const std::string bad_kernel = error_of(R"({"layers": [{"type": "input", "shape": [3, 8, 8]},
      {"type": "conv", "name": "c1", "inputs": [0], "out_channels": 4, "kernel": "3"}]})");
  EXPECT_NE(bad_kernel.find("layer 1 ('c1')"), std::string::npos) << bad_kernel;
  // Geometry integers must fit the layer's int32 fields; a cast used to wrap
  // them: out_channels 4294967298 loaded as 2, input index 4294967296
  // rewired to layer 0, out_shift 4294967297 loaded as 1.
  for (const auto& [field, fc] : std::vector<std::pair<std::string, std::string>>{
           {"\"out_channels\" value 4294967298",
            R"("inputs": [0], "out_channels": 4294967298)"},
           {"\"inputs\" value 4294967296", R"("inputs": [4294967296], "out_channels": 2)"},
           {"\"out_shift\" value 4294967297",
            R"("inputs": [0], "out_channels": 2, "out_shift": 4294967297)"}}) {
    const std::string text = R"({"layers": [{"type": "input", "shape": [2, 1, 1]},
        {"type": "fc", "name": "head", )" + fc + "}]}";
    const std::string wrapped = error_of(text.c_str());
    EXPECT_NE(wrapped.find("layer 1 ('head')"), std::string::npos) << wrapped;
    EXPECT_NE(wrapped.find(field), std::string::npos) << wrapped;
  }
  const std::string syntax = error_of(R"({"layers": [{"type": "input", "shape": [3, 8, 8]} {}]})");
  EXPECT_NE(syntax.find("line 1"), std::string::npos) << syntax;

  // A good description still parses (sanity check on the battery above).
  const nn::Graph ok = parse(R"({"layers": [
    {"type": "input", "shape": [2, 1, 1]},
    {"type": "fc", "inputs": [0], "out_channels": 2,
     "weights": [1, 2, 3, 4], "bias": [0, 0], "out_shift": 2}
  ]})");
  EXPECT_EQ(ok.size(), 2u);

  // load_graph prefixes the path on file-level failures.
  EXPECT_THROW(load_graph("/nonexistent/net.json"), std::invalid_argument);
}

TEST(LoaderTest, ShippedParametersSurviveTheBuild) {
  // input -> relu -> fc: the layer after the input carries no parameters,
  // which pimc's old "layers()[1] has no weights" test took for a
  // parameter-free file, re-seeding over the shipped bias 7.
  const std::string path = temp_path("relu_fc.json");
  write_text_file(path, R"({"layers": [
    {"type": "input", "shape": [4, 1, 1]},
    {"type": "relu", "inputs": [0]},
    {"type": "fc", "inputs": [1], "out_channels": 2, "out_shift": 1,
     "weights": [1, 2, 3, 4, -1, -2, -3, -4], "bias": [7, -3]}
  ]})");
  const BuiltWorkload wl = build(WorkloadSpec::graph_file(path), /*init_params=*/true);
  EXPECT_EQ(wl.graph.layer(2).bias, (std::vector<int32_t>{7, -3}));
  EXPECT_EQ(wl.graph.layer(2).weights, (std::vector<int8_t>{1, 2, 3, 4, -1, -2, -3, -4}));
}

// ------------------------------------------------------- fingerprint / cache

TEST(FingerprintTest, TracksEverySpecParameter) {
  const WorkloadSpec base = WorkloadSpec::builtin("tiny_cnn", 8);
  WorkloadSpec seed = base;
  seed.weight_seed = 2;
  WorkloadSpec hw = base;
  hw.input_hw = 16;
  WorkloadSpec classes = base;
  classes.num_classes = 100;
  EXPECT_NE(base.fingerprint(), seed.fingerprint());
  EXPECT_NE(base.fingerprint(), hw.fingerprint());
  EXPECT_NE(base.fingerprint(), classes.fingerprint());
  EXPECT_NE(base.fingerprint(), WorkloadSpec::builtin("alexnet", 8).fingerprint());
  EXPECT_NE(base.fingerprint(), WorkloadSpec::mlp(8).fingerprint());
  // Deterministic across calls.
  EXPECT_EQ(base.fingerprint(), WorkloadSpec::builtin("tiny_cnn", 8).fingerprint());
}

TEST(FingerprintTest, WeightSeedOnlyCountsWhenItCanMatter) {
  // A parameter-bearing file ignores the spec's weight_seed at build time,
  // so two seeds over it are the *same* simulation and must share one
  // fingerprint; a topology-only file re-seeds, so there the seed counts.
  nn::ModelOptions mopt;
  mopt.input_hw = 8;
  const nn::Graph g = nn::build_model("tiny_cnn", mopt);  // params included
  const std::string with_params = temp_path("fp_with_params.json");
  const std::string topo_only = temp_path("fp_topo_only.json");
  export_graph(g, with_params, /*include_params=*/true);
  export_graph(g, topo_only, /*include_params=*/false);

  WorkloadSpec a = WorkloadSpec::graph_file(with_params);
  WorkloadSpec b = a;
  b.weight_seed = 2;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  WorkloadSpec c = WorkloadSpec::graph_file(topo_only);
  WorkloadSpec d = c;
  d.weight_seed = 2;
  EXPECT_NE(c.fingerprint(), d.fingerprint());
}

TEST(FingerprintTest, CacheKeyChangesOnFileEditNeverOnMoveOrReformat) {
  // The ISSUE-level contract: editing a graph file changes the dse cache
  // key (a guaranteed miss); moving or reformatting the file does not
  // (gratuitous misses are cheap, stale hits are not — but a no-op rewrite
  // should still hit).
  const std::string path = temp_path("cachekey.json");
  const char* original = R"({
    "name": "ck",
    "layers": [
      {"type": "input", "shape": [3, 8, 8]},
      {"type": "conv", "inputs": [0], "out_channels": 8, "kernel": 3, "stride": 1, "pad": 1}
    ]
  })";
  write_text_file(path, original);

  runtime::Scenario sc;
  sc.workload = WorkloadSpec::graph_file(path);
  sc.arch = config::ArchConfig::tiny();
  const std::string key_original = dse::scenario_key(sc);

  // Semantic edit: different channel count -> different key.
  write_text_file(path, R"({
    "name": "ck",
    "layers": [
      {"type": "input", "shape": [3, 8, 8]},
      {"type": "conv", "inputs": [0], "out_channels": 16, "kernel": 3, "stride": 1, "pad": 1}
    ]
  })");
  const std::string key_edited = dse::scenario_key(sc);
  EXPECT_NE(key_edited, key_original);

  // Reformat-only rewrite (same content, different whitespace) -> same key.
  write_text_file(path,
                  R"({"name":"ck","layers":[{"type":"input","shape":[3,8,8]},)"
                  R"({"type":"conv","inputs":[0],"out_channels":8,"kernel":3,)"
                  R"("stride":1,"pad":1}]})");
  EXPECT_EQ(dse::scenario_key(sc), key_original);

  // Moving the file keeps the key: the content is the identity, not the path.
  const std::string moved = temp_path("cachekey_moved.json");
  std::filesystem::copy_file(path, moved,
                             std::filesystem::copy_options::overwrite_existing);
  runtime::Scenario sc_moved = sc;
  sc_moved.workload = WorkloadSpec::graph_file(moved);
  EXPECT_EQ(dse::scenario_key(sc_moved), key_original);
}

TEST(FingerprintTest, DseCacheInvalidatesOnFileEdit) {
  // End to end through the evaluator: evaluate, edit the workload file,
  // re-evaluate — the edited run must miss (fresh simulation), and editing
  // back must hit the original entries again.
  const std::string path = temp_path("dse_edit.json");
  const char* small_net = R"({
    "name": "editnet",
    "layers": [
      {"type": "input", "shape": [3, 4, 4]},
      {"type": "flatten", "inputs": [0]},
      {"type": "fc", "inputs": [1], "out_channels": 8}
    ]
  })";
  const char* edited_net = R"({
    "name": "editnet",
    "layers": [
      {"type": "input", "shape": [3, 4, 4]},
      {"type": "flatten", "inputs": [0]},
      {"type": "fc", "inputs": [1], "out_channels": 16}
    ]
  })";
  write_text_file(path, small_net);

  const std::string cache_dir = temp_path("dse_edit_cache");
  std::filesystem::remove_all(cache_dir);
  const json::Value space_json = json::parse(R"({
    "name": "edit-space",
    "base": "tiny",
    "model": ")" + path + R"(",
    "knobs": {"rob_size": [4, 8]}
  })");
  const dse::SearchSpace space = dse::SearchSpace::from_json(space_json);
  ASSERT_EQ(space.workload.kind, Kind::GraphFile);
  const std::vector<dse::Point> pts = dse::make_sampler("grid", space)->propose(SIZE_MAX, {});
  ASSERT_EQ(pts.size(), 2u);

  dse::Evaluator cold(space, 1, cache_dir);
  cold.evaluate(pts);
  EXPECT_EQ(cold.cache_stats().misses, 2u);

  write_text_file(path, edited_net);
  dse::Evaluator after_edit(space, 1, cache_dir);
  after_edit.evaluate(pts);
  EXPECT_EQ(after_edit.cache_stats().hits, 0u) << "stale hit against an edited workload file";
  EXPECT_EQ(after_edit.cache_stats().misses, 2u);

  write_text_file(path, small_net);
  dse::Evaluator back(space, 1, cache_dir);
  back.evaluate(pts);
  EXPECT_EQ(back.cache_stats().hits, 2u);
  EXPECT_EQ(back.cache_stats().misses, 0u);
}

TEST(FingerprintTest, EquivalentPointsSimulateOnceWithinABatch) {
  // An input_hw sweep over a graph-file workload cannot change the
  // simulation (the file fixes its own resolution), so the three points
  // share one cache key: one simulation, two in-batch aliases reported as
  // hits, and identical metrics on all three.
  const std::string path = temp_path("dedup.json");
  write_text_file(path, R"({
    "name": "dedupnet",
    "layers": [
      {"type": "input", "shape": [3, 4, 4]},
      {"type": "flatten", "inputs": [0]},
      {"type": "fc", "inputs": [1], "out_channels": 6}
    ]
  })");
  const json::Value space_json = json::parse(R"({
    "base": "tiny",
    "model": ")" + path + R"(",
    "knobs": {"input_hw": [8, 16, 32]}
  })");
  const dse::SearchSpace space = dse::SearchSpace::from_json(space_json);
  dse::Evaluator ev(space, 1, "");
  const std::vector<dse::EvaluatedPoint> res =
      ev.evaluate(dse::make_sampler("grid", space)->propose(SIZE_MAX, {}));
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(ev.cache_stats().misses, 1u);
  EXPECT_EQ(ev.cache_stats().hits, 2u);
  for (const dse::EvaluatedPoint& p : res) {
    ASSERT_TRUE(p.feasible && p.ok) << p.error;
    EXPECT_EQ(p.metrics.to_json().dump(), res[0].metrics.to_json().dump());
  }
}

TEST(FingerprintTest, FileEditedMidRunIsNotCachedUnderTheStaleKey) {
  // Keys are computed up front, simulations run after — a file edited in
  // that window must never poison the cache. The evaluator resolves the
  // graph once while keying and pins it on the scenario, so every point
  // simulates exactly the content its key names: the edit cannot leak into
  // the batch at all, and both stored entries stay valid for the original
  // content.
  const std::string path = temp_path("midrun.json");
  const std::string net_a = R"({
    "name": "midrun",
    "layers": [
      {"type": "input", "shape": [3, 4, 4]},
      {"type": "flatten", "inputs": [0]},
      {"type": "fc", "inputs": [1], "out_channels": 8}
    ]
  })";
  const std::string net_b = R"({
    "name": "midrun",
    "layers": [
      {"type": "input", "shape": [3, 4, 4]},
      {"type": "flatten", "inputs": [0]},
      {"type": "fc", "inputs": [1], "out_channels": 16}
    ]
  })";
  write_text_file(path, net_a);
  const std::string cache_dir = temp_path("midrun_cache");
  std::filesystem::remove_all(cache_dir);

  const dse::SearchSpace space = dse::SearchSpace::from_json(json::parse(R"({
    "base": "tiny",
    "model": ")" + path + R"(",
    "knobs": {"rob_size": [4, 8]}
  })"));
  const std::vector<dse::Point> pts = dse::make_sampler("grid", space)->propose(SIZE_MAX, {});
  ASSERT_EQ(pts.size(), 2u);

  // Uncached reference on the original content.
  dse::Evaluator ref(space, 1, "");
  const std::vector<dse::EvaluatedPoint> want = ref.evaluate(pts);
  ASSERT_EQ(want.size(), 2u);

  // jobs=1 serializes the two simulations; the file is swapped after the
  // first result lands, while the second point's key (built on net_a) is
  // still pending.
  dse::Evaluator ev(space, 1, cache_dir);
  ev.set_progress([&](const dse::EvaluatedPoint&, size_t done, size_t) {
    if (done == 1) write_text_file(path, net_b);
  });
  const std::vector<dse::EvaluatedPoint> hostile = ev.evaluate(pts);
  EXPECT_EQ(ev.cache_stats().misses, 2u);
  for (size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_EQ(hostile[i].metrics.to_json().dump(), want[i].metrics.to_json().dump())
        << "point " << i << " simulated the edited content";
  }

  // Back on the original content, both entries are valid and hit.
  write_text_file(path, net_a);
  dse::Evaluator after(space, 1, cache_dir);
  const std::vector<dse::EvaluatedPoint> res = after.evaluate(pts);
  EXPECT_EQ(after.cache_stats().hits, 2u);
  EXPECT_EQ(after.cache_stats().misses, 0u);
  for (size_t i = 0; i < res.size(); ++i) {
    ASSERT_TRUE(res[i].feasible && res[i].ok) << res[i].error;
    EXPECT_EQ(res[i].metrics.to_json().dump(), want[i].metrics.to_json().dump());
  }
}

TEST(FingerprintTest, VanishedFileDegradesToInfeasiblePoint) {
  const std::string path = temp_path("vanishing.json");
  write_text_file(path, R"({
    "layers": [
      {"type": "input", "shape": [3, 4, 4]},
      {"type": "flatten", "inputs": [0]},
      {"type": "fc", "inputs": [1], "out_channels": 4}
    ]
  })");
  const json::Value space_json = json::parse(R"({
    "base": "tiny",
    "model": ")" + path + R"(",
    "knobs": {"rob_size": [4]}
  })");
  const dse::SearchSpace space = dse::SearchSpace::from_json(space_json);
  std::filesystem::remove(path);  // gone between load and evaluate
  dse::Evaluator ev(space, 1, "");
  const std::vector<dse::EvaluatedPoint> res =
      ev.evaluate(dse::make_sampler("grid", space)->propose(SIZE_MAX, {}));
  ASSERT_EQ(res.size(), 1u);
  EXPECT_FALSE(res[0].feasible);
  EXPECT_NE(res[0].error.find("vanishing.json"), std::string::npos) << res[0].error;
}

// --------------------------------------------------------- dse integration

TEST(DseWorkloadTest, ModelKnobRangesOverGraphFiles) {
  const std::string path = temp_path("knobnet.json");
  write_text_file(path, R"({
    "name": "knobnet",
    "layers": [
      {"type": "input", "shape": [3, 4, 4]},
      {"type": "flatten", "inputs": [0]},
      {"type": "fc", "inputs": [1], "out_channels": 6}
    ]
  })");
  const json::Value space_json = json::parse(R"({
    "base": "tiny",
    "model": "mlp",
    "input_hw": 4,
    "knobs": {
      "model": ["mlp", ")" + path + R"("],
      "weight_seed": [1, 2],
      "rob_size": [4]
    }
  })");
  const dse::SearchSpace space = dse::SearchSpace::from_json(space_json);
  const std::vector<dse::Point> pts = dse::make_sampler("grid", space)->propose(SIZE_MAX, {});
  ASSERT_EQ(pts.size(), 4u);
  size_t files = 0, mlps = 0;
  for (const dse::Point& p : pts) {
    const dse::MaterializedPoint m = dse::materialize(space, p);
    ASSERT_TRUE(m.feasible) << m.error;
    if (m.scenario.workload.kind == Kind::GraphFile) {
      ++files;
      EXPECT_EQ(m.scenario.workload.path, path);
      EXPECT_EQ(m.scenario.workload.label(), "knobnet");
    } else {
      ++mlps;
      EXPECT_EQ(m.scenario.workload.kind, Kind::Mlp);
      EXPECT_EQ(m.scenario.workload.input_hw, 4);
    }
    // The weight_seed knob lands on the workload regardless of kind.
    EXPECT_EQ(m.scenario.workload.weight_seed,
              static_cast<uint64_t>(p.at("weight_seed").as_int()));
  }
  EXPECT_EQ(files, 2u);
  EXPECT_EQ(mlps, 2u);

  // A space whose "model" knob names a broken file fails at load time.
  const std::string broken = temp_path("broken.json");
  write_text_file(broken, R"({"layers": [{"type": "warp"}]})");
  const json::Value bad = json::parse(R"({
    "base": "tiny",
    "knobs": {"model": [")" + broken + R"("]}
  })");
  EXPECT_THROW(dse::SearchSpace::from_json(bad), std::invalid_argument);
}

TEST(DseWorkloadTest, ModelKnobPreservesCustomMlpHidden) {
  // Regression: the "model" knob swap must keep the space's custom mlp
  // stack, not silently reset it to the default {64, 32}.
  const dse::SearchSpace space = dse::SearchSpace::from_json(json::parse(R"({
    "base": "tiny",
    "workload": {"kind": "mlp", "hidden": [128], "input_hw": 4},
    "knobs": {"model": ["mlp", "tiny_cnn"], "rob_size": [4]}
  })"));
  const dse::MaterializedPoint m = dse::materialize(
      space, dse::Point{{"model", json::Value("mlp")}, {"rob_size", json::Value(4)}});
  ASSERT_TRUE(m.feasible) << m.error;
  EXPECT_EQ(m.scenario.workload.kind, Kind::Mlp);
  EXPECT_EQ(m.scenario.workload.mlp_hidden, (std::vector<int32_t>{128}));
}

TEST(DseWorkloadTest, SpaceLevelWorkloadObjectParses) {
  const json::Value space_json = json::parse(R"({
    "base": "tiny",
    "workload": {"kind": "mlp", "hidden": [16, 8], "input_hw": 4},
    "knobs": {"rob_size": [4, 8]}
  })");
  const dse::SearchSpace space = dse::SearchSpace::from_json(space_json);
  EXPECT_EQ(space.workload.kind, Kind::Mlp);
  EXPECT_EQ(space.workload.mlp_hidden, (std::vector<int32_t>{16, 8}));
  EXPECT_EQ(space.workload.input_hw, 4);
  // "workload" and legacy "model" are mutually exclusive.
  EXPECT_THROW(dse::SearchSpace::from_json(json::parse(R"({
    "base": "tiny", "model": "mlp", "workload": "mlp", "knobs": {"rob_size": [4]}
  })")),
               std::invalid_argument);
}

// ------------------------------------------------------------ graph goldens
//
// Graph fingerprints key the dse result cache and the pimserved on-disk
// cache, and exported files are what users keep, so the graph serialization
// must reproduce every hash below exactly. A change to any of them must be
// deliberate: update it and say why in CHANGES.md.

constexpr uint64_t kGoldenWeightSeed = 3;

nn::Graph golden_graph(const std::string& model, int32_t input_hw, bool params) {
  nn::ModelOptions mopt;
  mopt.input_hw = input_hw;
  mopt.init_params = params;
  mopt.weight_seed = kGoldenWeightSeed;
  return nn::build_model(model, mopt);
}

std::string hex(uint64_t h) { return strformat("%016llx", static_cast<unsigned long long>(h)); }

std::string read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
}

TEST(GraphGoldenTest, ZooFingerprints) {
  struct Golden {
    const char* model;
    int32_t input_hw;
    bool params;
    uint64_t fingerprint;
  };
  static constexpr Golden kGoldens[] = {
      {"alexnet", 16, false, 0xc5ffbacb11ef27beull},
      {"alexnet", 16, true, 0x478ba85936f7ea1full},
      {"alexnet", 32, false, 0xdf0a387feec87106ull},
      {"alexnet", 32, true, 0x9066b94da3f517e5ull},
      {"googlenet", 16, false, 0x99504e5fa9802334ull},
      {"googlenet", 16, true, 0x06b6ba77fb102770ull},
      {"googlenet", 32, false, 0xc254a9ddc8542830ull},
      {"googlenet", 32, true, 0x63e45d16e41fde14ull},
      {"resnet18", 16, false, 0x42628b2c56cc034aull},
      {"resnet18", 16, true, 0x630ddcd11c116ef3ull},
      {"resnet18", 32, false, 0x15e97f162ac7956eull},
      {"resnet18", 32, true, 0x7494de3a269e4857ull},
      {"squeezenet", 16, false, 0x742c1605cb9b6ec5ull},
      {"squeezenet", 16, true, 0x2f34ed791d2743faull},
      {"squeezenet", 32, false, 0x2d1f7756ca920529ull},
      {"squeezenet", 32, true, 0x2464160a1036d9eeull},
      {"tiny_cnn", 16, false, 0x407f5a7d1bc965e3ull},
      {"tiny_cnn", 16, true, 0x6f01a18066234a8aull},
      {"tiny_cnn", 32, false, 0x49e3b9bd8d1a7dd7ull},
      {"tiny_cnn", 32, true, 0xfe37a0c24401925bull},
      {"vgg16", 16, false, 0xc48d84ce270817ecull},
      {"vgg16", 16, true, 0x2622a2bfc62a7d20ull},
      {"vgg16", 32, false, 0x6bd0a36fd10e0ee8ull},
      {"vgg16", 32, true, 0xfc60d5d0b451e1ccull},
      {"vgg8", 16, false, 0xcafd056ff4a63308ull},
      {"vgg8", 16, true, 0xe6770572b31f4146ull},
      {"vgg8", 32, false, 0x4d5f49155084f20cull},
      {"vgg8", 32, true, 0x7fc44343e00aaf42ull},
  };
  ASSERT_EQ(std::size(kGoldens), 4 * nn::model_names().size());
  for (const Golden& g : kGoldens) {
    EXPECT_EQ(hex(graph_fingerprint(golden_graph(g.model, g.input_hw, g.params))),
              hex(g.fingerprint))
        << g.model << " at " << g.input_hw << (g.params ? ", seeded params" : ", no params");
  }
}

TEST(GraphGoldenTest, ExportedFileBytesAndSpecFingerprints) {
  struct Golden {
    const char* model;
    int32_t input_hw;
    bool params;
    uint64_t file_bytes;        ///< fnv1a64 of the exported file
    uint64_t spec_fingerprint;  ///< WorkloadSpec::fingerprint() of that file
  };
  static constexpr Golden kGoldens[] = {
      {"tiny_cnn", 16, true, 0x1ff17a92cdf38e68ull, 0xae05e1d5bbe97b37ull},
      {"tiny_cnn", 16, false, 0x3a9227bafb7c701dull, 0x351966e04f5cc3baull},
      {"squeezenet", 16, true, 0xbf35950683276052ull, 0xca0a47573a657181ull},
      {"squeezenet", 16, false, 0x5a512ae934dd568bull, 0x09edd6e9c3402857ull},
      {"resnet18", 16, false, 0x2b0722d1d2de67d2ull, 0x45920b1c04b9e308ull},
      {"googlenet", 16, false, 0xb3fbff596f605e14ull, 0x5205ec189dd3eb0dull},
  };
  for (const Golden& g : kGoldens) {
    const std::string what =
        std::string(g.model) + (g.params ? " with params" : " without params");
    const std::string path = temp_path(std::string("golden_") + g.model +
                                       (g.params ? "_params" : "_topo") + ".json");
    export_graph(golden_graph(g.model, g.input_hw, g.params), path, g.params);
    EXPECT_EQ(hex(fnv1a64(read_bytes(path))), hex(g.file_bytes)) << what;
    EXPECT_EQ(hex(WorkloadSpec::graph_file(path).fingerprint()), hex(g.spec_fingerprint))
        << what;
  }
}

}  // namespace
}  // namespace pim::workload
