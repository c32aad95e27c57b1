// Unit tests for the network IR, model zoo and reference executor.
#include <gtest/gtest.h>

#include "nn/executor.h"
#include "nn/graph.h"
#include "nn/models.h"
#include "workload/workload.h"

namespace pim::nn {
namespace {

TEST(Graph, ShapesChainThroughConvPoolFc) {
  Graph g;
  int32_t x = g.add_input({3, 8, 8});
  x = g.add_conv(x, 16, 3, 1, 1, "c");
  x = g.add_maxpool(x, 2, 2, 0, "p");
  x = g.add_flatten(x);
  x = g.add_fc(x, 10, "f");
  g.infer_shapes();
  EXPECT_EQ(g.layer(1).out_shape, (Shape{16, 8, 8}));
  EXPECT_EQ(g.layer(2).out_shape, (Shape{16, 4, 4}));
  EXPECT_EQ(g.layer(3).out_shape, (Shape{16 * 16, 1, 1}));
  EXPECT_EQ(g.layer(4).out_shape, (Shape{10, 1, 1}));
  EXPECT_EQ(g.layer(4).weight_rows(), 256);
  EXPECT_EQ(g.layer(4).weight_cols(), 10);
}

TEST(Graph, ConvGeometry) {
  Graph g;
  int32_t x = g.add_input({1, 7, 7});
  g.add_conv(x, 4, 3, 2, 0, "c");  // (7-3)/2+1 = 3
  g.infer_shapes();
  EXPECT_EQ(g.layer(1).out_shape, (Shape{4, 3, 3}));
}

TEST(Graph, PaddedPoolKeepsDims) {
  Graph g;
  int32_t x = g.add_input({8, 6, 6});
  g.add_maxpool(x, 3, 1, 1, "p");  // 3x3 s1 p1 -> same dims
  g.infer_shapes();
  EXPECT_EQ(g.layer(1).out_shape, (Shape{8, 6, 6}));
}

TEST(Graph, RejectsBadGeometry) {
  Graph g;
  int32_t x = g.add_input({1, 4, 4});
  g.add_conv(x, 2, 7, 1, 0, "too-big");
  EXPECT_THROW(g.infer_shapes(), std::invalid_argument);
}

TEST(Graph, RejectsMismatchedAdd) {
  Graph g;
  int32_t x = g.add_input({2, 4, 4});
  int32_t a = g.add_conv(x, 4, 1, 1, 0, "a");
  int32_t b = g.add_conv(x, 8, 1, 1, 0, "b");
  g.add_add(a, b, "bad");
  EXPECT_THROW(g.infer_shapes(), std::invalid_argument);
}

TEST(Graph, RejectsUnknownInputId) {
  Graph g;
  g.add_input({1, 2, 2});
  EXPECT_THROW(g.add_relu(42), std::invalid_argument);
}

TEST(Graph, ConcatSumsChannels) {
  Graph g;
  int32_t x = g.add_input({4, 5, 5});
  int32_t a = g.add_conv(x, 3, 1, 1, 0, "a");
  int32_t b = g.add_conv(x, 5, 1, 1, 0, "b");
  g.add_concat({a, b}, "cat");
  g.infer_shapes();
  EXPECT_EQ(g.layer(3).out_shape, (Shape{8, 5, 5}));
}

TEST(Graph, TopoOrderRespectsEdges) {
  Graph g;
  int32_t x = g.add_input({1, 2, 2});
  int32_t a = g.add_relu(x, "a");
  int32_t b = g.add_relu(a, "b");
  int32_t c = g.add_add(a, b, "c");
  auto order = g.topo_order();
  auto pos = [&order](int32_t id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(x), pos(a));
  EXPECT_LT(pos(a), pos(b));
  EXPECT_LT(pos(b), pos(c));
}

TEST(Graph, OutputsAndInputs) {
  Graph g;
  int32_t x = g.add_input({1, 2, 2});
  int32_t r = g.add_relu(x);
  g.infer_shapes();
  EXPECT_EQ(g.inputs(), (std::vector<int32_t>{x}));
  EXPECT_EQ(g.outputs(), (std::vector<int32_t>{r}));
}

TEST(Graph, JsonRoundTrip) {
  ModelOptions mopt;
  mopt.input_hw = 8;
  Graph g = build_tiny_cnn(mopt);
  std::string text;
  json::Writer out(text);
  workload::write_graph(out, g, /*include_params=*/true);
  Graph back = workload::graph_from_json(text);
  ASSERT_EQ(back.size(), g.size());
  for (size_t i = 0; i < g.size(); ++i) {
    const Layer& a = g.layers()[i];
    const Layer& b = back.layers()[i];
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.out_shape, b.out_shape);
    EXPECT_EQ(a.weights, b.weights);
    EXPECT_EQ(a.bias, b.bias);
    EXPECT_EQ(a.out_shift, b.out_shift);
  }
}

TEST(Graph, ParameterInitIsDeterministic) {
  ModelOptions mopt;
  mopt.input_hw = 8;
  Graph a = build_tiny_cnn(mopt);
  Graph b = build_tiny_cnn(mopt);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.layers()[i].weights, b.layers()[i].weights);
  }
  mopt.weight_seed = 2;
  Graph c = build_tiny_cnn(mopt);
  EXPECT_NE(a.layer(1).weights, c.layer(1).weights);
}

// ------------------------------------------------------------- reference exec

TEST(Executor, FcMatchesHandComputation) {
  Graph g;
  int32_t x = g.add_input({2, 1, 1});
  g.add_fc(x, 2, "fc");
  g.infer_shapes();
  Layer& fc = g.layer(1);
  // W (K=2 x N=2) row-major: w[k*N+n]
  fc.weights = {1, 2, 3, 4};  // w00=1 w01=2 w10=3 w11=4
  fc.bias = {10, -10};
  fc.out_shift = 0;

  Tensor in;
  in.shape = {2, 1, 1};
  in.data = {5, -3};
  Tensor out = execute_reference_output(g, in);
  // n0: 5*1 + (-3)*3 + 10 = 6 ; n1: 5*2 + (-3)*4 - 10 = -12
  EXPECT_EQ(out.data[0], 6);
  EXPECT_EQ(out.data[1], -12);
}

TEST(Executor, FcShiftAndSaturate) {
  Graph g;
  int32_t x = g.add_input({1, 1, 1});
  g.add_fc(x, 2, "fc");
  g.infer_shapes();
  Layer& fc = g.layer(1);
  fc.weights = {100, -100};
  fc.bias = {0, 0};
  fc.out_shift = 2;
  Tensor in;
  in.shape = {1, 1, 1};
  in.data = {100};
  Tensor out = execute_reference_output(g, in);
  // 100*100 = 10000 >> 2 (rounded) = 2500 -> saturates to 127 / -128.
  EXPECT_EQ(out.data[0], 127);
  EXPECT_EQ(out.data[1], -128);
}

TEST(Executor, ReluFoldingEquivalence) {
  // relu(conv) computed via folded accumulator relu must equal relu on the
  // quantized int8 output — the identity the compiler's fusion relies on.
  ModelOptions mopt;
  mopt.input_hw = 6;
  mopt.input_channels = 2;
  Graph g;
  int32_t x = g.add_input({2, 6, 6});
  int32_t c = g.add_conv(x, 4, 3, 1, 1, "c");
  g.add_relu(c, "r");
  g.infer_shapes();
  g.init_parameters(3);
  Tensor in = random_input({2, 6, 6}, 11);
  auto acts = execute_reference(g, in);  // uses folded path
  // Unfolded: clone the graph, add a dummy extra consumer to defeat folding.
  Graph g2;
  int32_t x2 = g2.add_input({2, 6, 6});
  int32_t c2 = g2.add_conv(x2, 4, 3, 1, 1, "c");
  g2.add_relu(c2, "r");
  g2.add_relu(c2, "r2");  // second consumer -> no folding
  g2.infer_shapes();
  g2.layer(1).weights = g.layer(1).weights;
  g2.layer(1).bias = g.layer(1).bias;
  g2.layer(1).out_shift = g.layer(1).out_shift;
  auto acts2 = execute_reference(g2, in);
  EXPECT_EQ(acts.at(2).data, acts2.at(2).data);
}

TEST(Executor, MaxPoolWithPaddingIgnoresBorder) {
  Graph g;
  int32_t x = g.add_input({1, 2, 2});
  g.add_maxpool(x, 3, 1, 1, "p");
  g.infer_shapes();
  Tensor in;
  in.shape = {1, 2, 2};
  in.data = {-5, -6, -7, -8};  // all negative: padding must NOT contribute 0
  auto acts = execute_reference(g, in);
  const Tensor& out = acts.at(1);
  EXPECT_EQ(out.shape, (Shape{1, 2, 2}));
  for (int8_t v : out.data) EXPECT_EQ(v, -5);  // max of the valid window
}

TEST(Executor, AvgPoolRoundsByValidCount) {
  Graph g;
  int32_t x = g.add_input({1, 2, 2});
  g.add_avgpool(x, 2, 2, 0, "p");
  g.infer_shapes();
  Tensor in;
  in.shape = {1, 2, 2};
  in.data = {1, 2, 3, 5};  // sum 11, window 4 -> (11+2)/4 = 3
  auto acts = execute_reference(g, in);
  EXPECT_EQ(acts.at(1).data[0], 3);
}

TEST(Executor, AddSaturates) {
  Graph g;
  int32_t x = g.add_input({1, 1, 2});
  int32_t r1 = g.add_relu(x, "a");
  int32_t r2 = g.add_relu(x, "b");
  g.add_add(r1, r2, "sum");
  g.infer_shapes();
  Tensor in;
  in.shape = {1, 1, 2};
  in.data = {100, 27};
  auto acts = execute_reference(g, in);
  EXPECT_EQ(acts.at(3).data[0], 127);  // 100+100 saturates
  EXPECT_EQ(acts.at(3).data[1], 54);
}

TEST(Executor, ConcatHwcInterleaving) {
  Graph g;
  int32_t x = g.add_input({1, 1, 2});
  int32_t a = g.add_relu(x, "a");
  int32_t b = g.add_relu(x, "b");
  g.add_concat({a, b}, "cat");
  g.infer_shapes();
  Tensor in;
  in.shape = {1, 1, 2};
  in.data = {3, 4};  // positions p0=3, p1=4
  auto acts = execute_reference(g, in);
  // HWC: per position, channels of a then b: [3,3, 4,4]
  EXPECT_EQ(acts.at(3).data, (std::vector<int8_t>{3, 3, 4, 4}));
}

TEST(Executor, TensorAtUsesHwcLayout) {
  Tensor t;
  t.shape = {3, 2, 2};
  t.data.resize(12);
  for (size_t i = 0; i < 12; ++i) t.data[i] = static_cast<int8_t>(i);
  // index (y*W + x)*C + c
  EXPECT_EQ(t.at(0, 0, 0), 0);
  EXPECT_EQ(t.at(2, 0, 0), 2);
  EXPECT_EQ(t.at(0, 0, 1), 3);
  EXPECT_EQ(t.at(1, 1, 1), static_cast<int8_t>((1 * 2 + 1) * 3 + 1));
}

// ---------------------------------------------------------------- model zoo

struct ZooCase {
  const char* name;
  int32_t hw;
};

class ModelZooTest : public ::testing::TestWithParam<ZooCase> {};

TEST_P(ModelZooTest, BuildsAndInfers) {
  const auto& [name, hw] = GetParam();
  ModelOptions mopt;
  mopt.input_hw = hw;
  mopt.init_params = false;
  Graph g = build_model(name, mopt);
  EXPECT_GT(g.size(), 3u);
  EXPECT_EQ(g.outputs().size(), 1u);
  EXPECT_GT(g.total_macs(), 0);
  EXPECT_GT(g.total_weight_elems(), 0);
  // Final classifier emits num_classes features.
  const Layer& out = g.layer(g.outputs()[0]);
  EXPECT_EQ(out.out_shape.elems(), 10);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelZooTest,
    ::testing::Values(ZooCase{"alexnet", 32}, ZooCase{"vgg8", 32}, ZooCase{"vgg16", 32},
                      ZooCase{"resnet18", 32}, ZooCase{"googlenet", 32},
                      ZooCase{"squeezenet", 32}, ZooCase{"tiny_cnn", 16},
                      ZooCase{"alexnet", 64}, ZooCase{"resnet18", 64},
                      ZooCase{"googlenet", 224}, ZooCase{"resnet18", 224}),
    [](const ::testing::TestParamInfo<ZooCase>& info) {
      return std::string(info.param.name) + "_" + std::to_string(info.param.hw);
    });

TEST(ModelZoo, KnownLayerCounts) {
  ModelOptions mopt;
  mopt.input_hw = 32;
  mopt.init_params = false;
  auto count_convs = [](const Graph& g) {
    int n = 0;
    for (const Layer& l : g.layers()) {
      if (l.type == OpType::Conv) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_convs(build_vgg16(mopt)), 13);
  EXPECT_EQ(count_convs(build_vgg8(mopt)), 5);
  EXPECT_EQ(count_convs(build_resnet18(mopt)), 17 + 3);  // 17 main + 3 downsample
  EXPECT_EQ(count_convs(build_squeezenet(mopt)), 1 + 8 * 3 + 1);
  EXPECT_EQ(count_convs(build_googlenet(mopt)), 3 + 9 * 6);
}

TEST(ModelZoo, ResNetHasResidualAdds) {
  ModelOptions mopt;
  mopt.input_hw = 32;
  mopt.init_params = false;
  Graph g = build_resnet18(mopt);
  int adds = 0;
  for (const Layer& l : g.layers()) {
    if (l.type == OpType::Add) ++adds;
  }
  EXPECT_EQ(adds, 8);  // 4 stages x 2 blocks
}

TEST(ModelZoo, UnknownNameThrows) {
  EXPECT_THROW(build_model("lenet5000", {}), std::invalid_argument);
}

TEST(ModelZoo, ReferenceRunsOnTinyModels) {
  ModelOptions mopt;
  mopt.input_hw = 8;
  Graph g = build_tiny_cnn(mopt);
  Tensor in = random_input({3, 8, 8});
  Tensor out = execute_reference_output(g, in);
  EXPECT_EQ(out.data.size(), 10u);
  // Deterministic: same run twice.
  EXPECT_EQ(execute_reference_output(g, in).data, out.data);
}

TEST(ModelZoo, MlpBuilder) {
  Graph g = build_mlp(16, {32, 24}, 5);
  Tensor in = random_input({16, 1, 1});
  Tensor out = execute_reference_output(g, in);
  EXPECT_EQ(out.data.size(), 5u);
}

}  // namespace
}  // namespace pim::nn
