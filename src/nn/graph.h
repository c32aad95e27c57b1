// Neural-network graph IR — the typed form of the paper's "network
// description file" (Fig. 1, ONNX format in the original; a JSON container
// with identical information here, read and written by pim::workload).
//
// The IR is a DAG of layers over quantized int8 tensors in CHW layout.
// Arithmetic semantics are fixed-point and defined once, shared bit-exactly
// by the reference executor (`nn::execute_reference`) and the compiled
// program running on the simulator:
//
//   conv/fc:  acc_i32 = sum(w_i8 * x_i8) + bias_i32
//             out_i8  = sat8(round_shift(acc, out_shift))      [relu folded]
//   add:      out_i8  = sat8(a_i8 + b_i8)
//   pool:     max / rounded-average over the window, int8
//   relu:     max(x, 0)
//   concat:   channel-wise concatenation
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pim::nn {

enum class OpType : uint8_t {
  Input,
  Conv,            ///< 2-D convolution (+ bias, + requantization)
  FullyConnected,  ///< matrix-vector layer (+ bias, + requantization)
  MaxPool,
  AvgPool,
  GlobalAvgPool,
  Relu,
  Add,             ///< element-wise residual add
  Concat,          ///< channel concat (googlenet / squeezenet)
  Flatten,
};

const char* op_name(OpType t);
OpType op_from_name(const std::string& name);

/// Activation tensor shape, CHW. FC activations use c=features, h=w=1.
struct Shape {
  int32_t c = 0;
  int32_t h = 1;
  int32_t w = 1;
  int64_t elems() const { return int64_t{c} * h * w; }
  bool operator==(const Shape&) const = default;
};

/// One layer (node) of the DAG.
struct Layer {
  int32_t id = -1;
  std::string name;
  OpType type = OpType::Input;
  std::vector<int32_t> inputs;  ///< producer layer ids, in operand order

  // Conv / pool geometry.
  int32_t out_channels = 0;
  int32_t kernel_h = 0, kernel_w = 0;
  int32_t stride_h = 1, stride_w = 1;
  int32_t pad_h = 0, pad_w = 0;

  // Quantization: output requantization shift for Conv/FC.
  int32_t out_shift = 0;

  // Parameters (Conv: [out_c][in_c*kh*kw] row-major; FC: [out][in]).
  std::vector<int8_t> weights;
  std::vector<int32_t> bias;

  // Filled by Graph::infer_shapes().
  Shape in_shape;   ///< shape of first input
  Shape out_shape;

  /// Rows (K) and columns (N) of the weight matrix this layer lowers to on
  /// crossbars; zero for non-matrix layers.
  int64_t weight_rows() const;
  int64_t weight_cols() const;
};

/// A DNN as a DAG of layers. Layer ids are indices into `layers`.
class Graph {
 public:
  explicit Graph(std::string name = "net") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  // ---- construction -------------------------------------------------------
  int32_t add_input(Shape shape, const std::string& name = "input");
  int32_t add_conv(int32_t input, int32_t out_channels, int32_t kernel, int32_t stride,
                   int32_t pad, const std::string& name = "");
  int32_t add_fc(int32_t input, int32_t out_features, const std::string& name = "");
  int32_t add_maxpool(int32_t input, int32_t kernel, int32_t stride, int32_t pad = 0,
                      const std::string& name = "");
  int32_t add_avgpool(int32_t input, int32_t kernel, int32_t stride, int32_t pad = 0,
                      const std::string& name = "");
  int32_t add_global_avgpool(int32_t input, const std::string& name = "");
  int32_t add_relu(int32_t input, const std::string& name = "");
  int32_t add_add(int32_t a, int32_t b, const std::string& name = "");
  int32_t add_concat(std::vector<int32_t> inputs, const std::string& name = "");
  int32_t add_flatten(int32_t input, const std::string& name = "");
  /// Append a fully described layer — the general form of the builders
  /// above. Assigns its id, names it "<op>_<id>" when unnamed, and throws
  /// std::invalid_argument when an input is not an earlier layer.
  int32_t add_layer(Layer layer);

  // ---- access --------------------------------------------------------------
  const std::vector<Layer>& layers() const { return layers_; }
  std::vector<Layer>& layers() { return layers_; }
  const Layer& layer(int32_t id) const { return layers_.at(static_cast<size_t>(id)); }
  Layer& layer(int32_t id) { return layers_.at(static_cast<size_t>(id)); }
  size_t size() const { return layers_.size(); }

  /// Ids of layers with no consumers (network outputs).
  std::vector<int32_t> outputs() const;
  /// Ids of Input layers.
  std::vector<int32_t> inputs() const;
  /// Consumers of each layer (inverse edges).
  std::vector<std::vector<int32_t>> consumers() const;

  /// Topological order (layer ids). Throws std::logic_error on cycles.
  std::vector<int32_t> topo_order() const;

  /// Propagate shapes from inputs; must be called after construction and
  /// before compilation/execution. Throws on inconsistent geometry
  /// (mismatched Add operands, non-positive spatial dims, ...).
  void infer_shapes();

  /// Deterministically initialize weights/bias of all Conv/FC layers and
  /// pick per-layer out_shift values that keep int8 activations in range.
  void init_parameters(uint64_t seed = 1);

  /// Sum of weight-matrix elements over all Conv/FC layers.
  int64_t total_weight_elems() const;
  /// Multiply-accumulate count of one inference.
  int64_t total_macs() const;

 private:
  std::string name_;
  std::vector<Layer> layers_;
};

}  // namespace pim::nn
