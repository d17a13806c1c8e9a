/// \file
/// DNN layer description.
///
/// CHRYSALIS evaluates mappings over a canonical 7-dimensional loop nest
/// (N, K, C, Y, X, R, S) in the style of data-centric mapping directives
/// (MAESTRO [42]): N batch/sequence, K output channels, C input channels,
/// Y/X output spatial dims, R/S kernel spatial dims. Convolutions, dense
/// (fully-connected / projection) layers, poolings and attention matmuls
/// all lower onto this nest, which is what the dataflow cost model and the
/// intermittent mapping search consume.

#ifndef CHRYSALIS_DNN_LAYER_HPP
#define CHRYSALIS_DNN_LAYER_HPP

#include <cstdint>
#include <string>

namespace chrysalis::dnn {

/// Kinds of layers the cost model distinguishes.
enum class LayerKind {
    kConv2d,      ///< standard convolution
    kDepthwise,   ///< depthwise convolution (one filter per channel)
    kDense,       ///< fully-connected / linear projection
    kMatmul,      ///< activation-activation matmul (attention score/value)
    kPool,        ///< max/avg pooling (no weights)
    kEmbedding,   ///< table lookup (parameters but no MACs)
};

/// Returns a short lower-case name ("conv2d", "dense", ...).
std::string to_string(LayerKind kind);

/// The canonical loop-nest extents of a layer. All extents are >= 1.
struct LoopDims {
    std::int64_t n = 1;  ///< batch / sequence repetition
    std::int64_t k = 1;  ///< output channels (or output features)
    std::int64_t c = 1;  ///< input channels (or input features)
    std::int64_t y = 1;  ///< output rows
    std::int64_t x = 1;  ///< output cols
    std::int64_t r = 1;  ///< kernel rows
    std::int64_t s = 1;  ///< kernel cols

    /// Product of all extents = number of MAC-equivalent operations.
    std::int64_t volume() const;

    bool operator==(const LoopDims&) const = default;
};

/// Identifier for the seven canonical loop dimensions.
enum class Dim { kN, kK, kC, kY, kX, kR, kS };

/// Returns the extent of \p dim within \p dims.
std::int64_t dim_extent(const LoopDims& dims, Dim dim);

/// Returns a one-letter name for a dimension ("N", "K", ...).
std::string to_string(Dim dim);

/// A single layer: kind, loop extents, and geometry needed for data sizing.
struct Layer {
    std::string name;
    LayerKind kind = LayerKind::kConv2d;
    LoopDims dims;
    std::int64_t stride = 1;     ///< spatial stride (conv/pool)
    std::int64_t in_h = 1;       ///< input feature-map height
    std::int64_t in_w = 1;       ///< input feature-map width

    /// Multiply-accumulate operations performed by this layer.
    std::int64_t macs() const;

    /// Floating-point operations (2 per MAC; comparisons for pooling).
    std::int64_t flops() const;

    /// Trainable parameter count (weights + biases; 0 for pool/matmul).
    std::int64_t param_count() const;

    /// Input activation element count (n * c * in_h * in_w).
    std::int64_t input_elems() const;

    /// Output activation element count (n * k * y * x).
    std::int64_t output_elems() const;

    /// True for layers that carry trainable weights.
    bool has_weights() const;
};

/// Factory helpers -----------------------------------------------------

/// Builds a Conv2d layer. Output spatial size is computed from input size,
/// kernel, stride and symmetric padding.
Layer make_conv2d(std::string name, std::int64_t in_c, std::int64_t out_c,
                  std::int64_t in_h, std::int64_t in_w, std::int64_t kernel,
                  std::int64_t stride = 1, std::int64_t padding = 0);

/// Builds a depthwise Conv2d layer (channel multiplier 1).
Layer make_depthwise(std::string name, std::int64_t channels,
                     std::int64_t in_h, std::int64_t in_w,
                     std::int64_t kernel, std::int64_t stride = 1,
                     std::int64_t padding = 0);

/// Builds a dense layer computing \p seq independent (in -> out) products.
Layer make_dense(std::string name, std::int64_t in_features,
                 std::int64_t out_features, std::int64_t seq = 1);

/// Builds an activation-activation matmul of shape [m, k] x [k, n_cols],
/// repeated \p batch times (attention scores / weighted values).
Layer make_matmul(std::string name, std::int64_t batch, std::int64_t m,
                  std::int64_t k, std::int64_t n_cols);

/// Builds a pooling layer over square windows.
Layer make_pool(std::string name, std::int64_t channels, std::int64_t in_h,
                std::int64_t in_w, std::int64_t window, std::int64_t stride);

/// Builds an embedding lookup of \p rows x \p width (params, no MACs).
Layer make_embedding(std::string name, std::int64_t rows, std::int64_t width,
                     std::int64_t seq = 1);

}  // namespace chrysalis::dnn

#endif  // CHRYSALIS_DNN_LAYER_HPP
