// ParameterLayout: the map from a model's layers to blocks of the flat
// parameter arena. A Sequential lays its parameters out contiguously in
// layer order (weights first, then bias, within each layer); this type
// records where each parameterized layer's block starts and how long it
// is, so plane consumers (serialization, sharding, quantized rows) can
// address sub-model regions of a plane row without asking the layers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace skiptrain::nn {
class Sequential;
}

namespace skiptrain::plane {

class ParameterLayout {
 public:
  struct Block {
    std::size_t layer;   // index into Sequential::layer()
    std::size_t offset;  // first float of this layer's block in the arena
    std::size_t extent;  // parameter count of the layer
  };

  ParameterLayout() = default;

  /// Builds the layout of `model`'s current architecture. Parameter-free
  /// layers (ReLU, Tanh) contribute no block.
  static ParameterLayout of(const nn::Sequential& model);

  /// Total parameter count (== Sequential::num_parameters()).
  std::size_t dim() const { return dim_; }

  std::span<const Block> blocks() const { return blocks_; }

  /// Block of layer index `layer`; throws std::out_of_range when that
  /// layer has no parameters (or does not exist).
  const Block& block_of_layer(std::size_t layer) const;

  /// Slice of `row` (a flat arena of size dim()) holding `block`'s values.
  template <typename T>
  static std::span<T> slice(std::span<T> row, const Block& block) {
    return row.subspan(block.offset, block.extent);
  }

 private:
  std::vector<Block> blocks_;
  std::size_t dim_ = 0;
};

}  // namespace skiptrain::plane
