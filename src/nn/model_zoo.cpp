#include "nn/model_zoo.hpp"

#include "nn/activations.hpp"
#include "nn/linear.hpp"

namespace skiptrain::nn {

Sequential make_softmax_regression(std::size_t in_features,
                                   std::size_t classes) {
  Sequential model;
  model.emplace<Linear>(in_features, classes);
  return model;
}

Sequential make_mlp(std::size_t in_features,
                    const std::vector<std::size_t>& hidden,
                    std::size_t classes) {
  Sequential model;
  std::size_t prev = in_features;
  for (const std::size_t width : hidden) {
    model.emplace<Linear>(prev, width);
    model.emplace<ReLU>();
    prev = width;
  }
  model.emplace<Linear>(prev, classes);
  return model;
}

Sequential make_compact_cifar_model(std::size_t in_features) {
  return make_mlp(in_features, {32}, 10);
}

Sequential make_compact_femnist_model(std::size_t in_features) {
  return make_mlp(in_features, {48}, 62);
}

}  // namespace skiptrain::nn
