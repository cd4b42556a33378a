#include "nn/init.hpp"

#include <cmath>

#include "nn/linear.hpp"

namespace skiptrain::nn {

namespace {

float bound_for(InitScheme scheme, std::size_t fan_in, std::size_t fan_out) {
  switch (scheme) {
    case InitScheme::kKaimingUniform:
      return std::sqrt(6.0f / static_cast<float>(fan_in));
    case InitScheme::kXavierUniform:
      return std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  }
  return 0.0f;
}

}  // namespace

void initialize(Sequential& model, util::Rng& rng, InitScheme scheme) {
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    Layer& layer = model.layer(i);
    if (auto* linear = dynamic_cast<Linear*>(&layer)) {
      const float bound =
          bound_for(scheme, linear->in_features(), linear->out_features());
      rng.fill_uniform(linear->weights(), -bound, bound);
      for (auto& b : linear->bias()) b = 0.0f;
    }
  }
}

}  // namespace skiptrain::nn
