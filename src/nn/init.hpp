// Weight initialisation. Deterministic given the Rng, so every node in a
// simulation can start from the identical model x^0 (as D-PSGD assumes).
#pragma once

#include "nn/sequential.hpp"
#include "util/rng.hpp"

namespace skiptrain::nn {

enum class InitScheme {
  kKaimingUniform,  // He et al., for ReLU networks
  kXavierUniform,   // Glorot & Bengio, for tanh networks
};

/// Initialises every Linear layer in `model`: weights from the
/// chosen scheme, biases to zero.
void initialize(Sequential& model, util::Rng& rng,
                InitScheme scheme = InitScheme::kKaimingUniform);

}  // namespace skiptrain::nn
