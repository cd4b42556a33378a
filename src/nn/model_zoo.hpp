// Model architectures: the compact MLPs every sweep trains, plus the
// general MLP and softmax builders they are made from. The paper's Table 1
// CNNs (GN-LeNet, LEAF CNN) are not built here: they enter the simulator
// only through their parameter counts, energy::WorkloadSpec::model_params,
// which the energy model bills.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/sequential.hpp"

namespace skiptrain::nn {

/// Linear softmax classifier: Linear(in -> classes).
[[nodiscard]] Sequential make_softmax_regression(std::size_t in_features,
                                                 std::size_t classes);

/// Multilayer perceptron with ReLU activations:
/// in -> hidden[0] -> ... -> classes.
[[nodiscard]] Sequential make_mlp(std::size_t in_features,
                                  const std::vector<std::size_t>& hidden,
                                  std::size_t classes);

/// Compact MLP used by the scaled benches for the synthetic CIFAR-10 task
/// (flat feature input, 10 classes).
[[nodiscard]] Sequential make_compact_cifar_model(std::size_t in_features);

/// Compact MLP for the synthetic FEMNIST task (62 classes).
[[nodiscard]] Sequential make_compact_femnist_model(std::size_t in_features);

}  // namespace skiptrain::nn
