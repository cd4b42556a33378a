// Regenerates Table 1: the simulation hyperparameters, both the paper's
// values (encoded in energy::workload_spec) and the scaled defaults this
// repository's benches use. The paper's two CNNs are listed layer by layer
// with parameter counts from shape arithmetic; the run exits non-zero
// unless each architecture sums to the model size |x| the energy model
// bills.
#include <vector>

#include "common.hpp"

namespace {

using namespace skiptrain;

/// One layer of a paper architecture: its label and its parameter count.
struct LayerRow {
  std::string label;
  std::size_t params;
};

/// 5x5 convolution, stride 1, padding 2: in·out·k² weights + out biases.
LayerRow conv5(std::size_t in, std::size_t out) {
  constexpr std::size_t k = 5;
  return {"Conv2d(" + std::to_string(in) + "->" + std::to_string(out) +
              ", k=" + std::to_string(k) + ", s=1, p=2)",
          in * out * k * k + out};
}

/// GroupNorm: one scale and one shift per channel.
LayerRow group_norm(std::size_t groups, std::size_t channels) {
  return {"GroupNorm(groups=" + std::to_string(groups) +
              ", channels=" + std::to_string(channels) + ")",
          2 * channels};
}

/// Fully connected: in·out weights + out biases.
LayerRow linear(std::size_t in, std::size_t out) {
  return {"Linear(" + std::to_string(in) + "->" + std::to_string(out) + ")",
          in * out + out};
}

const LayerRow kRelu{"ReLU", 0};
const LayerRow kPool{"MaxPool2d(2)", 0};
const LayerRow kFlatten{"Flatten", 0};

/// GN-LeNet for CIFAR-10 (input 3x32x32): 3x{conv + GN + ReLU + pool}
/// down to 64x4x4, then Linear(1024 -> 10).
std::vector<LayerRow> gn_lenet() {
  return {conv5(3, 32),  group_norm(2, 32), kRelu, kPool,
          conv5(32, 32), group_norm(2, 32), kRelu, kPool,
          conv5(32, 64), group_norm(2, 64), kRelu, kPool,
          kFlatten,      linear(64 * 4 * 4, 10)};
}

/// LEAF CNN for FEMNIST (input 1x28x28): 2x{conv + ReLU + pool} down to
/// 64x7x7, then Linear(3136 -> 512) -> ReLU -> Linear(512 -> 62).
std::vector<LayerRow> leaf_cnn() {
  return {conv5(1, 32), kRelu,   kPool, conv5(32, 64),
          kRelu,        kPool,   kFlatten, linear(64 * 7 * 7, 512),
          kRelu,        linear(512, 62)};
}

std::size_t total_params(const std::vector<LayerRow>& layers) {
  std::size_t total = 0;
  for (const LayerRow& layer : layers) total += layer.params;
  return total;
}

void print_architecture(const char* title,
                        const std::vector<LayerRow>& layers) {
  std::printf("\n%s architecture:\n", title);
  for (const LayerRow& layer : layers) {
    std::printf("  %s  params=%zu\n", layer.label.c_str(), layer.params);
  }
  std::printf("  total parameters: %zu\n", total_params(layers));
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("table1_hyperparams",
                       "Table 1: simulation hyperparameters");
  bench::add_common_flags(args);
  args.parse(argc, argv);

  bench::print_header("Table 1: Simulation hyperparameters",
                      "CIFAR-10 and FEMNIST configurations");

  const auto& cifar = energy::workload_spec(energy::Workload::kCifar10);
  const auto& femnist = energy::workload_spec(energy::Workload::kFemnist);

  util::TablePrinter table(
      {"Hyperparameter", "Description", "CIFAR-10", "FEMNIST"});
  table.add_row({"eta", "Learning rate", "0.1", "0.1"});
  table.add_row({"|xi|", "Batch size", std::to_string(cifar.batch_size),
                 std::to_string(femnist.batch_size)});
  table.add_row({"E", "Local steps", std::to_string(cifar.local_steps),
                 std::to_string(femnist.local_steps)});
  table.add_row({"|x|", "Model size", std::to_string(cifar.model_params),
                 std::to_string(femnist.model_params)});
  table.add_row({"T", "Total number of rounds",
                 std::to_string(cifar.total_rounds),
                 std::to_string(femnist.total_rounds)});
  table.print();

  const std::vector<LayerRow> cifar_layers = gn_lenet();
  const std::vector<LayerRow> femnist_layers = leaf_cnn();
  const std::size_t cifar_params = total_params(cifar_layers);
  const std::size_t femnist_params = total_params(femnist_layers);
  std::printf("\nmodel zoo parameter counts: cifar_cnn=%zu (paper %zu)  "
              "femnist_cnn=%zu (paper %zu)\n",
              cifar_params, cifar.model_params, femnist_params,
              femnist.model_params);

  print_architecture("GN-LeNet (CIFAR-10)", cifar_layers);
  print_architecture("LEAF CNN (FEMNIST)", femnist_layers);

  std::printf("\nscaled bench defaults: nodes=%lld rounds=%lld E=%lld "
              "batch=%lld lr=%.3f\n",
              static_cast<long long>(args.get_int("nodes")),
              static_cast<long long>(args.get_int("rounds")),
              static_cast<long long>(args.get_int("local-steps")),
              static_cast<long long>(args.get_int("batch")),
              args.get_double("lr"));

  if (cifar_params != cifar.model_params ||
      femnist_params != femnist.model_params) {
    std::fprintf(stderr,
                 "table1_hyperparams: the architectures do not sum to the "
                 "model sizes the energy model bills\n");
    return 1;
  }
  return 0;
}
