#include "sim/node.hpp"

#include <cstdint>
#include <vector>

#include "nn/loss.hpp"

namespace skiptrain::sim {

Node::Node(std::size_t id, const nn::Sequential& prototype,
           data::DatasetView data, nn::SgdOptions sgd, std::uint64_t seed)
    : id_(id),
      model_(prototype.clone()),
      optimizer_(sgd),
      data_(std::move(data)),
      rng_(util::hash_combine(seed, 0x0de50000ULL + id)) {}

namespace {

/// Per-step scratch of train_local. Every step overwrites all of it, so
/// one set per worker thread serves any number of nodes: a 10k-node
/// fleet keeps no batch or loss-gradient buffers per node.
struct StepScratch {
  tensor::Tensor features;
  std::vector<std::int32_t> labels;
  tensor::Tensor grad_logits;
};

thread_local StepScratch t_step;

}  // namespace

double Node::train_local(std::size_t local_steps, std::size_t batch_size) {
  StepScratch& scratch = t_step;
  double total_loss = 0.0;
  for (std::size_t step = 0; step < local_steps; ++step) {
    data_.sample_batch(rng_, batch_size, scratch.features, scratch.labels);
    model_.zero_grad();
    const tensor::Tensor& logits = model_.forward(scratch.features);
    if (scratch.grad_logits.shape() != logits.shape()) {
      scratch.grad_logits = tensor::Tensor(logits.shape());
    }
    const nn::LossResult result =
        nn::softmax_cross_entropy(logits, scratch.labels, scratch.grad_logits);
    model_.backward(scratch.features, scratch.grad_logits);
    optimizer_.step(model_);
    total_loss += result.loss;
  }
  return local_steps > 0 ? total_loss / static_cast<double>(local_steps) : 0.0;
}

}  // namespace skiptrain::sim
