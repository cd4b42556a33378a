#include "sim/node.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace skiptrain::sim {

Node::Node(std::size_t node_id, data::DatasetView shard, std::uint64_t seed)
    : id(node_id),
      data(std::move(shard)),
      rng(util::hash_combine(seed, 0x0de50000ULL + node_id)) {
  // sample_batch has no sample to draw from an empty shard; catch it here,
  // where both engines build their nodes, in every build type.
  if (data.empty()) {
    throw std::invalid_argument("node " + std::to_string(node_id) +
                                " has an empty data shard");
  }
}

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

double Node::train_local(nn::Sequential& shell, std::size_t local_steps,
                         std::size_t batch_size, float learning_rate) {
  StepScratch& scratch = t_step;
  // Momentum 0 keeps the optimizer stateless: nothing per node to keep.
  nn::SgdOptimizer optimizer(nn::SgdOptions{learning_rate, 0.0f, 0.0f});
  double total_loss = 0.0;
  for (std::size_t step = 0; step < local_steps; ++step) {
    data.sample_batch(rng, batch_size, scratch.features, scratch.labels);
    shell.zero_grad();
    const tensor::Tensor& logits = shell.forward(scratch.features);
    if (scratch.grad_logits.shape() != logits.shape()) {
      scratch.grad_logits = tensor::Tensor(logits.shape());
    }
    const nn::LossResult result =
        nn::softmax_cross_entropy(logits, scratch.labels, scratch.grad_logits);
    shell.backward(scratch.features, scratch.grad_logits);
    optimizer.step(shell);
    total_loss += result.loss;
  }
  return local_steps > 0 ? total_loss / static_cast<double>(local_steps) : 0.0;
}

ModelShells::ModelShells(const nn::Sequential& prototype, std::size_t nodes)
    : prototype_(prototype.clone()), nodes_(nodes) {}

std::unique_ptr<nn::Sequential> ModelShells::acquire() {
  {
    const std::lock_guard lock(mutex_);
    if (!idle_.empty()) {
      std::unique_ptr<nn::Sequential> shell = std::move(idle_.back());
      idle_.pop_back();
      return shell;
    }
  }
  // The prototype is only ever read, so cloning needs no lock.
  return std::make_unique<nn::Sequential>(prototype_.clone());
}

void ModelShells::release(std::unique_ptr<nn::Sequential> shell) {
  const std::lock_guard lock(mutex_);
  idle_.push_back(std::move(shell));
}

nn::Sequential& ModelShells::view(std::size_t node, std::span<float> row) {
  if (views_.empty()) views_.resize(nodes_);
  std::unique_ptr<nn::Sequential>& view = views_.at(node);
  if (view == nullptr) {
    view = std::make_unique<nn::Sequential>(prototype_.clone());
    view->attach_parameter_arena(row);
  }
  return *view;
}

void ModelShells::reattach_views(plane::RowArena& rows) {
  for (std::size_t i = 0; i < views_.size(); ++i) {
    if (views_[i] != nullptr) views_[i]->attach_parameter_arena(rows.row(i));
  }
}

}  // namespace skiptrain::sim
