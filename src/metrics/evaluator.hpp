// Top-1 accuracy / loss evaluation of node models against the shared
// validation or test split (paper §4.2 "Metrics").
#pragma once

#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "nn/sequential.hpp"
#include "plane/plane.hpp"
#include "util/stats.hpp"

namespace skiptrain::metrics {

struct EvalResult {
  double accuracy = 0.0;
  double loss = 0.0;
};

class Evaluator {
 public:
  /// Evaluates against `dataset` (not owned; must outlive the evaluator).
  /// `max_samples` limits the evaluation sweep (0 = use all samples);
  /// `batch_size` controls the forward-pass batching.
  explicit Evaluator(const data::Dataset* dataset, std::size_t max_samples = 0,
                     std::size_t batch_size = 256);

  /// Accuracy/loss of one model. Thread-safe wrt the dataset; the model is
  /// used mutably (forward activations) and must not be shared.
  EvalResult evaluate(nn::Sequential& model) const;

  /// Accuracy/loss of the model whose parameters are the arithmetic mean
  /// of `node_params` — the paper's "all-reduced model" metric (Fig. 1).
  /// `prototype` provides the architecture (cloned internally). The plane
  /// view form reads engine rows zero-copy; the vector form serves owned
  /// snapshots. Throws std::invalid_argument for an empty list or rows
  /// whose size is not prototype.num_parameters().
  EvalResult evaluate_average(const nn::Sequential& prototype,
                              plane::ConstMatrixView node_params) const;
  EvalResult evaluate_average(
      const nn::Sequential& prototype,
      std::span<const std::vector<float>> node_params) const;

  /// Per-node accuracies for a set of models, evaluated in parallel on the
  /// global thread pool. Returns mean/std summary plus raw accuracies.
  /// Both fleet overloads compute top-1 only (nn::top1_correct, no loss);
  /// each accuracy is bitwise evaluate(model).accuracy.
  struct FleetResult {
    util::Summary accuracy;
    std::vector<double> per_node;
  };
  FleetResult evaluate_fleet(std::span<nn::Sequential* const> models) const;

  /// The same, for a fleet stored as parameter rows (row i = node i, e.g.
  /// an engine's node_parameters()). `prototype` supplies the
  /// architecture: each parallel chunk clones it once and attaches that
  /// shell to row after row, so no per-node model exists. Per-node
  /// accuracies are bitwise those of the pointer overload.
  FleetResult evaluate_fleet(const nn::Sequential& prototype,
                             plane::ConstMatrixView rows) const;

  std::size_t samples_used() const { return samples_; }

 private:
  struct Batch {
    tensor::Tensor features;
    std::vector<std::int32_t> labels;
  };

  /// The evaluation sweep, cut into batch_size_ batches.
  std::vector<Batch> make_batches() const;

  const data::Dataset* dataset_;
  std::size_t samples_;
  std::size_t batch_size_;
};

}  // namespace skiptrain::metrics
