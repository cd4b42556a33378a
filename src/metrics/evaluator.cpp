#include "metrics/evaluator.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "nn/loss.hpp"
#include "util/thread_pool.hpp"

namespace skiptrain::metrics {

Evaluator::Evaluator(const data::Dataset* dataset, std::size_t max_samples,
                     std::size_t batch_size)
    : dataset_(dataset), batch_size_(batch_size) {
  if (dataset_ == nullptr || dataset_->size() == 0) {
    throw std::invalid_argument("Evaluator: empty dataset");
  }
  if (batch_size_ == 0) {
    throw std::invalid_argument("Evaluator: batch size must be positive");
  }
  samples_ = (max_samples == 0) ? dataset_->size()
                                : std::min(max_samples, dataset_->size());
}

std::vector<Evaluator::Batch> Evaluator::make_batches() const {
  const data::DatasetView view = data::DatasetView::whole(dataset_);
  std::vector<Batch> batches;
  batches.reserve((samples_ + batch_size_ - 1) / batch_size_);
  for (std::size_t done = 0; done < samples_; done += batch_size_) {
    Batch& batch = batches.emplace_back();
    view.fill_range(done, std::min(batch_size_, samples_ - done),
                    batch.features, batch.labels);
  }
  return batches;
}

EvalResult Evaluator::evaluate(nn::Sequential& model) const {
  double weighted_loss = 0.0;
  double weighted_acc = 0.0;
  for (const Batch& batch : make_batches()) {
    const tensor::Tensor& logits = model.forward(batch.features);
    const nn::LossResult result =
        nn::softmax_cross_entropy_eval(logits, batch.labels);
    const auto count = static_cast<double>(batch.labels.size());
    weighted_loss += result.loss * count;
    weighted_acc += result.accuracy * count;
  }
  return EvalResult{weighted_acc / static_cast<double>(samples_),
                    weighted_loss / static_cast<double>(samples_)};
}

namespace {

/// One batch's term of the fleet overloads' top-1 sum, without the loss:
/// the (correct / batch) x count steps of evaluate(), so the terms summed
/// in batch order and divided by the sample count are bitwise its
/// .accuracy.
double top1_term(nn::Sequential& model, const tensor::Tensor& features,
                 std::span<const std::int32_t> labels) {
  const std::size_t correct =
      nn::top1_correct(model.forward(features), labels);
  const auto count = static_cast<double>(labels.size());
  return static_cast<double>(correct) / count * count;
}

/// The model whose parameters are the arithmetic mean of `rows` rows of
/// `dim` floats, supplied by any accessor i -> span<const float>.
template <typename RowFn>
nn::Sequential averaged_model(const nn::Sequential& prototype,
                              std::size_t rows, std::size_t dim, RowFn row) {
  if (rows == 0) {
    throw std::invalid_argument("evaluate_average: no node parameters");
  }
  if (dim != prototype.num_parameters()) {
    throw std::invalid_argument(
        "evaluate_average: rows of " + std::to_string(dim) +
        " parameters for a model of " +
        std::to_string(prototype.num_parameters()));
  }
  std::vector<float> mean(dim, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::span<const float> params = row(r);
    for (std::size_t i = 0; i < dim; ++i) mean[i] += params[i];
  }
  const float inv = 1.0f / static_cast<float>(rows);
  for (auto& v : mean) v *= inv;
  nn::Sequential averaged = prototype.clone();
  averaged.set_parameters(mean);
  return averaged;
}

Evaluator::FleetResult summarize(std::vector<double> per_node) {
  util::RunningStat stat;
  for (const double acc : per_node) stat.add(acc);
  return Evaluator::FleetResult{
      util::Summary{stat.count(), stat.mean(), stat.stddev(), stat.min(),
                    stat.max()},
      std::move(per_node)};
}

}  // namespace

EvalResult Evaluator::evaluate_average(
    const nn::Sequential& prototype,
    plane::ConstMatrixView node_params) const {
  nn::Sequential averaged =
      averaged_model(prototype, node_params.rows, node_params.dim,
                     [&](std::size_t i) { return node_params.row(i); });
  return evaluate(averaged);
}

EvalResult Evaluator::evaluate_average(
    const nn::Sequential& prototype,
    std::span<const std::vector<float>> node_params) const {
  const std::size_t dim =
      node_params.empty() ? 0 : node_params.front().size();
  for (const auto& params : node_params) {
    if (params.size() != dim) {
      throw std::invalid_argument("evaluate_average: ragged parameter list");
    }
  }
  nn::Sequential averaged =
      averaged_model(prototype, node_params.size(), dim, [&](std::size_t i) {
        return std::span<const float>(node_params[i]);
      });
  return evaluate(averaged);
}

Evaluator::FleetResult Evaluator::evaluate_fleet(
    std::span<nn::Sequential* const> models) const {
  const std::vector<Batch> batches = make_batches();
  std::vector<double> per_node(models.size(), 0.0);
  util::parallel_for(0, models.size(), [&](std::size_t i) {
    double weighted_acc = 0.0;
    for (const Batch& batch : batches) {
      weighted_acc += top1_term(*models[i], batch.features, batch.labels);
    }
    per_node[i] = weighted_acc / static_cast<double>(samples_);
  });
  return summarize(std::move(per_node));
}

Evaluator::FleetResult Evaluator::evaluate_fleet(
    const nn::Sequential& prototype, plane::ConstMatrixView rows) const {
  if (rows.dim != prototype.num_parameters()) {
    throw std::invalid_argument("evaluate_fleet: row size != model size");
  }
  const std::vector<Batch> batches = make_batches();
  std::vector<double> per_node(rows.rows, 0.0);
  util::ThreadPool::current().parallel_for_chunks(
      0, rows.rows, [&](std::size_t lo, std::size_t hi) {
        nn::Sequential shell = prototype.clone();
        // Batch-major, so the shell's activations change shape once per
        // batch rather than once per node; each node still sums its
        // batches in order, the arithmetic of the pointer overload.
        for (const Batch& batch : batches) {
          for (std::size_t i = lo; i < hi; ++i) {
            // Forward passes only read the parameters, so the const row
            // can back the shell without a copy.
            const std::span<const float> row = rows.row(i);
            shell.attach_parameter_arena(
                {const_cast<float*>(row.data()), row.size()});
            per_node[i] += top1_term(shell, batch.features, batch.labels);
          }
        }
        for (std::size_t i = lo; i < hi; ++i) {
          per_node[i] /= static_cast<double>(samples_);
        }
      });
  return summarize(std::move(per_node));
}

}  // namespace skiptrain::metrics
