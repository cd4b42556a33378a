#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace skiptrain::nn {

namespace {

/// Row-stable log-sum-exp; returns max + log(sum(exp(x - max))).
double log_sum_exp(const float* row, std::size_t n) {
  float max_val = row[0];
  for (std::size_t i = 1; i < n; ++i) max_val = std::max(max_val, row[i]);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += std::exp(static_cast<double>(row[i]) - max_val);
  }
  return static_cast<double>(max_val) + std::log(sum);
}

/// Index of the first maximal entry of row[0, n): the shared top-1 rule.
std::size_t predicted_class(const float* row, std::size_t n) {
  std::size_t pred = 0;
  for (std::size_t c = 1; c < n; ++c) {
    if (row[c] > row[pred]) pred = c;
  }
  return pred;
}

/// Release-grade input checks shared by every entry point: one label per
/// row, each in [0, classes). A bad label would otherwise index past the
/// logits row.
void check_labels(const char* who, std::size_t batch, std::size_t classes,
                  std::span<const std::int32_t> labels) {
  if (labels.size() != batch) {
    throw std::invalid_argument(std::string(who) + ": " +
                                std::to_string(labels.size()) +
                                " labels for a batch of " +
                                std::to_string(batch));
  }
  for (std::size_t b = 0; b < batch; ++b) {
    if (labels[b] < 0 || static_cast<std::size_t>(labels[b]) >= classes) {
      throw std::invalid_argument(
          std::string(who) + ": row " + std::to_string(b) + " has label " +
          std::to_string(labels[b]) + ", outside [0, " +
          std::to_string(classes) + ")");
    }
  }
}

}  // namespace

LossResult softmax_cross_entropy(const tensor::Tensor& logits,
                                 std::span<const std::int32_t> labels,
                                 tensor::Tensor& grad_logits) {
  const std::size_t batch = logits.dim(0);
  const std::size_t classes = logits.numel() / batch;
  check_labels("softmax_cross_entropy", batch, classes, labels);
  if (grad_logits.shape() != logits.shape()) {
    throw std::invalid_argument(
        "softmax_cross_entropy: grad_logits shape " +
        tensor::shape_to_string(grad_logits.shape()) + " != logits shape " +
        tensor::shape_to_string(logits.shape()));
  }

  double total_loss = 0.0;
  std::size_t correct = 0;
  const float inv_batch = 1.0f / static_cast<float>(batch);

  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = logits.raw() + b * classes;
    float* grad = grad_logits.raw() + b * classes;
    const auto label = static_cast<std::size_t>(labels[b]);

    const double lse = log_sum_exp(row, classes);
    total_loss += lse - static_cast<double>(row[label]);

    for (std::size_t c = 0; c < classes; ++c) {
      const float p =
          static_cast<float>(std::exp(static_cast<double>(row[c]) - lse));
      grad[c] = p * inv_batch;
    }
    grad[label] -= inv_batch;
    if (predicted_class(row, classes) == label) ++correct;
  }

  return LossResult{total_loss / static_cast<double>(batch),
                    static_cast<double>(correct) / static_cast<double>(batch)};
}

LossResult softmax_cross_entropy_eval(const tensor::Tensor& logits,
                                      std::span<const std::int32_t> labels) {
  const std::size_t batch = logits.dim(0);
  const std::size_t classes = logits.numel() / batch;
  check_labels("softmax_cross_entropy_eval", batch, classes, labels);

  double total_loss = 0.0;
  std::size_t correct = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = logits.raw() + b * classes;
    const auto label = static_cast<std::size_t>(labels[b]);
    const double lse = log_sum_exp(row, classes);
    total_loss += lse - static_cast<double>(row[label]);
    if (predicted_class(row, classes) == label) ++correct;
  }
  return LossResult{total_loss / static_cast<double>(batch),
                    static_cast<double>(correct) / static_cast<double>(batch)};
}

std::size_t top1_correct(const tensor::Tensor& logits,
                         std::span<const std::int32_t> labels) {
  const std::size_t batch = logits.dim(0);
  const std::size_t classes = logits.numel() / batch;
  check_labels("top1_correct", batch, classes, labels);
  std::size_t correct = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    const auto label = static_cast<std::size_t>(labels[b]);
    if (predicted_class(logits.raw() + b * classes, classes) == label) {
      ++correct;
    }
  }
  return correct;
}

}  // namespace skiptrain::nn
