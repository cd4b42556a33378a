// Fused softmax + cross-entropy, the training criterion used throughout the
// paper's evaluation ("trained with SGD and the Cross-Entropy loss").
#pragma once

#include <cstdint>
#include <span>

#include "tensor/tensor.hpp"

namespace skiptrain::nn {

struct LossResult {
  double loss = 0.0;      // mean over the batch
  double accuracy = 0.0;  // top-1 over the batch
};

/// Computes mean cross-entropy of `logits` [B, C] against integer labels
/// and writes d(loss)/d(logits) = (softmax - onehot)/B into `grad_logits`.
/// Throws std::invalid_argument (in every build type) unless there is one
/// label per row, each in [0, C), and grad_logits has the logits' shape.
LossResult softmax_cross_entropy(const tensor::Tensor& logits,
                                 std::span<const std::int32_t> labels,
                                 tensor::Tensor& grad_logits);

/// Loss/accuracy only (no gradient); used by evaluation paths. Same label
/// checks as softmax_cross_entropy.
LossResult softmax_cross_entropy_eval(const tensor::Tensor& logits,
                                      std::span<const std::int32_t> labels);

/// Number of rows of `logits` [B, C] whose prediction is their label: the
/// top-1 count behind softmax_cross_entropy_eval's accuracy (the first
/// maximal logit wins a tie; a NaN never beats the running maximum),
/// without the loss. Same label checks as softmax_cross_entropy.
std::size_t top1_correct(const tensor::Tensor& logits,
                         std::span<const std::int32_t> labels);

}  // namespace skiptrain::nn
