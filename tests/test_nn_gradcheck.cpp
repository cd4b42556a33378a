// Finite-difference verification of every backward pass. These tests are
// the correctness oracle for the hand-written autodiff.
#include <gtest/gtest.h>

#include <vector>

#include "nn/activations.hpp"
#include "nn/gradcheck.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/model_zoo.hpp"
#include "util/rng.hpp"

namespace skiptrain::nn {
namespace {

struct GradCase {
  std::string name;
  Sequential model;
  tensor::Shape input_shape;
  std::size_t classes;
};

Sequential build_linear_relu() {
  Sequential m;
  m.emplace<Linear>(6, 8);
  m.emplace<ReLU>();
  m.emplace<Linear>(8, 4);
  return m;
}

Sequential build_tanh_net() {
  Sequential m;
  m.emplace<Linear>(5, 7);
  m.emplace<Tanh>();
  m.emplace<Linear>(7, 3);
  return m;
}

GradCheckResult run_case(Sequential& model, const tensor::Shape& input_shape,
                         std::size_t classes, std::uint64_t seed,
                         std::size_t max_params = 0) {
  util::Rng rng(seed);
  initialize(model, rng);
  tensor::Tensor input(input_shape);
  rng.fill_normal(input.data(), 0.0f, 1.0f);
  std::vector<std::int32_t> labels(input_shape[0]);
  for (auto& label : labels) {
    label = static_cast<std::int32_t>(rng.uniform_int(classes));
  }
  return gradient_check(model, input, labels, /*eps=*/1e-2, max_params);
}

TEST(GradCheck, LinearReluNetwork) {
  Sequential model = build_linear_relu();
  const auto result = run_case(model, {4, 6}, 4, 11);
  EXPECT_EQ(result.failures, 0u) << "max_abs=" << result.max_abs_error;
  EXPECT_GT(result.checked, 50u);
}

TEST(GradCheck, TanhNetwork) {
  Sequential model = build_tanh_net();
  const auto result = run_case(model, {3, 5}, 3, 12);
  EXPECT_EQ(result.failures, 0u) << "max_abs=" << result.max_abs_error;
}

TEST(GradCheck, SoftmaxRegression) {
  Sequential model = make_softmax_regression(8, 5);
  const auto result = run_case(model, {6, 8}, 5, 17);
  EXPECT_EQ(result.failures, 0u) << "max_abs=" << result.max_abs_error;
}

TEST(GradCheck, MultiBatchGradientsAverage) {
  // Gradient wrt a batch of B identical samples equals the single-sample
  // gradient (cross-entropy averages over the batch).
  Sequential model_single = make_mlp(4, {6}, 3);
  util::Rng rng(21);
  initialize(model_single, rng);
  Sequential model_batch = model_single.clone();

  tensor::Tensor one({1, 4});
  rng.fill_normal(one.data(), 0.0f, 1.0f);
  tensor::Tensor batch({5, 4});
  for (std::size_t b = 0; b < 5; ++b) {
    for (std::size_t i = 0; i < 4; ++i) batch.at(b, i) = one.at(0, i);
  }
  std::vector<std::int32_t> label_one{1};
  std::vector<std::int32_t> label_batch(5, 1);

  const auto grads_of = [](Sequential& model, const tensor::Tensor& input,
                           std::span<const std::int32_t> labels) {
    model.zero_grad();
    const tensor::Tensor& logits = model.forward(input);
    tensor::Tensor grad_logits(logits.shape());
    softmax_cross_entropy(logits, labels, grad_logits);
    model.backward(input, grad_logits);
    std::vector<float> grads(model.num_parameters());
    model.get_gradients(grads);
    return grads;
  };

  const auto g1 = grads_of(model_single, one, label_one);
  const auto g5 = grads_of(model_batch, batch, label_batch);
  ASSERT_EQ(g1.size(), g5.size());
  for (std::size_t i = 0; i < g1.size(); ++i) {
    EXPECT_NEAR(g1[i], g5[i], 1e-5f);
  }
}

}  // namespace
}  // namespace skiptrain::nn
