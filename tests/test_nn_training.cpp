// End-to-end single-model training: the nn substrate must actually learn.
#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "nn/init.hpp"
#include "nn/loss.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"

namespace skiptrain::nn {
namespace {

/// Two Gaussian blobs in 2D, linearly separable.
void make_blobs(util::Rng& rng, std::size_t n, tensor::Tensor& features,
                std::vector<std::int32_t>& labels) {
  features = tensor::Tensor({n, 2});
  labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t label = static_cast<std::int32_t>(i % 2);
    const float cx = label == 0 ? -2.0f : 2.0f;
    features.at(i, 0) = cx + static_cast<float>(rng.normal()) * 0.5f;
    features.at(i, 1) = static_cast<float>(rng.normal()) * 0.5f;
    labels[i] = label;
  }
}

double train_epochs(Sequential& model, SgdOptimizer& opt,
                    const tensor::Tensor& features,
                    std::span<const std::int32_t> labels, int steps) {
  double last_loss = 0.0;
  tensor::Tensor grad_logits;
  for (int s = 0; s < steps; ++s) {
    model.zero_grad();
    const tensor::Tensor& logits = model.forward(features);
    if (grad_logits.shape() != logits.shape()) {
      grad_logits = tensor::Tensor(logits.shape());
    }
    const LossResult result =
        softmax_cross_entropy(logits, labels, grad_logits);
    model.backward(features, grad_logits);
    opt.step(model);
    last_loss = result.loss;
  }
  return last_loss;
}

TEST(Training, LearnsLinearlySeparableBlobs) {
  util::Rng rng(5);
  tensor::Tensor features;
  std::vector<std::int32_t> labels;
  make_blobs(rng, 200, features, labels);

  Sequential model = make_softmax_regression(2, 2);
  initialize(model, rng);
  SgdOptimizer opt({0.5f, 0.0f, 0.0f});

  const tensor::Tensor& logits0 = model.forward(features);
  const double initial_acc =
      softmax_cross_entropy_eval(logits0, labels).accuracy;
  train_epochs(model, opt, features, labels, 100);
  const tensor::Tensor& logits1 = model.forward(features);
  const LossResult final_result = softmax_cross_entropy_eval(logits1, labels);

  EXPECT_GT(final_result.accuracy, 0.97);
  EXPECT_GT(final_result.accuracy, initial_acc);
}

TEST(Training, LossDecreasesMonotonicallyOnAverage) {
  util::Rng rng(6);
  tensor::Tensor features;
  std::vector<std::int32_t> labels;
  make_blobs(rng, 100, features, labels);

  Sequential model = make_mlp(2, {8}, 2);
  initialize(model, rng);
  SgdOptimizer opt({0.2f, 0.0f, 0.0f});

  std::vector<double> losses;
  tensor::Tensor grad_logits;
  for (int s = 0; s < 50; ++s) {
    model.zero_grad();
    const tensor::Tensor& logits = model.forward(features);
    if (grad_logits.shape() != logits.shape()) {
      grad_logits = tensor::Tensor(logits.shape());
    }
    losses.push_back(
        softmax_cross_entropy(logits, labels, grad_logits).loss);
    model.backward(features, grad_logits);
    opt.step(model);
  }
  EXPECT_LT(losses.back(), losses.front() * 0.5);
}

TEST(Training, MlpLearnsXorNonlinearity) {
  // XOR pattern: impossible for the linear model, learnable by the MLP.
  tensor::Tensor features({200, 2});
  std::vector<std::int32_t> labels(200);
  util::Rng rng(7);
  for (std::size_t i = 0; i < 200; ++i) {
    const int qx = static_cast<int>(rng.uniform_int(2));
    const int qy = static_cast<int>(rng.uniform_int(2));
    features.at(i, 0) = (qx ? 1.0f : -1.0f) +
                        static_cast<float>(rng.normal()) * 0.2f;
    features.at(i, 1) = (qy ? 1.0f : -1.0f) +
                        static_cast<float>(rng.normal()) * 0.2f;
    labels[i] = qx ^ qy;
  }

  Sequential model = make_mlp(2, {16}, 2);
  initialize(model, rng);
  SgdOptimizer opt({0.3f, 0.0f, 0.0f});
  train_epochs(model, opt, features, labels, 400);

  const tensor::Tensor& logits = model.forward(features);
  EXPECT_GT(softmax_cross_entropy_eval(logits, labels).accuracy, 0.95);
}

TEST(Training, MomentumAcceleratesDescent) {
  util::Rng rng(8);
  tensor::Tensor features;
  std::vector<std::int32_t> labels;
  make_blobs(rng, 100, features, labels);

  Sequential plain = make_mlp(2, {8}, 2);
  initialize(plain, rng);
  Sequential with_momentum = plain.clone();

  SgdOptimizer opt_plain({0.05f, 0.0f, 0.0f});
  SgdOptimizer opt_momentum({0.05f, 0.9f, 0.0f});
  const double loss_plain =
      train_epochs(plain, opt_plain, features, labels, 30);
  const double loss_momentum =
      train_epochs(with_momentum, opt_momentum, features, labels, 30);
  EXPECT_LT(loss_momentum, loss_plain);
}

TEST(Training, WeightDecayShrinksNorm) {
  util::Rng rng(9);
  Sequential decayed = make_mlp(4, {8}, 2);
  initialize(decayed, rng);
  Sequential free = decayed.clone();

  // With zero gradients (no data), weight decay alone shrinks parameters:
  // p *= (1 - lr*wd) = 0.9 per step, so ten steps scale the squared norm
  // by 0.9^20 ≈ 0.12.
  SgdOptimizer opt_decay({0.1f, 0.0f, 1.0f});
  SgdOptimizer opt_free({0.1f, 0.0f, 0.0f});
  for (int i = 0; i < 10; ++i) {
    decayed.zero_grad();
    free.zero_grad();
    opt_decay.step(decayed);
    opt_free.step(free);
  }
  double norm_decayed = 0.0, norm_free = 0.0;
  for (const float p : decayed.parameters_flat()) norm_decayed += p * p;
  for (const float p : free.parameters_flat()) norm_free += p * p;
  EXPECT_LT(norm_decayed, norm_free * 0.5);
}

TEST(Training, OptimizerResetStateClearsMomentum) {
  util::Rng rng(10);
  tensor::Tensor features;
  std::vector<std::int32_t> labels;
  make_blobs(rng, 50, features, labels);

  Sequential model = make_mlp(2, {4}, 2);
  initialize(model, rng);
  SgdOptimizer opt({0.1f, 0.9f, 0.0f});
  train_epochs(model, opt, features, labels, 5);
  opt.reset_state();  // must not crash and must keep training sane
  const double loss = train_epochs(model, opt, features, labels, 20);
  EXPECT_LT(loss, 1.0);
}

TEST(Loss, GradientIsSoftmaxMinusOnehotOverBatch) {
  tensor::Tensor logits({2, 3});
  logits.at(0, 0) = 1.0f;
  logits.at(0, 1) = 0.0f;
  logits.at(0, 2) = -1.0f;
  logits.at(1, 0) = 0.0f;
  logits.at(1, 1) = 0.0f;
  logits.at(1, 2) = 0.0f;
  const std::vector<std::int32_t> labels{0, 2};
  tensor::Tensor grad({2, 3});
  softmax_cross_entropy(logits, labels, grad);

  // Row sums of the gradient are zero (softmax sums to 1, one-hot to 1).
  for (std::size_t r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 3; ++c) sum += grad.at(r, c);
    EXPECT_NEAR(sum, 0.0f, 1e-6f);
  }
  // Second row is uniform softmax (1/3 each): grad = (1/3 - onehot)/B.
  EXPECT_NEAR(grad.at(1, 0), (1.0f / 3.0f) / 2.0f, 1e-6f);
  EXPECT_NEAR(grad.at(1, 2), (1.0f / 3.0f - 1.0f) / 2.0f, 1e-6f);
}

TEST(Loss, EvalMatchesTrainPath) {
  util::Rng rng(11);
  tensor::Tensor logits({4, 5});
  rng.fill_normal(logits.data(), 0.0f, 2.0f);
  std::vector<std::int32_t> labels{0, 4, 2, 1};
  tensor::Tensor grad({4, 5});
  const LossResult train = softmax_cross_entropy(logits, labels, grad);
  const LossResult eval = softmax_cross_entropy_eval(logits, labels);
  EXPECT_DOUBLE_EQ(train.loss, eval.loss);
  EXPECT_DOUBLE_EQ(train.accuracy, eval.accuracy);
}

TEST(Loss, Top1CorrectIsTheEvalAccuracyCountWithTiesAndNaN) {
  // Rows and their predictions: a plain row (2), an exact tie between
  // classes 1 and 3 (the first maximum wins: 1), an all-equal row (0), a
  // NaN in front (nothing compares greater than NaN: 0), and a NaN after
  // the maximum (skipped: 2).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float rows[5][4] = {{0.5f, -0.25f, 3.0f, 1.0f},
                            {-1.0f, 2.5f, -1.0f, 2.5f},
                            {0.75f, 0.75f, 0.75f, 0.75f},
                            {nan, 1.0f, 2.0f, 3.0f},
                            {0.0f, 0.0f, 9.0f, nan}};
  tensor::Tensor logits({5, 4});
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 4; ++c) logits.at(r, c) = rows[r][c];
  }
  const std::pair<std::vector<std::int32_t>, std::size_t> cases[] = {
      {{2, 1, 0, 0, 2}, 5}, {{2, 3, 0, 0, 2}, 4}, {{0, 1, 1, 3, 3}, 1}};
  for (const auto& [labels, want] : cases) {
    const std::size_t correct = top1_correct(logits, labels);
    EXPECT_EQ(correct, want);
    EXPECT_EQ(static_cast<double>(correct) / 5.0,
              softmax_cross_entropy_eval(logits, labels).accuracy);
  }
}

TEST(Loss, PerfectPredictionLowLoss) {
  tensor::Tensor logits({1, 2});
  logits.at(0, 0) = 20.0f;
  logits.at(0, 1) = -20.0f;
  const std::vector<std::int32_t> labels{0};
  const LossResult result = softmax_cross_entropy_eval(logits, labels);
  EXPECT_LT(result.loss, 1e-6);
  EXPECT_DOUBLE_EQ(result.accuracy, 1.0);
}

TEST(Loss, BadLabelsAreCheckedErrorsInEveryBuildType) {
  // Plain EXPECT_THROW, no death test: the check must not be an assert,
  // so the Release build the suite runs in must reject these too.
  tensor::Tensor logits({3, 4});
  tensor::Tensor grad({3, 4});
  enum class Entry { kTrain, kEval, kTop1 };
  const auto message = [&](std::span<const std::int32_t> labels,
                           Entry entry) -> std::string {
    try {
      switch (entry) {
        case Entry::kTrain:
          (void)softmax_cross_entropy(logits, labels, grad);
          break;
        case Entry::kEval:
          (void)softmax_cross_entropy_eval(logits, labels);
          break;
        case Entry::kTop1:
          (void)top1_correct(logits, labels);
          break;
      }
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  for (const Entry with_grad : {Entry::kTrain, Entry::kEval, Entry::kTop1}) {
    const std::string high = message(std::vector<std::int32_t>{0, 4, 1},
                                     with_grad);
    EXPECT_NE(high.find("row 1"), std::string::npos) << high;
    EXPECT_NE(high.find("label 4"), std::string::npos) << high;
    EXPECT_NE(high.find("[0, 4)"), std::string::npos) << high;
    const std::string negative =
        message(std::vector<std::int32_t>{0, 1, -1}, with_grad);
    EXPECT_NE(negative.find("row 2"), std::string::npos) << negative;
    EXPECT_NE(negative.find("label -1"), std::string::npos) << negative;
    EXPECT_NE(message(std::vector<std::int32_t>{0, 1}, with_grad), "");
    EXPECT_EQ(message(std::vector<std::int32_t>{0, 3, 2}, with_grad), "");
  }
  tensor::Tensor wrong_grad({3, 5});
  const std::vector<std::int32_t> labels{0, 1, 2};
  EXPECT_THROW((void)softmax_cross_entropy(logits, labels, wrong_grad),
               std::invalid_argument);
}

}  // namespace
}  // namespace skiptrain::nn
