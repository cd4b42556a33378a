#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "nn/activations.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/model_zoo.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"

namespace skiptrain::nn {
namespace {

TEST(Linear, ForwardMatchesManualComputation) {
  Linear layer(2, 3);
  // W = [[1,2],[3,4],[5,6]], b = [0.5, -0.5, 0]
  auto w = layer.weights();
  for (std::size_t i = 0; i < 6; ++i) w[i] = static_cast<float>(i + 1);
  auto b = layer.bias();
  b[0] = 0.5f;
  b[1] = -0.5f;
  b[2] = 0.0f;

  Tensor input({1, 2});
  input.at(0) = 1.0f;
  input.at(1) = 2.0f;
  Tensor output({1, 3});
  layer.forward(input, output);
  EXPECT_FLOAT_EQ(output.at(0), 1.0f + 4.0f + 0.5f);   // 1*1+2*2+0.5
  EXPECT_FLOAT_EQ(output.at(1), 3.0f + 8.0f - 0.5f);   // 1*3+2*4-0.5
  EXPECT_FLOAT_EQ(output.at(2), 5.0f + 12.0f + 0.0f);  // 1*5+2*6
}

TEST(Linear, ShapeValidation) {
  Linear layer(4, 2);
  EXPECT_EQ(layer.output_shape({8, 4}), (Shape{8, 2}));
  EXPECT_THROW(layer.output_shape({8, 5}), std::invalid_argument);
  EXPECT_THROW(layer.output_shape({8}), std::invalid_argument);
}

TEST(Linear, ParameterCount) {
  Linear layer(10, 7);
  EXPECT_EQ(layer.parameters().size(), 10u * 7u + 7u);
  EXPECT_EQ(layer.gradients().size(), layer.parameters().size());
}

TEST(Linear, CloneIsDeepCopy) {
  Linear layer(2, 2);
  layer.weights()[0] = 5.0f;
  auto copy = layer.clone();
  layer.weights()[0] = 9.0f;
  EXPECT_EQ(copy->parameters()[0], 5.0f);
}

TEST(ReLUTest, ForwardClampsNegatives) {
  ReLU relu;
  Tensor input({1, 4});
  input.at(0) = -1.0f;
  input.at(1) = 0.0f;
  input.at(2) = 2.0f;
  input.at(3) = -0.5f;
  Tensor output({1, 4});
  relu.forward(input, output);
  EXPECT_EQ(output.at(0), 0.0f);
  EXPECT_EQ(output.at(1), 0.0f);
  EXPECT_EQ(output.at(2), 2.0f);
  EXPECT_EQ(output.at(3), 0.0f);
}

TEST(ReLUTest, BackwardMasksGradient) {
  ReLU relu;
  Tensor input({1, 2});
  input.at(0) = -1.0f;
  input.at(1) = 3.0f;
  Tensor grad_out({1, 2});
  grad_out.at(0) = 7.0f;
  grad_out.at(1) = 7.0f;
  Tensor grad_in({1, 2});
  relu.backward(input, grad_out, grad_in);
  EXPECT_EQ(grad_in.at(0), 0.0f);
  EXPECT_EQ(grad_in.at(1), 7.0f);
}

TEST(TanhTest, ForwardAndDerivative) {
  Tanh tanh_layer;
  Tensor input({1, 1});
  input.at(0) = 0.5f;
  Tensor output({1, 1});
  tanh_layer.forward(input, output);
  EXPECT_NEAR(output.at(0), std::tanh(0.5f), 1e-6f);

  Tensor grad_out({1, 1});
  grad_out.at(0) = 1.0f;
  Tensor grad_in({1, 1});
  tanh_layer.backward(input, grad_out, grad_in);
  const float t = std::tanh(0.5f);
  EXPECT_NEAR(grad_in.at(0), 1.0f - t * t, 1e-6f);
}

TEST(SequentialTest, ParameterRoundTrip) {
  Sequential model = make_mlp(4, {8}, 3);
  util::Rng rng(1);
  initialize(model, rng);
  std::vector<float> params = model.parameters_flat();
  EXPECT_EQ(params.size(), model.num_parameters());

  Sequential copy = model.clone();
  std::vector<float> copied = copy.parameters_flat();
  EXPECT_EQ(params, copied);

  // set_parameters then get_parameters is the identity.
  for (auto& p : params) p += 1.0f;
  model.set_parameters(params);
  EXPECT_EQ(model.parameters_flat(), params);
}

TEST(SequentialTest, CloneIsIndependent) {
  Sequential model = make_mlp(2, {4}, 2);
  util::Rng rng(2);
  initialize(model, rng);
  Sequential copy = model.clone();
  std::vector<float> params = model.parameters_flat();
  params[0] += 10.0f;
  model.set_parameters(params);
  EXPECT_NE(model.parameters_flat()[0], copy.parameters_flat()[0]);
}

TEST(SequentialTest, EmptyModelThrows) {
  Sequential model;
  Tensor input({1, 4});
  EXPECT_THROW(model.forward(input), std::logic_error);
}

TEST(ModelZoo, SoftmaxRegressionAndMlp) {
  EXPECT_EQ(make_softmax_regression(10, 3).num_parameters(), 33u);
  // 4->8->2: 4*8+8 + 8*2+2 = 58
  EXPECT_EQ(make_mlp(4, {8}, 2).num_parameters(), 58u);
}

TEST(InitTest, DeterministicPerSeed) {
  Sequential a = make_mlp(6, {5}, 4);
  Sequential b = make_mlp(6, {5}, 4);
  util::Rng rng_a(9), rng_b(9), rng_c(10);
  initialize(a, rng_a);
  initialize(b, rng_b);
  EXPECT_EQ(a.parameters_flat(), b.parameters_flat());

  Sequential c = make_mlp(6, {5}, 4);
  initialize(c, rng_c);
  EXPECT_NE(a.parameters_flat(), c.parameters_flat());
}

TEST(InitTest, BiasesAreZeroWeightsBounded) {
  Sequential model = make_mlp(100, {}, 10);
  util::Rng rng(4);
  initialize(model, rng);
  auto* linear = dynamic_cast<Linear*>(&model.layer(0));
  ASSERT_NE(linear, nullptr);
  const float bound = std::sqrt(6.0f / 100.0f);
  for (const float w : linear->weights()) {
    EXPECT_GE(w, -bound);
    EXPECT_LE(w, bound);
  }
  for (const float b : linear->bias()) EXPECT_EQ(b, 0.0f);
}

TEST(SequentialTest, SummaryMentionsLayersAndTotal) {
  Sequential model = make_mlp(4, {8}, 3);
  const std::string summary = model.summary();
  EXPECT_NE(summary.find("Linear(4->8)"), std::string::npos);
  EXPECT_NE(summary.find("total parameters"), std::string::npos);
}

// --- empty grad_input contract ----------------------------------------------

/// Parameter gradients of `proto` after one backward through a fresh
/// clone. With `grad_in` null the layer gets an empty grad_input;
/// otherwise the input gradient lands in a NaN-poisoned reused buffer.
std::vector<float> backward_grads(const Layer& proto, const Tensor& input,
                                  const Tensor& grad_out, Tensor* grad_in) {
  std::unique_ptr<Layer> layer = proto.clone();
  Tensor output(layer->output_shape(input.shape()));
  layer->forward(input, output);
  layer->zero_grad();
  Tensor none;
  if (grad_in != nullptr) {
    *grad_in = Tensor(input.shape());
    grad_in->fill(std::numeric_limits<float>::quiet_NaN());
  }
  layer->backward(input, grad_out, grad_in != nullptr ? *grad_in : none);
  EXPECT_TRUE(none.empty()) << proto.name() << " wrote an empty grad_input";
  const auto grads = layer->gradients();
  return {grads.begin(), grads.end()};
}

std::vector<std::uint32_t> bits(std::span<const float> values) {
  std::vector<std::uint32_t> out;
  for (const float v : values) out.push_back(std::bit_cast<std::uint32_t>(v));
  return out;
}

TEST(EmptyGradInput, EveryLayerKeepsParameterGradientsBitwise) {
  struct Case {
    std::unique_ptr<Layer> layer;
    Shape input_shape;
  };
  std::vector<Case> cases;
  cases.push_back({std::make_unique<Linear>(6, 5), {4, 6}});
  cases.push_back({std::make_unique<ReLU>(), {4, 6}});
  cases.push_back({std::make_unique<Tanh>(), {4, 6}});

  util::Rng rng(21);
  for (Case& c : cases) {
    SCOPED_TRACE(c.layer->name());
    if (!c.layer->parameters().empty()) {
      rng.fill_normal(c.layer->parameters(), 0.0f, 0.5f);
    }
    Tensor input(c.input_shape);
    rng.fill_normal(input.data(), 0.0f, 1.0f);
    Tensor grad_out(c.layer->output_shape(input.shape()));
    rng.fill_normal(grad_out.data(), 0.0f, 1.0f);
    // Post-ReLU-like zeros exercise the skip branches.
    for (std::size_t i = 0; i < grad_out.numel(); i += 3) grad_out.at(i) = 0.0f;

    Tensor grad_in_full;
    const std::vector<float> full =
        backward_grads(*c.layer, input, grad_out, &grad_in_full);
    const std::vector<float> skipped =
        backward_grads(*c.layer, input, grad_out, nullptr);
    EXPECT_EQ(bits(full), bits(skipped));
    // A reused (NaN-poisoned) buffer is fully overwritten.
    for (const float v : grad_in_full.data()) ASSERT_FALSE(std::isnan(v));
  }
}

/// Identity layer that records whether backward handed it an input
/// gradient to fill.
class ProbeLayer final : public Layer {
 public:
  explicit ProbeLayer(std::vector<bool>* got_grad_input)
      : got_(got_grad_input) {}
  std::string name() const override { return "Probe"; }
  Shape output_shape(const Shape& input_shape) const override {
    return input_shape;
  }
  void forward(const Tensor& input, Tensor& output) override {
    std::copy(input.data().begin(), input.data().end(), output.data().begin());
  }
  void backward(const Tensor&, const Tensor& grad_output,
                Tensor& grad_input) override {
    got_->push_back(!grad_input.empty());
    if (grad_input.empty()) return;
    std::copy(grad_output.data().begin(), grad_output.data().end(),
              grad_input.data().begin());
  }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ProbeLayer>(got_);
  }

 private:
  std::vector<bool>* got_;
};

TEST(SequentialTest, BackwardNeverRequestsLayerZeroInputGradient) {
  std::vector<bool> first, middle;
  Sequential model;
  model.emplace<ProbeLayer>(&first);
  model.emplace<Linear>(4, 5);
  model.emplace<ProbeLayer>(&middle);
  model.emplace<Linear>(5, 3);
  util::Rng rng(8);
  initialize(model, rng);
  Tensor input({2, 4});
  rng.fill_normal(input.data(), 0.0f, 1.0f);
  Tensor grad_logits({2, 3});
  rng.fill_normal(grad_logits.data(), 0.0f, 1.0f);
  for (int step = 0; step < 2; ++step) {
    (void)model.forward(input);
    model.backward(input, grad_logits);
  }
  EXPECT_EQ(first, (std::vector<bool>{false, false}));
  EXPECT_EQ(middle, (std::vector<bool>{true, true}));

  // With a Linear at layer 0 the model's gradients match the same layers
  // driven by hand with a full (discarded) input gradient.
  Sequential mlp = make_mlp(4, {5}, 3);
  initialize(mlp, rng);
  Sequential by_hand = mlp.clone();
  mlp.zero_grad();
  (void)mlp.forward(input);
  mlp.backward(input, grad_logits);

  by_hand.zero_grad();
  std::vector<Tensor> acts(by_hand.num_layers() + 1);
  acts[0] = input;
  for (std::size_t i = 0; i < by_hand.num_layers(); ++i) {
    acts[i + 1] = Tensor(by_hand.layer(i).output_shape(acts[i].shape()));
    by_hand.layer(i).forward(acts[i], acts[i + 1]);
  }
  Tensor grad = grad_logits;
  for (std::size_t i = by_hand.num_layers(); i-- > 0;) {
    Tensor grad_in(acts[i].shape());
    by_hand.layer(i).backward(acts[i], grad, grad_in);
    grad = std::move(grad_in);
  }
  std::vector<float> got(mlp.num_parameters()), want(mlp.num_parameters());
  mlp.get_gradients(got);
  by_hand.get_gradients(want);
  EXPECT_EQ(bits(got), bits(want));
}

TEST(SequentialTest, ForwardRevalidatesWhenInputShapeChanges) {
  Sequential model = make_mlp(4, {5}, 3);
  util::Rng rng(3);
  initialize(model, rng);
  EXPECT_EQ(model.forward(Tensor({2, 4})).shape(), (Shape{2, 3}));
  EXPECT_EQ(model.forward(Tensor({7, 4})).shape(), (Shape{7, 3}));
  EXPECT_THROW((void)model.forward(Tensor({7, 5})), std::invalid_argument);
  // A failed call leaves no stale cache: the good shape still works.
  EXPECT_EQ(model.forward(Tensor({7, 4})).shape(), (Shape{7, 3}));
}

}  // namespace
}  // namespace skiptrain::nn
