#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/scheduler.hpp"
#include "data/synthetic.hpp"
#include "energy/accountant.hpp"
#include "graph/mixing.hpp"
#include "graph/topology.hpp"
#include "metrics/consensus.hpp"
#include "metrics/evaluator.hpp"
#include "metrics/recorder.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/model_zoo.hpp"
#include "sim/engine.hpp"
#include "util/thread_pool.hpp"

namespace skiptrain::metrics {
namespace {

// The fleet-evaluator equivalence test compares a serial run against a
// 4-thread pool. The global pool reads SKIPTRAIN_THREADS once, on first
// use; this runs during static initialization, before any test does.
const bool kPoolSized = [] {
  setenv("SKIPTRAIN_THREADS", "4", /*overwrite=*/1);  // NOLINT(concurrency-mt-unsafe)
  return true;
}();

data::Dataset tiny_dataset() {
  // 4 samples in 2D; class = sign of feature 0.
  data::Dataset dataset;
  dataset.features = tensor::Tensor({4, 2});
  dataset.labels = {0, 0, 1, 1};
  dataset.num_classes = 2;
  dataset.features.at(0, 0) = -2.0f;
  dataset.features.at(1, 0) = -1.0f;
  dataset.features.at(2, 0) = 1.0f;
  dataset.features.at(3, 0) = 2.0f;
  return dataset;
}

/// A linear model that predicts class 1 iff feature 0 > 0.
nn::Sequential perfect_model() {
  nn::Sequential model = nn::make_softmax_regression(2, 2);
  // logits = W x + b; W[0] = (-1, 0), W[1] = (1, 0).
  auto* linear = dynamic_cast<nn::Linear*>(&model.layer(0));
  linear->weights()[0] = -1.0f;
  linear->weights()[1] = 0.0f;
  linear->weights()[2] = 1.0f;
  linear->weights()[3] = 0.0f;
  return model;
}

TEST(Evaluator, PerfectModelScoresOne) {
  const data::Dataset dataset = tiny_dataset();
  const Evaluator evaluator(&dataset);
  nn::Sequential model = perfect_model();
  const EvalResult result = evaluator.evaluate(model);
  EXPECT_DOUBLE_EQ(result.accuracy, 1.0);
  EXPECT_LT(result.loss, 0.7);
}

TEST(Evaluator, InvertedModelScoresZero) {
  const data::Dataset dataset = tiny_dataset();
  const Evaluator evaluator(&dataset);
  nn::Sequential model = perfect_model();
  // Flip the weights: always predicts the wrong class.
  auto params = model.parameters_flat();
  for (auto& p : params) p = -p;
  model.set_parameters(params);
  EXPECT_DOUBLE_EQ(evaluator.evaluate(model).accuracy, 0.0);
}

TEST(Evaluator, MaxSamplesCapsSweep) {
  data::CifarSynConfig config;
  config.nodes = 2;
  config.samples_per_node = 10;
  config.test_pool = 400;
  const data::FederatedData data = data::make_cifar_synthetic(config);
  const Evaluator capped(&data.test, 50);
  EXPECT_EQ(capped.samples_used(), 50u);
  const Evaluator full(&data.test, 0);
  EXPECT_EQ(full.samples_used(), data.test.size());
}

TEST(Evaluator, BatchSizeDoesNotChangeResult) {
  data::CifarSynConfig config;
  config.nodes = 2;
  config.samples_per_node = 10;
  config.test_pool = 300;
  const data::FederatedData data = data::make_cifar_synthetic(config);
  nn::Sequential model = nn::make_compact_cifar_model(config.feature_dim);
  util::Rng rng(5);
  nn::initialize(model, rng);

  const Evaluator small_batches(&data.test, 0, 7);
  const Evaluator big_batches(&data.test, 0, 128);
  EXPECT_DOUBLE_EQ(small_batches.evaluate(model).accuracy,
                   big_batches.evaluate(model).accuracy);
  EXPECT_NEAR(small_batches.evaluate(model).loss,
              big_batches.evaluate(model).loss, 1e-9);
}

TEST(Evaluator, EvaluateAverageEqualsAveragedModel) {
  const data::Dataset dataset = tiny_dataset();
  const Evaluator evaluator(&dataset);
  nn::Sequential prototype = nn::make_softmax_regression(2, 2);

  // Two opposite models; their average is the zero model (50% accuracy
  // territory; argmax ties resolve to class 0 -> accuracy 0.5 here).
  nn::Sequential a = perfect_model();
  std::vector<std::vector<float>> params;
  params.push_back(a.parameters_flat());
  auto negated = a.parameters_flat();
  for (auto& p : negated) p = -p;
  params.push_back(negated);

  const EvalResult averaged = evaluator.evaluate_average(prototype, params);
  EXPECT_DOUBLE_EQ(averaged.accuracy, 0.5);

  EXPECT_THROW(evaluator.evaluate_average(
                   prototype, std::span<const std::vector<float>>{}),
               std::invalid_argument);
}

TEST(Evaluator, FleetSummary) {
  const data::Dataset dataset = tiny_dataset();
  const Evaluator evaluator(&dataset);
  nn::Sequential good = perfect_model();
  nn::Sequential bad = perfect_model();
  auto params = bad.parameters_flat();
  for (auto& p : params) p = -p;
  bad.set_parameters(params);

  std::vector<nn::Sequential*> models{&good, &bad};
  const auto result = evaluator.evaluate_fleet(models);
  EXPECT_DOUBLE_EQ(result.accuracy.mean, 0.5);
  EXPECT_DOUBLE_EQ(result.per_node[0], 1.0);
  EXPECT_DOUBLE_EQ(result.per_node[1], 0.0);
  EXPECT_NEAR(result.accuracy.stddev, 0.5, 1e-12);
}

/// Per-node accuracies of a fleet trained for a few rounds at batch 16,
/// evaluated at batch 48 over 200 samples (five batches, the last one
/// partial) by the row-based and the pointer-based evaluate_fleet.
void expect_row_evaluator_matches_clones(const data::FederatedData& data,
                                         nn::Sequential prototype) {
  util::Rng rng(9);
  nn::initialize(prototype, rng);
  const std::size_t n = data.num_nodes();
  util::Rng topo_rng(10);
  const graph::Topology topology = graph::make_random_regular(n, 4, topo_rng);
  const graph::MixingMatrix mixing =
      graph::MixingMatrix::metropolis_hastings(topology);
  const core::SkipTrainScheduler scheduler(2, 1);
  energy::EnergyAccountant accountant(
      energy::Fleet::even(n, energy::Workload::kCifar10), energy::CommModel{},
      89834, std::vector<std::size_t>(n, 4));
  sim::EngineConfig config;
  config.local_steps = 3;
  config.batch_size = 16;
  sim::RoundEngine engine(prototype, data, mixing, scheduler,
                          std::move(accountant), config);
  engine.run_rounds(4);

  const Evaluator evaluator(&data.test, 200, 48);
  ASSERT_GT(evaluator.samples_used(), 48u * 4);
  std::vector<nn::Sequential> clones;
  for (std::size_t i = 0; i < n; ++i) {
    clones.push_back(prototype.clone());
    clones.back().set_parameters(engine.node_parameters().row(i));
  }
  std::vector<nn::Sequential*> pointers;
  for (nn::Sequential& clone : clones) pointers.push_back(&clone);

  const auto check = [&](const char* label) {
    const auto rows = evaluator.evaluate_fleet(prototype,
                                               engine.node_parameters());
    const auto reference = evaluator.evaluate_fleet(pointers);
    ASSERT_EQ(rows.per_node.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      // Bitwise: the doubles must be the same value, not merely close.
      EXPECT_EQ(rows.per_node[i], reference.per_node[i])
          << label << " node " << i;
    }
    EXPECT_EQ(rows.accuracy.mean, reference.accuracy.mean) << label;
    EXPECT_EQ(rows.accuracy.stddev, reference.accuracy.stddev) << label;
  };
  {
    const util::ThreadPool::ScopedForceSerial serial;
    check("1 thread");
  }
  ASSERT_EQ(util::ThreadPool::global().size(), 4u);
  check("4 threads");
}

TEST(Evaluator, RowFleetMatchesPerNodeClonesCompactCifar) {
  data::CifarSynConfig config;
  config.nodes = 9;
  config.samples_per_node = 40;
  config.test_pool = 400;
  expect_row_evaluator_matches_clones(
      data::make_cifar_synthetic(config),
      nn::make_compact_cifar_model(config.feature_dim));
}

TEST(Evaluator, RowFleetMatchesPerNodeClonesCompactFemnist) {
  data::FemnistSynConfig config;
  config.nodes = 9;
  config.mean_samples_per_node = 40;
  config.test_pool = 400;
  expect_row_evaluator_matches_clones(
      data::make_femnist_synthetic(config),
      nn::make_compact_femnist_model(config.feature_dim));
}

TEST(Evaluator, RowFleetRejectsMismatchedRows) {
  const data::Dataset dataset = tiny_dataset();
  const Evaluator evaluator(&dataset);
  const nn::Sequential prototype = perfect_model();
  const std::vector<float> rows(3 * (prototype.num_parameters() + 1), 0.0f);
  EXPECT_THROW(
      (void)evaluator.evaluate_fleet(
          prototype,
          plane::ConstMatrixView{rows.data(), 3,
                                 prototype.num_parameters() + 1}),
      std::invalid_argument);
}

/// Node models whose logits hit every branch of the top-1 rule: trained-
/// like random rows, an all-zero row (every logit tied), two classes
/// with identical output weights (an exact tie between them), and NaN
/// logits in front of and among the others. The two fleet overloads
/// and evaluate(model).accuracy — the softmax_cross_entropy_eval path —
/// must agree bit for bit on each, over a sweep with a partial batch.
void expect_fleet_top1_matches_loss_eval(const data::FederatedData& data,
                                         nn::Sequential prototype) {
  util::Rng rng(21);
  nn::initialize(prototype, rng);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::size_t dim = prototype.num_parameters();
  auto& head = dynamic_cast<nn::Linear&>(
      prototype.layer(prototype.num_layers() - 1));
  const std::size_t classes = head.out_features();
  const std::size_t in = head.in_features();
  const std::size_t head_offset = dim - head.parameter_count();

  std::vector<std::vector<float>> params;
  for (int noisy = 0; noisy < 3; ++noisy) {
    std::vector<float> row = prototype.parameters_flat();
    for (float& v : row) v += 0.3f * static_cast<float>(rng.normal());
    params.push_back(std::move(row));
  }
  params.emplace_back(dim, 0.0f);
  {
    std::vector<float> row = params[0];
    float* w = row.data() + head_offset;
    float* bias = w + classes * in;
    std::copy(w + 1 * in, w + 2 * in, w + 4 * in);
    bias[4] = bias[1];
    params.push_back(std::move(row));
  }
  for (const std::size_t nan_class : {std::size_t{0}, classes / 2}) {
    std::vector<float> row = params[1];
    row[head_offset + classes * in + nan_class] = nan;
    params.push_back(std::move(row));
  }
  const std::size_t n = params.size();
  std::vector<float> flat;
  for (const auto& row : params) {
    flat.insert(flat.end(), row.begin(), row.end());
  }

  const Evaluator evaluator(&data.test, 600);
  ASSERT_EQ(evaluator.samples_used(), 600u);  // 256 + 256 + 88
  std::vector<nn::Sequential> models;
  for (const auto& row : params) {
    models.push_back(prototype.clone());
    models.back().set_parameters(row);
  }
  std::vector<nn::Sequential*> pointers;
  for (nn::Sequential& model : models) pointers.push_back(&model);
  const auto by_rows = evaluator.evaluate_fleet(
      prototype, plane::ConstMatrixView{flat.data(), n, dim});
  const auto by_pointers = evaluator.evaluate_fleet(pointers);
  for (std::size_t i = 0; i < n; ++i) {
    const double want = evaluator.evaluate(models[i]).accuracy;
    EXPECT_EQ(by_rows.per_node[i], want) << "rows, node " << i;
    EXPECT_EQ(by_pointers.per_node[i], want) << "pointers, node " << i;
  }
  // The NaN-headed node predicts class 0 for every sample, the same as
  // the all-zero node whose logits all tie.
  EXPECT_EQ(by_rows.per_node[n - 2], by_rows.per_node[3]);
}

TEST(Evaluator, FleetTop1MatchesLossEvalBitwise) {
  {
    SCOPED_TRACE("compact CIFAR");
    data::CifarSynConfig config;
    config.nodes = 4;
    config.samples_per_node = 20;
    config.test_pool = 1200;
    expect_fleet_top1_matches_loss_eval(
        data::make_cifar_synthetic(config),
        nn::make_compact_cifar_model(config.feature_dim));
  }
  {
    SCOPED_TRACE("compact FEMNIST");
    data::FemnistSynConfig config;
    config.nodes = 4;
    config.mean_samples_per_node = 20;
    config.test_pool = 1200;
    expect_fleet_top1_matches_loss_eval(
        data::make_femnist_synthetic(config),
        nn::make_compact_femnist_model(config.feature_dim));
  }
}

TEST(Evaluator, FleetRejectsBadEvalLabelsInEveryBuildType) {
  // Plain EXPECT_THROW: the label check must survive Release, on both
  // fleet paths, and reach the caller from the pool's workers.
  data::Dataset dataset = tiny_dataset();
  dataset.labels[2] = 2;  // the model has two classes
  const Evaluator evaluator(&dataset);
  std::vector<nn::Sequential> models;
  for (int i = 0; i < 3; ++i) models.push_back(perfect_model());
  std::vector<nn::Sequential*> pointers;
  std::vector<float> rows;
  for (nn::Sequential& model : models) {
    pointers.push_back(&model);
    const std::vector<float> row = model.parameters_flat();
    rows.insert(rows.end(), row.begin(), row.end());
  }
  EXPECT_THROW((void)evaluator.evaluate_fleet(pointers),
               std::invalid_argument);
  EXPECT_THROW(
      (void)evaluator.evaluate_fleet(
          models[0], plane::ConstMatrixView{rows.data(), 3,
                                            models[0].num_parameters()}),
      std::invalid_argument);
}

TEST(Evaluator, EvaluateAverageRejectsRowsOfTheWrongSize) {
  const data::Dataset dataset = tiny_dataset();
  const Evaluator evaluator(&dataset);
  const nn::Sequential prototype = perfect_model();
  const std::size_t dim = prototype.num_parameters();
  for (const std::size_t wrong : {dim - 1, dim + 1}) {
    SCOPED_TRACE(::testing::Message() << "row size " << wrong);
    const std::vector<std::vector<float>> owned(2,
                                                std::vector<float>(wrong));
    EXPECT_THROW((void)evaluator.evaluate_average(prototype, owned),
                 std::invalid_argument);
    const std::vector<float> flat(2 * wrong, 0.0f);
    EXPECT_THROW((void)evaluator.evaluate_average(
                     prototype, plane::ConstMatrixView{flat.data(), 2, wrong}),
                 std::invalid_argument);
  }
}

TEST(Evaluator, EmptyDatasetThrows) {
  data::Dataset no_samples;
  no_samples.num_classes = 2;
  EXPECT_THROW(
      {
        const Evaluator evaluator(&no_samples);
        (void)evaluator;
      },
      std::invalid_argument);
}

TEST(Consensus, ZeroForIdenticalModels) {
  std::vector<std::vector<float>> params(4, std::vector<float>{1.0f, 2.0f});
  EXPECT_DOUBLE_EQ(consensus_distance(params), 0.0);
  EXPECT_DOUBLE_EQ(max_pairwise_distance(params), 0.0);
}

TEST(Consensus, KnownConfiguration) {
  // Two models at ±1 on one axis: mean is 0, each is distance 1 from it.
  std::vector<std::vector<float>> params{{1.0f}, {-1.0f}};
  EXPECT_DOUBLE_EQ(consensus_distance(params), 1.0);
  EXPECT_DOUBLE_EQ(max_pairwise_distance(params), 2.0);
}

TEST(Consensus, RaggedInputThrows) {
  std::vector<std::vector<float>> params{{1.0f, 2.0f}, {1.0f}};
  EXPECT_THROW((void)consensus_distance(params), std::invalid_argument);
}

TEST(Recorder, BestAndLastAccessors) {
  Recorder recorder("exp");
  EXPECT_TRUE(recorder.empty());
  RoundRecord r1;
  r1.round = 8;
  r1.mean_accuracy = 0.5;
  r1.train_energy_wh = 10.0;
  recorder.add(r1);
  RoundRecord r2;
  r2.round = 16;
  r2.mean_accuracy = 0.4;  // dips
  r2.train_energy_wh = 20.0;
  recorder.add(r2);

  EXPECT_EQ(recorder.records().size(), 2u);
  EXPECT_EQ(recorder.last().round, 16u);
  EXPECT_DOUBLE_EQ(recorder.best_mean_accuracy(), 0.5);
}

TEST(Recorder, RecordAtEnergyFindsFirstCrossing) {
  Recorder recorder("exp");
  for (int i = 1; i <= 5; ++i) {
    RoundRecord r;
    r.round = static_cast<std::size_t>(i);
    r.train_energy_wh = 10.0 * i;
    r.mean_accuracy = 0.1 * i;
    recorder.add(r);
  }
  const auto at_25 = recorder.record_at_energy(25.0);
  ASSERT_TRUE(at_25.has_value());
  EXPECT_EQ(at_25->round, 3u);  // first record with energy >= 25

  EXPECT_FALSE(recorder.record_at_energy(1000.0).has_value());
}

TEST(Recorder, CsvExportRoundTrips) {
  const std::string path = ::testing::TempDir() + "recorder_test.csv";
  Recorder recorder("exp");
  RoundRecord r;
  r.round = 4;
  r.training_round = true;
  r.mean_accuracy = 0.625;
  r.nodes_trained = 32;
  recorder.add(r);
  recorder.write_csv(path);

  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_NE(header.find("mean_accuracy"), std::string::npos);
  EXPECT_NE(row.find("0.625"), std::string::npos);
  EXPECT_NE(row.find("32"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Recorder, RenderSeriesShowsKindAndRows) {
  Recorder recorder("my-experiment");
  RoundRecord train_record;
  train_record.round = 1;
  train_record.training_round = true;
  recorder.add(train_record);
  RoundRecord sync_record;
  sync_record.round = 2;
  sync_record.training_round = false;
  recorder.add(sync_record);

  const std::string rendered = recorder.render_series();
  EXPECT_NE(rendered.find("my-experiment"), std::string::npos);
  EXPECT_NE(rendered.find("train"), std::string::npos);
  EXPECT_NE(rendered.find("sync"), std::string::npos);
}

}  // namespace
}  // namespace skiptrain::metrics
