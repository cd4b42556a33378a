#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <set>
#include <stdexcept>

#include "data/dataset.hpp"
#include "data/distribution.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace skiptrain::data {
namespace {

// The parallel-build tests compare the 4-worker global pool against a
// serial build. The global pool reads SKIPTRAIN_THREADS once, on first
// use; this runs during static initialization, before any test does.
const bool kPoolSized = [] {
  setenv("SKIPTRAIN_THREADS", "4", /*overwrite=*/1);  // NOLINT(concurrency-mt-unsafe)
  return true;
}();

std::vector<std::int32_t> cyclic_labels(std::size_t n, std::size_t classes) {
  std::vector<std::int32_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<std::int32_t>(i % classes);
  }
  return labels;
}

// --- Partition properties ---------------------------------------------------

class ShardPartitionParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ShardPartitionParam, CoversAllSamplesAndBoundsLabels) {
  const auto [nodes, shards] = GetParam();
  const std::size_t samples = nodes * shards * 25;
  const auto labels = cyclic_labels(samples, 10);
  util::Rng rng(17);
  const Partition partition = shard_partition(labels, nodes, shards, rng);

  ASSERT_EQ(partition.size(), nodes);
  validate_partition(partition, samples);  // throws on violation

  // Each node sees at most `shards` distinct labels... plus at most one
  // extra when a shard straddles a label boundary. The McMahan bound that
  // the paper relies on is <= 2 * shards in the worst case; with balanced
  // classes and shard_size | class_size it is exactly <= shards + 1.
  for (const auto& node : partition) {
    std::set<std::int32_t> distinct;
    for (const std::size_t idx : node) distinct.insert(labels[idx]);
    EXPECT_LE(distinct.size(), shards + 1);
    EXPECT_GE(distinct.size(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ShardPartitionParam,
    ::testing::Values(std::make_tuple(4, 2), std::make_tuple(16, 2),
                      std::make_tuple(10, 3), std::make_tuple(32, 1),
                      std::make_tuple(8, 4)));

TEST(ShardPartition, TwoShardLimitsLabelsWithExactDivision) {
  // 10 classes x 100 samples each, 50 nodes x 2 shards of size 10:
  // shards never straddle class boundaries, so <= 2 labels per node.
  const std::size_t nodes = 50;
  std::vector<std::int32_t> labels;
  for (int c = 0; c < 10; ++c) {
    labels.insert(labels.end(), 100, c);
  }
  util::Rng rng(3);
  const Partition partition = shard_partition(labels, nodes, 2, rng);
  for (const auto& node : partition) {
    std::set<std::int32_t> distinct;
    for (const std::size_t idx : node) distinct.insert(labels[idx]);
    EXPECT_LE(distinct.size(), 2u);
  }
}

TEST(ShardPartition, DeterministicGivenSeed) {
  const auto labels = cyclic_labels(400, 10);
  util::Rng rng_a(9), rng_b(9);
  EXPECT_EQ(shard_partition(labels, 8, 2, rng_a),
            shard_partition(labels, 8, 2, rng_b));
}

TEST(ShardPartition, RejectsInvalidArguments) {
  const auto labels = cyclic_labels(10, 2);
  util::Rng rng(1);
  EXPECT_THROW(shard_partition(labels, 0, 2, rng), std::invalid_argument);
  EXPECT_THROW(shard_partition(labels, 100, 2, rng), std::invalid_argument);
}

TEST(IidPartition, EqualSizesAndCoverage) {
  util::Rng rng(5);
  const Partition partition = iid_partition(103, 10, rng);
  validate_partition(partition, 103);
  for (const auto& node : partition) {
    EXPECT_GE(node.size(), 10u);
    EXPECT_LE(node.size(), 11u);
  }
}

TEST(DirichletPartition, CoverageAndHeterogeneityOrdering) {
  const auto labels = cyclic_labels(2000, 10);
  util::Rng rng(7);
  const Partition concentrated = dirichlet_partition(labels, 20, 100.0, rng);
  const Partition skewed = dirichlet_partition(labels, 20, 0.1, rng);
  validate_partition(concentrated, labels.size());
  validate_partition(skewed, labels.size());

  // Build federated wrappers to reuse the heterogeneity metric.
  const auto heterogeneity = [&](const Partition& partition) {
    ClassCounts counts(partition.size(), std::vector<std::size_t>(10, 0));
    for (std::size_t node = 0; node < partition.size(); ++node) {
      for (const std::size_t idx : partition[node]) {
        ++counts[node][static_cast<std::size_t>(labels[idx])];
      }
    }
    return heterogeneity_index(counts);
  };
  EXPECT_GT(heterogeneity(skewed), heterogeneity(concentrated) + 0.2);
}

TEST(ValidatePartition, DetectsViolations) {
  EXPECT_THROW(validate_partition({{0, 1}, {1, 2}}, 3), std::runtime_error);
  EXPECT_THROW(validate_partition({{0, 1}}, 3), std::runtime_error);
  EXPECT_THROW(validate_partition({{0, 5}}, 3), std::runtime_error);
  EXPECT_NO_THROW(validate_partition({{2, 0}, {1}}, 3));
}

TEST(Gamma, DirichletWeightsNormalized) {
  util::Rng rng(11);
  const auto weights = dirichlet_weights(rng, 5.0, 16);
  double total = 0.0;
  for (const double w : weights) {
    EXPECT_GT(w, 0.0);
    total += w;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// --- Dataset & views ---------------------------------------------------------

TEST(DatasetView, SampleBatchShapesAndLabels) {
  Dataset dataset;
  dataset.features = tensor::Tensor({10, 3});
  dataset.labels.resize(10);
  dataset.num_classes = 10;
  for (std::size_t i = 0; i < 10; ++i) {
    dataset.labels[i] = static_cast<std::int32_t>(i);
    for (std::size_t j = 0; j < 3; ++j) {
      dataset.features.at(i, j) = static_cast<float>(i);
    }
  }
  DatasetView view(&dataset, {2, 5, 7});
  util::Rng rng(3);
  tensor::Tensor batch;
  std::vector<std::int32_t> labels;
  view.sample_batch(rng, 64, batch, labels);
  EXPECT_EQ(batch.shape(), (tensor::Shape{64, 3}));
  ASSERT_EQ(labels.size(), 64u);
  // Each drawn sample's features equal its label (by construction).
  for (std::size_t b = 0; b < 64; ++b) {
    EXPECT_TRUE(labels[b] == 2 || labels[b] == 5 || labels[b] == 7);
    EXPECT_EQ(batch.at(b, 0), static_cast<float>(labels[b]));
  }
}

TEST(DatasetView, FillRangePreservesOrder) {
  Dataset dataset;
  dataset.features = tensor::Tensor({5, 1});
  dataset.labels = {0, 1, 2, 3, 4};
  dataset.num_classes = 5;
  for (std::size_t i = 0; i < 5; ++i) {
    dataset.features.at(i, 0) = static_cast<float>(10 * i);
  }
  DatasetView view(&dataset, {4, 2, 0});
  tensor::Tensor batch;
  std::vector<std::int32_t> labels;
  view.fill_range(1, 2, batch, labels);
  EXPECT_EQ(labels[0], 2);
  EXPECT_EQ(labels[1], 0);
  EXPECT_EQ(batch.at(0, 0), 20.0f);
  EXPECT_EQ(batch.at(1, 0), 0.0f);
}

TEST(DatasetView, ClassHistogram) {
  Dataset dataset;
  dataset.features = tensor::Tensor({4, 1});
  dataset.labels = {1, 1, 0, 2};
  dataset.num_classes = 3;
  DatasetView view = DatasetView::whole(&dataset);
  const auto histogram = view.class_histogram();
  EXPECT_EQ(histogram, (std::vector<std::size_t>{1, 2, 1}));
}

TEST(SplitDataset, DisjointAndComplete) {
  Dataset pool;
  pool.features = tensor::Tensor({100, 2});
  pool.labels.resize(100);
  pool.num_classes = 10;
  for (std::size_t i = 0; i < 100; ++i) {
    pool.labels[i] = static_cast<std::int32_t>(i % 10);
    pool.features.at(i, 0) = static_cast<float>(i);  // unique fingerprint
  }
  util::Rng rng(13);
  const auto [first, second] = split_dataset(pool, 0.5, rng);
  EXPECT_EQ(first.size(), 50u);
  EXPECT_EQ(second.size(), 50u);

  std::set<float> seen;
  for (std::size_t i = 0; i < 50; ++i) seen.insert(first.features.at(i, 0));
  for (std::size_t i = 0; i < 50; ++i) seen.insert(second.features.at(i, 0));
  EXPECT_EQ(seen.size(), 100u);  // no sample appears twice
}

// --- Synthetic workloads -----------------------------------------------------

CifarSynConfig small_cifar() {
  CifarSynConfig config;
  config.nodes = 16;
  config.samples_per_node = 50;
  config.test_pool = 400;
  return config;
}

FemnistSynConfig small_femnist() {
  FemnistSynConfig config;
  config.nodes = 16;
  config.mean_samples_per_node = 60;
  config.test_pool = 400;
  return config;
}

TEST(CifarSynthetic, StructureAndInvariants) {
  const FederatedData data = make_cifar_synthetic(small_cifar());
  EXPECT_EQ(data.num_nodes(), 16u);
  EXPECT_EQ(data.train.size(), 16u * 50u);
  EXPECT_EQ(data.train.num_classes, 10u);
  EXPECT_EQ(data.validation.size(), 200u);
  EXPECT_EQ(data.test.size(), 200u);
  data.train.validate();
  data.validation.validate();
  data.test.validate();
  validate_partition(data.node_indices, data.train.size());
}

TEST(CifarSynthetic, TwoShardSkewIsStrong) {
  const FederatedData data = make_cifar_synthetic(small_cifar());
  const ClassCounts counts = class_distribution(data);
  const auto distinct = distinct_classes_per_node(counts);
  for (const std::size_t d : distinct) {
    EXPECT_LE(d, 4u);  // 2 shards + boundary effects + label noise
  }
  EXPECT_GT(heterogeneity_index(counts), 0.5);
}

TEST(CifarSynthetic, DeterministicInSeed) {
  const FederatedData a = make_cifar_synthetic(small_cifar());
  const FederatedData b = make_cifar_synthetic(small_cifar());
  EXPECT_EQ(a.train.labels, b.train.labels);
  EXPECT_EQ(a.node_indices, b.node_indices);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(a.train.features.at(i), b.train.features.at(i));
  }

  CifarSynConfig other = small_cifar();
  other.seed = 777;
  const FederatedData c = make_cifar_synthetic(other);
  EXPECT_NE(a.train.features.at(0), c.train.features.at(0));
}

TEST(FemnistSynthetic, StructureAndNaturalPartition) {
  const FederatedData data = make_femnist_synthetic(small_femnist());
  EXPECT_EQ(data.num_nodes(), 16u);
  EXPECT_EQ(data.train.num_classes, 62u);
  data.train.validate();
  validate_partition(data.node_indices, data.train.size());

  // Writer sizes are clamped to [mean/2, 2*mean].
  for (const auto& node : data.node_indices) {
    EXPECT_GE(node.size(), 30u);
    EXPECT_LE(node.size(), 120u);
  }
}

TEST(FemnistSynthetic, MoreHomogeneousThanCifar) {
  // This is the Figure 7 / §4.7 claim: FEMNIST's natural partition is far
  // closer to IID than CIFAR's 2-shard split.
  const FederatedData cifar = make_cifar_synthetic(small_cifar());
  const FederatedData femnist = make_femnist_synthetic(small_femnist());
  const double h_cifar = heterogeneity_index(class_distribution(cifar));
  const double h_femnist = heterogeneity_index(class_distribution(femnist));
  EXPECT_LT(h_femnist, h_cifar);

  // FEMNIST writers cover many classes; CIFAR nodes only ~2.
  const auto distinct_femnist =
      distinct_classes_per_node(class_distribution(femnist));
  double mean_distinct = 0.0;
  for (const std::size_t d : distinct_femnist) {
    mean_distinct += static_cast<double>(d);
  }
  mean_distinct /= static_cast<double>(distinct_femnist.size());
  EXPECT_GT(mean_distinct, 20.0);
}

TEST(FemnistSynthetic, RejectsZeroMeanSamples) {
  FemnistSynConfig config = small_femnist();
  config.mean_samples_per_node = 0;
  EXPECT_THROW((void)make_femnist_synthetic(config), std::invalid_argument);
}

TEST(FemnistSynthetic, MeanOfOneSampleLeavesNoWriterEmpty) {
  // Without the count's floor of one, the lognormal factor truncates 9
  // of these 16 writers to 0 samples.
  FemnistSynConfig config = small_femnist();
  config.mean_samples_per_node = 1;
  const FederatedData data = make_femnist_synthetic(config);
  ASSERT_EQ(data.num_nodes(), 16u);
  for (const auto& node : data.node_indices) {
    EXPECT_GE(node.size(), 1u);
    EXPECT_LE(node.size(), 2u);
  }
  validate_partition(data.node_indices, data.train.size());
}

// --- Parallel build --------------------------------------------------------

void expect_same_dataset(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.features.shape(), b.features.shape());
  EXPECT_EQ(std::memcmp(a.features.raw(), b.features.raw(),
                        a.features.numel() * sizeof(float)),
            0);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.num_classes, b.num_classes);
}

void expect_same_data(const FederatedData& a, const FederatedData& b) {
  expect_same_dataset(a.train, b.train);
  expect_same_dataset(a.validation, b.validation);
  expect_same_dataset(a.test, b.test);
  EXPECT_EQ(a.node_indices, b.node_indices);
}

template <typename Config, typename Build>
void expect_parallel_matches_serial(Config config, Build build) {
  ASSERT_EQ(util::ThreadPool::global().size(), 4u);
  // 13 nodes split across 4 workers leaves uneven chunks; an odd feature
  // dimension puts chunk boundaries in the middle of a Box–Muller pair.
  config.nodes = 13;
  config.test_pool = 90;
  for (const std::size_t dim : {63u, 64u}) {
    SCOPED_TRACE("feature_dim " + std::to_string(dim));
    config.feature_dim = dim;
    const FederatedData parallel = build(config);
    FederatedData serial;
    {
      const util::ThreadPool::ScopedForceSerial force_serial;
      serial = build(config);
    }
    expect_same_data(parallel, serial);
  }
}

TEST(Synthetic, ParallelBuildIsBitIdentical) {
  CifarSynConfig cifar;
  cifar.samples_per_node = 7;
  expect_parallel_matches_serial(cifar, make_cifar_synthetic);
  FemnistSynConfig femnist;
  femnist.mean_samples_per_node = 9;
  expect_parallel_matches_serial(femnist, make_femnist_synthetic);
}

/// FNV-1a over every byte a build returns.
class Fnv {
 public:
  void add(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void add(const Dataset& dataset) {
    add(dataset.features.raw(), dataset.features.numel() * sizeof(float));
    add(dataset.labels.data(), dataset.labels.size() * sizeof(std::int32_t));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const FederatedData& data) {
  Fnv fnv;
  fnv.add(data.train);
  fnv.add(data.validation);
  fnv.add(data.test);
  for (const auto& node : data.node_indices) {
    fnv.add(node.data(), node.size() * sizeof(std::size_t));
  }
  return fnv.value();
}

TEST(Synthetic, OutputMatchesPinnedDigests) {
  // Pinned from a build of the one-chunk serial loops: a drift of the
  // random streams, serial or parallel, changes the bytes.
  EXPECT_EQ(digest(make_cifar_synthetic(small_cifar())),
            0x6fd74897d75787c5ULL);
  EXPECT_EQ(digest(make_femnist_synthetic(small_femnist())),
            0x30a54c4e156fc23eULL);
}

TEST(Distribution, RenderPlotSmoke) {
  const FederatedData data = make_cifar_synthetic(small_cifar());
  const std::string plot =
      render_distribution_plot(class_distribution(data), 10);
  EXPECT_NE(plot.find("class \\ node"), std::string::npos);
  EXPECT_NE(plot.find("legend"), std::string::npos);
}

TEST(Dataset, ValidateCatchesBadLabels) {
  Dataset dataset;
  dataset.features = tensor::Tensor({2, 1});
  dataset.labels = {0, 5};
  dataset.num_classes = 3;
  EXPECT_THROW(dataset.validate(), std::runtime_error);
}

}  // namespace
}  // namespace skiptrain::data
