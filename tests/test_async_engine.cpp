// Asynchronous gossip engine semantics: clock/event ordering, per-node
// pacing, budget enforcement, determinism, and learning progress.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/scheduler.hpp"
#include "data/synthetic.hpp"
#include "energy/accountant.hpp"
#include "graph/topology.hpp"
#include "metrics/evaluator.hpp"
#include "nn/init.hpp"
#include "nn/model_zoo.hpp"
#include "sim/async_engine.hpp"

namespace skiptrain::sim {
namespace {

struct AsyncFixture {
  data::FederatedData data;
  nn::Sequential prototype;
  graph::Topology topology;
  energy::Fleet fleet;

  explicit AsyncFixture(std::size_t nodes = 12, std::uint64_t seed = 42)
      : fleet(energy::Fleet::even(nodes, energy::Workload::kCifar10)) {
    data::CifarSynConfig config;
    config.nodes = nodes;
    config.samples_per_node = 30;
    config.test_pool = 300;
    config.seed = seed;
    data = data::make_cifar_synthetic(config);
    prototype = nn::make_mlp(config.feature_dim, {16}, 10);
    util::Rng rng(seed);
    nn::initialize(prototype, rng);
    util::Rng topo_rng(seed + 1);
    topology = graph::make_random_regular(nodes, 4, topo_rng);
  }

  energy::EnergyAccountant make_accountant() const {
    std::vector<std::size_t> degrees(fleet.num_nodes(), 4);
    return energy::EnergyAccountant(fleet, energy::CommModel{}, 89834,
                                    std::move(degrees));
  }

  AsyncGossipEngine make_engine(const core::RoundScheduler& scheduler,
                                std::vector<double> speeds,
                                AsyncConfig config = {}) {
    config.local_steps = 2;
    config.batch_size = 8;
    return AsyncGossipEngine(prototype, data, topology, scheduler,
                             make_accountant(), std::move(speeds), config);
  }
};

TEST(AsyncEngine, ClockAdvancesAndActivationsHappen) {
  AsyncFixture fixture;
  const core::DpsgdScheduler scheduler;
  auto engine =
      fixture.make_engine(scheduler, std::vector<double>(12, 1.0));
  engine.run_until(10.0);
  EXPECT_GE(engine.now(), 10.0);
  // ~10 activations per node at unit duration.
  EXPECT_GT(engine.total_activations(), 100u);
  EXPECT_LE(engine.total_activations(), 140u);
  EXPECT_EQ(engine.total_trainings(), engine.total_activations());
}

TEST(AsyncEngine, EmptyNodeShardThrowsInEveryBuildType) {
  AsyncFixture fixture;
  fixture.data.node_indices[0].clear();
  const core::DpsgdScheduler scheduler;
  try {
    (void)fixture.make_engine(scheduler, std::vector<double>(12, 1.0));
    FAIL() << "an engine was built over an empty shard";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("node 0"), std::string::npos)
        << e.what();
  }
}

TEST(AsyncEngine, FasterNodesActivateMoreOften) {
  AsyncFixture fixture;
  const core::DpsgdScheduler scheduler;
  std::vector<double> speeds(12, 4.0);
  speeds[0] = 1.0;  // node 0 is 4x faster
  auto engine = fixture.make_engine(scheduler, std::move(speeds));
  engine.run_until(40.0);
  EXPECT_GT(engine.local_rounds(0), 3 * engine.local_rounds(1));
}

TEST(AsyncEngine, SkipTrainSyncActivationsAreCheap) {
  // With Γt=1, Γs=1 and sync at 5% duration, a node completes far more
  // local rounds than a pure-training node in the same horizon.
  AsyncFixture fixture;
  const core::SkipTrainScheduler skip(1, 1);
  auto skip_engine =
      fixture.make_engine(skip, std::vector<double>(12, 1.0));
  skip_engine.run_until(20.0);

  const core::DpsgdScheduler dpsgd;
  AsyncFixture fixture2;
  auto dpsgd_engine =
      fixture2.make_engine(dpsgd, std::vector<double>(12, 1.0));
  dpsgd_engine.run_until(20.0);

  EXPECT_GT(skip_engine.local_rounds(3), dpsgd_engine.local_rounds(3));
  // And roughly half its activations trained.
  const double train_fraction =
      static_cast<double>(skip_engine.total_trainings()) /
      static_cast<double>(skip_engine.total_activations());
  EXPECT_NEAR(train_fraction, 0.5, 0.05);
}

TEST(AsyncEngine, DeterministicAcrossRuns) {
  const core::SkipTrainScheduler scheduler(2, 2);
  AsyncFixture fixture_a, fixture_b;
  auto engine_a =
      fixture_a.make_engine(scheduler, std::vector<double>(12, 1.5));
  auto engine_b =
      fixture_b.make_engine(scheduler, std::vector<double>(12, 1.5));
  engine_a.run_until(15.0);
  engine_b.run_until(15.0);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(engine_a.model(i).parameters_flat(),
              engine_b.model(i).parameters_flat());
  }
  EXPECT_EQ(engine_a.total_activations(), engine_b.total_activations());
}

TEST(AsyncEngine, RunUntilIsIncremental) {
  const core::DpsgdScheduler scheduler;
  AsyncFixture fixture_a, fixture_b;
  auto engine_one =
      fixture_a.make_engine(scheduler, std::vector<double>(12, 1.0));
  engine_one.run_until(12.0);

  auto engine_two =
      fixture_b.make_engine(scheduler, std::vector<double>(12, 1.0));
  engine_two.run_until(5.0);
  engine_two.run_until(12.0);

  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(engine_one.model(i).parameters_flat(),
              engine_two.model(i).parameters_flat());
  }
}

TEST(AsyncEngine, BudgetStopsTraining) {
  AsyncFixture fixture;
  const core::GreedyScheduler scheduler;
  auto accountant = fixture.make_accountant();
  accountant.set_budgets(std::vector<std::size_t>(12, 3));
  AsyncConfig config;
  config.local_steps = 1;
  config.batch_size = 8;
  AsyncGossipEngine engine(fixture.prototype, fixture.data, fixture.topology,
                           scheduler, std::move(accountant),
                           std::vector<double>(12, 1.0), config);
  engine.run_until(50.0);
  // Each node trained at most 3 times despite ~hundreds of activations
  // (sync-only activations are 20x cheaper, so nodes keep gossiping).
  EXPECT_EQ(engine.total_trainings(), 12u * 3u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(engine.accountant().training_rounds_executed(i), 3u);
  }
  EXPECT_GT(engine.total_activations(), 12u * 10u);
}

TEST(AsyncEngine, GossipSpreadsInformation) {
  // With training disabled (budget 0 everywhere) but distinct initial
  // models, gossip alone must contract the models toward each other.
  AsyncFixture fixture;
  const core::GreedyScheduler scheduler;
  auto accountant = fixture.make_accountant();
  accountant.set_budgets(std::vector<std::size_t>(12, 0));
  AsyncGossipEngine engine(fixture.prototype, fixture.data, fixture.topology,
                           scheduler, std::move(accountant),
                           std::vector<double>(12, 1.0), AsyncConfig{});

  util::Rng rng(9);
  for (std::size_t i = 0; i < 12; ++i) {
    std::vector<float> params(fixture.prototype.num_parameters());
    rng.fill_normal(params, 0.0f, 1.0f);
    engine.model(i).set_parameters(params);
  }
  const auto spread = [&] {
    double worst = 0.0;
    const auto reference = engine.model(0).parameters_flat();
    for (std::size_t i = 1; i < 12; ++i) {
      const auto params = engine.model(i).parameters_flat();
      double sq = 0.0;
      for (std::size_t k = 0; k < params.size(); ++k) {
        const double diff = params[k] - reference[k];
        sq += diff * diff;
      }
      worst = std::max(worst, sq);
    }
    return worst;
  };
  const double before = spread();
  engine.run_until(30.0);
  EXPECT_LT(spread(), before * 0.01);
}

TEST(AsyncEngine, QuantizedPushesStillSpreadInformation) {
  // Same contraction property with int8-encoded outbox payloads: every
  // receiver merges the decoded wire image, and the per-block scales keep
  // the decode close enough that gossip still mixes the fleet.
  AsyncFixture fixture;
  const core::GreedyScheduler scheduler;
  std::vector<std::size_t> degrees(12, 4);
  energy::EnergyAccountant accountant(
      fixture.fleet, quant::comm_model_for(quant::Codec::kInt8Dithered),
      89834, std::move(degrees));
  accountant.set_budgets(std::vector<std::size_t>(12, 0));
  AsyncConfig config;
  config.exchange_codec = quant::Codec::kInt8Dithered;
  AsyncGossipEngine engine(fixture.prototype, fixture.data, fixture.topology,
                           scheduler, std::move(accountant),
                           std::vector<double>(12, 1.0), config);

  util::Rng rng(9);
  for (std::size_t i = 0; i < 12; ++i) {
    std::vector<float> params(fixture.prototype.num_parameters());
    rng.fill_normal(params, 0.0f, 1.0f);
    engine.model(i).set_parameters(params);
  }
  const auto spread = [&] {
    double worst = 0.0;
    const auto reference = engine.model(0).parameters_flat();
    for (std::size_t i = 1; i < 12; ++i) {
      const auto params = engine.model(i).parameters_flat();
      double sq = 0.0;
      for (std::size_t k = 0; k < params.size(); ++k) {
        const double diff = params[k] - reference[k];
        sq += diff * diff;
      }
      worst = std::max(worst, sq);
    }
    return worst;
  };
  const double before = spread();
  engine.run_until(30.0);
  // Quantization noise leaves a small residual floor, so the contraction
  // bound is looser than the float32 test's 1%.
  EXPECT_LT(spread(), before * 0.05);

  // And the comm bill runs at the codec's wire rate: same push count as a
  // float32 engine, 1.125/4 of the energy per push.
  EXPECT_GT(engine.accountant().total_comm_wh(), 0.0);
}

TEST(AsyncEngine, LearnsAboveChance) {
  AsyncFixture fixture(16);
  const core::SkipTrainScheduler scheduler(4, 4);
  AsyncConfig config;
  config.local_steps = 5;
  config.batch_size = 16;
  config.learning_rate = 0.1f;
  auto engine = AsyncGossipEngine(
      fixture.prototype, fixture.data, fixture.topology, scheduler,
      fixture.make_accountant(), std::vector<double>(16, 1.0), config);
  engine.run_until(80.0);

  const metrics::Evaluator evaluator(&fixture.data.test, 300);
  double mean_acc = 0.0;
  for (std::size_t i = 0; i < 16; ++i) {
    mean_acc += evaluator.evaluate(engine.model(i)).accuracy;
  }
  mean_acc /= 16.0;
  EXPECT_GT(mean_acc, 0.3);  // 10 classes, chance = 0.1
}

TEST(AsyncEngine, ModelViewsTrackRowsAcrossActivations) {
  // A model(i) reference taken before the first activation stays valid
  // and keeps viewing row i through training and sync-only activations,
  // and writes through it land in the row.
  AsyncFixture fixture;
  const core::SkipTrainScheduler scheduler(1, 2);
  auto engine = fixture.make_engine(scheduler, std::vector<double>(12, 1.0));
  std::vector<nn::Sequential*> views(engine.num_nodes());
  for (std::size_t i = 0; i < views.size(); ++i) views[i] = &engine.model(i);

  for (const double horizon : {2.0, 5.0, 9.0}) {
    engine.run_until(horizon);
    for (std::size_t i = 0; i < views.size(); ++i) {
      ASSERT_EQ(&engine.model(i), views[i]);
      ASSERT_EQ(views[i]->parameter_arena().data(),
                engine.node_parameters().row(i).data())
          << "horizon " << horizon << " node " << i;
    }
  }
  EXPECT_GT(engine.total_trainings(), 0u);
  EXPECT_LT(engine.total_trainings(), engine.total_activations());

  std::vector<float> params(fixture.prototype.num_parameters());
  util::Rng rng(23);
  rng.fill_normal(params, 0.0f, 1.0f);
  views[5]->set_parameters(params);
  const auto row = engine.node_parameters().row(5);
  EXPECT_TRUE(std::equal(row.begin(), row.end(), params.begin(), params.end()));
}

TEST(AsyncEngine, RejectsBadConstruction) {
  AsyncFixture fixture;
  const core::DpsgdScheduler scheduler;
  EXPECT_THROW(fixture.make_engine(scheduler, std::vector<double>(5, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(fixture.make_engine(scheduler, std::vector<double>(12, 0.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace skiptrain::sim
