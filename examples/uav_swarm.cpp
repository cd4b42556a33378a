// UAV swarm: the paper's motivating battery-constrained setting (§1, §3.2)
// with a custom energy envelope instead of the smartphone traces. A swarm
// of drones with heterogeneous remaining-flight budgets trains a shared
// perception model; we drive the RoundEngine directly to show how the
// lower-level API composes:
//
//   * custom per-node budgets injected into the EnergyAccountant,
//   * a SkipTrainConstrainedScheduler built from those budgets,
//   * a sparse topology (drones only reach nearby peers).
#include <cstdio>

#include "core/skiptrain.hpp"

int main() {
  using namespace skiptrain;

  constexpr std::size_t kDrones = 48;
  constexpr std::size_t kRounds = 160;
  constexpr std::size_t kGammaTrain = 3;
  constexpr std::size_t kGammaSync = 3;

  // Perception workload: FEMNIST-like (many classes, per-drone styles, think
  // "terrain seen by each drone").
  data::FemnistSynConfig data_config;
  data_config.nodes = kDrones;
  data_config.mean_samples_per_node = 60;
  data_config.seed = 7;
  const data::FederatedData dataset =
      data::make_femnist_synthetic(data_config);

  nn::Sequential model =
      nn::make_compact_femnist_model(data_config.feature_dim);
  util::Rng rng(7);
  nn::initialize(model, rng);

  // Heterogeneous budgets: drones return from sorties with 20-90% battery.
  util::Rng budget_rng(99);
  std::vector<std::size_t> budgets(kDrones);
  const double t_train =
      core::expected_training_rounds(kGammaTrain, kGammaSync, kRounds);
  for (auto& tau : budgets) {
    tau = static_cast<std::size_t>(
        budget_rng.uniform_range(10, static_cast<std::int64_t>(t_train)));
  }

  // Sparse mesh: each drone reaches 4 neighbors.
  util::Rng topo_rng(5);
  const graph::Topology mesh =
      graph::make_random_regular(kDrones, 4, topo_rng);
  const graph::MixingMatrix mixing =
      graph::MixingMatrix::metropolis_hastings(mesh);
  std::printf("swarm mesh: %s, spectral gap %.4f\n", mesh.describe().c_str(),
              mixing.spectral_gap());

  const auto run = [&](const core::RoundScheduler& scheduler) {
    // Energy trace: use the OnePlus Nord profile as a stand-in for the
    // drone compute module, with the custom sortie budgets.
    energy::Fleet fleet =
        energy::Fleet::uniform(kDrones, 2, energy::Workload::kFemnist);
    std::vector<std::size_t> degrees(kDrones, 4);
    energy::EnergyAccountant accountant(
        fleet, energy::CommModel{},
        energy::workload_spec(energy::Workload::kFemnist).model_params,
        std::move(degrees));
    accountant.set_budgets(budgets);

    sim::EngineConfig config;
    config.local_steps = 5;
    config.batch_size = 16;
    config.learning_rate = 0.1f;
    config.seed = 7;
    sim::RoundEngine engine(model, dataset, mixing, scheduler,
                            std::move(accountant), config);
    engine.run_rounds(kRounds);

    const metrics::Evaluator evaluator(&dataset.test, 600);
    const auto eval = evaluator.evaluate_fleet(model, engine.node_parameters());

    std::size_t total_trainings = 0;
    for (std::size_t i = 0; i < kDrones; ++i) {
      total_trainings += engine.accountant().training_rounds_executed(i);
    }
    std::printf("  %-28s acc %.2f%% (std %.2f%%), trainings %zu, energy "
                "%.3f Wh\n",
                scheduler.name().c_str(), 100.0 * eval.accuracy.mean,
                100.0 * eval.accuracy.stddev, total_trainings,
                engine.accountant().total_training_wh());
  };

  std::printf("\nsortie budgets: 10..%.0f training rounds per drone\n\n",
              t_train);
  const core::SkipTrainConstrainedScheduler constrained(
      kGammaTrain, kGammaSync, kRounds, budgets, 7);
  const core::GreedyScheduler greedy;
  run(constrained);
  run(greedy);

  std::printf("\nexpected: spreading the training budget across the mission "
              "(SkipTrain-constrained) beats burning it upfront (Greedy) — "
              "late-mission models keep learning from fresh aggregates.\n");
  return 0;
}
