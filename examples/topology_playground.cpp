// Topology playground: how the communication graph shapes decentralized
// learning. Runs SkipTrain over ring / d-regular / fully-connected graphs
// and relates final accuracy to the mixing matrix's spectral gap — the
// quantitative version of the paper's §4.3 observation that denser
// topologies need fewer synchronization rounds.
#include <cstdio>

#include "core/skiptrain.hpp"

int main() {
  using namespace skiptrain;

  constexpr std::size_t kNodes = 32;

  data::CifarSynConfig data_config;
  data_config.nodes = kNodes;
  data_config.samples_per_node = 60;
  data_config.seed = 11;
  const data::FederatedData dataset = data::make_cifar_synthetic(data_config);

  nn::Sequential model =
      nn::make_compact_cifar_model(data_config.feature_dim);
  util::Rng rng(11);
  nn::initialize(model, rng);

  struct Scenario {
    std::string name;
    graph::Topology topology;
  };
  util::Rng topo_rng(13);
  std::vector<Scenario> scenarios;
  scenarios.push_back({"ring (d=2)", graph::make_ring(kNodes)});
  scenarios.push_back(
      {"4-regular", graph::make_random_regular(kNodes, 4, topo_rng)});
  scenarios.push_back(
      {"8-regular", graph::make_random_regular(kNodes, 8, topo_rng)});
  scenarios.push_back(
      {"fully connected", graph::make_fully_connected(kNodes)});

  util::TablePrinter table({"topology", "spectral gap", "diameter",
                            "final acc%", "acc std%"});

  for (auto& scenario : scenarios) {
    const graph::MixingMatrix mixing =
        graph::MixingMatrix::metropolis_hastings(scenario.topology);

    // Run SkipTrain directly on this topology through the engine (the
    // high-level runner always builds d-regular graphs).
    const core::SkipTrainScheduler scheduler(4, 4);
    const energy::Fleet fleet =
        energy::Fleet::even(kNodes, energy::Workload::kCifar10);
    std::vector<std::size_t> degrees(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      degrees[i] = scenario.topology.degree(i);
    }
    energy::EnergyAccountant accountant(fleet, energy::CommModel{}, 89834,
                                        std::move(degrees));
    sim::EngineConfig config;
    config.local_steps = 10;
    config.batch_size = 16;
    config.learning_rate = 0.1f;
    config.seed = 11;
    sim::RoundEngine engine(model, dataset, mixing, scheduler,
                            std::move(accountant), config);
    engine.run_rounds(120);

    const metrics::Evaluator evaluator(&dataset.test, 600);
    const auto eval = evaluator.evaluate_fleet(model, engine.node_parameters());

    table.add_row({scenario.name, util::fixed(mixing.spectral_gap(), 4),
                   std::to_string(scenario.topology.diameter()),
                   util::fixed(100.0 * eval.accuracy.mean, 2),
                   util::fixed(100.0 * eval.accuracy.stddev, 2)});
  }
  table.print();

  std::printf("\nreading: larger spectral gap = faster gossip mixing. "
              "Accuracy (and its spread across nodes) improves with the "
              "gap; the marginal value of extra sync rounds falls as the "
              "graph densifies — exactly the Γsync trend of Figure 3.\n");
  return 0;
}
