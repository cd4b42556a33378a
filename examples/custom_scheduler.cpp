// Extending SkipTrain: writing your own RoundScheduler.
//
// The paper's §5.3 and §7 sketch future directions (adaptive variants).
// This example implements two custom schedulers against the public
// core::RoundScheduler interface and races them against the built-ins:
//
//   * WarmupScheduler  — trains every round for a warm-up phase (models
//     far from convergence benefit most from gradients), then switches to
//     SkipTrain's alternation to save energy near convergence.
//   * DecayScheduler   — trains with a probability that decays over time,
//     a smooth version of the train/sync trade-off.
#include <cstdio>

#include "core/skiptrain.hpp"

namespace {

using namespace skiptrain;

class WarmupScheduler final : public core::RoundScheduler {
 public:
  WarmupScheduler(std::size_t warmup_rounds, std::size_t gamma_train,
                  std::size_t gamma_sync)
      : warmup_(warmup_rounds), alternation_(gamma_train, gamma_sync) {}

  std::string name() const override {
    return "Warmup(" + std::to_string(warmup_) + ")+SkipTrain";
  }
  core::RoundKind round_kind(std::size_t t) const override {
    if (t <= warmup_) return core::RoundKind::kTraining;
    return alternation_.round_kind(t - warmup_);
  }
  bool should_train(std::size_t t, std::size_t node,
                    std::size_t budget) const override {
    (void)node;
    (void)budget;
    return round_kind(t) == core::RoundKind::kTraining;
  }

 private:
  std::size_t warmup_;
  core::SkipTrainScheduler alternation_;
};

class DecayScheduler final : public core::RoundScheduler {
 public:
  DecayScheduler(std::size_t total_rounds, double final_probability,
                 std::uint64_t seed)
      : total_(total_rounds), floor_(final_probability), seed_(seed) {}

  std::string name() const override { return "DecayingTrainProbability"; }
  core::RoundKind round_kind(std::size_t) const override {
    // Every round is nominally a training round; skipping is per-node.
    return core::RoundKind::kTraining;
  }
  bool should_train(std::size_t t, std::size_t node,
                    std::size_t budget) const override {
    (void)budget;
    const double progress =
        static_cast<double>(t) / static_cast<double>(total_);
    const double p = 1.0 - (1.0 - floor_) * progress;  // 1 -> floor
    return util::stateless_uniform(seed_, node, t) <= p;
  }

 private:
  std::size_t total_;
  double floor_;
  std::uint64_t seed_;
};

}  // namespace

int main() {
  constexpr std::size_t kNodes = 32;
  constexpr std::size_t kRounds = 120;

  data::CifarSynConfig data_config;
  data_config.nodes = kNodes;
  data_config.samples_per_node = 60;
  data_config.seed = 21;
  const data::FederatedData dataset = data::make_cifar_synthetic(data_config);

  nn::Sequential model =
      nn::make_compact_cifar_model(data_config.feature_dim);
  util::Rng rng(21);
  nn::initialize(model, rng);

  util::Rng topo_rng(22);
  const graph::Topology topology =
      graph::make_random_regular(kNodes, 6, topo_rng);
  const graph::MixingMatrix mixing =
      graph::MixingMatrix::metropolis_hastings(topology);

  const auto race = [&](const core::RoundScheduler& scheduler,
                        util::TablePrinter& table) {
    const energy::Fleet fleet =
        energy::Fleet::even(kNodes, energy::Workload::kCifar10);
    std::vector<std::size_t> degrees(kNodes, 6);
    energy::EnergyAccountant accountant(fleet, energy::CommModel{}, 89834,
                                        std::move(degrees));
    sim::EngineConfig config;
    config.local_steps = 10;
    config.batch_size = 16;
    config.learning_rate = 0.1f;
    config.seed = 21;
    sim::RoundEngine engine(model, dataset, mixing, scheduler,
                            std::move(accountant), config);
    engine.run_rounds(kRounds);

    const metrics::Evaluator evaluator(&dataset.test, 600);
    const auto eval = evaluator.evaluate_fleet(model, engine.node_parameters());
    table.add_row({scheduler.name(),
                   util::fixed(100.0 * eval.accuracy.mean, 2),
                   util::fixed(engine.accountant().total_training_wh(), 2)});
  };

  util::TablePrinter table({"scheduler", "final acc%", "train energy Wh"});
  const core::DpsgdScheduler dpsgd;
  const core::SkipTrainScheduler skiptrain(4, 4);
  const WarmupScheduler warmup(kRounds / 4, 4, 4);
  const DecayScheduler decay(kRounds, 0.25, 21);
  race(dpsgd, table);
  race(skiptrain, table);
  race(warmup, table);
  race(decay, table);
  table.print();

  std::printf(
      "\nAny policy expressible as (round kind, per-node decision) plugs "
      "into the engine unchanged — budgets, probabilities, warm-ups, or "
      "anything the future-work section dreams up.\n");
  return 0;
}
