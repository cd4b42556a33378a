// Ablation (related work, §6): top-k sparsified model exchange. Sweeps the
// wire fraction and reports final accuracy vs communication energy —
// quantifying how much of the (already tiny) sharing cost sparsification
// can recover and what it costs in accuracy.
#include "common.hpp"

#include "graph/topology.hpp"
#include "sim/engine.hpp"

int main(int argc, char** argv) {
  using namespace skiptrain;
  util::ArgParser args("ablation_compression",
                       "masked sparse exchange: accuracy vs wire volume");
  bench::add_common_flags(args, /*default_nodes=*/32, /*default_rounds=*/160);
  args.add_int("degree", 6, "topology degree");
  args.parse(argc, argv);

  bench::print_header(
      "Ablation: masked sparse exchanges (Sparse-Push axis)",
      "round-shared random coordinate mask; dense = the paper's setting");

  const bench::Workbench wb = bench::make_cifar_bench(args);
  const sim::RunOptions base = bench::options_from_flags(args, wb);
  const auto degree = static_cast<std::size_t>(args.get_int("degree"));
  const std::size_t n = wb.data.num_nodes();
  const std::size_t dim = wb.model.num_parameters();

  util::Rng topo_rng(util::hash_combine(base.seed, 0x70700000ULL));
  const graph::Topology topology =
      graph::make_random_regular(n, degree, topo_rng);
  const graph::MixingMatrix mixing =
      graph::MixingMatrix::metropolis_hastings(topology);
  const auto [gamma_train, gamma_sync] = bench::tuned_gammas(degree);
  const core::SkipTrainScheduler scheduler(gamma_train, gamma_sync);
  const auto& spec = energy::workload_spec(wb.workload);
  const energy::Fleet fleet = energy::Fleet::even(n, wb.workload);
  const metrics::Evaluator evaluator(&wb.data.test, base.eval_max_samples);

  util::TablePrinter table({"exchange", "wire fraction", "final acc%",
                            "comm energy Wh", "train energy Wh"});

  const std::size_t dense_marker = 0;
  const std::size_t ks[] = {dense_marker, dim / 2, dim / 4, dim / 10,
                            dim / 50};
  for (const std::size_t k : ks) {
    std::vector<std::size_t> degrees(n);
    for (std::size_t i = 0; i < n; ++i) degrees[i] = topology.degree(i);
    energy::EnergyAccountant accountant(fleet, energy::CommModel{},
                                        spec.model_params,
                                        std::move(degrees));
    sim::EngineConfig config;
    config.local_steps = base.local_steps;
    config.batch_size = base.batch_size;
    config.learning_rate = base.learning_rate;
    config.seed = base.seed;
    config.sparse_exchange_k = k;
    sim::RoundEngine engine(wb.model, wb.data, mixing, scheduler,
                            std::move(accountant), config);
    engine.run_rounds(base.total_rounds);

    const double acc = evaluator.evaluate_fleet(wb.model, engine.node_parameters()).accuracy.mean;

    const double fraction =
        k == 0 ? 1.0
               : static_cast<double>(std::min(k, dim)) /
                     static_cast<double>(dim);
    table.add_row({k == 0 ? "dense" : "mask-" + std::to_string(k),
                   util::fixed(fraction, 2), util::fixed(100.0 * acc, 2),
                   util::fixed(engine.accountant().total_comm_wh(), 4),
                   util::fixed(engine.accountant().total_training_wh(), 2)});
  }
  table.print();

  std::printf("\nreading: masked sharing trims the (already ~200x smaller) "
              "communication energy; because the mask rotates every round, "
              "all coordinates keep mixing and accuracy degrades "
              "gracefully. (Magnitude top-k on raw parameters instead "
              "starves the unsent coordinates and collapses — see "
              "core/compression.hpp.)\n");
  return 0;
}
