// Bandwidth-constrained fleet: a deployment whose radio link affords each
// node only a fixed byte budget per round — think LoRa-class sensor meshes
// or fleets on metered cellular plans. The dense float32 exchange does not
// fit, so the exchange path must shrink: this example composes the int8
// wire codec (quant/codec.hpp) with the masked sparse exchange, picking
// the largest coordinate count k whose quantized wire volume fits the
// budget, and compares it against fp32 variants under the same cap.
//
// The point: for a fixed byte budget, cheaper bytes buy MORE coordinates —
// int8 ships ~3.5x the coordinates of fp32 per round, which mixes the
// fleet faster and shows up directly in accuracy.
#include <algorithm>
#include <cstdio>

#include "core/skiptrain.hpp"

int main() {
  using namespace skiptrain;

  constexpr std::size_t kNodes = 32;
  constexpr std::size_t kRounds = 160;
  constexpr std::size_t kDegree = 4;
  // Per-round, per-neighbor wire budget. The compact CIFAR model has 2752
  // parameters = 11 KB dense fp32, so the dense exchange is ~14x over.
  constexpr std::size_t kBudgetBytes = 800;

  data::CifarSynConfig data_config;
  data_config.nodes = kNodes;
  data_config.samples_per_node = 60;
  data_config.seed = 21;
  const data::FederatedData dataset = data::make_cifar_synthetic(data_config);

  nn::Sequential model = nn::make_compact_cifar_model(data_config.feature_dim);
  util::Rng rng(21);
  nn::initialize(model, rng);
  const std::size_t dim = model.num_parameters();

  util::Rng topo_rng(3);
  const graph::Topology mesh =
      graph::make_random_regular(kNodes, kDegree, topo_rng);
  const graph::MixingMatrix mixing =
      graph::MixingMatrix::metropolis_hastings(mesh);
  const core::SkipTrainScheduler scheduler(3, 3);
  const energy::Fleet fleet =
      energy::Fleet::even(kNodes, energy::Workload::kCifar10);
  const auto& spec = energy::workload_spec(energy::Workload::kCifar10);
  const metrics::Evaluator evaluator(&dataset.test, 600);

  std::printf("link budget: %zu bytes/round/neighbor; dense fp32 needs %zu\n\n",
              kBudgetBytes, dim * 4);

  // Exact wire bytes of a k-value masked message under `codec` — encode a
  // k-float probe and ask the payload, so block-header rounding (int8
  // ships an 8-byte header per 64-value block, partial blocks included)
  // is accounted for instead of the amortized 1.125 B/param estimate.
  const auto exact_bytes = [](quant::Codec codec, std::size_t k) {
    const std::vector<float> probe(k, 1.0f);
    quant::QuantizedRow wire;
    quant::make_codec(codec)->encode(probe, wire);
    return wire.wire_bytes();
  };

  // The largest masked-exchange k whose quantized values fit the budget
  // (the shared mask derives from the seed, so indices cost nothing).
  const auto fitted_k = [&](quant::Codec codec) {
    std::size_t k = std::min(
        dim, static_cast<std::size_t>(
                 static_cast<double>(kBudgetBytes) /
                 quant::wire_bytes_per_param(codec)));
    while (k > 0 && exact_bytes(codec, k) > kBudgetBytes) --k;
    return k;
  };

  struct Variant {
    const char* label;
    quant::Codec codec;
    std::size_t sparse_k;
  };
  const Variant variants[] = {
      {"dense fp32 (over budget)", quant::Codec::kIdentity, 0},
      {"fp32 mask", quant::Codec::kIdentity, fitted_k(quant::Codec::kIdentity)},
      {"fp16 mask", quant::Codec::kFp16, fitted_k(quant::Codec::kFp16)},
      {"int8 mask", quant::Codec::kInt8Dithered,
       fitted_k(quant::Codec::kInt8Dithered)},
  };

  util::TablePrinter table({"exchange", "k coords", "bytes/round", "within",
                            "final acc%", "comm energy Wh"});
  for (const Variant& variant : variants) {
    std::vector<std::size_t> degrees(kNodes, kDegree);
    energy::EnergyAccountant accountant(
        fleet, quant::comm_model_for(variant.codec), spec.model_params,
        std::move(degrees));
    sim::EngineConfig config;
    config.local_steps = 5;
    config.batch_size = 16;
    config.seed = 21;
    config.sparse_exchange_k = variant.sparse_k;
    config.exchange_codec = variant.codec;
    sim::RoundEngine engine(model, dataset, mixing, scheduler,
                            std::move(accountant), config);
    engine.run_rounds(kRounds);

    const double acc = evaluator.evaluate_fleet(model, engine.node_parameters()).accuracy.mean;

    const std::size_t k = variant.sparse_k == 0 ? dim : variant.sparse_k;
    const std::size_t wire_bytes = exact_bytes(variant.codec, k);
    table.add_row({variant.label, std::to_string(k),
                   std::to_string(wire_bytes),
                   wire_bytes <= kBudgetBytes ? "yes" : "NO",
                   util::fixed(100.0 * acc, 2),
                   util::fixed(engine.accountant().total_comm_wh(), 4)});
  }
  table.print();

  std::printf(
      "\nreading: at a fixed byte budget the codec decides how many "
      "coordinates mix per round — int8 affords ~3.5x more than fp32, so "
      "the constrained fleet converges closer to the unconstrained dense "
      "run while staying inside the link budget.\n");
  return 0;
}
