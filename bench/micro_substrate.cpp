// Google-benchmark micro benches for the substrate hot paths: GEMM, the
// decentralized aggregation step, a full engine round, topology/mixing
// construction, and evaluation. These quantify what a simulated round
// costs and where the wall-clock goes.
//
// Results are written to BENCH_aggregate.json (override with
// --benchmark_out=...) so CI records the gossip-kernel perf trajectory
// per PR. `--quick` runs the aggregate-phase, large-fleet sharded-gossip,
// exchange-codec, fleet-checkpoint, scenario/harvest, kernel-layer GEMM,
// fleet-evaluation and dataset-build grids at a short min-time — the mode
// the CI Release job uses; the GEMM/Gossip rows feed the bench regression
// gate (tools/check_bench_regression.py).
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/skiptrain.hpp"
#include "graph/sparse.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "plane/plane.hpp"
#include "plane/sharded.hpp"

namespace {

using namespace skiptrain;

void BM_GemmNT(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::size_t k = 64, n = 32;
  std::vector<float> a(m * k), b(n * k), c(m * n);
  util::Rng rng(1);
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  for (auto _ : state) {
    tensor::gemm_nt(m, k, n, a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * k * n));
}
BENCHMARK(BM_GemmNT)->Arg(16)->Arg(64)->Arg(256);

// ---------------------------------------------------------------------------
// Kernel-layer GEMM grid: the dispatched kernels (rows named *Blocked)
// vs the retained seed loops (gemm_*_ref), at the shapes the engines
// actually run (args are {m, k, n}). Runs under --quick; the CI bench
// gate compares each Blocked row against its Ref twin from
// BENCH_aggregate.json.
//
//   nt {16, 3136, 512}: a 3136->512 Linear forward, batch 16
//   nt {16, 64, 32}   : compact CIFAR MLP Linear(64->32) forward, batch 16
//   nt {16, 64, 48}   : compact FEMNIST MLP Linear(64->48) forward
//   nt {16, 48, 62}   : compact FEMNIST MLP Linear(48->62) forward
//   nt {16, 32, 10}   : compact CIFAR MLP Linear(32->10) forward, batch 16
//   nt {64, 32, 10}   : the same head over fleet_10k's 64-sample eval
//   nt {256, 32, 10}  : the same head over a full 256-row eval batch
//   nt {256, 48, 62}  : compact FEMNIST MLP head over a 256-row eval batch
//   nn {16, 62, 48}   : compact FEMNIST MLP Linear(48->62) backward dX
//   tn {32, 16, 64}   : compact CIFAR MLP Linear(64->32) backward dW
//   tn {48, 16, 64}   : compact FEMNIST MLP Linear(64->48) backward dW
//   tn {62, 16, 48}   : compact FEMNIST MLP Linear(48->62) backward dW
//   tn {32, 128, 64}  : compact CIFAR MLP Linear(64->32) backward dW at
//                       batch 128, two 64-deep chunks of the row kernel
//
// nn and tn take the register-row kernels (every engine GEMM has
// n <= 64), nt the packed path with zero-padded edge tiles (the 10- and
// 62-wide heads).
// ---------------------------------------------------------------------------

using GemmFn = void (*)(std::size_t, std::size_t, std::size_t,
                        std::span<const float>, std::span<const float>,
                        std::span<float>, float);

template <GemmFn kGemm>
void BM_GemmShape(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  std::vector<float> a(m * k), b(k * n);  // same extent for every layout
  std::vector<float> c(m * n);
  util::Rng rng(12);
  rng.fill_normal(a, 0.0f, 1.0f);
  rng.fill_normal(b, 0.0f, 1.0f);
  for (auto _ : state) {
    kGemm(m, k, n, a, b, c, 0.0f);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * k * n));
}

void GemmNTShapes(benchmark::internal::Benchmark* bench) {
  bench->Args({16, 3136, 512});
  bench->Args({16, 64, 48})->Args({16, 48, 62});
  bench->Args({256, 32, 10})->Args({256, 48, 62});
}
void GemmTNShapes(benchmark::internal::Benchmark* bench) {
  bench->Args({48, 16, 64})->Args({62, 16, 48})->Args({32, 128, 64});
}
// The gated shapes whose blocked row runs in under 3 µs. Under --quick's
// 0.05 s min-time one noisy slice of such a row once read a 1.34x ratio
// against 2.4-3.5x on reruns, so both twins measure for the library's
// default 0.5 s instead.
void GemmNTShortShapes(benchmark::internal::Benchmark* bench) {
  bench->Args({16, 64, 32})->Args({16, 32, 10})->Args({64, 32, 10});
}
void GemmNNShortShapes(benchmark::internal::Benchmark* bench) {
  bench->Args({16, 62, 48});
}
void GemmTNShortShapes(benchmark::internal::Benchmark* bench) {
  bench->Args({32, 16, 64});
}
constexpr double kShortRowMinTime = 0.5;

/// Registers `name` running kGemm over `shapes` (if any), and over
/// `short_shapes` at kShortRowMinTime.
template <GemmFn kGemm>
int register_gemm(const char* name,
                  void (*shapes)(benchmark::internal::Benchmark*),
                  void (*short_shapes)(benchmark::internal::Benchmark*)) {
  if (shapes != nullptr) {
    benchmark::RegisterBenchmark(name, BM_GemmShape<kGemm>)->Apply(shapes);
  }
  benchmark::RegisterBenchmark(name, BM_GemmShape<kGemm>)
      ->Apply(short_shapes)
      ->MinTime(kShortRowMinTime);
  return 0;
}
[[maybe_unused]] const int kGemmRegistered[] = {
    register_gemm<tensor::gemm_nt>("BM_GemmNTBlocked", GemmNTShapes,
                                   GemmNTShortShapes),
    register_gemm<tensor::gemm_nt_ref>("BM_GemmNTRef", GemmNTShapes,
                                       GemmNTShortShapes),
    register_gemm<tensor::gemm_nn>("BM_GemmNNBlocked", nullptr,
                                   GemmNNShortShapes),
    register_gemm<tensor::gemm_nn_ref>("BM_GemmNNRef", nullptr,
                                       GemmNNShortShapes),
    register_gemm<tensor::gemm_tn>("BM_GemmTNBlocked", GemmTNShapes,
                                   GemmTNShortShapes),
    register_gemm<tensor::gemm_tn_ref>("BM_GemmTNRef", GemmTNShapes,
                                       GemmTNShortShapes),
};

void BM_AggregationStep(benchmark::State& state) {
  // One node's Metropolis-Hastings aggregation over `degree` neighbors
  // with a compact-model-sized parameter vector.
  const auto degree = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 2752;  // compact CIFAR MLP parameter count
  std::vector<std::vector<float>> neighbors(degree + 1,
                                            std::vector<float>(dim));
  util::Rng rng(2);
  for (auto& v : neighbors) rng.fill_normal(v, 0.0f, 1.0f);
  std::vector<float> out(dim);
  const float w = 1.0f / static_cast<float>(degree + 1);
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0f);
    for (const auto& neighbor : neighbors) {
      tensor::axpy(w, neighbor, out);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim * (degree + 1)));
}
BENCHMARK(BM_AggregationStep)->Arg(6)->Arg(8)->Arg(10);

// ---------------------------------------------------------------------------
// Aggregate phase: the seed engine's scattered row loop (including its
// get_parameters/set_parameters copies) vs the blocked plane kernel the
// engine now runs. Grid: fleet size x parameter dimension.
// ---------------------------------------------------------------------------

graph::MixingMatrix aggregate_mixing(std::size_t nodes) {
  util::Rng rng(41);
  const auto topology = graph::make_random_regular(nodes, 6, rng);
  return graph::MixingMatrix::metropolis_hastings(topology);
}

void BM_AggregateSeedRowLoop(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto mixing = aggregate_mixing(nodes);

  // Pre-refactor storage model: layer-owned vectors (modelled as one
  // owned vector per node) plus the two per-round snapshot copies.
  std::vector<std::vector<float>> model(nodes, std::vector<float>(dim));
  std::vector<std::vector<float>> half(nodes, std::vector<float>(dim));
  std::vector<std::vector<float>> current(nodes, std::vector<float>(dim));
  util::Rng rng(42);
  for (auto& row : model) rng.fill_normal(row, 0.0f, 1.0f);

  for (auto _ : state) {
    util::parallel_for(0, nodes, [&](std::size_t i) {
      // get_parameters: model -> half snapshot.
      std::copy(model[i].begin(), model[i].end(), half[i].begin());
    });
    util::parallel_for(0, nodes, [&](std::size_t i) {
      auto& out = current[i];
      const auto& mine = half[i];
      const float self_w = mixing.self_weight(i);
      for (std::size_t k = 0; k < out.size(); ++k) out[k] = self_w * mine[k];
      for (const auto& entry : mixing.neighbor_weights(i)) {
        const auto& theirs = half[entry.neighbor];
        const float w = entry.weight;
        for (std::size_t k = 0; k < out.size(); ++k) out[k] += w * theirs[k];
      }
      // set_parameters: aggregated row -> model.
      std::copy(out.begin(), out.end(), model[i].begin());
    });
    benchmark::DoNotOptimize(model.front().data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(nodes * dim * sizeof(float)));
}
BENCHMARK(BM_AggregateSeedRowLoop)
    ->Args({16, 2752})
    ->Args({64, 2752})
    ->Args({16, 100000})
    ->Args({64, 100000})
    ->Unit(benchmark::kMillisecond);

void BM_AggregatePlaneBlocked(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto mixing = aggregate_mixing(nodes);

  plane::ParameterPlane fleet_plane(nodes, dim);
  util::Rng rng(42);
  for (std::size_t i = 0; i < nodes; ++i) {
    rng.fill_normal(fleet_plane.current().row(i), 0.0f, 1.0f);
  }
  for (auto _ : state) {
    // The engine's whole aggregate phase: blocked kernel + buffer flip
    // (model rows re-attach by pointer swap — nothing to copy).
    plane::apply_mixing(mixing, fleet_plane);
    benchmark::DoNotOptimize(fleet_plane.current().row(0).data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(nodes * dim * sizeof(float)));
}
BENCHMARK(BM_AggregatePlaneBlocked)
    ->Args({16, 2752})
    ->Args({64, 2752})
    ->Args({16, 100000})
    ->Args({64, 100000})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Large-fleet sharded gossip: the row-sharded kernel on an implicit
// k-regular topology over a huge-page ShardedPlane. The headline row is
// n = 100k, dim = 1024 — a fleet whose dense adjacency (10^10 entries)
// could never be materialized; topology memory stays O(n·k) and the
// peak_rss_mb counter (getrusage max RSS) documents that the process
// footprint is the two plane buffers + O(n·k) mixing, nothing quadratic.
// Runs under --quick; the regression gate checks the rows exist and warns
// when peak RSS drifts.
// ---------------------------------------------------------------------------

void BM_GossipSharded(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const std::size_t k = 6;
  const graph::ImplicitKRegular topology(nodes, k, /*seed=*/91);
  const auto mixing = graph::SparseMixing::metropolis_hastings(topology);
  plane::ShardedPlane fleet_plane(nodes, dim);
  // Deterministic fill, touched in parallel: rng-normal would dominate
  // setup at 10^8 floats, and the values only need to be nonuniform.
  util::parallel_for(0, nodes, [&](std::size_t i) {
    auto row = fleet_plane.current_row(i);
    for (std::size_t j = 0; j < dim; ++j) {
      row[j] = 1e-3f * static_cast<float>((i * 131 + j * 7) % 997);
    }
  });
  for (auto _ : state) {
    plane::apply_mixing_sharded(mixing, fleet_plane);
    benchmark::DoNotOptimize(fleet_plane.current_row(0).data());
  }
  // Gossip streams (k + 1) row reads plus 1 row write per node.
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(nodes * dim * sizeof(float) * (k + 2)));
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  state.counters["peak_rss_mb"] = benchmark::Counter(
      static_cast<double>(usage.ru_maxrss) / 1024.0,
      benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_GossipSharded)
    ->Args({1000, 1024})
    ->Args({10000, 1024})
    ->Args({100000, 1024})
    ->UseRealTime()  // the kernel runs on pool workers, not this thread
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Exchange-codec kernels: encode/decode throughput per codec at compact
// and large row sizes. Runs under --quick, so the codec grid lands in
// BENCH_aggregate.json and codec kernel regressions show in the CI
// artifact alongside the gossip-kernel trajectory.
// ---------------------------------------------------------------------------

void codec_bench_row(std::size_t dim, std::vector<float>& row) {
  row.resize(dim);
  util::Rng rng(10);
  rng.fill_normal(row, 0.0f, 1.0f);
}

void BM_CodecEncode(benchmark::State& state) {
  const auto kind = static_cast<quant::Codec>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto codec = quant::make_codec(kind, 42);
  codec->begin_round(1);
  std::vector<float> row;
  codec_bench_row(dim, row);
  quant::QuantizedRow wire;
  for (auto _ : state) {
    codec->encode(row, wire);
    benchmark::DoNotOptimize(wire.dim);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim * sizeof(float)));
  state.SetLabel(quant::codec_token(kind));
}

void BM_CodecDecode(benchmark::State& state) {
  const auto kind = static_cast<quant::Codec>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto codec = quant::make_codec(kind, 42);
  codec->begin_round(1);
  std::vector<float> row;
  codec_bench_row(dim, row);
  quant::QuantizedRow wire;
  codec->encode(row, wire);
  std::vector<float> decoded(dim);
  for (auto _ : state) {
    codec->decode(wire, decoded);
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim * sizeof(float)));
  state.SetLabel(quant::codec_token(kind));
}

void RegisterCodecGrid(benchmark::internal::Benchmark* bench) {
  for (const quant::Codec codec : quant::all_codecs()) {
    // 2410: one compact-MLP row, what the engines encode per sender.
    for (const std::int64_t dim : {2410L, 2752L, 100000L}) {
      bench->Args({static_cast<std::int64_t>(codec), dim});
    }
  }
}
BENCHMARK(BM_CodecEncode)->Apply(RegisterCodecGrid);
BENCHMARK(BM_CodecDecode)->Apply(RegisterCodecGrid);

// ---------------------------------------------------------------------------
// Fleet-image checkpoint write/restore throughput (ckpt/fleet_image): the
// plane blob dominates, so bytes/s ~ serialization of n x dim float32.
// Runs under --quick so the CI artifact tracks checkpoint-path
// regressions alongside the gossip and codec kernels.
// ---------------------------------------------------------------------------

struct CheckpointBench {
  data::FederatedData dataset;
  nn::Sequential model;
  graph::Topology topology;
  graph::MixingMatrix mixing;
  core::DpsgdScheduler scheduler;
  energy::Fleet fleet;
  std::unique_ptr<sim::RoundEngine> engine;
  std::string path;

  explicit CheckpointBench(std::size_t nodes)
      : fleet(energy::Fleet::even(nodes, energy::Workload::kCifar10)) {
    data::CifarSynConfig config;
    config.nodes = nodes;
    config.samples_per_node = 8;
    config.test_pool = 10;
    dataset = data::make_cifar_synthetic(config);
    model = nn::make_compact_cifar_model(config.feature_dim);
    util::Rng rng(11);
    nn::initialize(model, rng);
    util::Rng topo_rng(12);
    topology = graph::make_random_regular(nodes, 6, topo_rng);
    mixing = graph::MixingMatrix::metropolis_hastings(topology);
    std::vector<std::size_t> degrees(nodes, 6);
    energy::EnergyAccountant accountant(fleet, energy::CommModel{}, 89834,
                                        std::move(degrees));
    sim::EngineConfig engine_config;
    engine_config.local_steps = 1;
    engine_config.batch_size = 4;
    engine = std::make_unique<sim::RoundEngine>(model, dataset, mixing,
                                                scheduler,
                                                std::move(accountant),
                                                engine_config);
    engine->run_round();
    path = (std::filesystem::temp_directory_path() /
            ("bench_ckpt_" + std::to_string(nodes) + ".sktf"))
               .string();
  }

  std::int64_t plane_bytes() const {
    return static_cast<std::int64_t>(engine->num_nodes() *
                                     engine->parameter_plane().dim() *
                                     sizeof(float));
  }
};

void BM_CheckpointWrite(benchmark::State& state) {
  CheckpointBench bench(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ckpt::save_fleet_image(*bench.engine, bench.path);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          bench.plane_bytes());
}
BENCHMARK(BM_CheckpointWrite)->Arg(16)->Arg(64)->Arg(256);

void BM_CheckpointRestore(benchmark::State& state) {
  CheckpointBench bench(static_cast<std::size_t>(state.range(0)));
  ckpt::save_fleet_image(*bench.engine, bench.path);
  for (auto _ : state) {
    ckpt::restore_fleet_image(*bench.engine, bench.path);
    benchmark::DoNotOptimize(bench.engine->rounds_executed());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          bench.plane_bytes());
}
BENCHMARK(BM_CheckpointRestore)->Arg(16)->Arg(64)->Arg(256);

// ---------------------------------------------------------------------------
// Scenario-engine kernels (scenario/scenario.hpp): the per-round cost the
// harvest/churn layer adds to every simulated round. BM_HarvestSample is
// the pure counter-based solar draw (two stateless_uniform evaluations +
// a sine); BM_ScenarioRoundStep is the full synchronous begin_round
// (harvest + hysteresis for n nodes); BM_ScenarioTraceStep replays a CSV
// trace series instead of the synthetic sky. All run under --quick so CI
// catches a scenario layer that starts dominating round time.
// ---------------------------------------------------------------------------

scenario::FleetScenario make_scenario_bench(std::size_t nodes,
                                            scenario::HarvestKind kind) {
  scenario::ScenarioConfig config = scenario::make_config("solar");
  if (kind == scenario::HarvestKind::kTrace) {
    // A 48-sample, 4-series in-memory trace: long enough to defeat any
    // single-sample caching, small enough to stay cache-resident (the
    // realistic case — traces are tiny next to the plane).
    std::string csv = "time,node,harvest_mwh,available\n";
    for (int t = 0; t < 48; ++t) {
      for (int node = 0; node < 4; ++node) {
        csv += std::to_string(t) + "," + std::to_string(node) + "," +
               std::to_string(0.25 * ((t + node) % 7)) + "," +
               ((t + node) % 11 == 0 ? "0" : "1") + "\n";
      }
    }
    std::istringstream in(csv);
    config.harvest = scenario::HarvestKind::kTrace;
    config.trace = std::make_shared<const scenario::HarvestTrace>(
        scenario::HarvestTrace::parse_csv(in, "bench"));
  }
  return scenario::FleetScenario(config, nodes, /*seed=*/42,
                                 std::vector<double>(nodes, 25.0));
}

void BM_HarvestSample(benchmark::State& state) {
  const auto fleet =
      make_scenario_bench(64, scenario::HarvestKind::kSolar);
  std::size_t t = 0;
  for (auto _ : state) {
    ++t;
    benchmark::DoNotOptimize(fleet.harvest_sample_mwh(t % 64, t));
  }
}
BENCHMARK(BM_HarvestSample);

void BM_ScenarioRoundStep(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  auto fleet = make_scenario_bench(nodes, scenario::HarvestKind::kSolar);
  std::size_t t = 0;
  for (auto _ : state) {
    fleet.begin_round(++t);
    benchmark::DoNotOptimize(fleet.down_steps_total());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_ScenarioRoundStep)->Arg(64)->Arg(256);

void BM_ScenarioTraceStep(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  auto fleet = make_scenario_bench(nodes, scenario::HarvestKind::kTrace);
  std::size_t t = 0;
  for (auto _ : state) {
    fleet.begin_round(++t);
    benchmark::DoNotOptimize(fleet.down_steps_total());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_ScenarioTraceStep)->Arg(64)->Arg(256);

// ---------------------------------------------------------------------------
// Fault-layer kernels (fault/frame.hpp, fault/fault.hpp): what the wire
// framing and a fully faulted gossip round cost. BM_Crc32c is the raw
// checksum at one int8 frame (2,752 B), one fp32 frame (9,700 B) and one
// checkpoint image (1.25 MB), dispatched (SSE4.2 where present) next to
// the portable table loop; BM_CrcFrame measures encode_frame +
// verify_frame (the payload copy and two CRC passes); BM_FaultedGossipRound
// runs whole engine rounds under an
// active drop/corrupt/dup plan, so the framing, per-link stateless draws,
// and masked difference-form aggregation are all on the clock. Both run
// under --quick; the CI gate requires the rows so a fault-path regression
// cannot hide by vanishing.
// ---------------------------------------------------------------------------

template <std::uint32_t (*Update)(std::uint32_t, const void*, std::size_t)>
void BM_Crc32cBytes(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  std::vector<unsigned char> buffer(bytes);
  util::Rng rng(11);
  for (auto& byte : buffer) byte = static_cast<unsigned char>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Update(fault::kCrc32cInit, buffer.data(), buffer.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Crc32cBytes<fault::crc32c_update>)
    ->Name("BM_Crc32c")
    ->Arg(2752)
    ->Arg(9700)
    ->Arg(1250000);
BENCHMARK(BM_Crc32cBytes<fault::crc32c_update_table>)
    ->Name("BM_Crc32cTable")
    ->Arg(2752)
    ->Arg(9700)
    ->Arg(1250000);

void BM_CrcFrame(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto codec = quant::make_codec(quant::Codec::kIdentity, 42);
  codec->begin_round(1);
  std::vector<float> row;
  codec_bench_row(dim, row);
  quant::QuantizedRow wire;
  codec->encode(row, wire);
  std::vector<std::uint8_t> frame;
  for (auto _ : state) {
    fault::encode_frame(wire, frame);
    benchmark::DoNotOptimize(fault::verify_frame(frame));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_CrcFrame)->Arg(2752)->Arg(100000);

void BM_FaultedGossipRound(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const bool faulted = state.range(1) != 0;
  data::CifarSynConfig config;
  config.nodes = nodes;
  config.samples_per_node = 8;
  config.test_pool = 10;
  auto dataset = data::make_cifar_synthetic(config);
  auto model = nn::make_compact_cifar_model(config.feature_dim);
  util::Rng rng(14);
  nn::initialize(model, rng);

  util::Rng topo_rng(15);
  const auto topology = graph::make_random_regular(nodes, 6, topo_rng);
  const auto mixing = graph::MixingMatrix::metropolis_hastings(topology);
  const core::DpsgdScheduler scheduler;
  const auto fleet = energy::Fleet::even(nodes, energy::Workload::kCifar10);
  std::vector<std::size_t> degrees(nodes, 6);
  energy::EnergyAccountant accountant(fleet, energy::CommModel{}, 89834,
                                      std::move(degrees));
  sim::EngineConfig engine_config;
  // One tiny local step: the gossip/fault path is what's on the clock.
  engine_config.local_steps = 1;
  engine_config.batch_size = 4;
  if (faulted) {
    engine_config.faults =
        fault::make_plan("drop:0.05,corrupt:0.01,dup:0.02");
  }
  sim::RoundEngine engine(model, dataset, mixing, scheduler,
                          std::move(accountant), engine_config);
  for (auto _ : state) {
    engine.run_round();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
  state.SetLabel(faulted ? "faulted" : "lossless");
}
BENCHMARK(BM_FaultedGossipRound)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Unit(benchmark::kMillisecond);

void BM_LocalSgdStep(benchmark::State& state) {
  data::CifarSynConfig config;
  config.nodes = 1;
  config.samples_per_node = 128;
  config.test_pool = 10;
  auto dataset = data::make_cifar_synthetic(config);
  auto model = nn::make_compact_cifar_model(config.feature_dim);
  util::Rng rng(3);
  nn::initialize(model, rng);
  // One node trained through a model shell attached to its plane row, as
  // the engines run it.
  plane::RowArena row(1, model.num_parameters());
  model.bind_parameter_arena(row.row(0));
  sim::Node node(0, dataset.node_view(0), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.train_local(model, 1, 16, 0.1f));
  }
}
BENCHMARK(BM_LocalSgdStep);

void BM_FullRound(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  data::CifarSynConfig config;
  config.nodes = nodes;
  config.samples_per_node = 40;
  config.test_pool = 10;
  auto dataset = data::make_cifar_synthetic(config);
  auto model = nn::make_compact_cifar_model(config.feature_dim);
  util::Rng rng(4);
  nn::initialize(model, rng);

  util::Rng topo_rng(5);
  const auto topology = graph::make_random_regular(nodes, 6, topo_rng);
  const auto mixing = graph::MixingMatrix::metropolis_hastings(topology);
  const core::DpsgdScheduler scheduler;
  const auto fleet = energy::Fleet::even(nodes, energy::Workload::kCifar10);
  std::vector<std::size_t> degrees(nodes, 6);
  energy::EnergyAccountant accountant(fleet, energy::CommModel{}, 89834,
                                      std::move(degrees));
  sim::EngineConfig engine_config;
  engine_config.local_steps = 5;
  engine_config.batch_size = 16;
  sim::RoundEngine engine(model, dataset, mixing, scheduler,
                          std::move(accountant), engine_config);
  for (auto _ : state) {
    engine.run_round();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_FullRound)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_TopologyAndMixing(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  util::Rng rng(6);
  for (auto _ : state) {
    const auto topology = graph::make_random_regular(nodes, 6, rng);
    const auto mixing = graph::MixingMatrix::metropolis_hastings(topology);
    benchmark::DoNotOptimize(mixing.num_nodes());
  }
}
BENCHMARK(BM_TopologyAndMixing)->Arg(64)->Arg(256);

void BM_SpectralGap(benchmark::State& state) {
  util::Rng rng(7);
  const auto topology = graph::make_random_regular(
      static_cast<std::size_t>(state.range(0)), 6, rng);
  const auto mixing = graph::MixingMatrix::metropolis_hastings(topology);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mixing.spectral_gap(100));
  }
}
BENCHMARK(BM_SpectralGap)->Arg(64)->Arg(256);

// Row-based fleet evaluation, the form the engines run: `rows` node
// rows of the compact CIFAR MLP against `samples` test samples (args are
// {rows, samples}). 128 x 600 is lossy_exchange's shape (batches of 256,
// 256 and 88), 1024 x 64 fleet_10k's (one 64-row batch). Serial, so the
// row measures per-node cost (items = node evaluations), not the pool.
void BM_EvaluateFleet(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto samples = static_cast<std::size_t>(state.range(1));
  data::CifarSynConfig config;
  config.nodes = 2;
  config.samples_per_node = 4;
  config.test_pool = 2 * samples;  // half of the pool is the test split
  const auto dataset = data::make_cifar_synthetic(config);
  auto prototype = nn::make_compact_cifar_model(config.feature_dim);
  util::Rng rng(8);
  nn::initialize(prototype, rng);
  plane::RowArena rows(nodes, prototype.num_parameters());
  for (std::size_t i = 0; i < nodes; ++i) {
    const std::span<float> row = rows.row(i);
    tensor::copy(prototype.parameter_arena(), row);
    for (float& v : row) v += 0.05f * static_cast<float>(rng.normal());
  }
  const metrics::Evaluator evaluator(&dataset.test, samples);
  const util::ThreadPool::ScopedForceSerial serial;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        evaluator.evaluate_fleet(prototype, rows.view()).accuracy.mean);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_EvaluateFleet)
    ->Args({128, 600})
    ->Args({1024, 64})
    ->Unit(benchmark::kMillisecond);

// Synthetic dataset build at large_fleet's data shape (args are
// {nodes}: 8 samples a node, 64 features, a 400-sample test pool) on the
// global pool, the way a sweep's set-up runs it. Runs under --quick.
enum class SynDataset { kCifar, kFemnist };

void BM_DatasetBuild(benchmark::State& state, SynDataset dataset) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    if (dataset == SynDataset::kCifar) {
      data::CifarSynConfig config;
      config.nodes = nodes;
      config.samples_per_node = 8;
      config.test_pool = 400;
      benchmark::DoNotOptimize(data::make_cifar_synthetic(config));
    } else {
      data::FemnistSynConfig config;
      config.nodes = nodes;
      config.mean_samples_per_node = 8;
      config.test_pool = 400;
      benchmark::DoNotOptimize(data::make_femnist_synthetic(config));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
}
BENCHMARK_CAPTURE(BM_DatasetBuild, cifar, SynDataset::kCifar)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_DatasetBuild, femnist, SynDataset::kFemnist)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ShardPartition(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  std::vector<std::int32_t> labels(nodes * 200);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int32_t>(i % 10);
  }
  util::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::shard_partition(labels, nodes, 2, rng));
  }
}
BENCHMARK(BM_ShardPartition)->Arg(64)->Arg(256);

// --- telemetry overhead ----------------------------------------------------
// Cost of one Counter::add (Arg(1) = enabled, Arg(0) = disabled) and one
// OBS_SPAN with tracing inactive. These pin the "near-zero cost" claim:
// disabled is a relaxed flag load + branch, enabled adds one relaxed
// fetch_add on a thread-local shard. Run under --quick; the CI gate
// requires the rows so a hot-path regression cannot hide by vanishing.
void BM_ObsCounterOverhead(benchmark::State& state) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(state.range(0) != 0);
  static const obs::Counter counter = obs::counter("bench.obs.counter");
  for (auto _ : state) {
    counter.add(1);
  }
  obs::set_enabled(was_enabled);
}
BENCHMARK(BM_ObsCounterOverhead)->Arg(0)->Arg(1);

void BM_ObsSpanOverhead(benchmark::State& state) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(state.range(0) != 0);
  for (auto _ : state) {
    OBS_SPAN("bench.obs.span");
    benchmark::ClobberMemory();
  }
  obs::set_enabled(was_enabled);
}
BENCHMARK(BM_ObsSpanOverhead)->Arg(0)->Arg(1);

}  // namespace

// Custom main: `--quick` restricts the run to the aggregate-phase and
// codec grids at a short min-time (the per-PR CI mode), and results
// default to BENCH_aggregate.json so the perf trajectory is recorded even
// when no --benchmark_out is given.
int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  bool quick = false;
  for (auto it = args.begin(); it != args.end();) {
    if (*it == "--quick") {
      quick = true;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  if (quick) {
    args.insert(args.begin() + 1,
                "--benchmark_filter=BM_Aggregate|BM_Gossip|BM_Codec|BM_Checkpoint|BM_Harvest|BM_Scenario|BM_Gemm(NN|NT|TN)(Blocked|Ref)|BM_Obs|BM_Crc|BM_FaultedGossip|BM_EvaluateFleet|BM_DatasetBuild");
    args.insert(args.begin() + 1, "--benchmark_min_time=0.05");
  }
  const bool has_out =
      std::any_of(args.begin(), args.end(), [](const std::string& arg) {
        return arg.rfind("--benchmark_out=", 0) == 0;
      });
  if (!has_out) {
    args.push_back("--benchmark_out=BENCH_aggregate.json");
    args.push_back("--benchmark_out_format=json");
  }

  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (auto& arg : args) argv2.push_back(arg.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
