// Allocation contracts of local training and engine construction.
//
// Steady-state local training is allocation-free: after one warm-up step
// sizes every buffer, Node::train_local samples a batch, runs forward,
// loss, backward and the optimizer through a model shell without touching
// the heap, even as the shell moves from node row to node row. And an
// engine holds no per-node model: building one allocates at most once per
// node. A global counting operator new (the pattern of test_obs.cpp) pins
// both; it lives in its own binary because the replacement is
// process-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/scheduler.hpp"
#include "data/synthetic.hpp"
#include "energy/accountant.hpp"
#include "graph/sparse.hpp"
#include "metrics/evaluator.hpp"
#include "nn/init.hpp"
#include "nn/model_zoo.hpp"
#include "plane/plane.hpp"
#include "sim/engine.hpp"
#include "sim/node.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// every form that can reach the replaced deletes must come from malloc.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

// noinline: once inlined into a new-expression's cleanup, GCC's
// -Wmismatched-new-delete flags the free() of operator-new memory.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace skiptrain::sim {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Allocations made by `passes` further rounds of train_local(1, batch)
/// over four nodes after one warm-up round. One shell serves all four,
/// attached to each node's row in turn, as an engine worker runs it.
std::uint64_t steady_state_allocations(const nn::Sequential& prototype,
                                       const data::FederatedData& data,
                                       std::size_t batch, int passes) {
  constexpr std::size_t kNodes = 4;
  plane::RowArena rows(kNodes, prototype.num_parameters());
  std::vector<Node> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes.emplace_back(i, data.node_view(i), 17);
    tensor::copy(prototype.parameter_arena(), rows.row(i));
  }
  nn::Sequential shell = prototype.clone();
  const auto train_all = [&] {
    for (Node& node : nodes) {
      shell.attach_parameter_arena(rows.row(node.id));
      (void)node.train_local(shell, 1, batch, 0.05f);
    }
  };
  train_all();
  const std::uint64_t before = allocations();
  for (int p = 0; p < passes; ++p) train_all();
  return allocations() - before;
}

TEST(TrainAlloc, CompactCifarStepAllocatesNothing) {
  data::CifarSynConfig config;
  config.nodes = 8;
  config.samples_per_node = 40;
  config.test_pool = 40;
  const data::FederatedData data = data::make_cifar_synthetic(config);
  nn::Sequential prototype = nn::make_compact_cifar_model(config.feature_dim);
  util::Rng rng(5);
  nn::initialize(prototype, rng);
  EXPECT_EQ(steady_state_allocations(prototype, data, 16, 8), 0u);
}

TEST(TrainAlloc, CompactFemnistStepAllocatesNothing) {
  data::FemnistSynConfig config;
  config.nodes = 8;
  config.mean_samples_per_node = 40;
  config.test_pool = 40;
  const data::FederatedData data = data::make_femnist_synthetic(config);
  nn::Sequential prototype =
      nn::make_compact_femnist_model(config.feature_dim);
  util::Rng rng(6);
  nn::initialize(prototype, rng);
  // Batch 4 is the large_fleet preset's.
  for (const std::size_t batch : {std::size_t{16}, std::size_t{4}}) {
    EXPECT_EQ(steady_state_allocations(prototype, data, batch, 8), 0u)
        << "batch " << batch;
  }
}

/// Allocations made by the RoundEngine constructor alone for an n-node
/// fleet on the implicit k-regular topology (data, mixing, scheduler and
/// accountant are built beforehand).
std::uint64_t engine_build_allocations(std::size_t nodes) {
  data::CifarSynConfig config;
  config.nodes = nodes;
  config.samples_per_node = 4;
  config.test_pool = 20;
  const data::FederatedData data = data::make_cifar_synthetic(config);
  nn::Sequential prototype = nn::make_compact_cifar_model(config.feature_dim);
  util::Rng rng(7);
  nn::initialize(prototype, rng);
  const graph::SparseMixing mixing = graph::SparseMixing::metropolis_hastings(
      graph::ImplicitKRegular(nodes, 6, 11));
  const core::DpsgdScheduler scheduler;
  std::vector<std::size_t> degrees(nodes);
  for (std::size_t i = 0; i < nodes; ++i) degrees[i] = mixing.degree(i);
  energy::EnergyAccountant accountant(
      energy::Fleet::even(nodes, energy::Workload::kCifar10),
      energy::CommModel{}, 89834, std::move(degrees));

  const std::uint64_t before = allocations();
  const RoundEngine engine(prototype, data, mixing, scheduler,
                           std::move(accountant), EngineConfig{});
  const std::uint64_t made = allocations() - before;
  EXPECT_EQ(engine.num_nodes(), nodes);
  return made;
}

TEST(TrainAlloc, EngineBuildAllocatesAtMostOncePerNode) {
  // The per-node share is the node's copy of its shard's index list; a
  // per-node model (layers, gradient buffers, arena) would cost a dozen.
  const std::uint64_t small = engine_build_allocations(64);
  const std::uint64_t large = engine_build_allocations(512);
  ASSERT_GE(large, small);
  EXPECT_LE(large - small, 512u - 64u)
      << "64 nodes: " << small << " allocations, 512 nodes: " << large;
}

/// Allocations made by one row-based evaluate_fleet call over the first
/// `nodes` rows of `rows`, after a warm-up call has sized the per-thread
/// GEMM scratch.
std::uint64_t fleet_eval_allocations(const metrics::Evaluator& evaluator,
                                     const nn::Sequential& prototype,
                                     const plane::RowArena& rows,
                                     std::size_t nodes) {
  const plane::ConstMatrixView all = rows.view();
  const plane::ConstMatrixView view{all.data, nodes, all.dim};
  (void)evaluator.evaluate_fleet(prototype, view);
  const std::uint64_t before = allocations();
  const auto result = evaluator.evaluate_fleet(prototype, view);
  const std::uint64_t made = allocations() - before;
  EXPECT_EQ(result.per_node.size(), nodes);
  return made;
}

TEST(TrainAlloc, FleetEvaluationAllocatesPerCallNotPerNode) {
  // 600 samples at the default batch of 256: the shell switches between
  // the 256-row and the 88-row batch shape, which must not cost an
  // allocation per node. Serial, so the pool's task-queue blocks (one
  // every few calls, whatever the row count) stay out of the count.
  const util::ThreadPool::ScopedForceSerial serial;
  data::CifarSynConfig config;
  config.nodes = 2;
  config.samples_per_node = 4;
  config.test_pool = 1200;
  const data::FederatedData data = data::make_cifar_synthetic(config);
  nn::Sequential prototype = nn::make_compact_cifar_model(config.feature_dim);
  util::Rng rng(8);
  nn::initialize(prototype, rng);
  plane::RowArena rows(512, prototype.num_parameters());
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    tensor::copy(prototype.parameter_arena(), rows.row(i));
  }
  const metrics::Evaluator evaluator(&data.test, 600);
  ASSERT_EQ(evaluator.samples_used(), 600u);
  EXPECT_EQ(fleet_eval_allocations(evaluator, prototype, rows, 64),
            fleet_eval_allocations(evaluator, prototype, rows, 512));
}

}  // namespace
}  // namespace skiptrain::sim
