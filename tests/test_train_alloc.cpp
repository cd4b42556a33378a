// Steady-state local training is allocation-free: after one warm-up step
// sizes every buffer, Node::train_local samples a batch, runs forward,
// loss, backward and the optimizer without touching the heap. A global
// counting operator new (the pattern of test_obs.cpp) pins this; it lives
// in its own binary because the replacement is process-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "data/synthetic.hpp"
#include "nn/init.hpp"
#include "nn/model_zoo.hpp"
#include "sim/node.hpp"
#include "util/rng.hpp"

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

/// Allocations made by `steps` further train_local(1, batch) calls after
/// one warm-up call.
std::uint64_t steady_state_allocations(const nn::Sequential& prototype,
                                       const data::FederatedData& data,
                                       nn::SgdOptions sgd, std::size_t batch,
                                       int steps) {
  Node node(3, prototype, data.node_view(3), sgd, 17);
  (void)node.train_local(1, batch);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int s = 0; s < steps; ++s) (void)node.train_local(1, batch);
  return g_allocations.load(std::memory_order_relaxed) - before;
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
  EXPECT_EQ(steady_state_allocations(prototype, data,
                                     nn::SgdOptions{0.05f, 0.0f, 0.0f}, 16, 8),
            0u);
}

TEST(TrainAlloc, CompactFemnistStepWithMomentumAllocatesNothing) {
  data::FemnistSynConfig config;
  config.nodes = 8;
  config.mean_samples_per_node = 40;
  config.test_pool = 40;
  const data::FederatedData data = data::make_femnist_synthetic(config);
  nn::Sequential prototype =
      nn::make_compact_femnist_model(config.feature_dim);
  util::Rng rng(6);
  nn::initialize(prototype, rng);
  // Momentum sizes its velocity buffer on the warm-up step only; batch 4
  // is the large_fleet preset's.
  for (const std::size_t batch : {std::size_t{16}, std::size_t{4}}) {
    EXPECT_EQ(steady_state_allocations(prototype, data,
                                       nn::SgdOptions{0.05f, 0.9f, 1e-4f},
                                       batch, 8),
              0u)
        << "batch " << batch;
  }
}

}  // namespace
}  // namespace skiptrain::sim
