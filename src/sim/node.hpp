// Per-node simulation state, and the model shells that train it.
//
// A simulated device is a row, not an object: its parameters are one row
// of the engine's parameter plane, and what remains per node is its local
// data shard and its batch-sampling RNG stream. The layers, gradients and
// activations a training step needs belong to a model shell — one
// nn::Sequential per concurrently running worker — which is attached to
// the row of whichever node it is training (a pointer swap, no copy).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "nn/sequential.hpp"
#include "plane/plane.hpp"
#include "util/rng.hpp"

namespace skiptrain::sim {

struct Node {
  /// Throws std::invalid_argument, naming the node, if `shard` is empty.
  Node(std::size_t node_id, data::DatasetView shard, std::uint64_t seed);

  /// Executes E steps of plain mini-batch SGD on the local shard
  /// (Algorithm 2, lines 8-10) through `shell`, which the caller has
  /// attached to this node's parameter row. Returns the mean training
  /// loss across the steps.
  double train_local(nn::Sequential& shell, std::size_t local_steps,
                     std::size_t batch_size, float learning_rate);

  std::size_t id;
  data::DatasetView data;
  /// Batch-sampling stream; fleet checkpoints capture it bit-exactly.
  util::Rng rng;
};

/// The model shells of one engine: training shells handed out per worker,
/// and per-node views for callers that want an nn::Sequential for node i.
class ModelShells {
 public:
  /// `prototype` supplies the architecture (cloned; need not outlive this).
  ModelShells(const nn::Sequential& prototype, std::size_t nodes);

  /// A training shell for the calling worker: an idle one when available,
  /// else a fresh clone of the prototype. Thread-safe. Shells carry no
  /// state between nodes (every step re-zeroes the gradients and
  /// overwrites the activations), so which one a worker gets never
  /// changes a bit.
  std::unique_ptr<nn::Sequential> acquire();
  void release(std::unique_ptr<nn::Sequential> shell);

  /// Node `node`'s view: built on first request (attached to `row`, which
  /// must hold the node's parameters) and stable for the engine's
  /// lifetime. Training never goes through views. Not thread-safe.
  nn::Sequential& view(std::size_t node, std::span<float> row);

  /// Re-points every view built so far at its node's row of `rows` (after
  /// a buffer flip moved the parameters).
  void reattach_views(plane::RowArena& rows);

 private:
  nn::Sequential prototype_;
  std::size_t nodes_;
  std::mutex mutex_;  // guards idle_
  std::vector<std::unique_ptr<nn::Sequential>> idle_;
  std::vector<std::unique_ptr<nn::Sequential>> views_;  // sized on demand
};

}  // namespace skiptrain::sim
