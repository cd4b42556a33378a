// Optimizers operating on a Sequential's per-layer parameter/gradient spans.
// The paper trains with plain SGD (Table 1); momentum and weight decay are
// provided for completeness and the extension benches.
#pragma once

#include <vector>

#include "nn/sequential.hpp"

namespace skiptrain::nn {

struct SgdOptions {
  float learning_rate = 0.1f;  // η in Table 1
  float momentum = 0.0f;
  float weight_decay = 0.0f;
};

class SgdOptimizer {
 public:
  explicit SgdOptimizer(SgdOptions options = {});

  const SgdOptions& options() const { return options_; }
  void set_learning_rate(float lr) { options_.learning_rate = lr; }

  /// Applies one update: p -= lr * (grad + wd * p) [+ momentum buffer].
  /// The momentum buffer is lazily sized to the model on first use.
  void step(Sequential& model);

  /// Clears momentum state (e.g. after a parameter overwrite from
  /// aggregation, where stale momentum would mix models incorrectly).
  void reset_state();

 private:
  SgdOptions options_;
  std::vector<float> velocity_;
};

}  // namespace skiptrain::nn
