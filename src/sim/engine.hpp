// The synchronous decentralized-learning round engine.
//
// Executes the skeleton shared by D-PSGD, SkipTrain, SkipTrain-constrained
// and Greedy (Algorithm 2 of the paper): per round t,
//
//   1. decide   — ask the RoundScheduler which nodes train (serial, cheap,
//                 and where all energy accounting happens so the
//                 accountant needs no locking);
//   2. train    — selected nodes run E local SGD steps in parallel,
//                 producing x_i^{t-1/2}; non-training nodes keep x_i^{t-1};
//   3. exchange — every node shares x^{t-1/2} with its neighbors
//                 (modelled as reading the peer's plane row);
//   4. aggregate— x_i^t = Σ_j W_ji x_j^{t-1/2}, double-buffered so reads
//                 and writes never alias.
//
// Storage: all n models live as rows of one contiguous ParameterPlane.
// Nodes are rows, not objects: a training worker attaches its model shell
// (sim/node.hpp) to the row of the node it trains, so training writes
// x^{t-1/2} in place and the aggregate phase is a single blocked
// plane-to-plane kernel (plane::apply_mixing) — no get_parameters /
// set_parameters copies anywhere in the per-round path. The sparse
// (masked) exchange instead stages the k masked coordinates of every row
// into a compact pool and updates rows in place, reading only staged
// pre-update values.
//
// Determinism: per-node RNG streams + counter-based scheduler draws +
// column-block-owned aggregation make the result independent of
// worker-thread interleaving.
#pragma once

#include <memory>
#include <span>

#include "core/compression.hpp"
#include "core/scheduler.hpp"
#include "data/dataset.hpp"
#include "energy/accountant.hpp"
#include "fault/fault.hpp"
#include "graph/mixing.hpp"
#include "graph/sparse.hpp"
#include "nn/sequential.hpp"
#include "obs/phase.hpp"
#include "plane/plane.hpp"
#include "quant/codec.hpp"
#include "scenario/scenario.hpp"
#include "sim/node.hpp"

namespace skiptrain::ckpt {
class ImageReader;
class ImageWriter;
}  // namespace skiptrain::ckpt

namespace skiptrain::sim {

namespace detail {
struct EngineIdentity;
}  // namespace detail

struct EngineConfig {
  std::size_t local_steps = 5;   // E
  std::size_t batch_size = 32;   // |ξ|
  float learning_rate = 0.1f;    // η
  std::uint64_t seed = 42;

  /// When non-zero, each round exchanges only k coordinates selected by a
  /// round-shared random mask (core::shared_round_mask); receivers keep
  /// their own values elsewhere. 0 = dense exchange (the paper's setting).
  /// Communication energy is billed at the compressed wire volume (k/dim —
  /// the mask is derived from the shared seed, so no indices travel).
  std::size_t sparse_exchange_k = 0;

  /// Wire format of exchanged rows (quant/codec.hpp). kIdentity keeps the
  /// float32 fast path bit-for-bit (no staging copy); other codecs
  /// encode each outgoing row and decode at the staging boundary, so
  /// receivers aggregate exactly what crossed the wire. Composes with
  /// sparse_exchange_k: the k masked values are what gets quantized.
  /// NOTE: the caller is responsible for billing at the matching wire
  /// volume by building the accountant's CommModel via
  /// quant::comm_model_for(exchange_codec).
  quant::Codec exchange_codec = quant::Codec::kIdentity;

  /// Identity of a non-dense topology (ImplicitKRegular::config_hash or a
  /// CsrGraph content hash). Folded into the checkpoint-image identity so
  /// a resume under a different gossip graph is refused; 0 (the dense
  /// default) keeps pre-topology-axis images byte-compatible.
  std::uint64_t topology_hash = 0;

  /// Energy-harvesting/churn scenario (scenario/scenario.hpp). Disabled
  /// (the default) keeps every pre-scenario code path — and its bytes —
  /// untouched. Enabled, each node pays its battery for training and
  /// exchange; a down node's model freezes in place and it is masked out
  /// of the aggregation until recharge. Rounds where every node is up
  /// still run the blocked fast-path kernels bit-identically.
  scenario::ScenarioConfig scenario{};

  /// Deterministic fault plan (fault/fault.hpp). Disabled (the default)
  /// keeps every pre-fault code path — and its bytes — untouched. With
  /// link faults, every exchanged row ships as a CRC32C-framed wire
  /// payload; drops and CRC-rejected corruptions degrade through the
  /// masked-aggregation difference form (lost neighbor mass reverts to
  /// self). With crash faults, seed-derived crash-restart outages mark
  /// nodes down exactly like scenario churn.
  fault::FaultPlan faults{};
};

class RoundEngine {
 public:
  /// All reference parameters except `prototype` must outlive the
  /// engine. `prototype` supplies the architecture and the shared initial
  /// model x⁰, which is copied into every plane row. `mixing` converts
  /// implicitly from a MixingMatrix (dense) or a SparseMixing
  /// (kregular/csr topologies — aggregation then runs the row-sharded
  /// kernel); the referenced mixing must outlive the engine either way.
  RoundEngine(const nn::Sequential& prototype, const data::FederatedData& data,
              graph::MixingRef mixing, const core::RoundScheduler& scheduler,
              energy::EnergyAccountant accountant, EngineConfig config);

  struct RoundOutcome {
    core::RoundKind kind = core::RoundKind::kTraining;
    std::size_t nodes_trained = 0;
    double mean_local_loss = 0.0;  // over nodes that trained
  };

  /// Executes one full round; `rounds_executed()` becomes t afterwards.
  RoundOutcome run_round();

  /// Convenience: runs `count` consecutive rounds.
  void run_rounds(std::size_t count);

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t rounds_executed() const { return round_; }

  /// Node `node`'s model as an nn::Sequential viewing its plane row, built
  /// on first request. The reference stays valid for the engine's
  /// lifetime and keeps following the row across rounds, so reads and
  /// set_parameters through it act on the live parameters. Not
  /// thread-safe; training never goes through it.
  nn::Sequential& model(std::size_t node) {
    return shells_.view(node, plane_.current().row(node));
  }

  /// Zero-copy view of every node's current parameters x_i^t: row i of the
  /// plane IS node i's model storage. Row spans are invalidated by the
  /// buffer flip inside the next dense run_round().
  plane::ConstMatrixView node_parameters() const {
    return plane_.current().view();
  }

  const plane::ParameterPlane& parameter_plane() const { return plane_; }

  const energy::EnergyAccountant& accountant() const { return accountant_; }
  const core::RoundScheduler& scheduler() const { return scheduler_; }

  /// Battery/churn state when a scenario is enabled; nullptr otherwise.
  const scenario::FleetScenario* scenario() const { return scenario_.get(); }

  /// Lifetime fault telemetry (all zero without a fault plan). Unlike
  /// phase_stats_, these ARE simulation state: delivery counts feed the
  /// summary CSV, so they are checkpointed and restored to keep resumed
  /// runs byte-identical.
  const fault::FaultStats& fault_stats() const { return fault_stats_; }

  /// Per-phase wall time accumulated by run_round (observational only —
  /// never serialized, never fed back into simulation decisions). Phases
  /// run on the trial's driving thread, so accumulation is single-writer.
  const obs::PhaseStats& phase_stats() const { return phase_stats_; }

  /// Exact codec wire bytes every up node shipped so far (dim- and
  /// k-aware, partial int8 blocks included). Deterministic: tallied in
  /// the serial phase-1 loop alongside the energy accounting.
  std::uint64_t wire_bytes_sent() const { return wire_bytes_; }

  /// Serializes the engine's complete mutable simulation state — round
  /// counter, the [n × dim] plane blob (row-arena-contiguous, one write),
  /// accountant tallies/budgets, and per-node RNG state — plus
  /// the construction fingerprint (seed, codec, sparse k, scheduler name)
  /// used to validate restore_state. Part of the fleet-image format
  /// (ckpt/fleet_image; callers normally go through save_fleet_image).
  void save_state(ckpt::ImageWriter& writer) const;

  /// Restores state saved by save_state into an engine constructed with
  /// the SAME parameters (prototype, data, mixing, scheduler, accountant
  /// construction, config). Bit-identical resume guarantee: after a
  /// restore at round k, rounds k+1..T reproduce an uninterrupted run
  /// byte-for-byte at any thread count. Throws std::runtime_error when
  /// the image does not match this engine's construction — that check
  /// runs before anything mutates, but a file corrupted PAST its valid
  /// identity prefix can throw mid-restore, leaving this engine's state
  /// unspecified: discard and rebuild it after a restore failure (as
  /// sim::run_experiment does).
  void restore_state(ckpt::ImageReader& reader);

 private:
  detail::EngineIdentity identity() const;

  graph::MixingRef mixing_;
  const core::RoundScheduler& scheduler_;
  energy::EnergyAccountant accountant_;
  EngineConfig config_;

  // Double-buffered [n × dim] model storage; node i's x_i^t is row i of
  // current().
  plane::ParameterPlane plane_;
  // Compact [n × k] staging pool for the masked sparse exchange.
  plane::RowArena staged_;

  // Quantized-exchange staging (allocated only for non-identity codecs):
  // wire_rows_[i] is sender i's encoded payload; decoded_ (dense) or
  // staged_decoded_ (masked) holds its decode — the values every receiver
  // actually consumes.
  std::unique_ptr<quant::RowCodec> codec_;
  std::vector<quant::QuantizedRow> wire_rows_;
  plane::RowArena decoded_;
  plane::RowArena staged_decoded_;

  std::vector<Node> nodes_;
  ModelShells shells_;
  std::size_t round_ = 0;

  std::vector<std::uint32_t> round_mask_;  // sparse_exchange_k mode
  std::vector<char> train_flags_;
  std::vector<double> local_losses_;

  // Scenario state (nullptr when config_.scenario is disabled).
  // alive_flags_[i] is node i's liveness THIS round, fixed serially in
  // phase 1 (including mid-round brownouts and fault-plan crash outages)
  // so the parallel phases read an immutable mask. Allocated when either
  // a scenario or a crash-fault schedule can take nodes down.
  std::unique_ptr<scenario::FleetScenario> scenario_;
  std::vector<char> alive_flags_;

  // Fault-plan wire staging (allocated only when link faults are active):
  // frames_[j] is sender j's CRC32C-framed payload this round;
  // fault_codec_ supplies the identity RowCodec when no exchange codec is
  // configured (framing needs a QuantizedRow either way). link_tally_ is
  // per-RECEIVER (disjoint parallel writes), folded into fault_stats_
  // serially at the end of each round.
  std::unique_ptr<quant::RowCodec> fault_codec_;
  std::vector<std::vector<std::uint8_t>> frames_;
  struct LinkTally {
    std::uint64_t attempted = 0;
    std::uint64_t dropped = 0;
    std::uint64_t corrupt = 0;
    std::uint64_t duplicated = 0;
  };
  std::vector<LinkTally> link_tally_;
  fault::FaultStats fault_stats_;

  // Telemetry (observational only; excluded from save_state/restore_state
  // so checkpoint images stay byte-identical with telemetry on or off).
  obs::PhaseStats phase_stats_;
  std::uint64_t wire_bytes_ = 0;
  std::size_t row_wire_bytes_ = 0;  // precomputed exact bytes per exchange
};

}  // namespace skiptrain::sim
