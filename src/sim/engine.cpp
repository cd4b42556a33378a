#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "fault/frame.hpp"
#include "obs/registry.hpp"
#include "sim/state_io.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace skiptrain::sim {

RoundEngine::RoundEngine(const nn::Sequential& prototype,
                         const data::FederatedData& data,
                         graph::MixingRef mixing,
                         const core::RoundScheduler& scheduler,
                         energy::EnergyAccountant accountant,
                         EngineConfig config)
    : mixing_(mixing),
      scheduler_(scheduler),
      accountant_(std::move(accountant)),
      config_(config),
      plane_(data.num_nodes(), prototype.num_parameters()),
      staged_(data.num_nodes(),
              std::min(config.sparse_exchange_k, prototype.num_parameters())),
      shells_(prototype, data.num_nodes()) {
  const std::size_t n = data.num_nodes();
  if (mixing_.num_nodes() != n) {
    throw std::invalid_argument("RoundEngine: mixing matrix size != nodes");
  }
  if (accountant_.num_nodes() != n) {
    throw std::invalid_argument("RoundEngine: accountant size != nodes");
  }

  if (config_.exchange_codec != quant::Codec::kIdentity) {
    codec_ = quant::make_codec(config_.exchange_codec, config_.seed);
    wire_rows_.resize(n);
    if (config_.sparse_exchange_k == 0) {
      decoded_ = plane::RowArena(n, plane_.dim());
    } else {
      staged_decoded_ = plane::RowArena(staged_.rows(), staged_.dim());
    }
  }

  // Every node starts from the same x⁰, as the D-PSGD analysis assumes.
  const std::span<const float> x0 = prototype.parameter_arena();
  nodes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes_.emplace_back(i, data.node_view(i), config_.seed);
    tensor::copy(x0, plane_.current().row(i));
  }
  train_flags_.assign(n, 0);
  local_losses_.assign(n, 0.0);

  // Exact per-exchange wire footprint of one row at the SIMULATED dim
  // (the energy bill stays on the paper's model size; this tally is what
  // the codec actually ships). Masked exchanges ship the k staged values.
  row_wire_bytes_ = quant::exact_row_wire_bytes(
      config_.exchange_codec,
      config_.sparse_exchange_k == 0 ? plane_.dim() : staged_.dim());

  config_.faults.validate();
  if (config_.faults.link_faults()) {
    // Framed exchanges: every row ships as a CRC32C frame. The identity
    // fallback codec exists only to pack float32 rows into QuantizedRow
    // form for framing — its decode is bit-exact, so receivers consume
    // the plane/staging rows directly and the no-codec values are
    // untouched.
    if (codec_ == nullptr) {
      fault_codec_ = quant::make_codec(quant::Codec::kIdentity, config_.seed);
      wire_rows_.resize(n);
    }
    frames_.resize(n);
    link_tally_.resize(n);
    row_wire_bytes_ += fault::kFrameOverheadBytes;
  }

  if (config_.scenario.enabled) {
    // Battery/harvest magnitudes scale from each node's own per-round
    // training energy, so one scenario config fits any workload.
    std::vector<double> train_costs(n);
    for (std::size_t i = 0; i < n; ++i) {
      train_costs[i] = accountant_.training_cost_mwh(i);
    }
    scenario_ = std::make_unique<scenario::FleetScenario>(
        config_.scenario, n, config_.seed, std::move(train_costs));
  }
  if (config_.scenario.enabled || config_.faults.crash_faults()) {
    alive_flags_.assign(n, 1);
  }
}

RoundEngine::RoundOutcome RoundEngine::run_round() {
  const std::size_t t = round_ + 1;  // Algorithm 2 numbers rounds from 1
  const std::size_t n = nodes_.size();

  // Phase 1 — decide + account (serial: the accountant is not locked).
  // Masked exchanges scale the billed model size by the wire fraction
  // k/dim (the mask is seed-derived, so only values travel).
  const std::size_t dim = plane_.dim();
  std::size_t wire_params = accountant_.model_params();
  if (config_.sparse_exchange_k != 0 && dim > 0) {
    const double fraction =
        static_cast<double>(std::min(config_.sparse_exchange_k, dim)) /
        static_cast<double>(dim);
    // llround, not a truncating cast: flooring would bill k=1 exchanges of
    // a small model at zero wire volume.
    wire_params = static_cast<std::size_t>(
        std::llround(fraction * static_cast<double>(wire_params)));
  }
  RoundOutcome outcome;
  outcome.kind = scheduler_.round_kind(t);
  // Scenario: deliver harvest and apply churn thresholds for round t, then
  // fix this round's liveness mask — serially, so the parallel phases read
  // an immutable snapshot and battery evolution is thread-count-free.
  bool any_down = false;
  const bool crash_active = config_.faults.crash_faults();
  const bool link_active = config_.faults.link_faults();
  const std::uint64_t wire_bytes_before = wire_bytes_;
  std::uint64_t phase_start = obs::now_ns();
  if (scenario_ != nullptr) scenario_->begin_round(t);
  for (std::size_t i = 0; i < n; ++i) {
    bool alive = scenario_ == nullptr || scenario_->alive(i);
    if (alive && crash_active &&
        fault::node_down(config_.faults, config_.seed, i, t)) {
      // Crash-restart outage: the node goes down before it can train or
      // key up its radio — no energy spent, model frozen in place, and
      // neighbors degrade through the masked aggregation below.
      alive = false;
      ++fault_stats_.crash_down_rounds;
    }
    bool trains =
        alive && scheduler_.should_train(t, i, accountant_.remaining_budget(i));
    if (trains && scenario_ != nullptr &&
        !scenario_->try_spend(i, accountant_.training_cost_mwh(i))) {
      // Training brownout: the battery empties before the local update —
      // the node dies on the spot, its model freezes for this round.
      trains = false;
      alive = false;
    }
    train_flags_[i] = trains ? 1 : 0;
    if (trains) {
      accountant_.record_training(i);
      ++outcome.nodes_trained;
    }
    if (alive && scenario_ != nullptr &&
        !scenario_->try_spend(
            i, config_.sparse_exchange_k == 0
                   ? accountant_.exchange_cost_mwh(i)
                   : accountant_.exchange_cost_mwh(i, wire_params))) {
      // Radio brownout: the local update (if any) survives in the node's
      // row, but it neither sends nor receives this round.
      alive = false;
    }
    if (!alive_flags_.empty()) {
      alive_flags_[i] = alive ? 1 : 0;
      if (!alive) any_down = true;
    }
    // Sharing happens every round a node is up; compressed exchanges bill
    // fewer bytes. Down nodes exchange nothing and are billed nothing.
    if (alive) {
      if (config_.sparse_exchange_k == 0) {
        accountant_.record_exchange(i);
      } else {
        accountant_.record_exchange(i, wire_params);
      }
      wire_bytes_ += row_wire_bytes_;
    }
  }
  {
    // Serial tally of the round's exact wire footprint (observational).
    static const obs::Counter wire = obs::counter("wire.bytes");
    wire.add(wire_bytes_ - wire_bytes_before);
  }
  obs::note_phase(phase_stats_, obs::Phase::kLiveness, phase_start);

  // Phase 2 — local training, parallel over nodes. Each chunk of nodes
  // trains through one shell attached to row after row, so this writes
  // x^{t-1/2} into current() in place; non-training rows already hold
  // x^{t-1}.
  phase_start = obs::now_ns();
  util::ThreadPool::current().parallel_for_chunks(
      0, n, [&](std::size_t lo, std::size_t hi) {
        std::unique_ptr<nn::Sequential> shell = shells_.acquire();
        for (std::size_t i = lo; i < hi; ++i) {
          if (!train_flags_[i]) continue;
          shell->attach_parameter_arena(plane_.current().row(i));
          local_losses_[i] = nodes_[i].train_local(
              *shell, config_.local_steps, config_.batch_size,
              config_.learning_rate);
        }
        shells_.release(std::move(shell));
      });
  obs::note_phase(phase_stats_, obs::Phase::kTrain, phase_start);

  // Phase 3+4 — exchange & aggregate.
  if (config_.sparse_exchange_k == 0) {
    if (link_active) {
      // Lossy dense gossip: every row crosses the wire as a CRC32C frame
      // and every directed link draws its fate independently, so the
      // difference form runs unconditionally — per delivered frame,
      //   x_i^t += W_ij (x̂_j^{t-1/2} - x_i^{t-1/2}),
      // and a dropped or CRC-rejected frame simply contributes nothing
      // (its weight mass reverts to self, rows still sum to 1). The
      // framed payload is a lossless serialization of the encoded row,
      // so delivered values are read from the once-per-sender decode
      // (identity codec: the plane row itself) — bit-identical to
      // decoding the frame, without per-link decode work.
      phase_start = obs::now_ns();
      quant::RowCodec& enc = codec_ != nullptr ? *codec_ : *fault_codec_;
      enc.begin_round(t);
      const plane::ConstMatrixView current = plane_.current().view();
      util::parallel_for(0, n, [&](std::size_t j) {
        link_tally_[j] = LinkTally{};
        if (any_down && !alive_flags_[j]) return;
        enc.encode(current.row(j), wire_rows_[j]);
        if (codec_ != nullptr) codec_->decode(wire_rows_[j], decoded_.row(j));
        fault::encode_frame(wire_rows_[j], frames_[j]);
      });
      obs::note_phase(phase_stats_, obs::Phase::kEncode, phase_start);
      phase_start = obs::now_ns();
      util::parallel_for(0, n, [&](std::size_t i) {
        const auto mine = current.row(i);
        const auto out = plane_.back().row(i);
        tensor::copy(mine, out);
        if (any_down && !alive_flags_[i]) return;
        LinkTally& tally = link_tally_[i];
        for (const auto& entry : mixing_.neighbor_weights(i)) {
          const std::size_t j = entry.neighbor;
          if (any_down && !alive_flags_[j]) continue;
          ++tally.attempted;
          const fault::LinkDraw draw =
              fault::link_draw(config_.faults, config_.seed, t, j, i);
          if (draw.drop) {
            ++tally.dropped;
            continue;
          }
          if (draw.duplicate) ++tally.duplicated;  // absorbed: see below
          // In-flight bit flip on this receiver's copy of the frame.
          // CRC32C detects every single-bit error, so the check cannot
          // pass — but the receiver still runs it rather than assume.
          if (draw.corrupt &&
              !fault::verify_flipped_copy(
                  frames_[j], fault::corrupt_bit_index(config_.seed, t, j, i,
                                                       frames_[j].size()))) {
            ++tally.corrupt;
            continue;
          }
          // Duplicates deliver the identical round-t frame twice; the
          // receiver aggregates each (sender, round) image once, so the
          // second copy changes nothing and is only counted.
          const auto theirs =
              codec_ != nullptr ? decoded_.row(j) : current.row(j);
          const float w = entry.weight;
          for (std::size_t k = 0; k < out.size(); ++k) {
            out[k] += w * (theirs[k] - mine[k]);
          }
        }
      });
      plane_.flip();
    } else if (any_down) {
      // Churn-masked dense aggregation in difference form:
      //   x_i^t = x_i^{t-1/2} + Σ_{alive j ∈ N(i)} W_ij (x_j^{t-1/2} - x_i^{t-1/2})
      // A dead neighbor's weight mass reverts to x_i (lazy self-loop
      // renormalization, rows still sum to 1), a dead node's own row is
      // carried verbatim, and the self term is exact by construction —
      // codecs only ever supply NEIGHBOR images, so no post-hoc self
      // correction is needed. Writes go to back(), then one flip.
      if (codec_ != nullptr) {
        phase_start = obs::now_ns();
        codec_->begin_round(t);
        util::parallel_for(0, n, [&](std::size_t i) {
          if (!alive_flags_[i]) return;
          codec_->encode(plane_.current().row(i), wire_rows_[i]);
          codec_->decode(wire_rows_[i], decoded_.row(i));
        });
        obs::note_phase(phase_stats_, obs::Phase::kEncode, phase_start);
      }
      phase_start = obs::now_ns();
      const plane::ConstMatrixView current = plane_.current().view();
      util::parallel_for(0, n, [&](std::size_t i) {
        const auto mine = current.row(i);
        const auto out = plane_.back().row(i);
        tensor::copy(mine, out);
        if (!alive_flags_[i]) return;
        for (const auto& entry : mixing_.neighbor_weights(i)) {
          if (!alive_flags_[entry.neighbor]) continue;
          const auto theirs = codec_ != nullptr
                                  ? decoded_.row(entry.neighbor)
                                  : current.row(entry.neighbor);
          const float w = entry.weight;
          for (std::size_t k = 0; k < out.size(); ++k) {
            out[k] += w * (theirs[k] - mine[k]);
          }
        }
      });
      plane_.flip();
    } else if (codec_ == nullptr) {
      // Dense: one blocked kernel current() → back(), then flip; reads
      // touch only x^{t-1/2}, writes only x^t.
      phase_start = obs::now_ns();
      plane::apply_mixing(mixing_, plane_);
    } else {
      // Dense quantized: every row crosses the wire encoded, so receivers
      // mix the DECODED image x̂_j, not x_j. Encode+decode per sender
      // (parallel; codecs are stateless per row), then run the blocked
      // kernel over the decoded staging plane:
      //   x_i^t = W_ii x_i^{t-1/2} + Σ_{j≠i} W_ij x̂_j^{t-1/2}.
      phase_start = obs::now_ns();
      codec_->begin_round(t);
      util::parallel_for(0, n, [&](std::size_t i) {
        codec_->encode(plane_.current().row(i), wire_rows_[i]);
        codec_->decode(wire_rows_[i], decoded_.row(i));
      });
      obs::note_phase(phase_stats_, obs::Phase::kEncode, phase_start);
      phase_start = obs::now_ns();
      plane::apply_mixing_from(mixing_, decoded_.view(), plane_);
      // The kernel billed the self contribution at x̂_i, but a node's own
      // model never crosses the wire — restore the exact self term. After
      // the flip, back() still holds the pre-exchange x^{t-1/2}.
      const plane::ConstMatrixView exact = plane_.back().view();
      util::parallel_for(0, n, [&](std::size_t i) {
        const float self_w = mixing_.self_weight(i);
        const auto mine = exact.row(i);
        const auto approx = decoded_.row(i);
        const auto out = plane_.current().row(i);
        for (std::size_t k = 0; k < out.size(); ++k) {
          out[k] += self_w * (mine[k] - approx[k]);
        }
      });
    }
    // The flip moved x^t to the other buffer; repoint the model(i) views
    // handed out so far at their new rows (pointer swap, no copies).
    shells_.reattach_views(plane_.current());
    obs::note_phase(phase_stats_, obs::Phase::kGossip, phase_start);
  } else {
    // Sparse: all nodes exchange the same k random coordinates this round
    // (mask derived from the shared seed). Since W rows sum to 1:
    //   x_i^t = x_i^{t-1/2} + Σ_j W_ij Σ_{c ∈ mask_t} (x_j[c] - x_i[c]) e_c.
    // Stage the masked coordinates of every row, then update rows in place
    // — only k coordinates per node change, so no dense copy is needed.
    phase_start = obs::now_ns();
    round_mask_ = core::shared_round_mask(config_.seed, t, dim,
                                          config_.sparse_exchange_k);
    plane::gather_masked_rows(plane_.current().view(), round_mask_,
                              staged_.view());
    obs::note_phase(phase_stats_, obs::Phase::kGossip, phase_start);
    if (link_active) {
      // Lossy sparse gossip: the k staged values are framed per sender,
      // then each directed link draws drop/corrupt/dup exactly as in the
      // dense path; the staged difference form already skips absent
      // contributions, so a lost frame needs no special handling.
      phase_start = obs::now_ns();
      quant::RowCodec& enc = codec_ != nullptr ? *codec_ : *fault_codec_;
      enc.begin_round(t);
      util::parallel_for(0, n, [&](std::size_t j) {
        link_tally_[j] = LinkTally{};
        if (any_down && !alive_flags_[j]) return;
        enc.encode(staged_.row(j), wire_rows_[j]);
        if (codec_ != nullptr) {
          codec_->decode(wire_rows_[j], staged_decoded_.row(j));
        }
        fault::encode_frame(wire_rows_[j], frames_[j]);
      });
      obs::note_phase(phase_stats_, obs::Phase::kEncode, phase_start);
      phase_start = obs::now_ns();
      const plane::RowArena& theirs_pool =
          codec_ != nullptr ? staged_decoded_ : staged_;
      util::parallel_for(0, n, [&](std::size_t i) {
        if (any_down && !alive_flags_[i]) return;
        const auto row = plane_.current().row(i);
        const auto mine_staged = staged_.row(i);
        LinkTally& tally = link_tally_[i];
        for (const auto& entry : mixing_.neighbor_weights(i)) {
          const std::size_t j = entry.neighbor;
          if (any_down && !alive_flags_[j]) continue;
          ++tally.attempted;
          const fault::LinkDraw draw =
              fault::link_draw(config_.faults, config_.seed, t, j, i);
          if (draw.drop) {
            ++tally.dropped;
            continue;
          }
          if (draw.duplicate) ++tally.duplicated;
          if (draw.corrupt &&
              !fault::verify_flipped_copy(
                  frames_[j], fault::corrupt_bit_index(config_.seed, t, j, i,
                                                       frames_[j].size()))) {
            ++tally.corrupt;
            continue;
          }
          core::accumulate_staged_difference(round_mask_, theirs_pool.row(j),
                                             mine_staged, row, entry.weight);
        }
      });
      obs::note_phase(phase_stats_, obs::Phase::kGossip, phase_start);
    } else {
      if (codec_ != nullptr) {
        // Sparse+quant composition: the k masked values are what crosses
        // the wire, so they are what gets encoded. Receivers read the
        // decoded image of a neighbor's staged values but keep their OWN
        // values exact (a node never quantizes against itself).
        phase_start = obs::now_ns();
        codec_->begin_round(t);
        util::parallel_for(0, n, [&](std::size_t i) {
          if (any_down && !alive_flags_[i]) return;
          codec_->encode(staged_.row(i), wire_rows_[i]);
          codec_->decode(wire_rows_[i], staged_decoded_.row(i));
        });
        obs::note_phase(phase_stats_, obs::Phase::kEncode, phase_start);
      }
      phase_start = obs::now_ns();
      const plane::RowArena& theirs_pool =
          codec_ != nullptr ? staged_decoded_ : staged_;
      util::parallel_for(0, n, [&](std::size_t i) {
        // Churn mask: a down node neither sends nor receives, and dead
        // neighbors drop out of the sum — the difference form keeps the
        // row normalized (skipped mass stays on x_i) with no extra work.
        if (any_down && !alive_flags_[i]) return;
        const auto row = plane_.current().row(i);
        const auto mine_staged = staged_.row(i);
        for (const auto& entry : mixing_.neighbor_weights(i)) {
          if (any_down && !alive_flags_[entry.neighbor]) continue;
          core::accumulate_staged_difference(round_mask_,
                                             theirs_pool.row(entry.neighbor),
                                             mine_staged, row, entry.weight);
        }
      });
      obs::note_phase(phase_stats_, obs::Phase::kGossip, phase_start);
    }
  }

  if (link_active) {
    // Per-receiver tallies were written disjointly in parallel; fold them
    // into the lifetime stats serially so the totals are order-free.
    for (const LinkTally& tally : link_tally_) {
      fault_stats_.attempted_deliveries += tally.attempted;
      fault_stats_.dropped += tally.dropped;
      fault_stats_.corrupt += tally.corrupt;
      fault_stats_.duplicated += tally.duplicated;
    }
  }

  double loss_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (train_flags_[i]) loss_sum += local_losses_[i];
  }
  outcome.mean_local_loss =
      outcome.nodes_trained
          ? loss_sum / static_cast<double>(outcome.nodes_trained)
          : 0.0;

  ++round_;
  return outcome;
}

void RoundEngine::run_rounds(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) run_round();
}

/// Construction identity: restore refuses an image whose run setup
/// differs from this engine's (wrong seed/codec/schedule would silently
/// break the bit-identical resume contract).
detail::EngineIdentity RoundEngine::identity() const {
  // Scenario configuration is part of the identity: resuming a churn run
  // under a different battery/harvest model would silently diverge. So is
  // a non-dense topology (different gossip graph ⇒ different fixed point).
  // Both contribute 0 when inactive, keeping older images byte-compatible.
  std::uint64_t aux =
      scenario_ != nullptr ? scenario_->config_hash() : 0;
  if (config_.topology_hash != 0) {
    aux = util::hash_combine(aux, config_.topology_hash);
  }
  if (config_.faults.enabled) {
    // Same reasoning as the scenario: resuming under a different fault
    // plan would silently change which messages get lost.
    aux = util::hash_combine(aux, config_.faults.config_hash());
  }
  return detail::EngineIdentity{nodes_.size(),
                                plane_.dim(),
                                config_.seed,
                                config_.exchange_codec,
                                config_.sparse_exchange_k,
                                config_.local_steps,
                                config_.batch_size,
                                std::bit_cast<std::uint32_t>(
                                    config_.learning_rate),
                                aux,
                                scheduler_.name()};
}

void RoundEngine::save_state(ckpt::ImageWriter& writer) const {
  detail::write_identity(writer, identity(), round_);
  detail::write_accountant(writer, accountant_);
  // The whole fleet as ONE contiguous blob: row i of current() is node
  // i's x_i^t, and rows are arena-contiguous, so this is a single write
  // (and a single read into the arena on restore).
  writer.f32_blob(plane_.current().view().flat());
  for (const Node& node : nodes_) detail::write_node_state(writer, node);
  // Scenario battery/churn state rides at the END of the payload, so the
  // scenario-free image layout (and probe_fleet_image's prefix reads) is
  // unchanged; the aux_bits identity check above guarantees a reader only
  // expects this section when the writer produced it.
  if (scenario_ != nullptr) scenario_->save_state(writer);
  // Fault tallies are simulation state (they feed the summary CSV), so a
  // resumed run must carry them forward; the draws themselves are
  // stateless and need nothing here. Gated on the plan (which is part of
  // the aux_bits identity), so fault-free images are unchanged.
  if (config_.faults.enabled) {
    writer.u64(fault_stats_.attempted_deliveries);
    writer.u64(fault_stats_.dropped);
    writer.u64(fault_stats_.corrupt);
    writer.u64(fault_stats_.duplicated);
    writer.u64(fault_stats_.crash_down_rounds);
  }
}

void RoundEngine::restore_state(ckpt::ImageReader& reader) {
  const std::uint64_t round =
      detail::read_validated_identity(reader, identity());
  detail::read_accountant(reader, accountant_);
  // One read straight into the live rows (model(i) views follow them).
  reader.f32_blob(plane_.current().view().flat());
  for (Node& node : nodes_) detail::read_node_state(reader, node);
  if (scenario_ != nullptr) scenario_->restore_state(reader);
  if (config_.faults.enabled) {
    fault_stats_.attempted_deliveries = reader.u64();
    fault_stats_.dropped = reader.u64();
    fault_stats_.corrupt = reader.u64();
    fault_stats_.duplicated = reader.u64();
    fault_stats_.crash_down_rounds = reader.u64();
  }
  round_ = static_cast<std::size_t>(round);
}

}  // namespace skiptrain::sim
