// The traced run: per-layer metrics taken from outside the program.
//
// 1. Sweep reps in three configurations: the untraced run's program as it
//    is (registry on), with the program's own span tracer on, and with the
//    registry off. They give the sweep and node-pool metrics and the cost
//    of the tracer and of the registry.
// 2. The workload's representative trial is replayed serially through the
//    public API (RoundEngine, metrics::Evaluator, ckpt images), exactly as
//    sim::run_experiment runs it; its summary-CSV row must equal the
//    sweep's row byte for byte, or the per-layer numbers would describe a
//    different program and the run fails.
// 3. Each layer's public functions are timed on that trial's exact model,
//    batch, plane, codec and fault plan, and per-call times × exact call
//    counts are closed against the replay's measured round time.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "ckpt/fleet_image.hpp"
#include "ckpt/io.hpp"
#include "ckpt/trial_store.hpp"
#include "core/skiptrain.hpp"
#include "energy/fleet.hpp"
#include "fault/frame.hpp"
#include "graph/sparse.hpp"
#include "graph/topology.hpp"
#include "metrics/evaluator.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "obs/registry.hpp"
#include "obs/stopwatch.hpp"
#include "sim/engine.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

/// Everything sim::run_experiment builds for one trial, kept alive after
/// the replay so the layer timings run on the same objects.
struct TrialRig {
  std::shared_ptr<const sweep::SharedWorkload> workload;
  graph::Topology topology;
  graph::MixingMatrix mixing;
  graph::SparseMixing sparse_mixing;
  graph::MixingRef mixing_ref;
  std::unique_ptr<core::RoundScheduler> scheduler;
  std::optional<sim::RoundEngine> engine;
};

struct Replay {
  sweep::TrialResult trial;
  Samples train_round_s;
  Samples sync_round_s;
  Samples eval_s;
  Samples ckpt_s;
  double data_build_s = 0.0;
  double topology_s = 0.0;
  double engine_build_s = 0.0;
  std::uint64_t local_steps = 0;
  std::uint64_t eval_samples = 0;
  obs::Snapshot counters;
};

/// Replays `spec` the way sim::run_experiment runs a fresh (non-resumed)
/// SkipTrain trial, with the sweep's checkpoint cadence and image path.
Replay replay_trial(const sweep::TrialSpec& spec, const Workload& workload,
                    const fs::path& work, SpanLog& log, TrialRig& rig) {
  const sim::RunOptions& options = spec.options;
  if (options.algorithm != sim::Algorithm::kSkipTrain || options.resume ||
      options.evaluate_allreduce || options.track_consensus) {
    throw std::invalid_argument(
        "replay supports fresh SkipTrain trials without all-reduce or "
        "consensus tracking only");
  }
  const std::string args = "\"trial\":" + std::to_string(spec.index);
  Replay out;
  std::uint64_t start = obs::now_ns();
  rig.workload = sweep::build_workload(spec.data);
  std::uint64_t end = obs::now_ns();
  log.add("data.build", start, end, args);
  out.data_build_s = static_cast<double>(end - start) * 1e-9;
  const data::FederatedData& data = rig.workload->data;
  const std::size_t n = data.num_nodes();

  // Topology and mixing weights, with run_experiment's seed derivations.
  start = obs::now_ns();
  const graph::TopologySpec topo = graph::TopologySpec::parse(options.topology);
  std::vector<std::size_t> degrees(n);
  std::uint64_t topology_hash = 0;
  if (topo.kind == graph::TopologySpec::Kind::kDense) {
    util::Rng topo_rng(util::hash_combine(options.seed, 0x70700000ULL));
    rig.topology = graph::make_random_regular(n, options.degree, topo_rng);
    rig.mixing = graph::MixingMatrix::metropolis_hastings(rig.topology);
    rig.mixing_ref = rig.mixing;
    for (std::size_t i = 0; i < n; ++i) degrees[i] = rig.topology.degree(i);
  } else if (topo.kind == graph::TopologySpec::Kind::kKRegular) {
    const graph::ImplicitKRegular implicit(
        n, topo.k, util::hash_combine(options.seed, 0x6b726700ULL));
    rig.sparse_mixing = graph::SparseMixing::metropolis_hastings(implicit);
    rig.mixing_ref = rig.sparse_mixing;
    topology_hash = implicit.config_hash();
    for (std::size_t i = 0; i < n; ++i) degrees[i] = rig.sparse_mixing.degree(i);
  } else {
    throw std::invalid_argument("replay does not support csr topologies");
  }
  end = obs::now_ns();
  log.add("graph.build", start, end, args);
  out.topology_s = static_cast<double>(end - start) * 1e-9;

  start = obs::now_ns();
  const energy::Fleet fleet = energy::Fleet::even(n, options.workload)
                                  .with_budget_scale(options.budget_scale);
  energy::EnergyAccountant accountant(
      fleet, quant::comm_model_for(options.exchange_codec),
      energy::workload_spec(options.workload).model_params,
      std::move(degrees));
  rig.scheduler = std::make_unique<core::SkipTrainScheduler>(
      options.gamma_train, options.gamma_sync);
  sim::EngineConfig config;
  config.local_steps = options.local_steps;
  config.batch_size = options.batch_size;
  config.learning_rate = options.learning_rate;
  config.seed = options.seed;
  config.sparse_exchange_k = options.sparse_exchange_k;
  config.exchange_codec = options.exchange_codec;
  config.scenario = scenario::make_config(options.scenario);
  config.topology_hash = topology_hash;
  config.faults = fault::make_plan(options.faults);
  const ckpt::IoFaultPolicy io_policy{config.faults, options.seed};
  const ckpt::IoFaultPolicy* io_faults =
      config.faults.io_faults() ? &io_policy : nullptr;
  rig.engine.emplace(rig.workload->prototype, data, rig.mixing_ref,
                     *rig.scheduler, std::move(accountant), config);
  end = obs::now_ns();
  log.add("sim.engine_build", start, end, args);
  out.engine_build_s = static_cast<double>(end - start) * 1e-9;
  sim::RoundEngine& engine = *rig.engine;

  sim::ExperimentResult result;
  metrics::Evaluator evaluator(
      options.eval_on_validation ? &data.validation : &data.test,
      options.eval_max_samples);
  std::vector<nn::Sequential*> models(n);
  for (std::size_t i = 0; i < n; ++i) models[i] = &engine.model(i);
  const std::size_t eval_every =
      options.eval_every != 0 ? options.eval_every
                              : options.gamma_train + options.gamma_sync;
  result.algorithm = rig.scheduler->name();
  result.dataset = data.name;
  result.nodes = n;
  result.degree = options.degree;
  result.fleet_budget_wh = fleet.total_budget_wh();
  result.recorder = metrics::Recorder(
      std::string(sim::algorithm_name(options.algorithm)) + " on " + data.name);
  const std::string image =
      ckpt::trial_file_base((work / "ckpt").string(), spec.index) + ".ckpt";
  const std::size_t keep = std::max<std::size_t>(workload.grid.keep_generations, 1);
  if (workload.checkpoint_every != 0) fs::create_directories(work / "ckpt");

  std::vector<double> last_per_node;
  for (std::size_t t = 1; t <= options.total_rounds; ++t) {
    start = obs::now_ns();
    const sim::RoundEngine::RoundOutcome outcome = engine.run_round();
    end = obs::now_ns();
    const bool training = outcome.kind == core::RoundKind::kTraining;
    log.add("sim.run_round", start, end,
            args + ",\"round\":" + std::to_string(t) + ",\"kind\":\"" +
                (training ? "train" : "sync") + "\"");
    (training ? out.train_round_s : out.sync_round_s)
        .add(static_cast<double>(end - start) * 1e-9);
    if (training) ++result.coordinated_training_rounds;
    out.local_steps += outcome.nodes_trained * options.local_steps;
    if (t % eval_every == 0 || t == options.total_rounds) {
      start = obs::now_ns();
      metrics::RoundRecord record;
      record.round = t;
      record.training_round = training;
      const auto fleet_eval = evaluator.evaluate_fleet(models);
      record.mean_accuracy = fleet_eval.accuracy.mean;
      record.std_accuracy = fleet_eval.accuracy.stddev;
      last_per_node = fleet_eval.per_node;
      record.train_energy_wh = engine.accountant().total_training_wh();
      record.comm_energy_wh = engine.accountant().total_comm_wh();
      record.nodes_trained = outcome.nodes_trained;
      result.recorder.add(record);
      end = obs::now_ns();
      log.add("metrics.evaluate_fleet", start, end, args);
      out.eval_s.add(static_cast<double>(end - start) * 1e-9);
      out.eval_samples += n * evaluator.samples_used();
    }
    if (workload.checkpoint_every != 0 && t % workload.checkpoint_every == 0 &&
        t < options.total_rounds) {
      start = obs::now_ns();
      const ckpt::ExperimentState state{
          result.recorder.records(),
          static_cast<std::uint64_t>(result.coordinated_training_rounds),
          ckpt::trial_fingerprint(spec)};
      ckpt::rotate_generations(image, keep);
      ckpt::save_experiment_image(engine, state, image, io_faults);
      end = obs::now_ns();
      log.add("ckpt.save_experiment_image", start, end, args);
      out.ckpt_s.add(static_cast<double>(end - start) * 1e-9);
    }
  }
  out.counters = obs::snapshot();
  ckpt::remove_generations(image, keep);

  const metrics::RoundRecord& last = result.recorder.last();
  result.final_mean_accuracy = last.mean_accuracy;
  result.final_std_accuracy = last.std_accuracy;
  result.final_allreduce_accuracy = last.allreduce_accuracy;
  result.best_mean_accuracy = result.recorder.best_mean_accuracy();
  result.total_training_wh = engine.accountant().total_training_wh();
  result.total_comm_wh = engine.accountant().total_comm_wh();
  if (const scenario::FleetScenario* scn = engine.scenario()) {
    result.mean_availability = scn->mean_availability();
    result.down_node_rounds = scn->down_steps_total();
    result.harvested_wh = scn->harvested_mwh_total() / 1000.0;
  }
  const fault::FaultStats& fs_stats = engine.fault_stats();
  result.dropped_messages = static_cast<std::size_t>(fs_stats.dropped);
  result.corrupt_messages = static_cast<std::size_t>(fs_stats.corrupt);
  result.duplicated_messages = static_cast<std::size_t>(fs_stats.duplicated);
  result.crash_down_rounds = static_cast<std::size_t>(fs_stats.crash_down_rounds);
  if (fs_stats.attempted_deliveries != 0) {
    result.delivery_rate =
        static_cast<double>(fs_stats.attempted_deliveries - fs_stats.dropped -
                            fs_stats.corrupt) /
        static_cast<double>(fs_stats.attempted_deliveries);
  }
  result.final_per_node_accuracy = std::move(last_per_node);
  out.trial.spec = spec;
  out.trial.result = std::move(result);
  return out;
}

/// Calls `fn` at least `min_iters` times and until `budget_s` has passed
/// (at most `max_iters`), timing each call as one span.
template <typename Fn>
Samples sample_calls(SpanLog& log, const std::string& span,
                     std::size_t min_iters, std::size_t max_iters,
                     double budget_s, Fn&& fn) {
  Samples samples;
  const char* name = log.intern(span);
  const obs::StopWatch clock;
  while (samples.size() < min_iters ||
         (samples.size() < max_iters && clock.seconds() < budget_s)) {
    samples.add(timed_us(log, name, fn));
  }
  return samples;
}

/// "n=<pairs> trial pairs in <reps> sweep pairs, ratio quartiles a..b":
/// how much an overhead share drawn from `ratios` can be trusted.
std::string pairing_note(const Samples& ratios, std::size_t reps) {
  std::vector<double> sorted = ratios.values();
  std::sort(sorted.begin(), sorted.end());
  char quartiles[64] = "";
  if (!sorted.empty()) {
    std::snprintf(quartiles, sizeof quartiles, ", ratio quartiles %.3f..%.3f",
                  sorted[sorted.size() / 4], sorted[(3 * sorted.size()) / 4]);
  }
  return "n=" + std::to_string(sorted.size()) + " trial pairs in " +
         std::to_string(reps) + " sweep pairs" + quartiles;
}

std::string layer_kind(const nn::Layer& layer) {
  std::string name = layer.name();
  name = name.substr(0, name.find('('));
  for (char& c : name) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return name;
}

/// Per-stage timing of one local SGD step, the sequence Node::train_local
/// runs: sample, forward (after zero_grad), loss, backward, optimizer.
struct StepTimes {
  Samples sample, forward, loss, backward, optimizer, total;
};

StepTimes time_sgd_steps(SpanLog& log, nn::Sequential& model,
                         const data::DatasetView& view, std::size_t batch,
                         float learning_rate, std::uint64_t seed,
                         double budget_s) {
  StepTimes times;
  util::Rng rng(util::hash_combine(seed, 0xbe7c4ULL));
  nn::SgdOptimizer optimizer(nn::SgdOptions{learning_rate, 0.0f, 0.0f});
  tensor::Tensor features;
  tensor::Tensor grad_logits;
  std::vector<std::int32_t> labels;
  const obs::StopWatch clock;
  while (times.total.size() < 200 ||
         (times.total.size() < 5000 && clock.seconds() < budget_s)) {
    const std::uint64_t t0 = obs::now_ns();
    view.sample_batch(rng, batch, features, labels);
    const std::uint64_t t1 = obs::now_ns();
    model.zero_grad();
    const tensor::Tensor& logits = model.forward(features);
    const std::uint64_t t2 = obs::now_ns();
    if (grad_logits.shape() != logits.shape()) {
      grad_logits = tensor::Tensor(logits.shape());
    }
    (void)nn::softmax_cross_entropy(logits, labels, grad_logits);
    const std::uint64_t t3 = obs::now_ns();
    model.backward(features, grad_logits);
    const std::uint64_t t4 = obs::now_ns();
    optimizer.step(model);
    const std::uint64_t t5 = obs::now_ns();
    log.add("nn.sgd_step", t0, t5);
    log.add("data.sample_batch", t0, t1);
    log.add("nn.forward", t1, t2);
    log.add("nn.loss", t2, t3);
    log.add("nn.backward", t3, t4);
    log.add("nn.optimizer", t4, t5);
    times.sample.add(static_cast<double>(t1 - t0) * 1e-3);
    times.forward.add(static_cast<double>(t2 - t1) * 1e-3);
    times.loss.add(static_cast<double>(t3 - t2) * 1e-3);
    times.backward.add(static_cast<double>(t4 - t3) * 1e-3);
    times.optimizer.add(static_cast<double>(t5 - t4) * 1e-3);
    times.total.add(static_cast<double>(t5 - t0) * 1e-3);
  }
  return times;
}

struct GemmTimes {
  double nn_us = 0.0, nt_us = 0.0, tn_us = 0.0;  // mean per call over shapes
  double gmacs_per_s = 0.0;
};

/// Forward/backward of each layer of `model` on one real batch, plus (with
/// `time_gemm`) the three GEMM variants at every Linear layer's shapes.

GemmTimes time_layers(SpanLog& log, MetricSet& metrics,
                      const std::string& model_name, nn::Sequential& model,
                      const data::DatasetView& view, std::size_t batch,
                      std::uint64_t seed, bool time_gemm) {
  util::Rng rng(util::hash_combine(seed, 0x1a7e5ULL));
  const std::size_t layers = model.num_layers();
  std::vector<tensor::Tensor> acts(layers + 1);
  std::vector<tensor::Tensor> grads(layers + 1);
  std::vector<std::int32_t> labels;
  view.sample_batch(rng, batch, acts[0], labels);
  for (std::size_t i = 0; i < layers; ++i) {
    acts[i + 1] = tensor::Tensor(model.layer(i).output_shape(acts[i].shape()));
    model.layer(i).forward(acts[i], acts[i + 1]);
  }
  grads[layers] = tensor::Tensor(acts[layers].shape());
  (void)nn::softmax_cross_entropy(acts[layers], labels, grads[layers]);
  for (std::size_t i = layers; i-- > 0;) {
    grads[i] = tensor::Tensor(acts[i].shape());
    model.layer(i).backward(acts[i], grads[i + 1], grads[i]);
  }
  for (std::size_t i = 0; i < layers; ++i) {
    nn::Layer& layer = model.layer(i);
    const std::string base = "nn." + model_name + ".l" + std::to_string(i) +
                             "_" + layer_kind(layer);
    const Samples fwd = sample_calls(log, base + ".fwd", 200, 3000, 0.05, [&] {
      layer.forward(acts[i], acts[i + 1]);
    });
    const Samples bwd = sample_calls(log, base + ".bwd", 200, 3000, 0.05, [&] {
      layer.zero_grad();
      layer.backward(acts[i], grads[i + 1], grads[i]);
    });
    metrics.add(base + ".fwd_us", "us", fwd.median(),
                "n=" + std::to_string(fwd.size()) + ", batch " + std::to_string(batch));
    metrics.add(base + ".bwd_us", "us", bwd.median(),
                "n=" + std::to_string(bwd.size()) + ", batch " + std::to_string(batch));
  }

  GemmTimes gemm;
  if (!time_gemm) return gemm;
  double total_us = 0.0;
  double total_macs = 0.0;
  std::size_t shapes = 0;
  for (std::size_t i = 0; i < layers; ++i) {
    const auto* linear = dynamic_cast<const nn::Linear*>(&model.layer(i));
    if (linear == nullptr) continue;
    const std::size_t in = linear->in_features();
    const std::size_t out = linear->out_features();
    const std::span<const float> w = model.layer(i).parameters().first(in * out);
    std::vector<float> c_fwd(batch * out), c_wgrad(out * in), c_igrad(batch * in);
    const double nt = sample_calls(log, "tensor.gemm_nt", 200, 3000, 0.03, [&] {
      tensor::gemm_nt(batch, in, out, acts[i].data(), w, c_fwd);
    }).median();
    const double tn = sample_calls(log, "tensor.gemm_tn", 200, 3000, 0.03, [&] {
      tensor::gemm_tn(out, batch, in, grads[i + 1].data(), acts[i].data(), c_wgrad);
    }).median();
    const double nn_t = sample_calls(log, "tensor.gemm_nn", 200, 3000, 0.03, [&] {
      tensor::gemm_nn(batch, out, in, grads[i + 1].data(), w, c_igrad);
    }).median();
    gemm.nt_us += nt;
    gemm.tn_us += tn;
    gemm.nn_us += nn_t;
    total_us += nt + tn + nn_t;
    total_macs += 3.0 * static_cast<double>(batch * in * out);
    ++shapes;
  }
  if (shapes != 0) {
    gemm.nt_us /= static_cast<double>(shapes);
    gemm.tn_us /= static_cast<double>(shapes);
    gemm.nn_us /= static_cast<double>(shapes);
    gemm.gmacs_per_s = total_macs / (total_us * 1e3);
  }
  return gemm;
}

}  // namespace

void run_traced(const Workload& workload, const ThreadPlan& plan,
                double seconds, const fs::path& work, MetricSet& metrics,
                Outcome& outcome) {
  const obs::StopWatch clock;
  SpanLog log;

  // --- 1. sweep reps: sweep/util layers and the tracer and registry cost --
  // Reps cycle default, tracer, default, registry off. A default rep is the
  // untraced run's sweep exactly; each other rep is paired with the default
  // rep just before it, trial by trial, so the overheads are medians over
  // many paired trial times rather than over a handful of whole sweeps.
  enum class Mode { kDefault, kTracer, kObsOff };
  constexpr Mode kCycle[] = {Mode::kDefault, Mode::kTracer, Mode::kDefault,
                             Mode::kObsOff};
  Samples trial_walls, worker_busy, pool_busy, tracer_rate;
  Samples tracer_ratio;  // default trial wall / traced trial wall
  Samples obs_ratio;     // registry-off trial wall / default trial wall
  std::size_t tracer_reps = 0;
  std::size_t obs_off_reps = 0;
  std::optional<SweepRep> reference;
  std::optional<SweepRep> last_default;
  const fs::path program_trace = work / "program_trace.json";
  for (std::size_t rep_index = 0;
       rep_index < std::size(kCycle) || rep_index % 2 == 1 ||
       clock.seconds() < 0.75 * seconds;
       ++rep_index) {
    const Mode mode = kCycle[rep_index % std::size(kCycle)];
    const char* mode_name = mode == Mode::kDefault  ? "default"
                            : mode == Mode::kTracer ? "tracer"
                                                    : "registry_off";
    if (mode == Mode::kTracer) obs::start_tracing(program_trace.string());
    if (mode == Mode::kObsOff) obs::set_enabled(false);
    const std::uint64_t start = obs::now_ns();
    SweepRep rep = run_sweep_rep(workload, plan, work);
    log.add("sweep.run", start, obs::now_ns(),
            std::string("\"mode\":\"") + mode_name + "\"");
    if (mode == Mode::kTracer) obs::stop_tracing();
    obs::set_enabled(true);
    outcome.count(rep.report);
    if (!reference) {
      sweep::write_telemetry_json((work / "summary.telemetry.json").string(),
                                  rep.report);
    } else if (rep.csv_digest != reference->csv_digest) {
      outcome.fail(std::string("summary CSV digest differs between reps (") +
                   mode_name + " rep)");
    }
    if (mode == Mode::kDefault) {
      double busy_s = 0.0;
      for (const sweep::TrialResult& trial : rep.report.trials) {
        trial_walls.add(trial.wall_seconds);
        busy_s += trial.wall_seconds;
      }
      worker_busy.add(busy_s / (static_cast<double>(plan.trial_workers) *
                                rep.report.wall_seconds));
      pool_busy.add(rep.node_pool_busy_share);
      if (!reference) reference = rep;
      last_default = std::move(rep);
      continue;
    }
    const std::vector<sweep::TrialResult>& base = last_default->report.trials;
    for (std::size_t i = 0; i < base.size(); ++i) {
      const double base_s = base[i].wall_seconds;
      const double rep_s = rep.report.trials[i].wall_seconds;
      if (!(base_s > 0.0 && rep_s > 0.0)) continue;
      if (mode == Mode::kTracer) {
        tracer_ratio.add(base_s / rep_s);
      } else {
        obs_ratio.add(rep_s / base_s);
      }
    }
    if (mode == Mode::kTracer) {
      tracer_rate.add(node_rounds_per_s(rep));
      ++tracer_reps;
    } else {
      ++obs_off_reps;
    }
  }

  // --- 2. serial replay of the representative trial ----------------------
  const sweep::TrialSpec& spec = workload.trials.at(workload.representative);
  TrialRig rig;
  Replay replay;
  {
    const util::ThreadPool::ScopedForceSerial serial;
    obs::reset();
    replay = replay_trial(spec, workload, work, log, rig);
  }
  {
    std::vector<sweep::TrialResult> rows = reference->report.trials;
    rows.at(spec.index) = replay.trial;
    const fs::path replay_csv = work / "replay.csv";
    sweep::write_summary_csv(replay_csv.string(), rows);
    if (file_digest(replay_csv) != reference->csv_digest) {
      outcome.fail("replayed trial " + std::to_string(spec.index) +
                   " does not reproduce its summary-CSV row");
    }
  }

  // --- 3. per-layer timing on the trial's exact shapes --------------------
  const util::ThreadPool::ScopedForceSerial serial;
  sim::RoundEngine& engine = *rig.engine;
  const data::FederatedData& data = rig.workload->data;
  const std::size_t n = data.num_nodes();
  const std::size_t dim = engine.parameter_plane().dim();
  const std::size_t batch = spec.options.batch_size;
  const std::uint64_t seed = spec.options.seed;
  const double budget = std::max(0.05, 0.03 * seconds);

  nn::Sequential trained = rig.workload->prototype.clone();
  trained.set_parameters(engine.node_parameters().row(0));
  const data::DatasetView node_view = data.node_view(0);
  const StepTimes step = time_sgd_steps(log, trained, node_view, batch,
                                        spec.options.learning_rate, seed, budget);

  GemmTimes gemm;
  for (const std::string& dataset : {std::string("cifar"), std::string("femnist")}) {
    if (dataset == spec.data.dataset) {
      gemm = time_layers(log, metrics, dataset, trained, node_view, batch, seed, true);
    } else {
      sweep::DataConfig other = spec.data;
      other.dataset = dataset;
      other.nodes = 4;
      const auto small = sweep::build_workload(other);
      nn::Sequential model = small->prototype.clone();
      (void)time_layers(log, metrics, dataset, model, small->data.node_view(0),
                        batch, seed, false);
    }
  }

  plane::ParameterPlane mix_plane(n, dim);
  std::copy_n(engine.node_parameters().flat().begin(), n * dim,
              mix_plane.current().view().flat().begin());
  const Samples mix = sample_calls(log, "graph.mix", 3, 200, 4 * budget, [&] {
    const std::span<const float> x_half = mix_plane.current().view().flat();
    const std::span<float> x_next = mix_plane.back().view().flat();
    if (rig.mixing_ref.is_sparse()) {
      graph::apply_mixing_sharded(rig.mixing_ref, x_half, x_next, dim);
    } else {
      graph::apply_mixing_blocked(rig.mixing, x_half, x_next, dim);
    }
  });

  const std::span<const float> row = engine.node_parameters().row(0);
  std::vector<float> decoded(dim);
  double encode_us = 0.0;
  double decode_us = 0.0;
  quant::QuantizedRow wire_row;
  const quant::Codec wire_codec = spec.options.exchange_codec;
  for (const quant::Codec codec :
       {quant::Codec::kIdentity, quant::Codec::kFp16, quant::Codec::kInt8}) {
    std::unique_ptr<quant::RowCodec> rc = quant::make_codec(codec, seed);
    rc->begin_round(1);
    quant::QuantizedRow q;
    const std::string base = std::string("quant.") + quant::codec_token(codec);
    const double enc = sample_calls(log, base + ".encode", 200, 3000, budget, [&] {
      rc->encode(row, q);
    }).median();
    const double dec = sample_calls(log, base + ".decode", 200, 3000, budget, [&] {
      rc->decode(q, decoded);
    }).median();
    if (codec != quant::Codec::kIdentity) {
      metrics.add(base + ".encode_us", "us", enc, "per row, dim " + std::to_string(dim));
      metrics.add(base + ".decode_us", "us", dec, "per row, dim " + std::to_string(dim));
    }
    if (codec == wire_codec) {
      encode_us = enc;
      decode_us = dec;
      wire_row = q;
    }
  }
  std::vector<std::uint8_t> frame;
  const double frame_us = sample_calls(log, "fault.frame", 200, 3000, budget, [&] {
    fault::encode_frame(wire_row, frame);
    if (!fault::verify_frame(frame)) throw std::runtime_error("frame rejected");
  }).median();

  Samples builds;
  builds.add(replay.data_build_s);
  for (int i = 0; i < 2; ++i) {
    const std::uint64_t start = obs::now_ns();
    (void)sweep::build_workload(spec.data);
    const std::uint64_t end = obs::now_ns();
    log.add("data.build", start, end);
    builds.add(static_cast<double>(end - start) * 1e-9);
  }

  // --- counts, closure, attribution ---------------------------------------
  const obs::Snapshot& c = replay.counters;
  const auto count = [&c](const char* name) {
    return static_cast<double>(c.counter_value(name));
  };
  const double rows_encoded = count("codec.rows_encoded");
  const double rows_mixed = count("gossip.rows_mixed");
  const bool link_faults = fault::make_plan(spec.options.faults).link_faults();
  const fault::FaultStats& faults = engine.fault_stats();

  const double round_s = replay.train_round_s.sum() + replay.sync_round_s.sum();
  const double eval_s = replay.eval_s.sum();
  const double ckpt_s = replay.ckpt_s.sum();
  const double loop_s = round_s + eval_s + ckpt_s;
  const double train_attr =
      static_cast<double>(replay.local_steps) * step.total.median() * 1e-6;
  const double encode_attr =
      rows_encoded *
      (encode_us + (wire_codec != quant::Codec::kIdentity ? decode_us : 0.0) +
       (link_faults ? frame_us : 0.0)) * 1e-6;
  const double gossip_attr = (rows_mixed / static_cast<double>(n)) * mix.median() * 1e-6;
  const double attributed = train_attr + encode_attr + gossip_attr + eval_s + ckpt_s;
  const double unattributed = loop_s > 0.0 ? 1.0 - attributed / loop_s : 0.0;

  const obs::PhaseStats& phases = engine.phase_stats();
  const auto phase_s = [&phases](obs::Phase p) {
    return phases.seconds[static_cast<std::size_t>(p)];
  };
  const sweep::TrialResult& swept = reference->report.trials.at(spec.index);
  const obs::PhaseStats& swept_phases = swept.result.telemetry.phases;
  const double swept_total = swept_phases.total_seconds();
  const double replay_total = phases.total_seconds() + eval_s + ckpt_s;
  std::printf("closure for trial %zu (%s): per-call time x exact count vs the "
              "replay's phases\n", spec.index, workload.name.c_str());
  std::printf("  %-9s %12s %12s %8s %14s %14s\n", "phase", "attributed_s",
              "measured_s", "ratio", "replay_share", "sweep_share");
  const auto row_out = [&](const char* name, double attr, double measured,
                           obs::Phase phase) {
    const std::size_t p = static_cast<std::size_t>(phase);
    std::printf("  %-9s %12.6f %12.6f %8.3f %14.3f %14.3f\n", name, attr,
                measured, measured > 0.0 ? attr / measured : 0.0,
                replay_total > 0.0 ? measured / replay_total : 0.0,
                swept_total > 0.0 ? swept_phases.seconds[p] / swept_total : 0.0);
  };
  row_out("train", train_attr, phase_s(obs::Phase::kTrain), obs::Phase::kTrain);
  row_out("encode", encode_attr, phase_s(obs::Phase::kEncode), obs::Phase::kEncode);
  row_out("gossip", gossip_attr, phase_s(obs::Phase::kGossip), obs::Phase::kGossip);
  row_out("eval", eval_s, eval_s, obs::Phase::kEval);
  row_out("ckpt", ckpt_s, ckpt_s, obs::Phase::kCheckpoint);
  std::printf("  main loop %.6f s, attributed %.6f s, unattributed share %.4f\n",
              loop_s, attributed, unattributed);

  const double setup_s = replay.data_build_s + replay.topology_s + replay.engine_build_s;
  const double total_s = setup_s + loop_s;
  const double share_train = train_attr / total_s;
  const double share_exchange = (encode_attr + gossip_attr + ckpt_s) / total_s;
  const double share_fleet = (setup_s + eval_s + gossip_attr) / total_s;
  bool predicted = true;
  std::string prediction;
  if (workload.name == "fig3_grid") {
    prediction = "nn/tensor dominate";
    predicted = share_train > 0.5;
  } else if (workload.name == "fleet_10k") {
    prediction = "set-up + metrics + graph outweigh training";
    predicted = share_fleet > share_train;
  } else {
    prediction = "quant + fault + graph + ckpt outweigh training";
    predicted = share_exchange > share_train;
  }
  std::printf("attribution: train %.3f, exchange %.3f, set-up %.3f, eval %.3f "
              "of %.6f s; prediction (%s): %s\n",
              share_train, share_exchange, setup_s / total_s, eval_s / total_s,
              total_s, prediction.c_str(), predicted ? "met" : "NOT met");

  // --- per-layer metrics ----------------------------------------------------
  metrics.add_timing("sweep.trial_s", "s", trial_walls, 1.0);
  metrics.add("sweep.worker_busy_share", "ratio", worker_busy.median(),
              "Σ trial wall / (workers × wall), n=" + std::to_string(worker_busy.size()));
  metrics.add_timing("sim.train_round_ms", "ms", replay.train_round_s, 1e3);
  metrics.add_timing("sim.sync_round_ms", "ms", replay.sync_round_s, 1e3);
  metrics.add("sim.engine_build_s", "s", replay.engine_build_s, "replay");
  metrics.add("sim.local_steps", "count", static_cast<double>(replay.local_steps),
              "Σ nodes_trained × E");
  metrics.add("sim.unattributed_share", "ratio", unattributed, "closure remainder");
  metrics.add("sim.attribution_met", "bool", predicted ? 1.0 : 0.0, prediction);
  const std::string step_n = "n=" + std::to_string(step.total.size()) +
                             ", batch " + std::to_string(batch);
  metrics.add("nn.sgd_step_us", "us", step.total.median(), step_n);
  metrics.add("nn.forward_us", "us", step.forward.median(), step_n);
  metrics.add("nn.loss_us", "us", step.loss.median(), step_n);
  metrics.add("nn.backward_us", "us", step.backward.median(), step_n);
  metrics.add("nn.optimizer_us", "us", step.optimizer.median(), step_n);
  metrics.add("data.sample_us", "us", step.sample.median(), step_n);
  metrics.add("tensor.gemm_calls", "count", count("gemm.calls"), "registry");
  metrics.add("tensor.gemm_macs", "count", count("gemm.macs"), "registry");
  metrics.add("tensor.gemm_nn_us", "us", gemm.nn_us, "mean over Linear shapes");
  metrics.add("tensor.gemm_nt_us", "us", gemm.nt_us, "mean over Linear shapes");
  metrics.add("tensor.gemm_tn_us", "us", gemm.tn_us, "mean over Linear shapes");
  metrics.add("tensor.gemm_gmacs_per_s", "GMAC/s", gemm.gmacs_per_s, "step shapes");
  metrics.add("graph.mix_ms", "ms", mix.median() * 1e-3,
              std::string(rig.mixing_ref.is_sparse() ? "apply_mixing_sharded"
                                                     : "apply_mixing_blocked") +
                  ", n=" + std::to_string(mix.size()));
  metrics.add("graph.rows_mixed", "count", rows_mixed, "registry");
  double mean_degree = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mean_degree += static_cast<double>(rig.mixing_ref.degree(i));
  }
  mean_degree /= static_cast<double>(n);
  metrics.add("graph.mix_bytes", "bytes",
              rows_mixed * (mean_degree + 2.0) * static_cast<double>(dim) * 4.0,
              "computed: rows × (degree + 2) rows of fp32");
  metrics.add("quant.encode_us", "us", encode_us,
              std::string("trial codec ") + quant::codec_token(wire_codec));
  metrics.add("quant.decode_us", "us", decode_us,
              std::string("trial codec ") + quant::codec_token(wire_codec));
  metrics.add("quant.rows_encoded", "count", rows_encoded, "registry");
  metrics.add("quant.wire_bytes", "bytes", count("codec.wire_bytes"), "registry");
  metrics.add("fault.frame_us", "us", frame_us, "encode_frame + verify_frame");
  metrics.add("fault.delivery_rate", "ratio",
              faults.attempted_deliveries != 0
                  ? static_cast<double>(faults.attempted_deliveries -
                                        faults.dropped - faults.corrupt) /
                        static_cast<double>(faults.attempted_deliveries)
                  : 1.0,
              std::to_string(faults.attempted_deliveries) + " attempted");
  metrics.add("fault.frames_rejected", "count", static_cast<double>(faults.corrupt),
              "CRC rejections");
  metrics.add("ckpt.write_ms", "ms", replay.ckpt_s.median() * 1e3,
              "per image, n=" + std::to_string(replay.ckpt_s.size()));
  metrics.add("ckpt.bytes_written", "bytes", count("ckpt.bytes_written"), "registry");
  metrics.add("ckpt.files_written", "count", count("ckpt.files_written"), "registry");
  metrics.add("metrics.eval_ms", "ms", replay.eval_s.median() * 1e3,
              "per evaluate_fleet call, n=" + std::to_string(replay.eval_s.size()));
  metrics.add("metrics.eval_samples", "count", static_cast<double>(replay.eval_samples),
              "nodes × samples × calls");
  metrics.add("data.build_s", "s", builds.median(), "median of 3 builds");
  metrics.add("util.pool_busy_share", "ratio", pool_busy.median(),
              "node pool busy / (workers × wall), n=" + std::to_string(pool_busy.size()));
  metrics.add("trace.node_rounds_per_s", "1/s", tracer_rate.median(),
              "program tracer on, n=" + std::to_string(tracer_reps) + " sweeps");
  metrics.add("trace.overhead_share", "ratio", 1.0 - tracer_ratio.median(),
              "1 - median(default / traced trial wall), " +
                  pairing_note(tracer_ratio, tracer_reps));
  metrics.add("obs.overhead_share", "ratio", 1.0 - obs_ratio.median(),
              "1 - median(registry-off / default trial wall), " +
                  pairing_note(obs_ratio, obs_off_reps));

  const fs::path trace_path = work / "trace.json";
  log.write(trace_path);
  std::printf("trace: %s (%zu spans); program spans: %s\n",
              trace_path.string().c_str(), log.size(), program_trace.string().c_str());
}

}  // namespace perfbench
