// Workload definitions, the thread plan, statistics and output helpers,
// and the untraced end-to-end loop.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "obs/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

// The synthetic datasets, and the initial model they seed, are part of a
// workload's definition, like a benchmark corpus: they stay at this data
// seed. The workload seed drives every random draw of the simulation
// itself (topology, mini-batch sampling, churn, fault and schedule draws).
constexpr std::uint64_t kDataSeed = 42;

constexpr const char* kChaoticFaults =
    "drop:0.05,corrupt:0.01,dup:0.02,crash:0.004,io:0.1";

void pin_data_seed(sweep::SweepGrid& grid) {
  auto preset_finalize = grid.finalize;
  grid.finalize = [preset_finalize](sweep::TrialSpec& spec) {
    if (preset_finalize) preset_finalize(spec);
    spec.data.seed = kDataSeed;
  };
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny,
                       bool invalid_trial) {
  Workload workload;
  workload.name = name;
  sweep::PresetParams params;
  params.seed = seed;
  // The trial the traced run replays (fleet_10k has only one).
  std::function<bool(const sweep::TrialSpec&)> representative =
      [](const sweep::TrialSpec&) { return true; };
  if (name == "fig3_grid") {
    // The paper's Fig. 3 Γtrain×Γsync grid (Γ ≤ 2) at degrees 6/8/10 over
    // both synthetic datasets: local training is ~95% of the work.
    params.dataset = tiny ? "cifar" : "both";
    params.gamma_max = tiny ? 1 : 2;
    params.nodes = tiny ? 12 : 32;
    params.rounds = tiny ? 6 : 40;
    workload.grid = sweep::make_preset("fig3", params);
    representative = [gamma = params.gamma_max](const sweep::TrialSpec& spec) {
      return spec.data.dataset == "cifar" && spec.options.degree == 8 &&
             spec.options.gamma_train == gamma && spec.options.gamma_sync == gamma;
    };
    if (invalid_trial) {
      // degree >= nodes cannot form a regular graph: the trial must fail
      // and be counted, not abort the sweep.
      workload.grid.degrees.push_back(params.nodes);
    }
  } else if (name == "fleet_10k") {
    // The large_fleet shape: set-up, plane memory, sharded gossip and
    // evaluation dominate while training is small.
    if (tiny) params.nodes = 300;
    workload.grid = sweep::make_preset("large_fleet", params);
  } else if (name == "lossy_exchange") {
    // Sync-heavy chaos grid: codecs × {no faults, the chaotic_fleet plan}
    // under churn with in-flight checkpoints — the encode, CRC-frame,
    // difference-form and checkpoint branches fig3_grid bypasses.
    params.nodes = tiny ? 24 : 128;
    params.rounds = tiny ? 16 : 144;
    workload.grid = sweep::make_preset("chaotic_fleet", params);
    sweep::SweepGrid& grid = workload.grid;
    grid.name = "lossy_exchange";
    grid.algorithms = {sim::Algorithm::kSkipTrain};
    grid.degrees = {8};
    grid.gamma_trains = {1};
    grid.gamma_syncs = {8};
    grid.base.local_steps = 2;
    grid.codecs = {quant::Codec::kIdentity, quant::Codec::kFp16,
                   quant::Codec::kInt8};
    grid.scenarios = {"churn"};
    grid.faults = {"none", kChaoticFaults};
    grid.keep_generations = 3;
    workload.checkpoint_every = 8;
    representative = [](const sweep::TrialSpec& spec) {
      return spec.options.exchange_codec == quant::Codec::kInt8 &&
             spec.options.faults != "none";
    };
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (invalid_trial && name != "fig3_grid") {
    throw std::invalid_argument("--invalid-trial is supported on fig3_grid only");
  }
  pin_data_seed(workload.grid);
  workload.trials = workload.grid.expand();
  const auto it = std::find_if(workload.trials.begin(), workload.trials.end(),
                               representative);
  workload.representative = it != workload.trials.end() ? it->index : 0;
  return workload;
}

ThreadPlan plan_threads(std::size_t nproc, std::size_t hardware,
                        std::size_t trials) {
  ThreadPlan plan;
  plan.nproc = nproc;
  plan.hardware = hardware;
  // Unpinned trial workers would all feed one node pool, so trial-level
  // parallelism is used only where SweepRunner pins the trials.
  const std::size_t workers = std::min(nproc, trials);
  if (trials > 1 && workers >= hardware) {
    plan.trial_workers = workers;
    plan.pinned_serial = true;
  } else {
    plan.node_threads = nproc;
  }
  return plan;
}

double Samples::median() const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double Samples::sum() const {
  double total = 0.0;
  for (double v : values_) total += v;
  return total;
}

std::pair<double, double> Samples::tail() const {
  if (values_.empty()) return {0.0, 1.0};
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    if (n * (1.0 - q) >= 10.0) {
      const auto rank = static_cast<std::size_t>(std::ceil(q * n));
      return {sorted[std::max<std::size_t>(rank, 1) - 1], q};
    }
  }
  return {sorted.back(), 1.0};
}

void SpanLog::write(const fs::path& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::uint64_t start = span.start_ns >= origin ? span.start_ns - origin : 0;
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(start) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << json_escape(span.name)
        << "\",\"ph\":\"X\"," << buf << ",\"pid\":1,\"tid\":1";
    if (!span.args.empty()) out << ",\"args\":{" << span.args << "}";
    out << "}";
  }
  out << "\n]}\n";
}

void MetricSet::add(const std::string& name, const std::string& unit,
                    double value, const std::string& note) {
  entries_.push_back({name, unit, value, note});
}

void MetricSet::add_timing(const std::string& prefix, const std::string& unit,
                           const Samples& samples, double scale) {
  const auto [tail, q] = samples.tail();
  const std::string n = "n=" + std::to_string(samples.size());
  add(prefix + "_p50", unit, samples.median() * scale, n);
  add(prefix + "_tail", unit, tail * scale,
      n + (q >= 1.0 ? ", max (fewer than 20 samples)"
                    : ", p" + std::to_string(q * 100.0).substr(0, 4)));
}

bool MetricSet::all_finite() const {
  return std::all_of(entries_.begin(), entries_.end(),
                     [](const Entry& e) { return std::isfinite(e.value); });
}

std::string MetricSet::json() const {
  std::ostringstream out;
  out << "{";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(e.value) ? e.value : 0.0);
    out << (i == 0 ? "" : ", ") << "\"" << e.name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << e.unit << "\"}";
  }
  out << "}";
  return out.str();
}

std::string MetricSet::table() const {
  std::ostringstream out;
  char buf[256];
  for (const Entry& e : entries_) {
    std::snprintf(buf, sizeof buf, "  %-30s %16.6g %-8s %s\n", e.name.c_str(),
                  e.value, e.unit.c_str(), e.note.c_str());
    out << buf;
  }
  return out.str();
}

std::uint64_t file_digest(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
    hash ^= static_cast<unsigned char>(*it);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string context_json(const Context& c) {
  std::ostringstream out;
  out << "{\"workload\": \"" << c.workload << "\", \"seed\": " << c.seed
      << ", \"traced\": " << (c.traced ? "true" : "false")
      << ", \"seconds\": " << c.seconds << ", \"git_sha\": \""
      << json_escape(c.git_sha) << "\", \"source_digest\": \""
      << json_escape(c.source_digest) << "\", \"nproc\": " << c.plan.nproc
      << ", \"hardware_concurrency\": " << c.plan.hardware
      << ", \"trial_pool_threads\": " << c.plan.trial_workers
      << ", \"node_pool_threads\": " << c.plan.node_threads
      << ", \"trials_pinned_serial\": " << (c.plan.pinned_serial ? "true" : "false")
      << ", \"cpu_model\": \"" << json_escape(c.cpu_model)
      << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}";
  return out.str();
}

SweepRep run_sweep_rep(const Workload& workload, const ThreadPlan& plan,
                       const fs::path& work) {
  sweep::SweepOptions options;
  options.threads = plan.trial_workers;
  const fs::path ckpt_dir = work / "ckpt";
  if (workload.checkpoint_every != 0) {
    fs::remove_all(ckpt_dir);
    options.checkpoint_dir = ckpt_dir.string();
    options.checkpoint_every = workload.checkpoint_every;
    options.keep_generations = workload.grid.keep_generations;
  }
  const util::ThreadPool::PoolStats pool_before =
      util::ThreadPool::global().stats();
  // A fresh runner per rep: its dataset cache starts cold, so every rep
  // pays the dataset build a user pays once per sweep.
  sweep::SweepRunner runner(options);
  SweepRep rep;
  rep.report = runner.run(workload.grid);
  const util::ThreadPool::PoolStats pool_after =
      util::ThreadPool::global().stats();
  fs::remove_all(ckpt_dir);

  const fs::path csv = work / "summary.csv";
  rep.report.write_csv(csv.string());
  rep.csv_digest = file_digest(csv);
  for (const sweep::TrialResult& trial : rep.report.trials) {
    if (!trial.ok()) continue;
    rep.node_rounds += static_cast<double>(trial.spec.data.nodes) *
                       static_cast<double>(trial.result.telemetry.rounds);
  }
  rep.setup_s = rep.report.telemetry.phases
                    .seconds[static_cast<std::size_t>(obs::Phase::kSetup)];
  const double pool_capacity_ns = static_cast<double>(pool_after.workers) *
                                  rep.report.wall_seconds * 1e9;
  rep.node_pool_busy_share =
      pool_capacity_ns > 0.0
          ? static_cast<double>(pool_after.busy_ns - pool_before.busy_ns) /
                pool_capacity_ns
          : 0.0;
  return rep;
}

double node_rounds_per_s(const SweepRep& rep) {
  return rep.report.wall_seconds > 0.0 ? rep.node_rounds / rep.report.wall_seconds
                                       : 0.0;
}

void run_untraced(const Workload& workload, const ThreadPlan& plan,
                  double seconds, const fs::path& work, MetricSet& metrics,
                  Outcome& outcome) {
  const obs::StopWatch clock;
  Samples rates;
  Samples setups;
  std::uint64_t first_digest = 0;
  sweep::SweepReport first;
  std::size_t reps = 0;
  // At least two reps, so the determinism contract (identical summary CSV
  // bytes for one seed) is checked on every run.
  while (reps < 2 || clock.seconds() < seconds) {
    SweepRep rep = run_sweep_rep(workload, plan, work);
    outcome.count(rep.report);
    rates.add(node_rounds_per_s(rep));
    setups.add(rep.setup_s);
    std::fprintf(stderr, "rep %zu: %.3f s wall, %.1f node-rounds/s, setup %.4f s\n",
                 reps, rep.report.wall_seconds, rates.values().back(), rep.setup_s);
    if (reps == 0) {
      first_digest = rep.csv_digest;
      first = std::move(rep.report);
      sweep::write_telemetry_json((work / "summary.telemetry.json").string(),
                                  first);
    } else if (rep.csv_digest != first_digest) {
      outcome.fail("summary CSV digest changed between reps of one seed (" +
                   hex64(first_digest) + " vs " + hex64(rep.csv_digest) + ")");
    }
    ++reps;
  }

  double acc_sum = 0.0;
  double train_wh = 0.0;
  std::size_t ok_trials = 0;
  for (const sweep::TrialResult& trial : first.trials) {
    if (!trial.ok()) continue;
    acc_sum += trial.result.final_mean_accuracy;
    train_wh += trial.result.total_training_wh;
    ++ok_trials;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const std::string n = "n=" + std::to_string(reps) + " sweeps";
  metrics.add("node_rounds_per_s", "1/s", rates.median(), "median, " + n);
  metrics.add("setup_s", "s", setups.median(),
              "median of Σ trial setup, " + n);
  metrics.add("peak_rss_mb", "MiB", static_cast<double>(usage.ru_maxrss) / 1024.0,
              "getrusage peak");
  metrics.add("final_acc", "%",
              ok_trials != 0 ? 100.0 * acc_sum / static_cast<double>(ok_trials)
                             : 0.0,
              "mean over " + std::to_string(ok_trials) + " trials");
  metrics.add("train_wh", "Wh", train_wh, "csv digest " + hex64(first_digest));
}

}  // namespace perfbench
