// SweepRunner: expands a SweepGrid and executes its trials concurrently.
//
// Parallelism model: one util::ThreadPool runs the trials, one per worker,
// and the same pool runs their node-level loops. A trial's parallel_for
// (ThreadPool::current() is the sweep pool on its workers) publishes its
// chunks there and runs them itself unless an idle worker claims some
// first. While trials are queued every worker runs a whole trial; once
// the queue drains, the workers left without a trial help the running
// trials' node loops, so a sweep's tail keeps every core busy. The pool
// has min(threads, max(trials, hardware threads)) workers. With
// threads == 1 the trials run inline on the caller, their node loops on
// the global pool.
//
// Determinism: trials are pure functions of their TrialSpec (per-node RNG
// streams, counter-based scheduler draws, index-ordered reductions), the
// dataset cache shares one immutable build per DataConfig, and the result
// sink orders rows by trial index — so the summary CSV is byte-identical
// at any worker count.
//
// Failures: a throwing trial is caught, recorded as a failed row with its
// error text, and counted in SweepReport::failures. It never tears down
// the sweep and is never silently dropped.
#pragma once

#include <string>
#include <vector>

#include "obs/phase.hpp"
#include "sweep/dataset_cache.hpp"
#include "sweep/grid.hpp"
#include "sweep/result_sink.hpp"
#include "util/thread_pool.hpp"

namespace skiptrain::sweep {

struct SweepOptions {
  /// Sweep workers (see sweep_pool_size). 0 = one per hardware thread;
  /// 1 = run the trials inline, one after another, with node-level
  /// parallelism on the global pool.
  std::size_t threads = 0;

  /// Print a one-line progress note per finished trial to stderr.
  bool verbose = false;

  /// Crash-resumable sweeps (ckpt/trial_store). When set, every finished
  /// trial's result is persisted to `<checkpoint_dir>/trial_<i>.result`
  /// (atomically, plus a manifest line), and trials additionally write
  /// in-flight fleet images every `checkpoint_every` rounds. With
  /// `resume`, completed trials are loaded instead of re-run and
  /// in-flight trials restart from their last image — the summary CSV
  /// comes out byte-identical to an uninterrupted sweep.
  std::string checkpoint_dir{};
  std::size_t checkpoint_every = 0;
  bool resume = false;

  /// In-flight fleet-image generations each trial retains (0/1 = single
  /// image). A resume falls back to the newest generation that validates,
  /// so one corrupt/torn image costs at most checkpoint_every rounds.
  std::size_t keep_generations = 1;
};

struct SweepReport {
  std::string name;
  std::vector<TrialResult> trials;  // grid-expansion (trial-index) order
  std::size_t failures = 0;
  std::size_t resumed_trials = 0;  // loaded from checkpoint, not re-run
  double wall_seconds = 0.0;

  /// Aggregate runtime telemetry over every fresh-run trial (resumed
  /// trials contribute only their store-load time). Observational only —
  /// exported by sweep::write_telemetry_json, never part of the CSV.
  obs::TrialTelemetry telemetry;

  /// Sweep-pool stats (threads > 1 path; zero when trials ran inline on
  /// the caller): busy time covers trials and helped node chunks. Busy
  /// time is tracked only while obs::enabled().
  util::ThreadPool::PoolStats trial_pool{};

  bool all_ok() const { return failures == 0; }

  /// Writes the summary CSV (ResultSink schema; no wall-clock columns).
  void write_csv(const std::string& path) const;

  /// Aligned console table of all trials.
  [[nodiscard]] std::string render_table() const;

  /// First trial matching `predicate`, or nullptr.
  template <typename Predicate>
  const TrialResult* find(Predicate predicate) const {
    for (const TrialResult& trial : trials) {
      if (predicate(trial)) return &trial;
    }
    return nullptr;
  }

  /// First trial of the (dataset, degree, algorithm) cell, or nullptr —
  /// the lookup every figure/table bench does per report cell.
  const TrialResult* find_trial(const std::string& dataset,
                                std::size_t degree,
                                sim::Algorithm algorithm) const;
};

/// Workers of the sweep pool for `threads` requested (0 = `hardware`),
/// `trials` trials and `hardware` threads: min(requested, max(trials,
/// hardware)). More workers than trials is fine up to the machine's size,
/// since idle workers help the running trials' node loops.
[[nodiscard]] std::size_t sweep_pool_size(std::size_t threads,
                                          std::size_t trials,
                                          std::size_t hardware);

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Expands and runs the grid; blocks until every trial has finished.
  SweepReport run(const SweepGrid& grid);

  /// The shared dataset cache (persists across run() calls, so chained
  /// sweeps over the same data reuse the builds).
  DatasetCache& cache() { return cache_; }

 private:
  /// Runs (or, under --resume, loads) one trial. `resumed` is set when
  /// the result came from the trial store instead of a fresh run.
  TrialResult run_trial(const TrialSpec& spec, bool& resumed);

  SweepOptions options_;
  DatasetCache cache_;
};

}  // namespace skiptrain::sweep
