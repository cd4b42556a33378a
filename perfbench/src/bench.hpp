// Shared pieces of the repository benchmark program: workload definitions,
// the thread plan, sample statistics, the in-memory span log, and the
// metric set printed as the program's final JSON line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/stopwatch.hpp"
#include "sweep/sweep.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace skiptrain;

/// One benchmark workload: a sweep grid plus how the sweep is run and
/// which of its trials the traced run replays.
struct Workload {
  std::string name;
  sweep::SweepGrid grid;
  std::vector<sweep::TrialSpec> trials;  // grid.expand(), cached
  std::size_t checkpoint_every = 0;      // > 0: sweeps write fleet images
  std::size_t representative = 0;        // trial index the traced run replays
};

/// Builds workload `name` from `seed`. `tiny` shrinks every size for smoke
/// tests; `invalid_trial` appends a trial with degree >= nodes (fig3_grid
/// only) so the failure path can be exercised. Throws on unknown names.
Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny,
                       bool invalid_trial);

/// Threads the sweep uses: trial workers × node-level pool threads, which
/// never exceeds `nproc` (the CPUs this process may run on).
struct ThreadPlan {
  std::size_t nproc = 1;
  std::size_t hardware = 1;  // std::thread::hardware_concurrency()
  std::size_t trial_workers = 1;
  std::size_t node_threads = 1;
  bool pinned_serial = false;  // one serial trial per trial worker
};

/// Chooses the plan for `trials` trials. SweepRunner pins each trial to its
/// worker only when the workers reach `hardware`, so grids with at least
/// that many trials, and `nproc` == `hardware`, run one pinned-serial trial
/// per CPU (node pool 1). Everything else, including every grid in a
/// cpuset that allows fewer CPUs than the machine has, runs its trials
/// inline on a node pool of `nproc` threads.
ThreadPlan plan_threads(std::size_t nproc, std::size_t hardware,
                        std::size_t trials);

/// A set of timing samples reported as median plus tail: the highest
/// percentile (from 99.9, 99, 95, 90, 75, 50) with at least ten samples
/// beyond it, or the maximum when there are fewer than twenty samples.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] double median() const;
  [[nodiscard]] double sum() const;
  /// Tail value and the quantile it sits at (1.0 = maximum).
  [[nodiscard]] std::pair<double, double> tail() const;
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// In-memory span log written at the end in Chrome trace-event format
/// ({"traceEvents": [...]}, complete "X" events), which
/// tools/trace_summary.py reads. Spans are recorded only from the
/// benchmark's own files, around calls into the simulator's layers.
/// Recording is an append of a name pointer and two timestamps, so it
/// perturbs the microsecond-scale calls it brackets as little as possible.
class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 18); }
  /// `name` must outlive the log: a string literal or an intern() result.
  void add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
           std::string args = {}) {
    spans_.push_back({name, start_ns, end_ns, std::move(args)});
  }
  /// Stable copy of a computed span name.
  const char* intern(const std::string& name) {
    return names_.emplace_back(name).c_str();
  }
  void write(const fs::path& path) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::string args;  // JSON object body, without braces
  };
  std::vector<Span> spans_;
  std::deque<std::string> names_;
};

/// Times one call into a layer: records a span and returns microseconds.
template <typename Fn>
double timed_us(SpanLog& log, const char* name, Fn&& fn) {
  const std::uint64_t start = obs::now_ns();
  fn();
  const std::uint64_t end = obs::now_ns();
  log.add(name, start, end);
  return static_cast<double>(end - start) * 1e-3;
}

/// Metrics in print order with their units; `note` records the sample
/// count or the provenance shown in the human-readable table.
class MetricSet {
 public:
  void add(const std::string& name, const std::string& unit, double value,
           const std::string& note = {});
  /// Median and tail of `samples` as `<prefix>_p50` / `<prefix>_tail`.
  void add_timing(const std::string& prefix, const std::string& unit,
                  const Samples& samples, double scale);
  [[nodiscard]] bool all_finite() const;
  /// {"name": {"value": v, "unit": u}, ...}
  [[nodiscard]] std::string json() const;
  [[nodiscard]] std::string table() const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value;
    std::string note;
  };
  std::vector<Entry> entries_;
};

/// One timed run of the workload's sweep.
struct SweepRep {
  sweep::SweepReport report;
  std::uint64_t csv_digest = 0;
  double node_rounds = 0.0;  // Σ over ok trials of nodes × rounds executed
  double setup_s = 0.0;      // Σ over trials of the setup phase
  double node_pool_busy_share = 0.0;
};

/// Runs the sweep once with a cold dataset cache, writes its summary CSV
/// to `work/summary.csv` and digests it. Checkpoint images go under
/// `work/ckpt`, which is removed afterwards.
SweepRep run_sweep_rep(const Workload& workload, const ThreadPlan& plan,
                       const fs::path& work);

/// Node-rounds per second of a finished rep.
double node_rounds_per_s(const SweepRep& rep);

/// FNV-1a 64 of a file's bytes.
std::uint64_t file_digest(const fs::path& path);
std::string hex64(std::uint64_t value);

/// Context stamped into every result record.
struct Context {
  std::string workload;
  std::uint64_t seed = 0;
  std::string git_sha;
  std::string source_digest;
  std::string cpu_model;
  ThreadPlan plan;
  bool traced = false;
  double seconds = 0.0;
};
std::string context_json(const Context& context);

/// What one invocation reports on its last line.
struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }

  /// Counts a sweep's trials; each failed trial is a failed operation.
  void count(const sweep::SweepReport& report) {
    attempted += report.trials.size();
    failed += report.failures;
    for (const sweep::TrialResult& trial : report.trials) {
      if (!trial.ok()) {
        fail("trial " + std::to_string(trial.spec.index) + " failed: " +
             trial.error);
      }
    }
  }
};

/// Untraced run: repeats the sweep for `seconds` and fills the end-to-end
/// metrics.
void run_untraced(const Workload& workload, const ThreadPlan& plan,
                  double seconds, const fs::path& work, MetricSet& metrics,
                  Outcome& outcome);

/// Traced run: sweep reps for the sweep/util layers and the tracing
/// overhead, then a serial replay of the representative trial through the
/// public API with per-layer timing, closure, and the trace file.
void run_traced(const Workload& workload, const ThreadPlan& plan,
                double seconds, const fs::path& work, MetricSet& metrics,
                Outcome& outcome);

std::string json_escape(const std::string& text);

}  // namespace perfbench
