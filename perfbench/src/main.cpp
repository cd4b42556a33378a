// Repository benchmark program.
//
//   perfbench --workload fig3_grid --seed 1 --seconds 20 --trace 0
//
// --trace 0 repeats the workload's sweep (sweep::SweepRunner::run) for
// --seconds and reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a separate traced run. Either way the last line
// of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when a result was printed, 2 on bad arguments.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "obs/registry.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool invalid_trial = false;
  std::string git_sha = "unavailable";
  std::string source_digest = "unavailable";
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <fig3_grid|fleet_10k|"
               "lossy_exchange> --seed N --seconds S --trace 0|1\n"
               "       [--tiny] [--invalid-trial] [--git-sha S]\n"
               "       [--source-digest S]\n",
               problem.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        args.workload = value();
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value());
      } else if (flag == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        args.trace = v == "1";
      } else if (flag == "--tiny") {
        args.tiny = true;
      } else if (flag == "--invalid-trial") {
        args.invalid_trial = true;
      } else if (flag == "--git-sha") {
        args.git_sha = value();
      } else if (flag == "--source-digest") {
        args.source_digest = value();
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Workload workload;
  try {
    workload = make_workload(args.workload, args.seed, args.tiny,
                             args.invalid_trial);
  } catch (const std::exception& e) {
    usage(e.what());
  }

  const std::size_t nproc = affinity_cpus();
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const ThreadPlan plan = plan_threads(nproc, hardware, workload.trials.size());
  if (nproc < hardware) {
    std::fprintf(stderr,
                 "perfbench: this process may run on %zu of %zu CPUs, so the "
                 "sweep runs its trials inline on a node pool of %zu threads "
                 "instead of one pinned trial per CPU\n",
                 nproc, hardware, nproc);
  }
  // The node-level pool (util::ThreadPool::global) reads this once, on
  // first use, which is after this point.
  setenv("SKIPTRAIN_THREADS", std::to_string(plan.node_threads).c_str(), 1);
  // The registry and pool busy tracking are on by default; pinned here so
  // SKIPTRAIN_OBS in the environment cannot change what is measured.
  obs::set_enabled(true);

  Context context;
  context.workload = workload.name;
  context.seed = args.seed;
  context.git_sha = args.git_sha;
  context.source_digest = args.source_digest;
  context.cpu_model = cpu_model();
  context.plan = plan;
  context.traced = args.trace;
  context.seconds = args.seconds;

  // Outputs stay inside the checkout the program runs from; each run
  // replaces the previous run's outputs of the same workload and mode.
  const fs::path work = fs::path(".bench_build/perfbench/out") /
                        (workload.name + (args.trace ? "-traced" : ""));
  fs::remove_all(work);
  fs::create_directories(work);

  MetricSet metrics;
  Outcome outcome;
  try {
    if (args.trace) {
      run_traced(workload, plan, args.seconds, work, metrics, outcome);
    } else {
      run_untraced(workload, plan, args.seconds, work, metrics, outcome);
    }
  } catch (const std::exception& e) {
    outcome.fail(std::string("benchmark aborted: ") + e.what());
  }
  if (!metrics.all_finite()) outcome.fail("a metric is not finite");
  if (outcome.attempted == 0) {
    outcome.attempted = 1;
    outcome.failed = std::max<std::size_t>(outcome.failed, 1);
  }

  const std::string context_text = context_json(context);
  std::printf("%s (%s), seed %llu, %zu trials, trial pool %zu x node pool %zu "
              "threads (nproc %zu)\n%s",
              workload.name.c_str(), args.trace ? "traced" : "untraced",
              static_cast<unsigned long long>(args.seed),
              workload.trials.size(), plan.trial_workers, plan.node_threads,
              nproc, metrics.table().c_str());
  for (const std::string& problem : outcome.problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }
  const std::string result =
      std::string("{\"correct\": ") + (outcome.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(outcome.attempted) +
      ", \"failed\": " + std::to_string(outcome.failed) +
      ", \"metrics\": " + metrics.json() + "}";
  {
    // The full record (context + result) also lands next to the run's
    // other outputs, so numbers can be compared across machines later.
    std::ofstream record(work / "record.json");
    record << "{\"context\": " << context_text << ", \"result\": " << result
           << "}\n";
  }
  std::printf("context: %s\n%s\n", context_text.c_str(), result.c_str());
  std::fflush(stdout);
  return 0;
}
