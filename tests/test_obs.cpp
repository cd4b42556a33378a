// Telemetry subsystem tests: exactness of the sharded registry under
// concurrent writers, span nesting in the emitted trace JSON, and the
// zero-allocation guarantee on the disabled hot path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/phase.hpp"
#include "obs/registry.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"

// --- global allocation counter for the zero-allocation test ---------------
// Replacing the global operators in ONE test TU is binary-wide, so the
// counter must stay cheap: one relaxed add per allocation.
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

// The nothrow forms too: every form that can reach the replaced deletes
// must come from malloc.
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

namespace skiptrain::obs {
namespace {

TEST(ObsRegistry, ConcurrentCounterHammerMergesExactly) {
  set_enabled(true);
  const Counter counter_handle = counter("test.hammer.count");
  const Histogram hist_handle = hist("test.hammer.hist");
  // The baseline snapshot must outlive before_hist: find_histogram
  // returns a pointer into the snapshot's own vector (dangling if taken
  // from a temporary — TSan caught exactly that).
  const Snapshot before = snapshot();
  const std::uint64_t before_count =
      before.counter_value("test.hammer.count");
  const HistogramValue* before_hist =
      before.find_histogram("test.hammer.hist");
  const std::uint64_t before_hist_count =
      before_hist != nullptr ? before_hist->count : 0;
  const std::uint64_t before_hist_sum =
      before_hist != nullptr ? before_hist->sum : 0;

  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kOpsPerThread = 20000;
  // Deliberately raw threads: the hammer must exercise shard
  // registration/retirement from thread exit, which pool workers
  // (which never exit mid-test) cannot.
  std::vector<std::thread> threads;  // lint:allow(raw-thread)
  threads.reserve(kThreads);
  for (std::size_t th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th] {
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        counter_handle.add(1);
        hist_handle.record(th + 1);  // thread th contributes value th+1
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Writers have exited: live shards + retired totals must be EXACT.
  // (This also exercises the retired-shard path — every thread's shard
  // was merged into the retired totals on exit.)
  const Snapshot snap = snapshot();
  EXPECT_EQ(snap.counter_value("test.hammer.count") - before_count,
            kThreads * kOpsPerThread);
  const HistogramValue* h = snap.find_histogram("test.hammer.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count - before_hist_count, kThreads * kOpsPerThread);
  std::uint64_t expected_sum = 0;
  for (std::size_t th = 0; th < kThreads; ++th) {
    expected_sum += (th + 1) * kOpsPerThread;
  }
  EXPECT_EQ(h->sum - before_hist_sum, expected_sum);
  EXPECT_GE(h->max, kThreads);
}

TEST(ObsRegistry, RegistrationIsIdempotent) {
  const Counter a = counter("test.idempotent");
  const Counter b = counter("test.idempotent");
  EXPECT_EQ(a.id(), b.id());
}

TEST(ObsRegistry, DisabledRecordsNothing) {
  set_enabled(true);
  const Counter c = counter("test.disabled");
  c.add(5);
  const std::uint64_t before = snapshot().counter_value("test.disabled");
  set_enabled(false);
  c.add(100);
  set_enabled(true);
  EXPECT_EQ(snapshot().counter_value("test.disabled"), before);
}

TEST(ObsRegistry, GaugeTracksLastValueAndHighWaterMark) {
  set_enabled(true);
  const Gauge g = gauge("test.gauge");
  g.set(7);
  g.set(42);
  g.set(3);
  const Snapshot snap = snapshot();
  const GaugeValue* value = snap.find_gauge("test.gauge");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->value, 3);
  EXPECT_GE(value->max, 42);
}

TEST(ObsRegistry, HistogramBucketsArePowersOfTwo) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 0u);
  EXPECT_EQ(Histogram::bucket_of(2), 1u);
  EXPECT_EQ(Histogram::bucket_of(3), 1u);
  EXPECT_EQ(Histogram::bucket_of(4), 2u);
  EXPECT_EQ(Histogram::bucket_of(1024), 10u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 63u);
}

TEST(ObsRegistry, QuantileUpperBoundBracketsTheData) {
  set_enabled(true);
  const Histogram h = hist("test.quantile");
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  // find_histogram returns a pointer into the snapshot's own storage, so
  // the snapshot must be a named object, not a destroyed temporary.
  const Snapshot snap = snapshot();
  const HistogramValue* value = snap.find_histogram("test.quantile");
  ASSERT_NE(value, nullptr);
  // p50 of 1..1000 is 500; the bucket upper bound may overshoot by < 2x.
  const std::uint64_t p50 = value->quantile_upper_bound(0.5);
  EXPECT_GE(p50, 500u);
  EXPECT_LT(p50, 1024u);
  EXPECT_GE(value->quantile_upper_bound(1.0), 1000u);
}

// --- tracing ---------------------------------------------------------------

struct ParsedSpan {
  std::string name;
  double ts = 0.0;
  double dur = 0.0;
  unsigned tid = 0;
};

std::vector<ParsedSpan> parse_trace(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<ParsedSpan> spans;
  std::string line;
  while (std::getline(in, line)) {
    const auto name_pos = line.find("\"name\":\"");
    if (name_pos == std::string::npos) continue;
    ParsedSpan span;
    const auto name_start = name_pos + 8;
    span.name = line.substr(name_start, line.find('"', name_start) -
                                            name_start);
    EXPECT_EQ(std::sscanf(line.c_str() + line.find("\"ts\":"),
                          "\"ts\":%lf,\"dur\":%lf,\"pid\":0,\"tid\":%u",
                          &span.ts, &span.dur, &span.tid),
              3)
        << line;
    spans.push_back(span);
  }
  return spans;
}

TEST(ObsTrace, NestedSpansAreContainedAndOrdered) {
  set_enabled(true);
  const std::string path =
      (std::filesystem::temp_directory_path() / "obs_trace_test.json")
          .string();
  std::filesystem::remove(path);
  ASSERT_TRUE(start_tracing(path));
  EXPECT_TRUE(tracing_active());
  // A second start while active must refuse (the caller keeps ownership).
  EXPECT_FALSE(start_tracing(path + ".second"));
  {
    OBS_SPAN("outer");
    {
      OBS_SPAN("inner");
    }
    {
      OBS_SPAN("inner");
    }
  }
  stop_tracing();
  EXPECT_FALSE(tracing_active());

  const std::vector<ParsedSpan> spans = parse_trace(path);
  ASSERT_EQ(spans.size(), 3u);
  const ParsedSpan* outer = nullptr;
  std::vector<const ParsedSpan*> inners;
  for (const ParsedSpan& span : spans) {
    if (span.name == "outer") outer = &span;
    if (span.name == "inner") inners.push_back(&span);
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_EQ(inners.size(), 2u);
  for (const ParsedSpan* inner : inners) {
    EXPECT_EQ(inner->tid, outer->tid);
    EXPECT_GE(inner->ts, outer->ts);
    EXPECT_LE(inner->ts + inner->dur, outer->ts + outer->dur + 1e-3);
  }
  // The two inner spans are disjoint and in program order.
  EXPECT_LE(inners[0]->ts + inners[0]->dur, inners[1]->ts + 1e-3);

  // The file is a complete, parseable JSON document (no trailing comma,
  // closed array/object).
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(text.find(",\n]"), std::string::npos);
  EXPECT_NE(text.find("\n]}"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(ObsTrace, SpansDroppedWhenNotTracing) {
  EXPECT_FALSE(tracing_active());
  OBS_SPAN("never.emitted");  // must be a safe no-op
  SUCCEED();
}

// --- phase accounting ------------------------------------------------------

TEST(ObsPhase, NotePhaseAccumulatesAndMerges) {
  PhaseStats stats;
  const std::uint64_t start = now_ns();
  note_phase(stats, Phase::kTrain, start);
  note_phase(stats, Phase::kTrain, start);
  note_phase(stats, Phase::kGossip, start);
  EXPECT_EQ(stats.calls[static_cast<std::size_t>(Phase::kTrain)], 2u);
  EXPECT_EQ(stats.calls[static_cast<std::size_t>(Phase::kGossip)], 1u);
  EXPECT_GE(stats.total_seconds(), 0.0);

  PhaseStats other;
  other.add(Phase::kEval, 2'000'000'000ULL);  // 2 s
  stats.merge(other);
  EXPECT_EQ(stats.calls[static_cast<std::size_t>(Phase::kEval)], 1u);
  EXPECT_NEAR(stats.seconds[static_cast<std::size_t>(Phase::kEval)], 2.0,
              1e-9);

  TrialTelemetry a;
  a.phases = stats;
  a.wire_bytes = 10;
  a.rounds = 3;
  TrialTelemetry b;
  b.wire_bytes = 32;
  b.rounds = 4;
  b.merge(a);
  EXPECT_EQ(b.wire_bytes, 42u);
  EXPECT_EQ(b.rounds, 7u);
  EXPECT_EQ(b.phases.calls[static_cast<std::size_t>(Phase::kTrain)], 2u);
}

TEST(ObsPhase, PhaseNamesAreStable) {
  EXPECT_STREQ(phase_name(Phase::kTrain), "train");
  EXPECT_STREQ(phase_span_name(Phase::kGossip), "round.gossip");
  EXPECT_STREQ(phase_name(Phase::kCheckpoint), "checkpoint");
}

TEST(ObsStopWatch, MeasuresElapsedTime) {
  const StopWatch watch;
  EXPECT_GE(watch.seconds(), 0.0);
  EXPECT_LT(watch.seconds(), 60.0);
}

// --- zero allocation on the hot path ---------------------------------------

TEST(ObsRegistry, RecordingThroughHandlesNeverAllocates) {
  set_enabled(true);
  // Pre-warm: registration and this thread's shard may allocate ONCE.
  const Counter c = counter("test.zeroalloc.count");
  const Histogram h = hist("test.zeroalloc.hist");
  const Gauge g = gauge("test.zeroalloc.gauge");
  c.add(1);
  h.record(1);
  g.set(1);

  // Enabled-path recording through existing handles: no allocation.
  std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    c.add(1);
    h.record(static_cast<std::uint64_t>(i));
    g.set(i);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before)
      << "enabled-mode record allocated";

  // Disabled mode: the same calls plus untraced spans are allocation-free.
  set_enabled(false);
  before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    c.add(1);
    h.record(static_cast<std::uint64_t>(i));
    g.set(i);
    OBS_SPAN("test.zeroalloc.span");
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before)
      << "disabled-mode record allocated";
  set_enabled(true);
}

}  // namespace
}  // namespace skiptrain::obs
