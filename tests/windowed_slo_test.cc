// Tests for the windowed-metrics aggregation engine (obs/windowed.h), the
// SLO burn-rate engine (obs/slo.h), and histogram exemplars — all driven
// through their deterministic seams (explicit Tick/Step with a fake clock),
// plus TSan-targeted stress suites (WindowedMetricsStressTest,
// SloEngineStressTest) exercising the lock-free snapshot rings under racing
// writers and readers.

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/windowed.h"

namespace mira::obs {
namespace {

WindowedMetrics::Options SmallWindows(MetricRegistry* registry,
                                      size_t ring_buckets = 16) {
  WindowedMetrics::Options options;
  options.bucket_seconds = 1.0;
  options.ring_buckets = ring_buckets;
  options.registry = registry;
  return options;
}

TEST(WindowedMetricsTest, NotMeasurableBeforeTwoTicks) {
  MetricRegistry registry;
  WindowedMetrics windows(SmallWindows(&registry));
  windows.TrackCounter("mira.test.events");
  EXPECT_FALSE(windows.CounterRate("mira.test.events", 10.0).ok);
  windows.Tick(0.0);
  EXPECT_FALSE(windows.CounterRate("mira.test.events", 10.0).ok);
  windows.Tick(1.0);
  EXPECT_TRUE(windows.CounterRate("mira.test.events", 10.0).ok);
}

TEST(WindowedMetricsTest, UntrackedNameIsNotOk) {
  MetricRegistry registry;
  WindowedMetrics windows(SmallWindows(&registry));
  windows.Tick(0.0);
  windows.Tick(1.0);
  EXPECT_FALSE(windows.CounterRate("mira.test.never_tracked", 10.0).ok);
  EXPECT_FALSE(windows.HistogramWindow("mira.test.never_tracked", 10.0).ok);
}

TEST(WindowedMetricsTest, CounterRateUsesTheRequestedWindow) {
  MetricRegistry registry;
  Counter& events = registry.GetCounter("mira.test.events");
  WindowedMetrics windows(SmallWindows(&registry));
  windows.TrackCounter("mira.test.events");

  // 10 events/s for 10 seconds, then 100 events/s for 5 seconds.
  double now = 0.0;
  for (int i = 0; i < 10; ++i) {
    windows.Tick(now);
    events.Add(10);
    now += 1.0;
  }
  for (int i = 0; i < 5; ++i) {
    windows.Tick(now);
    events.Add(100);
    now += 1.0;
  }
  windows.Tick(now);  // newest sample at t=15, cumulative 600

  const WindowedMetrics::WindowRate fast =
      windows.CounterRate("mira.test.events", 5.0);
  ASSERT_TRUE(fast.ok);
  EXPECT_DOUBLE_EQ(fast.covered_s, 5.0);
  EXPECT_EQ(fast.delta, 500u);
  EXPECT_DOUBLE_EQ(fast.rate_per_s, 100.0);

  const WindowedMetrics::WindowRate slow =
      windows.CounterRate("mira.test.events", 15.0);
  ASSERT_TRUE(slow.ok);
  EXPECT_DOUBLE_EQ(slow.covered_s, 15.0);
  EXPECT_EQ(slow.delta, 600u);
  EXPECT_DOUBLE_EQ(slow.rate_per_s, 40.0);
}

TEST(WindowedMetricsTest, WindowLargerThanHistoryCoversWhatExists) {
  MetricRegistry registry;
  Counter& events = registry.GetCounter("mira.test.events");
  WindowedMetrics windows(SmallWindows(&registry));
  windows.TrackCounter("mira.test.events");
  windows.Tick(0.0);
  events.Add(7);
  windows.Tick(2.0);
  const WindowedMetrics::WindowRate rate =
      windows.CounterRate("mira.test.events", 60.0);
  ASSERT_TRUE(rate.ok);
  EXPECT_DOUBLE_EQ(rate.covered_s, 2.0);  // all the history there is
  EXPECT_EQ(rate.delta, 7u);
}

TEST(WindowedMetricsTest, RingLapKeepsOnlyTheNewestSamples) {
  MetricRegistry registry;
  Counter& events = registry.GetCounter("mira.test.events");
  WindowedMetrics windows(SmallWindows(&registry, /*ring_buckets=*/4));
  windows.TrackCounter("mira.test.events");
  double now = 0.0;
  for (int i = 0; i < 20; ++i) {
    events.Add(1);
    windows.Tick(now);
    now += 1.0;
  }
  // Asking for more than the ring retains degrades to the oldest resident
  // sample (3 buckets back from the newest), not an error.
  const WindowedMetrics::WindowRate rate =
      windows.CounterRate("mira.test.events", 100.0);
  ASSERT_TRUE(rate.ok);
  EXPECT_LE(rate.covered_s, 3.0);
  EXPECT_EQ(rate.delta, static_cast<uint64_t>(rate.covered_s));
}

TEST(WindowedMetricsTest, CounterResetYieldsZeroDeltaNotUnderflow) {
  MetricRegistry registry;
  Counter& events = registry.GetCounter("mira.test.events");
  WindowedMetrics windows(SmallWindows(&registry));
  windows.TrackCounter("mira.test.events");
  events.Add(100);
  windows.Tick(0.0);
  events.Reset();
  windows.Tick(1.0);
  const WindowedMetrics::WindowRate rate =
      windows.CounterRate("mira.test.events", 10.0);
  ASSERT_TRUE(rate.ok);
  EXPECT_EQ(rate.delta, 0u);
}

TEST(WindowedMetricsTest, HistogramWindowIsolatesRecentObservations) {
  MetricRegistry registry;
  Histogram& latency = registry.GetHistogram("mira.test.latency_ms");
  WindowedMetrics windows(SmallWindows(&registry));
  windows.TrackHistogram("mira.test.latency_ms");

  // Old regime: fast. New regime: slow. A cumulative snapshot mixes them;
  // the windowed delta must see only the new regime.
  windows.Tick(0.0);
  for (int i = 0; i < 100; ++i) latency.Record(1.0);
  windows.Tick(10.0);
  for (int i = 0; i < 50; ++i) latency.Record(1000.0);
  windows.Tick(11.0);

  // The baseline is the youngest sample at-or-before (newest - window): a
  // 1 s window lands exactly on the t=10 sample.
  const WindowedMetrics::WindowHistogram recent =
      windows.HistogramWindow("mira.test.latency_ms", 1.0);
  ASSERT_TRUE(recent.ok);
  EXPECT_EQ(recent.delta.count, 50u);
  EXPECT_GT(recent.delta.p50(), 500.0);  // old 1ms records invisible
  uint64_t bucket_total = 0;
  for (uint64_t b : recent.delta.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, recent.delta.count);

  const WindowedMetrics::WindowHistogram all =
      windows.HistogramWindow("mira.test.latency_ms", 100.0);
  ASSERT_TRUE(all.ok);
  EXPECT_EQ(all.delta.count, 150u);
  EXPECT_LT(all.delta.p50(), 500.0);  // dominated by the 100 fast records
}

TEST(HistogramExemplarTest, KeepsTheLargestObservations) {
  Histogram histogram;
  for (uint64_t i = 1; i <= 10; ++i) {
    histogram.RecordWithExemplar(static_cast<double>(i), /*id=*/100 + i);
  }
  std::set<uint64_t> ids;
  for (const Histogram::Exemplar& exemplar : histogram.Exemplars()) {
    ids.insert(exemplar.id);
    EXPECT_GE(exemplar.value, 7.0);  // only the top-4 values survive
  }
  EXPECT_EQ(ids, (std::set<uint64_t>{107, 108, 109, 110}));
}

TEST(HistogramExemplarTest, IdZeroRecordsWithoutCapturing) {
  Histogram histogram;
  histogram.RecordWithExemplar(42.0, /*id=*/0);
  EXPECT_EQ(histogram.TakeSnapshot().count, 1u);
  for (const Histogram::Exemplar& exemplar : histogram.Exemplars()) {
    EXPECT_EQ(exemplar.id, 0u);
  }
}

TEST(HistogramExemplarTest, TiesStillAdmitTheNewestObservation) {
  Histogram histogram;
  for (uint64_t i = 1; i <= 6; ++i) {
    histogram.RecordWithExemplar(5.0, /*id=*/i);
  }
  std::set<uint64_t> ids;
  for (const Histogram::Exemplar& exemplar : histogram.Exemplars()) {
    ids.insert(exemplar.id);
  }
  // Replace-min uses >=, so an all-ties stream cannot starve new
  // observations out: the newest id always occupies a slot.
  EXPECT_EQ(ids.size(), 4u);
  EXPECT_TRUE(ids.count(6));
}

TEST(HistogramExemplarTest, ResetClearsExemplars) {
  Histogram histogram;
  histogram.RecordWithExemplar(9.0, /*id=*/7);
  histogram.Reset();
  for (const Histogram::Exemplar& exemplar : histogram.Exemplars()) {
    EXPECT_EQ(exemplar.id, 0u);
  }
}

TEST(HistogramExemplarTest, ExportJsonCarriesExemplarPairs) {
  MetricRegistry registry;
  registry.GetHistogram("mira.test.latency_ms")
      .RecordWithExemplar(12.5, /*id=*/99);
  const std::string json = registry.ExportJson();
  EXPECT_NE(json.find("\"exemplars\""), std::string::npos);
  EXPECT_NE(json.find("99"), std::string::npos);
}

TEST(HistogramExemplarTest, ExportJsonOmitsExemplarsWhenNoneCaptured) {
  MetricRegistry registry;
  registry.GetHistogram("mira.test.latency_ms").Record(1.0);
  EXPECT_EQ(registry.ExportJson().find("\"exemplars\""), std::string::npos);
}

// --- SLO engine -----------------------------------------------------------

SloEngine::Options FakeClockSlo(MetricRegistry* registry) {
  SloEngine::Options options;
  options.eval_interval_s = 1.0;
  options.record_query_log = false;  // keep the global log out of unit tests
  options.registry = registry;
  return options;
}

SloObjective ShedObjective() {
  SloObjective objective;
  objective.name = "shed";
  objective.kind = SloObjective::Kind::kRatio;
  objective.bad_counters = {"mira.test.bad"};
  objective.total_counters = {"mira.test.bad", "mira.test.good"};
  objective.target_fraction = 0.1;
  objective.fast_window_s = 3.0;
  objective.slow_window_s = 9.0;
  objective.warn_burn = 1.0;
  objective.breach_burn = 5.0;
  return objective;
}

TEST(SloEngineTest, UnmeasurableUntilWindowsFill) {
  MetricRegistry registry;
  WindowedMetrics windows(SmallWindows(&registry));
  SloEngine slo(&windows, FakeClockSlo(&registry));
  slo.AddObjective(ShedObjective());
  slo.Step(0.0);
  std::vector<SloStatus> statuses = slo.Statuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_FALSE(statuses[0].measurable);
  EXPECT_EQ(statuses[0].state, SloState::kOk);
  slo.Step(1.0);
  statuses = slo.Statuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_TRUE(statuses[0].measurable);
}

TEST(SloEngineTest, HealthyTrafficStaysOk) {
  MetricRegistry registry;
  Counter& good = registry.GetCounter("mira.test.good");
  Counter& bad = registry.GetCounter("mira.test.bad");
  WindowedMetrics windows(SmallWindows(&registry));
  SloEngine slo(&windows, FakeClockSlo(&registry));
  slo.AddObjective(ShedObjective());
  double now = 0.0;
  for (int i = 0; i < 20; ++i) {
    good.Add(99);
    bad.Add(1);  // 1% bad against a 10% budget: burn 0.1
    slo.Step(now);
    now += 1.0;
  }
  const std::vector<SloStatus> statuses = slo.Statuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].state, SloState::kOk);
  EXPECT_NEAR(statuses[0].burn_fast, 0.1, 1e-9);
  EXPECT_TRUE(slo.History().empty());
}

TEST(SloEngineTest, BurnRatesDriveOkWarningBreachAndRecovery) {
  MetricRegistry registry;
  Counter& good = registry.GetCounter("mira.test.good");
  Counter& bad = registry.GetCounter("mira.test.bad");
  WindowedMetrics windows(SmallWindows(&registry));
  SloEngine slo(&windows, FakeClockSlo(&registry));
  slo.AddObjective(ShedObjective());

  double now = 0.0;
  const auto run = [&](int steps, uint64_t good_per_s, uint64_t bad_per_s) {
    for (int i = 0; i < steps; ++i) {
      good.Add(good_per_s);
      bad.Add(bad_per_s);
      slo.Step(now);
      now += 1.0;
    }
  };

  run(12, 100, 0);  // healthy long enough to fill both windows
  EXPECT_EQ(slo.Statuses()[0].state, SloState::kOk);

  // 100% bad: fast burn = 1.0/0.1 = 10 >= breach(5) once the fast window is
  // all-bad, and the slow window crosses warn(1) soon after.
  run(12, 0, 100);
  EXPECT_EQ(slo.Statuses()[0].state, SloState::kBreach);
  EXPECT_GE(slo.Statuses()[0].burn_fast, 5.0);

  run(12, 100, 0);  // recovery: both windows drain below warn
  EXPECT_EQ(slo.Statuses()[0].state, SloState::kOk);

  // The transition history tells the whole story, oldest first: into
  // warning/breach, eventually back out to ok.
  const std::vector<SloTransition> history = slo.History();
  ASSERT_GE(history.size(), 2u);
  EXPECT_EQ(history.front().from, SloState::kOk);
  EXPECT_NE(history.front().to, SloState::kOk);
  EXPECT_EQ(history.back().to, SloState::kOk);
  bool saw_breach = false;
  for (const SloTransition& transition : history) {
    if (transition.to == SloState::kBreach) {
      saw_breach = true;
      EXPECT_GE(transition.burn_fast, 5.0);
    }
  }
  EXPECT_TRUE(saw_breach);
}

TEST(SloEngineTest, SlowWindowConfirmsBeforeBreach) {
  MetricRegistry registry;
  Counter& good = registry.GetCounter("mira.test.good");
  Counter& bad = registry.GetCounter("mira.test.bad");
  WindowedMetrics windows(SmallWindows(&registry));
  SloEngine slo(&windows, FakeClockSlo(&registry));
  slo.AddObjective(ShedObjective());

  double now = 0.0;
  for (int i = 0; i < 30; ++i) {
    good.Add(100);
    slo.Step(now);
    now += 1.0;
  }
  // One all-bad second: the fast window (3 s) burns at 10/3 < breach(5) and
  // the slow window barely moves — warning at most, never straight to
  // breach off a blip.
  bad.Add(100);
  slo.Step(now);
  now += 1.0;
  good.Add(100);
  slo.Step(now);
  EXPECT_NE(slo.Statuses()[0].state, SloState::kBreach);
}

TEST(SloEngineTest, LatencyObjectiveCountsTailObservations) {
  MetricRegistry registry;
  Histogram& latency = registry.GetHistogram("mira.test.latency_ms");
  WindowedMetrics windows(SmallWindows(&registry));
  SloEngine slo(&windows, FakeClockSlo(&registry));
  SloObjective objective;
  objective.name = "latency";
  objective.kind = SloObjective::Kind::kLatency;
  objective.histogram = "mira.test.latency_ms";
  objective.threshold_ms = 10.0;
  objective.target_fraction = 0.05;
  objective.fast_window_s = 3.0;
  objective.slow_window_s = 9.0;
  objective.warn_burn = 1.0;
  objective.breach_burn = 5.0;
  slo.AddObjective(objective);

  double now = 0.0;
  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j < 100; ++j) latency.Record(1.0);
    slo.Step(now);
    now += 1.0;
  }
  EXPECT_EQ(slo.Statuses()[0].state, SloState::kOk);

  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j < 100; ++j) latency.Record(100.0);  // all above 10ms
    slo.Step(now);
    now += 1.0;
  }
  const SloStatus status = slo.Statuses()[0];
  EXPECT_EQ(status.state, SloState::kBreach);
  EXPECT_NEAR(status.bad_fraction_fast, 1.0, 0.01);
}

TEST(SloEngineTest, StateGaugesTrackTransitions) {
  MetricRegistry registry;
  Counter& bad = registry.GetCounter("mira.test.bad");
  registry.GetCounter("mira.test.good");
  WindowedMetrics windows(SmallWindows(&registry));
  SloEngine slo(&windows, FakeClockSlo(&registry));
  slo.AddObjective(ShedObjective());
  double now = 0.0;
  for (int i = 0; i < 12; ++i) {
    bad.Add(100);
    slo.Step(now);
    now += 1.0;
  }
  EXPECT_EQ(registry.GetGauge("mira.slo.shed.state").value(),
            static_cast<double>(static_cast<int>(slo.Statuses()[0].state)));
  EXPECT_GT(registry.GetGauge("mira.slo.shed.burn_fast").value(), 1.0);
}

TEST(SloEngineTest, HistoryIsBounded) {
  MetricRegistry registry;
  Counter& good = registry.GetCounter("mira.test.good");
  Counter& bad = registry.GetCounter("mira.test.bad");
  WindowedMetrics windows(SmallWindows(&registry));
  SloEngine::Options options = FakeClockSlo(&registry);
  options.max_history = 4;
  SloEngine slo(&windows, options);
  slo.AddObjective(ShedObjective());
  double now = 0.0;
  for (int cycle = 0; cycle < 10; ++cycle) {  // flap ok <-> breach
    for (int i = 0; i < 12; ++i) {
      good.Add(100);
      slo.Step(now);
      now += 1.0;
    }
    for (int i = 0; i < 12; ++i) {
      bad.Add(100);
      slo.Step(now);
      now += 1.0;
    }
  }
  EXPECT_LE(slo.History().size(), 4u);
}

// --- stress (TSan-targeted) ----------------------------------------------

TEST(WindowedMetricsStressTest, RacingWritersTickerAndReaders) {
  MetricRegistry registry;
  Counter& events = registry.GetCounter("mira.stress.events");
  Histogram& latency = registry.GetHistogram("mira.stress.latency_ms");
  WindowedMetrics windows(SmallWindows(&registry, /*ring_buckets=*/8));
  windows.TrackCounter("mira.stress.events");
  windows.TrackHistogram("mira.stress.latency_ms");

  constexpr int kWriters = 4;
  constexpr int kRecordsPerWriter = 5000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&events, &latency, w] {
      for (int i = 0; i < kRecordsPerWriter; ++i) {
        events.Increment();
        latency.RecordWithExemplar(static_cast<double>(i % 100) + 0.5,
                                   static_cast<uint64_t>(w * 100000 + i + 1));
      }
    });
  }
  std::thread ticker([&windows, &stop] {
    double now = 0.0;
    while (!stop.load(std::memory_order_acquire)) {
      windows.Tick(now);
      now += 1.0;
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&windows, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        const WindowedMetrics::WindowRate rate =
            windows.CounterRate("mira.stress.events", 4.0);
        if (rate.ok) {
          EXPECT_GT(rate.covered_s, 0.0);
          EXPECT_LE(rate.delta, uint64_t{kWriters} * kRecordsPerWriter);
        }
        const WindowedMetrics::WindowHistogram window =
            windows.HistogramWindow("mira.stress.latency_ms", 4.0);
        if (window.ok) {
          uint64_t bucket_total = 0;
          for (uint64_t b : window.delta.buckets) bucket_total += b;
          EXPECT_EQ(bucket_total, window.delta.count);
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  ticker.join();
  for (std::thread& reader : readers) reader.join();

  // Quiescent check: a final pair of ticks spanning everything reconciles
  // exactly with what the writers recorded.
  windows.Tick(1e6);
  windows.Tick(1e6 + 1.0);
  const WindowedMetrics::WindowRate final_rate =
      windows.CounterRate("mira.stress.events", 0.5);
  ASSERT_TRUE(final_rate.ok);
  EXPECT_EQ(final_rate.delta, 0u);  // writers are quiet
  EXPECT_EQ(events.value(), uint64_t{kWriters} * kRecordsPerWriter);
  EXPECT_EQ(latency.TakeSnapshot().count,
            uint64_t{kWriters} * kRecordsPerWriter);
}

TEST(SloEngineStressTest, ConcurrentWritersAndStatusReaders) {
  MetricRegistry registry;
  Counter& good = registry.GetCounter("mira.stress.good");
  Counter& bad = registry.GetCounter("mira.stress.bad");
  WindowedMetrics windows(SmallWindows(&registry, /*ring_buckets=*/8));
  SloEngine::Options options = FakeClockSlo(&registry);
  SloEngine slo(&windows, options);
  SloObjective objective = ShedObjective();
  objective.bad_counters = {"mira.stress.bad"};
  objective.total_counters = {"mira.stress.bad", "mira.stress.good"};
  slo.AddObjective(objective);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&good, &bad, &stop] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        good.Increment();
        if (++i % 3 == 0) bad.Increment();
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&slo, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        for (const SloStatus& status : slo.Statuses()) {
          EXPECT_GE(status.burn_fast, 0.0);
        }
        (void)slo.History();
      }
    });
  }
  double now = 0.0;
  for (int i = 0; i < 200; ++i) {
    slo.Step(now);
    now += 1.0;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& writer : writers) writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(slo.evaluations(), 200u);
}

TEST(SloEngineStressTest, BackgroundThreadStartStopIsClean) {
  MetricRegistry registry;
  registry.GetCounter("mira.stress.bad");
  registry.GetCounter("mira.stress.good");
  WindowedMetrics windows(SmallWindows(&registry));
  SloEngine::Options options = FakeClockSlo(&registry);
  options.eval_interval_s = 0.01;
  SloEngine slo(&windows, options);
  SloObjective objective = ShedObjective();
  objective.bad_counters = {"mira.stress.bad"};
  objective.total_counters = {"mira.stress.bad", "mira.stress.good"};
  slo.AddObjective(objective);
  slo.Start();
  EXPECT_TRUE(slo.running());
  slo.Start();  // idempotent
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  slo.Stop();
  EXPECT_FALSE(slo.running());
  slo.Stop();  // idempotent
  EXPECT_GE(slo.evaluations(), 1u);
}

}  // namespace
}  // namespace mira::obs
