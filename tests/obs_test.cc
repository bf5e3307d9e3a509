// Unit tests for src/obs: metric registry semantics, histogram bucket math
// against exact quantiles, exporter output, span-tree collection, the runtime
// sampling knob, cross-thread trace propagation, Chrome trace export, the
// seqlock ring and the structured query log on it, and the periodic task.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/threadpool.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/periodic_task.h"
#include "obs/query_log.h"
#include "obs/seq_ring.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace mira::obs {

namespace internal {

// Stages the state a writer leaves between its claim and its release store.
class SeqRingTestPeer {
 public:
  template <typename T>
  static void MarkWriting(SeqRing<T>* ring, uint64_t ticket) {
    ring->slots_[ticket & ring->mask_].seq.store(2 * ticket + 1);
  }
};

}  // namespace internal

// A writer that drew its ticket and stalled before publishing: DrawTicket is
// Record's fetch_add, Publish the rest of Record.
class QueryLogTestPeer {
 public:
  static uint64_t DrawTicket(QueryLog* log) { return log->next_.fetch_add(1); }
  static uint64_t Publish(QueryLog* log, uint64_t ticket,
                          const QueryLogEntry& entry) {
    return log->Publish(ticket, entry);
  }
  static internal::SeqRing<QueryLogEntry>* Ring(QueryLog* log) {
    return &log->ring_;
  }
};

namespace {

// ---------- Counter / Gauge ----------

TEST(CounterTest, IncrementAndAdd) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

// ---------- Histogram bucket math ----------

TEST(HistogramTest, BucketBoundsBracketTheValue) {
  for (double value : {1e-9, 0.001, 0.37, 1.0, 1.5, 2.0, 3.99, 100.0, 7.7e8}) {
    size_t bucket = Histogram::BucketIndex(value);
    ASSERT_LT(bucket, Histogram::kNumBuckets) << value;
    EXPECT_LE(Histogram::BucketLowerBound(bucket), value) << value;
    if (bucket + 1 < Histogram::kNumBuckets) {
      EXPECT_GT(Histogram::BucketUpperBound(bucket), value) << value;
    }
  }
}

TEST(HistogramTest, BucketsAreContiguous) {
  for (size_t b = 0; b + 1 < Histogram::kNumBuckets; ++b) {
    EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(b),
                     Histogram::BucketLowerBound(b + 1))
        << "bucket " << b;
    EXPECT_LT(Histogram::BucketLowerBound(b), Histogram::BucketUpperBound(b))
        << "bucket " << b;
  }
}

TEST(HistogramTest, BucketRelativeWidthAtMost25Percent) {
  // Geometric buckets with 4 linear sub-buckets per octave: width <= 25% of
  // the lower bound — the bound the quantile-error guarantee rests on.
  for (size_t b = 1; b + 1 < Histogram::kNumBuckets; ++b) {
    double lo = Histogram::BucketLowerBound(b);
    double hi = Histogram::BucketUpperBound(b);
    EXPECT_LE((hi - lo) / lo, 0.25 + 1e-12) << "bucket " << b;
  }
}

TEST(HistogramTest, NonPositiveValuesLandInBucketZero) {
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(-3.5), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1e-300), 0u);
}

TEST(HistogramTest, EmptySnapshotIsAllZero) {
  Histogram h;
  Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
  EXPECT_DOUBLE_EQ(snap.p50(), 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 0.0);
}

TEST(HistogramTest, SnapshotAggregates) {
  Histogram h;
  h.Record(1.0);
  h.Record(3.0);
  h.Record(2.0);
  Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 6.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 2.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 3.0);
}

TEST(HistogramTest, QuantilesTrackExactValuesWithinBucketError) {
  // Deterministic skewed distribution: values v_i = 0.1 * 1.01^i, i < 2000.
  Histogram h;
  std::vector<double> values;
  double v = 0.1;
  for (int i = 0; i < 2000; ++i) {
    values.push_back(v);
    h.Record(v);
    v *= 1.01;
  }
  std::sort(values.begin(), values.end());
  Histogram::Snapshot snap = h.TakeSnapshot();
  ASSERT_EQ(snap.count, values.size());
  for (double q : {0.50, 0.90, 0.99}) {
    double exact = values[static_cast<size_t>(
        q * static_cast<double>(values.size() - 1))];
    double approx = snap.Percentile(q);
    // A bucket is at most 25% wide, so interpolation stays within ~12.5%.
    EXPECT_NEAR(approx, exact, exact * 0.13) << "q=" << q;
  }
  EXPECT_LE(snap.p50(), snap.p90());
  EXPECT_LE(snap.p90(), snap.p99());
  EXPECT_LE(snap.p99(), snap.max);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5.0);
  h.Reset();
  EXPECT_EQ(h.TakeSnapshot().count, 0u);
}

TEST(HistogramTest, ConcurrentRecordsAllCounted) {
  Histogram h;
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 4000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (size_t i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<double>(i % 100) + 0.5);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.TakeSnapshot().count, kThreads * kPerThread);
}

// ---------- MetricRegistry ----------

TEST(MetricRegistryTest, SameNameReturnsSameInstance) {
  MetricRegistry registry;
  Counter& a = registry.GetCounter("mira.test.counter");
  Counter& b = registry.GetCounter("mira.test.counter");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = registry.GetHistogram("mira.test.hist_ms");
  Histogram& h2 = registry.GetHistogram("mira.test.hist_ms");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricRegistryTest, ResetValuesKeepsReferencesValid) {
  MetricRegistry registry;
  Counter& c = registry.GetCounter("mira.test.counter");
  c.Add(7);
  registry.ResetValues();
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  EXPECT_EQ(registry.GetCounter("mira.test.counter").value(), 1u);
}

TEST(MetricRegistryTest, ExportTextIsPrometheusShaped) {
  MetricRegistry registry;
  registry.GetCounter("mira.test.queries").Add(3);
  registry.GetGauge("mira.test.size_bytes").Set(128.0);
  Histogram& h = registry.GetHistogram("mira.test.latency_ms");
  h.Record(1.0);
  h.Record(2.0);
  std::string text = registry.ExportText();
  EXPECT_NE(text.find("# TYPE mira_test_queries counter"), std::string::npos);
  EXPECT_NE(text.find("mira_test_queries 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mira_test_size_bytes gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mira_test_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("mira_test_latency_ms_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("mira_test_latency_ms_count 2"), std::string::npos);
}

TEST(MetricRegistryTest, ExportJsonRoundTripsValues) {
  MetricRegistry registry;
  registry.GetCounter("mira.test.queries").Add(42);
  registry.GetGauge("mira.test.clusters").Set(17.0);
  Histogram& h = registry.GetHistogram("mira.test.latency_ms");
  for (int i = 1; i <= 100; ++i) h.Record(static_cast<double>(i));
  std::string json = registry.ExportJson();

  // Lightweight round-trip: the exporter sorts keys and emits plain numbers,
  // so exact substrings pin both structure and values.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"mira.test.queries\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"mira.test.clusters\": 17"), std::string::npos);
  EXPECT_NE(json.find("\"mira.test.latency_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
  for (const char* field : {"\"sum\"", "\"min\"", "\"max\"", "\"mean\"",
                            "\"p50\"", "\"p90\"", "\"p99\"", "\"buckets\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  // Identical registry state exports byte-identical documents.
  EXPECT_EQ(json, registry.ExportJson());
}

// ---------- Prometheus exposition ----------

TEST(PrometheusNameTest, SanitizesIntoTheMetricGrammar) {
  EXPECT_EQ(PrometheusMetricName("mira.query.count.exs"),
            "mira_query_count_exs");
  EXPECT_EQ(PrometheusMetricName("already_legal:name"), "already_legal:name");
  EXPECT_EQ(PrometheusMetricName("spaces and-dashes"), "spaces_and_dashes");
  EXPECT_EQ(PrometheusMetricName("2xx.rate"), "_2xx_rate");
  EXPECT_EQ(PrometheusMetricName(""), "_");
  EXPECT_EQ(PrometheusMetricName("UPPER.ok"), "UPPER_ok");
}

TEST(MetricRegistryTest, ExportTextEmitsHelpLines) {
  MetricRegistry registry;
  registry.GetCounter("mira.test.queries").Add(1);
  registry.GetGauge("mira.test.bytes").Set(7.0);
  std::string text = registry.ExportText();
  // Default help is the dotted name, right above the TYPE line.
  EXPECT_NE(text.find("# HELP mira_test_queries mira.test.queries\n"
                      "# TYPE mira_test_queries counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# HELP mira_test_bytes mira.test.bytes\n"
                      "# TYPE mira_test_bytes gauge"),
            std::string::npos);
}

TEST(MetricRegistryTest, SetHelpOverridesAndEscapes) {
  MetricRegistry registry;
  registry.GetCounter("mira.test.queries");
  registry.SetHelp("mira.test.queries", "Total queries\nback\\slash");
  std::string text = registry.ExportText();
  EXPECT_NE(text.find("# HELP mira_test_queries Total queries\\nback\\\\slash"),
            std::string::npos)
      << text;
  // Help set before registration still applies once the metric exists.
  registry.SetHelp("mira.test.late", "registered later");
  registry.GetGauge("mira.test.late").Set(1.0);
  EXPECT_NE(registry.ExportText().find("# HELP mira_test_late registered"),
            std::string::npos);
}

// ---------- Worker-span adoption ----------

// Builds a trace by hand (StartSpan/FinishSpan are public bookkeeping), so
// these tests hold with tracing compiled out too.
TEST(AdoptWorkerSpansTest, RemapsParentsDepthsAndTids) {
  QueryTrace parent;
  int32_t root = parent.StartSpan("query", -1, 0.0);
  int32_t scan = parent.StartSpan("exs.scan", root, 0.1);

  QueryTrace worker;
  int32_t outer = worker.StartSpan("exs.scan_block", -1, 0.2);
  worker.StartSpan("inner_detail", outer, 0.3);

  parent.AdoptWorkerSpans(scan, /*tid=*/7, worker);
  ASSERT_EQ(parent.spans().size(), 4u);
  const SpanRecord& adopted_outer = parent.spans()[2];
  const SpanRecord& adopted_inner = parent.spans()[3];
  EXPECT_STREQ(adopted_outer.name, "exs.scan_block");
  EXPECT_EQ(adopted_outer.parent, scan);
  EXPECT_EQ(adopted_outer.depth, 2);  // under query > exs.scan
  EXPECT_EQ(adopted_outer.tid, 7);
  EXPECT_EQ(adopted_inner.parent, 2);  // remapped into the parent's indices
  EXPECT_EQ(adopted_inner.depth, 3);
  EXPECT_EQ(adopted_inner.tid, 7);
  // Query-thread spans keep tid 0.
  EXPECT_EQ(parent.spans()[0].tid, 0);
}

TEST(AdoptWorkerSpansTest, RootLevelAdoptionAndSerialization) {
  QueryTrace parent;
  QueryTrace worker;
  worker.StartSpan("chunk", -1, 1.0);
  parent.AdoptWorkerSpans(-1, /*tid=*/3, worker);
  ASSERT_EQ(parent.spans().size(), 1u);
  EXPECT_EQ(parent.spans()[0].parent, -1);
  EXPECT_EQ(parent.spans()[0].depth, 0);
  EXPECT_NE(parent.ToString().find("[t03]"), std::string::npos);
  EXPECT_NE(parent.ToJson().find("\"tid\": 3"), std::string::npos);
}

// ---------- Chrome trace export ----------

namespace chrome_test {

// parent trace: query(rooted, tid 0) > scan, plus one adopted worker span.
QueryTrace MakeTrace() {
  QueryTrace trace;
  int32_t root = trace.StartSpan("query", -1, 0.0);
  int32_t scan = trace.StartSpan("exs.scan", root, 0.5);
  trace.AddCounter(scan, "cells_scanned", 42);
  QueryTrace worker;
  int32_t block = worker.StartSpan("exs.scan_block", -1, 0.6);
  worker.FinishSpan(block, 1.0);
  trace.AdoptWorkerSpans(scan, /*tid=*/2, worker);
  trace.FinishSpan(scan, 2.0);
  trace.FinishSpan(root, 3.0);
  return trace;
}

}  // namespace chrome_test

TEST(ChromeTraceWriterTest, EmitsMetadataAndCompleteEvents) {
  ChromeTraceWriter writer;
  TraceAnnotations annotations;
  annotations.method = "ExS";
  annotations.degraded = true;
  annotations.budget_consumed = 0.25;
  int pid = writer.AddQuery(chrome_test::MakeTrace(), annotations);
  EXPECT_EQ(pid, 0);
  EXPECT_EQ(writer.num_queries(), 1u);

  std::string json = writer.ToJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.find_last_not_of('\n')], ']');
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("query thread"), std::string::npos);
  EXPECT_NE(json.find("pool worker t02"), std::string::npos);
  // Complete events with microsecond times: scan starts at 0.5 ms = 500 us.
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 500"), std::string::npos);
  EXPECT_NE(json.find("\"cells_scanned\": 42"), std::string::npos);
  // Root-span annotations.
  EXPECT_NE(json.find("\"method\": \"ExS\""), std::string::npos);
  EXPECT_NE(json.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(json.find("\"budget_consumed\": 0.25"), std::string::npos);
}

TEST(ChromeTraceWriterTest, BatchesQueriesIntoSeparateProcesses) {
  ChromeTraceWriter writer;
  EXPECT_EQ(writer.AddQuery(chrome_test::MakeTrace()), 0);
  EXPECT_EQ(writer.AddQuery(chrome_test::MakeTrace()), 1);
  std::string json = writer.ToJson();
  EXPECT_NE(json.find("\"pid\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
  EXPECT_EQ(writer.num_queries(), 2u);
}

TEST(ChromeTraceWriterTest, EmptyTraceAndEmptyWriterAreValid) {
  ChromeTraceWriter writer;
  EXPECT_EQ(writer.ToJson(), "[]\n");
  QueryTrace empty;
  writer.AddQuery(empty);
  EXPECT_EQ(writer.num_queries(), 0u);
  EXPECT_EQ(writer.num_events(), 0u);
}

TEST(ChromeTraceWriterTest, EscapesLabelStrings) {
  QueryTrace trace;
  int32_t root = trace.StartSpan("query", -1, 0.0);
  trace.SetLabel(root, "with \"quotes\"\nand\tcontrol");
  trace.FinishSpan(root, 1.0);
  std::string json = ChromeTraceJson(trace);
  EXPECT_NE(json.find("with \\\"quotes\\\"\\nand\\tcontrol"),
            std::string::npos)
      << json;
}

TEST(TraceTest, ToJsonEscapesLabels) {
  QueryTrace trace;
  int32_t root = trace.StartSpan("query", -1, 0.0);
  trace.SetLabel(root, "say \"hi\"");
  trace.FinishSpan(root, 1.0);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"label\": \"say \\\"hi\\\"\""), std::string::npos)
      << json;
}

// ---------- SeqRing ----------

TEST(SeqRingTest, PublishThenReadRoundTrips) {
  internal::SeqRing<uint64_t> ring(4);
  ring.Publish(0, 41);
  ring.Publish(1, 42);
  uint64_t out = 0;
  ASSERT_TRUE(ring.Read(1, &out));
  EXPECT_EQ(out, 42u);
  ASSERT_TRUE(ring.Read(0, &out));
  EXPECT_EQ(out, 41u);
}

TEST(SeqRingTest, RecycledSlotRejectsStaleTick) {
  internal::SeqRing<uint64_t> ring(4);
  for (uint64_t tick = 0; tick < 6; ++tick) ring.Publish(tick, tick * 10);
  uint64_t out = 0;
  // Ticks 4 and 5 overwrote the slots of 0 and 1.
  EXPECT_FALSE(ring.Read(0, &out));
  EXPECT_FALSE(ring.Read(1, &out));
  ASSERT_TRUE(ring.Read(5, &out));
  EXPECT_EQ(out, 50u);
}

TEST(SeqRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(internal::SeqRing<uint64_t>(5).capacity(), 8u);
  EXPECT_EQ(internal::SeqRing<uint64_t>(0).capacity(), 2u);
}

TEST(SeqRingTest, PublishIntoABusyOrNewerSlotIsRejected) {
  internal::SeqRing<uint64_t> ring(4);
  ASSERT_TRUE(ring.Publish(5, 50));
  // Slot 1 already holds ticket 5: the stalled writer of ticket 1 (and a
  // second publish of ticket 5) must not overwrite it.
  EXPECT_FALSE(ring.Publish(1, 10));
  EXPECT_FALSE(ring.Publish(5, 55));
  uint64_t out = 0;
  ASSERT_TRUE(ring.Read(5, &out));
  EXPECT_EQ(out, 50u);
  // The next lap still claims it.
  EXPECT_TRUE(ring.Publish(9, 90));
  // Slot 2 mid-write (ticket 6 claimed, not released): no ticket may claim
  // it, and it reads as absent.
  internal::SeqRingTestPeer::MarkWriting(&ring, 6);
  EXPECT_FALSE(ring.Publish(10, 100));
  EXPECT_FALSE(ring.Publish(2, 20));
  EXPECT_FALSE(ring.Read(6, &out));
  EXPECT_FALSE(ring.Read(10, &out));
}

// ---------- QueryLog ----------

TEST(QueryLogTest, CollidingWritersAreDroppedAndCounted) {
  QueryLog log(2);
  QueryLogEntry stale;
  stale.SetMethod("stale");
  // A writer draws ticket 0 and stalls for a full lap of the ring.
  const uint64_t stalled = QueryLogTestPeer::DrawTicket(&log);
  QueryLogEntry entry;
  entry.SetMethod("ExS");
  log.Record(entry);  // ticket 1
  log.Record(entry);  // ticket 2, slot of ticket 0
  EXPECT_EQ(QueryLogTestPeer::Publish(&log, stalled, stale), stalled + 1);
  EXPECT_EQ(log.dropped(), 1u);
  std::vector<QueryLogEntry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].id, 2u);
  EXPECT_EQ(entries[1].id, 3u);
  EXPECT_STREQ(entries[1].method, "ExS");

  // A writer claims ticket 3's slot and stalls mid-write: ticket 5 shares
  // the slot and is dropped; ticket 3 never reads as complete.
  const uint64_t writing = QueryLogTestPeer::DrawTicket(&log);
  internal::SeqRingTestPeer::MarkWriting(QueryLogTestPeer::Ring(&log),
                                         writing);
  EXPECT_EQ(log.Record(entry), 5u);  // ticket 4
  EXPECT_EQ(log.Record(entry), 6u);  // ticket 5, dropped
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(log.total_recorded(), 6u);
  entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].id, 5u);
}

TEST(QueryLogTest, RecordAssignsMonotonicIdsAndSnapshotsInOrder) {
  QueryLog log(8);
  for (int i = 0; i < 3; ++i) {
    QueryLogEntry entry;
    entry.SetMethod("CTS");
    entry.k = static_cast<uint32_t>(10 + i);
    entry.duration_ms = 1.5;
    EXPECT_EQ(log.Record(entry), static_cast<uint64_t>(i + 1));
  }
  std::vector<QueryLogEntry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].id, i + 1);
    EXPECT_STREQ(entries[i].method, "CTS");
    EXPECT_EQ(entries[i].k, 10 + i);
  }
  EXPECT_EQ(log.total_recorded(), 3u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(QueryLogTest, WraparoundKeepsTheMostRecentEntries) {
  QueryLog log(8);
  EXPECT_EQ(log.capacity(), 8u);
  for (uint64_t i = 0; i < 20; ++i) {
    QueryLogEntry entry;
    entry.SetMethod("ExS");
    entry.result_count = static_cast<uint32_t>(i);
    log.Record(entry);
  }
  std::vector<QueryLogEntry> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 8u);
  // Ring of 8 after 20 records: ids 13..20 survive, oldest first.
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].id, 13 + i);
    EXPECT_EQ(entries[i].result_count, 12 + i);
  }
  EXPECT_EQ(log.total_recorded(), 20u);
}

TEST(QueryLogTest, MethodNameTruncatesSafely) {
  QueryLogEntry entry;
  entry.SetMethod("a_very_long_method_name_indeed");
  EXPECT_EQ(std::string(entry.method).size(), sizeof(entry.method) - 1);
  EXPECT_EQ(std::string(entry.method), "a_very_long_me");
}

TEST(QueryLogTest, SetTopSpansPicksLargestNonRootSpans) {
  QueryTrace trace;
  int32_t root = trace.StartSpan("query", -1, 0.0);
  const char* names[] = {"a", "b", "c", "d"};
  double durations[] = {1.0, 4.0, 2.0, 3.0};
  for (int i = 0; i < 4; ++i) {
    int32_t span = trace.StartSpan(names[i], root, 0.0);
    trace.FinishSpan(span, durations[i]);
  }
  trace.FinishSpan(root, 10.0);
  QueryLogEntry entry;
  entry.SetTopSpans(trace);
  ASSERT_NE(entry.top_spans[0].name, nullptr);
  EXPECT_STREQ(entry.top_spans[0].name, "b");
  EXPECT_STREQ(entry.top_spans[1].name, "d");
  EXPECT_STREQ(entry.top_spans[2].name, "c");
}

TEST(QueryLogTest, SlowThresholdPromotesTraces) {
  QueryLog log(8);
  EXPECT_FALSE(log.IsSlow(1000.0));  // disabled by default
  log.SetSlowThresholdMs(5.0);
  EXPECT_FALSE(log.IsSlow(4.9));
  EXPECT_TRUE(log.IsSlow(5.0));

  QueryTrace trace;
  int32_t root = trace.StartSpan("query", -1, 0.0);
  trace.FinishSpan(root, 9.0);
  log.PromoteSlowTrace(17, 9.0, trace);
  std::vector<QueryLog::SlowTrace> slow = log.SlowTraces();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].id, 17u);
  EXPECT_DOUBLE_EQ(slow[0].duration_ms, 9.0);
  EXPECT_NE(slow[0].trace_json.find("query"), std::string::npos);

  // Bounded at kMaxSlowTraces by evicting the *fastest* resident (ties:
  // the older one). Here every promotion ties at 10.0 ms, so the original
  // 9.0 ms trace goes first and then the oldest tie each time — the newest
  // kMaxSlowTraces survive.
  for (uint64_t i = 0; i < QueryLog::kMaxSlowTraces + 4; ++i) {
    log.PromoteSlowTrace(100 + i, 10.0, trace);
  }
  slow = log.SlowTraces();
  ASSERT_EQ(slow.size(), QueryLog::kMaxSlowTraces);
  EXPECT_EQ(slow.front().id, 104u);
}

TEST(QueryLogTest, PromotionRetainsSlowestNotNewest) {
  QueryLog log(8);
  QueryTrace trace;
  int32_t root = trace.StartSpan("query", -1, 0.0);
  trace.FinishSpan(root, 9.0);

  // One monster outlier, then a flood of merely-threshold-slow promotions.
  // Recency-based retention would wash the outlier out; slowest-based
  // retention keeps it resident for /tracez.
  log.PromoteSlowTrace(/*id=*/1, /*duration_ms=*/5000.0, trace);
  for (uint64_t i = 0; i < QueryLog::kMaxSlowTraces + 8; ++i) {
    log.PromoteSlowTrace(100 + i, 10.0 + static_cast<double>(i), trace);
  }
  std::vector<QueryLog::SlowTrace> slow = log.SlowTraces();
  ASSERT_EQ(slow.size(), QueryLog::kMaxSlowTraces);
  bool outlier_survives = false;
  double min_duration = 1e300;
  for (const QueryLog::SlowTrace& resident : slow) {
    if (resident.id == 1) outlier_survives = true;
    min_duration = std::min(min_duration, resident.duration_ms);
  }
  EXPECT_TRUE(outlier_survives);
  // The residents are exactly the slowest promotions seen: the monster plus
  // the top kMaxSlowTraces-1 of the ramp.
  EXPECT_DOUBLE_EQ(min_duration,
                   10.0 + static_cast<double>(QueryLog::kMaxSlowTraces + 8 -
                                              (QueryLog::kMaxSlowTraces - 1)));
}

TEST(QueryLogTest, ExportJsonLinesShape) {
  QueryLog log(8);
  QueryLogEntry entry;
  entry.SetMethod("ANNS");
  entry.k = 20;
  entry.result_count = 5;
  entry.duration_ms = 1.25;
  entry.degraded = true;
  entry.budget_consumed = 0.42;
  entry.top_spans[0] = {"anns.hnsw_search", 0.9};
  log.Record(entry);
  std::string lines = log.ExportJsonLines();
  EXPECT_NE(lines.find("\"id\": 1"), std::string::npos);
  EXPECT_NE(lines.find("\"method\": \"ANNS\""), std::string::npos);
  EXPECT_NE(lines.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(lines.find("\"budget_consumed\": 0.4200"), std::string::npos);
  EXPECT_NE(lines.find("{\"name\": \"anns.hnsw_search\", \"ms\": 0.9000}"),
            std::string::npos);
  EXPECT_EQ(lines.back(), '\n');

  // An unbounded query omits budget_consumed entirely.
  QueryLogEntry unbounded;
  unbounded.SetMethod("CTS");
  log.Record(unbounded);
  std::string second_line = log.ExportJsonLines();
  size_t newline = second_line.find('\n');
  EXPECT_EQ(second_line.find("budget_consumed", newline), std::string::npos);
}

TEST(QueryLogTest, ExportEscapesNames) {
  QueryLog log(4);
  QueryLogEntry entry;
  entry.SetMethod("CTS");
  entry.SetTenant("a\"b\\c");
  log.Record(entry);
  const std::string lines = log.ExportJsonLines();
  EXPECT_NE(lines.find("\"tenant\": \"a\\\"b\\\\c\""), std::string::npos)
      << lines;
}

TEST(QueryLogTest, ClearResetsEverything) {
  QueryLog log(8);
  QueryLogEntry entry;
  log.Record(entry);
  QueryTrace trace;
  log.PromoteSlowTrace(1, 10.0, trace);
  log.Clear();
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_TRUE(log.SlowTraces().empty());
  EXPECT_EQ(log.total_recorded(), 0u);
  QueryLogEntry next;
  EXPECT_EQ(log.Record(next), 1u);  // ids restart
}

// ---------- PeriodicTask ----------

TEST(PeriodicTaskTest, BodyRunsOncePerIntervalUntilStopped) {
  PeriodicTask task;
  EXPECT_FALSE(task.Stop());  // safe without Start
  std::atomic<int> runs{0};
  task.Start(std::chrono::milliseconds(5), [&runs] { ++runs; });
  EXPECT_TRUE(task.running());
  task.Start(std::chrono::milliseconds(5), [] { FAIL() << "second body"; });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_TRUE(task.Stop());
  EXPECT_FALSE(task.running());
  EXPECT_FALSE(task.Stop());  // idempotent
  EXPECT_GE(runs.load(), 2);
  // A stopped task starts again.
  task.Start(std::chrono::hours(1), [] {});
  EXPECT_TRUE(task.running());
  EXPECT_TRUE(task.Stop());
}

TEST(PeriodicTaskTest, ThrowingBodyIsLoggedAndKeepsItsSchedule) {
  PeriodicTask task;
  std::atomic<int> runs{0};
  task.Start(std::chrono::milliseconds(2), [&runs] {
    ++runs;
    throw std::runtime_error("collector failed");
  });
  while (runs.load() < 3) std::this_thread::yield();
  EXPECT_TRUE(task.Stop());
}

TEST(PeriodicTaskTest, OneHourIntervalStopsWithinASecond) {
  PeriodicTask task;
  std::atomic<int> runs{0};
  task.Start(std::chrono::hours(1), [&runs] { ++runs; });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  WallTimer timer;
  EXPECT_TRUE(task.Stop());
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
  EXPECT_EQ(runs.load(), 0);
}

TEST(PeriodicTaskTest, ConcurrentStopsJoinOnceAndTheBodyNeverOutlivesThem) {
  for (int round = 0; round < 20; ++round) {
    PeriodicTask task;
    // Set by each Stop caller once its Stop returned; a body that sees it
    // set on its way out was still running after a Stop returned.
    std::atomic<bool> a_stop_returned{false};
    std::atomic<int> late_runs{0};
    task.Start(std::chrono::microseconds(100), [&] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      if (a_stop_returned.load()) ++late_runs;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::atomic<bool> go{false};
    std::atomic<int> stopped{0};
    std::vector<std::thread> stoppers;
    for (int t = 0; t < 2; ++t) {
      stoppers.emplace_back([&] {
        while (!go.load()) std::this_thread::yield();
        if (task.Stop()) ++stopped;
        a_stop_returned.store(true);
      });
    }
    go.store(true);
    for (std::thread& stopper : stoppers) stopper.join();
    EXPECT_EQ(stopped.load(), 1);
    EXPECT_FALSE(task.running());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(late_runs.load(), 0);
  }
}

// ---------- Tracing ----------

#if MIRA_OBS_ENABLED

TEST(TraceTest, SpansNestIntoATree) {
  QueryTrace trace;
  {
    ScopedTrace collect(&trace);
    ASSERT_TRUE(collect.armed());
    TraceSpan root("query");
    root.SetLabel("CTS");
    {
      TraceSpan child("embed_query");
      child.AddCounter("tokens", 4);
    }
    {
      TraceSpan child("cts.cluster_search");
      TraceSpan grandchild("vdb.search");
      grandchild.AddCounter("k", 10);
    }
  }
  ASSERT_EQ(trace.spans().size(), 4u);
  const SpanRecord& root = trace.spans()[0];
  EXPECT_STREQ(root.name, "query");
  EXPECT_EQ(root.label, "CTS");
  EXPECT_EQ(root.parent, -1);
  EXPECT_EQ(root.depth, 0);

  const SpanRecord* embed = trace.Find("embed_query");
  ASSERT_NE(embed, nullptr);
  EXPECT_EQ(embed->parent, 0);
  EXPECT_EQ(embed->depth, 1);

  const SpanRecord* vdb = trace.Find("vdb.search");
  ASSERT_NE(vdb, nullptr);
  EXPECT_EQ(vdb->depth, 2);
  EXPECT_STREQ(trace.spans()[static_cast<size_t>(vdb->parent)].name,
               "cts.cluster_search");

  EXPECT_EQ(trace.CounterValue("embed_query", "tokens"), 4);
  EXPECT_EQ(trace.CounterValue("vdb.search", "k"), 10);
  EXPECT_GE(trace.TotalMillis(), 0.0);
  // Children complete before the root's destructor samples the clock.
  EXPECT_LE(trace.SpanMillis("embed_query"), trace.TotalMillis() + 1e-6);
}

TEST(TraceTest, SpanWithoutScopedTraceIsInert) {
  TraceSpan span("orphan");
  span.AddCounter("ignored", 1);
  EXPECT_FALSE(span.active());
}

TEST(TraceTest, FinishIsIdempotentAndEndsTiming) {
  QueryTrace trace;
  {
    ScopedTrace collect(&trace);
    TraceSpan outer("outer");
    TraceSpan inner("inner");
    inner.Finish();
    inner.Finish();  // second call is a no-op
    EXPECT_FALSE(inner.active());
    // After inner.Finish(), new spans attach to `outer` again.
    TraceSpan sibling("sibling");
  }
  const SpanRecord* sibling = trace.Find("sibling");
  ASSERT_NE(sibling, nullptr);
  EXPECT_STREQ(trace.spans()[static_cast<size_t>(sibling->parent)].name,
               "outer");
  ASSERT_EQ(trace.spans().size(), 3u);
}

TEST(TraceTest, ScopedTraceClearsStaleSink) {
  QueryTrace trace;
  {
    ScopedTrace collect(&trace);
    TraceSpan span("first");
  }
  ASSERT_EQ(trace.spans().size(), 1u);
  {
    ScopedTrace collect(&trace);
    TraceSpan span("second");
  }
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_STREQ(trace.spans()[0].name, "second");
}

TEST(TraceTest, NestedScopedTraceRestoresOuterContext) {
  QueryTrace outer_trace;
  QueryTrace inner_trace;
  {
    ScopedTrace outer(&outer_trace);
    TraceSpan before("before");
    before.Finish();
    {
      ScopedTrace inner(&inner_trace);
      TraceSpan span("inner_only");
    }
    TraceSpan after("after");
  }
  EXPECT_NE(outer_trace.Find("before"), nullptr);
  EXPECT_NE(outer_trace.Find("after"), nullptr);
  EXPECT_EQ(outer_trace.Find("inner_only"), nullptr);
  ASSERT_EQ(inner_trace.spans().size(), 1u);
  EXPECT_STREQ(inner_trace.spans()[0].name, "inner_only");
}

TEST(TraceTest, ToStringAndToJsonCoverEverySpan) {
  QueryTrace trace;
  {
    ScopedTrace collect(&trace);
    TraceSpan root("query");
    TraceSpan child("exs.scan");
    child.AddCounter("cells_scanned", 123);
  }
  std::string text = trace.ToString();
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("exs.scan"), std::string::npos);
  EXPECT_NE(text.find("cells_scanned=123"), std::string::npos);
  std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"exs.scan\""), std::string::npos);
  EXPECT_NE(json.find("\"cells_scanned\": 123"), std::string::npos);
}

TEST(TraceTest, SamplingZeroNeverArms) {
  SetTraceSampling(0);
  QueryTrace trace;
  {
    ScopedTrace collect(&trace);
    EXPECT_FALSE(collect.armed());
    TraceSpan span("dropped");
  }
  EXPECT_TRUE(trace.empty());
  SetTraceSampling(1);
}

TEST(TraceTest, SamplingEveryOtherArmsHalfTheTraces) {
  SetTraceSampling(2);
  int armed = 0;
  for (int i = 0; i < 10; ++i) {
    QueryTrace trace;
    ScopedTrace collect(&trace);
    if (collect.armed()) ++armed;
  }
  SetTraceSampling(1);
  EXPECT_EQ(armed, 5);
  EXPECT_EQ(GetTraceSampling(), 1u);
}

TEST(TraceTest, SamplingOneArmsEveryTrace) {
  SetTraceSampling(1);
  for (int i = 0; i < 5; ++i) {
    QueryTrace trace;
    ScopedTrace collect(&trace);
    EXPECT_TRUE(collect.armed());
  }
}

// ---------- Cross-thread propagation through ParallelFor ----------

TEST(TracePropagationTest, ParallelForSplicesWorkerSpansUnderForkSpan) {
  ThreadPool pool(4);
  QueryTrace trace;
  {
    ScopedTrace collect(&trace);
    ASSERT_TRUE(collect.armed());
    TraceSpan fork_span("parallel_section");
    ParallelFor(&pool, 0, 64, [](size_t i) {
      TraceSpan span("work_item");
      span.AddCounter("index", static_cast<int64_t>(i));
    });
  }
  ASSERT_FALSE(trace.empty());
  EXPECT_STREQ(trace.spans()[0].name, "parallel_section");

  size_t work_items = 0;
  std::set<int32_t> tids;
  for (const SpanRecord& span : trace.spans()) {
    if (std::string_view(span.name) != "work_item") continue;
    ++work_items;
    EXPECT_EQ(span.parent, 0) << "worker span must hang off the fork span";
    EXPECT_EQ(span.depth, 1);
    EXPECT_GT(span.tid, 0) << "worker spans carry the worker's thread id";
    tids.insert(span.tid);
  }
  EXPECT_EQ(work_items, 64u);
  EXPECT_GE(tids.size(), 1u);
  // Every item's counter arrived exactly once.
  EXPECT_EQ(trace.CounterValue("work_item", "index"), 64 * 63 / 2);
}

TEST(TracePropagationTest, ParallelForCancellableAlsoPropagates) {
  ThreadPool pool(2);
  QueryControl control;  // inactive: no deadline, no cancellation
  QueryTrace trace;
  {
    ScopedTrace collect(&trace);
    TraceSpan fork_span("cancellable_section");
    Status status = ParallelForCancellable(&pool, 0, 16, &control, [](size_t) {
      TraceSpan span("cancellable_item");
      return Status::OK();
    });
    ASSERT_TRUE(status.ok());
  }
  size_t items = 0;
  for (const SpanRecord& span : trace.spans()) {
    if (std::string_view(span.name) == "cancellable_item") {
      ++items;
      EXPECT_GT(span.tid, 0);
      EXPECT_EQ(span.parent, 0);
    }
  }
  EXPECT_EQ(items, 16u);
}

TEST(TracePropagationTest, UntracedParallelForRecordsNothing) {
  ThreadPool pool(2);
  QueryTrace trace;
  ParallelFor(&pool, 0, 8, [](size_t) { TraceSpan span("ghost"); });
  EXPECT_TRUE(trace.empty());
}

TEST(TracePropagationTest, WorkerSpansNestInsideTheForkSpanInterval) {
  ThreadPool pool(2);
  QueryTrace trace;
  {
    ScopedTrace collect(&trace);
    TraceSpan fork_span("section");
    ParallelFor(&pool, 0, 8, [](size_t) {
      TraceSpan span("timed_item");
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    });
  }
  const SpanRecord& section = trace.spans()[0];
  for (const SpanRecord& span : trace.spans()) {
    if (std::string_view(span.name) != "timed_item") continue;
    // Shared clock origin: worker intervals land inside the fork span's
    // interval (the join point is inside it by construction).
    EXPECT_GE(span.start_ms, section.start_ms - 1e-6);
    EXPECT_LE(span.start_ms + span.duration_ms,
              section.start_ms + section.duration_ms + 1e-6);
  }
}

#endif  // MIRA_OBS_ENABLED

}  // namespace
}  // namespace mira::obs
