// Serving-path observability: windowed aggregation, the flight recorder,
// the ServeObserver hub, exposition formats, and the RecommendService
// integration. Includes the disabled-path contract test (zero per-request
// heap allocations; the only request-path cost is the one relaxed load in
// ServeObserver::enabled()) backed by the counting global operator new in
// alloc_probe.cc.
#include <atomic>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "alloc_probe.h"
#include "ann/hnsw_index.h"
#include "common/logging.h"
#include "gtest/gtest.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/serve_observer.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace subrec {
namespace {

using alloc_probe::CountAllocatedBytes;
using alloc_probe::CountAllocations;

// --- Minimal JSON acceptor --------------------------------------------------
// Validates structure, string escaping (including \uXXXX), and rejects raw
// control characters — enough to prove every exported document parses.

class JsonChecker {
 public:
  static bool Valid(std::string_view text) {
    JsonChecker c(text);
    c.SkipWs();
    if (!c.Value()) return false;
    c.SkipWs();
    return c.pos_ == c.text_.size();
  }

 private:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  bool Eat(char c) {
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  void SkipWs() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
                        Peek() == '\r')) {
      ++pos_;
    }
  }
  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool String() {
    if (!Eat('"')) return false;
    while (!AtEnd()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;  // raw control characters are invalid
      if (c == '\\') {
        if (AtEnd()) return false;
        const char e = text_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (AtEnd() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
            ++pos_;
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
    }
    return false;
  }
  bool Number() {
    const size_t start = pos_;
    bool digit = false;
    while (!AtEnd()) {
      const char c = Peek();
      if (std::isdigit(static_cast<unsigned char>(c))) {
        digit = true;
        ++pos_;
      } else if (c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    return digit && pos_ > start;
  }
  bool Object() {
    Eat('{');
    SkipWs();
    if (Eat('}')) return true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Eat(':')) return false;
      if (!Value()) return false;
      SkipWs();
      if (Eat(',')) continue;
      return Eat('}');
    }
  }
  bool Array() {
    Eat('[');
    SkipWs();
    if (Eat(']')) return true;
    while (true) {
      if (!Value()) return false;
      SkipWs();
      if (Eat(',')) continue;
      return Eat(']');
    }
  }
  bool Value() {
    SkipWs();
    if (AtEnd()) return false;
    const char c = Peek();
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

bool Contains(const std::string& haystack, std::string_view needle) {
  return haystack.find(needle) != std::string::npos;
}

// --- RequestTrace -----------------------------------------------------------

TEST(RequestTrace, WriteJsonEmitsNonzeroStagesOnly) {
  obs::RequestTrace t;
  t.id = 7;
  t.user = 3;
  t.n = 10;
  t.generation = 2;
  t.total_ns = 5'000;
  t.candidate_count = 4;
  t.result_count = 2;
  t.cache_hit = false;
  t.candidate_source = "topic_pruned";
  t.stage_ns[static_cast<int>(obs::Stage::kScore)] = 3'000;
  obs::JsonWriter w;
  t.WriteJson(&w);
  const std::string json = w.str();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_TRUE(Contains(json, "\"stages_us\"")) << json;
  EXPECT_TRUE(Contains(json, "\"score\"")) << json;
  EXPECT_FALSE(Contains(json, "\"queue\"")) << json;
  EXPECT_TRUE(Contains(json, "\"candidate_source\":\"topic_pruned\"")) << json;
}

TEST(RequestTrace, ScoreBreakdownStagesSerializeWithNames) {
  obs::RequestTrace t;
  t.stage_ns[static_cast<int>(obs::Stage::kScore)] = 4'000;
  t.stage_ns[static_cast<int>(obs::Stage::kScoreGemm)] = 2'000;
  t.stage_ns[static_cast<int>(obs::Stage::kScoreEpilogue)] = 500;
  t.stage_ns[static_cast<int>(obs::Stage::kSelect)] = 1'000;
  obs::JsonWriter w;
  t.WriteJson(&w);
  const std::string json = w.str();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_TRUE(Contains(json, "\"select\"")) << json;
  EXPECT_TRUE(Contains(json, "\"score_gemm\"")) << json;
  EXPECT_TRUE(Contains(json, "\"score_epilogue\"")) << json;
}

TEST(RequestTrace, NullStageTimerIsANoOp) {
  obs::RequestTrace t;
  { obs::StageTimer timer(nullptr, obs::Stage::kScore); }
  for (int s = 0; s < obs::kNumStages; ++s) EXPECT_EQ(t.stage_ns[s], 0);
  { obs::StageTimer timer(&t, obs::Stage::kSelect); }
  EXPECT_GE(t.stage_ns[static_cast<int>(obs::Stage::kSelect)], 0);
}

// --- WindowedAggregator -----------------------------------------------------

TEST(WindowedAggregator, SingleBurstCountsRatesAndPercentiles) {
  obs::WindowOptions wo;
  wo.slice_ns = 1'000'000'000;
  wo.num_slices = 64;
  wo.num_stripes = 2;
  wo.latency_bounds_us = {10.0, 50.0, 100.0};
  wo.window_ns = {1'000'000'000, 10'000'000'000};
  obs::WindowedAggregator agg(wo);

  const int64_t now = 100'000'000'000;  // epoch 100 of 1s slices
  for (int i = 0; i < 100; ++i) {
    agg.Record(now, 30.0, /*error=*/i < 10, /*cache_hit=*/i < 25,
               /*shed=*/i < 5);
  }

  const obs::WindowSnapshot snap = agg.Snapshot(now);
  ASSERT_EQ(snap.windows.size(), 2u);
  const obs::WindowStats& w1 = snap.Closest(1.0);
  EXPECT_NEAR(w1.window_seconds, 1.0, 1e-12);
  EXPECT_EQ(w1.requests, 100);
  EXPECT_EQ(w1.errors, 10);
  EXPECT_EQ(w1.cache_hits, 25);
  EXPECT_EQ(w1.shed, 5);
  EXPECT_NEAR(w1.qps, 100.0, 1e-9);
  EXPECT_NEAR(w1.mean_us, 30.0, 1e-9);
  // All 100 observations sit in the (10, 50] bucket; uniform-within-bucket
  // interpolation puts pN at 10 + 40 * N/100.
  EXPECT_NEAR(w1.p50_us, 30.0, 1e-9);
  EXPECT_NEAR(w1.p95_us, 48.0, 1e-9);
  EXPECT_NEAR(w1.p99_us, 49.6, 1e-9);
  EXPECT_NEAR(w1.error_rate, 0.10, 1e-12);
  EXPECT_NEAR(w1.cache_hit_rate, 0.25, 1e-12);
  EXPECT_NEAR(w1.shed_rate, 0.05, 1e-12);

  const obs::WindowStats& w10 = snap.Closest(10.0);
  EXPECT_EQ(w10.requests, 100);
  EXPECT_NEAR(w10.qps, 10.0, 1e-9);  // same burst over a 10x longer window
}

TEST(WindowedAggregator, SlicesAgeOutOfShortWindowsFirst) {
  obs::WindowOptions wo;
  wo.slice_ns = 1'000'000'000;
  wo.num_slices = 16;
  wo.num_stripes = 1;
  wo.window_ns = {1'000'000'000, 10'000'000'000};
  obs::WindowedAggregator agg(wo);

  agg.Record(5'500'000'000, 20.0, false, false, false);  // epoch 5

  // Same epoch: both windows see it.
  EXPECT_EQ(agg.Snapshot(5'900'000'000).Closest(1.0).requests, 1);
  EXPECT_EQ(agg.Snapshot(5'900'000'000).Closest(10.0).requests, 1);
  // One epoch later the 1s window is empty but the 10s window still counts.
  const obs::WindowSnapshot later = agg.Snapshot(6'500'000'000);
  EXPECT_EQ(later.Closest(1.0).requests, 0);
  EXPECT_NEAR(later.Closest(1.0).qps, 0.0, 1e-12);
  EXPECT_NEAR(later.Closest(1.0).p99_us, 0.0, 1e-12);
  EXPECT_EQ(later.Closest(10.0).requests, 1);
  // Far in the future everything has aged out — no stale counts.
  const obs::WindowSnapshot quiet = agg.Snapshot(60'000'000'000);
  EXPECT_EQ(quiet.Closest(1.0).requests, 0);
  EXPECT_EQ(quiet.Closest(10.0).requests, 0);
}

TEST(WindowedAggregator, RingSlotIsReusedAcrossWraparound) {
  obs::WindowOptions wo;
  wo.slice_ns = 1'000'000'000;
  wo.num_slices = 4;
  wo.num_stripes = 1;
  wo.window_ns = {1'000'000'000};
  obs::WindowedAggregator agg(wo);

  // Epochs 1 and 5 hash to the same ring slot; the second write must retire
  // the first in place rather than double-count.
  agg.Record(1'200'000'000, 10.0, true, false, false);
  agg.Record(5'200'000'000, 90.0, false, true, false);
  const obs::WindowSnapshot snap = agg.Snapshot(5'200'000'000);
  const obs::WindowStats& w = snap.Closest(1.0);
  EXPECT_EQ(w.requests, 1);
  EXPECT_EQ(w.errors, 0);
  EXPECT_EQ(w.cache_hits, 1);
  EXPECT_NEAR(w.mean_us, 90.0, 1e-9);
}

TEST(WindowedAggregator, SnapshotWriteJsonIsValid) {
  obs::WindowedAggregator agg;
  agg.Record(1'000'000'000, 42.0, false, true, false);
  const obs::WindowSnapshot snap = agg.Snapshot(1'000'000'000);
  obs::JsonWriter w;
  snap.WriteJson(&w);
  const std::string json = w.str();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_TRUE(Contains(json, "\"p99_us\"")) << json;
  EXPECT_TRUE(Contains(json, "\"cache_hit_rate\"")) << json;
}

TEST(WindowedAggregator, RecordNeverAllocatesAfterConstruction) {
  obs::WindowOptions wo;
  wo.num_stripes = 2;
  obs::WindowedAggregator agg(wo);
  // Prime this thread (dense thread id registration happens once).
  agg.Record(0, 1.0, false, false, false);
  const int64_t allocs = CountAllocations([&] {
    for (int i = 0; i < 1000; ++i) {
      // Advancing now_ns across slice boundaries also exercises the
      // in-place stale-slice reset, which must reuse the bucket storage.
      agg.Record(static_cast<int64_t>(i) * 1'000'000,
                 static_cast<double>(i % 500), i % 7 == 0, i % 3 == 0, false);
    }
  });
  EXPECT_EQ(allocs, 0);
}

TEST(WindowedAggregator, ConcurrentRecordAndSnapshotHammer) {
  obs::WindowOptions wo;
  wo.num_stripes = 4;
  obs::WindowedAggregator agg(wo);
  const int64_t now = obs::NowNs();  // fixed: all records share one epoch

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::WindowSnapshot snap = agg.Snapshot(now);
      ASSERT_EQ(snap.windows.size(), 3u);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&agg, now, t] {
      for (int i = 0; i < 2500; ++i) {
        agg.Record(now, static_cast<double>((t * 2500 + i) % 100), i % 11 == 0,
                   i % 2 == 0, false);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(agg.Snapshot(now).Closest(60.0).requests, 10000);
}

// --- FlightRecorder ---------------------------------------------------------

obs::RequestTrace TraceWith(int32_t user, int64_t total_ns) {
  obs::RequestTrace t;
  t.user = user;
  t.n = 5;
  t.total_ns = total_ns;
  return t;
}

TEST(FlightRecorder, RecentRingKeepsNewestOldestFirstAndCountsDrops) {
  obs::FlightRecorderOptions fo;
  fo.recent_capacity = 4;
  fo.slowest_capacity = 2;
  fo.exemplar_bounds_us = {100.0, 1000.0};
  obs::FlightRecorder rec(fo);

  for (int i = 1; i <= 6; ++i) {
    EXPECT_EQ(rec.Record(TraceWith(i, i * 40'000)), i);  // ids are 1-based
  }
  EXPECT_EQ(rec.TotalRecorded(), 6);
  EXPECT_EQ(rec.Dropped(), 2);

  const std::vector<obs::RequestTrace> recent = rec.Recent();
  ASSERT_EQ(recent.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(recent[static_cast<size_t>(i)].id, i + 3);
    EXPECT_EQ(recent[static_cast<size_t>(i)].user, i + 3);
  }

  const std::vector<obs::RequestTrace> slowest = rec.Slowest();
  ASSERT_EQ(slowest.size(), 2u);
  EXPECT_EQ(slowest[0].total_ns, 240'000);
  EXPECT_EQ(slowest[1].total_ns, 200'000);

  // Latencies 40..240us against bounds {100, 1000}: nothing <= 100us is last
  // recorded at 80us (trace 2); the (100, 1000] bucket last saw 240us
  // (trace 6); the overflow bucket never fired.
  const std::vector<obs::Exemplar> ex = rec.Exemplars();
  ASSERT_EQ(ex.size(), 3u);
  EXPECT_EQ(ex[0].trace_id, 2);
  EXPECT_NEAR(ex[0].latency_us, 80.0, 1e-9);
  EXPECT_EQ(ex[1].trace_id, 6);
  EXPECT_NEAR(ex[1].latency_us, 240.0, 1e-9);
  EXPECT_EQ(ex[2].trace_id, 0);
}

TEST(FlightRecorder, LogsRequestsAboveTheSlowThreshold) {
  obs::FlightRecorderOptions fo;
  fo.slow_log_threshold_ns = 100'000;
  obs::FlightRecorder rec(fo);

  LogCapture capture;
  rec.Record(TraceWith(1, 50'000));  // below threshold: silent
  rec.Record(TraceWith(7, 250'000));
  const std::vector<std::string> lines = capture.lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("slow request: trace_id=2"), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("user=7"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("total_us=250"), std::string::npos) << lines[0];
}

TEST(FlightRecorder, WriteJsonIsValid) {
  obs::FlightRecorder rec;
  rec.Record(TraceWith(1, 5'000));
  rec.Record(TraceWith(2, 500'000));
  obs::JsonWriter w;
  rec.WriteJson(&w);
  const std::string json = w.str();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_TRUE(Contains(json, "\"recent\"")) << json;
  EXPECT_TRUE(Contains(json, "\"slowest\"")) << json;
  EXPECT_TRUE(Contains(json, "\"exemplars\"")) << json;
}

TEST(FlightRecorder, RecordNeverAllocatesAfterConstruction) {
  obs::FlightRecorderOptions fo;
  fo.recent_capacity = 16;
  fo.slowest_capacity = 8;
  obs::FlightRecorder rec(fo);
  rec.Record(TraceWith(0, 1'000));  // prime dense-thread-id registration
  const int64_t allocs = CountAllocations([&] {
    for (int i = 0; i < 500; ++i) {
      rec.Record(TraceWith(i, (i % 97) * 1'000));
    }
  });
  EXPECT_EQ(allocs, 0);
}

TEST(FlightRecorder, ConcurrentRecordHammer) {
  obs::FlightRecorderOptions fo;
  fo.recent_capacity = 32;
  fo.slowest_capacity = 8;
  obs::FlightRecorder rec(fo);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < 500; ++i) {
        rec.Record(TraceWith(t, (t * 500 + i) * 1'000));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(rec.TotalRecorded(), 2000);
  EXPECT_EQ(rec.Dropped(), 2000 - 32);
  const std::vector<obs::RequestTrace> recent = rec.Recent();
  ASSERT_EQ(recent.size(), 32u);
  for (const obs::RequestTrace& t : recent) {
    EXPECT_GT(t.id, 0);
    EXPECT_LE(t.id, 2000);
  }
}

// --- ServeObserver ----------------------------------------------------------

TEST(ServeObserver, DisabledObserverOwnsNothing) {
  obs::ServeObserver observer;
  EXPECT_FALSE(observer.enabled());
  EXPECT_EQ(observer.window(), nullptr);
  EXPECT_EQ(observer.recorder(), nullptr);
  EXPECT_TRUE(observer.StageStats().empty());
  obs::RequestTrace t;
  t.total_ns = 1'000;
  EXPECT_EQ(observer.OnComplete(0, 1.0, false, false, false, &t), 0);
  EXPECT_EQ(observer.window(), nullptr);  // OnComplete allocated nothing
}

TEST(ServeObserver, DisabledRequestPathDoesNotAllocate) {
  // The acceptance contract for sampling-off serving: zero heap allocations
  // per request, and the only observability cost is the single relaxed
  // atomic load inside enabled(). The loop below mirrors the exact
  // instrumentation statements RecommendService::TopNInternal adds to the
  // request path — the enabled() gate, the stack-allocated RequestTrace,
  // the null StageTimers, and the guarded OnComplete — so if any of them
  // ever grows a hidden allocation, this test fails.
  obs::ServeObserver observer;
  ASSERT_FALSE(observer.enabled());
  int64_t sink = 0;
  const int64_t allocs = CountAllocations([&] {
    for (int i = 0; i < 256; ++i) {
      const bool observing = observer.enabled();
      obs::RequestTrace trace;
      obs::RequestTrace* t = observing ? &trace : nullptr;
      { obs::StageTimer timer(t, obs::Stage::kCacheLookup); }
      { obs::StageTimer timer(t, obs::Stage::kCandidates); }
      { obs::StageTimer timer(t, obs::Stage::kScore); }
      { obs::StageTimer timer(t, obs::Stage::kCacheInsert); }
      if (observing) {
        observer.OnComplete(i, 1.0, false, false, false, t);
      }
      sink += trace.user;
    }
  });
  EXPECT_EQ(allocs, 0);
  EXPECT_EQ(sink, -256);  // trace.user default (-1) per iteration
}

TEST(ServeObserver, SamplesEveryNthTicketAndAggregatesStages) {
  obs::ServeObserverOptions so;
  so.enabled = true;
  so.sample_every_n = 2;
  so.window.slice_ns = 1'000'000'000;
  so.window.window_ns = {1'000'000'000};
  obs::ServeObserver observer(so);
  ASSERT_TRUE(observer.enabled());
  ASSERT_NE(observer.window(), nullptr);
  ASSERT_NE(observer.recorder(), nullptr);

  EXPECT_TRUE(observer.SampleTrace());   // ticket 0
  EXPECT_FALSE(observer.SampleTrace());  // ticket 1
  EXPECT_TRUE(observer.SampleTrace());   // ticket 2

  const int64_t now = 5'000'000'000;
  obs::RequestTrace t;
  t.user = 1;
  t.total_ns = 5'000;
  t.stage_ns[static_cast<int>(obs::Stage::kScore)] = 3'000;
  t.stage_ns[static_cast<int>(obs::Stage::kSelect)] = 1'000;
  EXPECT_EQ(observer.OnComplete(now, 5.0, false, true, false, &t), 1);
  // Unsampled request: window-only accounting, no recorder entry.
  EXPECT_EQ(observer.OnComplete(now, 7.0, true, false, false, nullptr), 0);

  const obs::WindowSnapshot snap = observer.window()->Snapshot(now);
  const obs::WindowStats& w = snap.Closest(1.0);
  EXPECT_EQ(w.requests, 2);
  EXPECT_EQ(w.errors, 1);
  EXPECT_EQ(w.cache_hits, 1);
  EXPECT_EQ(observer.recorder()->TotalRecorded(), 1);

  const std::vector<obs::StageStat> stats = observer.StageStats();
  ASSERT_EQ(stats.size(), static_cast<size_t>(obs::kNumStages));
  const obs::StageStat& score =
      stats[static_cast<size_t>(obs::Stage::kScore)];
  EXPECT_STREQ(score.name, "score");
  EXPECT_EQ(score.sampled, 1);
  EXPECT_NEAR(score.total_us, 3.0, 1e-9);
  EXPECT_NEAR(score.mean_us, 3.0, 1e-9);
  EXPECT_EQ(stats[static_cast<size_t>(obs::Stage::kQueue)].sampled, 0);
}

// --- Exposition -------------------------------------------------------------

obs::MetricsSnapshot ExampleMetrics() {
  obs::MetricsSnapshot ms;
  ms.counters["serve.requests"] = 5;
  ms.gauges["serve.qps"] = 12.5;
  obs::MetricsSnapshot::HistogramData h;
  h.bounds = {1.0, 10.0};
  h.buckets = {1, 2, 3};
  h.count = 6;
  h.sum = 40.0;
  ms.histograms["serve.latency_us"] = h;
  return ms;
}

TEST(Exposition, StatuszShowsEverySection) {
  obs::WindowedAggregator agg;
  agg.Record(1'000'000'000, 42.0, false, true, false);
  const obs::WindowSnapshot window = agg.Snapshot(1'000'000'000);
  const obs::MetricsSnapshot metrics = ExampleMetrics();
  obs::FlightRecorder recorder;
  recorder.Record(TraceWith(3, 42'000));
  const std::vector<obs::StageStat> stages = {
      {"score", 1, 3.0, 3.0},
  };

  obs::StatuszData d;
  d.uptime_ns = 2'500'000'000;
  d.metrics = &metrics;
  d.window = &window;
  d.stages = &stages;
  d.recorder = &recorder;
  const std::string page = obs::ExportStatusz(d);
  EXPECT_TRUE(Contains(page, "=== subrec statusz ===")) << page;
  EXPECT_TRUE(Contains(page, "uptime_seconds: 2.500")) << page;
  EXPECT_TRUE(Contains(page, "-- rolling windows --")) << page;
  EXPECT_TRUE(Contains(page, "p99_us")) << page;
  EXPECT_TRUE(Contains(page, "-- stage latency (sampled traces) --")) << page;
  EXPECT_TRUE(Contains(page, "-- flight recorder --")) << page;
  EXPECT_TRUE(Contains(page, "recorded=1 dropped=0")) << page;
  EXPECT_TRUE(Contains(page, "-- counters --")) << page;
  EXPECT_TRUE(Contains(page, "serve.requests")) << page;
}

TEST(Exposition, StatuszBreaksDownCandidateSources) {
  obs::MetricsSnapshot metrics;
  metrics.counters["serve.candidates.source.ann_embedding"] = 3;
  metrics.counters["serve.candidates.source.topic_pruned"] = 1;
  metrics.counters["serve.requests"] = 4;
  obs::StatuszData d;
  d.metrics = &metrics;
  const std::string page = obs::ExportStatusz(d);
  EXPECT_TRUE(Contains(page, "-- candidate sources (scored requests) --"))
      << page;
  EXPECT_TRUE(Contains(page, "ann_embedding")) << page;
  EXPECT_TRUE(Contains(page, "75.00%")) << page;
  EXPECT_TRUE(Contains(page, "25.00%")) << page;

  // Processes that never registered the family get no section at all.
  obs::MetricsSnapshot unrelated;
  unrelated.counters["serve.requests"] = 4;
  obs::StatuszData d2;
  d2.metrics = &unrelated;
  EXPECT_FALSE(Contains(obs::ExportStatusz(d2), "candidate sources"));
}

TEST(Exposition, MetricsJsonIsParseableWithEverySection) {
  obs::WindowedAggregator agg;
  agg.Record(1'000'000'000, 42.0, false, true, false);
  const obs::WindowSnapshot window = agg.Snapshot(1'000'000'000);
  const obs::MetricsSnapshot metrics = ExampleMetrics();
  obs::FlightRecorder recorder;
  recorder.Record(TraceWith(3, 42'000));
  const std::vector<obs::StageStat> stages = {
      {"score", 1, 3.0, 3.0},
  };

  obs::StatuszData d;
  d.metrics = &metrics;
  d.window = &window;
  d.stages = &stages;
  d.recorder = &recorder;
  const std::string json = obs::ExportMetricsJson(d);
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_TRUE(Contains(json, "\"metrics\"")) << json;
  EXPECT_TRUE(Contains(json, "\"windows\"")) << json;
  EXPECT_TRUE(Contains(json, "\"stages\"")) << json;
  EXPECT_TRUE(Contains(json, "\"flight_recorder\"")) << json;

  // Omitted sections keep the document complete and parseable.
  const obs::StatuszData empty;
  const std::string minimal = obs::ExportMetricsJson(empty);
  EXPECT_TRUE(JsonChecker::Valid(minimal)) << minimal;
}

TEST(Exposition, PrometheusEmitsTypedSeriesAndWindowGauges) {
  obs::WindowedAggregator agg;
  agg.Record(1'000'000'000, 42.0, false, true, false);
  const obs::WindowSnapshot window = agg.Snapshot(1'000'000'000);
  const obs::MetricsSnapshot metrics = ExampleMetrics();

  obs::StatuszData d;
  d.metrics = &metrics;
  d.window = &window;
  const std::string text = obs::ExportPrometheus(d);
  // Dotted registry names sanitize to underscores.
  EXPECT_TRUE(Contains(text, "# TYPE serve_requests counter")) << text;
  EXPECT_TRUE(Contains(text, "serve_requests 5")) << text;
  EXPECT_TRUE(Contains(text, "# TYPE serve_qps gauge")) << text;
  EXPECT_TRUE(Contains(text, "# TYPE serve_latency_us histogram")) << text;
  // Buckets are cumulative: 1, then 1+2, then the +Inf total.
  EXPECT_TRUE(Contains(text, "serve_latency_us_bucket{le=\"1\"} 1")) << text;
  EXPECT_TRUE(Contains(text, "serve_latency_us_bucket{le=\"10\"} 3")) << text;
  EXPECT_TRUE(Contains(text, "serve_latency_us_bucket{le=\"+Inf\"} 6"))
      << text;
  EXPECT_TRUE(Contains(text, "serve_latency_us_sum 40")) << text;
  EXPECT_TRUE(Contains(text, "serve_latency_us_count 6")) << text;
  EXPECT_TRUE(Contains(text, "subrec_window_p99_us{window=\"1s\"}")) << text;
  EXPECT_TRUE(Contains(text, "subrec_window_qps{window=\"60s\"}")) << text;
}

// --- RecommendService integration -------------------------------------------

/// The handcrafted 4-paper, 2-user snapshot from serve_test: papers 2 and 3
/// are post-split (servable), user 0's topic-pruned pool is exactly paper 2.
serve::SnapshotData TinyServingData() {
  serve::SnapshotData d;
  d.model_name = "NPRec";
  d.dataset = "tiny";
  d.split_year = 2014;
  d.interest = {{1.0, 0.0}, {0.5, 0.5}, {0.0, 1.0}, {0.25, -0.75}};
  d.influence = {{0.2, 0.1}, {-0.5, 1.0}, {1.0, 1.0}, {0.0, 0.0}};
  d.text = {{0.1}, {0.2}, {0.3}, {0.4}};
  d.years = {2012, 2013, 2015, 2016};
  d.disciplines = {0, 1, 0, 1};
  d.topics = {0, 1, 0, 1};
  d.profiles = {{0}, {1, 0}};
  return d;
}

/// A deterministic synthetic snapshot big enough that per-row transients
/// (the failure mode these probes guard) would dominate any fixed
/// per-section overhead.
serve::SnapshotData SyntheticServingData(size_t papers, size_t dim) {
  serve::SnapshotData d;
  d.model_name = "NPRec";
  d.dataset = "synthetic";
  d.split_year = 2014;
  d.interest.ResizeOverwrite(papers, dim);
  d.influence.ResizeOverwrite(papers, dim);
  for (size_t p = 0; p < papers; ++p) {
    for (size_t j = 0; j < dim; ++j) {
      d.interest(p, j) =
          static_cast<double>((p * 31 + j * 7) % 13) / 13.0 - 0.5;
      d.influence(p, j) =
          static_cast<double>((p * 17 + j * 11) % 19) / 19.0 - 0.5;
    }
  }
  d.years.assign(papers, 2015);
  d.disciplines.assign(papers, 0);
  d.topics.assign(papers, 0);
  d.profiles = {{0, 1, 2}, {3, 4}};
  return d;
}

TEST(ScorerAllocation, SteadyStateScoringLoopIsAllocationFree) {
  // The batched-engine acceptance contract: once per-thread scratch and
  // the output containers are warm, scoring + selection allocate NOTHING,
  // in either engine mode, with or without stage stats. Growth of any
  // hidden temporary (a per-tile vector, a per-call string, a rehash)
  // fails this test.
  const serve::FrozenScorer scorer(SyntheticServingData(512, 24));
  const std::vector<int32_t> profile = {3, 5, 7, 11, 13, 17, 19};
  std::vector<int32_t> candidates(512);
  for (size_t i = 0; i < candidates.size(); ++i)
    candidates[i] = static_cast<int32_t>(i);

  std::vector<serve::ScoredPaper> out;
  std::vector<double> scores;
  serve::ScoreBatchStats stats;
  const std::vector<int32_t> profile2 = {2, 4, 6};
  std::vector<std::vector<double>> stacked_scores(2);
  std::vector<serve::FrozenScorer::StackedRequest> stacked = {
      {&profile, &stacked_scores[0]}, {&profile2, &stacked_scores[1]}};

  // Warm-up: primes scratch, counter-registry statics, and capacities.
  for (const auto mode :
       {serve::ScorerMode::kGemm, serve::ScorerMode::kPairwise}) {
    scorer.TopNInto(profile, candidates, 10, mode, nullptr, nullptr, &out);
  }
  scorer.ScoreBatchInto(profile, candidates, &scores, &stats);
  scorer.ScoreStackedInto(stacked, candidates, &stats);

  const int64_t allocs = CountAllocations([&] {
    for (int i = 0; i < 16; ++i) {
      scorer.TopNInto(profile, candidates, 10, serve::ScorerMode::kGemm,
                      nullptr, nullptr, &out);
      scorer.TopNInto(profile, candidates, 10, serve::ScorerMode::kPairwise,
                      nullptr, nullptr, &out);
      scorer.ScoreBatchInto(profile, candidates, &scores, &stats);
      scorer.ScoreStackedInto(stacked, candidates, &stats);
    }
  });
  EXPECT_EQ(allocs, 0);
  ASSERT_EQ(out.size(), 10u);
}

TEST(AnnAllocation, SteadyStateHnswSearchIsAllocationFree) {
  // The kAnnEmbedding retrieval path is one HnswIndex::Search per user
  // query, so this is the graph-walk analogue of the scoring-loop probe
  // above: after one warm call per thread the search scratch (visited
  // stamps, frontier/best heaps, the SIMD distance batches) lives in the
  // thread-local pool and `out` keeps its capacity — a loop of queries
  // must allocate NOTHING. A per-search scratch allocation, a heap that
  // re-grows, or a transient in the batch kernel fails this test.
  constexpr size_t kPapers = 512;
  constexpr size_t kDim = 24;
  std::vector<int32_t> ids(kPapers);
  std::vector<double> vectors(kPapers * kDim);
  for (size_t p = 0; p < kPapers; ++p) {
    ids[p] = static_cast<int32_t>(p);
    for (size_t j = 0; j < kDim; ++j)
      vectors[p * kDim + j] =
          static_cast<double>((p * 31 + j * 7) % 13) / 13.0 - 0.5;
  }
  auto built = ann::HnswIndex::Build(std::move(ids), std::move(vectors), kDim,
                                     ann::HnswOptions{});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto& index = built.value();

  std::vector<double> query(kDim);
  std::vector<ann::Neighbor> out;
  ann::SearchStats stats;
  const auto fill_query = [&](int i) {
    for (size_t j = 0; j < kDim; ++j)
      query[j] = static_cast<double>((static_cast<size_t>(i) * 17 + j) % 11) /
                     11.0 -
                 0.5;
  };

  // Warm-up: primes the thread-local scratch pool and out's capacity.
  fill_query(0);
  ASSERT_TRUE(index->Search(query, 10, 128, &out, &stats).ok());

  const int64_t allocs = CountAllocations([&] {
    for (int i = 0; i < 16; ++i) {
      fill_query(i);
      ASSERT_TRUE(index->Search(query, 10, 128, &out, &stats).ok());
      ASSERT_TRUE(index->Search(query, 10, 128, &out, nullptr).ok());
    }
  });
  EXPECT_EQ(allocs, 0);
  ASSERT_EQ(out.size(), 10u);
}

TEST(SnapshotAllocation, DecodeAllocatesPerSectionNotPerRow) {
  // The slab decode contract: parsing a snapshot performs a bounded,
  // shape-independent number of allocations (one slab per matrix plus
  // per-section bookkeeping), and never transiently doubles the big
  // slabs. The pre-slab decoder allocated one vector per row — with
  // 4096 rows this bound would blow up by two orders of magnitude.
  const serve::SnapshotData big = SyntheticServingData(4096, 8);
  const serve::SnapshotWriter writer(big);
  const std::string& bytes = writer.bytes();

  serve::SnapshotData parsed;
  int64_t alloc_bytes = 0;
  const int64_t allocs = CountAllocations([&] {
    alloc_bytes = CountAllocatedBytes([&] {
      auto result = serve::SnapshotReader::Parse(bytes);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      parsed = std::move(result).value();
    });
  });
  EXPECT_LE(allocs, 64) << "snapshot decode is allocating per row again";
  // Every byte allocated during the parse must be accounted for by the
  // decoded payload itself (slabs + attribute arrays), not transient
  // copies: allow the payload once plus 64 KiB of fixed overhead.
  EXPECT_LE(alloc_bytes, static_cast<int64_t>(bytes.size()) + 64 * 1024);
  ASSERT_EQ(parsed.interest.rows(), 4096u);
  ASSERT_EQ(parsed.interest.cols(), 8u);
}

TEST(ServiceObservability, GemmTracesCarryScoreStageBreakdown) {
  serve::ServeOptions so;
  so.num_threads = 1;
  so.cache_capacity = 0;
  so.observer.enabled = true;
  so.observer.sample_every_n = 1;
  so.observer.recorder.recent_capacity = 4;
  serve::RecommendService service(so);
  auto state = serve::ServingState::FromSnapshot(TinyServingData(), so.index);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  service.Swap(std::move(state).value());

  const auto counters_before =
      obs::MetricsRegistry::Global().Snapshot().counters;
  auto value_of = [](const std::map<std::string, int64_t>& counters,
                     const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? int64_t{0} : it->second;
  };

  const serve::RecResponse r = service.TopN(1, 3);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();

  const auto counters_after =
      obs::MetricsRegistry::Global().Snapshot().counters;
  EXPECT_EQ(value_of(counters_after, "serve.score.requests.gemm"),
            value_of(counters_before, "serve.score.requests.gemm") + 1);
  EXPECT_EQ(value_of(counters_after, "serve.score.requests.pairwise"),
            value_of(counters_before, "serve.score.requests.pairwise"));

  // The sampled trace splits the score stage into kernel and epilogue;
  // the breakdown can never exceed the enclosing score stage.
  const std::vector<obs::RequestTrace> recent =
      service.observer().recorder()->Recent();
  ASSERT_FALSE(recent.empty());
  const obs::RequestTrace& t = recent[0];
  const int64_t score = t.stage_ns[static_cast<int>(obs::Stage::kScore)];
  const int64_t sub = t.stage_ns[static_cast<int>(obs::Stage::kScoreGemm)] +
                      t.stage_ns[static_cast<int>(obs::Stage::kScoreEpilogue)];
  EXPECT_GT(score, 0);
  EXPECT_GE(sub, 0);
  EXPECT_LE(sub, score);
}

TEST(ServiceObservability, DisabledByDefaultAndInert) {
  serve::ServeOptions so;
  so.num_threads = 1;
  serve::RecommendService service(so);
  auto state = serve::ServingState::FromSnapshot(TinyServingData(), so.index);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  service.Swap(std::move(state).value());

  for (int i = 0; i < 8; ++i) service.TopN(0, 5);
  EXPECT_FALSE(service.observer().enabled());
  EXPECT_EQ(service.observer().window(), nullptr);
  EXPECT_EQ(service.observer().recorder(), nullptr);
  EXPECT_TRUE(service.observer().StageStats().empty());
}

TEST(ServiceObservability, RequestsLandInWindowsStagesAndRecorder) {
  serve::ServeOptions so;
  so.num_threads = 2;
  so.batch_size = 2;
  so.observer.enabled = true;
  so.observer.sample_every_n = 1;  // trace every request
  so.observer.recorder.recent_capacity = 16;
  serve::RecommendService service(so);
  auto state = serve::ServingState::FromSnapshot(TinyServingData(), so.index);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  service.Swap(std::move(state).value());

  const serve::RecResponse miss = service.TopN(0, 5);
  ASSERT_TRUE(miss.status.ok()) << miss.status.ToString();
  EXPECT_FALSE(miss.cache_hit);
  ASSERT_FALSE(miss.items.empty());
  const serve::RecResponse hit = service.TopN(0, 5);
  EXPECT_TRUE(hit.cache_hit);
  const serve::RecResponse bad = service.TopN(42, 5);
  EXPECT_FALSE(bad.status.ok());
  const std::vector<serve::RecResponse> batch =
      service.TopNBatch({{1, 3}, {0, 5}});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].status.ok()) << batch[0].status.ToString();
  EXPECT_TRUE(batch[1].cache_hit);

  const obs::ServeObserver& observer = service.observer();
  ASSERT_TRUE(observer.enabled());
  ASSERT_NE(observer.window(), nullptr);
  const obs::WindowSnapshot live = observer.window()->Snapshot(obs::NowNs());
  const obs::WindowStats& w = live.Closest(60.0);
  EXPECT_EQ(w.requests, 5);
  EXPECT_EQ(w.errors, 1);
  EXPECT_EQ(w.cache_hits, 2);
  EXPECT_NEAR(w.error_rate, 0.2, 1e-12);
  EXPECT_NEAR(w.cache_hit_rate, 0.4, 1e-12);

  ASSERT_NE(observer.recorder(), nullptr);
  EXPECT_EQ(observer.recorder()->TotalRecorded(), 5);
  const std::vector<obs::RequestTrace> recent = observer.recorder()->Recent();
  ASSERT_EQ(recent.size(), 5u);
  // Trace 1: user 0 cache miss, scored from the topic-pruned pool.
  EXPECT_EQ(recent[0].user, 0);
  EXPECT_FALSE(recent[0].cache_hit);
  EXPECT_FALSE(recent[0].error);
  EXPECT_EQ(recent[0].generation, 1u);
  EXPECT_GE(recent[0].candidate_count, 1);
  ASSERT_NE(recent[0].candidate_source, nullptr);
  EXPECT_STREQ(recent[0].candidate_source, "topic_pruned");
  EXPECT_GT(recent[0].result_count, 0);
  // Trace 2: the cache hit never reaches the scoring stage.
  EXPECT_TRUE(recent[1].cache_hit);
  EXPECT_EQ(recent[1].stage_ns[static_cast<int>(obs::Stage::kScore)], 0);
  // Trace 3: the unknown user is recorded as an error with no candidates.
  EXPECT_TRUE(recent[2].error);
  EXPECT_EQ(recent[2].user, 42);
  EXPECT_EQ(recent[2].candidate_source, nullptr);
  EXPECT_EQ(recent[2].result_count, 0);
  // Traces 4-5 came through SubmitBatch, so queue time is attributed.
  EXPECT_EQ(recent[3].user, 1);
  EXPECT_GE(recent[3].stage_ns[static_cast<int>(obs::Stage::kQueue)], 0);
  EXPECT_GE(recent[3].total_ns,
            recent[3].stage_ns[static_cast<int>(obs::Stage::kQueue)]);

  const std::vector<obs::StageStat> stages = observer.StageStats();
  ASSERT_EQ(stages.size(), static_cast<size_t>(obs::kNumStages));
  EXPECT_STREQ(stages[0].name, "queue");
  EXPECT_STREQ(stages[1].name, "cache_lookup");
  EXPECT_STREQ(stages[2].name, "candidates");
  EXPECT_STREQ(stages[3].name, "score");
  EXPECT_STREQ(stages[4].name, "select");
  EXPECT_STREQ(stages[5].name, "cache_insert");
  // Only the three non-hit, non-error requests could reach scoring.
  EXPECT_LE(stages[3].sampled, 3);
  EXPECT_GE(stages[3].total_us, 0.0);

  // The live service state exports cleanly in every format.
  const obs::WindowSnapshot window = observer.window()->Snapshot(obs::NowNs());
  obs::StatuszData d;
  d.window = &window;
  d.stages = &stages;
  d.recorder = observer.recorder();
  const std::string page = obs::ExportStatusz(d);
  EXPECT_TRUE(Contains(page, "slowest:")) << page;
  EXPECT_TRUE(Contains(page, "topic_pruned")) << page;
  const std::string json = obs::ExportMetricsJson(d);
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
}

TEST(ServiceObservability, ConcurrentBatchesSwapAndExportHammer) {
  serve::ServeOptions so;
  so.num_threads = 4;
  so.batch_size = 4;
  so.observer.enabled = true;
  so.observer.sample_every_n = 3;
  so.observer.recorder.recent_capacity = 32;
  serve::RecommendService service(so);
  auto state = serve::ServingState::FromSnapshot(TinyServingData(), so.index);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  service.Swap(std::move(state).value());

  std::atomic<bool> stop{false};
  std::thread exporter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::WindowSnapshot snap =
          service.observer().window()->Snapshot(obs::NowNs());
      const std::vector<obs::StageStat> stages =
          service.observer().StageStats();
      obs::StatuszData d;
      d.window = &snap;
      d.stages = &stages;
      d.recorder = service.observer().recorder();
      const std::string page = obs::ExportStatusz(d);
      ASSERT_FALSE(page.empty());
    }
  });

  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&service] {
      for (int b = 0; b < 4; ++b) {
        std::vector<serve::RecRequest> requests;
        for (int i = 0; i < 16; ++i) {
          requests.push_back(serve::RecRequest{i % 2, 4});
        }
        const std::vector<serve::RecResponse> responses =
            service.TopNBatch(requests);
        for (const serve::RecResponse& r : responses) {
          EXPECT_TRUE(r.status.ok()) << r.status.ToString();
        }
      }
    });
  }
  // Hot reload while batches are in flight: in-flight requests finish on the
  // old generation and are still counted exactly once.
  auto state2 = serve::ServingState::FromSnapshot(TinyServingData(), so.index);
  ASSERT_TRUE(state2.ok()) << state2.status().ToString();
  service.Swap(std::move(state2).value());
  for (std::thread& t : submitters) t.join();
  stop.store(true, std::memory_order_relaxed);
  exporter.join();

  const obs::WindowSnapshot final_snap =
      service.observer().window()->Snapshot(obs::NowNs());
  const obs::WindowStats& w = final_snap.Closest(60.0);
  EXPECT_EQ(w.requests, 128);  // 2 threads x 4 batches x 16 requests
  EXPECT_EQ(w.errors, 0);
  // Every request draws one sampling ticket; every third is traced.
  EXPECT_EQ(service.observer().recorder()->TotalRecorded(), 43);
}

}  // namespace
}  // namespace subrec
