// Tests for the observability layer (src/obs/): span tracing, the metrics
// registry, Chrome-trace export, the unified run report, and the
// non-negotiable gate — tracing must never change what the pipeline
// computes (byte-identical layouts and models with tracing on or off, at
// any thread count).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attack/dl_attack.hpp"
#include "layout/def_io.hpp"
#include "layout/design.hpp"
#include "netlist/generator.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "runtime/thread_pool.hpp"
#include "test_support.hpp"
#include "util/logging.hpp"

namespace sma::obs {
namespace {

/// Structural JSON check: braces/brackets balance outside of strings and
/// nothing trails the root value. Not a full parser, but catches the
/// escaping and nesting mistakes a hand-rolled serializer can make.
bool json_balanced(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  bool root_closed = false;
  for (char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (root_closed && !std::isspace(static_cast<unsigned char>(c))) {
      return false;  // trailing garbage after the root value
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        if (depth == 0) root_closed = true;
        break;
      default:
        break;
    }
  }
  return depth == 0 && !in_string && root_closed;
}

/// Fresh trace session for a test; restores the disabled state on exit.
struct TraceSession {
  TraceSession() { set_tracing_enabled(true); }
  ~TraceSession() { set_tracing_enabled(false); }
};

TEST(Histogram, BucketOfMatchesPowerOfTwoEdges) {
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(7), 3);
  EXPECT_EQ(Histogram::bucket_of(8), 4);
  EXPECT_EQ(Histogram::bucket_of(1023), 10);
  EXPECT_EQ(Histogram::bucket_of(1024), 11);
  // The top bucket is open-ended.
  EXPECT_EQ(Histogram::bucket_of(UINT64_MAX), Histogram::kNumBuckets - 1);

  EXPECT_EQ(Histogram::bucket_floor(0), 0u);
  EXPECT_EQ(Histogram::bucket_floor(1), 1u);
  EXPECT_EQ(Histogram::bucket_floor(2), 2u);
  EXPECT_EQ(Histogram::bucket_floor(3), 4u);
  EXPECT_EQ(Histogram::bucket_floor(11), 1024u);
  // Every value lands in the bucket whose floor it is >= to.
  for (std::uint64_t v : {0ull, 1ull, 5ull, 100ull, 65535ull, 65536ull}) {
    const int b = Histogram::bucket_of(v);
    EXPECT_GE(v, Histogram::bucket_floor(b)) << "value " << v;
    if (b < Histogram::kNumBuckets - 1) {
      EXPECT_LT(v, Histogram::bucket_floor(b + 1)) << "value " << v;
    }
  }
}

TEST(Histogram, ObserveAccumulatesCountSumBuckets) {
  Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(3);
  h.observe(3);
  h.observe(1000);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1007u);
  EXPECT_EQ(h.bucket(0), 1u);  // [0, 1)
  EXPECT_EQ(h.bucket(1), 1u);  // [1, 2)
  EXPECT_EQ(h.bucket(2), 2u);  // [2, 4)
  EXPECT_EQ(h.bucket(10), 1u);  // [512, 1024)
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.bucket(2), 0u);
}

TEST(Registry, SnapshotOrderIsLexicographicNotRegistrationOrder) {
  Registry a;
  a.counter("zebra").add(1);
  a.counter("alpha").add(2);
  a.histogram("late").observe(3);
  a.histogram("early").observe(9);

  Registry b;  // same metrics, opposite registration order
  b.histogram("early").observe(9);
  b.histogram("late").observe(3);
  b.counter("alpha").add(2);
  b.counter("zebra").add(1);

  const Registry::Snapshot sa = a.snapshot();
  const Registry::Snapshot sb = b.snapshot();
  ASSERT_EQ(sa.counters.size(), 2u);
  EXPECT_EQ(sa.counters[0].first, "alpha");
  EXPECT_EQ(sa.counters[1].first, "zebra");
  EXPECT_EQ(sa.counters, sb.counters);
  ASSERT_EQ(sa.histograms.size(), 2u);
  EXPECT_EQ(sa.histograms[0].name, "early");
  EXPECT_EQ(sa.histograms[1].name, "late");
  for (std::size_t i = 0; i < sa.histograms.size(); ++i) {
    EXPECT_EQ(sa.histograms[i].count, sb.histograms[i].count);
    EXPECT_EQ(sa.histograms[i].sum, sb.histograms[i].sum);
    EXPECT_EQ(sa.histograms[i].buckets, sb.histograms[i].buckets);
  }
}

TEST(Registry, FindOrCreateReturnsStableReferences) {
  Registry r;
  Counter& c1 = r.counter("x");
  Counter& c2 = r.counter("x");
  EXPECT_EQ(&c1, &c2);
  c1.add(3);
  EXPECT_EQ(c2.value(), 3u);
  r.reset();  // zeroes values, keeps registrations
  EXPECT_EQ(c1.value(), 0u);
  EXPECT_EQ(&r.counter("x"), &c1);
}

TEST(Trace, SpansNestAndCarryArgs) {
  TraceSession session;
  {
    SpanGuard outer("test", "outer");
    SpanGuard inner("test", "inner", 42);
  }
  const std::vector<TraceEvent> events = collect_events();
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "outer") outer = &e;
    if (std::string(e.name) == "inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_STREQ(outer->cat, "test");
  EXPECT_EQ(outer->arg, kNoArg);
  EXPECT_EQ(inner->arg, 42);
  // Nesting: the inner span lies within the outer span's interval, on the
  // same thread.
  EXPECT_EQ(inner->tid, outer->tid);
  EXPECT_GE(inner->ts_us, outer->ts_us);
  EXPECT_LE(inner->ts_us + inner->dur_us, outer->ts_us + outer->dur_us);
}

TEST(Trace, EnableStartsAFreshSession) {
  {
    TraceSession session;
    SpanGuard stale("test", "stale_event");
  }
  TraceSession session;  // re-enable: new epoch
  { SpanGuard fresh("test", "fresh_event"); }
  bool saw_stale = false;
  bool saw_fresh = false;
  for (const TraceEvent& e : collect_events()) {
    if (std::string(e.name) == "stale_event") saw_stale = true;
    if (std::string(e.name) == "fresh_event") saw_fresh = true;
  }
  EXPECT_FALSE(saw_stale) << "events from a previous session were exported";
  EXPECT_TRUE(saw_fresh);
}

TEST(Trace, DisabledRecordsNothing) {
  set_tracing_enabled(false);
  { SpanGuard ghost("test", "ghost"); }
  for (const TraceEvent& e : collect_events()) {
    EXPECT_STRNE(e.name, "ghost");
  }
}

TEST(Trace, ThreadsAreAttributedDistinctTids) {
  TraceSession session;
  { SpanGuard main_span("test", "tid_main"); }
  std::thread worker([] { SpanGuard t("test", "tid_worker"); });
  worker.join();
  int main_tid = -1;
  int worker_tid = -1;
  for (const TraceEvent& e : collect_events()) {
    if (std::string(e.name) == "tid_main") main_tid = e.tid;
    if (std::string(e.name) == "tid_worker") worker_tid = e.tid;
  }
  ASSERT_GE(main_tid, 0);
  ASSERT_GE(worker_tid, 0);
  EXPECT_NE(main_tid, worker_tid);
  // The trace tid is the logging thread ordinal, so log lines correlate.
  EXPECT_EQ(main_tid, util::thread_ordinal());
}

TEST(Trace, RingWrapCountsDroppedEvents) {
  TraceSession session;
  // A fresh thread gets a fresh ring; overflow it by 100 events.
  std::thread worker([] {
    for (std::size_t i = 0; i < kRingCapacity + 100; ++i) {
      SpanGuard s("test", "wrap_span");
    }
  });
  worker.join();
  EXPECT_GE(dropped_events(), 100u);
  // The survivors are the newest events, and collect still works.
  std::size_t wraps = 0;
  for (const TraceEvent& e : collect_events()) {
    if (std::string(e.name) == "wrap_span") ++wraps;
  }
  EXPECT_GT(wraps, 0u);
  EXPECT_LE(wraps, kRingCapacity);
}

TEST(Trace, ChromeTraceJsonIsWellFormed) {
  TraceSession session;
  {
    SpanGuard plain("cat\"with\\quotes", "span \"quoted\" name");
    SpanGuard arg("test", "with_arg", -5);
    SpanGuard tab("test", "tab\there");
  }
  const std::string json = chrome_trace_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"value\": -5}"), std::string::npos);
  // Quotes and backslashes in names must be escaped, and a control
  // character written as its JSON escape.
  EXPECT_NE(json.find("span \\\"quoted\\\" name"), std::string::npos);
  EXPECT_NE(json.find("\"tab\\there\""), std::string::npos) << json;

  // An empty session still serializes to valid JSON.
  set_tracing_enabled(false);
  set_tracing_enabled(true);  // bump epoch: no events yet
  std::ostringstream out;
  write_chrome_trace(out);
  EXPECT_TRUE(json_balanced(out.str())) << out.str();
}

TEST(Trace, ChromeTraceKeepsNanosecondTimestamps) {
  // Late in a long run a default-formatted stream would print
  // 1.23457e+06 and lose the nesting of microsecond spans.
  TraceSession session;
  record_span("test", "late", 1234567.891, 2.5);
  std::ostringstream out;
  out << 0.123456789;  // the caller's own format must survive the export
  write_chrome_trace(out);
  out << ' ' << 0.123456789;
  const std::string text = out.str();
  EXPECT_NE(text.find("\"ts\": 1234567.891, \"dur\": 2.500"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.rfind(" 0.123457"), text.size() - 9) << text;
}

TEST(Trace, TimedSpanMeasuresRegardlessOfTracing) {
  set_tracing_enabled(false);
  TimedSpan span("test", "timed");
  const double mid = span.seconds();
  EXPECT_GE(mid, 0.0);
  const double total = span.stop();
  EXPECT_GE(total, mid);
  // stop() is idempotent and seconds() freezes at the stopped value.
  EXPECT_DOUBLE_EQ(span.stop(), total);
  EXPECT_DOUBLE_EQ(span.seconds(), total);
}

TEST(Report, JsonHasSchemaAndIsWellFormed) {
  layout::Design design = test::small_routed_design(60, 3);
  RunReport report("unit\"test", 4);
  report.add_flow("small", design);
  const std::string json = report.to_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"schema\": \"sma-run-report-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\": 4"), std::string::npos);
  EXPECT_NE(json.find("unit\\\"test"), std::string::npos);
  for (const char* section :
       {"\"run\"", "\"flow\"", "\"train\"", "\"replicas\"", "\"split_cache\"",
        "\"kernels\"", "\"metrics\""}) {
    EXPECT_NE(json.find(section), std::string::npos) << section;
  }
  // Sections not added serialize as null, not as garbage.
  EXPECT_NE(json.find("\"train\": null"), std::string::npos);
  EXPECT_NE(json.find("\"replicas\": null"), std::string::npos);
  // The flow row carries the per-phase seconds measured by run_flow.
  EXPECT_NE(json.find("\"route_seconds\""), std::string::npos);
}

// The gate the whole subsystem is designed around: observation must not
// perturb the computation. Layouts are compared as DEF text, models as
// serialized bytes, across tracing off/on and 1/4 threads.
TEST(ByteIdentity, FlowIsIdenticalWithTracingOnOrOff) {
  auto build_def = [](runtime::ThreadPool* pool) {
    netlist::GeneratorConfig config;
    config.num_inputs = 10;
    config.num_outputs = 6;
    config.num_gates = 80;
    config.seed = 21;
    netlist::Netlist nl =
        netlist::generate_netlist(config, "ident", &test::library());
    layout::FlowConfig flow;
    flow.seed = 21;
    return layout::to_def_string(layout::run_flow(std::move(nl), flow, pool));
  };

  set_tracing_enabled(false);
  const std::string reference = build_def(nullptr);
  {
    TraceSession session;
    runtime::ThreadPool serial(1);
    runtime::ThreadPool wide(4);
    EXPECT_EQ(build_def(nullptr), reference);
    EXPECT_EQ(build_def(&serial), reference);
    EXPECT_EQ(build_def(&wide), reference);
  }
  // And again after the trace session ended.
  EXPECT_EQ(build_def(nullptr), reference);
}

TEST(ByteIdentity, TrainedModelIsIdenticalWithTracingOnOrOff) {
  const test::SmallSplit& s = test::shared_split(3, 400, 13);
  auto train_bytes = [&](runtime::ThreadPool* pool) {
    attack::DatasetConfig dataset_config;
    dataset_config.candidates.max_candidates = 8;
    dataset_config.build_images = false;
    dataset_config.pool = pool;
    std::vector<attack::QueryDataset> training;
    training.emplace_back(s.split.get(), dataset_config);
    std::vector<attack::QueryDataset> validation;

    nn::NetConfig net_config;
    net_config.hidden = 16;
    net_config.vector_res_blocks = 1;
    net_config.merged_res_blocks = 1;
    net_config.use_images = false;

    attack::TrainConfig train_config;
    train_config.epochs = 2;
    train_config.max_queries_per_design = 120;

    attack::DlAttack dl(net_config);
    dl.train(training, validation, train_config, pool);
    std::ostringstream bytes;
    dl.attack(*training.begin(), pool);  // exercise the replica path too
    dl.net().save(bytes);
    return bytes.str();
  };

  set_tracing_enabled(false);
  const std::string reference = train_bytes(nullptr);
  {
    TraceSession session;
    runtime::ThreadPool wide(4);
    EXPECT_EQ(train_bytes(nullptr), reference);
    EXPECT_EQ(train_bytes(&wide), reference);
  }
}

}  // namespace
}  // namespace sma::obs

namespace sma::util {
namespace {

/// Restores the global log level (and SMA_LOG_LEVEL) after each test so
/// the rest of the binary keeps its quiet default.
class LoggingEnvTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = log_level(); }
  void TearDown() override {
    unsetenv("SMA_LOG_LEVEL");
    set_log_level(saved_);
  }
  LogLevel saved_;
};

TEST_F(LoggingEnvTest, ParsesLevelNames) {
  set_log_level(LogLevel::kError);
  setenv("SMA_LOG_LEVEL", "debug", 1);
  set_log_level_from_env();
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  setenv("SMA_LOG_LEVEL", "warn", 1);
  set_log_level_from_env();
  EXPECT_EQ(log_level(), LogLevel::kWarn);
}

TEST_F(LoggingEnvTest, ParsesNumericLevels) {
  set_log_level(LogLevel::kError);
  setenv("SMA_LOG_LEVEL", "2", 1);
  set_log_level_from_env();
  EXPECT_EQ(log_level(), LogLevel::kInfo);
}

TEST_F(LoggingEnvTest, UnsetOrInvalidLeavesLevelUnchanged) {
  set_log_level(LogLevel::kWarn);
  unsetenv("SMA_LOG_LEVEL");
  set_log_level_from_env();
  EXPECT_EQ(log_level(), LogLevel::kWarn);
  setenv("SMA_LOG_LEVEL", "chatty", 1);
  set_log_level_from_env();
  EXPECT_EQ(log_level(), LogLevel::kWarn);
}

/// Streamable probe: records whether the logger actually formatted it.
struct FormatProbe {
  mutable bool* formatted;
};
std::ostream& operator<<(std::ostream& out, const FormatProbe& p) {
  *p.formatted = true;
  return out;
}

TEST(Logging, FilteredMessagesSkipFormatting) {
  const LogLevel saved = log_level();
  bool formatted = false;
  set_log_level(LogLevel::kError);
  log_debug() << FormatProbe{&formatted};  // filtered: must not format
  EXPECT_FALSE(formatted);
  log_error() << FormatProbe{&formatted};  // enabled: must format
  EXPECT_TRUE(formatted);
  set_log_level(saved);
}

TEST(Logging, ThreadOrdinalsAreStableAndDistinct) {
  const int mine = thread_ordinal();
  EXPECT_EQ(thread_ordinal(), mine);  // stable within a thread
  int other = -1;
  std::thread t([&other] { other = thread_ordinal(); });
  t.join();
  EXPECT_GE(other, 0);
  EXPECT_NE(other, mine);
}

}  // namespace
}  // namespace sma::util
