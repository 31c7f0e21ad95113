/// Tests for the observability layer (src/obs/): the determinism contract
/// (counter/gauge/histogram-bucket scrapes independent of thread count and
/// interleaving, including slab retirement when threads exit), histogram
/// quantile accuracy under sqrt(2) log-bucketing, the zero-allocation
/// steady state of warmed probes (counting allocator), the single-switch
/// off mode leaving built topologies bit-identical, and the shape of the
/// Chrome-trace / JSON exports.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/params.hpp"
#include "core/relaxed_greedy.hpp"
#include "counting_allocator.hpp"
#include "obs/obs.hpp"
#include "ubg/generator.hpp"

namespace obs = localspan::obs;

namespace {

/// Every test runs with a clean enabled registry and leaves it disabled and
/// empty — obs state is process-global, so hygiene here keeps tests
/// order-independent.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset();
  }
};

/// Find a metric by name in a snapshot section; fails the test if absent.
template <typename Section>
const typename Section::value_type::second_type& find_metric(const Section& section,
                                                             const std::string& name) {
  for (const auto& [key, value] : section) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "metric '" << name << "' not in snapshot";
  static const typename Section::value_type::second_type empty{};
  return empty;
}

/// The fixed workload for the determinism test: item i adds (i % 7 + 1) to
/// the counter and records i % 257 into the histogram. Thread t of T handles
/// the items with i % T == t, so every T partitions the identical multiset.
void run_workload_slice(obs::MetricId counter, obs::MetricId hist, int t, int T, int items) {
  for (int i = t; i < items; i += T) {
    obs::counter_add(counter, i % 7 + 1);
    obs::histogram_record(hist, i % 257);
  }
}

}  // namespace

TEST_F(ObsTest, AggregationIsIndependentOfThreadCount) {
  const obs::MetricId counter = obs::counter_id("test.det_counter");
  const obs::MetricId hist = obs::histogram_id("test.det_hist");
  const int items = 4096;

  struct Observed {
    std::int64_t counter_total = 0;
    obs::HistogramSummary hist{};
  };
  std::vector<Observed> per_thread_count;
  for (const int T : {1, 2, 4}) {
    obs::reset();
    // Worker threads exit before the scrape, so this also proves retirement
    // (slab folding) loses nothing.
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(T));
    for (int t = 0; t < T; ++t) {
      workers.emplace_back(run_workload_slice, counter, hist, t, T, items);
    }
    for (std::thread& w : workers) w.join();

    const obs::Snapshot snap = obs::snapshot();
    Observed o;
    o.counter_total = find_metric(snap.counters, "test.det_counter");
    o.hist = find_metric(snap.histograms, "test.det_hist");
    per_thread_count.push_back(o);
  }

  // The serial run is the reference; every parallel partition must scrape to
  // the exact same integers (sums over slabs commute).
  const Observed& ref = per_thread_count.front();
  EXPECT_GT(ref.counter_total, 0);
  EXPECT_EQ(ref.hist.count, items);
  for (std::size_t i = 1; i < per_thread_count.size(); ++i) {
    const Observed& o = per_thread_count[i];
    EXPECT_EQ(o.counter_total, ref.counter_total) << "thread count case " << i;
    EXPECT_EQ(o.hist.count, ref.hist.count);
    EXPECT_EQ(o.hist.sum, ref.hist.sum);
    EXPECT_EQ(o.hist.max, ref.hist.max);
    // Quantiles derive from bucket counts, which are integer sums too.
    EXPECT_EQ(o.hist.p50, ref.hist.p50);
    EXPECT_EQ(o.hist.p90, ref.hist.p90);
    EXPECT_EQ(o.hist.p99, ref.hist.p99);
  }
}

TEST_F(ObsTest, HistogramQuantilesTrackTheSortedReference) {
  const obs::MetricId hist = obs::histogram_id("test.quantile_hist");
  const int count = 1000;
  for (int v = 1; v <= count; ++v) obs::histogram_record(hist, v);

  const obs::HistogramSummary h =
      find_metric(obs::snapshot().histograms, "test.quantile_hist");
  EXPECT_EQ(h.count, count);
  EXPECT_EQ(h.sum, static_cast<std::int64_t>(count) * (count + 1) / 2);
  EXPECT_EQ(h.max, count);
  EXPECT_NEAR(h.mean, 500.5, 1e-9);  // sum/count is exact, not bucketed.
  // Log-bucketing (base sqrt(2)) bounds the relative quantile error by
  // 2^(1/4) ~ 1.19; allow 25% against the exact order statistics.
  EXPECT_NEAR(h.p50, 500.0, 125.0);
  EXPECT_NEAR(h.p90, 900.0, 225.0);
  EXPECT_NEAR(h.p99, 990.0, 250.0);
}

TEST_F(ObsTest, HistogramClampsNegativeValuesToZeroBucket) {
  const obs::MetricId hist = obs::histogram_id("test.negative_hist");
  obs::histogram_record(hist, -42);
  obs::histogram_record(hist, 0);
  const obs::HistogramSummary h =
      find_metric(obs::snapshot().histograms, "test.negative_hist");
  EXPECT_EQ(h.count, 2);
  EXPECT_EQ(h.max, 0);
  EXPECT_EQ(h.p99, 0.0);
}

TEST_F(ObsTest, GaugeScrapesTakeTheMaxAcrossThreads) {
  const obs::MetricId gauge = obs::gauge_id("test.level_gauge");
  std::vector<std::thread> workers;
  for (const std::int64_t level : {5LL, 9LL, 7LL}) {
    workers.emplace_back([gauge, level] { obs::gauge_set(gauge, level); });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(find_metric(obs::snapshot().gauges, "test.level_gauge"), 9);
}

TEST_F(ObsTest, RegistrationIsIdempotent) {
  EXPECT_EQ(obs::counter_id("test.same_name"), obs::counter_id("test.same_name"));
  EXPECT_EQ(obs::histogram_id("test.same_hist"), obs::histogram_id("test.same_hist"));
  EXPECT_EQ(obs::span_id("test.same_span"), obs::span_id("test.same_span"));
}

TEST_F(ObsTest, SpanTotalsCountScopedSections) {
  const obs::MetricId span = obs::span_id("test.scoped_span");
  for (int i = 0; i < 5; ++i) {
    const obs::Span s(span);
  }
  bool found = false;
  for (const obs::SpanStat& st : obs::span_totals()) {
    if (st.name == "test.scoped_span") {
      found = true;
      EXPECT_EQ(st.count, 5);
      EXPECT_GE(st.total_ns, 0);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, WarmedProbesDoNotAllocate) {
  const obs::MetricId counter = obs::counter_id("test.alloc_counter");
  const obs::MetricId gauge = obs::gauge_id("test.alloc_gauge");
  const obs::MetricId hist = obs::histogram_id("test.alloc_hist");
  const obs::MetricId span = obs::span_id("test.alloc_span");

  const auto fire_all = [&] {
    for (int i = 0; i < 64; ++i) {
      obs::counter_add(counter, 1);
      obs::gauge_set(gauge, i);
      obs::histogram_record(hist, i);
      const obs::Span s(span);
    }
  };
  fire_all();  // warm-up: first touch installs this thread's slab.

  long long before = g_allocs.load();
  fire_all();
  EXPECT_EQ(g_allocs.load() - before, 0)
      << "enabled-mode probes allocated after warm-up";

  obs::set_enabled(false);
  before = g_allocs.load();
  fire_all();
  EXPECT_EQ(g_allocs.load() - before, 0) << "disabled-mode probes allocated";
  obs::set_enabled(true);
}

TEST_F(ObsTest, DisabledModeBuildsBitIdenticalTopology) {
  localspan::ubg::UbgConfig cfg;
  cfg.n = 192;
  cfg.alpha = 0.75;
  cfg.dim = 2;
  cfg.seed = 7;
  const localspan::ubg::UbgInstance inst = localspan::ubg::make_ubg(cfg);
  const localspan::core::Params params = localspan::core::Params::practical_params(0.5, cfg.alpha);

  obs::set_enabled(false);
  const localspan::core::RelaxedGreedyResult off = localspan::core::relaxed_greedy(inst, params);
  obs::set_enabled(true);
  const localspan::core::RelaxedGreedyResult on = localspan::core::relaxed_greedy(inst, params);

  EXPECT_EQ(off.spanner, on.spanner);
  EXPECT_GT(find_metric(obs::snapshot().counters, "rg.edges_examined"), 0);
}

TEST_F(ObsTest, JsonAndTraceExportsAreWellFormed) {
  obs::set_thread_label("test-main");
  const obs::MetricId counter = obs::counter_id("test.json_counter");
  const obs::MetricId span = obs::span_id("test.json_span");
  obs::counter_add(counter, 3);
  {
    const obs::Span s(span);
  }

  const std::string json = obs::to_json(obs::snapshot());
  EXPECT_NE(json.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);

  const std::string trace = obs::trace_json();
  EXPECT_EQ(trace.find("{"), 0u);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(trace.find("test-main"), std::string::npos);
  EXPECT_NE(trace.find("\"test.json_span\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
}

TEST_F(ObsTest, ResetZeroesEverything) {
  const obs::MetricId counter = obs::counter_id("test.reset_counter");
  const obs::MetricId hist = obs::histogram_id("test.reset_hist");
  const obs::MetricId span = obs::span_id("test.reset_span");
  obs::counter_add(counter, 11);
  obs::histogram_record(hist, 100);
  {
    const obs::Span s(span);
  }
  obs::reset();

  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(find_metric(snap.counters, "test.reset_counter"), 0);
  EXPECT_EQ(find_metric(snap.histograms, "test.reset_hist").count, 0);
  for (const obs::SpanStat& st : snap.spans) {
    if (st.name == "test.reset_span") {
      EXPECT_EQ(st.count, 0);
    }
  }
  EXPECT_EQ(obs::trace_json().find("\"ph\": \"X\""), std::string::npos);
}
