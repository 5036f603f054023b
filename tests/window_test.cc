// Sliding-window metrics (obs/window.h): rotation and decay of the
// per-tick counter ring, windowed histogram merges under a manual
// clock, and the documented bucket-interpolation error bound of
// histogram_quantile — including its behavior at the 60 s saturation
// bound of the PR 6 default latency grid.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.h"
#include "obs/window.h"
#include "util/thread_pool.h"

namespace windim {
namespace {

// ------------------------------------------------------------- counter

TEST(WindowCounterTest, RatesDecayAsTheClockAdvances) {
  obs::ManualWindowClock clock;
  obs::WindowCounter counter(&clock);

  for (int i = 0; i < 50; ++i) counter.add();
  // Same tick: all 50 events are inside every window.
  EXPECT_EQ(counter.sum_window(10), 50u);
  EXPECT_EQ(counter.sum_window(60), 50u);
  EXPECT_DOUBLE_EQ(counter.rate_per_sec(10), 5.0);

  clock.advance_seconds(5);
  counter.add(10);
  EXPECT_EQ(counter.sum_window(10), 60u);
  // A 5-tick window no longer covers the first burst.
  EXPECT_EQ(counter.sum_window(5), 10u);

  // 20 s later the first burst fell out of the 10 s window but is still
  // inside the 60 s one.
  clock.advance_seconds(20);
  EXPECT_EQ(counter.sum_window(10), 0u);
  EXPECT_EQ(counter.sum_window(60), 60u);
  EXPECT_DOUBLE_EQ(counter.rate_per_sec(60), 1.0);

  // Past the ring horizon everything decays to zero; the cumulative
  // total never does.
  clock.advance_seconds(120);
  EXPECT_EQ(counter.sum_window(60), 0u);
  EXPECT_EQ(counter.total(), 60u);
}

TEST(WindowCounterTest, SurvivesClockJumpsFarBeyondTheHorizon) {
  obs::ManualWindowClock clock;
  obs::WindowCounter counter(&clock, 1'000'000, 8);
  counter.add(3);
  // A jump of ~31 years of ticks must not iterate per stale tick.
  clock.set_us(1'000'000'000ull * 1'000'000ull);
  counter.add(4);
  EXPECT_EQ(counter.sum_window(8), 4u);
  EXPECT_EQ(counter.total(), 7u);
}

TEST(WindowCounterTest, ConcurrentAddsAreLossFree) {
  obs::ManualWindowClock clock;
  obs::WindowCounter counter(&clock);
  util::ThreadPool pool(4);
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 64; ++i) {
    jobs.push_back([&] {
      for (int k = 0; k < 100; ++k) counter.add();
    });
  }
  pool.run_batch(std::move(jobs));
  EXPECT_EQ(counter.total(), 6400u);
  EXPECT_EQ(counter.sum_window(60), 6400u);
}

// ----------------------------------------------------------- histogram

TEST(WindowHistogramTest, MergesOnlyLiveSlicesInTheWindow) {
  obs::ManualWindowClock clock;
  obs::WindowHistogram hist(&clock, {10.0, 100.0, 1000.0});

  hist.observe(5.0);
  hist.observe(50.0);
  clock.advance_seconds(30);
  hist.observe(500.0);

  obs::HistogramSnapshot h60 = hist.merged(60);
  EXPECT_EQ(h60.count, 3u);
  EXPECT_DOUBLE_EQ(h60.sum, 555.0);
  EXPECT_DOUBLE_EQ(h60.max_observed, 500.0);

  // The 10 s window only sees the last observation.
  obs::HistogramSnapshot h10 = hist.merged(10);
  EXPECT_EQ(h10.count, 1u);
  ASSERT_EQ(h10.counts.size(), 4u);
  EXPECT_EQ(h10.counts[2], 1u);

  // Decay: once the window slides past every observation the merge is
  // empty and the quantile is 0 by contract.
  clock.advance_seconds(120);
  EXPECT_EQ(hist.merged(60).count, 0u);
  EXPECT_DOUBLE_EQ(hist.quantile(0.99, 60), 0.0);
  EXPECT_EQ(hist.total(), 3u);
}

TEST(WindowHistogramTest, DefaultBoundsAreTheSharedLatencyGrid) {
  obs::ManualWindowClock clock;
  obs::WindowHistogram hist(&clock);
  EXPECT_EQ(hist.bounds(), obs::MetricsRegistry::default_latency_bounds_us());
}

TEST(WindowHistogramTest, SliceReuseAfterHorizonDoesNotResurrectCounts) {
  obs::ManualWindowClock clock;
  obs::WindowHistogram hist(&clock, {10.0, 100.0}, 1'000'000, 4);
  hist.observe(5.0);
  // Land exactly on the same ring slot one full revolution later: the
  // stale slice must be zeroed, not merged.
  clock.advance_seconds(4);
  hist.observe(50.0);
  obs::HistogramSnapshot h = hist.merged(4);
  EXPECT_EQ(h.count, 1u);
  EXPECT_DOUBLE_EQ(h.sum, 50.0);
}

// The serve daemon reads its windowed request rates from the latency
// histogram's merged count instead of keeping a counter beside it: on
// one clock the two always agree, through small steps, jumps past the
// 64-tick horizon and reads at any window.
TEST(WindowHistogramTest, MergedCountEqualsTheCounterSum) {
  obs::ManualWindowClock clock;
  obs::WindowCounter counter(&clock);
  obs::WindowHistogram hist(&clock);
  std::uint64_t state = 12345;
  const auto next = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % bound;
  };
  for (int i = 0; i < 20'000; ++i) {
    switch (next(8)) {
      case 0:
        clock.advance_us(next(3'000'000));
        break;
      case 1:
        if (next(50) == 0) clock.advance_seconds(60 + next(20));
        break;
      case 2:
      case 3: {
        const std::uint64_t window = 1 + next(70);
        ASSERT_EQ(hist.merged(window).count, counter.sum_window(window))
            << "step " << i << ", window " << window;
        break;
      }
      default:
        counter.add();
        hist.observe(static_cast<double>(next(1000)));
        break;
    }
  }
}

// ------------------------------------------------- quantile error bound

TEST(HistogramQuantileTest, InterpolatesInsideTheRankBucket) {
  obs::HistogramSnapshot h;
  h.bounds = {10.0, 20.0, 40.0};
  h.counts = {10, 10, 10, 0};  // + overflow
  h.count = 30;
  // p50 -> rank 15, second bucket (10, 20], 5 of its 10 needed.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.5), 15.0);
  // p0 clamps to rank 1 -> first bucket, lower edge 0.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 1.0), 40.0);
}

// The documented bound: the estimate lies in the same bucket (lo, hi]
// as the true quantile, so |estimate - true| < hi - lo and
// estimate / true <= hi / lo.  Verified empirically over adversarial
// in-bucket placements on the default grid.
TEST(HistogramQuantileTest, ErrorBoundedByBucketWidthOnTheDefaultGrid) {
  const std::vector<double> bounds =
      obs::MetricsRegistry::default_latency_bounds_us();
  obs::ManualWindowClock clock;
  obs::WindowHistogram hist(&clock, bounds);

  // Adversarial placement: every observation hugs the TOP of its
  // bucket, maximizing the gap to the interpolated estimate.
  std::vector<double> values;
  for (const double b : bounds) values.push_back(b);
  for (const double v : values) hist.observe(v);

  for (const double q : {0.5, 0.9, 0.99}) {
    const double est = hist.quantile(q, 60);
    // True quantile with the same rank convention, from the sorted
    // sample.
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(values.size())));
    if (rank == 0) rank = 1;
    const double truth = values[rank - 1];
    // Same-bucket guarantee: estimate in (lo, hi] where truth == hi.
    std::size_t b = 0;
    while (bounds[b] < truth) ++b;
    const double lo = b == 0 ? 0.0 : bounds[b - 1];
    EXPECT_GT(est, lo) << "q=" << q;
    EXPECT_LE(est, bounds[b]) << "q=" << q;
    EXPECT_LT(std::abs(est - truth), bounds[b] - lo) << "q=" << q;
  }
}

// At the 60 s saturation bound (the (2e7, 6e7] us bucket PR 6 added):
// worst-case absolute error < 40 s, worst-case ratio < 3x, and beyond
// saturation the estimate clamps to the 6e7 top bound.
TEST(HistogramQuantileTest, SaturationBucketBoundAndOverflowClamp) {
  const std::vector<double> bounds =
      obs::MetricsRegistry::default_latency_bounds_us();
  ASSERT_DOUBLE_EQ(bounds.back(), 6e7);
  ASSERT_DOUBLE_EQ(bounds[bounds.size() - 2], 2e7);

  obs::HistogramSnapshot h;
  h.bounds = bounds;
  h.counts.assign(bounds.size() + 1, 0);
  // All mass at the top of the saturation bucket (true p99 = 6e7).
  h.counts[bounds.size() - 1] = 100;
  h.count = 100;
  const double est = obs::histogram_quantile(h, 0.99);
  EXPECT_GT(est, 2e7);
  EXPECT_LE(est, 6e7);
  EXPECT_LT(6e7 - est, 4e7);      // absolute error < 40 s
  EXPECT_LT(6e7 / est, 3.0);      // ratio bound: hi / lo = 3
  // Relative error of the estimate: < 2x (|est - true| / true).
  EXPECT_LT((6e7 - est) / 6e7, 2.0 / 3.0);

  // Rank in the overflow bucket: clamp to the top bound, flagged by a
  // nonzero overflow count.
  obs::HistogramSnapshot over;
  over.bounds = bounds;
  over.counts.assign(bounds.size() + 1, 0);
  over.counts[bounds.size()] = 10;  // every observation beyond 60 s
  over.count = 10;
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(over, 0.99), 6e7);
  EXPECT_EQ(over.overflow(), 10u);
}

TEST(HistogramQuantileTest, EmptySnapshotIsZero) {
  obs::HistogramSnapshot h;
  EXPECT_DOUBLE_EQ(obs::histogram_quantile(h, 0.99), 0.0);
}

// ------------------------------------------------------ stepping clock

TEST(SteppingWindowClockTest, AdvancesOneStepPerRead) {
  obs::SteppingWindowClock clock(250);
  EXPECT_EQ(clock.now_us(), 250u);
  EXPECT_EQ(clock.now_us(), 500u);
  EXPECT_EQ(clock.now_us(), 750u);
}

}  // namespace
}  // namespace windim
