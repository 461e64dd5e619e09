// Direct tests for the service stats primitives — above all the
// LatencyHistogram, which every latency percentile in ServiceStats (overall
// and per QoS class) is computed from: bucket clamping at both ends,
// percentile monotonicity, accuracy on known distributions, and concurrent
// recording.
#include "service/service_stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

namespace deepeverest {
namespace service {
namespace {

TEST(LatencyHistogramTest, EmptyHistogramReportsZero) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_EQ(histogram.PercentileSeconds(0.0), 0.0);
  EXPECT_EQ(histogram.PercentileSeconds(0.5), 0.0);
  EXPECT_EQ(histogram.PercentileSeconds(1.0), 0.0);
}

TEST(LatencyHistogramTest, CountTracksRecords) {
  LatencyHistogram histogram;
  for (int i = 0; i < 17; ++i) histogram.Record(1e-3);
  EXPECT_EQ(histogram.count(), 17);
}

// The histogram spans 1 µs .. ~10^4 s. Anything at or below the floor —
// including zero and (defensively) negative durations — must clamp into the
// first bucket rather than index out of range.
TEST(LatencyHistogramTest, SubMicrosecondClampsToFirstBucket) {
  LatencyHistogram histogram;
  histogram.Record(1e-9);
  histogram.Record(0.0);
  histogram.Record(-1.0);
  EXPECT_EQ(histogram.count(), 3);
  const double p = histogram.PercentileSeconds(0.5);
  // First bucket's midpoint: just above the 1 µs floor.
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 2e-6);
}

// Anything beyond the top of the range (>10^4 s) clamps into the last
// bucket: reported as huge, but never lost or out of bounds.
TEST(LatencyHistogramTest, HugeLatencyClampsToLastBucket) {
  LatencyHistogram histogram;
  histogram.Record(1e9);
  histogram.Record(1e5);
  EXPECT_EQ(histogram.count(), 2);
  const double p = histogram.PercentileSeconds(1.0);
  EXPECT_GT(p, 5e3);   // unmistakably "huge"
  EXPECT_LT(p, 2e4);   // but still within the representable decade
}

TEST(LatencyHistogramTest, PercentileIsMonotoneInQ) {
  LatencyHistogram histogram;
  // A wide geometric spread across many buckets.
  double v = 2e-6;
  for (int i = 0; i < 40; ++i) {
    histogram.Record(v);
    v *= 1.6;
  }
  double prev = 0.0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double p = histogram.PercentileSeconds(q);
    EXPECT_GE(p, prev) << "q=" << q;
    prev = p;
  }
}

// The geometric buckets promise ~±10% estimates; check p50/p99 against a
// known bimodal distribution with slack for the bucket width.
TEST(LatencyHistogramTest, PercentilesMatchKnownDistribution) {
  LatencyHistogram histogram;
  // 900 fast queries at 1 ms, 100 slow at 1 s.
  for (int i = 0; i < 900; ++i) histogram.Record(1e-3);
  for (int i = 0; i < 100; ++i) histogram.Record(1.0);
  EXPECT_EQ(histogram.count(), 1000);

  const double p50 = histogram.PercentileSeconds(0.50);
  EXPECT_GT(p50, 0.75e-3);
  EXPECT_LT(p50, 1.25e-3);

  const double p99 = histogram.PercentileSeconds(0.99);
  EXPECT_GT(p99, 0.75);
  EXPECT_LT(p99, 1.25);

  // The p90 boundary sits exactly at the fast/slow split; either side of
  // the split is a defensible answer, anything else is not.
  const double p90 = histogram.PercentileSeconds(0.90);
  const bool near_fast = p90 > 0.75e-3 && p90 < 1.25e-3;
  const bool near_slow = p90 > 0.75 && p90 < 1.25;
  EXPECT_TRUE(near_fast || near_slow) << "p90=" << p90;
}

TEST(LatencyHistogramTest, SingleValueAllQuantilesAgree) {
  LatencyHistogram histogram;
  histogram.Record(0.02);
  const double p0 = histogram.PercentileSeconds(0.0);
  const double p100 = histogram.PercentileSeconds(1.0);
  EXPECT_EQ(p0, p100);
  EXPECT_GT(p0, 0.015);
  EXPECT_LT(p0, 0.025);
}

// Record() is advertised as a relaxed fetch_add, safe from any thread; the
// total count must be exact under concurrency (TSan runs this too).
TEST(LatencyHistogramTest, ConcurrentRecordsAreAllCounted) {
  LatencyHistogram histogram;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(1e-4 * static_cast<double>(t + 1));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
}

TEST(LatencyHistogramTest, BucketUpperBoundsIncreaseAndEndAtInfinity) {
  double prev = 0.0;
  for (int i = 0; i < LatencyHistogram::num_buckets() - 1; ++i) {
    const double upper = LatencyHistogram::BucketUpperSeconds(i);
    EXPECT_GT(upper, prev) << "bucket " << i;
    prev = upper;
  }
  EXPECT_TRUE(std::isinf(LatencyHistogram::BucketUpperSeconds(
      LatencyHistogram::num_buckets() - 1)));
}

TEST(LatencyHistogramTest, BucketCountsMatchRecordedValues) {
  LatencyHistogram histogram;
  histogram.Record(1e-3);
  histogram.Record(1e-3);
  histogram.Record(1.0);
  int64_t total = 0;
  for (int i = 0; i < LatencyHistogram::num_buckets(); ++i) {
    const int64_t n = histogram.BucketCount(i);
    EXPECT_GE(n, 0);
    if (n > 0) {
      // Each populated bucket's range must contain the value we put there:
      // upper bound above the value, lower bound (previous upper) below it.
      const double upper = LatencyHistogram::BucketUpperSeconds(i);
      const double lower =
          i == 0 ? 0.0 : LatencyHistogram::BucketUpperSeconds(i - 1);
      const bool holds_fast = lower <= 1e-3 && 1e-3 <= upper;
      const bool holds_slow = lower <= 1.0 && 1.0 <= upper;
      EXPECT_TRUE(holds_fast || holds_slow) << "bucket " << i;
    }
    total += n;
  }
  EXPECT_EQ(total, 3);
  EXPECT_EQ(total, histogram.count());
}

TEST(LatencyHistogramTest, MaxBucketOverflowStaysInLastBucket) {
  LatencyHistogram histogram;
  for (int i = 0; i < 100; ++i) histogram.Record(1e300);
  EXPECT_EQ(histogram.count(), 100);
  EXPECT_EQ(histogram.BucketCount(LatencyHistogram::num_buckets() - 1), 100);
  // ApproxSumSeconds uses the last bucket's midpoint — finite, not inf.
  EXPECT_TRUE(std::isfinite(histogram.ApproxSumSeconds()));
}

TEST(LatencyHistogramTest, ApproxSumTracksRecordedMass) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.ApproxSumSeconds(), 0.0);
  for (int i = 0; i < 10; ++i) histogram.Record(0.1);
  // Midpoint-rule estimate: within the bucket's ~±10% of the true 1.0 s.
  EXPECT_GT(histogram.ApproxSumSeconds(), 0.8);
  EXPECT_LT(histogram.ApproxSumSeconds(), 1.25);
}

TEST(QosClassStatsTest, DefaultsAreZeroForAllClasses) {
  ServiceStats stats;
  ASSERT_EQ(stats.per_class.size(), static_cast<size_t>(kNumQosClasses));
  for (const QosClassStats& cls : stats.per_class) {
    EXPECT_EQ(cls.submitted, 0);
    EXPECT_EQ(cls.completed, 0);
    EXPECT_EQ(cls.deadline_exceeded, 0);
    EXPECT_EQ(cls.rejected_past_deadline, 0);
    EXPECT_EQ(cls.batch_fill, 0.0);
  }
}

}  // namespace
}  // namespace service
}  // namespace deepeverest
