// Tests for the measurement helpers and the LogHistogram sketch.
#include <gtest/gtest.h>

#include <vector>

#include "src/metrics/counters.h"
#include "src/metrics/stats.h"
#include "src/obs/metrics.h"

namespace splitio {
namespace {

TEST(LatencyRecorder, PercentilesOnKnownDistribution) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) {
    rec.Add(Msec(i));
  }
  EXPECT_EQ(rec.count(), 100u);
  EXPECT_EQ(rec.Percentile(0), Msec(1));
  // Nearest-rank: ceil(0.50 * 100) = the 50th sample.
  EXPECT_EQ(rec.Percentile(50), Msec(50));
  EXPECT_EQ(rec.Percentile(90), Msec(90));
  EXPECT_EQ(rec.Percentile(99), Msec(99));
  // ceil(0.999 * 100) = 100: the maximum.
  EXPECT_EQ(rec.Percentile(99.9), Msec(100));
  EXPECT_EQ(rec.Percentile(100), Msec(100));
  EXPECT_EQ(rec.Max(), Msec(100));
}

// Every reported percentile is an actually-observed sample — never an
// average of two neighbours (the old interpolating definition invented
// values between samples and skewed tails low on small counts).
TEST(LatencyRecorder, NearestRankReturnsObservedSamples) {
  LatencyRecorder rec;
  rec.Add(Msec(100));
  rec.Add(Msec(200));
  EXPECT_EQ(rec.Percentile(0), Msec(100));
  EXPECT_EQ(rec.Percentile(50), Msec(100));
  EXPECT_EQ(rec.Percentile(75), Msec(200));
  EXPECT_EQ(rec.Percentile(100), Msec(200));
}

// Regression: p99 of {1ms, 1s} must report the observed 1 s outlier, not an
// interpolated ~990 ms that no request ever experienced.
TEST(LatencyRecorder, TailPercentilesNotBiasedLowOnSmallCounts) {
  LatencyRecorder rec;
  rec.Add(Msec(1));
  rec.Add(Sec(1));
  EXPECT_EQ(rec.Percentile(95), Sec(1));
  EXPECT_EQ(rec.Percentile(99), Sec(1));
}

TEST(LatencyRecorder, SingleSampleIsEveryPercentile) {
  LatencyRecorder rec;
  rec.Add(Msec(7));
  EXPECT_EQ(rec.Percentile(0), Msec(7));
  EXPECT_EQ(rec.Percentile(50), Msec(7));
  EXPECT_EQ(rec.Percentile(99.9), Msec(7));
  EXPECT_EQ(rec.Percentile(100), Msec(7));
}

TEST(LatencyRecorder, EmptyIsZero) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.Percentile(0), 0);
  EXPECT_EQ(rec.Percentile(50), 0);
  EXPECT_EQ(rec.Percentile(100), 0);
  EXPECT_EQ(rec.Max(), 0);
  EXPECT_DOUBLE_EQ(rec.MeanMillis(), 0);
}

TEST(LatencyRecorder, AddAfterSortStillCorrect) {
  LatencyRecorder rec;
  rec.Add(Msec(10));
  EXPECT_EQ(rec.Percentile(50), Msec(10));
  rec.Add(Msec(2));  // after a sorted read
  EXPECT_EQ(rec.Percentile(0), Msec(2));
  EXPECT_EQ(rec.Max(), Msec(10));
}

TEST(LatencyRecorder, MeanMillis) {
  LatencyRecorder rec;
  rec.Add(Msec(10));
  rec.Add(Msec(20));
  rec.Add(Msec(30));
  EXPECT_DOUBLE_EQ(rec.MeanMillis(), 20.0);
}

// Delta must subtract every field: a field missed here (or in Delta) would
// silently report absolute totals instead of per-stack activity.
TEST(Counters, DeltaSubtractsEveryField) {
  Counters before;
  uint64_t v = 1;
  before.sim_events = v++;
  before.sim_immediate = v++;
  before.cache_lookups = v++;
  before.cache_hits = v++;
  before.pages_dirtied = v++;
  before.block_submitted = v++;
  before.block_merged = v++;
  before.block_completed = v++;
  before.device_flushes = v++;
  before.faults_injected = v++;
  before.wb_errors = v++;
  before.journal_commits = v++;
  before.wb_pages_flushed = v++;
  before.mq_kicks = v++;
  before.device_busy_ns = v++;
  before.allocs = v++;
  Counters after = before;
  uint64_t bump = 100;
  after.sim_events += bump + 0;
  after.sim_immediate += bump + 1;
  after.cache_lookups += bump + 2;
  after.cache_hits += bump + 3;
  after.pages_dirtied += bump + 4;
  after.block_submitted += bump + 5;
  after.block_merged += bump + 6;
  after.block_completed += bump + 7;
  after.device_flushes += bump + 8;
  after.faults_injected += bump + 9;
  after.wb_errors += bump + 10;
  after.journal_commits += bump + 11;
  after.wb_pages_flushed += bump + 12;
  after.mq_kicks += bump + 13;
  after.device_busy_ns += bump + 14;
  after.allocs += bump + 15;
  Counters d = after.Delta(before);
  EXPECT_EQ(d.sim_events, bump + 0);
  EXPECT_EQ(d.sim_immediate, bump + 1);
  EXPECT_EQ(d.cache_lookups, bump + 2);
  EXPECT_EQ(d.cache_hits, bump + 3);
  EXPECT_EQ(d.pages_dirtied, bump + 4);
  EXPECT_EQ(d.block_submitted, bump + 5);
  EXPECT_EQ(d.block_merged, bump + 6);
  EXPECT_EQ(d.block_completed, bump + 7);
  EXPECT_EQ(d.device_flushes, bump + 8);
  EXPECT_EQ(d.faults_injected, bump + 9);
  EXPECT_EQ(d.wb_errors, bump + 10);
  EXPECT_EQ(d.journal_commits, bump + 11);
  EXPECT_EQ(d.wb_pages_flushed, bump + 12);
  EXPECT_EQ(d.mq_kicks, bump + 13);
  EXPECT_EQ(d.device_busy_ns, bump + 14);
  EXPECT_EQ(d.allocs, bump + 15);
  // Self-delta is all zeros.
  Counters zero = before.Delta(before);
  EXPECT_EQ(zero.sim_events, 0u);
  EXPECT_EQ(zero.mq_kicks, 0u);
  EXPECT_EQ(zero.allocs, 0u);
}

TEST(Summary, Statistics) {
  Summary s = Summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stdev, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Summary, EmptyIsZero) {
  Summary s = Summarize({});
  EXPECT_DOUBLE_EQ(s.mean, 0);
  EXPECT_DOUBLE_EQ(s.stdev, 0);
}

// ---------------------------------------------------------------------------
// LogHistogram: the sketch's percentiles must bracket the exact nearest-rank
// answer from above — never below (a sketch must not mask a tail violation)
// and never by more than the advertised relative error.
// ---------------------------------------------------------------------------

using obs::LogHistogram;

// Checks every interesting percentile of `samples` against LatencyRecorder
// (the exact nearest-rank reference): exact <= sketch <= exact * (1 + err).
void ExpectSketchBrackets(const std::vector<Nanos>& samples) {
  LogHistogram sketch;
  LatencyRecorder exact;
  for (Nanos s : samples) {
    sketch.Record(s);
    exact.Add(s);
  }
  ASSERT_EQ(sketch.count(), samples.size());
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    Nanos e = exact.Percentile(p);
    Nanos s = sketch.Percentile(p);
    EXPECT_GE(s, e) << "sketch under-reports p" << p;
    double bound = static_cast<double>(e) *
                   (1.0 + LogHistogram::kMaxRelativeError);
    EXPECT_LE(static_cast<double>(s), bound)
        << "sketch over-reports p" << p << " beyond the error bound";
  }
  EXPECT_EQ(sketch.Min(), exact.Percentile(0));
  EXPECT_EQ(sketch.Max(), exact.Max());
}

TEST(LogHistogram, ErrorBoundOnUniformDistribution) {
  std::vector<Nanos> samples;
  for (int i = 1; i <= 1000; ++i) {
    samples.push_back(Usec(i));
  }
  ExpectSketchBrackets(samples);
}

// Adversarial: samples planted just above bin lower bounds (worst relative
// error inside a bin) across many octaves.
TEST(LogHistogram, ErrorBoundOnPowerOfTwoEdges) {
  std::vector<Nanos> samples;
  for (int shift = 3; shift < 40; ++shift) {
    samples.push_back((Nanos(1) << shift) + 1);
    samples.push_back((Nanos(1) << shift) - 1);
    samples.push_back(Nanos(1) << shift);
  }
  ExpectSketchBrackets(samples);
}

// Adversarial: a heavy cluster plus a six-orders-of-magnitude outlier tail —
// the shape where an averaging summary goes blind.
TEST(LogHistogram, ErrorBoundOnBimodalTail) {
  std::vector<Nanos> samples;
  for (int i = 0; i < 990; ++i) {
    samples.push_back(Usec(100) + i);
  }
  for (int i = 0; i < 10; ++i) {
    samples.push_back(Sec(30) + Msec(i * 17));
  }
  ExpectSketchBrackets(samples);
}

// Values below kSubBuckets land in exact unit bins: zero error there.
TEST(LogHistogram, TinyValuesAreExact) {
  LogHistogram h;
  for (Nanos v : {0, 1, 2, 3, 4, 5, 6, 7}) {
    h.Record(v);
  }
  EXPECT_EQ(h.Percentile(0), 0);
  EXPECT_EQ(h.Percentile(100), 7);
  for (int b = 0; b < LogHistogram::kSubBuckets; ++b) {
    EXPECT_EQ(h.BinCount(b), 1u);
  }
}

TEST(LogHistogram, EmptyIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 0);
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.Percentile(99.9), 0);
}

// A single sample is every percentile, exactly (clamping to min/max removes
// the bin rounding).
TEST(LogHistogram, SingleSampleIsEveryPercentileExactly) {
  LogHistogram h;
  h.Record(Msec(123));
  EXPECT_EQ(h.Percentile(0), Msec(123));
  EXPECT_EQ(h.Percentile(50), Msec(123));
  EXPECT_EQ(h.Percentile(99.9), Msec(123));
  EXPECT_EQ(h.Percentile(100), Msec(123));
}

TEST(LogHistogram, HugeValuesClampIntoLastBin) {
  LogHistogram h;
  h.Record(kNanosMax);
  h.Record(kNanosMax - 1);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.Max(), kNanosMax);
  // Values beyond the 2^51 ns sketch range land in the overflow bin; the
  // error bound no longer applies there, but Percentile still stays inside
  // the observed [Min, Max] envelope.
  Nanos p100 = h.Percentile(100);
  EXPECT_GE(p100, h.Min());
  EXPECT_LE(p100, h.Max());
}

// Merge must be associative and agree with recording the union directly.
TEST(LogHistogram, MergeMatchesUnionAndIsAssociative) {
  std::vector<Nanos> a_s;
  std::vector<Nanos> b_s;
  std::vector<Nanos> c_s;
  for (int i = 1; i <= 300; ++i) {
    a_s.push_back(Usec(i * 3));
    b_s.push_back(Msec(i));
    c_s.push_back(Nanos(i) * 37);
  }
  LogHistogram a;
  LogHistogram b;
  LogHistogram c;
  LogHistogram all;
  for (Nanos v : a_s) { a.Record(v); all.Record(v); }
  for (Nanos v : b_s) { b.Record(v); all.Record(v); }
  for (Nanos v : c_s) { c.Record(v); all.Record(v); }

  LogHistogram ab_c = a;   // (a + b) + c
  ab_c.Merge(b);
  ab_c.Merge(c);
  LogHistogram a_bc = b;   // a + (b + c)
  a_bc.Merge(c);
  a_bc.Merge(a);

  EXPECT_TRUE(ab_c == a_bc);
  EXPECT_TRUE(ab_c == all);
  EXPECT_EQ(ab_c.count(), 900u);
  EXPECT_EQ(ab_c.Percentile(99.9), all.Percentile(99.9));
}

TEST(LogHistogram, MergeWithEmptyIsIdentity) {
  LogHistogram h;
  h.Record(Msec(5));
  LogHistogram empty;
  LogHistogram merged = h;
  merged.Merge(empty);
  EXPECT_TRUE(merged == h);
  empty.Merge(h);  // merging *into* empty adopts the other side
  EXPECT_TRUE(empty == h);
}

// Bin geometry invariants: indices are monotone in the value, the upper
// bound is honest (value <= BinUpperBound(BinIndex(value))), and the bound
// is tight to within the advertised relative error.
TEST(LogHistogram, BinGeometry) {
  Nanos prev_upper = -1;
  for (int b = 0; b < LogHistogram::kBins; ++b) {
    Nanos upper = LogHistogram::BinUpperBound(b);
    EXPECT_GT(upper, prev_upper) << "bin " << b;
    prev_upper = upper;
  }
  for (Nanos v : {Nanos(1), Nanos(7), Nanos(8), Nanos(9), Nanos(100),
                  Usec(1), Msec(1), Sec(1), Sec(100), Nanos(1) << 45}) {
    int bin = LogHistogram::BinIndex(v);
    Nanos upper = LogHistogram::BinUpperBound(bin);
    EXPECT_GE(upper, v);
    EXPECT_LE(static_cast<double>(upper),
              static_cast<double>(v) *
                  (1.0 + LogHistogram::kMaxRelativeError));
    if (bin > 0) {
      EXPECT_LT(LogHistogram::BinUpperBound(bin - 1), v);
    }
  }
}

}  // namespace
}  // namespace splitio
