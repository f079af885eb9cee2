/**
 * @file
 * Unit and property tests for the stats module: RNG determinism and
 * distribution ranges, streaming accumulators, percentiles, histograms
 * and CDFs, and time series / utilization grids.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "stats/rng.hh"
#include "stats/summary.hh"
#include "stats/timeseries.hh"

using namespace quasar::stats;

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    bool differ = false;
    for (int i = 0; i < 10; ++i)
        differ = differ || a.uniform() != b.uniform();
    EXPECT_TRUE(differ);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double x = rng.uniform(2.0, 5.0);
        EXPECT_GE(x, 2.0);
        EXPECT_LT(x, 5.0);
    }
}

TEST(Rng, UniformIntInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.uniformInt(1, 6);
        EXPECT_GE(v, 1);
        EXPECT_LE(v, 6);
        saw_lo = saw_lo || v == 1;
        saw_hi = saw_hi || v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, LognormalNoiseMedianNearOne)
{
    Rng rng(11);
    std::vector<double> xs;
    for (int i = 0; i < 4000; ++i)
        xs.push_back(rng.lognormalNoise(0.1));
    Samples s;
    s.addAll(xs);
    EXPECT_NEAR(s.percentile(50.0), 1.0, 0.02);
    EXPECT_GT(s.min(), 0.0);
}

TEST(Rng, LognormalZeroSigmaIsIdentity)
{
    Rng rng(3);
    EXPECT_DOUBLE_EQ(rng.lognormalNoise(0.0), 1.0);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(5);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng rng(5);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, WeightedIndexRespectsWeights)
{
    Rng rng(9);
    std::vector<double> w = {1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 8000; ++i)
        ++counts[rng.weightedIndex(w)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(double(counts[2]) / double(counts[0]), 3.0, 0.4);
}

TEST(Rng, PermutationIsPermutation)
{
    Rng rng(13);
    auto p = rng.permutation(20);
    ASSERT_EQ(p.size(), 20u);
    std::vector<bool> seen(20, false);
    for (size_t i : p) {
        ASSERT_LT(i, 20u);
        EXPECT_FALSE(seen[i]);
        seen[i] = true;
    }
}

TEST(Rng, ForkIndependentButDeterministic)
{
    Rng a(21), b(21);
    Rng fa = a.fork(), fb = b.fork();
    for (int i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(fa.uniform(), fb.uniform());
}

TEST(Rng, ParetoAboveScale)
{
    Rng rng(17);
    for (int i = 0; i < 500; ++i)
        EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Accumulator, MeanAndStddev)
{
    Accumulator acc;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(x);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_NEAR(acc.stddev(), 2.138, 0.01);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, EmptyIsZero)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(Samples, PercentileInterpolates)
{
    Samples s;
    for (int i = 1; i <= 5; ++i)
        s.add(double(i)); // 1..5
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100.0), 5.0);
    EXPECT_DOUBLE_EQ(s.percentile(50.0), 3.0);
    EXPECT_DOUBLE_EQ(s.percentile(25.0), 2.0);
}

TEST(Samples, PercentileUnsortedInput)
{
    Samples s;
    for (double x : {9.0, 1.0, 5.0, 3.0, 7.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.percentile(50.0), 5.0);
}

// Regression: out-of-range or NaN percentile ranks used to flow into
// the rank interpolation unchecked (percentile(-50) on {1, 2} returned
// 0.5, below the sample minimum; in release builds a negative rank
// cast to size_t is undefined). They must clamp to the range ends.
TEST(Samples, PercentileClampsInvalidRanks)
{
    Samples s;
    s.add(1.0);
    s.add(2.0);
    EXPECT_DOUBLE_EQ(s.percentile(-50.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(150.0), 2.0);
    EXPECT_DOUBLE_EQ(s.percentile(std::numeric_limits<double>::quiet_NaN()),
                     1.0);
    EXPECT_DOUBLE_EQ(s.percentile(std::numeric_limits<double>::infinity()),
                     2.0);
}

TEST(Samples, EmptySetReportsZeroes)
{
    Samples s;
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(-50.0), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
    ErrorReport r = makeErrorReport(s);
    EXPECT_DOUBLE_EQ(r.avg, 0.0);
    EXPECT_DOUBLE_EQ(r.p90, 0.0);
    EXPECT_DOUBLE_EQ(r.max, 0.0);
    EXPECT_TRUE(std::isfinite(r.p90));
}

TEST(Samples, FractionBelow)
{
    Samples s;
    for (int i = 1; i <= 10; ++i)
        s.add(double(i));
    EXPECT_DOUBLE_EQ(s.fractionBelow(5.0), 0.5);
    EXPECT_DOUBLE_EQ(s.fractionBelow(0.0), 0.0);
    EXPECT_DOUBLE_EQ(s.fractionBelow(10.0), 1.0);
}

TEST(Samples, ErrorReportFormat)
{
    Samples s;
    s.add(0.05);
    s.add(0.10);
    s.add(0.15);
    ErrorReport r = makeErrorReport(s);
    EXPECT_NEAR(r.avg, 0.10, 1e-9);
    EXPECT_NEAR(r.max, 0.15, 1e-9);
    EXPECT_GT(r.p90, r.avg);
    std::string txt = formatErrorReport(r);
    EXPECT_NE(txt.find("%"), std::string::npos);
}

TEST(TimeSeries, RecordAndQuery)
{
    TimeSeries ts;
    EXPECT_TRUE(ts.empty());
    ts.record(0.0, 1.0);
    ts.record(10.0, 3.0);
    ts.record(20.0, 5.0);
    EXPECT_EQ(ts.size(), 3u);
    EXPECT_DOUBLE_EQ(ts.mean(), 3.0);
    EXPECT_DOUBLE_EQ(ts.meanOver(0.0, 15.0), 2.0);
    EXPECT_DOUBLE_EQ(ts.last(), 5.0);
    EXPECT_DOUBLE_EQ(TimeSeries().last(7.0), 7.0);
}

TEST(UtilizationGrid, WindowMeansAndHeatmap)
{
    UtilizationGrid grid(2);
    grid.record(0, 0.0, 0.2);
    grid.record(0, 10.0, 0.4);
    grid.record(1, 0.0, 1.0);
    auto means = grid.windowMeans(0.0, 20.0);
    ASSERT_EQ(means.size(), 2u);
    EXPECT_NEAR(means[0], 0.3, 1e-9);
    EXPECT_NEAR(means[1], 1.0, 1e-9);
    EXPECT_NEAR(grid.overallMean(), (0.2 + 0.4 + 1.0) / 3.0, 1e-9);

    std::string map = grid.renderHeatmap(0.0, 20.0, 4);
    // Two rows, each with the bucket glyphs between pipes.
    EXPECT_EQ(std::count(map.begin(), map.end(), '\n'), 2);
}
