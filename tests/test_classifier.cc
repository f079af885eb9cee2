/**
 * @file
 * Tests for the classification engine: seeding, estimate shapes,
 * accuracy on structured workloads, exhaustive mode, history growth
 * and bounding, feedback, and decision-time expectations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/classifier.hh"
#include "linalg/pq_model.hh"
#include "stats/summary.hh"
#include "workload/factory.hh"

using namespace quasar;
using core::Classifier;
using core::ClassifierConfig;
using core::WorkloadEstimate;
using workload::Workload;

namespace
{

struct World
{
    std::vector<sim::Platform> catalog = sim::localPlatforms();
    profiling::Profiler profiler{catalog, {}};
    profiling::Profiler truth_prof;
    workload::WorkloadFactory factory{stats::Rng(71)};
    stats::Rng rng{72};

    World()
        : truth_prof(catalog,
                     [] {
                         profiling::ProfilerConfig c;
                         c.noise_sigma = 0.0;
                         return c;
                     }())
    {
    }

    std::vector<Workload> seeds()
    {
        std::vector<Workload> out;
        for (int i = 0; i < 6; ++i)
            out.push_back(factory.hadoopJob(
                "seed", factory.rng().uniform(5.0, 200.0)));
        for (int i = 0; i < 4; ++i) {
            double q = factory.rng().uniform(5e4, 3e5);
            out.push_back(factory.memcachedService(
                "seed", q, 2e-4, 40.0,
                std::make_shared<tracegen::FlatLoad>(q)));
        }
        static const char *fams[] = {"spec-int", "parsec", "minebench",
                                     "specjbb"};
        for (int i = 0; i < 8; ++i)
            out.push_back(factory.singleNodeJob("seed", fams[i % 4]));
        return out;
    }
};

} // namespace

TEST(Classifier, SeedingPopulatesAllMatrices)
{
    World w;
    Classifier clf(w.profiler, {}, 1);
    EXPECT_EQ(clf.seedRows(), 0u);
    clf.seedOffline(w.seeds(), 0.0);
    // 18 seeds contribute scale-up + het + interference rows, and
    // distributed ones a scale-out row.
    EXPECT_GE(clf.seedRows(), 18u * 3);
}

TEST(Classifier, EstimateShapesAreComplete)
{
    World w;
    Classifier clf(w.profiler, {}, 1);
    clf.seedOffline(w.seeds(), 0.0);
    Workload job = w.factory.hadoopJob("j", 60.0);
    auto data = w.profiler.profile(job, 0.0, w.rng);
    WorkloadEstimate est = clf.classify(job, data);

    auto grid = workload::scaleUpGrid(w.catalog[9], job.type);
    EXPECT_EQ(est.scale_up_perf.size(), grid.size());
    EXPECT_EQ(est.platform_factor.size(), w.catalog.size());
    EXPECT_EQ(est.scale_out_speedup.size(),
              workload::scaleOutGrid().size());
    EXPECT_DOUBLE_EQ(est.scale_out_speedup[0], 1.0);
    EXPECT_DOUBLE_EQ(est.platform_factor[est.profiling_platform], 1.0);
    for (double v : est.scale_up_perf)
        EXPECT_GE(v, 0.0);
    for (size_t i = 0; i < interference::kNumSources; ++i) {
        EXPECT_GE(est.tolerated[i], 0.0);
        EXPECT_LE(est.tolerated[i], 1.0);
        EXPECT_GE(est.caused_per_core[i], 0.0);
    }
    EXPECT_EQ(est.type, workload::WorkloadType::Analytics);
    EXPECT_TRUE(est.cross_perf.empty());
}

TEST(Classifier, HistoryGrowsAndIsBounded)
{
    World w;
    ClassifierConfig cfg;
    cfg.max_history_rows = 10;
    Classifier clf(w.profiler, cfg, 1);
    clf.seedOffline(w.seeds(), 0.0);
    for (int i = 0; i < 30; ++i) {
        Workload job = w.factory.singleNodeJob("s", "mix");
        auto data = w.profiler.profile(job, 0.0, w.rng);
        clf.classify(job, data);
    }
    // Online rows per matrix are capped at 10; generic scale-up, het,
    // interference (and no scale-out for single-node).
    EXPECT_LE(clf.onlineRows(), 3u * 10);
}

namespace
{

/**
 * Classify `arrivals` single-node workloads with no offline seeds and
 * return the arrival indices at which the matrices refit. The generic
 * scale-up, heterogeneity and interference matrices each gain one row
 * per arrival, so they refit together.
 */
std::vector<size_t>
refitArrivals(size_t max_history_rows, size_t arrivals)
{
    World w;
    ClassifierConfig cfg;
    cfg.max_history_rows = max_history_rows;
    Classifier clf(w.profiler, cfg, 1);
    std::vector<size_t> fitted_at;
    for (size_t i = 0; i < arrivals; ++i) {
        uint64_t before = clf.fitCounters().fits;
        Workload job = w.factory.singleNodeJob("s", "mix");
        clf.classify(job, w.profiler.profile(job, 0.0, w.rng));
        uint64_t fits = clf.fitCounters().fits - before;
        EXPECT_TRUE(fits == 0 || fits == 3) << "at arrival " << i;
        if (fits)
            fitted_at.push_back(i);
    }
    return fitted_at;
}

} // namespace

TEST(Classifier, RefitScheduleDoubles)
{
    // Below the cap arrival i sees i rows: the first fit, then one at
    // 2 x the last fit's rows + 8.
    const std::vector<size_t> fitted_at = refitArrivals(1000, 200);
    EXPECT_EQ(fitted_at, (std::vector<size_t>{0, 8, 24, 56, 120}));
    size_t fitted_total = 0;
    for (size_t rows : fitted_at)
        fitted_total += rows;
    EXPECT_LE(fitted_total, 2 * 200u + 8);
}

TEST(Classifier, RefitKeepsLearningAtTheCap)
{
    // The schedule counts rows added, not rows held: with 20 rows
    // kept, the matrices still refit at 24, 56 and 120 rows added,
    // each time on the 20 rows they hold.
    const std::vector<size_t> fitted_at = refitArrivals(20, 130);
    EXPECT_EQ(fitted_at, (std::vector<size_t>{0, 8, 24, 56, 120}));
    size_t fitted_total = 0;
    for (size_t i : fitted_at)
        fitted_total += std::min<size_t>(i, 20);
    EXPECT_LE(fitted_total, 2 * 130u);
}

TEST(Classifier, FitCountersMatchTheModels)
{
    World w;
    ClassifierConfig cfg;
    cfg.pq.max_epochs = 12;
    cfg.pq.tolerance = 0.0; // no early stop: every fit runs 12 epochs
    Classifier clf(w.profiler, cfg, 1);
    clf.seedOffline(w.seeds(), 0.0);
    EXPECT_EQ(clf.fitCounters().fits, 0u);
    for (int i = 0; i < 12; ++i) {
        Workload job = w.factory.singleNodeJob("s", "mix");
        clf.classify(job, w.profiler.profile(job, 0.0, w.rng));
    }

    // The same stop rule on a model fitted directly.
    linalg::MaskedMatrix m(6, 5);
    for (size_t r = 0; r < 6; ++r)
        for (size_t c = 0; c < 5; ++c)
            if ((r + c) % 2 == 0)
                m.set(r, c, double(r + 1) * 0.3 + double(c));
    linalg::PqModel model(cfg.pq);
    model.fit(m);
    ASSERT_EQ(model.epochsRun(), 12u);

    const core::FitCounters &fc = clf.fitCounters();
    // Each of the three matrices a single-node arrival reads fits on
    // its seed rows at least.
    EXPECT_GE(fc.fits, 3u);
    EXPECT_EQ(fc.epochs, fc.fits * model.epochsRun());
    EXPECT_EQ(fc.capped_fits, fc.fits);
    EXPECT_EQ(fc.entry_visits % model.epochsRun(), 0u);
    EXPECT_GT(fc.entry_visits, fc.epochs);
    EXPECT_GT(fc.fit_s, 0.0);
}

TEST(Classifier, PlatformFactorsTrackSpeedOrdering)
{
    World w;
    Classifier clf(w.profiler, {}, 1);
    clf.seedOffline(w.seeds(), 0.0);
    stats::Samples a_factor, j_factor;
    for (int i = 0; i < 8; ++i) {
        Workload job = w.factory.hadoopJob("j", 50.0);
        auto data = w.profiler.profile(job, 0.0, w.rng);
        auto est = clf.classify(job, data);
        a_factor.add(est.platform_factor[0]);
        j_factor.add(est.platform_factor[9]);
    }
    // Platform A must classify well below J on average.
    EXPECT_LT(a_factor.mean(), 0.85 * j_factor.mean());
}

TEST(Classifier, EstimatesBeatNaiveFlatGuess)
{
    // The CF estimate of the scale-up row must beat assuming the
    // reference value everywhere (the no-information baseline).
    World w;
    Classifier clf(w.profiler, {}, 1);
    clf.seedOffline(w.seeds(), 0.0);
    double cf_err = 0.0, flat_err = 0.0;
    int n = 0;
    for (int i = 0; i < 10; ++i) {
        Workload job = w.factory.hadoopJob("j",
                                           w.rng.uniform(5.0, 150.0));
        auto data = w.profiler.profile(job, 0.0, w.rng);
        auto est = clf.classify(job, data);
        stats::Rng z(1);
        auto truth = w.truth_prof.denseScaleUpRow(job, 0.0, z);
        for (size_t c = 0; c < truth.size(); ++c) {
            cf_err += std::fabs(est.scale_up_perf[c] - truth[c]) /
                      std::max(truth[c], 1e-9);
            flat_err += std::fabs(data.reference_value - truth[c]) /
                        std::max(truth[c], 1e-9);
            ++n;
        }
    }
    EXPECT_LT(cf_err / n, 0.6 * flat_err / n);
}

TEST(Classifier, InterferenceErrorsSmall)
{
    World w;
    Classifier clf(w.profiler, {}, 1);
    clf.seedOffline(w.seeds(), 0.0);
    stats::Samples err;
    for (int i = 0; i < 10; ++i) {
        Workload job = w.factory.hadoopJob("j", 50.0);
        auto data = w.profiler.profile(job, 0.0, w.rng);
        auto est = clf.classify(job, data);
        auto ref = profiling::Profiler::referenceConfig(w.catalog[9],
                                                        job.type);
        auto truth = w.truth_prof.denseInterferenceRow(job, 0.0, ref);
        for (size_t c = 0; c < truth.size(); ++c)
            err.add(std::fabs(est.tolerated[c] - truth[c]));
    }
    EXPECT_LT(err.mean(), 0.12);
}

TEST(Classifier, ExhaustiveModeProducesCrossEstimates)
{
    World w;
    ClassifierConfig cfg;
    cfg.exhaustive = true;
    Classifier clf(w.profiler, cfg, 1);
    clf.seedOffline(w.seeds(), 0.0);
    Workload job = w.factory.singleNodeJob("s", "parsec");
    auto data = w.profiler.profile(job, 0.0, w.rng);
    auto est = clf.classify(job, data);
    auto grid = workload::scaleUpGrid(w.catalog[9], job.type);
    EXPECT_EQ(est.cross_perf.size(), w.catalog.size() * grid.size());
    // nodePerf must read the cross matrix directly.
    EXPECT_DOUBLE_EQ(est.nodePerf(3, 5),
                     est.cross_perf[3 * grid.size() + 5]);
}

TEST(Classifier, FeedbackOverwritesColumnAndHistory)
{
    World w;
    Classifier clf(w.profiler, {}, 1);
    clf.seedOffline(w.seeds(), 0.0);
    Workload job = w.factory.hadoopJob("j", 50.0);
    auto data = w.profiler.profile(job, 0.0, w.rng);
    auto est = clf.classify(job, data);
    size_t before = clf.onlineRows();
    clf.feedbackScaleUp(est, 3, 42.0);
    EXPECT_DOUBLE_EQ(est.scale_up_perf[3], 42.0);
    EXPECT_EQ(clf.onlineRows(), before + 1);
}

TEST(Estimate, ScaleOutInterpolationMonotoneFamilies)
{
    WorkloadEstimate est;
    est.scale_out_grid = {1, 2, 4, 8};
    est.scale_out_speedup = {1.0, 1.9, 3.5, 6.0};
    EXPECT_DOUBLE_EQ(est.scaleOutSpeedupAt(1), 1.0);
    EXPECT_DOUBLE_EQ(est.scaleOutSpeedupAt(8), 6.0);
    double s3 = est.scaleOutSpeedupAt(3);
    EXPECT_GT(s3, 1.9);
    EXPECT_LT(s3, 3.5);
    // Beyond the grid: clamps to the last value.
    EXPECT_DOUBLE_EQ(est.scaleOutSpeedupAt(100), 6.0);
}

TEST(Estimate, InterferenceMultiplierThresholds)
{
    WorkloadEstimate est;
    est.tolerated.fill(0.5);
    auto quiet = interference::zeroVector();
    EXPECT_DOUBLE_EQ(est.interferenceMultiplier(quiet), 1.0);
    auto hot = interference::zeroVector();
    hot[2] = 0.9;
    double m = est.interferenceMultiplier(hot, 1.5);
    EXPECT_NEAR(m, 1.0 - 1.5 * 0.4, 1e-12);
}

TEST(Estimate, JobPerfUsesEfficiency)
{
    WorkloadEstimate est;
    est.scale_out_grid = {1, 2, 4};
    est.scale_out_speedup = {1.0, 1.6, 2.8};
    std::vector<double> two(2, 5.0);
    EXPECT_NEAR(est.jobPerf(two), 10.0 * 1.6 / 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(est.jobPerf({}), 0.0);
}
