/**
 * @file
 * Google-benchmark microbenchmarks for the decision-path latencies the
 * paper reports (Secs. 3.2-3.4, 6.5): SVD and PQ-reconstruction on
 * classification-sized matrices, fold-in of a new workload row, the
 * four parallel classifications vs the exhaustive one, greedy
 * allocation on 40-, 200- and 1000-server clusters, and the
 * performance oracle used by monitoring.
 */

#include <benchmark/benchmark.h>

#include "bench/common.hh"
#include "bench/report.hh"
#include "core/classifier.hh"
#include "core/scheduler.hh"
#include "linalg/pq_model.hh"
#include "linalg/svd.hh"

using namespace quasar;

namespace
{

linalg::Matrix
randomMatrix(size_t m, size_t n, uint64_t seed)
{
    stats::Rng rng(seed);
    linalg::Matrix a(m, n);
    for (size_t i = 0; i < m; ++i)
        for (size_t j = 0; j < n; ++j)
            a.at(i, j) = rng.normal(0.0, 1.0);
    return a;
}

/** Shared fixture state built once. */
struct Fixture
{
    std::vector<sim::Platform> catalog = sim::localPlatforms();
    profiling::Profiler profiler{catalog, {}};
    core::Classifier clf{profiler, {}, 7};
    core::Classifier clf_exh;
    workload::WorkloadFactory factory{stats::Rng(7777)};
    stats::Rng rng{888};

    Fixture()
        : clf_exh(profiler,
                  [] {
                      core::ClassifierConfig c;
                      c.exhaustive = true;
                      return c;
                  }(),
                  7)
    {
        auto seeds = bench::standardSeeds(factory, 4);
        clf.seedOffline(seeds, 0.0);
        clf_exh.seedOffline(seeds, 0.0);
        for (int i = 0; i < 60; ++i) {
            workload::Workload w = factory.randomWorkload("warm");
            auto d = profiler.profile(w, 0.0, rng);
            clf.classify(w, d);
            clf_exh.classify(w, d);
        }
    }

    static Fixture &get()
    {
        static Fixture f;
        return f;
    }
};

} // namespace

// Args: rows, cols. 60 x {16, 32, 64}, then the classifier's shapes
// (history rows x profiling columns) at rank 8.
static void
BM_SvdJacobi(benchmark::State &state)
{
    auto a = randomMatrix(size_t(state.range(0)), size_t(state.range(1)),
                          3);
    for (auto _ : state)
        benchmark::DoNotOptimize(linalg::svd(a, 8));
}
BENCHMARK(BM_SvdJacobi)
    ->Args({60, 16})->Args({60, 32})->Args({60, 64})
    ->Args({300, 16})->Args({300, 25})->Args({280, 54});

static void
BM_RandomizedSvd(benchmark::State &state)
{
    auto a = randomMatrix(300, size_t(state.range(0)), 4);
    for (auto _ : state)
        benchmark::DoNotOptimize(linalg::randomizedSvd(a, 8));
}
BENCHMARK(BM_RandomizedSvd)->Arg(64)->Arg(256)->Arg(1024);

static void
BM_PqFit(benchmark::State &state)
{
    stats::Rng rng(5);
    size_t rows = size_t(state.range(0));
    linalg::MaskedMatrix m(rows, 56);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < 56; ++c)
            if (r < 30 || rng.chance(0.05))
                m.set(r, c, rng.normal(1.0, 0.5));
    for (auto _ : state) {
        linalg::PqModel model;
        model.fit(m);
        benchmark::DoNotOptimize(model.trainRmse());
    }
}
BENCHMARK(BM_PqFit)->Arg(50)->Arg(150)->Arg(400);

// Args: rows, cols, observed entries of the folded-in row. Rank 8.
static void
BM_FoldInRow(benchmark::State &state)
{
    const size_t rows = size_t(state.range(0));
    const size_t cols = size_t(state.range(1));
    stats::Rng rng(6);
    linalg::MaskedMatrix m(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            if (r < 30 || rng.chance(0.06))
                m.set(r, c, rng.normal(1.0, 0.5));
    linalg::PqModel model;
    model.fit(m);
    std::vector<std::pair<size_t, double>> obs;
    for (int64_t i = 0; i < state.range(2); ++i)
        obs.emplace_back(size_t(i * 7 + 3) % cols, 0.8 + 0.2 * double(i));
    for (auto _ : state)
        benchmark::DoNotOptimize(model.foldInRow(obs));
}
BENCHMARK(BM_FoldInRow)
    ->Args({120, 56, 2})->Args({300, 16, 2})->Args({300, 25, 3})
    ->Args({280, 54, 4});

static void
BM_Classify4Parallel(benchmark::State &state)
{
    Fixture &f = Fixture::get();
    workload::Workload w =
        f.factory.hadoopJob("bench", 50.0);
    auto data = f.profiler.profile(w, 0.0, f.rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(f.clf.classify(w, data));
}
BENCHMARK(BM_Classify4Parallel);

static void
BM_ClassifyExhaustive(benchmark::State &state)
{
    Fixture &f = Fixture::get();
    workload::Workload w =
        f.factory.hadoopJob("bench", 50.0);
    auto data = f.profiler.profile(w, 0.0, f.rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(f.clf_exh.classify(w, data));
}
BENCHMARK(BM_ClassifyExhaustive);

static void
BM_GreedyAllocate(benchmark::State &state)
{
    // Profiler/classifier anchored on the *cluster's* catalog: the
    // estimate's platform-factor vector must have one entry per
    // catalog platform or ranking reads past its end.
    sim::Cluster cluster = bench::clusterOfSize(int(state.range(0)));
    profiling::Profiler profiler(cluster.catalog(), {});
    core::Classifier clf(profiler, {}, 7);
    workload::WorkloadFactory factory{stats::Rng(7777)};
    clf.seedOffline(bench::standardSeeds(factory, 2), 0.0);
    stats::Rng rng(888);
    core::GreedyScheduler sched(cluster);
    workload::Workload w = factory.hadoopJob("bench", 50.0);
    w.id = 1;
    auto data = profiler.profile(w, 0.0, rng);
    auto est = clf.classify(w, data);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sched.allocate(w, est, w.total_work / 600.0,
                           true));
}
BENCHMARK(BM_GreedyAllocate)->Arg(40)->Arg(200)->Arg(1000);

// Arg 0 (cold): a new t every iteration, so each call recomputes the
// rate. Arg 1 (warm): one t, so every call after the first is a memo
// hit.
static void
BM_OracleCurrentRate(benchmark::State &state)
{
    Fixture &f = Fixture::get();
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    core::GreedyScheduler sched(cluster);
    workload::Workload tmp = f.factory.hadoopJob("bench", 50.0);
    WorkloadId id = registry.add(tmp);
    workload::Workload &w = registry.get(id);
    auto data = f.profiler.profile(w, 0.0, f.rng);
    auto est = f.clf.classify(w, data);
    auto alloc = sched.allocate(w, est, w.total_work / 600.0,
                                true);
    for (const auto &node : alloc->nodes) {
        sim::TaskShare share;
        share.workload = id;
        share.cores = node.cores;
        share.memory_gb = node.memory_gb;
        share.caused = w.causedPressure(0.0, node.cores);
        cluster.server(node.server).place(share);
    }
    workload::PerfOracle oracle(cluster, registry);
    const bool warm = state.range(0) != 0;
    double t = 0.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(oracle.currentRate(w, t));
        if (!warm)
            t += 1.0;
    }
}
BENCHMARK(BM_OracleCurrentRate)->ArgName("warm")->Arg(0)->Arg(1);

BENCHMARK_MAIN();
