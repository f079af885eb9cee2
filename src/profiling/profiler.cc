#include "profiling/profiler.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "interference/microbench.hh"

namespace quasar::profiling
{

using workload::ScaleUpConfig;
using workload::Workload;
using workload::WorkloadType;

namespace
{

/** QoS loss that defines tolerated interference (paper: 5%). */
constexpr double kQosLoss = 0.05;
/** Largest node count probed online for scale-out (paper: 4). */
constexpr int kMaxScaleOutProbe = 4;

} // namespace

Profiler::Profiler(std::vector<sim::Platform> catalog, ProfilerConfig cfg)
    : catalog_(std::move(catalog)), cfg_(cfg),
      scale_up_platform_(sim::highestEndPlatform(catalog_))
{
    assert(!catalog_.empty());
    assert(cfg_.samples_per_classification >= 1);
}

ScaleUpConfig
Profiler::clampConfig(const ScaleUpConfig &cfg,
                      const sim::Platform &platform)
{
    ScaleUpConfig out = cfg;
    out.cores = std::min(out.cores, platform.cores);
    out.memory_gb = std::min(out.memory_gb, platform.memory_gb);
    return out;
}

ScaleUpConfig
Profiler::referenceConfig(const sim::Platform &platform,
                          WorkloadType type)
{
    auto grid = workload::scaleUpGrid(platform, type);
    assert(!grid.empty());
    // Pick the grid column closest to half the platform's cores and
    // memory, preferring default-ish knobs; deterministic.
    double half_c = std::max(1.0, platform.cores / 2.0);
    double half_m = std::max(1.0, platform.memory_gb / 2.0);
    size_t best = 0;
    double best_score = 1e18;
    for (size_t i = 0; i < grid.size(); ++i) {
        const ScaleUpConfig &g = grid[i];
        double score = std::fabs(std::log(double(g.cores) / half_c)) +
                       std::fabs(std::log(g.memory_gb / half_m));
        if (type == WorkloadType::Analytics) {
            score +=
                0.1 * std::fabs(std::log(double(g.knobs.mappers_per_node) /
                                         8.0));
            score += 0.1 * std::fabs(std::log(g.knobs.heap_gb / 1.0));
            if (g.knobs.compression != workload::Compression::Lzo)
                score += 0.05;
        }
        if (score < best_score) {
            best_score = score;
            best = i;
        }
    }
    return grid[best];
}

ScaleUpConfig
Profiler::hetConfig()
{
    ScaleUpConfig cfg;
    cfg.cores = 1;
    cfg.memory_gb = 1.0;
    cfg.knobs.mappers_per_node = 4;
    cfg.knobs.heap_gb = 0.75;
    return cfg;
}

double
Profiler::measureNode(const Workload &w, double t,
                      const sim::Platform &platform,
                      const ScaleUpConfig &cfg, stats::Rng &rng) const
{
    const workload::GroundTruth &truth = w.truthAt(t);
    double rate = truth.nodeRate(platform, clampConfig(cfg, platform),
                                 interference::zeroVector());
    double value = workload::isLatencyCritical(w.type)
                       ? truth.capacityQps(rate)
                       : rate;
    return value * rng.lognormalNoise(cfg_.noise_sigma);
}

double
Profiler::measureNodes(const Workload &w, double t,
                       const sim::Platform &platform,
                       const ScaleUpConfig &cfg, int nodes,
                       stats::Rng &rng) const
{
    assert(nodes >= 1);
    const workload::GroundTruth &truth = w.truthAt(t);
    double node_rate = truth.nodeRate(platform,
                                      clampConfig(cfg, platform),
                                      interference::zeroVector());
    std::vector<double> rates(size_t(nodes), node_rate);
    double rate = truth.jobRate(rates);
    double value = workload::isLatencyCritical(w.type)
                       ? truth.capacityQps(rate)
                       : rate;
    return value * rng.lognormalNoise(cfg_.noise_sigma);
}

double
Profiler::probeTolerance(const Workload &w, double t,
                         const sim::Platform &platform,
                         const ScaleUpConfig &cfg,
                         interference::Source source) const
{
    const workload::GroundTruth &truth = w.truthAt(t);
    ScaleUpConfig clamped = clampConfig(cfg, platform);
    auto perf_at = [&](const interference::IVector &contention) {
        return truth.nodeRate(platform, clamped, contention);
    };
    return interference::probeToleratedIntensity(perf_at, source,
                                                 kQosLoss);
}

ProfilingData
Profiler::profile(const Workload &w, double t, stats::Rng &rng) const
{
    ProfilingData data;
    data.scale_up_platform = scale_up_platform_;
    const sim::Platform &top = catalog_[scale_up_platform_];

    auto grid = workload::scaleUpGrid(top, w.type);
    ScaleUpConfig ref = referenceConfig(top, w.type);
    size_t ref_col = 0;
    for (size_t i = 0; i < grid.size(); ++i)
        if (grid[i] == ref) {
            ref_col = i;
            break;
        }
    data.reference = ref;
    data.reference_value = measureNode(w, t, top, ref, rng);

    const size_t k = cfg_.samples_per_classification;

    // Scale-up: the reference plus columns sampled from the far part
    // of the configuration space (random among the most distant
    // columns — a D-optimal-ish design that makes two samples
    // informative about the response shape).
    data.scale_up.push_back({ref_col, data.reference_value});
    {
        std::vector<std::pair<double, size_t>> far;
        far.reserve(grid.size());
        for (size_t i = 0; i < grid.size(); ++i) {
            if (i == ref_col)
                continue;
            double d =
                std::fabs(std::log(double(grid[i].cores) /
                                   double(ref.cores))) +
                std::fabs(std::log(grid[i].memory_gb / ref.memory_gb));
            far.emplace_back(d, i);
        }
        std::sort(far.rbegin(), far.rend());
        size_t pool = std::max<size_t>(1, far.size() * 3 / 10);
        auto perm = rng.permutation(pool);
        for (size_t pi : perm) {
            if (data.scale_up.size() >= k)
                break;
            size_t i = far[pi].second;
            data.scale_up.push_back(
                {i, measureNode(w, t, top, grid[i], rng)});
        }
    }

    // Scale-out: node-count grid, sampled at 1 and small counts.
    if (workload::isDistributed(w.type)) {
        auto ngrid = workload::scaleOutGrid();
        data.scale_out.push_back({0, data.reference_value}); // n = 1
        std::vector<size_t> small_cols;
        for (size_t i = 1; i < ngrid.size(); ++i)
            if (ngrid[i] <= kMaxScaleOutProbe)
                small_cols.push_back(i);
        auto perm = rng.permutation(small_cols.size());
        for (size_t pi : perm) {
            if (data.scale_out.size() >= k)
                break;
            size_t col = small_cols[pi];
            data.scale_out.push_back(
                {col, measureNodes(w, t, top, ref, ngrid[col], rng)});
        }
    }

    // Heterogeneity: the scale-up platform plus random other types,
    // all at the small canonical configuration.
    ScaleUpConfig het = hetConfig();
    data.heterogeneity.push_back(
        {scale_up_platform_, measureNode(w, t, top, het, rng)});
    {
        auto perm = rng.permutation(catalog_.size());
        for (size_t i : perm) {
            if (data.heterogeneity.size() >= k)
                break;
            if (i == scale_up_platform_)
                continue;
            data.heterogeneity.push_back(
                {i, measureNode(w, t, catalog_[i], het, rng)});
        }
    }

    // Interference: ramp microbenchmarks on randomly chosen sources;
    // the same co-run also observes the pressure the workload causes.
    {
        auto perm = rng.permutation(interference::kNumSources);
        for (size_t i : perm) {
            if (data.interference.size() >= k)
                break;
            auto src = interference::sourceAt(i);
            data.interference.push_back(
                {i, probeTolerance(w, t, top, ref, src)});
            data.caused.push_back(
                {i, measureCausedPerCore(w, t, src, rng)});
        }
    }

    size_t total_samples = data.scale_up.size() + data.scale_out.size() +
                           data.heterogeneity.size() +
                           data.interference.size();
    data.profiling_seconds = profilingSeconds(w, total_samples);
    return data;
}

std::vector<double>
Profiler::denseScaleUpRow(const Workload &w, double t,
                          stats::Rng &rng) const
{
    const sim::Platform &top = catalog_[scale_up_platform_];
    auto grid = workload::scaleUpGrid(top, w.type);
    std::vector<double> row;
    row.reserve(grid.size());
    for (const ScaleUpConfig &cfg : grid)
        row.push_back(measureNode(w, t, top, cfg, rng));
    return row;
}

std::vector<double>
Profiler::denseScaleOutRow(const Workload &w, double t,
                           const ScaleUpConfig &ref,
                           stats::Rng &rng) const
{
    const sim::Platform &top = catalog_[scale_up_platform_];
    auto ngrid = workload::scaleOutGrid();
    std::vector<double> row;
    row.reserve(ngrid.size());
    for (int n : ngrid)
        row.push_back(measureNodes(w, t, top, ref, n, rng));
    return row;
}

std::vector<double>
Profiler::denseHeterogeneityRow(const Workload &w, double t,
                                stats::Rng &rng) const
{
    ScaleUpConfig het = hetConfig();
    std::vector<double> row;
    row.reserve(catalog_.size());
    for (const sim::Platform &p : catalog_)
        row.push_back(measureNode(w, t, p, het, rng));
    return row;
}

double
Profiler::measureCausedPerCore(const Workload &w, double t,
                               interference::Source source,
                               stats::Rng &rng) const
{
    const workload::GroundTruth &truth = w.truthAt(t);
    size_t i = static_cast<size_t>(source);
    return truth.sensitivity.caused_per_core[i] *
           rng.lognormalNoise(cfg_.noise_sigma);
}

std::vector<double>
Profiler::denseCausedRow(const Workload &w, double t,
                         stats::Rng &rng) const
{
    std::vector<double> row;
    row.reserve(interference::kNumSources);
    for (size_t i = 0; i < interference::kNumSources; ++i)
        row.push_back(
            measureCausedPerCore(w, t, interference::sourceAt(i), rng));
    return row;
}

std::vector<double>
Profiler::denseInterferenceRow(const Workload &w, double t,
                               const ScaleUpConfig &ref) const
{
    const sim::Platform &top = catalog_[scale_up_platform_];
    std::vector<double> row;
    row.reserve(interference::kNumSources);
    for (size_t i = 0; i < interference::kNumSources; ++i)
        row.push_back(probeTolerance(w, t, top, ref,
                                     interference::sourceAt(i)));
    return row;
}

double
Profiler::profilingSeconds(const Workload &w, size_t num_samples) const
{
    // The four classifications profile in parallel (paper Sec. 3.4);
    // the cost is dominated by the slowest run of each type.
    double base = 0.0;
    switch (w.type) {
      case WorkloadType::Analytics:
        base = 90.0; // small subset of map tasks to ~20% completion
        break;
      case WorkloadType::LatencyService:
        base = 10.0; // 5-10 s under live traffic
        break;
      case WorkloadType::StatefulService:
        base = 210.0; // includes service warm-up (3-5 min)
        break;
      case WorkloadType::SingleNode:
        base = 15.0;
        break;
    }
    return base + 2.0 * double(num_samples);
}

} // namespace quasar::profiling
