#include "core/classifier.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>

namespace quasar::core
{

using interference::kNumSources;
using profiling::ProfilingData;
using workload::ScaleUpConfig;
using workload::Workload;
using workload::WorkloadType;

namespace
{

/** Index of cfg in grid; grids are built deterministically. */
size_t
gridIndexOf(const std::vector<ScaleUpConfig> &grid,
            const ScaleUpConfig &cfg)
{
    for (size_t i = 0; i < grid.size(); ++i)
        if (grid[i] == cfg)
            return i;
    // Fall back to the nearest column by cores and memory.
    size_t best = 0;
    double best_score = 1e18;
    for (size_t i = 0; i < grid.size(); ++i) {
        double score =
            std::fabs(std::log(double(grid[i].cores) /
                               double(cfg.cores))) +
            std::fabs(std::log(grid[i].memory_gb / cfg.memory_gb));
        if (score < best_score) {
            best_score = score;
            best = i;
        }
    }
    return best;
}

double
clampNonNeg(double x)
{
    return std::max(0.0, x);
}

/**
 * Performance rows are completed in log space: workload behaviour is
 * multiplicative (speedups, platform factors), so logs make the
 * low-rank structure additive and keep SGD well conditioned across
 * rows whose values span orders of magnitude.
 */
double
toLog(double v)
{
    return std::log(std::max(v, 1e-4));
}

double
fromLog(double x)
{
    return std::exp(std::clamp(x, -12.0, 12.0));
}

} // namespace

void
Classifier::History::addOnline(SparseRow row, size_t max_rows)
{
    online.push_back(std::move(row));
    ++online_added;
    if (online.size() > max_rows)
        online.erase(online.begin(),
                     online.begin() + (online.size() - max_rows));
}

linalg::MaskedMatrix
Classifier::History::build() const
{
    linalg::MaskedMatrix m(seeds.size() + online.size(), cols);
    size_t r = 0;
    for (const SparseRow &row : seeds) {
        for (const auto &[c, v] : row.entries)
            m.set(r, c, v);
        ++r;
    }
    for (const SparseRow &row : online) {
        for (const auto &[c, v] : row.entries)
            m.set(r, c, v);
        ++r;
    }
    return m;
}

Classifier::Classifier(const profiling::Profiler &profiler,
                       ClassifierConfig cfg, uint64_t seed)
    : profiler_(profiler), cfg_(cfg), rng_(seed)
{
    const auto &catalog = profiler_.catalog();
    const sim::Platform &top = catalog[profiler_.scaleUpPlatform()];
    grid_analytics_ = workload::scaleUpGrid(top, WorkloadType::Analytics);
    grid_generic_ = workload::scaleUpGrid(top, WorkloadType::SingleNode);
    node_grid_ = workload::scaleOutGrid();

    scale_up_analytics_.cols = grid_analytics_.size();
    scale_up_latency_.cols = grid_generic_.size();
    scale_up_stateful_.cols = grid_generic_.size();
    scale_up_generic_.cols = grid_generic_.size();
    for (History &h : scale_out_)
        h.cols = node_grid_.size();
    heterogeneity_.cols = catalog.size();
    for (History &h : interference_)
        h.cols = 2 * kNumSources;
    exhaustive_analytics_.cols =
        exhaustiveCols(WorkloadType::Analytics);
    exhaustive_generic_.cols = exhaustiveCols(WorkloadType::SingleNode);
}

Classifier::History &
Classifier::scaleUpHistory(WorkloadType t)
{
    switch (t) {
      case WorkloadType::Analytics:
        return scale_up_analytics_;
      case WorkloadType::LatencyService:
        return scale_up_latency_;
      case WorkloadType::StatefulService:
        return scale_up_stateful_;
      default:
        return scale_up_generic_;
    }
}

const Classifier::History &
Classifier::scaleUpHistory(WorkloadType t) const
{
    return const_cast<Classifier *>(this)->scaleUpHistory(t);
}

Classifier::History &
Classifier::exhaustiveHistory(WorkloadType t)
{
    return t == WorkloadType::Analytics ? exhaustive_analytics_
                                        : exhaustive_generic_;
}

size_t
Classifier::exhaustiveCols(WorkloadType t) const
{
    size_t grid = (t == WorkloadType::Analytics ? grid_analytics_.size()
                                                : grid_generic_.size());
    return profiler_.catalog().size() * grid + node_grid_.size() +
           2 * kNumSources;
}

std::vector<double>
Classifier::completeRow(History &h, const SparseRow &observed)
{
    const size_t rows_seen = h.seeds.size() + h.online_added;
    bool stale = !h.has_model || rows_seen >= 2 * h.fitted_seen + 8;
    if (stale) {
        auto start = std::chrono::steady_clock::now();
        const linalg::MaskedMatrix m = h.build();
        h.model = linalg::PqModel(cfg_.pq);
        h.model.fit(m);
        h.fitted_seen = rows_seen;
        h.has_model = true;
        const size_t epochs = h.model.epochsRun();
        ++fit_counters_.fits;
        fit_counters_.epochs += epochs;
        fit_counters_.capped_fits += epochs == cfg_.pq.max_epochs;
        fit_counters_.entry_visits += epochs * m.numObserved();
        fit_counters_.fit_s += std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
    }
    return h.model.foldInRow(observed.entries);
}

void
Classifier::seedOffline(const std::vector<Workload> &seeds, double t)
{
    const auto &catalog = profiler_.catalog();
    const sim::Platform &top = catalog[profiler_.scaleUpPlatform()];

    for (const Workload &w : seeds) {
        const auto &grid = (w.type == WorkloadType::Analytics)
                               ? grid_analytics_
                               : grid_generic_;
        ScaleUpConfig ref =
            profiling::Profiler::referenceConfig(top, w.type);
        size_t ref_col = gridIndexOf(grid, ref);

        // Scale-up dense row, normalized by the reference column.
        std::vector<double> su = profiler_.denseScaleUpRow(w, t, rng_);
        double norm = su[ref_col] > 0.0 ? su[ref_col] : 1.0;
        SparseRow su_row;
        for (size_t c = 0; c < su.size(); ++c)
            su_row.entries.emplace_back(c, toLog(su[c] / norm));
        scaleUpHistory(w.type).seeds.push_back(su_row);

        // Scale-out dense row, normalized by the n = 1 column.
        SparseRow so_row;
        std::vector<double> so;
        if (workload::isDistributed(w.type)) {
            so = profiler_.denseScaleOutRow(w, t, ref, rng_);
            double n1 = so[0] > 0.0 ? so[0] : 1.0;
            for (size_t c = 0; c < so.size(); ++c)
                so_row.entries.emplace_back(c, toLog(so[c] / n1));
            scale_out_[size_t(w.type)].seeds.push_back(so_row);
        }

        // Heterogeneity dense row, normalized by the profiling
        // platform column.
        std::vector<double> het =
            profiler_.denseHeterogeneityRow(w, t, rng_);
        double hnorm = het[profiler_.scaleUpPlatform()] > 0.0
                           ? het[profiler_.scaleUpPlatform()]
                           : 1.0;
        SparseRow het_row;
        for (size_t c = 0; c < het.size(); ++c)
            het_row.entries.emplace_back(c, toLog(het[c] / hnorm));
        heterogeneity_.seeds.push_back(het_row);

        // Interference: tolerated then caused, raw values.
        std::vector<double> tol = profiler_.denseInterferenceRow(w, t,
                                                                 ref);
        std::vector<double> caused = profiler_.denseCausedRow(w, t,
                                                              rng_);
        SparseRow if_row;
        for (size_t c = 0; c < tol.size(); ++c)
            if_row.entries.emplace_back(c, tol[c]);
        for (size_t c = 0; c < caused.size(); ++c)
            if_row.entries.emplace_back(kNumSources + c, caused[c]);
        interference_[size_t(w.type)].seeds.push_back(if_row);

        if (cfg_.exhaustive) {
            // Dense cross row: every platform x scale-up column.
            SparseRow ex;
            size_t g = grid.size();
            for (size_t p = 0; p < catalog.size(); ++p) {
                for (size_t c = 0; c < g; ++c) {
                    double v = profiler_.measureNode(w, t, catalog[p],
                                                     grid[c], rng_);
                    ex.entries.emplace_back(p * g + c,
                                            toLog(v / norm));
                }
            }
            size_t off = catalog.size() * g;
            if (!so.empty()) {
                double n1 = so[0] > 0.0 ? so[0] : 1.0;
                for (size_t c = 0; c < so.size(); ++c)
                    ex.entries.emplace_back(off + c,
                                            toLog(so[c] / n1));
            }
            off += node_grid_.size();
            for (size_t c = 0; c < tol.size(); ++c)
                ex.entries.emplace_back(off + c, tol[c]);
            for (size_t c = 0; c < caused.size(); ++c)
                ex.entries.emplace_back(off + kNumSources + c,
                                        caused[c]);
            exhaustiveHistory(w.type).seeds.push_back(std::move(ex));
        }
    }
}

WorkloadEstimate
Classifier::classify(const Workload &w, const ProfilingData &data)
{
    auto start = std::chrono::steady_clock::now();
    WorkloadEstimate est = cfg_.exhaustive
                               ? classifyExhaustive(w, data)
                               : classifyParallel(w, data);
    auto end = std::chrono::steady_clock::now();
    est.classification_seconds =
        std::chrono::duration<double>(end - start).count();
    est.profiling_seconds = data.profiling_seconds;
    return est;
}

WorkloadEstimate
Classifier::classifyParallel(const Workload &w, const ProfilingData &d)
{
    WorkloadEstimate est;
    est.type = w.type;
    const auto &grid = (w.type == WorkloadType::Analytics)
                           ? grid_analytics_
                           : grid_generic_;
    est.scale_up_grid = grid;
    est.scale_out_grid = node_grid_;
    est.profiling_platform = d.scale_up_platform;
    est.reference = d.reference;
    est.reference_value = d.reference_value;

    const double ref = d.reference_value > 0.0 ? d.reference_value : 1.0;

    // --- Scale-up ---
    {
        SparseRow obs;
        for (const auto &s : d.scale_up)
            obs.entries.emplace_back(s.column, toLog(s.value / ref));
        History &h = scaleUpHistory(w.type);
        std::vector<double> row = completeRow(h, obs);
        est.scale_up_perf.resize(row.size());
        for (size_t c = 0; c < row.size(); ++c)
            est.scale_up_perf[c] = fromLog(row[c]) * ref;
        h.addOnline(std::move(obs), cfg_.max_history_rows);
    }

    // --- Scale-out ---
    if (workload::isDistributed(w.type) && !d.scale_out.empty()) {
        double n1 = d.scale_out.front().value;
        if (n1 <= 0.0)
            n1 = ref;
        SparseRow obs;
        for (const auto &s : d.scale_out)
            obs.entries.emplace_back(s.column, toLog(s.value / n1));
        History &h = scale_out_[size_t(w.type)];
        std::vector<double> row = completeRow(h, obs);
        est.scale_out_speedup.resize(row.size());
        for (size_t c = 0; c < row.size(); ++c)
            est.scale_out_speedup[c] = fromLog(row[c]);
        est.scale_out_speedup[0] = 1.0;
        h.addOnline(std::move(obs), cfg_.max_history_rows);
    } else {
        est.scale_out_speedup.assign(node_grid_.size(), 0.0);
        est.scale_out_speedup[0] = 1.0;
    }

    // --- Heterogeneity ---
    {
        double hnorm = d.heterogeneity.empty()
                           ? 1.0
                           : d.heterogeneity.front().value;
        if (hnorm <= 0.0)
            hnorm = 1.0;
        SparseRow obs;
        for (const auto &s : d.heterogeneity)
            obs.entries.emplace_back(s.column, toLog(s.value / hnorm));
        std::vector<double> row = completeRow(heterogeneity_, obs);
        est.platform_factor.resize(row.size());
        for (size_t c = 0; c < row.size(); ++c)
            est.platform_factor[c] = fromLog(row[c]);
        est.platform_factor[d.scale_up_platform] = 1.0;
        heterogeneity_.addOnline(std::move(obs), cfg_.max_history_rows);
    }

    // --- Interference (tolerated + caused) ---
    {
        SparseRow obs;
        for (const auto &s : d.interference)
            obs.entries.emplace_back(s.column, s.value);
        for (const auto &s : d.caused)
            obs.entries.emplace_back(kNumSources + s.column, s.value);
        History &h = interference_[size_t(w.type)];
        std::vector<double> row = completeRow(h, obs);
        for (size_t i = 0; i < kNumSources; ++i) {
            est.tolerated[i] = std::clamp(row[i], 0.0, 1.0);
            est.caused_per_core[i] =
                std::clamp(row[kNumSources + i], 0.0, 0.5);
        }
        h.addOnline(std::move(obs), cfg_.max_history_rows);
    }

    return est;
}

WorkloadEstimate
Classifier::classifyExhaustive(const Workload &w, const ProfilingData &d)
{
    WorkloadEstimate est;
    est.type = w.type;
    const auto &catalog = profiler_.catalog();
    const auto &grid = (w.type == WorkloadType::Analytics)
                           ? grid_analytics_
                           : grid_generic_;
    const size_t g = grid.size();
    const size_t p_count = catalog.size();
    est.scale_up_grid = grid;
    est.scale_out_grid = node_grid_;
    est.profiling_platform = d.scale_up_platform;
    est.reference = d.reference;
    est.reference_value = d.reference_value;

    const double ref = d.reference_value > 0.0 ? d.reference_value : 1.0;

    SparseRow obs;
    for (const auto &s : d.scale_up)
        obs.entries.emplace_back(d.scale_up_platform * g + s.column,
                                 toLog(s.value / ref));
    // Heterogeneity samples land on the nearest grid column to the
    // small canonical config on their platform (an approximation the
    // exhaustive design forces; cf. paper Sec. 3.2 discussion).
    double hnorm = d.heterogeneity.empty() ? ref
                                           : d.heterogeneity.front().value;
    if (hnorm <= 0.0)
        hnorm = ref;
    size_t het_col =
        gridIndexOf(grid, profiling::Profiler::hetConfig());
    double ref_at_het = d.heterogeneity.empty()
                            ? 1.0
                            : d.heterogeneity.front().value / ref;
    for (size_t i = 1; i < d.heterogeneity.size(); ++i) {
        const auto &s = d.heterogeneity[i];
        // Scale so the value is comparable to the (platform, column)
        // cell: ratio to profiling platform times its cell value.
        double cell = (s.value / hnorm) * ref_at_het;
        obs.entries.emplace_back(s.column * g + het_col, toLog(cell));
    }
    size_t off = p_count * g;
    if (!d.scale_out.empty()) {
        double n1 = d.scale_out.front().value;
        if (n1 <= 0.0)
            n1 = ref;
        for (const auto &s : d.scale_out)
            obs.entries.emplace_back(off + s.column,
                                     toLog(s.value / n1));
    }
    off += node_grid_.size();
    for (const auto &s : d.interference)
        obs.entries.emplace_back(off + s.column, s.value);
    for (const auto &s : d.caused)
        obs.entries.emplace_back(off + kNumSources + s.column, s.value);

    History &h = exhaustiveHistory(w.type);
    std::vector<double> row = completeRow(h, obs);

    est.scale_up_perf.resize(g);
    for (size_t c = 0; c < g; ++c)
        est.scale_up_perf[c] =
            fromLog(row[d.scale_up_platform * g + c]) * ref;
    est.cross_perf.resize(p_count * g);
    for (size_t p = 0; p < p_count; ++p)
        for (size_t c = 0; c < g; ++c)
            est.cross_perf[p * g + c] = fromLog(row[p * g + c]) * ref;
    // Derive platform factors as the median per-column ratio (used by
    // server ranking even in exhaustive mode).
    est.platform_factor.assign(p_count, 1.0);
    for (size_t p = 0; p < p_count; ++p) {
        std::vector<double> ratios;
        for (size_t c = 0; c < g; ++c) {
            double base = fromLog(row[d.scale_up_platform * g + c]);
            if (base > 1e-9)
                ratios.push_back(fromLog(row[p * g + c]) / base);
        }
        if (!ratios.empty()) {
            std::nth_element(ratios.begin(),
                             ratios.begin() + ratios.size() / 2,
                             ratios.end());
            est.platform_factor[p] = ratios[ratios.size() / 2];
        }
    }
    est.platform_factor[d.scale_up_platform] = 1.0;

    size_t so_off = p_count * g;
    est.scale_out_speedup.resize(node_grid_.size());
    for (size_t c = 0; c < node_grid_.size(); ++c)
        est.scale_out_speedup[c] = fromLog(row[so_off + c]);
    est.scale_out_speedup[0] = 1.0;

    size_t if_off = so_off + node_grid_.size();
    for (size_t i = 0; i < kNumSources; ++i) {
        est.tolerated[i] = std::clamp(row[if_off + i], 0.0, 1.0);
        est.caused_per_core[i] =
            std::clamp(row[if_off + kNumSources + i], 0.0, 0.5);
    }

    h.addOnline(std::move(obs), cfg_.max_history_rows);
    return est;
}

void
Classifier::feedbackScaleUp(WorkloadEstimate &est, size_t column,
                            double observed_perf)
{
    assert(column < est.scale_up_perf.size());
    est.scale_up_perf[column] = clampNonNeg(observed_perf);
    double ref = est.reference_value > 0.0 ? est.reference_value : 1.0;
    SparseRow row;
    row.entries.emplace_back(column, toLog(observed_perf / ref));
    // The corrected observation joins the history so future
    // classifications see it (the paper's feedback loop).
    scaleUpHistory(est.type).addOnline(std::move(row),
                                       cfg_.max_history_rows);
}

bool
Classifier::historyFull(Axis axis, WorkloadType t) const
{
    const History *h = &heterogeneity_;
    if (cfg_.exhaustive)
        h = t == WorkloadType::Analytics ? &exhaustive_analytics_
                                         : &exhaustive_generic_;
    else if (axis == Axis::ScaleUp)
        h = &scaleUpHistory(t);
    else if (axis == Axis::ScaleOut)
        h = &scale_out_[size_t(t)];
    else if (axis == Axis::Interference)
        h = &interference_[size_t(t)];
    return h->online.size() >= cfg_.max_history_rows;
}

size_t
Classifier::onlineRows() const
{
    size_t n = scale_up_analytics_.online.size() +
               scale_up_latency_.online.size() +
               scale_up_stateful_.online.size() +
               scale_up_generic_.online.size() +
               heterogeneity_.online.size();
    for (const History &h : scale_out_)
        n += h.online.size();
    for (const History &h : interference_)
        n += h.online.size();
    return n;
}

size_t
Classifier::seedRows() const
{
    size_t n = scale_up_analytics_.seeds.size() +
               scale_up_latency_.seeds.size() +
               scale_up_stateful_.seeds.size() +
               scale_up_generic_.seeds.size() +
               heterogeneity_.seeds.size();
    for (const History &h : scale_out_)
        n += h.seeds.size();
    for (const History &h : interference_)
        n += h.seeds.size();
    return n;
}

} // namespace quasar::core
