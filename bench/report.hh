/**
 * @file
 * One harness for the in-repo stream benches and one report format for
 * every gated bench.
 *
 * Quasar's evaluation (paper Sec. 6) scores each scenario by the same
 * few outcomes: QoS met, placements made, what became of each
 * arrival. `runStream` runs a plan through the full manager + driver
 * stack and scores it that way, once, for bench/churn, bench/overload
 * and bench/trace_replay. The per-tick placement fold is the replay
 * contract all four gated benches (those three plus bench/topology)
 * commit in their BENCH_*.json. `JsonRow` / `writeReport` write those
 * files, one row per line, and `findRow` reads a row back for the
 * baseline gates. `parseBenchArgs` is the four gated benches' command
 * line.
 */

#pragma once

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "churn/churn.hh"
#include "core/manager.hh"
#include "driver/scenario.hh"
#include "stats/summary.hh"
#include "stats/timing.hh"

namespace quasar::bench
{

/** The paper's testbeds, scaled up by replicating the EC2 mix. */
inline sim::Cluster
clusterOfSize(int servers)
{
    if (servers == 40)
        return sim::Cluster::localCluster();
    if (servers == 200)
        return sim::Cluster::ec2Cluster();
    auto catalog = sim::ec2Platforms();
    std::vector<int> counts = {6, 6, 8, 14, 6, 8, 16, 30,
                               8, 30, 8, 16, 30, 14};
    for (int &c : counts)
        c *= servers / 200;
    return sim::Cluster(catalog, counts);
}

/**
 * The per-server word the placement fold takes ahead of each server's
 * shares. The committed hashes use two: churn and trace_replay fold
 * Server::available() (up or down), overload and topology fold
 * Server::coresAllocated(). Merging them into one word changes one
 * group's hashes, so it waits for the change that refreshes every
 * BENCH_*.json anyway (counting workloads active only from their
 * arrival).
 */
enum class FoldWord
{
    Available,
    CoresAllocated,
};

/** FNV-1a offset basis: the placement hash before the first tick. */
constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

/** Fold the cluster's full allocation state into a running FNV-1a. */
inline void
foldPlacements(const sim::Cluster &cluster, FoldWord word, uint64_t &h)
{
    auto fold = [&h](uint64_t v) {
        h ^= v;
        h *= 0x100000001B3ULL;
    };
    for (size_t s = 0; s < cluster.size(); ++s) {
        const sim::Server &srv = cluster.server(ServerId(s));
        uint64_t w = word == FoldWord::Available
                         ? uint64_t(srv.available())
                         : uint64_t(srv.coresAllocated());
        fold(uint64_t(s) << 32 | w);
        for (const sim::TaskShare &t : srv.tasks()) {
            // Socket folded into the high bits of the workload
            // word: ids stay far below 2^48, and socket 0 leaves the
            // pre-topology hash untouched (flat bit-identity).
            fold(uint64_t(t.workload) | uint64_t(t.socket) << 48);
            fold(uint64_t(t.cores));
        }
    }
}

/** Per-entry classification errors, one sample set per core::Axis. */
using AxisErrors = std::array<stats::Samples, core::kNumAxes>;

/**
 * Score one workload's estimate against the noise-free truth, the
 * measure of paper Table 2: per entry, |est - true| / true of the
 * scale-up performance, the scale-out speedup (distributed types only)
 * and the platform factors, and the absolute error of the tolerated
 * interference intensities (they live in [0, 1], where a relative
 * error at 0.05 would mean nothing). `truth` is a noise-free Profiler
 * over the estimating manager's catalog; `t` is when w was profiled.
 */
inline void
scoreEstimate(const core::WorkloadEstimate &est, const workload::Workload &w,
              double t, const profiling::Profiler &truth, AxisErrors &out)
{
    auto rel = [](double e, double v) {
        return std::fabs(e - v) / std::max(std::fabs(v), 1e-9);
    };
    stats::Rng z(1); // noise-free rows ignore it
    const size_t top = truth.scaleUpPlatform();

    auto su = truth.denseScaleUpRow(w, t, z);
    for (size_t c = 0; c < su.size(); ++c)
        out[size_t(core::Axis::ScaleUp)].add(rel(est.scale_up_perf[c], su[c]));

    auto ref = profiling::Profiler::referenceConfig(truth.catalog()[top],
                                                    w.type);
    if (workload::isDistributed(w.type)) {
        auto so = truth.denseScaleOutRow(w, t, ref, z);
        for (size_t c = 0; c < so.size(); ++c)
            out[size_t(core::Axis::ScaleOut)].add(
                rel(est.scale_out_speedup[c], so[c] / so[0]));
    }

    auto het = truth.denseHeterogeneityRow(w, t, z);
    for (size_t c = 0; c < het.size(); ++c)
        out[size_t(core::Axis::Heterogeneity)].add(
            rel(est.platform_factor[c], het[c] / het[top]));

    auto tol = truth.denseInterferenceRow(w, t, ref);
    for (size_t c = 0; c < tol.size(); ++c)
        out[size_t(core::Axis::Interference)].add(
            std::fabs(est.tolerated[c] - tol[c]));
}

/** core::Axis names in reports: scale-up, scale-out, heterogeneity,
 *  interference. */
constexpr const char *kAxisNames[core::kNumAxes] = {"su", "so", "het",
                                                    "if"};

/** How accurately a stream's arrivals were classified (AccuracyProbe). */
struct StreamAccuracy
{
    /** Errors of arrivals classified while the axis's history was
     *  still growing, and once it held max_history_rows. */
    AxisErrors growing;
    AxisErrors at_cap;
};

/**
 * Scores every arrival's classification as the stream runs: forwards
 * each hook to the manager and, right after a submit, scores
 * estimateFor(id) with scoreEstimate, split by
 * Classifier::historyFull. It only reads the manager and the workload,
 * so placements and decisions are the same with it on or off.
 */
class AccuracyProbe : public driver::ClusterManager
{
  public:
    AccuracyProbe(core::QuasarManager &mgr,
                  const workload::WorkloadRegistry &registry,
                  profiling::ProfilerConfig cfg)
        : mgr_(mgr), registry_(registry),
          truth_(mgr.profiler().catalog(), noiseFree(cfg))
    {
    }

    void onSubmit(WorkloadId id, double t) override
    {
        mgr_.onSubmit(id, t);
        stats::ScopedTimer timer(time_);
        const core::WorkloadEstimate *est = mgr_.estimateFor(id);
        if (!est)
            return;
        const workload::Workload &w = registry_.get(id);
        AxisErrors errs;
        scoreEstimate(*est, w, t, truth_, errs);
        for (size_t a = 0; a < core::kNumAxes; ++a) {
            bool full = mgr_.classifier().historyFull(core::Axis(a), w.type);
            (full ? acc_.at_cap : acc_.growing)[a].addAll(errs[a].values());
        }
    }
    void onTick(double t) override { mgr_.onTick(t); }
    void onCompletion(WorkloadId id, double t) override
    {
        mgr_.onCompletion(id, t);
    }
    void onServerDown(ServerId sid, const std::vector<WorkloadId> &displaced,
                      double t) override
    {
        mgr_.onServerDown(sid, displaced, t);
    }
    void onServerUp(ServerId sid, double t) override
    {
        mgr_.onServerUp(sid, t);
    }
    void onServerDegraded(ServerId sid, double speed_factor,
                          double t) override
    {
        mgr_.onServerDegraded(sid, speed_factor, t);
    }
    std::string name() const override { return mgr_.name(); }

    /** The scores so far. */
    const StreamAccuracy &accuracy() const { return acc_; }
    /** Host seconds the probe itself spent scoring. */
    double seconds() const { return time_.total_s; }

  private:
    static profiling::ProfilerConfig noiseFree(profiling::ProfilerConfig c)
    {
        c.noise_sigma = 0.0;
        return c;
    }

    core::QuasarManager &mgr_;
    const workload::WorkloadRegistry &registry_;
    profiling::Profiler truth_;
    StreamAccuracy acc_;
    stats::TimerStat time_;
};

/** What one stream run reports (see runStream). */
struct StreamReport
{
    /** @name Every planned arrival's driver::outcomeOf */
    /// @{
    size_t arrivals = 0;
    size_t completed = 0;
    size_t departed = 0;
    size_t shed = 0;
    size_t active = 0;
    /// @}
    /** Arrivals that went through a brownout (orthogonal to the split). */
    size_t degraded = 0;
    /** Mean shortfall of the in-QoS fraction over the plan's sampled
     *  latency services. */
    double qos_violation_rate = 0.0;
    double mean_admission_depth = 0.0;
    size_t max_admission_depth = 0;
    uint64_t placement_hash = kFnvBasis;
    /** Successful placements (QuasarStats::scheduled). */
    size_t placements_ok = 0;
    uint64_t schedule_calls = 0;
    /** Retries the failure memo proved futile (no scheduler call). */
    size_t retries_skipped = 0;
    /** Host wall-clock seconds of ScenarioDriver::run. */
    double wall_s = 0.0;
    /** @name Wall-clock means per call, milliseconds */
    /// @{
    double classify_ms = 0.0;
    double profile_ms = 0.0;
    double schedule_ms = 0.0;
    double adapt_ms = 0.0;
    double rank_ms = 0.0;
    double place_ms = 0.0;
    double tick_ms = 0.0;
    /// @}
    /** The greedy walk's candidate accounting. */
    core::WalkCounts walk;
    /** Failure-memo proof attempts: count and mean, milliseconds. */
    uint64_t proofs = 0;
    double proof_ms = 0.0;
    /** Classification accuracy (empty unprobed). */
    StreamAccuracy accuracy;
    /** The classifier's fit work. */
    core::FitCounters fits;

    double placementsPerSecond() const
    {
        return wall_s > 0.0 ? double(placements_ok) / wall_s : 0.0;
    }
};

/** Bench-specific scoring, called once after the run. */
using AfterRun = std::function<void(const core::QuasarManager &,
                                    const driver::ScenarioDriver &,
                                    const std::vector<churn::ChurnItem> &)>;

/** The manager configuration of a stream run over `horizon_s`. */
inline core::QuasarConfig
streamConfig(double horizon_s)
{
    core::QuasarConfig qcfg;
    qcfg.proactive_interval_s = horizon_s / 3.0;
    return qcfg;
}

/**
 * Run one plan through the full manager for `horizon_s` (15 s ticks,
 * offline-seeded classifier) and score it. `source` installs the plan:
 * a churn::ChurnEngine or trace::TraceReplayer, used once. Every tick
 * samples the admission depth and folds the placements with `word`.
 * With `probe`, an AccuracyProbe scores every arrival's classification
 * into StreamReport::accuracy; its own time is kept out of wall_s.
 */
template <typename PlanSource>
StreamReport
runStream(sim::Cluster cluster, PlanSource &source,
          const core::QuasarConfig &qcfg, double horizon_s, FoldWord word,
          const AfterRun &after = {}, bool probe = true)
{
    workload::WorkloadRegistry registry;
    core::QuasarManager mgr(cluster, registry, qcfg);
    workload::WorkloadFactory seeder{stats::Rng(4242)};
    mgr.seedOffline(seeder, 16);

    AccuracyProbe prober(mgr, registry, qcfg.profiler);
    driver::ScenarioDriver drv(
        cluster, registry,
        probe ? static_cast<driver::ClusterManager &>(prober) : mgr,
        driver::DriverConfig{.tick_s = 15.0, .record_every = 2});
    source.install(cluster, registry, drv);
    const std::vector<churn::ChurnItem> &plan = source.plan();

    StreamReport r;
    double depth_sum = 0.0;
    size_t depth_n = 0;
    drv.setTickHook([&](double) {
        size_t d = mgr.admission().size();
        depth_sum += double(d);
        ++depth_n;
        r.max_admission_depth = std::max(r.max_admission_depth, d);
        foldPlacements(cluster, word, r.placement_hash);
    });

    stats::TimerStat run_time;
    {
        stats::ScopedTimer timer(run_time);
        drv.run(horizon_s);
    }
    r.wall_s = run_time.total_s - prober.seconds();
    r.mean_admission_depth = depth_n ? depth_sum / double(depth_n) : 0.0;

    r.arrivals = plan.size();
    double qos_sum = 0.0;
    size_t qos_n = 0;
    for (const churn::ChurnItem &item : plan) {
        const workload::Workload &w = registry.get(item.id);
        switch (driver::outcomeOf(w)) {
        case driver::WorkloadOutcome::Completed:
            ++r.completed;
            break;
        case driver::WorkloadOutcome::Departed:
            ++r.departed;
            break;
        case driver::WorkloadOutcome::Shed:
            ++r.shed;
            break;
        case driver::WorkloadOutcome::Active:
            ++r.active;
            break;
        }
        if (w.brownout_ever)
            ++r.degraded;
        if (item.cls != churn::ChurnClass::Service)
            continue;
        const driver::ServiceTrace *trace = drv.serviceTrace(item.id);
        if (!trace || trace->qos_fraction.size() == 0)
            continue;
        qos_sum += trace->qos_fraction.mean();
        ++qos_n;
    }
    r.qos_violation_rate = qos_n ? 1.0 - qos_sum / double(qos_n) : 0.0;

    const core::QuasarStats &st = mgr.stats();
    r.placements_ok = st.scheduled;
    r.schedule_calls = st.schedule_time.count;
    r.retries_skipped = st.retries_skipped;
    r.classify_ms = st.classify_time.meanSeconds() * 1e3;
    r.profile_ms = st.profile_time.meanSeconds() * 1e3;
    r.schedule_ms = st.schedule_time.meanSeconds() * 1e3;
    r.adapt_ms = st.adapt_time.meanSeconds() * 1e3;
    r.rank_ms = mgr.scheduler().timing().rank.meanSeconds() * 1e3;
    r.place_ms = mgr.scheduler().timing().place.meanSeconds() * 1e3;
    r.tick_ms = drv.tickTiming().meanSeconds() * 1e3;
    r.walk = mgr.scheduler().walkCounts();
    r.proofs = st.retry_proof_time.count;
    r.proof_ms = st.retry_proof_time.meanSeconds() * 1e3;
    r.fits = mgr.classifier().fitCounters();
    if (probe)
        r.accuracy = prober.accuracy();
    if (after)
        after(mgr, drv, plan);
    return r;
}

/** Print a run's outcome, breakdown and walk lines under `label`. */
inline void
printStream(const std::string &label, const StreamReport &r)
{
    std::printf(
        "  %-20s: %zu placed (%.0f/s, %.2f s)  %llu calls, %zu "
        "skipped  depth %.1f/%zu  qos-viol %.3f  done %zu dep %zu "
        "shed %zu act %zu degr %zu  place %016llx\n",
        label.c_str(), r.placements_ok, r.placementsPerSecond(),
        r.wall_s, (unsigned long long)r.schedule_calls,
        r.retries_skipped, r.mean_admission_depth,
        r.max_admission_depth, r.qos_violation_rate, r.completed,
        r.departed, r.shed, r.active, r.degraded,
        (unsigned long long)r.placement_hash);
    std::printf(
        "        breakdown ms: classify %.3f (profile %.3f)  schedule "
        "%.4f (rank %.4f place %.4f)  adapt %.4f  tick %.3f  memo "
        "proof %.4f (%llu)\n",
        r.classify_ms, r.profile_ms, r.schedule_ms, r.rank_ms,
        r.place_ms, r.adapt_ms, r.tick_ms, r.proof_ms,
        (unsigned long long)r.proofs);
    std::printf(
        "        walk: %llu candidates -> %llu nodes (unfit %llu, "
        "intolerant %llu, knob %llu, evict %llu, cost %llu, hosted "
        "%llu), %llu skipped by bucket drops\n",
        (unsigned long long)r.walk.candidates,
        (unsigned long long)r.walk.nodes,
        (unsigned long long)r.walk[core::NodeReject::Unfit],
        (unsigned long long)r.walk[core::NodeReject::Intolerant],
        (unsigned long long)r.walk[core::NodeReject::Knob],
        (unsigned long long)r.walk[core::NodeReject::Evict],
        (unsigned long long)r.walk[core::NodeReject::Cost],
        (unsigned long long)r.walk[core::NodeReject::Hosted],
        (unsigned long long)r.walk.skipped);
    std::printf("        classify error p50/p90, growing | at cap:");
    for (size_t a = 0; a < core::kNumAxes; ++a)
        std::printf(" %s %.3f/%.3f | %.3f/%.3f", kAxisNames[a],
                    r.accuracy.growing[a].percentile(50),
                    r.accuracy.growing[a].percentile(90),
                    r.accuracy.at_cap[a].percentile(50),
                    r.accuracy.at_cap[a].percentile(90));
    std::printf("\n        fits: %llu (%llu epochs, %llu capped, %llu "
                "entry visits, %.3f s, seed %.3f s)\n",
                (unsigned long long)r.fits.fits,
                (unsigned long long)r.fits.epochs,
                (unsigned long long)r.fits.capped_fits,
                (unsigned long long)r.fits.entry_visits, r.fits.fit_s,
                r.fits.seed_s);
}

/** The arrival-accounting gate: no arrival leaks out of the outcome
 *  split. Prints the leak on failure. */
inline bool
checkAccounted(const std::string &label, const StreamReport &r)
{
    if (r.completed + r.departed + r.shed + r.active == r.arrivals)
        return true;
    std::fprintf(stderr,
                 "FAIL: %s leaks arrivals: %zu + %zu + %zu + %zu != "
                 "%zu\n",
                 label.c_str(), r.completed, r.departed, r.shed,
                 r.active, r.arrivals);
    return false;
}

/**
 * One flat JSON object, fields in insertion order. A BENCH_*.json
 * report is a header of such fields, one per line, and arrays of
 * rows, one row per line: the shape findRow reads back.
 */
class JsonRow
{
  public:
    JsonRow &str(const std::string &key, const std::string &v)
    {
        return raw(key, "\"" + v + "\"");
    }
    JsonRow &count(const std::string &key, uint64_t v)
    {
        return raw(key, std::to_string(v));
    }
    JsonRow &num(const std::string &key, double v, int digits = 4)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
        return raw(key, buf);
    }
    JsonRow &flag(const std::string &key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    JsonRow &hash(const std::string &key, uint64_t h)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)h);
        return str(key, buf);
    }

    /** `{"key": value, ...}` on one line. */
    std::string line() const
    {
        std::string out = "{";
        for (size_t i = 0; i < fields_.size(); ++i)
            out += (i ? ", \"" : "\"") + fields_[i].first +
                   "\": " + fields_[i].second;
        return out + "}";
    }

    const std::vector<std::pair<std::string, std::string>> &
    fields() const
    {
        return fields_;
    }

  private:
    JsonRow &raw(const std::string &key, const std::string &v)
    {
        fields_.emplace_back(key, v);
        return *this;
    }

    std::vector<std::pair<std::string, std::string>> fields_;
};

/** Append a StreamReport's columns to a row. */
inline JsonRow &
streamColumns(JsonRow &row, const StreamReport &r)
{
    row.count("arrivals", r.arrivals)
        .count("completed", r.completed)
        .count("departed", r.departed)
        .count("shed", r.shed)
        .count("active", r.active)
        .count("degraded", r.degraded)
        .count("placements_ok", r.placements_ok)
        .num("placements_per_s", r.placementsPerSecond(), 1)
        .num("wall_s", r.wall_s, 3)
        .count("schedule_calls", r.schedule_calls)
        .count("retries_skipped", r.retries_skipped)
        .num("mean_admission_depth", r.mean_admission_depth, 2)
        .count("max_admission_depth", r.max_admission_depth)
        .num("qos_violation_rate", r.qos_violation_rate)
        .hash("placement_hash", r.placement_hash)
        .num("classify_ms", r.classify_ms)
        .num("profile_ms", r.profile_ms)
        .num("schedule_ms", r.schedule_ms, 5)
        .num("adapt_ms", r.adapt_ms, 5)
        .num("rank_ms", r.rank_ms, 5)
        .num("place_ms", r.place_ms, 5)
        .num("tick_ms", r.tick_ms)
        .count("fits", r.fits.fits)
        .count("fit_epochs", r.fits.epochs)
        .count("capped_fits", r.fits.capped_fits)
        .count("entry_visits", r.fits.entry_visits)
        .num("fit_s", r.fits.fit_s, 3)
        .num("seed_s", r.fits.seed_s, 3);
    for (size_t a = 0; a < core::kNumAxes; ++a) {
        const std::string name = std::string("err_") + kAxisNames[a];
        row.num(name + "_grow_p50", r.accuracy.growing[a].percentile(50))
            .num(name + "_grow_p90", r.accuracy.growing[a].percentile(90))
            .num(name + "_cap_p50", r.accuracy.at_cap[a].percentile(50))
            .num(name + "_cap_p90", r.accuracy.at_cap[a].percentile(90));
    }
    return row;
}

/** A named array of rows in a report. */
struct JsonArray
{
    std::string key;
    std::vector<JsonRow> rows;
};

/** Write a report: `header`'s fields one per line, then each array
 *  with one row per line. False, with the reason on stderr, when the
 *  file cannot be written. */
inline bool
writeReport(const std::string &path, const JsonRow &header,
            const std::vector<JsonArray> &arrays)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    out << "{\n";
    for (const auto &[key, value] : header.fields())
        out << "  \"" << key << "\": " << value << ",\n";
    for (size_t a = 0; a < arrays.size(); ++a) {
        out << "  \"" << arrays[a].key << "\": [\n";
        const std::vector<JsonRow> &rows = arrays[a].rows;
        for (size_t i = 0; i < rows.size(); ++i)
            out << "    " << rows[i].line()
                << (i + 1 < rows.size() ? ",\n" : "\n");
        out << (a + 1 < arrays.size() ? "  ],\n" : "  ]\n");
    }
    out << "}\n";
    std::printf("wrote %s\n", path.c_str());
    return bool(out);
}

/** A row read back: key -> value text, strings without their quotes. */
using Row = std::map<std::string, std::string>;

/** Parse one line written by JsonRow::line(); empty for any other
 *  line of a report (the header fields, brackets). */
inline Row
parseRow(const std::string &line)
{
    Row row;
    size_t i = line.find_first_not_of(" \t");
    if (i == std::string::npos || line[i] != '{' ||
        line.find('}', i) == std::string::npos)
        return row;
    ++i;
    while (i < line.size()) {
        size_t k0 = line.find('"', i);
        if (k0 == std::string::npos)
            break;
        size_t k1 = line.find('"', k0 + 1);
        size_t colon = line.find(':', k1);
        if (k1 == std::string::npos || colon == std::string::npos)
            return {};
        size_t v0 = line.find_first_not_of(' ', colon + 1);
        if (v0 == std::string::npos)
            return {};
        size_t v1;
        std::string value;
        if (line[v0] == '"') {
            v1 = line.find('"', v0 + 1);
            if (v1 == std::string::npos)
                return {};
            value = line.substr(v0 + 1, v1 - v0 - 1);
            ++v1;
        } else {
            v1 = line.find_first_of(",}", v0);
            if (v1 == std::string::npos)
                return {};
            value = line.substr(v0, v1 - v0);
        }
        row[line.substr(k0 + 1, k1 - k0 - 1)] = value;
        i = line.find_first_of(",}", v1);
        if (i == std::string::npos || line[i] == '}')
            break;
        ++i;
    }
    return row;
}

/**
 * The first row of report `path` whose fields equal every pair of
 * `match`; values compare whole, so "dirty" never matches
 * "dirty-rerun". nullopt, with the reason on stderr, when the file
 * cannot be read or no row matches: a gate given a baseline fails
 * rather than skip.
 */
inline std::optional<Row>
findRow(const std::string &path, const Row &match)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "FAIL: cannot read baseline %s\n",
                     path.c_str());
        return std::nullopt;
    }
    std::string line;
    while (std::getline(in, line)) {
        Row row = parseRow(line);
        bool hit = !row.empty();
        for (const auto &[key, value] : match) {
            auto it = row.find(key);
            hit = hit && it != row.end() && it->second == value;
        }
        if (hit)
            return row;
    }
    std::string want;
    for (const auto &[key, value] : match)
        want += " " + key + "=" + value;
    std::fprintf(stderr, "FAIL: baseline %s has no row with%s\n",
                 path.c_str(), want.c_str());
    return std::nullopt;
}

/** Field `key` of `row` as a number; nullopt, with the reason on
 *  stderr, when it is missing or does not parse whole. */
inline std::optional<double>
numberField(const Row &row, const std::string &key)
{
    auto it = row.find(key);
    if (it != row.end() && !it->second.empty()) {
        char *end = nullptr;
        errno = 0;
        double v = std::strtod(it->second.c_str(), &end);
        if (errno == 0 && *end == '\0')
            return v;
    }
    std::fprintf(stderr, "FAIL: baseline row has no number \"%s\"\n",
                 key.c_str());
    return std::nullopt;
}

/** Field `key` of `row` as a hex hash; nullopt, with the reason on
 *  stderr, when it is missing or does not parse whole. */
inline std::optional<uint64_t>
hashField(const Row &row, const std::string &key)
{
    auto it = row.find(key);
    if (it != row.end() && !it->second.empty()) {
        char *end = nullptr;
        errno = 0;
        unsigned long long v =
            std::strtoull(it->second.c_str(), &end, 16);
        if (errno == 0 && *end == '\0')
            return uint64_t(v);
    }
    std::fprintf(stderr, "FAIL: baseline row has no hash \"%s\"\n",
                 key.c_str());
    return std::nullopt;
}

/** One flag a gated bench accepts. */
struct BenchFlag
{
    /** "--name" for a switch, "--name=ARG" for an option. */
    std::string spelling;
    /** One line for the usage text. */
    std::string help;
    /** A switch sets *on to true ... */
    bool *on = nullptr;
    /** ... an option sets *value to the text after its '='. */
    std::string *value = nullptr;
};

/**
 * Parse a bench's command line against the flags it accepts.
 * `--help` prints the usage to stdout; any other argument that is not
 * one of `flags` prints it to stderr, after the argument. Either way
 * the bench must stop before it runs a leg or writes a file.
 * @return nullopt to run; else the exit code (0 after --help, 2 for
 *         an unknown argument).
 */
inline std::optional<int>
parseBenchArgs(int argc, char **argv,
               std::initializer_list<BenchFlag> flags)
{
    auto usage = [&](std::FILE *to) {
        std::fprintf(to, "usage: %s", argv[0]);
        for (const BenchFlag &f : flags)
            std::fprintf(to, " [%s]", f.spelling.c_str());
        std::fprintf(to, "\n");
        for (const BenchFlag &f : flags)
            std::fprintf(to, "  %-18s %s\n", f.spelling.c_str(),
                         f.help.c_str());
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help") {
            usage(stdout);
            return 0;
        }
        auto known = std::find_if(
            flags.begin(), flags.end(), [&](const BenchFlag &f) {
                if (f.on)
                    return arg == f.spelling;
                size_t eq = f.spelling.find('=');
                return arg.compare(0, eq + 1, f.spelling, 0, eq + 1) == 0;
            });
        if (known == flags.end()) {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            usage(stderr);
            return 2;
        }
        if (known->on)
            *known->on = true;
        else
            *known->value = arg.substr(known->spelling.find('=') + 1);
    }
    return std::nullopt;
}

} // namespace quasar::bench
