/**
 * @file
 * One instance of a repository-benchmark workload: set up the full
 * core::QuasarManager + driver::ScenarioDriver stack, run it to the
 * horizon single-threaded (shard path off), and print every measured
 * value as one JSON object on the last line of stdout. run.py launches
 * this binary repeatedly and aggregates the instances; see README.md.
 *
 *   quasar_bench --workload churn-14k|replay-azure|crowd-1.6k --seed N
 *                [--trace] [--spans PATH]
 *
 * The manager is always wrapped in a bench-owned ClusterManager
 * decorator that counts every hook call, so the outcome split can be
 * checked against the arrivals the driver actually submitted.
 * Untraced (default): the host time of drv.run() is `wall_s`.
 * --trace: the decorator also times every hook and keeps one span per
 * call in memory (written to --spans at the end), the per-tick
 * placement-hash fold is timed as bench.check_s, and the remainder of
 * the traced wall is driver.self_s, so hooks + driver + check sum to
 * the traced wall by construction. Decisions are identical in both
 * modes; run.py checks that the placement and controller hashes agree.
 *
 * Nothing here reaches into the program: the per-layer numbers come
 * from the decorator, the bench's own set-up timers, and counters the
 * program already exposes (QuasarStats, GreedyScheduler::timing(),
 * AdmissionQueue::size(), OverloadController, EventQueue::eventsRun()).
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "churn/churn.hh"
#include "core/manager.hh"
#include "core/overload.hh"
#include "driver/scenario.hh"
#include "stats/summary.hh"
#include "trace/azure.hh"
#include "trace/mapper.hh"
#include "trace/replay.hh"
#include "tracegen/load_pattern.hh"

using namespace quasar;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** @name Workload definitions (the committed bench streams) */
/// @{

enum class Kind
{
    Churn,
    ReplayAzure,
    Crowd,
};

struct WorkloadSpec
{
    const char *name;
    Kind kind;
    /** Requested servers; the EC2-mix builder rounds down to a
     *  multiple of its 200-server mix (250 -> 200). */
    int servers;
    double horizon_s;
};

const WorkloadSpec kWorkloads[] = {
    {"churn-14k", Kind::Churn, 14000, 900.0},
    {"replay-azure", Kind::ReplayAzure, 250, 600.0},
    {"crowd-1.6k", Kind::Crowd, 1600, 900.0},
};

/** The paper's testbeds, scaled up by replicating the EC2 mix. */
sim::Cluster
clusterOfSize(int servers)
{
    auto catalog = sim::ec2Platforms();
    std::vector<int> counts = {6, 6, 8, 14, 6, 8, 16, 30,
                               8, 30, 8, 16, 30, 14};
    for (int &c : counts)
        c *= servers / 200;
    return sim::Cluster(catalog, counts);
}

/** bench/churn's Pareto churn stream. */
churn::ChurnConfig
churnStream(int servers, double horizon_s, uint64_t seed)
{
    churn::ChurnConfig cfg;
    cfg.seed = seed;
    cfg.arrivals = churn::ArrivalKind::Pareto;
    cfg.pareto_alpha = 1.6;
    cfg.arrival_rate_per_s = 0.6 * double(servers) / 1000.0;
    cfg.horizon_s = horizon_s;
    cfg.phase_change_fraction = 0.06;
    cfg.server_mttf_s = 40.0 * horizon_s * double(servers);
    cfg.server_mttr_s = horizon_s / 6.0;
    cfg.service_lifetime =
        tracegen::DurationSpec::lognormal(0.4 * horizon_s, 0.6);
    cfg.analytics_lifetime =
        tracegen::DurationSpec::pareto(0.25 * horizon_s, 1.8);
    cfg.batch_lifetime =
        tracegen::DurationSpec::exponential(0.2 * horizon_s);
    cfg.best_effort_lifetime =
        tracegen::DurationSpec::exponential(0.15 * horizon_s);
    return cfg;
}

/** bench/overload's diurnal swell with a 10x flash crowd at 450 s. */
churn::ChurnConfig
crowdStream(int servers, double horizon_s, uint64_t seed)
{
    churn::ChurnConfig cfg;
    cfg.seed = seed;
    cfg.arrivals = churn::ArrivalKind::Poisson;
    cfg.arrival_rate_per_s = 0.16 * double(servers) / 200.0;
    cfg.rate_pattern = std::make_shared<tracegen::PiecewiseLoad>(
        std::vector<std::pair<double, double>>{{0.0, 0.5},
                                               {150.0, 0.9},
                                               {300.0, 1.1},
                                               {440.0, 1.0},
                                               {450.0, 10.0},
                                               {595.0, 10.0},
                                               {600.0, 1.0},
                                               {750.0, 0.7},
                                               {900.0, 0.5}});
    cfg.horizon_s = horizon_s;
    cfg.mix = {0.30, 0.15, 0.15, 0.40};
    cfg.phase_change_fraction = 0.05;
    cfg.service_lifetime =
        tracegen::DurationSpec::lognormal(0.5 * horizon_s, 0.6);
    cfg.analytics_lifetime =
        tracegen::DurationSpec::pareto(0.25 * horizon_s, 1.8);
    cfg.batch_lifetime =
        tracegen::DurationSpec::exponential(0.2 * horizon_s);
    cfg.best_effort_lifetime =
        tracegen::DurationSpec::exponential(0.15 * horizon_s);
    return cfg;
}

/**
 * bench/overload's controllerOn() settings, with the queue-depth
 * thresholds scaled by servers / 200 like the arrival rate (they were
 * set for that bench's 200 servers). With the unscaled thresholds many
 * seeds lock the detector in Overloaded for the rest of the run,
 * because deferred arrivals keep the queue deeper than the exit band.
 */
core::OverloadConfig
controllerOn(int servers)
{
    const size_t scale = size_t(servers / 200);
    core::OverloadConfig cfg;
    cfg.enabled = true;
    cfg.util_pressured = 0.85;
    cfg.util_overloaded = 0.97;
    cfg.depth_pressured = 8 * scale;
    cfg.depth_overloaded = 24 * scale;
    cfg.min_dwell_s = 30.0;
    cfg.defer_base_s = 15.0;
    cfg.defer_max_s = 60.0;
    cfg.shed_deadline_s = 120.0;
    cfg.aging_limit_s = 240.0;
    cfg.brownout = true;
    cfg.policy = core::ScalingPolicyKind::Pi;
    cfg.scale_interval_s = 30.0;
    return cfg;
}
/// @}

/** Set-ups per instance; the reported set-up time is their median. */
constexpr int kSetupReps = 5;

/** The frozen Azure VM-table fixture (path fixed at build time). */
constexpr const char *kFixture = QUASAR_BENCH_FIXTURE;

/** @name Hook-recording decorator */
/// @{

enum Hook : uint8_t
{
    kSubmit,
    kTick,
    kCompletion,
    kFault,
    kHooks,
};

const char *const kHookNames[kHooks] = {"submit", "tick", "completion",
                                        "fault"};

/** One timed manager-hook call. */
struct Span
{
    Hook hook;
    /** Simulated workload the call concerns; -1 for tick / fault. */
    int64_t workload;
    double sim_t;
    /** Host start, seconds since the traced run began. */
    double start_s;
    double dur_s;
};

/**
 * Wraps the manager and counts every hook call. When timing is on it
 * also times each call with steady_clock and keeps one span per call.
 * The driver never nests hook calls, so the per-hook totals do not
 * overlap.
 */
class HookRecorder : public driver::ClusterManager
{
  public:
    HookRecorder(driver::ClusterManager &inner, bool timing)
        : inner_(inner), timing_(timing)
    {
        if (timing_)
            spans_.reserve(1 << 16);
    }

    /** Start of the traced run: span offsets are relative to it. */
    void begin() { origin_ = Clock::now(); }

    void onSubmit(WorkloadId id, double t) override
    {
        record(kSubmit, int64_t(id), t,
               [&] { inner_.onSubmit(id, t); });
    }
    void onTick(double t) override
    {
        record(kTick, -1, t, [&] { inner_.onTick(t); });
    }
    void onCompletion(WorkloadId id, double t) override
    {
        record(kCompletion, int64_t(id), t,
               [&] { inner_.onCompletion(id, t); });
    }
    void onServerDown(ServerId sid,
                      const std::vector<WorkloadId> &displaced,
                      double t) override
    {
        record(kFault, -1, t,
               [&] { inner_.onServerDown(sid, displaced, t); });
    }
    void onServerUp(ServerId sid, double t) override
    {
        record(kFault, -1, t, [&] { inner_.onServerUp(sid, t); });
    }
    void onServerDegraded(ServerId sid, double speed_factor,
                          double t) override
    {
        record(kFault, -1, t, [&] {
            inner_.onServerDegraded(sid, speed_factor, t);
        });
    }
    std::string name() const override { return inner_.name(); }

    /** Calls of one hook so far. */
    size_t calls(Hook hook) const { return calls_[hook]; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    template <typename F>
    void record(Hook hook, int64_t workload, double t, F &&call)
    {
        ++calls_[hook];
        if (!timing_) {
            call();
            return;
        }
        Clock::time_point start = Clock::now();
        call();
        Clock::time_point end = Clock::now();
        spans_.push_back(
            {hook, workload, t,
             std::chrono::duration<double>(start - origin_).count(),
             std::chrono::duration<double>(end - start).count()});
    }

    driver::ClusterManager &inner_;
    const bool timing_;
    size_t calls_[kHooks] = {};
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};
/// @}

/** Fold the cluster's full allocation state into a running FNV-1a
 *  (bench/churn's fold, so the default seeds reproduce its hashes). */
void
hashClusterState(const sim::Cluster &cluster, uint64_t &h)
{
    auto fold = [&h](uint64_t v) {
        h ^= v;
        h *= 0x100000001B3ULL;
    };
    for (size_t s = 0; s < cluster.size(); ++s) {
        const sim::Server &srv = cluster.server(ServerId(s));
        fold(uint64_t(s) << 32 | uint64_t(srv.available()));
        for (const sim::TaskShare &t : srv.tasks()) {
            fold(uint64_t(t.workload) | uint64_t(t.socket) << 48);
            fold(uint64_t(t.cores));
        }
    }
}

/** Host seconds of each set-up step. */
struct SetupTimes
{
    double cluster_s = 0.0;
    double seed_offline_s = 0.0;
    double stream_s = 0.0;

    double total() const { return cluster_s + seed_offline_s + stream_s; }
};

/** One fully set-up workload, ready to run to its horizon. */
struct Instance
{
    std::unique_ptr<sim::Cluster> cluster;
    workload::WorkloadRegistry registry;
    std::unique_ptr<core::QuasarManager> mgr;
    std::unique_ptr<HookRecorder> recorder;
    std::unique_ptr<driver::ScenarioDriver> drv;
    std::unique_ptr<churn::ChurnEngine> engine;
    std::unique_ptr<trace::TraceReplayer> replayer;
    const std::vector<churn::ChurnItem> *plan = nullptr;
    SetupTimes setup;
};

/**
 * Build the cluster, manager and driver (setup.cluster_s), seed the
 * classifier offline (setup.seed_offline_s), and generate + install
 * the arrival stream (setup.stream_s: the churn plan, or the trace
 * parse + map + replayer install).
 */
std::unique_ptr<Instance>
setUp(const WorkloadSpec &spec, uint64_t seed, bool traced)
{
    auto in = std::make_unique<Instance>();

    Clock::time_point t0 = Clock::now();
    in->cluster = std::make_unique<sim::Cluster>(
        clusterOfSize(spec.servers));
    core::QuasarConfig qcfg;
    qcfg.proactive_interval_s = spec.horizon_s / 3.0;
    if (spec.kind == Kind::Crowd)
        qcfg.overload = controllerOn(spec.servers);
    in->mgr = std::make_unique<core::QuasarManager>(
        *in->cluster, in->registry, qcfg);
    in->recorder = std::make_unique<HookRecorder>(*in->mgr, traced);
    in->drv = std::make_unique<driver::ScenarioDriver>(
        *in->cluster, in->registry, *in->recorder,
        driver::DriverConfig{.tick_s = 15.0, .record_every = 2});
    in->setup.cluster_s = secondsSince(t0);

    t0 = Clock::now();
    workload::WorkloadFactory seeder{stats::Rng(4242)};
    in->mgr->seedOffline(seeder, 16);
    in->setup.seed_offline_s = secondsSince(t0);

    t0 = Clock::now();
    if (spec.kind == Kind::ReplayAzure) {
        trace::TraceStream stream = trace::parseAzureVmFile(kFixture);
        trace::TraceMapperConfig mcfg;
        mcfg.target_horizon_s = spec.horizon_s;
        mcfg.target_servers = spec.servers;
        mcfg.seed = seed;
        in->replayer = std::make_unique<trace::TraceReplayer>(
            trace::mapTrace(stream, mcfg));
        in->replayer->install(*in->cluster, in->registry, *in->drv);
        in->plan = &in->replayer->plan();
    } else {
        in->engine = std::make_unique<churn::ChurnEngine>(
            spec.kind == Kind::Churn
                ? churnStream(spec.servers, spec.horizon_s, seed)
                : crowdStream(spec.servers, spec.horizon_s, seed));
        in->engine->install(*in->cluster, in->registry, *in->drv);
        in->plan = &in->engine->plan();
    }
    in->setup.stream_s = secondsSince(t0);
    return in;
}

/** Flat JSON object writer: keys in insertion order, full precision. */
class JsonLine
{
  public:
    void num(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        add(key, buf);
    }
    void count(const std::string &key, uint64_t v)
    {
        add(key, std::to_string(v));
    }
    void str(const std::string &key, const std::string &v)
    {
        add(key, "\"" + v + "\"");
    }
    void hex(const std::string &key, uint64_t v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
        str(key, buf);
    }
    void print() const { std::printf("{%s}\n", body_.c_str()); }

  private:
    void add(const std::string &key, const std::string &value)
    {
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + key + "\": " + value;
    }
    std::string body_;
};

/** p50/p99/max over the spans of one hook, in the given unit. */
void
hookStats(JsonLine &out, const std::vector<Span> &spans, Hook hook,
          bool per_call_ms)
{
    stats::Samples durs;
    double total = 0.0;
    for (const Span &s : spans)
        if (s.hook == hook) {
            durs.add(s.dur_s);
            total += s.dur_s;
        }
    const std::string key = std::string("manager.") + kHookNames[hook];
    out.count(key + ".n", durs.count());
    out.num(key + ".s", total);
    if (hook == kFault)
        return;
    if (per_call_ms) {
        out.num(key + ".p50_ms", durs.percentile(50.0) * 1e3);
        out.num(key + ".max_ms", durs.count() ? durs.max() * 1e3 : 0.0);
    } else {
        out.num(key + ".p50_us", durs.percentile(50.0) * 1e6);
        out.num(key + ".p99_us", durs.percentile(99.0) * 1e6);
    }
}

bool
writeSpans(const std::string &path, const char *workload,
           const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "bench_workload\thook\tsim_workload\tsim_t\t"
                    "start_s\tdur_s\n");
    for (const Span &s : spans)
        std::fprintf(f, "%s\t%s\t%" PRId64 "\t%.3f\t%.9f\t%.9f\n",
                     workload, kHookNames[s.hook], s.workload, s.sim_t,
                     s.start_s, s.dur_s);
    return std::fclose(f) == 0;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "quasar_bench: %s\nusage: quasar_bench --workload "
                 "churn-14k|replay-azure|crowd-1.6k --seed N [--trace] "
                 "[--spans PATH]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::string spans_path;
    uint64_t seed = 0;
    bool seed_given = false;
    bool traced = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value)
            workload_name = argv[++i];
        else if (arg == "--seed" && has_value) {
            seed = std::strtoull(argv[++i], nullptr, 10);
            seed_given = true;
        } else if (arg == "--spans" && has_value)
            spans_path = argv[++i];
        else if (arg == "--trace")
            traced = true;
        else
            return usage(("unknown argument " + arg).c_str());
    }
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : kWorkloads)
        if (workload_name == w.name)
            spec = &w;
    if (!spec)
        return usage("unknown or missing --workload");
    if (!seed_given)
        return usage("missing --seed");

    // Set-up is repeated (the first reps are torn down again) so the
    // reported set-up time is a median, not one cold sample.
    std::vector<double> setup_totals;
    std::unique_ptr<Instance> in;
    for (int r = 0; r < kSetupReps; ++r) {
        in.reset();
        in = setUp(*spec, seed, traced);
        setup_totals.push_back(in->setup.total());
    }
    if (spec->kind == Kind::ReplayAzure && in->plan->empty()) {
        std::fprintf(stderr, "quasar_bench: no arrivals mapped from %s\n",
                     kFixture);
        return 1;
    }

    core::QuasarManager &mgr = *in->mgr;
    driver::ScenarioDriver &drv = *in->drv;
    const sim::Cluster &cluster = *in->cluster;

    uint64_t placement_hash = 0xCBF29CE484222325ULL;
    double depth_sum = 0.0;
    size_t depth_max = 0;
    size_t ticks = 0;
    double check_s = 0.0;
    drv.setTickHook([&](double) {
        Clock::time_point start;
        if (traced)
            start = Clock::now();
        size_t d = mgr.admission().size();
        depth_sum += double(d);
        depth_max = std::max(depth_max, d);
        ++ticks;
        hashClusterState(cluster, placement_hash);
        if (traced)
            check_s += secondsSince(start);
    });

    if (traced)
        in->recorder->begin();
    Clock::time_point run_start = Clock::now();
    drv.run(spec->horizon_s);
    const double wall_s = secondsSince(run_start);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = double(ru.ru_maxrss) / 1024.0;

    // Simulated outcomes over the planned arrivals.
    size_t completed = 0, departed = 0, shed = 0, active = 0;
    size_t unplaced = 0;
    stats::Samples waits;
    double qos_sum = 0.0;
    size_t qos_n = 0;
    double perf_sum = 0.0;
    size_t perf_n = 0;
    for (const churn::ChurnItem &item : *in->plan) {
        const workload::Workload &w = in->registry.get(item.id);
        switch (driver::outcomeOf(w)) {
        case driver::WorkloadOutcome::Completed:
            ++completed;
            break;
        case driver::WorkloadOutcome::Departed:
            ++departed;
            break;
        case driver::WorkloadOutcome::Shed:
            ++shed;
            break;
        case driver::WorkloadOutcome::Active:
            ++active;
            break;
        }
        // first_placed_at is stamped by the driver's tick sweep; a
        // completed batch job necessarily ran.
        bool placed = w.first_placed_at >= 0.0 || w.completed;
        if (!placed)
            ++unplaced;
        if (w.first_placed_at >= 0.0)
            waits.add(w.first_placed_at - w.arrival_time);
        if (item.cls == churn::ChurnClass::Service) {
            const driver::ServiceTrace *trace = drv.serviceTrace(item.id);
            if (trace && trace->qos_fraction.size() > 0) {
                qos_sum += trace->qos_fraction.mean();
                ++qos_n;
            }
        } else if ((item.cls == churn::ChurnClass::SingleNode ||
                    item.cls == churn::ChurnClass::Analytics) &&
                   w.first_placed_at >= 0.0) {
            perf_sum += drv.meanNormalizedPerf(item.id);
            ++perf_n;
        }
    }
    const size_t arrivals = in->plan->size();
    const core::QuasarStats &st = mgr.stats();

    JsonLine out;
    out.str("workload", spec->name);
    out.count("seed", seed);
    out.str("mode", traced ? "traced" : "untraced");
    out.count("servers", cluster.size());
    out.count("arrivals", arrivals);
    out.count("completed", completed);
    out.count("departed", departed);
    out.count("shed", shed);
    out.count("active", active);
    out.count("unplaced", unplaced);
    // Counts the split above does not produce, to check it against.
    out.count("submitted", in->recorder->calls(kSubmit));
    out.count("registry_active", in->registry.active().size());
    out.count("placements_ok", st.scheduled);
    out.hex("placement_hash", placement_hash);
    out.hex("decision_hash", mgr.overload().decisionHash());

    out.num("wall_s", wall_s);
    stats::Samples setups;
    setups.addAll(setup_totals);
    out.num("setup_s", setups.percentile(50.0));
    out.num("setup.cluster_s", in->setup.cluster_s);
    out.num("setup.seed_offline_s", in->setup.seed_offline_s);
    out.num("setup.stream_s", in->setup.stream_s);
    out.num("peak_rss_mb", peak_rss_mb);

    out.num("qos_violation_rate", qos_n ? 1.0 - qos_sum / double(qos_n)
                                        : 0.0);
    out.num("cpu_utilization", drv.aggCpuUsed().mean());
    out.num("batch_norm_perf", perf_n ? perf_sum / double(perf_n) : 0.0);
    out.num("wait_p50_s", waits.percentile(50.0));
    out.num("wait_p95_s", waits.percentile(95.0));
    out.count("wait_samples", waits.count());
    out.num("unplaced_fraction",
            arrivals ? double(unplaced) / double(arrivals) : 0.0);

    // Per-layer: the program's own counters and (inclusive) timers.
    out.count("classify.n", st.classify_time.count);
    out.num("classify.s", st.classify_time.total_s);
    out.count("profile.n", st.profile_time.count);
    out.num("profile.s", st.profile_time.total_s);
    out.count("schedule.n", st.schedule_time.count);
    out.num("schedule.s", st.schedule_time.total_s);
    out.num("scheduler.rank_s", mgr.scheduler().timing().rank.total_s);
    out.num("scheduler.place_s", mgr.scheduler().timing().place.total_s);
    out.count("admission.queued", st.queued);
    out.num("admission.depth_mean", ticks ? depth_sum / double(ticks)
                                          : 0.0);
    out.count("admission.depth_max", depth_max);
    out.count("adapt.n", st.adapt_time.count);
    out.num("adapt.s", st.adapt_time.total_s);
    out.count("adapt.scale_up", st.scale_up_adjustments);
    out.count("adapt.scale_out", st.scale_out_adjustments);
    out.count("adapt.shrinks", st.shrinks);
    out.count("adapt.rescheduled", st.rescheduled);
    out.count("manager.evictions", st.evictions);
    out.count("overload.deferred", st.overload_deferred);
    out.count("overload.shed", st.shed);
    out.count("overload.brownouts", st.brownouts);
    out.count("overload.autoscale_updates", st.autoscale_updates);
    out.num("overload.frac_overloaded",
            mgr.overload().fractionIn(core::OverloadState::Overloaded));
    out.count("driver.ticks", ticks);
    out.count("driver.events", drv.events().eventsRun());

    if (traced) {
        const std::vector<Span> &spans = in->recorder->spans();
        double hooks_s = 0.0;
        for (const Span &s : spans)
            hooks_s += s.dur_s;
        hookStats(out, spans, kSubmit, false);
        hookStats(out, spans, kTick, true);
        hookStats(out, spans, kCompletion, false);
        hookStats(out, spans, kFault, false);
        out.num("bench.check_s", check_s);
        out.num("driver.self_s", wall_s - hooks_s - check_s);
        out.count("spans", spans.size());
        if (!spans_path.empty() &&
            !writeSpans(spans_path, spec->name, spans)) {
            std::fprintf(stderr, "quasar_bench: cannot write %s\n",
                         spans_path.c_str());
            return 1;
        }
    }
    out.print();
    return 0;
}
