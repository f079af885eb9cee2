/**
 * @file
 * Overload-control bench: open-loop diurnal + flash-crowd traffic
 * through the full manager, controller off vs on, reporting the QoS
 * cost of overload and what shedding / backpressure / brownout / the
 * PI service autoscaler buy back.
 *
 * Traffic: ChurnEngine stream shaped by a PiecewiseLoad rate pattern
 * — a diurnal swell (0.5x -> 1.1x of the configured rate) with a
 * flash crowd at t in [450, 600) that multiplies the arrival rate by
 * 10. The mix is best-effort heavy (the Alibaba co-location shape) so
 * the controller has sheddable work to sacrifice for the latency
 * services.
 *
 * Per leg the bench reports bench::runStream's report (the four-way
 * outcome split completed / departed / shed / active plus
 * degraded-ever, the latency services' QoS-violation rate, placements
 * per wall second, the placement hash) and its own scores: shed
 * fraction, goodput, the crowd-window QoS-violation rate,
 * time-in-state of the detector, controller counters, and the
 * controller's decision hash.
 *
 * Gates (exit 1):
 *  - replay: the controller-on leg re-replayed must reproduce both
 *    hashes bit-identically;
 *  - accounting: completed + departed + shed + active == arrivals in
 *    every leg (no arrival leaks out of the outcome split);
 *  - QoS: controller-on must violate strictly less than
 *    controller-off over the crowd-and-recovery window [450, 750),
 *    and (with --baseline) must stay within kMaxQosRegression
 *    (absolute) of the committed BENCH_overload.json's on-dirty
 *    crowd-window violation rate. A missing or unreadable baseline
 *    row fails the gate.
 *
 * `--smoke` is the CI variant: the 200-server legs only. The full
 * run adds 500-server off/on legs and google-trace-fitted synth
 * legs (trace::fitChurnConfig) with the same flash-crowd overlay.
 * (500, not 1000: the controller-off leg at 1000 servers spends
 * tens of minutes draining a many-hundred-deep admission queue
 * against a saturated cluster — all cost, no extra signal.)
 * The full run reads the google fixture from the source tree's
 * tests/traces (`--traces=DIR` overrides) and, without it, fails
 * before running any leg.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "bench/report.hh"
#include "bench/streams.hh"
#include "core/overload.hh"
#include "trace/google.hh"
#include "trace/mapper.hh"
#include "trace/synth.hh"

using namespace quasar;

namespace
{

/** The on-dirty leg's crowd-window violation rate may rise at most
 *  this much (absolute) above its committed row. */
constexpr double kMaxQosRegression = 0.05;

/** The flash crowd hits at 450 s; QoS is also scored over the crowd
 *  plus its recovery tail, where overload control earns its keep. */
constexpr double kCrowdStart = 450.0;
constexpr double kCrowdWindowEnd = 750.0;

/** A leg's stream report plus the overload-specific scores. */
struct LegMetrics
{
    bench::StreamReport stream;
    /** QoS-violation rate over [kCrowdStart, kCrowdWindowEnd) only. */
    double qos_violation_crowd = 0.0;
    double frac_pressured = 0.0;
    double frac_overloaded = 0.0;
    size_t deferred = 0;
    size_t brownouts = 0;
    size_t restores = 0;
    size_t autoscale_updates = 0;
    size_t transitions = 0;
    uint64_t decision_hash = 0;

    double shedFraction() const
    {
        return stream.arrivals
                   ? double(stream.shed) / double(stream.arrivals)
                   : 0.0;
    }
    double goodputFraction() const
    {
        return stream.arrivals ? double(stream.completed +
                                        stream.departed) /
                                     double(stream.arrivals)
                               : 0.0;
    }
};

LegMetrics
runLeg(int servers, double horizon_s, const churn::ChurnConfig &ccfg,
       bool controller)
{
    core::QuasarConfig qcfg = bench::streamConfig(horizon_s);
    if (controller)
        qcfg.overload = bench::crowdController();
    churn::ChurnEngine engine(ccfg);
    LegMetrics m;
    auto score = [&m](const core::QuasarManager &mgr,
                      const driver::ScenarioDriver &drv,
                      const std::vector<churn::ChurnItem> &plan) {
        double crowd_sum = 0.0;
        size_t crowd_n = 0;
        for (const churn::ChurnItem &item : plan) {
            if (item.cls != churn::ChurnClass::Service)
                continue;
            const driver::ServiceTrace *trace = drv.serviceTrace(item.id);
            if (!trace)
                continue;
            // Crowd-window score only for services that were actually
            // sampled inside the window (meanOver returns 0 when none
            // were, which would misread absence as total violation).
            const stats::TimeSeries &qf = trace->qos_fraction;
            bool in_window = false;
            for (size_t i = 0; i < qf.size() && !in_window; ++i)
                in_window = qf.timeAt(i) >= kCrowdStart &&
                            qf.timeAt(i) < kCrowdWindowEnd;
            if (in_window) {
                crowd_sum += qf.meanOver(kCrowdStart, kCrowdWindowEnd);
                ++crowd_n;
            }
        }
        m.qos_violation_crowd =
            crowd_n ? 1.0 - crowd_sum / double(crowd_n) : 0.0;
        const core::QuasarStats &st = mgr.stats();
        const core::OverloadController &ctl = mgr.overload();
        m.frac_pressured = ctl.fractionIn(core::OverloadState::Pressured);
        m.frac_overloaded =
            ctl.fractionIn(core::OverloadState::Overloaded);
        m.deferred = st.overload_deferred;
        m.brownouts = st.brownouts;
        m.restores = st.brownout_restores;
        m.autoscale_updates = st.autoscale_updates;
        m.transitions = st.overload_transitions;
        m.decision_hash = ctl.decisionHash();
    };
    m.stream = bench::runStream(bench::clusterOfSize(servers), engine,
                                qcfg, horizon_s,
                                bench::FoldWord::CoresAllocated, score);
    return m;
}

void
printLeg(const char *name, const LegMetrics &m)
{
    bench::printStream(name, m.stream);
    std::printf(
        "        controller: crowd qos-viol %.3f  shed %.3f  goodput "
        "%.3f  t-press %.2f t-over %.2f  defer %zu brownout %zu/%zu "
        "autoscale %zu transitions %zu  decide %016llx\n",
        m.qos_violation_crowd, m.shedFraction(), m.goodputFraction(),
        m.frac_pressured, m.frac_overloaded, m.deferred, m.brownouts,
        m.restores, m.autoscale_updates, m.transitions,
        (unsigned long long)m.decision_hash);
}

bench::JsonRow
legRow(const char *name, int servers, bool controller,
       const LegMetrics &m, bool identical)
{
    bench::JsonRow row;
    row.str("leg", name)
        .count("servers", uint64_t(servers))
        .flag("controller", controller);
    bench::streamColumns(row, m.stream)
        .num("shed_fraction", m.shedFraction())
        .num("goodput_fraction", m.goodputFraction())
        .num("qos_violation_crowd", m.qos_violation_crowd)
        .num("frac_pressured", m.frac_pressured)
        .num("frac_overloaded", m.frac_overloaded)
        .count("deferred", m.deferred)
        .count("brownouts", m.brownouts)
        .count("restores", m.restores)
        .count("autoscale_updates", m.autoscale_updates)
        .count("transitions", m.transitions)
        .hash("decision_hash", m.decision_hash)
        .flag("identical", identical);
    return row;
}

int
runOverloadBench(bool smoke, const std::string &out_path,
                 const std::string &baseline_path,
                 const std::string &traces_dir)
{
    const double horizon = 900.0;
    const int gate_servers = 200;

    bench::banner(smoke ? "overload control (smoke): flash crowd, "
                          "controller off vs on"
                        : "overload control: flash crowd at 200/500 "
                          "servers + google-fitted synth legs");

    // The full run's synth legs need the google fixture: a full run
    // without it fails before running any leg, so it never writes a
    // report that silently lacks the synth rows.
    trace::TraceStream stream;
    if (!smoke) {
        stream = trace::parseGoogleTaskEventsFile(traces_dir +
                                                  "/google_task_events.csv");
        if (stream.events.empty())
            stream = trace::parseGoogleTaskEventsFile(
                traces_dir + "/google_task_events.csv.gz");
        if (stream.events.empty()) {
            std::fprintf(stderr,
                         "no google fixture under %s (pass "
                         "--traces=DIR); the full run needs it for the "
                         "synth legs\n",
                         traces_dir.c_str());
            return 1;
        }
    }

    struct Leg
    {
        const char *name;
        int servers;
        bool controller;
        LegMetrics m;
    };
    std::vector<Leg> legs = {
        {"off-dirty", gate_servers, false, {}},
        {"on-dirty", gate_servers, true, {}},
        {"on-dirty-replay", gate_servers, true, {}},
    };
    if (!smoke) {
        legs.push_back({"off-500", 500, false, {}});
        legs.push_back({"on-500", 500, true, {}});
    }

    for (Leg &leg : legs) {
        std::printf("  running %s...\n", leg.name);
        std::fflush(stdout);
        leg.m = runLeg(leg.servers, horizon,
                       bench::crowdStream(leg.servers, horizon),
                       leg.controller);
    }

    // Full-run synth legs: fit a churn stream to the bundled google
    // fixture and overlay the same flash-crowd pattern on it, so the
    // crowd rides on trace-shaped arrivals and lifetimes.
    if (!smoke) {
        trace::TraceMapperConfig mcfg;
        mcfg.target_horizon_s = horizon;
        mcfg.target_servers = 500;
        mcfg.seed = 20260808;
        trace::MappedTrace mapped = trace::mapTrace(stream, mcfg);
        trace::SynthFit fit =
            trace::fitChurnConfig(mapped, 20260808, horizon);
        churn::ChurnConfig synth = fit.config;
        synth.rate_pattern = bench::diurnalFlashCrowd();
        // The fitted rate reflects the trace's average
        // pressure; clamp it so the 10x crowd overlay lands in
        // the overload regime without drowning the off leg in a
        // many-thousand-deep queue (the google fixture fits to
        // ~6.3/s at 500 servers, which the crowd would multiply
        // to ~63/s — hours of saturated-cluster retries for no
        // extra signal).
        synth.arrival_rate_per_s =
            std::clamp(synth.arrival_rate_per_s, 0.4, 0.5);
        std::printf("  running synth legs (fitted rate "
                    "%.3f/s)...\n",
                    synth.arrival_rate_per_s);
        std::fflush(stdout);
        legs.push_back({"synth-off", 500, false,
                        runLeg(500, horizon, synth, false)});
        legs.push_back({"synth-on", 500, true,
                        runLeg(500, horizon, synth, true)});
    }

    // Replay gate: every controller-on leg at the gate scale must
    // reproduce the on-dirty leg's placement AND decision hashes
    // across a full re-replay. Accounting gate: no leg leaks
    // arrivals out of the outcome split.
    const LegMetrics &on = legs[1].m;
    bool replay_ok = true;
    bool accounted = true;
    std::vector<bench::JsonRow> rows;
    for (const Leg &leg : legs) {
        bool identical = true;
        if (leg.controller && leg.servers == gate_servers &&
            std::string(leg.name) != "on-dirty")
            identical = leg.m.stream.placement_hash ==
                            on.stream.placement_hash &&
                        leg.m.decision_hash == on.decision_hash;
        replay_ok = replay_ok && identical;
        accounted = bench::checkAccounted(leg.name, leg.m.stream) &&
                    accounted;
        printLeg(leg.name, leg.m);
        if (!identical)
            std::printf("        ^^ DIVERGED from on-dirty\n");
        rows.push_back(legRow(leg.name, leg.servers, leg.controller,
                              leg.m, identical));
    }
    bench::JsonRow header;
    header.str("name", "overload").flag("smoke", smoke).num("horizon_s",
                                                            horizon, 0);
    if (!bench::writeReport(out_path, header, {{"legs", rows}}))
        return 1;

    int rc = accounted ? 0 : 1;
    if (!replay_ok) {
        std::fprintf(stderr,
                     "FAIL: overload decisions diverged across a "
                     "re-replay\n");
        rc = 1;
    }
    const LegMetrics &off = legs[0].m;
    if (!(on.qos_violation_crowd < off.qos_violation_crowd)) {
        std::fprintf(stderr,
                     "FAIL: controller on does not improve "
                     "crowd-window QoS (%.4f vs off %.4f)\n",
                     on.qos_violation_crowd, off.qos_violation_crowd);
        rc = 1;
    } else {
        std::printf("qos gate ok: crowd-window violation on %.4f < "
                    "off %.4f (shed %.3f of arrivals for it)\n",
                    on.qos_violation_crowd, off.qos_violation_crowd,
                    on.shedFraction());
    }
    if (!baseline_path.empty()) {
        auto row = bench::findRow(baseline_path, {{"leg", "on-dirty"}});
        auto base = row ? bench::numberField(*row, "qos_violation_crowd")
                        : std::nullopt;
        if (!base) {
            rc = 1;
        } else if (on.qos_violation_crowd > *base + kMaxQosRegression) {
            std::fprintf(stderr,
                         "FAIL: on-dirty crowd-window qos violation "
                         "%.4f regressed more than %.2f above the "
                         "committed baseline %.4f\n",
                         on.qos_violation_crowd, kMaxQosRegression,
                         *base);
            rc = 1;
        } else {
            std::printf("baseline gate ok: %.4f vs committed %.4f "
                        "(+%.2f allowed)\n",
                        on.qos_violation_crowd, *base,
                        kMaxQosRegression);
        }
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_overload.json";
    std::string baseline_path;
    std::string traces_dir = QUASAR_TRACES_DIR;
    if (auto rc = bench::parseBenchArgs(
            argc, argv,
            {{"--smoke", "CI variant: the 200-server legs only", &smoke},
             {"--out=PATH", "report path (default BENCH_overload.json)",
              nullptr, &out_path},
             {"--baseline=PATH", "gate against this committed report",
              nullptr, &baseline_path},
             {"--traces=DIR", "trace fixtures (default tests/traces)",
              nullptr, &traces_dir}}))
        return *rc;
    return runOverloadBench(smoke, out_path, baseline_path, traces_dir);
}
