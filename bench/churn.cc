/**
 * @file
 * Churn bench: sustained open-loop workload streams through the full
 * Quasar manager at 1k / 5k / 10k / 50k / 100k servers on the
 * production dirty-set decision path. The legacy full_rescan path is
 * tests-only (QUASAR_VERIFY shadow oracle + equivalence tests) and
 * carries no bench leg. Every scale runs the dirty path twice
 * ("dirty-rerun") and requires the two replays to produce identical
 * placement hashes — a determinism referee at every scale.
 *
 * For each (scale, run) the bench writes bench::runStream's report to
 * BENCH_churn.json: successful placements per wall second of the
 * run, the arrivals' outcome split, admission-queue depth, the
 * QoS-violation rate of the latency services in the stream, and the
 * wall-clock breakdown (classify / profile / schedule / adapt from
 * QuasarStats, rank / place from SchedulerTiming, the driver tick).
 *
 * Gates (exit 1): the replays diverge; a leg leaks arrivals out of
 * the outcome split; and, with --baseline, a dirty leg's placements
 * per second fall more than kMaxRateRegression below its committed
 * row, or its placement hash differs from the committed one. A
 * missing or unreadable baseline row fails the gate.
 *
 * `--smoke` is the CI variant: a 1000-server leg, its dirty-rerun
 * referee and a 10k leg, same horizon as the full run so its
 * placements per second compare directly against the committed
 * baseline.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "bench/report.hh"
#include "bench/streams.hh"

using namespace quasar;

namespace
{

/** A dirty leg may lose at most this share of the committed
 *  placements per second. */
constexpr double kMaxRateRegression = 0.25;

/** Gate a dirty leg against its committed row: rate and hash. */
bool
gateBaseline(const std::string &path, int servers,
             const bench::StreamReport &r)
{
    auto row = bench::findRow(
        path, {{"servers", std::to_string(servers)}, {"mode", "dirty"}});
    if (!row)
        return false;
    auto rate = bench::numberField(*row, "placements_per_s");
    auto hash = bench::hashField(*row, "placement_hash");
    if (!rate || !hash)
        return false;
    if (!(r.placementsPerSecond() > *rate * (1.0 - kMaxRateRegression))) {
        std::fprintf(stderr,
                     "FAIL: dirty placements/s at %d servers (%.0f) "
                     "regressed >%.0f%% vs baseline %.0f\n",
                     servers, r.placementsPerSecond(),
                     kMaxRateRegression * 100.0, *rate);
        return false;
    }
    if (r.placement_hash != *hash) {
        std::fprintf(stderr,
                     "FAIL: dirty placement hash at %d servers "
                     "(%016llx) diverged from the committed baseline "
                     "(%016llx)\n",
                     servers, (unsigned long long)r.placement_hash,
                     (unsigned long long)*hash);
        return false;
    }
    std::printf("gate ok at %d servers: %.0f placements/s vs baseline "
                "%.0f (limit -%.0f%%), hash reproduced\n",
                servers, r.placementsPerSecond(), *rate,
                kMaxRateRegression * 100.0);
    return true;
}

int
runChurnBench(bool smoke, const std::string &out_path,
              const std::string &baseline_path)
{
    struct Point
    {
        int servers;
        bool rerun; // dirty run #2: the determinism referee
    };
    // Smoke runs the same horizon as the full bench (so its numbers
    // are directly comparable to the committed baseline) but only the
    // 1000-server pair plus a 10k leg — seconds instead of minutes.
    const double horizon = 900.0;
    std::vector<Point> points;
    if (smoke) {
        points = {{1000, false}, {1000, true}, {10000, false}};
    } else {
        for (int servers : {1000, 5000, 10000, 50000, 100000}) {
            points.push_back({servers, false});
            points.push_back({servers, true});
        }
    }

    bench::banner(smoke ? "churn stream (smoke): dirty + re-replay at "
                          "1k, dirty at 10k"
                        : "churn stream: dirty + re-replay from 1k to "
                          "100k servers");

    // Every primary dirty leg: the dirty-rerun leg at the same scale
    // must reproduce its hash, and the baseline gates check it.
    std::vector<std::pair<int, bench::StreamReport>> dirty;
    std::vector<bench::JsonRow> rows;
    bool ok = true;
    for (const Point &p : points) {
        churn::ChurnEngine engine(bench::churnStream(p.servers, horizon));
        bench::StreamReport r = bench::runStream(
            bench::clusterOfSize(p.servers), engine,
            bench::streamConfig(horizon), horizon,
            bench::FoldWord::Available);
        bool identical = true;
        if (!p.rerun)
            dirty.emplace_back(p.servers, r);
        else
            for (const auto &[servers, first] : dirty)
                if (servers == p.servers)
                    identical = r.placement_hash == first.placement_hash;
        const char *mode = p.rerun ? "dirty-rerun" : "dirty";
        const std::string label = std::to_string(p.servers) + " " + mode;
        bench::printStream(label, r);
        if (!identical)
            std::printf("        ^^ DIVERGED from dirty\n");
        ok = bench::checkAccounted(label, r) && identical && ok;
        bench::JsonRow row;
        row.count("servers", uint64_t(p.servers)).str("mode", mode);
        bench::streamColumns(row, r).flag("identical", identical);
        rows.push_back(row);
    }
    bench::JsonRow header;
    header.str("name", "churn").flag("smoke", smoke).num("horizon_s",
                                                         horizon, 0);
    if (!bench::writeReport(out_path, header, {{"scales", rows}}))
        return 1;

    if (!ok) {
        std::fprintf(stderr, "FAIL: dirty re-replays diverged on "
                             "placements, or a leg leaked arrivals\n");
        return 1;
    }
    // Gate every dirty leg: placements/s within kMaxRateRegression
    // of the committed row, and the placement hash reproduced
    // exactly (seeded stream + deterministic decision path).
    if (!baseline_path.empty())
        for (const auto &[servers, r] : dirty)
            if (!gateBaseline(baseline_path, servers, r))
                return 1;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_churn.json";
    std::string baseline_path;
    if (auto rc = bench::parseBenchArgs(
            argc, argv,
            {{"--smoke", "CI variant: the 1k leg, its rerun and a 10k leg",
              &smoke},
             {"--out=PATH", "report path (default BENCH_churn.json)",
              nullptr, &out_path},
             {"--baseline=PATH", "gate against this committed report",
              nullptr, &baseline_path}}))
        return *rc;
    return runChurnBench(smoke, out_path, baseline_path);
}
