/**
 * @file
 * Trace-replay bench: the two checked-in cluster-trace fixtures
 * (Google task-events style, Azure vmtable style) ingested, mapped,
 * and replayed through the full Quasar manager on the production
 * dirty-set decision path (full_rescan is tests-only: the
 * QUASAR_VERIFY shadow oracle and the equivalence tests cover it).
 *
 * Gates (exit non-zero on violation):
 *   1. Parser diagnostics: each fixture carries a known number of
 *      deliberately malformed rows; the parsers must reject exactly
 *      those, with per-line diagnostics, and nothing else.
 *   2. Re-replay stability: replaying the same mapped trace twice
 *      must produce the identical placement hash (FNV-1a fold of the
 *      full allocation state every tick).
 *
 *   3. Accounting: completed + departed + shed + active == arrivals
 *      in every run (no arrival leaks out of the outcome split).
 *
 * Writes bench::runStream's report per (fixture, run) to
 * BENCH_trace_replay.json: placements per wall second, the outcome
 * split, admission depth, QoS-violation rate, the placement hash and
 * the wall-clock breakdown. The full run adds a synthesizer leg:
 * a ChurnConfig fitted to the mapped Google fixture driving a
 * 2000-server stream — the "small fixture, big cluster" path.
 *
 * `--smoke` is the CI variant: both fixtures at 200 servers over a
 * short horizon, each with its re-replay gate.
 *
 * The fixtures are read from the source tree's tests/traces, wherever
 * the bench is run from. To replay a real downloaded trace instead of the fixtures, point
 * `--traces=<dir>` at a directory whose files carry the fixture
 * names (google_task_events.csv / azure_vmtable.csv, optionally with
 * a .gz suffix when built with zlib) and pass `--no-diag-gate` —
 * gate 1's exact counts are a property of the bundled fixtures, not
 * of real data. Gate 2 (re-replay stability) still applies.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "bench/report.hh"
#include "trace/azure.hh"
#include "trace/google.hh"
#include "trace/mapper.hh"
#include "trace/replay.hh"
#include "trace/synth.hh"

using namespace quasar;

namespace
{

/** One replay (or synth) run of `source`'s plan. */
template <typename PlanSource>
bench::StreamReport
runSource(int servers, double horizon_s, PlanSource &source)
{
    return bench::runStream(bench::clusterOfSize(servers), source,
                            bench::streamConfig(horizon_s), horizon_s,
                            bench::FoldWord::Available);
}

struct Fixture
{
    const char *name;
    const char *file;
    size_t expected_diagnostics;
    trace::TraceStream stream;
    trace::MappedTrace mapped;
};

bool
checkDiagnostics(const Fixture &fx)
{
    if (fx.stream.rows_rejected == fx.expected_diagnostics &&
        fx.stream.diagnostics.size() == fx.expected_diagnostics)
        return true;
    std::fprintf(stderr,
                 "FAIL: %s expected exactly %zu parser rejections, "
                 "got %zu (%zu diagnostics)\n",
                 fx.name, fx.expected_diagnostics,
                 fx.stream.rows_rejected, fx.stream.diagnostics.size());
    for (const trace::RowDiagnostic &d : fx.stream.diagnostics)
        std::fprintf(stderr, "  line %zu: %s\n", d.line,
                     d.reason.c_str());
    return false;
}

int
runTraceReplayBench(bool smoke, const std::string &out_path,
                    const std::string &traces_dir, bool diag_gate)
{
    const int servers = smoke ? 200 : 500;
    const double horizon = smoke ? 300.0 : 600.0;
    const uint64_t seed = 20260806;

    bench::banner(
        smoke ? "trace replay (smoke): google + azure fixtures"
              : "trace replay: google + azure fixtures, re-replay "
                "gate + synth leg");

    Fixture fixtures[2] = {
        {"google", "google_task_events.csv", 9, {}, {}},
        {"azure", "azure_vmtable.csv", 7, {}, {}},
    };
    // A line-0 diagnostic means the file could not be opened; fall
    // back to the gzip variant so downloaded traces can stay
    // compressed (decoded by the reader when built with zlib).
    auto unopenable = [](const trace::TraceStream &s) {
        return s.events.empty() && s.diagnostics.size() == 1 &&
               s.diagnostics[0].line == 0;
    };
    fixtures[0].stream = trace::parseGoogleTaskEventsFile(
        traces_dir + "/" + fixtures[0].file);
    if (unopenable(fixtures[0].stream))
        fixtures[0].stream = trace::parseGoogleTaskEventsFile(
            traces_dir + "/" + fixtures[0].file + ".gz");
    fixtures[1].stream = trace::parseAzureVmFile(
        traces_dir + "/" + fixtures[1].file);
    if (unopenable(fixtures[1].stream))
        fixtures[1].stream = trace::parseAzureVmFile(
            traces_dir + "/" + fixtures[1].file + ".gz");

    trace::TraceMapperConfig mcfg;
    mcfg.target_horizon_s = horizon;
    mcfg.target_servers = servers;
    mcfg.seed = seed;
    for (Fixture &fx : fixtures) {
        // The exact-count gate is for the bundled fixtures; a real
        // downloaded trace (--traces=... --no-diag-gate) rejects
        // however many rows it rejects, reported but not gated.
        if (diag_gate && !checkDiagnostics(fx))
            return 1;
        fx.mapped = trace::mapTrace(fx.stream, mcfg);
        std::printf(
            "  %s: %zu rows -> %zu events (%zu ok, %zu ignored, "
            "%zu rejected), %zu mapped instances "
            "(x%.2f population, x%.3f time)\n",
            fx.name, fx.stream.rows_total, fx.stream.events.size(),
            fx.stream.rows_ok, fx.stream.rows_ignored,
            fx.stream.rows_rejected, fx.mapped.items.size(),
            fx.mapped.population_scale, fx.mapped.time_scale);
    }

    std::vector<bench::JsonRow> fixture_rows;
    for (const Fixture &fx : fixtures) {
        bench::JsonRow row;
        row.str("name", fx.name)
            .count("rows_total", fx.stream.rows_total)
            .count("rows_ok", fx.stream.rows_ok)
            .count("rows_ignored", fx.stream.rows_ignored)
            .count("rows_rejected", fx.stream.rows_rejected)
            .count("events", fx.stream.events.size())
            .count("mapped_instances", fx.mapped.items.size())
            .num("population_scale", fx.mapped.population_scale)
            .num("time_scale", fx.mapped.time_scale, 6);
        fixture_rows.push_back(row);
    }

    bool ok = true;
    std::vector<bench::JsonRow> rows;
    auto report = [&](const char *fixture, const char *mode,
                      const bench::StreamReport &r, bool identical) {
        const std::string label = std::string(fixture) + " " + mode;
        bench::printStream(label, r);
        if (!identical)
            std::printf("        ^^ DIVERGED from dirty\n");
        ok = bench::checkAccounted(label, r) && identical && ok;
        bench::JsonRow row;
        row.str("fixture", fixture).str("mode", mode);
        bench::streamColumns(row, r).flag("identical", identical);
        rows.push_back(row);
    };
    // Each fixture replays twice: the second run is the stability
    // gate against the first.
    for (const Fixture &fx : fixtures) {
        trace::TraceReplayer first_src(fx.mapped);
        bench::StreamReport first = runSource(servers, horizon, first_src);
        report(fx.name, "dirty", first, true);
        trace::TraceReplayer again_src(fx.mapped);
        bench::StreamReport again = runSource(servers, horizon, again_src);
        report(fx.name, "re-replay", again,
               again.placement_hash == first.placement_hash);
    }

    // Synthesizer leg (full run only): fit the generator to the
    // mapped Google fixture and drive a 2000-server stream from it.
    // The fitted rate is kept as-is — the fixture runs above already
    // oversubscribe their cluster ~2x, so the same absolute load on
    // 4x the servers lands near saturation instead of deep overload
    // (which would make the run quadratic in admission depth).
    if (!smoke) {
        trace::SynthFit fit =
            trace::fitChurnConfig(fixtures[0].mapped, seed);
        std::printf("  synth fit (google): rate %.2f/s %s, mix "
                    "%.2f/%.2f/%.2f/%.2f, phase %.3f\n",
                    fit.config.arrival_rate_per_s,
                    fit.config.arrivals == churn::ArrivalKind::Pareto
                        ? "pareto"
                        : "poisson",
                    fit.config.mix.single_node,
                    fit.config.mix.analytics, fit.config.mix.service,
                    fit.config.mix.best_effort,
                    fit.config.phase_change_fraction);
        churn::ChurnEngine synth(fit.config);
        report("google", "synth_2000_dirty",
               runSource(2000, horizon, synth), true);
    }

    bench::JsonRow header;
    header.str("name", "trace_replay")
        .flag("smoke", smoke)
        .count("servers", uint64_t(servers))
        .num("horizon_s", horizon, 0);
    if (!bench::writeReport(out_path, header,
                            {{"fixtures", fixture_rows}, {"runs", rows}}))
        return 1;

    if (!ok) {
        std::fprintf(stderr, "FAIL: re-replaying the same mapped "
                             "trace changed placements, or a run "
                             "leaked arrivals\n");
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool no_diag_gate = false;
    std::string out_path = "BENCH_trace_replay.json";
    std::string traces_dir = QUASAR_TRACES_DIR;
    if (auto rc = bench::parseBenchArgs(
            argc, argv,
            {{"--smoke", "CI variant: both fixtures at 200 servers",
              &smoke},
             {"--no-diag-gate", "skip the fixtures' diagnostic counts",
              &no_diag_gate},
             {"--out=PATH", "report path (default BENCH_trace_replay.json)",
              nullptr, &out_path},
             {"--traces=DIR", "trace files (default tests/traces)",
              nullptr, &traces_dir}}))
        return *rc;
    return runTraceReplayBench(smoke, out_path, traces_dir,
                               !no_diag_gate);
}
