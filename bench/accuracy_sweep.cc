/**
 * @file
 * Classification accuracy of one seeded stream, the measurement a
 * change to the classifier's fit is chosen by (EXPERIMENTS.md,
 * "Refit schedule" and "SGD step, epoch cap and factor seed").
 *
 *   accuracy_sweep --stream=churn|azure|crowd --seed=N --out=PATH
 *
 * Runs bench::runStream with its AccuracyProbe on one of three
 * streams, with the stream's seed replaced by N:
 *  - churn: bench/churn's Pareto stream at 1,000 servers, 900 s;
 *  - azure: the Azure fixture mapped onto 500 servers and 600 s,
 *    mapper seed N;
 *  - crowd: bench/overload's diurnal + flash-crowd stream at 200
 *    servers, 900 s, controller on.
 * Writes one JSON row to PATH: the stream's report columns, among
 * them the 16 probe cells (`err_{su,so,het,if}_{grow,cap}_{p50,p90}`)
 * and the fit counters. bench/accuracy_compare.py compares two
 * directories of such rows, one per seed and stream.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench/report.hh"
#include "bench/streams.hh"
#include "trace/azure.hh"
#include "trace/mapper.hh"
#include "trace/replay.hh"

using namespace quasar;

namespace
{

bench::StreamReport
runChurn(uint64_t seed)
{
    const double horizon = 900.0;
    churn::ChurnConfig cfg = bench::churnStream(1000, horizon);
    cfg.seed = seed;
    churn::ChurnEngine engine(cfg);
    return bench::runStream(bench::clusterOfSize(1000), engine,
                            bench::streamConfig(horizon), horizon,
                            bench::FoldWord::Available);
}

bench::StreamReport
runAzure(uint64_t seed, const trace::TraceStream &fixture)
{
    const double horizon = 600.0;
    trace::TraceMapperConfig mcfg;
    mcfg.target_horizon_s = horizon;
    mcfg.target_servers = 500;
    mcfg.seed = seed;
    trace::TraceReplayer replayer(trace::mapTrace(fixture, mcfg));
    return bench::runStream(bench::clusterOfSize(500), replayer,
                            bench::streamConfig(horizon), horizon,
                            bench::FoldWord::Available);
}

bench::StreamReport
runCrowd(uint64_t seed)
{
    const double horizon = 900.0;
    churn::ChurnConfig cfg = bench::crowdStream(200, horizon);
    cfg.seed = seed;
    churn::ChurnEngine engine(cfg);
    core::QuasarConfig qcfg = bench::streamConfig(horizon);
    qcfg.overload = bench::crowdController();
    return bench::runStream(bench::clusterOfSize(200), engine, qcfg,
                            horizon, bench::FoldWord::CoresAllocated);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string stream, seed_text, out_path;
    if (auto code = bench::parseBenchArgs(
            argc, argv,
            {{"--stream=NAME", "churn, azure or crowd", nullptr, &stream},
             {"--seed=N", "the stream's seed", nullptr, &seed_text},
             {"--out=PATH", "where to write the JSON row", nullptr,
              &out_path}}))
        return *code;
    const bool digits =
        !seed_text.empty() &&
        seed_text.find_first_not_of("0123456789") == std::string::npos;
    const uint64_t seed =
        digits ? std::strtoull(seed_text.c_str(), nullptr, 10) : 0;
    if (!digits || out_path.empty() ||
        (stream != "churn" && stream != "azure" && stream != "crowd")) {
        std::fprintf(stderr, "usage: %s --stream=churn|azure|crowd "
                             "--seed=N --out=PATH\n",
                     argv[0]);
        return 2;
    }

    trace::TraceStream fixture;
    if (stream == "azure") {
        const std::string path =
            std::string(QUASAR_TRACES_DIR) + "/azure_vmtable.csv";
        fixture = trace::parseAzureVmFile(path);
        if (fixture.events.empty()) {
            std::fprintf(stderr, "FAIL: no events in %s\n", path.c_str());
            return 1;
        }
    }
    const bench::StreamReport r = stream == "churn" ? runChurn(seed)
                                  : stream == "azure"
                                      ? runAzure(seed, fixture)
                                      : runCrowd(seed);
    bench::printStream(stream + " seed " + seed_text, r);
    bench::JsonRow row;
    row.str("stream", stream).count("seed", seed);
    bench::streamColumns(row, r);
    std::ofstream out(out_path);
    out << row.line() << "\n";
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    return 0;
}
