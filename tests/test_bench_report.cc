/**
 * @file
 * The bench report harness (bench/report.hh): the BENCH_*.json row
 * writer and the baseline reader that reads it back, the placement
 * fold whose values every committed hash depends on, and the gated
 * benches' argument parser.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench/report.hh"

using namespace quasar;

namespace
{

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "bench_report_" + name + ".json";
}

bench::JsonRow
modeRow(const std::string &mode, uint64_t calls)
{
    bench::JsonRow row;
    row.count("servers", 1000).str("mode", mode).count("calls", calls);
    return row;
}

} // namespace

TEST(BenchReport, WriterRoundTripsThroughTheReader)
{
    const std::string path = tempPath("roundtrip");
    bench::JsonRow header;
    header.str("name", "demo").flag("smoke", true).num("horizon_s", 900.0,
                                                       0);
    bench::JsonRow row;
    row.str("leg", "on-dirty")
        .count("servers", 200)
        .num("qos_violation_rate", 0.65912)
        .num("wall_s", 1.25, 3)
        .flag("identical", false)
        .hash("placement_hash", 0x510fbfc1770766deULL);
    bench::JsonRow other;
    other.str("leg", "off-dirty").count("servers", 200);
    ASSERT_TRUE(bench::writeReport(path, header,
                                   {{"legs", {other, row}},
                                    {"extra", {modeRow("dirty", 1)}}}));

    auto got = bench::findRow(path, {{"leg", "on-dirty"}});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->at("servers"), "200");
    EXPECT_EQ(got->at("identical"), "false");
    EXPECT_EQ(got->at("wall_s"), "1.250");
    auto qos = bench::numberField(*got, "qos_violation_rate");
    ASSERT_TRUE(qos.has_value());
    EXPECT_DOUBLE_EQ(*qos, 0.6591);
    auto hash = bench::hashField(*got, "placement_hash");
    ASSERT_TRUE(hash.has_value());
    EXPECT_EQ(*hash, 0x510fbfc1770766deULL);

    // Rows of every array are found; header lines are not rows.
    EXPECT_TRUE(bench::findRow(path, {{"mode", "dirty"}}).has_value());
    testing::internal::CaptureStderr();
    EXPECT_FALSE(bench::findRow(path, {{"name", "demo"}}).has_value());
    testing::internal::GetCapturedStderr();
    EXPECT_EQ(bench::parseRow(row.line()).size(), row.fields().size());
}

TEST(BenchReport, DirtyNeverMatchesDirtyRerun)
{
    const std::string path = tempPath("modes");
    bench::JsonRow header;
    header.str("name", "churn");
    ASSERT_TRUE(bench::writeReport(
        path, header, {{"scales", {modeRow("dirty-rerun", 7)}}}));
    testing::internal::CaptureStderr();
    EXPECT_FALSE(bench::findRow(path, {{"servers", "1000"},
                                       {"mode", "dirty"}})
                     .has_value());
    testing::internal::GetCapturedStderr();

    ASSERT_TRUE(bench::writeReport(
        path, header,
        {{"scales", {modeRow("dirty-rerun", 7), modeRow("dirty", 3)}}}));
    auto got =
        bench::findRow(path, {{"servers", "1000"}, {"mode", "dirty"}});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->at("calls"), "3");
}

TEST(BenchReport, MissingRowOrFieldIsAnErrorNotNan)
{
    const std::string path = tempPath("missing");
    bench::JsonRow header;
    header.str("name", "churn");
    ASSERT_TRUE(
        bench::writeReport(path, header, {{"scales", {modeRow("dirty", 3)}}}));

    // Each failure names its reason on stderr, for the gate's log.
    testing::internal::CaptureStderr();
    EXPECT_FALSE(bench::findRow(tempPath("no_such_file"), {{"mode", "dirty"}})
                     .has_value());
    EXPECT_NE(testing::internal::GetCapturedStderr().find("cannot read"),
              std::string::npos);
    testing::internal::CaptureStderr();
    EXPECT_FALSE(bench::findRow(path, {{"servers", "5000"}}).has_value());
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "no row with servers=5000"),
              std::string::npos);

    auto row = bench::findRow(path, {{"mode", "dirty"}});
    ASSERT_TRUE(row.has_value());
    testing::internal::CaptureStderr();
    EXPECT_FALSE(bench::numberField(*row, "placements_per_s").has_value());
    EXPECT_FALSE(bench::numberField(*row, "mode").has_value());
    EXPECT_FALSE(bench::hashField(*row, "placement_hash").has_value());
    EXPECT_FALSE(bench::hashField(*row, "mode").has_value());
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "no number \"placements_per_s\""),
              std::string::npos);

    // A file that is not a report has no rows at all.
    std::ofstream(path) << "not json\n{\n";
    testing::internal::CaptureStderr();
    EXPECT_FALSE(bench::findRow(path, {}).has_value());
    testing::internal::GetCapturedStderr();
}

// Both fold words on a hand-built 3-server cluster, pinned: the
// committed BENCH_*.json hashes are running folds of exactly this
// function, so any change to it must show up here first.
TEST(BenchReport, PlacementFoldWordsArePinned)
{
    auto catalog = sim::numaPlatforms();
    std::vector<int> counts(catalog.size(), 0);
    size_t two_socket = catalog.size();
    for (size_t i = 0; i < catalog.size() && two_socket == catalog.size();
         ++i)
        if (catalog[i].topology.numSockets() == 2)
            two_socket = i;
    ASSERT_LT(two_socket, catalog.size());
    counts[two_socket] = 3;
    sim::Cluster cluster(catalog, counts);
    ASSERT_EQ(cluster.size(), 3u);

    sim::TaskShare a;
    a.workload = WorkloadId(7);
    a.cores = 2;
    a.memory_gb = 4.0;
    a.socket = 1;
    cluster.server(ServerId(0)).place(a);
    sim::TaskShare b;
    b.workload = WorkloadId(9);
    b.cores = 3;
    b.memory_gb = 2.0;
    cluster.server(ServerId(1)).place(b);
    cluster.server(ServerId(2)).markDown();

    uint64_t avail = bench::kFnvBasis;
    bench::foldPlacements(cluster, bench::FoldWord::Available, avail);
    uint64_t cores = bench::kFnvBasis;
    bench::foldPlacements(cluster, bench::FoldWord::CoresAllocated, cores);
    EXPECT_EQ(avail, 0xa255859af8ca49a0ULL);
    EXPECT_EQ(cores, 0x7510ba7f6c3cd417ULL);

    // A second tick folds on top of the first.
    bench::foldPlacements(cluster, bench::FoldWord::Available, avail);
    EXPECT_EQ(avail, 0xad6033dec74d0673ULL);
}

// The gated benches' one command line: known flags set their targets,
// --help and any unknown argument stop the bench before it runs (their
// defaults write the committed BENCH_*.json in the current directory).
TEST(BenchReport, ArgsParserStopsOnHelpAndUnknownArguments)
{
    struct Cli
    {
        bool smoke = false;
        std::string out = "BENCH_demo.json";
        std::optional<int> parse(std::vector<std::string> args)
        {
            args.insert(args.begin(), "demo");
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            return bench::parseBenchArgs(
                int(argv.size()), argv.data(),
                {{"--smoke", "short run", &smoke},
                 {"--out=PATH", "report path", nullptr, &out}});
        }
    };

    Cli ok;
    EXPECT_FALSE(ok.parse({"--smoke", "--out=x.json"}).has_value());
    EXPECT_TRUE(ok.smoke);
    EXPECT_EQ(ok.out, "x.json");

    Cli help;
    testing::internal::CaptureStdout();
    EXPECT_EQ(help.parse({"--help", "--smoke"}), 0);
    std::string usage = testing::internal::GetCapturedStdout();
    EXPECT_NE(usage.find("usage: demo [--smoke] [--out=PATH]"),
              std::string::npos);
    EXPECT_FALSE(help.smoke);

    // A switch given a value, an option without one, a stray word and
    // a typo are all unknown.
    for (const char *bad : {"--smoke=1", "--out", "smoke", "--outt=x"}) {
        Cli cli;
        testing::internal::CaptureStderr();
        EXPECT_EQ(cli.parse({bad}), 2) << bad;
        std::string err = testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find(std::string("unknown argument: ") + bad),
                  std::string::npos);
        EXPECT_NE(err.find("usage: demo"), std::string::npos);
        EXPECT_EQ(cli.out, "BENCH_demo.json");
    }

    // Parsing stops at the first unknown argument.
    Cli partial;
    testing::internal::CaptureStderr();
    EXPECT_EQ(partial.parse({"--bogus", "--smoke"}), 2);
    testing::internal::GetCapturedStderr();
    EXPECT_FALSE(partial.smoke);
}

TEST(BenchReport, AccuracyProbeLeavesPlacementsAndDecisionsAlone)
{
    // A small overloaded churn stream with the controller on, so both
    // the placement fold and the controller's decision hash move.
    churn::ChurnConfig ccfg;
    ccfg.seed = 515;
    ccfg.arrival_rate_per_s = 0.5;
    ccfg.horizon_s = 300.0;
    ccfg.phase_change_fraction = 0.1;
    ccfg.service_lifetime = tracegen::DurationSpec::lognormal(150.0, 0.6);
    ccfg.batch_lifetime = tracegen::DurationSpec::exponential(60.0);
    core::QuasarConfig qcfg = bench::streamConfig(ccfg.horizon_s);
    qcfg.overload.enabled = true;
    qcfg.overload.depth_pressured = 2;
    qcfg.overload.depth_overloaded = 4;
    qcfg.overload.brownout = true;

    auto run = [&](bool probe, uint64_t &decisions) {
        churn::ChurnEngine engine(ccfg);
        return bench::runStream(
            bench::clusterOfSize(40), engine, qcfg, ccfg.horizon_s,
            bench::FoldWord::CoresAllocated,
            [&](const core::QuasarManager &mgr,
                const driver::ScenarioDriver &,
                const std::vector<churn::ChurnItem> &) {
                decisions = mgr.overload().decisionHash();
            },
            probe);
    };
    uint64_t on_decisions = 0;
    uint64_t off_decisions = 0;
    bench::StreamReport on = run(true, on_decisions);
    bench::StreamReport off = run(false, off_decisions);

    EXPECT_EQ(on.placement_hash, off.placement_hash);
    EXPECT_EQ(on_decisions, off_decisions);
    EXPECT_EQ(on.placements_ok, off.placements_ok);
    EXPECT_EQ(on.fits.fits, off.fits.fits);
    EXPECT_EQ(on.fits.epochs, off.fits.epochs);
    EXPECT_GT(on.placements_ok, 0u);
    EXPECT_NE(on_decisions, bench::kFnvBasis); // the controller acted

    // The probe scored every arrival on the axes that apply to all of
    // them; the unprobed run scored nothing.
    size_t scored = on.accuracy.growing[0].count() +
                    on.accuracy.at_cap[0].count();
    EXPECT_GT(scored, 0u);
    EXPECT_GT(on.accuracy.growing[size_t(core::Axis::Heterogeneity)].count(),
              0u);
    for (size_t a = 0; a < core::kNumAxes; ++a)
        EXPECT_EQ(off.accuracy.growing[a].count() +
                      off.accuracy.at_cap[a].count(),
                  0u);
}
