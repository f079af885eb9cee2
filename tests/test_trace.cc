/**
 * @file
 * Trace ingestion & replay subsystem tests: parser strictness
 * (table-driven malformed-row handling, diagnostics, never crash),
 * canonical-stream mapping (classification, pairing, rescaling),
 * replay determinism across scheduler modes and re-replays, the
 * trace synthesizer's fits, the churn plan's independence from the
 * run and the manager, and the hosting-index / active-list fast paths
 * behind them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#if defined(QUASAR_HAVE_ZLIB)
#include <zlib.h>
#endif

#include "baselines/reservation_ll.hh"
#include "churn/churn.hh"
#include "core/manager.hh"
#include "driver/scenario.hh"
#include "sim/cluster.hh"
#include "trace/azure.hh"
#include "trace/google.hh"
#include "trace/mapper.hh"
#include "trace/replay.hh"
#include "trace/synth.hh"
#include "workload/factory.hh"

using namespace quasar;

namespace
{

std::string
fixturePath(const std::string &name)
{
    return std::string(QUASAR_SOURCE_DIR) + "/tests/traces/" + name;
}

trace::TraceStream
parseGoogle(const std::string &text, trace::ParseOptions opt = {})
{
    trace::StringLines lines(text);
    return trace::parseGoogleTaskEvents(lines, opt);
}

trace::TraceStream
parseAzure(const std::string &text, trace::ParseOptions opt = {})
{
    trace::StringLines lines(text);
    return trace::parseAzureVm(lines, opt);
}

/** A well-formed Google task-events row. */
std::string
gRow(long long t_us, int job, int task, int type, int sched, int prio,
     double cpu, double mem)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%lld,,%d,%d,,%d,user,%d,%d,%g,%g,0,0",
                  t_us, job, task, type, sched, prio, cpu, mem);
    return buf;
}

trace::TraceEvent
ev(trace::TraceEventKind kind, double t, uint64_t id, double cpu,
   double mem, int prio = 0, int sched = 0)
{
    trace::TraceEvent e;
    e.kind = kind;
    e.time_s = t;
    e.instance = id;
    e.cpu = cpu;
    e.memory = mem;
    e.priority = prio;
    e.sched_class = sched;
    return e;
}

/** A manual canonical stream (already sorted by construction). */
trace::TraceStream
makeStream(std::vector<trace::TraceEvent> events)
{
    trace::TraceStream s;
    s.events = std::move(events);
    std::stable_sort(s.events.begin(), s.events.end(),
                     [](const trace::TraceEvent &a,
                        const trace::TraceEvent &b) {
                         return a.time_s < b.time_s;
                     });
    if (!s.events.empty()) {
        s.start_s = s.events.front().time_s;
        s.end_s = s.events.back().time_s;
    }
    return s;
}

} // namespace

// ---------------------------------------------------------------------
// Google parser
// ---------------------------------------------------------------------

TEST(TraceGoogle, ParsesWellFormedRows)
{
    std::string text = gRow(2'000'000, 7, 0, 0, 2, 4, 0.25, 0.1) + "\n" +
                       gRow(5'000'000, 7, 0, 4, 2, 4, 0.25, 0.1) + "\n" +
                       gRow(3'000'000, 7, 1, 0, 2, 4, 0.5, 0.2) + "\n" +
                       gRow(4'000'000, 7, 1, 8, 2, 4, 0.6, 0.2) + "\n";
    trace::TraceStream s = parseGoogle(text);
    EXPECT_EQ(s.format, "google-task-events");
    EXPECT_EQ(s.rows_total, 4u);
    EXPECT_EQ(s.rows_ok, 4u);
    EXPECT_EQ(s.rows_rejected, 0u);
    ASSERT_EQ(s.events.size(), 4u);
    // Sorted by time; kinds mapped SUBMIT->Arrival, FINISH->
    // Departure, UPDATE_RUNNING->Resize.
    EXPECT_EQ(s.events[0].kind, trace::TraceEventKind::Arrival);
    EXPECT_DOUBLE_EQ(s.events[0].time_s, 2.0);
    EXPECT_EQ(s.events[1].kind, trace::TraceEventKind::Arrival);
    EXPECT_EQ(s.events[2].kind, trace::TraceEventKind::Resize);
    EXPECT_EQ(s.events[3].kind, trace::TraceEventKind::Departure);
    // (job, task) folds to a stable instance id; the two rows of task
    // 0 agree and differ from task 1.
    EXPECT_EQ(s.events[0].instance, s.events[3].instance);
    EXPECT_NE(s.events[0].instance, s.events[1].instance);
    EXPECT_DOUBLE_EQ(s.start_s, 2.0);
    EXPECT_DOUBLE_EQ(s.end_s, 5.0);
    EXPECT_EQ(s.events[0].priority, 4);
    EXPECT_EQ(s.events[0].sched_class, 2);
    EXPECT_DOUBLE_EQ(s.events[0].cpu, 0.25);
}

TEST(TraceGoogle, MalformedRowsRejectedWithDiagnostics)
{
    struct Case
    {
        const char *row;
        const char *reason_substr;
    };
    // Every malformed shape the format doc promises to reject, each
    // with a per-line diagnostic naming the reason. One good row in
    // the middle proves rejection is per-row, not per-file.
    const Case cases[] = {
        {"1,,2,3,,0,u,0,0,0.1,0.1,0", "expected 13 fields, got 12"},
        {"1,,2,3,,0,u,0,0,0.1,0.1,0,0,x", "expected 13 fields, got 14"},
        {"zap,,2,3,,0,u,0,0,0.1,0.1,0,0", "timestamp not an integer"},
        {"-4,,2,3,,0,u,0,0,0.1,0.1,0,0", "negative timestamp"},
        {"9223372036854775807,,2,3,,0,u,0,0,0.1,0.1,0,0",
         "outside the trace window"},
        {"1,,x,3,,0,u,0,0,0.1,0.1,0,0", "job id not an integer"},
        {"1,,2,y,,0,u,0,0,0.1,0.1,0,0", "task index not an integer"},
        {"1,,2,3,,9.5,u,0,0,0.1,0.1,0,0", "event type not an integer"},
        {"1,,2,3,,11,u,0,0,0.1,0.1,0,0", "unknown event type 11"},
        {"1,,2,3,,0,u,weird,0,0.1,0.1,0,0",
         "scheduling class not an integer"},
        {"1,,2,3,,0,u,0,high,0.1,0.1,0,0", "priority not an integer"},
        {"1,,2,3,,0,u,0,0,nope,0.1,0,0", "CPU request not a number"},
        {"1,,2,3,,0,u,0,0,0.1,nope,0,0", "memory request not a number"},
        {"1,,2,3,,0,u,0,0,2.5,0.1,0,0", "CPU request out of range"},
        {"1,,2,3,,0,u,0,0,0.1,-0.2,0,0", "memory request out of range"},
    };
    std::string text;
    size_t good_line = 0, lineno = 0;
    for (const Case &c : cases) {
        text += std::string(c.row) + "\n";
        ++lineno;
        if (lineno == 7) {
            text += gRow(1'000'000, 1, 1, 0, 0, 0, 0.1, 0.1) + "\n";
            good_line = ++lineno;
        }
    }
    trace::TraceStream s = parseGoogle(text);
    const size_t n_bad = std::size(cases);
    EXPECT_EQ(s.rows_total, n_bad + 1);
    EXPECT_EQ(s.rows_ok, 1u);
    EXPECT_EQ(s.rows_rejected, n_bad);
    ASSERT_EQ(s.diagnostics.size(), n_bad);
    EXPECT_EQ(s.events.size(), 1u);
    size_t diag = 0;
    for (size_t line = 1; line <= lineno; ++line) {
        if (line == good_line)
            continue;
        EXPECT_EQ(s.diagnostics[diag].line, line);
        EXPECT_NE(s.diagnostics[diag].reason.find(
                      cases[diag].reason_substr),
                  std::string::npos)
            << "line " << line << ": got '"
            << s.diagnostics[diag].reason << "', want substring '"
            << cases[diag].reason_substr << "'";
        ++diag;
    }
}

TEST(TraceGoogle, SourceSchedulerEventsIgnoredNotRejected)
{
    std::string text;
    for (int type : {1, 2, 3})
        text += gRow(1'000'000, 1, type, type, 0, 0, 0.1, 0.1) + "\n";
    trace::TraceStream s = parseGoogle(text);
    EXPECT_EQ(s.rows_ok, 3u);
    EXPECT_EQ(s.rows_ignored, 3u);
    EXPECT_EQ(s.rows_rejected, 0u);
    EXPECT_TRUE(s.events.empty());
}

TEST(TraceGoogle, EmptyInputYieldsEmptyStream)
{
    trace::TraceStream s = parseGoogle("");
    EXPECT_EQ(s.rows_total, 0u);
    EXPECT_TRUE(s.events.empty());
    EXPECT_TRUE(s.diagnostics.empty());
    EXPECT_DOUBLE_EQ(s.spanSeconds(), 0.0);
    // Blank lines are not rows at all.
    s = parseGoogle("\n\n\n");
    EXPECT_EQ(s.rows_total, 0u);
}

TEST(TraceGoogle, OutOfOrderRowsAreSortedStably)
{
    std::string text = gRow(9'000'000, 1, 0, 4, 0, 0, 0.1, 0.1) + "\n" +
                       gRow(1'000'000, 1, 0, 0, 0, 0, 0.1, 0.1) + "\n" +
                       gRow(5'000'000, 2, 0, 0, 0, 0, 0.1, 0.1) + "\n";
    trace::TraceStream s = parseGoogle(text);
    ASSERT_EQ(s.events.size(), 3u);
    EXPECT_DOUBLE_EQ(s.events[0].time_s, 1.0);
    EXPECT_DOUBLE_EQ(s.events[1].time_s, 5.0);
    EXPECT_DOUBLE_EQ(s.events[2].time_s, 9.0);
    EXPECT_DOUBLE_EQ(s.start_s, 1.0);
    EXPECT_DOUBLE_EQ(s.end_s, 9.0);
}

TEST(TraceGoogle, DiagnosticStorageIsCappedCountsAreNot)
{
    std::string text;
    for (int i = 0; i < 10; ++i)
        text += "garbage\n";
    trace::ParseOptions opt;
    opt.max_diagnostics = 4;
    trace::TraceStream s = parseGoogle(text, opt);
    EXPECT_EQ(s.rows_rejected, 10u);
    EXPECT_EQ(s.diagnostics.size(), 4u);
}

TEST(TraceGoogle, UnopenablePathReportsLineZeroDiagnostic)
{
    trace::TraceStream s =
        trace::parseGoogleTaskEventsFile("/nonexistent/trace.csv");
    EXPECT_EQ(s.rows_rejected, 1u);
    ASSERT_EQ(s.diagnostics.size(), 1u);
    EXPECT_EQ(s.diagnostics[0].line, 0u);
    EXPECT_NE(s.diagnostics[0].reason.find("/nonexistent/trace.csv"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Azure parser
// ---------------------------------------------------------------------

TEST(TraceAzure, ParsesHeaderRowsAndNormalizesBuckets)
{
    std::string text = "vmid,created,deleted,category,cores,mem_gb\n"
                       "100,0,600,interactive,4,16\n"
                       "101,50,,delay-insensitive,8,32\n"
                       "102,100,-1,unknown,2,8\n";
    trace::TraceStream s = parseAzure(text);
    EXPECT_EQ(s.format, "azure-vm");
    EXPECT_EQ(s.rows_total, 3u);
    EXPECT_EQ(s.rows_ok, 3u);
    // 3 arrivals + 1 departure (only vm 100 is deleted inside the
    // window; empty and -1 both mean "never").
    ASSERT_EQ(s.events.size(), 4u);
    size_t departures = 0;
    for (const trace::TraceEvent &e : s.events)
        if (e.kind == trace::TraceEventKind::Departure)
            ++departures;
    EXPECT_EQ(departures, 1u);
    // Demands normalized to the largest buckets seen (8 cores, 32 GB).
    EXPECT_DOUBLE_EQ(s.events[0].cpu, 0.5);      // vm 100: 4/8
    EXPECT_DOUBLE_EQ(s.events[0].memory, 0.5);   // 16/32
    // Category hints: interactive maps like the production band.
    EXPECT_EQ(s.events[0].priority, 9);
    EXPECT_EQ(s.events[0].sched_class, 3);
    EXPECT_EQ(s.events[1].priority, 5);  // delay-insensitive
    EXPECT_EQ(s.events[2].priority, 0);  // unknown
}

TEST(TraceAzure, MalformedRowsRejectedWithDiagnostics)
{
    struct Case
    {
        const char *row;
        const char *reason_substr;
    };
    const Case cases[] = {
        {"1,100,200,interactive,4", "expected 6 fields, got 5"},
        {",100,200,interactive,4,8", "empty vm id"},
        {"2,zap,200,interactive,4,8", "create time not a number"},
        {"3,-7,200,interactive,4,8", "negative create time"},
        {"4,100,zap,interactive,4,8", "delete time not a number"},
        {"5,500,400,interactive,4,8",
         "delete time precedes create time"},
        {"6,100,200,interactive,zap,8", "core bucket not a number"},
        {"7,100,200,interactive,0,8", "core bucket out of range"},
        {"8,100,200,interactive,2000,8", "core bucket out of range"},
        {"9,100,200,interactive,4,zap", "memory bucket not a number"},
        {"10,100,200,interactive,4,99999",
         "memory bucket out of range"},
        {"11,100,200,zebra,4,8", "unknown vm category 'zebra'"},
    };
    std::string text;
    for (const Case &c : cases)
        text += std::string(c.row) + "\n";
    trace::TraceStream s = parseAzure(text);
    const size_t n_bad = std::size(cases);
    EXPECT_EQ(s.rows_total, n_bad);
    EXPECT_EQ(s.rows_ok, 0u);
    EXPECT_EQ(s.rows_rejected, n_bad);
    ASSERT_EQ(s.diagnostics.size(), n_bad);
    for (size_t i = 0; i < n_bad; ++i) {
        EXPECT_EQ(s.diagnostics[i].line, i + 1);
        EXPECT_NE(s.diagnostics[i].reason.find(cases[i].reason_substr),
                  std::string::npos)
            << "row " << i << ": got '" << s.diagnostics[i].reason
            << "'";
    }
    EXPECT_TRUE(s.events.empty());
}

TEST(TraceAzure, StringVmIdsHashToDistinctInstances)
{
    std::string text = "ab12cd,0,100,interactive,4,8\n"
                       "ef34gh,0,100,interactive,4,8\n";
    trace::TraceStream s = parseAzure(text);
    ASSERT_EQ(s.rows_ok, 2u);
    ASSERT_GE(s.events.size(), 2u);
    EXPECT_NE(s.events[0].instance, s.events[1].instance);
}

// ---------------------------------------------------------------------
// Checked-in fixtures
// ---------------------------------------------------------------------

TEST(TraceFixtures, GoogleFixtureParsesWithExactDiagnostics)
{
    trace::TraceStream s = trace::parseGoogleTaskEventsFile(
        fixturePath("google_task_events.csv"));
    // tools/gen_trace_fixtures.py plants exactly 9 malformed rows.
    EXPECT_EQ(s.rows_rejected, 9u);
    EXPECT_EQ(s.diagnostics.size(), 9u);
    EXPECT_GT(s.rows_ok, 1000u);
    EXPECT_GT(s.events.size(), 500u);
    EXPECT_GT(s.rows_ignored, 0u);
    EXPECT_GT(s.spanSeconds(), 0.0);
}

TEST(TraceFixtures, AzureFixtureParsesWithExactDiagnostics)
{
    trace::TraceStream s =
        trace::parseAzureVmFile(fixturePath("azure_vmtable.csv"));
    // tools/gen_trace_fixtures.py plants exactly 7 malformed rows.
    EXPECT_EQ(s.rows_rejected, 7u);
    EXPECT_EQ(s.diagnostics.size(), 7u);
    EXPECT_GT(s.rows_ok, 800u);
    EXPECT_GT(s.events.size(), 1000u);
}

TEST(TraceFixtures, AzureFixtureParsesIdenticallyThroughGzip)
{
#if !defined(QUASAR_HAVE_ZLIB)
    GTEST_SKIP() << "built without zlib: no gzip trace path to test";
#else
    const std::string plain = fixturePath("azure_vmtable.csv");
    std::ifstream in(plain, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::stringstream text;
    text << in.rdbuf();
    const std::string body = text.str();

    const std::string gz_path =
        std::string(QUASAR_BINARY_DIR) + "/azure_vmtable_roundtrip.csv.gz";
    gzFile gz = gzopen(gz_path.c_str(), "wb");
    ASSERT_NE(gz, nullptr);
    int written =
        gzwrite(gz, body.data(), static_cast<unsigned>(body.size()));
    ASSERT_EQ(gzclose(gz), Z_OK);
    ASSERT_EQ(written, static_cast<int>(body.size()));

    trace::TraceStream a = trace::parseAzureVmFile(plain);
    trace::TraceStream b = trace::parseAzureVmFile(gz_path);
    std::remove(gz_path.c_str());

    EXPECT_GT(b.rows_ok, 800u);
    EXPECT_EQ(b.format, a.format);
    EXPECT_EQ(b.rows_total, a.rows_total);
    EXPECT_EQ(b.rows_ok, a.rows_ok);
    EXPECT_EQ(b.rows_rejected, a.rows_rejected);
    EXPECT_EQ(b.rows_ignored, a.rows_ignored);
    EXPECT_EQ(b.start_s, a.start_s);
    EXPECT_EQ(b.end_s, a.end_s);
    ASSERT_EQ(b.events.size(), a.events.size());
    for (size_t i = 0; i < a.events.size(); ++i) {
        const trace::TraceEvent &x = a.events[i], &y = b.events[i];
        EXPECT_EQ(y.kind, x.kind) << "event " << i;
        EXPECT_EQ(y.time_s, x.time_s) << "event " << i;
        EXPECT_EQ(y.instance, x.instance) << "event " << i;
        EXPECT_EQ(y.cpu, x.cpu) << "event " << i;
        EXPECT_EQ(y.memory, x.memory) << "event " << i;
        EXPECT_EQ(y.priority, x.priority) << "event " << i;
        EXPECT_EQ(y.sched_class, x.sched_class) << "event " << i;
    }
    ASSERT_EQ(b.diagnostics.size(), a.diagnostics.size());
    for (size_t i = 0; i < a.diagnostics.size(); ++i) {
        EXPECT_EQ(b.diagnostics[i].line, a.diagnostics[i].line);
        EXPECT_EQ(b.diagnostics[i].reason, a.diagnostics[i].reason);
    }
#endif
}

// ---------------------------------------------------------------------
// Mapper
// ---------------------------------------------------------------------

TEST(TraceMapper, ClassifiesByPriorityClassAndDemand)
{
    using K = trace::TraceEventKind;
    trace::TraceStream s = makeStream({
        ev(K::Arrival, 0.0, 1, 0.05, 0.1, /*prio=*/10, /*sched=*/0),
        ev(K::Arrival, 1.0, 2, 0.05, 0.1, /*prio=*/4, /*sched=*/3),
        ev(K::Arrival, 2.0, 3, 0.05, 0.1, /*prio=*/0, /*sched=*/0),
        ev(K::Arrival, 3.0, 4, 0.50, 0.1, /*prio=*/4, /*sched=*/1),
        ev(K::Arrival, 4.0, 5, 0.05, 0.1, /*prio=*/4, /*sched=*/1),
    });
    trace::TraceMapperConfig cfg;
    cfg.source_servers = 1.0;
    cfg.target_servers = 1; // population scale 1: no thin/clone.
    trace::MappedTrace m = trace::mapTrace(s, cfg);
    ASSERT_EQ(m.items.size(), 5u);
    EXPECT_EQ(m.items[0].cls, churn::ChurnClass::Service);
    EXPECT_EQ(m.items[1].cls, churn::ChurnClass::Service);
    EXPECT_EQ(m.items[2].cls, churn::ChurnClass::BestEffort);
    EXPECT_EQ(m.items[3].cls, churn::ChurnClass::Analytics);
    EXPECT_EQ(m.items[4].cls, churn::ChurnClass::SingleNode);
    EXPECT_EQ(m.mix.service, 2u);
    EXPECT_EQ(m.mix.best_effort, 1u);
    EXPECT_EQ(m.mix.analytics, 1u);
    EXPECT_EQ(m.mix.single_node, 1u);
}

TEST(TraceMapper, PairsInstancesAndCountsAnomalies)
{
    using K = trace::TraceEventKind;
    trace::TraceStream s = makeStream({
        ev(K::Arrival, 0.0, 1, 0.1, 0.1),
        ev(K::Resize, 10.0, 1, 0.2, 0.1),
        ev(K::Departure, 50.0, 1, 0.1, 0.1),
        ev(K::Arrival, 20.0, 2, 0.1, 0.1),   // never departs
        ev(K::Arrival, 30.0, 2, 0.1, 0.1),   // duplicate open
        ev(K::Departure, 40.0, 3, 0.1, 0.1), // never arrived
        ev(K::Resize, 45.0, 4, 0.1, 0.1),    // never arrived
        ev(K::Arrival, 100.0, 5, 0.1, 0.1),
    });
    trace::TraceMapperConfig cfg;
    cfg.source_servers = 1.0;
    cfg.target_servers = 1;
    cfg.target_horizon_s = 100.0; // same span: time scale 1.
    trace::MappedTrace m = trace::mapTrace(s, cfg);
    ASSERT_EQ(m.items.size(), 4u);
    EXPECT_EQ(m.duplicate_arrivals, 1u);
    EXPECT_EQ(m.unmatched_departures, 1u);
    EXPECT_EQ(m.unmatched_resizes, 1u);
    EXPECT_EQ(m.phase_changes, 1u);
    EXPECT_TRUE(m.items[0].phase_change);
    // Instance 1: closed at 50 in a 100 s span -> departs mid-run.
    EXPECT_GT(m.items[0].depart_s, 0.0);
    EXPECT_NEAR(m.items[0].depart_s - m.items[0].arrival_s, 50.0, 1e-9);
    // Open-ended instances run to completion.
    EXPECT_DOUBLE_EQ(m.items[1].depart_s, 0.0);
}

TEST(TraceMapper, RescalesTimeToTargetHorizon)
{
    using K = trace::TraceEventKind;
    trace::TraceStream s = makeStream({
        ev(K::Arrival, 1000.0, 1, 0.1, 0.1),
        ev(K::Departure, 2000.0, 1, 0.1, 0.1),
        ev(K::Arrival, 3000.0, 2, 0.1, 0.1),
    });
    trace::TraceMapperConfig cfg;
    cfg.source_servers = 1.0;
    cfg.target_servers = 1;
    cfg.target_horizon_s = 200.0; // 2000 s span -> x0.1
    trace::MappedTrace m = trace::mapTrace(s, cfg);
    ASSERT_EQ(m.items.size(), 2u);
    EXPECT_DOUBLE_EQ(m.time_scale, 0.1);
    EXPECT_DOUBLE_EQ(m.items[0].arrival_s, 0.0);
    EXPECT_DOUBLE_EQ(m.items[1].arrival_s, 200.0);
    EXPECT_NEAR(m.items[0].depart_s, 100.0, 1e-9);
}

TEST(TraceMapper, PopulationThinsAndClonesDeterministically)
{
    using K = trace::TraceEventKind;
    std::vector<trace::TraceEvent> events;
    for (uint64_t i = 0; i < 400; ++i)
        events.push_back(ev(K::Arrival, double(i), 1000 + i, 0.1, 0.1));
    trace::TraceStream s = makeStream(std::move(events));

    trace::TraceMapperConfig cfg;
    cfg.source_servers = 100.0;
    cfg.target_servers = 50; // x0.5: thin roughly in half.
    trace::MappedTrace thin = trace::mapTrace(s, cfg);
    EXPECT_GT(thin.items.size(), 120u);
    EXPECT_LT(thin.items.size(), 280u);

    cfg.target_servers = 300; // x3: every instance cloned 3x.
    trace::MappedTrace grown = trace::mapTrace(s, cfg);
    EXPECT_EQ(grown.items.size(), 1200u);

    // Pure function: identical (stream, config) -> identical result.
    trace::MappedTrace again = trace::mapTrace(s, cfg);
    ASSERT_EQ(again.items.size(), grown.items.size());
    for (size_t i = 0; i < grown.items.size(); ++i) {
        EXPECT_EQ(again.items[i].source_id, grown.items[i].source_id);
        EXPECT_DOUBLE_EQ(again.items[i].arrival_s,
                         grown.items[i].arrival_s);
        EXPECT_EQ(again.items[i].cls, grown.items[i].cls);
    }
    // Clones carry distinct ids and spread over the jitter window.
    EXPECT_NE(grown.items[0].source_id, grown.items[1].source_id);
}

TEST(TraceMapper, InfersSourceServersFromPeakConcurrentCpu)
{
    using K = trace::TraceEventKind;
    // Two overlapping instances of 0.5 CPU each: peak 1.0 machine.
    trace::TraceStream s = makeStream({
        ev(K::Arrival, 0.0, 1, 0.5, 0.1),
        ev(K::Arrival, 10.0, 2, 0.5, 0.1),
        ev(K::Departure, 20.0, 1, 0.5, 0.1),
        ev(K::Departure, 30.0, 2, 0.5, 0.1),
    });
    trace::TraceMapperConfig cfg;
    cfg.target_servers = 10;
    trace::MappedTrace m = trace::mapTrace(s, cfg);
    EXPECT_DOUBLE_EQ(m.source_servers, 1.0);
    EXPECT_DOUBLE_EQ(m.population_scale, 10.0);
}

// ---------------------------------------------------------------------
// Replay determinism
// ---------------------------------------------------------------------

namespace
{

/** Final simulated state of one replay run, for equality checks. */
struct ReplayRun
{
    std::vector<double> work_done;
    std::vector<bool> completed;
    std::vector<bool> killed;
    std::vector<std::vector<ServerId>> hosting;
    size_t scheduled = 0;
    size_t evictions = 0;
};

ReplayRun
runReplayScenario(const trace::MappedTrace &mapped, bool full_rescan)
{
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    core::QuasarConfig cfg;
    cfg.seed = 7;
    cfg.scheduler.full_rescan = full_rescan;
    core::QuasarManager mgr(cluster, registry, cfg);
    workload::WorkloadFactory seeder{stats::Rng(8)};
    mgr.seedOffline(seeder, 12);

    driver::ScenarioDriver drv(
        cluster, registry, mgr,
        driver::DriverConfig{.tick_s = 10.0, .record_every = 4});

    trace::TraceReplayer replayer(mapped, /*seed=*/5);
    replayer.install(cluster, registry, drv);
    drv.run(mapped.horizon_s);

    ReplayRun r;
    for (const churn::ChurnItem &item : replayer.plan()) {
        const workload::Workload &w = registry.get(item.id);
        r.work_done.push_back(w.work_done);
        r.completed.push_back(w.completed);
        r.killed.push_back(w.killed);
        r.hosting.push_back(cluster.serversHosting(item.id));
    }
    r.scheduled = mgr.stats().scheduled;
    r.evictions = mgr.stats().evictions;
    return r;
}

void
expectSameReplayRun(const ReplayRun &a, const ReplayRun &b,
                    const std::string &ctx)
{
    ASSERT_EQ(a.work_done.size(), b.work_done.size()) << ctx;
    for (size_t i = 0; i < a.work_done.size(); ++i) {
        std::string wctx = ctx + " workload " + std::to_string(i);
        EXPECT_DOUBLE_EQ(a.work_done[i], b.work_done[i]) << wctx;
        EXPECT_EQ(a.completed[i], b.completed[i]) << wctx;
        EXPECT_EQ(a.killed[i], b.killed[i]) << wctx;
        EXPECT_EQ(a.hosting[i], b.hosting[i]) << wctx;
    }
    EXPECT_EQ(a.scheduled, b.scheduled) << ctx;
    EXPECT_EQ(a.evictions, b.evictions) << ctx;
}

trace::MappedTrace
mappedGoogleFixture()
{
    trace::TraceStream s = trace::parseGoogleTaskEventsFile(
        fixturePath("google_task_events.csv"));
    trace::TraceMapperConfig cfg;
    cfg.target_horizon_s = 240.0;
    cfg.target_servers = 40;
    cfg.seed = 11;
    return trace::mapTrace(s, cfg);
}

} // namespace

TEST(TraceReplay, AllSchedulerModesBitIdentical)
{
    trace::MappedTrace mapped = mappedGoogleFixture();
    ASSERT_GT(mapped.items.size(), 100u);
    ReplayRun full = runReplayScenario(mapped, true);
    ReplayRun dirty = runReplayScenario(mapped, false);
    expectSameReplayRun(dirty, full, "dirty-vs-full");
    // The run only proves something if the trace actually churned.
    size_t finished = 0;
    for (size_t i = 0; i < full.completed.size(); ++i)
        if (full.completed[i] || full.killed[i])
            ++finished;
    EXPECT_GT(finished, 20u);
}

TEST(TraceReplay, ReReplayIsStable)
{
    trace::MappedTrace mapped = mappedGoogleFixture();
    ReplayRun first = runReplayScenario(mapped, false);
    ReplayRun second = runReplayScenario(mapped, false);
    expectSameReplayRun(first, second, "re-replay");
}

TEST(TraceReplay, PlanMirrorsMappedTrace)
{
    trace::MappedTrace mapped = mappedGoogleFixture();
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    core::QuasarConfig cfg;
    core::QuasarManager mgr(cluster, registry, cfg);
    driver::ScenarioDriver drv(cluster, registry, mgr);
    trace::TraceReplayer replayer(mapped, 5);
    replayer.install(cluster, registry, drv);
    EXPECT_EQ(replayer.counts().arrivals, mapped.items.size());
    EXPECT_EQ(replayer.counts().departures_planned,
              mapped.departures_planned);
    EXPECT_EQ(replayer.counts().phase_changes, mapped.phase_changes);
    ASSERT_EQ(replayer.plan().size(), mapped.items.size());
    for (size_t i = 0; i < mapped.items.size(); ++i) {
        EXPECT_EQ(replayer.plan()[i].cls, mapped.items[i].cls);
        EXPECT_DOUBLE_EQ(replayer.plan()[i].arrival_s,
                         mapped.items[i].arrival_s);
    }
}

// ---------------------------------------------------------------------
// Synthesizer
// ---------------------------------------------------------------------

namespace
{

trace::MappedTrace
syntheticMapped(size_t n, double gap_s, double life_s,
                churn::ChurnClass cls, bool phase_every_4th = false)
{
    trace::MappedTrace m;
    m.horizon_s = double(n) * gap_s + life_s;
    for (size_t i = 0; i < n; ++i) {
        trace::MappedItem item;
        item.source_id = i;
        item.cls = cls;
        item.arrival_s = double(i) * gap_s;
        item.depart_s = item.arrival_s + life_s;
        item.phase_change = phase_every_4th && (i % 4 == 0);
        if (item.phase_change)
            ++m.phase_changes;
        ++m.departures_planned;
        m.items.push_back(item);
    }
    m.mix.single_node = cls == churn::ChurnClass::SingleNode ? n : 0;
    m.mix.analytics = cls == churn::ChurnClass::Analytics ? n : 0;
    m.mix.service = cls == churn::ChurnClass::Service ? n : 0;
    m.mix.best_effort = cls == churn::ChurnClass::BestEffort ? n : 0;
    return m;
}

} // namespace

TEST(TraceSynth, FitsRateMixPhaseFractionAndFixedLifetimes)
{
    trace::MappedTrace m = syntheticMapped(
        200, /*gap=*/2.0, /*life=*/120.0, churn::ChurnClass::Service,
        /*phase_every_4th=*/true);
    trace::SynthFit fit = trace::fitChurnConfig(m, /*seed=*/42);
    EXPECT_EQ(fit.config.seed, 42u);
    EXPECT_NEAR(fit.config.arrival_rate_per_s, 0.5, 1e-9);
    // Evenly spaced arrivals: zero dispersion -> Poisson pacing.
    EXPECT_EQ(fit.config.arrivals, churn::ArrivalKind::Poisson);
    EXPECT_DOUBLE_EQ(fit.config.mix.service, 1.0);
    EXPECT_DOUBLE_EQ(fit.config.mix.single_node, 0.0);
    EXPECT_NEAR(fit.config.phase_change_fraction, 0.25, 1e-9);
    // Constant 120 s lifetimes: CV 0 -> fixed spec at the mean.
    ASSERT_TRUE(fit.service.fitted);
    EXPECT_EQ(fit.config.service_lifetime.kind,
              tracegen::DurationSpec::Kind::Fixed);
    EXPECT_NEAR(fit.config.service_lifetime.mean_s, 120.0, 1e-9);
    EXPECT_DOUBLE_EQ(fit.config.horizon_s, m.horizon_s);
}

TEST(TraceSynth, HeavyTailedGapsSwitchToPareto)
{
    // Mice-and-elephants gaps: mostly 1 s, occasionally 300 s. The
    // CV blows past the Poisson band and the fit goes heavy-tailed.
    trace::MappedTrace m;
    double t = 0.0;
    for (size_t i = 0; i < 300; ++i) {
        trace::MappedItem item;
        item.source_id = i;
        item.cls = churn::ChurnClass::SingleNode;
        item.arrival_s = t;
        m.items.push_back(item);
        t += (i % 25 == 24) ? 300.0 : 1.0;
        ++m.mix.single_node;
    }
    m.horizon_s = t;
    trace::SynthFit fit = trace::fitChurnConfig(m, 1);
    EXPECT_GT(fit.arrival_gap_cv, 1.2);
    EXPECT_EQ(fit.config.arrivals, churn::ArrivalKind::Pareto);
    EXPECT_GT(fit.config.pareto_alpha, 1.0);
    EXPECT_LE(fit.config.pareto_alpha, 3.0);
}

TEST(TraceSynth, TooFewSamplesKeepsEngineDefaults)
{
    trace::MappedTrace m = syntheticMapped(
        3, 10.0, 50.0, churn::ChurnClass::Analytics);
    churn::ChurnConfig defaults;
    trace::SynthFit fit = trace::fitChurnConfig(m, 1);
    EXPECT_FALSE(fit.analytics.fitted);
    EXPECT_EQ(fit.config.analytics_lifetime.kind,
              defaults.analytics_lifetime.kind);
    EXPECT_DOUBLE_EQ(fit.config.analytics_lifetime.mean_s,
                     defaults.analytics_lifetime.mean_s);
}

TEST(TraceSynth, EmptyTraceYieldsDefaultsWithoutCrashing)
{
    trace::MappedTrace empty;
    trace::SynthFit fit = trace::fitChurnConfig(empty, 9, 500.0);
    EXPECT_EQ(fit.arrivals, 0u);
    EXPECT_DOUBLE_EQ(fit.config.horizon_s, 500.0);
}

// ---------------------------------------------------------------------
// Churn plan
// ---------------------------------------------------------------------

namespace
{

/** The manager-independent fields of one planned item. */
using PlannedItem = std::tuple<double, churn::ChurnClass, double, bool>;

/**
 * Install one churn stream under mgr and run it to the horizon. The
 * plan, the arrival count and the registry must agree right after
 * install(), and the run must add nothing to any of them.
 */
std::vector<PlannedItem>
planUnder(driver::ClusterManager &mgr, sim::Cluster &cluster,
          workload::WorkloadRegistry &registry,
          const churn::ChurnConfig &ccfg)
{
    driver::ScenarioDriver drv(cluster, registry, mgr,
                               driver::DriverConfig{.tick_s = 10.0});
    churn::ChurnEngine engine(ccfg);
    engine.install(cluster, registry, drv);
    const size_t planned = engine.plan().size();
    EXPECT_GT(planned, 0u);
    EXPECT_EQ(engine.counts().arrivals, planned);
    EXPECT_EQ(registry.size(), planned);

    drv.run(ccfg.horizon_s);
    EXPECT_EQ(engine.plan().size(), planned);
    EXPECT_EQ(engine.counts().arrivals, planned);
    EXPECT_EQ(registry.size(), planned);

    std::vector<PlannedItem> out;
    for (const churn::ChurnItem &item : engine.plan())
        out.emplace_back(item.arrival_s, item.cls, item.depart_s,
                         item.phase_change);
    return out;
}

} // namespace

TEST(ChurnEngine, PlanIsFixedAtInstall)
{
    // The stream is a pure function of (config, seed): complete once
    // install() returns, and identical under managers that schedule it
    // differently.
    churn::ChurnConfig ccfg;
    ccfg.seed = 21;
    ccfg.arrival_rate_per_s = 0.4;
    ccfg.horizon_s = 200.0;

    sim::Cluster qc = sim::Cluster::localCluster();
    workload::WorkloadRegistry qr;
    core::QuasarManager quasar(qc, qr, core::QuasarConfig{});
    std::vector<PlannedItem> a = planUnder(quasar, qc, qr, ccfg);

    sim::Cluster lc = sim::Cluster::localCluster();
    workload::WorkloadRegistry lr;
    baselines::ReservationLLManager ll(lc, lr);
    std::vector<PlannedItem> b = planUnder(ll, lc, lr, ccfg);

    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------
// Hosting index + active-list fast paths
// ---------------------------------------------------------------------

TEST(HostingIndex, TracksPlacementsRemovalsAndCrashes)
{
    sim::Cluster c = sim::Cluster::localCluster();
    EXPECT_TRUE(c.busyServers().empty());

    sim::TaskShare share;
    share.workload = 3;
    share.cores = 1;
    c.server(5).place(share);
    c.server(2).place(share);
    share.workload = 4;
    c.server(5).place(share);

    EXPECT_EQ(c.serversHosting(3), (std::vector<ServerId>{2, 5}));
    EXPECT_EQ(c.serversHosting(4), (std::vector<ServerId>{5}));
    EXPECT_EQ(c.busyServers(), (std::vector<ServerId>{2, 5}));
    EXPECT_EQ(c.hostingIndex().hostedWorkloads(), 2u);

    EXPECT_EQ(c.removeEverywhere(3), 2u);
    EXPECT_TRUE(c.serversHosting(3).empty());
    EXPECT_EQ(c.busyServers(), (std::vector<ServerId>{5}));

    c.server(5).markDown(); // crash drops the remaining share.
    EXPECT_TRUE(c.serversHosting(4).empty());
    EXPECT_TRUE(c.busyServers().empty());
    EXPECT_EQ(c.hostingIndex().hostedWorkloads(), 0u);
}

TEST(HostingIndex, MatchesDirectScanAfterAReplayRun)
{
    trace::MappedTrace mapped = mappedGoogleFixture();
    sim::Cluster cluster = sim::Cluster::localCluster();
    workload::WorkloadRegistry registry;
    core::QuasarConfig cfg;
    core::QuasarManager mgr(cluster, registry, cfg);
    workload::WorkloadFactory seeder{stats::Rng(8)};
    mgr.seedOffline(seeder, 12);
    driver::ScenarioDriver drv(cluster, registry, mgr,
                               driver::DriverConfig{.tick_s = 10.0});
    trace::TraceReplayer replayer(mapped, 5);
    replayer.install(cluster, registry, drv);
    drv.run(mapped.horizon_s);

    // Release-mode mirror of the QUASAR_VERIFY sweep: the maintained
    // index must equal a direct scan, entry for entry, order and all.
    std::vector<ServerId> busy_scan;
    for (size_t s = 0; s < cluster.size(); ++s)
        if (!cluster.server(ServerId(s)).tasks().empty())
            busy_scan.push_back(ServerId(s));
    EXPECT_EQ(cluster.busyServers(), busy_scan);
    for (WorkloadId id : registry.all()) {
        std::vector<ServerId> scan;
        for (size_t s = 0; s < cluster.size(); ++s)
            if (cluster.server(ServerId(s)).hosts(id))
                scan.push_back(ServerId(s));
        EXPECT_EQ(cluster.serversHosting(id), scan) << "workload " << id;
    }
}

TEST(WorkloadRegistry, ActiveListCompactsFinishedWorkloads)
{
    workload::WorkloadRegistry registry;
    workload::WorkloadFactory factory{stats::Rng(3)};
    for (int i = 0; i < 5; ++i)
        registry.add(factory.bestEffortJob("wl"));
    EXPECT_EQ(registry.active(),
              (std::vector<WorkloadId>{0, 1, 2, 3, 4}));
    registry.get(1).completed = true;
    registry.get(3).killed = true;
    EXPECT_EQ(registry.active(), (std::vector<WorkloadId>{0, 2, 4}));
    // Stable across repeated calls, and new arrivals append.
    EXPECT_EQ(registry.active(), (std::vector<WorkloadId>{0, 2, 4}));
    registry.add(factory.bestEffortJob("wl"));
    EXPECT_EQ(registry.active(),
              (std::vector<WorkloadId>{0, 2, 4, 5}));
}
