/**
 * @file
 * Unit tests for the quasar-lint analyzer internals, run against
 * virtual in-memory file trees (Analyzer::virtual_files) so each test
 * controls exactly what the analyzer sees — plus the MutatorSync
 * suite, which runs the real src/ tree and asserts the statically
 * derived journaled-mutator list equals the X-macro list driving the
 * QUASAR_VERIFY death tests.
 */

#include "analyzer.hh"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

using namespace quasarlint;

namespace
{

std::vector<std::string>
rulesAt(const std::vector<Finding> &fs, const std::string &file,
        size_t line)
{
    std::vector<std::string> out;
    for (const Finding &f : fs)
        if (f.file == file && f.line == line)
            out.push_back(f.rule);
    return out;
}

size_t
countRule(const std::vector<Finding> &fs, const std::string &rule)
{
    size_t n = 0;
    for (const Finding &f : fs)
        n += f.rule == rule;
    return n;
}

Analyzer
makeVirtual(std::map<std::string, std::string> files)
{
    Analyzer a;
    for (const auto &[path, text] : files) {
        (void)text;
        a.paths.push_back(path);
    }
    a.virtual_files = std::move(files);
    return a;
}

} // namespace

// -------------------------------------------------------------------
// Suppression binding (the scope-leak fix)
// -------------------------------------------------------------------

TEST(Suppression, TrailingCommentBindsToItsOwnLineOnly)
{
    FileText ft;
    loadFromString("src/core/x.cc",
                   "double a = 0;\n"
                   "bool b = a == 1.0; // quasar-lint: allow(float-eq)\n"
                   "bool c = a == 2.0;\n",
                   ft);
    ASSERT_EQ(ft.allowed.size(), 1u);
    EXPECT_TRUE(ft.allowed.count(2));
    EXPECT_TRUE(ft.allowed.at(2).count("float-eq"));
}

TEST(Suppression, StandaloneCommentBindsToNextLineOnly)
{
    FileText ft;
    loadFromString("src/core/x.cc",
                   "// quasar-lint: allow(float-eq)\n"
                   "bool b = 0.0 == 1.0;\n"
                   "bool c = 0.0 == 2.0;\n",
                   ft);
    ASSERT_EQ(ft.allowed.size(), 1u);
    EXPECT_TRUE(ft.allowed.count(2));
    EXPECT_FALSE(ft.allowed.count(3)); // the old leak
}

TEST(Suppression, BlockCommentNoLongerLeaksToSecondLine)
{
    FileText ft;
    loadFromString("src/core/x.cc",
                   "/* quasar-lint: allow(float-eq) */\n"
                   "bool b = 0.0 == 1.0;\n"
                   "bool c = 0.0 == 2.0;\n",
                   ft);
    ASSERT_EQ(ft.allowed.size(), 1u);
    EXPECT_TRUE(ft.allowed.count(2));
    EXPECT_FALSE(ft.allowed.count(3)); // the old leak
}

TEST(Suppression, TrailingBlockCommentBindsToItsOwnLine)
{
    FileText ft;
    loadFromString("src/core/x.cc",
                   "bool b = 0.0 == 1.0; /* quasar-lint: allow(float-eq) */\n"
                   "bool c = 0.0 == 2.0;\n",
                   ft);
    ASSERT_EQ(ft.allowed.size(), 1u);
    EXPECT_TRUE(ft.allowed.count(1));
}

// -------------------------------------------------------------------
// Include graph: resolution, cycles, layer-edge classification
// -------------------------------------------------------------------

TEST(IncludeGraph, ResolvesQuotedIncludesBySuffix)
{
    Analyzer a = makeVirtual({
        {"src/sim/a.hh", "#pragma once\n#include \"sim/b.hh\"\n"},
        {"src/sim/b.hh", "#pragma once\n"},
    });
    (void)a.run();
    const auto &edges = a.includeGraph().edges;
    ASSERT_TRUE(edges.count("src/sim/a.hh"));
    ASSERT_EQ(edges.at("src/sim/a.hh").size(), 1u);
    EXPECT_EQ(edges.at("src/sim/a.hh")[0].to, "src/sim/b.hh");
    EXPECT_EQ(edges.at("src/sim/a.hh")[0].line, 2u);
}

TEST(IncludeGraph, DetectsCycleOnceAtFirstMember)
{
    Analyzer a = makeVirtual({
        {"src/sim/a.hh", "#pragma once\n#include \"sim/b.hh\"\n"},
        {"src/sim/b.hh", "#pragma once\n#include \"sim/a.hh\"\n"},
        {"src/sim/c.hh", "#pragma once\n#include \"sim/a.hh\"\n"},
    });
    std::vector<Finding> fs = a.run();
    EXPECT_EQ(countRule(fs, "include-cycle"), 1u);
    EXPECT_EQ(rulesAt(fs, "src/sim/a.hh", 2),
              std::vector<std::string>{"include-cycle"});
}

TEST(IncludeGraph, LayerEdgeClassification)
{
    Analyzer a = makeVirtual({
        // Downward / same-layer edges are legal...
        {"src/core/engine.hh",
         "#pragma once\n#include \"stats/low.hh\"\n"
         "#include \"sim/model.hh\"\n"},
        {"src/sim/model.hh",
         "#pragma once\n#include \"topology/map.hh\"\n"},
        {"src/topology/map.hh", "#pragma once\n"},
        {"src/stats/low.hh", "#pragma once\n"},
        // ...an upward stats -> core edge is not.
        {"src/stats/up.hh",
         "#pragma once\n#include \"core/engine.hh\"\n"},
    });
    std::vector<Finding> fs = a.run();
    EXPECT_EQ(countRule(fs, "layering"), 1u);
    EXPECT_EQ(rulesAt(fs, "src/stats/up.hh", 2),
              std::vector<std::string>{"layering"});
}

// -------------------------------------------------------------------
// Call-graph cone: conservative over-approximation
// -------------------------------------------------------------------

TEST(DecisionCone, OverApproximatesAcrossOverloadsNeverUnder)
{
    Analyzer a = makeVirtual({
        {"src/core/sched.cc",
         "class GreedyScheduler {\n"
         "  public:\n"
         "    void allocate() { frob(); }\n"
         "};\n"},
        // Two unrelated classes define frob(); name-based resolution
        // must pull BOTH into the cone (virtual dispatch/overload
        // fallback is conservative).
        {"src/sim/helpers.hh",
         "#pragma once\n"
         "struct A {\n"
         "    void frob() { int x = 1; (void)x; }\n"
         "};\n"
         "struct B {\n"
         "    void frob() { double y = 0; bool z = y == 0.5; (void)z; }\n"
         "};\n"
         "struct C {\n"
         "    void lonely() { double y = 0; bool z = y == 0.5; (void)z; }\n"
         "};\n"},
    });
    std::vector<Finding> fs = a.run();
    EXPECT_TRUE(a.decisionCone().count("GreedyScheduler::allocate"));
    EXPECT_TRUE(a.decisionCone().count("A::frob"));
    EXPECT_TRUE(a.decisionCone().count("B::frob"));
    EXPECT_FALSE(a.decisionCone().count("C::lonely"));
    // Purity violations fire inside the cone (B::frob, line 6)...
    EXPECT_EQ(rulesAt(fs, "src/sim/helpers.hh", 6),
              std::vector<std::string>{"decision-purity"});
    // ...but not in unreachable code (C::lonely) — zero over-fires.
    EXPECT_EQ(countRule(fs, "decision-purity"), 1u);
}

TEST(DecisionCone, FollowsTransitiveCalls)
{
    Analyzer a = makeVirtual({
        {"src/core/sched.cc",
         "class MaintainedOrder {\n"
         "  public:\n"
         "    void refreshIndex() { hop(); }\n"
         "};\n"},
        {"src/workload/chain.cc",
         "void deep() { double y = 0; bool z = y != 2.5; (void)z; }\n"
         "void hop() { deep(); }\n"},
    });
    std::vector<Finding> fs = a.run();
    EXPECT_TRUE(a.decisionCone().count("deep"));
    EXPECT_EQ(rulesAt(fs, "src/workload/chain.cc", 1),
              std::vector<std::string>{"decision-purity"});
}

TEST(DecisionCone, EntryNamingNoDefinitionFailsASrcRun)
{
    // A run over src/ (it analyzes src/core/scheduler.cc) after one of
    // the maintained order's entry points was renamed: the cone would
    // lose it without a word, so the analyzer reports it.
    const std::string scheduler = "class GreedyScheduler {\n"
                                  "  public:\n"
                                  "    void allocate() {}\n"
                                  "};\n";
    Analyzer renamed = makeVirtual({
        {"src/core/scheduler.cc", scheduler},
        {"src/core/candidate_order.cc",
         "class MaintainedOrder {\n"
         "  public:\n"
         "    void refreshIndex() {}\n"
         "    void refreshEntryRenamed() {}\n"
         "};\n"},
    });
    std::vector<Finding> fs = renamed.run();
    ASSERT_EQ(countRule(fs, "decision-purity"), 1u);
    EXPECT_EQ(rulesAt(fs, "src/core/scheduler.cc", 0),
              std::vector<std::string>{"decision-purity"});
    for (const Finding &f : fs) {
        if (f.rule == "decision-purity") {
            EXPECT_NE(f.message.find("MaintainedOrder::refreshEntryIndexed"),
                      std::string::npos)
                << f.message;
        }
    }

    // Every entry defined: clean, and each one seeds the cone.
    Analyzer whole = makeVirtual({
        {"src/core/scheduler.cc", scheduler},
        {"src/core/candidate_order.cc",
         "class MaintainedOrder {\n"
         "  public:\n"
         "    void refreshIndex() {}\n"
         "    void refreshEntryIndexed() {}\n"
         "};\n"},
    });
    fs = whole.run();
    EXPECT_EQ(countRule(fs, "decision-purity"), 0u);
    for (const char *entry :
         {"GreedyScheduler::allocate", "MaintainedOrder::refreshIndex",
          "MaintainedOrder::refreshEntryIndexed"})
        EXPECT_TRUE(whole.decisionCone().count(entry)) << entry;
}

TEST(DecisionCone, RealTreeSeedsEveryEntry)
{
    // On the real tree every entry resolves, and the walk reaches the
    // candidate source's drain through the virtual call.
    Analyzer a;
    collectInputs({std::string(QUASAR_LINT_SOURCE_DIR) + "/src"},
                  a.paths, a.def_paths);
    std::vector<Finding> fs = a.run();
    for (const Finding &f : fs)
        EXPECT_NE(f.rule, "decision-purity")
            << f.file << ":" << f.line << ": " << f.message;
    for (const char *fn :
         {"GreedyScheduler::allocate", "MaintainedOrder::refreshIndex",
          "MaintainedOrder::refreshEntryIndexed",
          "MaintainedOrder::nextCandidate", "SortedScan::nextCandidate"})
        EXPECT_TRUE(a.decisionCone().count(fn)) << fn;
}

// -------------------------------------------------------------------
// Mutation-journaling
// -------------------------------------------------------------------

namespace
{

const char kServerHh[] =
    "#pragma once\n"                                              // 1
    "class Server {\n"                                            // 2
    "  public:\n"                                                 // 3
    "    void good() {\n"                                         // 4
    "        tasks_ = 1;\n"                                       // 5
    "        bumpVersion();\n"                                    // 6
    "    }\n"                                                     // 7
    "    void bad() { state_ = 2; }\n"                            // 8
    "    int peek() const { return state_; }\n"                   // 9
    "    void bumpVersion() { ++version_; }\n"                    // 10
    "  private:\n"                                                // 11
    "    int tasks_ = 0;\n"                                       // 12
    "    int state_ = 0;\n"                                       // 13
    "    int version_ = 0;\n"                                     // 14
    "};\n";                                                       // 15

} // namespace

TEST(MutationJournaling, UnbumpedWriteIsFlaggedBumpedIsNot)
{
    Analyzer a = makeVirtual({{"src/sim/server.hh", kServerHh}});
    std::vector<Finding> fs = a.run();
    EXPECT_EQ(countRule(fs, "mutation-journaling"), 1u);
    EXPECT_EQ(rulesAt(fs, "src/sim/server.hh", 8),
              std::vector<std::string>{"mutation-journaling"});
    EXPECT_EQ(a.derivedMutators(), std::vector<std::string>{"good"});
}

TEST(MutationJournaling, DefCrossCheckFlagsGhostAndMissing)
{
    Analyzer a = makeVirtual({
        {"src/sim/server.hh",
         "#pragma once\n"                                         // 1
         "class Server {\n"                                       // 2
         "  public:\n"                                            // 3
         "    void good() { tasks_ = 1; bumpVersion(); }\n"       // 4
         "    void extra() { tasks_ = 2; bumpVersion(); }\n"      // 5
         "    void bumpVersion() {}\n"                            // 6
         "  private:\n"                                           // 7
         "    int tasks_ = 0;\n"                                  // 8
         "};\n"},
        {"src/verify/journaled_mutators.def",
         "QUASAR_JOURNALED_MUTATOR(good)\n"
         "QUASAR_JOURNALED_MUTATOR(ghost)\n"},
    });
    a.paths.pop_back(); // the .def is an input, not a lintable source
    a.def_paths = {"src/verify/journaled_mutators.def"};
    std::vector<Finding> fs = a.run();
    // 'extra' bumps but is missing from the list -> flagged at its
    // definition; 'ghost' is listed but does not exist -> flagged at
    // the .def line.
    EXPECT_EQ(rulesAt(fs, "src/sim/server.hh", 5),
              std::vector<std::string>{"mutation-journaling"});
    EXPECT_EQ(rulesAt(fs, "src/verify/journaled_mutators.def", 2),
              std::vector<std::string>{"mutation-journaling"});
    EXPECT_EQ(countRule(fs, "mutation-journaling"), 2u);
}

TEST(MutationJournaling, CatchesNonAssignmentWrites)
{
    Analyzer a = makeVirtual({
        {"src/sim/server.hh",
         "#pragma once\n"                                         // 1
         "class Server {\n"                                       // 2
         "  public:\n"                                            // 3
         "    void viaMethod() { tasks_.push_back(1); }\n"        // 4
         "    void viaSwap(Server &o) { o.spare.swap(tasks_); }\n" // 5
         "    void viaRangeFor() {\n"                             // 6
         "        for (int &t : tasks_) { t += 1; }\n"            // 7
         "    }\n"                                                // 8
         "    void readOnly() {\n"                                // 9
         "        for (const int &t : tasks_) { (void)t; }\n"     // 10
         "        bool e = tasks_.empty(); (void)e;\n"            // 11
         "    }\n"                                                // 12
         "  private:\n"                                           // 13
         "    std::vector<int> tasks_;\n"                         // 14
         "    std::vector<int> spare;\n"                          // 15
         "};\n"},
    });
    std::vector<Finding> fs = a.run();
    EXPECT_EQ(countRule(fs, "mutation-journaling"), 3u);
    EXPECT_EQ(rulesAt(fs, "src/sim/server.hh", 4),
              std::vector<std::string>{"mutation-journaling"});
    EXPECT_EQ(rulesAt(fs, "src/sim/server.hh", 5),
              std::vector<std::string>{"mutation-journaling"});
    EXPECT_EQ(rulesAt(fs, "src/sim/server.hh", 7),
              std::vector<std::string>{"mutation-journaling"});
    // readOnly (const iteration, non-mutating calls) stays clean.
    EXPECT_TRUE(rulesAt(fs, "src/sim/server.hh", 10).empty());
    EXPECT_TRUE(rulesAt(fs, "src/sim/server.hh", 11).empty());
}

// -------------------------------------------------------------------
// MutatorSync: static list == runtime death-test list, on the real
// tree (QUASAR_LINT_SOURCE_DIR is the repo root).
// -------------------------------------------------------------------

TEST(MutatorSync, StaticListMatchesDeathTestList)
{
    Analyzer a;
    collectInputs({std::string(QUASAR_LINT_SOURCE_DIR) + "/src"},
                  a.paths, a.def_paths);
    ASSERT_FALSE(a.paths.empty());
    ASSERT_FALSE(a.def_paths.empty());
    std::vector<Finding> fs = a.run();
    for (const Finding &f : fs)
        EXPECT_NE(f.rule, "mutation-journaling")
            << f.file << ":" << f.line << ": " << f.message;

    const std::vector<std::string> death_test_list = {
#define QUASAR_JOURNALED_MUTATOR(name) #name,
#include "verify/journaled_mutators.def"
#undef QUASAR_JOURNALED_MUTATOR
    };
    EXPECT_EQ(a.derivedMutators(), death_test_list);
}
