/**
 * @file
 * quasar-lint core: the structure-aware static analyzer behind the
 * CLI in main.cc.
 *
 * Grown from a token-level linter into a lightweight whole-tree
 * analyzer — still no libclang (it must build everywhere the project
 * does, in milliseconds): a preprocessor-stripping tokenizer feeds
 *
 *  - per-file token rules (the original determinism/hygiene set),
 *  - a declaration/scope index of every function definition,
 *  - an #include graph with cycle detection and architecture-layer
 *    ordering, and
 *  - a call-graph-lite reachability pass (edges resolved by
 *    unqualified name, so virtual dispatch and overloads are
 *    over-approximated — the cone can only be too big, never too
 *    small).
 *
 * Three structural rule families ride on those indexes:
 *
 *  - mutation-journaling: every non-const member function of a
 *    journaled class (sim::Server) that writes a placement-relevant
 *    field must call bumpVersion(); the derived mutator list is
 *    cross-checked against src/verify/journaled_mutators.def so the
 *    static layer and the QUASAR_VERIFY runtime death tests can never
 *    silently diverge.
 *  - decision-purity: the float-eq / unordered-iter determinism rules
 *    applied to the call-graph cone reachable from
 *    GreedyScheduler::allocate and MaintainedOrder::refreshIndex /
 *    refreshEntryIndexed, catching helpers pulled onto the decision
 *    path from directories the kDecisionDirs list never covered; in a
 *    run over src/ (one that analyzes src/core/scheduler.cc), an
 *    entry that names no definition is an error too. (unseeded-rng /
 *    wallclock already apply tree-wide — a strict superset of the
 *    cone.)
 *  - layering / include-cycle: the src/ architecture order (common,
 *    interference, stats → linalg, topology, tracegen → sim →
 *    workload → profiling → driver → core, churn → baselines, trace,
 *    verify → bench, tests, examples, tools) enforced edge by edge,
 *    plus file-level include-cycle detection.
 *
 * Everything is exposed as a library so the analyzer's own internals
 * are unit-testable (tools/quasar-lint/test_analyzer.cc) against
 * virtual in-memory file trees.
 */

#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace quasarlint
{

/** One reported violation. */
struct Finding
{
    std::string file;
    size_t line = 0;
    std::string rule;
    std::string message;

    bool operator<(const Finding &o) const
    {
        if (file != o.file)
            return file < o.file;
        if (line != o.line)
            return line < o.line;
        return rule < o.rule;
    }
    bool operator==(const Finding &o) const
    {
        return file == o.file && line == o.line && rule == o.rule;
    }
};

/** Stable rule identifiers, in --list-rules order. */
extern const std::vector<std::string> kRuleIds;

/** One source file split into physical lines, with comments and
 *  string/char literals blanked out (line structure preserved) so the
 *  token rules never fire inside either. */
struct FileText
{
    std::string path;              ///< as given, '/'-separated.
    std::vector<std::string> raw;
    std::vector<std::string> code; ///< comments/strings blanked.
    /** Rules allowed per line (1-based), from
     *  `// quasar-lint: allow(<rule>)` comments. A suppression binds
     *  to exactly one line: the line the comment starts on when code
     *  precedes it, otherwise the first code-bearing position after
     *  the comment ends. */
    std::map<size_t, std::set<std::string>> allowed;
};

/** Parse in-memory text into a FileText (unit tests, string trees). */
void loadFromString(const std::string &path, const std::string &text,
                    FileText &out);
/** Load from disk; false when unreadable. */
bool loadFile(const std::string &path, FileText &out);

/** One function definition found by the declaration/scope scanner. */
struct FunctionDef
{
    std::string cls;  ///< enclosing or explicit class ("" for free).
    std::string name; ///< unqualified name.
    std::string file;
    size_t line = 0; ///< 1-based line of the name token.
    /** Body extent: from just after '{' to just before its match. */
    size_t body_begin_line = 0, body_end_line = 0;
    size_t body_begin_col = 0, body_end_col = 0;
    bool is_const = false;

    std::string qualified() const
    {
        return cls.empty() ? name : cls + "::" + name;
    }
};

/** All function definitions of one analyzed tree. */
struct DeclIndex
{
    std::vector<FunctionDef> functions;
    /** unqualified name → indexes into functions. */
    std::map<std::string, std::vector<size_t>> by_name;
};

/** A resolved quoted-include edge. */
struct IncludeEdge
{
    std::string to;  ///< resolved path of the included file.
    size_t line = 0; ///< 1-based line of the directive.
};

/** Resolved #include graph over the analyzed file set. */
struct IncludeGraph
{
    std::map<std::string, std::vector<IncludeEdge>> edges;
};

/**
 * Whole-tree analyzer. Fill in the inputs, call run(); the index
 * accessors are valid afterwards.
 */
class Analyzer
{
  public:
    /** Lintable source files ('/'-separated paths). */
    std::vector<std::string> paths;
    /** Mutator-list .def files (journaled_mutators.def). When empty,
     *  the def cross-check is skipped. */
    std::vector<std::string> def_paths;
    /** When non-empty, files load from this map instead of disk
     *  (unit tests run the analyzer over virtual trees). */
    std::map<std::string, std::string> virtual_files;

    /** Run every rule; findings are suppression-filtered + sorted. */
    std::vector<Finding> run();

    /** Indexes built by run() (empty before). */
    const DeclIndex &decls() const { return decls_; }
    const IncludeGraph &includeGraph() const { return include_graph_; }
    /** Qualified names of the decision cone (see decision-purity). */
    const std::set<std::string> &decisionCone() const { return cone_; }
    /** Journaled-mutator names derived from the class scan, sorted. */
    const std::vector<std::string> &derivedMutators() const
    {
        return derived_mutators_;
    }

  private:
    const FileText *text(const std::string &path);
    bool readRaw(const std::string &path, std::string &out) const;
    void buildDeclIndex();
    void buildIncludeGraph();
    void buildCallGraph();
    void ruleLayering(std::vector<Finding> &out);
    void ruleIncludeCycles(std::vector<Finding> &out);
    void ruleMutationJournaling(std::vector<Finding> &out);
    void ruleDecisionPurity(std::vector<Finding> &out);

    std::map<std::string, FileText> cache_;
    DeclIndex decls_;
    IncludeGraph include_graph_;
    /** function index → callee names (call-graph-lite). */
    std::vector<std::set<std::string>> callees_;
    std::set<std::string> cone_;
    std::vector<std::string> derived_mutators_;
};

/** Lint one file with the per-file token rules only (no structural
 *  passes); suppressed findings are dropped. */
std::vector<Finding> lintFile(const std::string &path);

/** Expand files/dirs into (lintable sources, mutator .def files),
 *  skipping build output, .git, and the self-test fixture. */
void collectInputs(const std::vector<std::string> &roots,
                   std::vector<std::string> &sources,
                   std::vector<std::string> &defs);

/** Fixture self-test: every expect(<rule>) marker must be matched by
 *  exactly one finding, every rule must be exercised, zero over-fires
 *  tree-wide. Returns a process exit status. */
int selfTest(const std::string &fixture_dir);

} // namespace quasarlint
