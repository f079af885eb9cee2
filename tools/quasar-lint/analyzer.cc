/**
 * @file
 * quasar-lint core, part 1: file loading (comment/literal blanking and
 * suppression binding), the original per-file token rules, input
 * collection, the fixture self-test, and JSON/baseline I/O. The
 * structural passes (declaration index, include graph, call graph and
 * the rules built on them) live in structure.cc.
 */

#include "analyzer.hh"
#include "analyzer_internal.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace fs = std::filesystem;

namespace quasarlint
{

const std::vector<std::string> kRuleIds = {
    "unseeded-rng",   "raw-mt19937",
    "wallclock",      "unordered-iter",
    "float-eq",       "pragma-once",
    "include-hygiene", "mutation-journaling",
    "decision-purity", "layering",
    "include-cycle",
};

namespace detail
{

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
isHeader(const std::string &path)
{
    return endsWith(path, ".hh") || endsWith(path, ".hpp") ||
           endsWith(path, ".h");
}

bool
lintableFile(const std::string &path)
{
    return endsWith(path, ".cc") || endsWith(path, ".hh") ||
           endsWith(path, ".cpp") || endsWith(path, ".hpp") ||
           endsWith(path, ".h");
}

/** Paths (suffix match, '/'-normalized) exempt from the RNG/clock
 *  rules: the RNG layer itself and the sanctioned timing layer. */
const char *const kRngAllowlist[] = {
    "src/stats/rng.hh",
    "src/stats/rng.cc",
    "src/stats/timing.hh",
};

/** Directories whose code decides placements: iteration order and
 *  float compares there change results, not just style. The fixture
 *  subdir makes the decision-path rules self-testable. */
const char *const kDecisionDirs[] = {
    "src/core/",
    "src/baselines/",
    "src/churn/",
    "src/trace/",
    "src/topology/",
    "fixture/decision/",
};

bool
onRngAllowlist(const std::string &path)
{
    for (const char *suffix : kRngAllowlist)
        if (endsWith(path, suffix))
            return true;
    return false;
}

bool
inDecisionDir(const std::string &path)
{
    for (const char *dir : kDecisionDirs)
        if (path.find(dir) != std::string::npos)
            return true;
    return false;
}

std::vector<std::pair<size_t, std::string>>
identifiers(const std::string &line)
{
    std::vector<std::pair<size_t, std::string>> out;
    size_t i = 0;
    while (i < line.size()) {
        if (isIdentChar(line[i]) &&
            !std::isdigit(static_cast<unsigned char>(line[i]))) {
            size_t start = i;
            while (i < line.size() && isIdentChar(line[i]))
                ++i;
            out.emplace_back(start, line.substr(start, i - start));
        } else {
            ++i;
        }
    }
    return out;
}

bool
isCall(const std::string &line, size_t col, size_t len)
{
    size_t i = col + len;
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t'))
        ++i;
    return i < line.size() && line[i] == '(';
}

bool
isQualifiedNonStd(const std::string &line, size_t col)
{
    size_t i = col;
    while (i > 0 && (line[i - 1] == ' ' || line[i - 1] == '\t'))
        --i;
    if (i == 0)
        return false;
    if (line[i - 1] == '.')
        return true;
    if (i >= 2 && line[i - 2] == '-' && line[i - 1] == '>')
        return true;
    if (i >= 2 && line[i - 2] == ':' && line[i - 1] == ':') {
        // Qualified: allowed only when the qualifier is std.
        size_t q = i - 2;
        while (q > 0 && isIdentChar(line[q - 1]))
            --q;
        return line.compare(q, (i - 2) - q, "std") != 0;
    }
    return false;
}

bool
isFloatLiteral(const std::string &tok)
{
    if (tok.empty())
        return false;
    bool digit = false, dot = false, expo = false;
    size_t i = 0;
    for (; i < tok.size(); ++i) {
        char c = tok[i];
        if (std::isdigit(static_cast<unsigned char>(c))) {
            digit = true;
        } else if (c == '.' && !dot && !expo) {
            dot = true;
        } else if ((c == 'e' || c == 'E') && digit && !expo) {
            expo = true;
            if (i + 1 < tok.size() &&
                (tok[i + 1] == '+' || tok[i + 1] == '-'))
                ++i;
        } else if ((c == 'f' || c == 'F') && i + 1 == tok.size()) {
            // trailing float suffix
        } else {
            return false;
        }
    }
    return digit && (dot || expo);
}

std::string
operandToken(const std::string &line, size_t i, int dir)
{
    if (dir < 0) {
        size_t p = i;
        while (p > 0 && (line[p - 1] == ' ' || line[p - 1] == '\t'))
            --p;
        size_t end = p;
        while (p > 0 && (isIdentChar(line[p - 1]) || line[p - 1] == '.'))
            --p;
        return line.substr(p, end - p);
    }
    size_t p = i;
    while (p < line.size() && (line[p] == ' ' || line[p] == '\t'))
        ++p;
    size_t start = p;
    if (p < line.size() && (line[p] == '-' || line[p] == '+')) {
        // Unary sign on a literal ("x == -1.0"); drop it so the
        // remainder still matches the float-literal pattern.
        ++p;
        ++start;
    }
    while (p < line.size() && (isIdentChar(line[p]) || line[p] == '.'))
        ++p;
    return line.substr(start, p - start);
}

void
scanFloatEq(const std::string &line,
            const std::function<void(size_t, bool)> &emit)
{
    for (size_t i = 0; i + 1 < line.size(); ++i) {
        bool eq = line[i] == '=' && line[i + 1] == '=';
        bool ne = line[i] == '!' && line[i + 1] == '=';
        if (!eq && !ne)
            continue;
        char before = i > 0 ? line[i - 1] : '\0';
        char after = i + 2 < line.size() ? line[i + 2] : '\0';
        if (before == '=' || before == '!' || before == '<' ||
            before == '>' || after == '=')
            continue; // ===, <=, >=, != already consumed, etc.
        std::string lhs = operandToken(line, i, -1);
        std::string rhs = operandToken(line, i + 2, +1);
        if (isFloatLiteral(lhs) || isFloatLiteral(rhs)) {
            emit(i, eq);
            ++i;
        }
    }
}

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

std::vector<std::string>
preprocessorStripped(const FileText &f)
{
    std::vector<std::string> pp;
    pp.reserve(f.code.size());
    bool continued = false;
    for (size_t li = 0; li < f.code.size(); ++li) {
        const std::string &line = f.code[li];
        size_t first = line.find_first_not_of(" \t");
        bool directive =
            continued ||
            (first != std::string::npos && line[first] == '#');
        // Raw view: a directive's backslash continuation extends it.
        const std::string &raw = f.raw[li];
        continued = directive && !raw.empty() && raw.back() == '\\';
        pp.push_back(directive ? std::string(line.size(), ' ') : line);
    }
    return pp;
}

} // namespace detail

using namespace detail;

namespace
{

/** Parse `quasar-lint: allow(a,b)` out of a comment's text. */
std::set<std::string>
parseAllowances(const std::string &comment)
{
    std::set<std::string> rules;
    const std::string key = "quasar-lint:";
    size_t k = comment.find(key);
    if (k == std::string::npos)
        return rules;
    size_t open = comment.find("allow(", k);
    if (open == std::string::npos)
        return rules;
    size_t close = comment.find(')', open);
    if (close == std::string::npos)
        return rules;
    std::string list = comment.substr(open + 6, close - open - 6);
    std::string cur;
    for (char c : list + ",") {
        if (c == ',') {
            if (!cur.empty())
                rules.insert(cur);
            cur.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            cur += c;
        }
    }
    return rules;
}

} // namespace

void
loadFromString(const std::string &path, const std::string &text,
               FileText &out)
{
    out.path = path;
    std::replace(out.path.begin(), out.path.end(), '\\', '/');
    out.raw.clear();
    out.code.clear();
    out.allowed.clear();

    // Split into lines (keep an implicit final line).
    std::string line;
    for (char c : text) {
        if (c == '\n') {
            out.raw.push_back(line);
            line.clear();
        } else if (c != '\r') {
            line += c;
        }
    }
    if (!line.empty())
        out.raw.push_back(line);

    // Blank comments and literals in one pass over the raw text,
    // tracking multi-line constructs across lines. A suppression
    // comment binds to EXACTLY one line: the line it starts on when
    // code precedes it on that line (trailing form), otherwise the
    // line right after the comment ends (standalone form, with a
    // code-bearing tail after a `*/` counting as "after").
    enum class St
    {
        Code,
        BlockComment,
        Str,
        Chr
    } st = St::Code;
    std::string comment_text;   // accumulates the current block comment.
    size_t comment_line = 0;    // 1-based start line of that comment.
    bool comment_trailing = false; // code preceded it on its line.
    out.code.reserve(out.raw.size());
    for (size_t li = 0; li < out.raw.size(); ++li) {
        const std::string &src = out.raw[li];
        std::string dst(src.size(), ' ');
        for (size_t i = 0; i < src.size(); ++i) {
            char c = src[i];
            char next = i + 1 < src.size() ? src[i + 1] : '\0';
            switch (st) {
            case St::Code:
                if (c == '/' && next == '/') {
                    // Line comments never span lines: bind here.
                    bool trailing =
                        dst.find_first_not_of(' ') != std::string::npos;
                    for (const std::string &rule :
                         parseAllowances(src.substr(i)))
                        out.allowed[trailing ? li + 1 : li + 2].insert(
                            rule);
                    i = src.size();
                } else if (c == '/' && next == '*') {
                    st = St::BlockComment;
                    comment_text.clear();
                    comment_line = li + 1;
                    comment_trailing =
                        dst.find_first_not_of(' ') != std::string::npos;
                    ++i;
                } else if (c == '"') {
                    st = St::Str;
                    dst[i] = '"';
                } else if (c == '\'') {
                    st = St::Chr;
                    dst[i] = '\'';
                } else {
                    dst[i] = c;
                }
                break;
            case St::BlockComment:
                comment_text += c;
                if (c == '*' && next == '/') {
                    st = St::Code;
                    ++i;
                    std::set<std::string> rules =
                        parseAllowances(comment_text);
                    if (!rules.empty()) {
                        bool code_after =
                            src.find_first_not_of(" \t", i + 1) !=
                            std::string::npos;
                        size_t target = comment_trailing ? comment_line
                                        : code_after    ? li + 1
                                                        : li + 2;
                        out.allowed[target].insert(rules.begin(),
                                                   rules.end());
                    }
                    comment_text.clear();
                }
                break;
            case St::Str:
                if (c == '\\')
                    ++i;
                else if (c == '"') {
                    st = St::Code;
                    dst[i] = '"';
                }
                break;
            case St::Chr:
                if (c == '\\')
                    ++i;
                else if (c == '\'') {
                    st = St::Code;
                    dst[i] = '\'';
                }
                break;
            }
        }
        if (st == St::BlockComment)
            comment_text += '\n';
        out.code.push_back(dst);
    }
}

bool
loadFile(const std::string &path, FileText &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::stringstream ss;
    ss << in.rdbuf();
    loadFromString(path, ss.str(), out);
    return true;
}

// -------------------------------------------------------------------
// Per-file token rules
// -------------------------------------------------------------------

namespace detail
{

void
ruleRngAndClock(const FileText &f, std::vector<Finding> &out)
{
    if (onRngAllowlist(f.path))
        return;
    for (size_t li = 0; li < f.code.size(); ++li) {
        const std::string &line = f.code[li];
        for (const auto &[col, id] : identifiers(line)) {
            if (id == "random_device" || id == "srand") {
                out.push_back({f.path, li + 1, "unseeded-rng",
                               "'" + id +
                                   "' reads global entropy/state; "
                                   "seed a stats::Rng instead"});
            } else if (id == "rand" && isCall(line, col, id.size()) &&
                       !isQualifiedNonStd(line, col)) {
                out.push_back({f.path, li + 1, "unseeded-rng",
                               "'rand()' uses hidden global state; "
                               "seed a stats::Rng instead"});
            } else if (id == "mt19937" || id == "mt19937_64") {
                out.push_back({f.path, li + 1, "raw-mt19937",
                               "raw std::" + id +
                                   " outside src/stats/rng.*; route "
                                   "seeding through stats::Rng"});
            } else if (id == "system_clock" || id == "gettimeofday" ||
                       id == "clock_gettime") {
                out.push_back({f.path, li + 1, "wallclock",
                               "'" + id +
                                   "' reads host wall-clock time; "
                                   "simulated time comes from the "
                                   "event queue, host timing from "
                                   "stats/timing.hh"});
            } else if ((id == "time" || id == "clock") &&
                       isCall(line, col, id.size()) &&
                       !isQualifiedNonStd(line, col)) {
                out.push_back({f.path, li + 1, "wallclock",
                               "'" + id +
                                   "()' reads the host clock; use "
                                   "the event queue / "
                                   "stats/timing.hh"});
            }
        }
    }
}

std::set<std::string>
unorderedNames(const FileText &f, const FileText *sibling)
{
    std::set<std::string> names;
    auto harvest = [&names](const std::vector<std::string> &lines) {
        for (const std::string &line : lines) {
            for (const char *type :
                 {"unordered_map", "unordered_set",
                  "unordered_multimap", "unordered_multiset"}) {
                size_t at = 0;
                while ((at = line.find(type, at)) != std::string::npos) {
                    size_t p = at + std::strlen(type);
                    if (p >= line.size() || line[p] != '<') {
                        at = p;
                        continue;
                    }
                    // Skip the template argument list.
                    int depth = 0;
                    while (p < line.size()) {
                        if (line[p] == '<')
                            ++depth;
                        else if (line[p] == '>' && --depth == 0) {
                            ++p;
                            break;
                        }
                        ++p;
                    }
                    // Optional &, *, whitespace, then the name.
                    while (p < line.size() &&
                           (line[p] == ' ' || line[p] == '&' ||
                            line[p] == '*'))
                        ++p;
                    size_t start = p;
                    while (p < line.size() && isIdentChar(line[p]))
                        ++p;
                    if (p > start)
                        names.insert(line.substr(start, p - start));
                    at = p;
                }
            }
        }
    };
    harvest(f.code);
    if (sibling)
        harvest(sibling->code);
    return names;
}

bool
lineIteratesUnordered(const std::string &line,
                      const std::set<std::string> &names,
                      std::string *which)
{
    size_t fo = line.find("for");
    if (fo == std::string::npos)
        return false;
    // Range-for: `for (<decl> : <range>)` — take the range side.
    size_t colon = line.find(" : ", fo);
    if (colon == std::string::npos)
        return false;
    std::string range = line.substr(colon + 3);
    for (const auto &[col, id] : identifiers(range)) {
        (void)col;
        if (names.count(id)) {
            *which = id;
            return true;
        }
    }
    return false;
}

void
ruleUnorderedIter(const FileText &f, const FileText *sibling,
                  std::vector<Finding> &out)
{
    if (!inDecisionDir(f.path))
        return;
    std::set<std::string> names = unorderedNames(f, sibling);
    if (names.empty())
        return;
    for (size_t li = 0; li < f.code.size(); ++li) {
        std::string which;
        if (lineIteratesUnordered(f.code[li], names, &which))
            out.push_back(
                {f.path, li + 1, "unordered-iter",
                 "iterating unordered container '" + which +
                     "' on a decision path; hash order leaks "
                     "into placements — use an ordered "
                     "container or sort first"});
    }
}

void
ruleFloatEq(const FileText &f, std::vector<Finding> &out)
{
    if (!inDecisionDir(f.path))
        return;
    for (size_t li = 0; li < f.code.size(); ++li) {
        scanFloatEq(f.code[li], [&](size_t col, bool eq) {
            (void)col;
            out.push_back(
                {f.path, li + 1, "float-eq",
                 std::string(eq ? "'=='" : "'!='") +
                     " against a floating-point literal on a "
                     "decision path; compare with an explicit "
                     "tolerance or restructure"});
        });
    }
}

void
rulePragmaOnce(const FileText &f, std::vector<Finding> &out)
{
    if (!isHeader(f.path))
        return;
    for (size_t li = 0; li < f.code.size(); ++li) {
        const std::string &line = f.code[li];
        size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos)
            continue;
        if (line.compare(first, 12, "#pragma once") == 0)
            return;
        out.push_back({f.path, li + 1, "pragma-once",
                       "header's first non-comment line must be "
                       "'#pragma once'"});
        return;
    }
    out.push_back({f.path, f.code.empty() ? 1 : f.code.size(),
                   "pragma-once", "header lacks '#pragma once'"});
}

void
ruleIncludeHygiene(const FileText &f, std::vector<Finding> &out)
{
    for (size_t li = 0; li < f.raw.size(); ++li) {
        // Includes live partly inside "quotes", which the code view
        // blanks — use the raw line, but only when it is a directive.
        const std::string &line = f.raw[li];
        size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos ||
            line.compare(first, 8, "#include") != 0)
            continue;
        size_t open = line.find_first_of("\"<", first + 8);
        if (open == std::string::npos)
            continue;
        char closer = line[open] == '"' ? '"' : '>';
        size_t close = line.find(closer, open + 1);
        if (close == std::string::npos)
            continue;
        std::string target = line.substr(open + 1, close - open - 1);
        if (target.find("..") != std::string::npos)
            out.push_back({f.path, li + 1, "include-hygiene",
                           "'..' in include path; include project "
                           "headers root-relative"});
        else if (!target.empty() && target[0] == '/')
            out.push_back({f.path, li + 1, "include-hygiene",
                           "absolute include path"});
    }
}

} // namespace detail

// -------------------------------------------------------------------
// Per-file entry point and input collection
// -------------------------------------------------------------------

std::vector<Finding>
lintFile(const std::string &path)
{
    std::vector<Finding> findings;
    FileText f;
    if (!loadFile(path, f)) {
        findings.push_back({path, 0, "io", "cannot read file"});
        return findings;
    }
    FileText sibling;
    const FileText *sib = nullptr;
    if (endsWith(f.path, ".cc") &&
        loadFile(f.path.substr(0, f.path.size() - 3) + ".hh", sibling))
        sib = &sibling;
    std::vector<Finding> all;
    ruleRngAndClock(f, all);
    ruleUnorderedIter(f, sib, all);
    ruleFloatEq(f, all);
    rulePragmaOnce(f, all);
    ruleIncludeHygiene(f, all);
    for (const Finding &fi : all) {
        auto it = f.allowed.find(fi.line);
        if (it != f.allowed.end() && it->second.count(fi.rule))
            continue;
        findings.push_back(fi);
    }
    std::sort(findings.begin(), findings.end());
    return findings;
}

void
collectInputs(const std::vector<std::string> &roots,
              std::vector<std::string> &sources,
              std::vector<std::string> &defs)
{
    for (const std::string &p : roots) {
        if (fs::is_directory(p)) {
            for (auto it = fs::recursive_directory_iterator(p);
                 it != fs::recursive_directory_iterator(); ++it) {
                std::string s = it->path().generic_string();
                if (s.find("/build") != std::string::npos ||
                    s.find("fixture/") != std::string::npos ||
                    s.find("/.git") != std::string::npos)
                    continue;
                if (!it->is_regular_file())
                    continue;
                if (lintableFile(s))
                    sources.push_back(s);
                else if (endsWith(s, ".def"))
                    defs.push_back(s);
            }
        } else if (endsWith(p, ".def")) {
            defs.push_back(p);
        } else {
            sources.push_back(p);
        }
    }
    std::sort(sources.begin(), sources.end());
    std::sort(defs.begin(), defs.end());
}

// -------------------------------------------------------------------
// Fixture self-test
// -------------------------------------------------------------------

namespace
{

/** `// expect(<rule>)` markers in a fixture file (raw text: markers
 *  ride inside comments). */
std::vector<Finding>
expectedFindings(const std::string &path)
{
    std::vector<Finding> expected;
    FileText f;
    if (!loadFile(path, f))
        return expected;
    for (size_t li = 0; li < f.raw.size(); ++li) {
        const std::string &line = f.raw[li];
        size_t at = 0;
        while ((at = line.find("expect(", at)) != std::string::npos) {
            size_t close = line.find(')', at);
            if (close == std::string::npos)
                break;
            expected.push_back({f.path, li + 1,
                                line.substr(at + 7, close - at - 7),
                                ""});
            at = close;
        }
    }
    std::sort(expected.begin(), expected.end());
    return expected;
}

} // namespace

int
selfTest(const std::string &fixture_dir)
{
    Analyzer analyzer;
    for (auto it = fs::recursive_directory_iterator(fixture_dir);
         it != fs::recursive_directory_iterator(); ++it) {
        if (!it->is_regular_file())
            continue;
        std::string s = it->path().generic_string();
        if (lintableFile(s))
            analyzer.paths.push_back(s);
        else if (endsWith(s, ".def"))
            analyzer.def_paths.push_back(s);
    }
    std::sort(analyzer.paths.begin(), analyzer.paths.end());
    std::sort(analyzer.def_paths.begin(), analyzer.def_paths.end());
    if (analyzer.paths.empty()) {
        std::fprintf(stderr, "self-test: no fixture files under %s\n",
                     fixture_dir.c_str());
        return 1;
    }

    std::vector<Finding> got = analyzer.run();
    std::vector<Finding> want;
    std::set<std::string> covered;
    std::vector<std::string> all_files = analyzer.paths;
    all_files.insert(all_files.end(), analyzer.def_paths.begin(),
                     analyzer.def_paths.end());
    for (const std::string &path : all_files) {
        for (const Finding &w : expectedFindings(path)) {
            covered.insert(w.rule);
            want.push_back(w);
        }
    }

    auto key = [](const Finding &x) {
        return x.file + ":" + std::to_string(x.line) + ":" + x.rule;
    };
    std::set<std::string> got_keys, want_keys;
    for (const Finding &g : got)
        got_keys.insert(key(g));
    for (const Finding &w : want)
        want_keys.insert(key(w));
    size_t mismatches = 0;
    for (const std::string &k : want_keys)
        if (!got_keys.count(k)) {
            std::fprintf(stderr,
                         "self-test: MISSING expected finding %s\n",
                         k.c_str());
            ++mismatches;
        }
    for (const std::string &k : got_keys)
        if (!want_keys.count(k)) {
            std::fprintf(stderr, "self-test: UNEXPECTED finding %s\n",
                         k.c_str());
            ++mismatches;
        }
    for (const std::string &rule : kRuleIds)
        if (!covered.count(rule)) {
            std::fprintf(stderr,
                         "self-test: rule '%s' has no fixture "
                         "violation exercising it\n",
                         rule.c_str());
            ++mismatches;
        }
    if (mismatches) {
        std::fprintf(stderr, "self-test FAILED: %zu mismatches\n",
                     mismatches);
        return 1;
    }
    std::printf("quasar-lint self-test: all %zu rules fire and "
                "suppress correctly across %zu fixture files\n",
                kRuleIds.size(), all_files.size());
    return 0;
}

} // namespace quasarlint
