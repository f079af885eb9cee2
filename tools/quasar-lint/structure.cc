/**
 * @file
 * quasar-lint core, part 2: the structure-aware passes. A
 * preprocessor-stripping tokenizer feeds a declaration/scope scanner
 * (every function definition with its class, body extent and
 * constness), a resolved #include graph, and a call-graph-lite pass
 * whose edges are resolved by unqualified name — virtual dispatch and
 * overloads fan out to every project definition of that name, so the
 * reachability cone over-approximates and never under-approximates.
 *
 * The three structural rule families (mutation-journaling,
 * decision-purity, layering/include-cycle) and Analyzer::run() live
 * here; the per-file token rules and I/O live in analyzer.cc.
 */

#include "analyzer.hh"
#include "analyzer_internal.hh"

#include <algorithm>
#include <cctype>
#include <iterator>

namespace quasarlint
{

using namespace detail;

namespace
{

// -------------------------------------------------------------------
// Tokenizer + scope scanner
// -------------------------------------------------------------------

struct Tok
{
    std::string s;
    size_t line = 0; ///< 1-based.
    size_t col = 0;
};

std::vector<Tok>
tokenize(const std::vector<std::string> &lines)
{
    std::vector<Tok> out;
    for (size_t li = 0; li < lines.size(); ++li) {
        const std::string &line = lines[li];
        size_t i = 0;
        while (i < line.size()) {
            char c = line[i];
            if (c == ' ' || c == '\t') {
                ++i;
            } else if (isIdentChar(c) &&
                       !std::isdigit(static_cast<unsigned char>(c))) {
                size_t start = i;
                while (i < line.size() && isIdentChar(line[i]))
                    ++i;
                out.push_back(
                    {line.substr(start, i - start), li + 1, start});
            } else if (std::isdigit(static_cast<unsigned char>(c))) {
                // Numbers (incl. 1e-9, 0x1f, 2.5f) as single tokens.
                size_t start = i;
                while (i < line.size() &&
                       (isIdentChar(line[i]) || line[i] == '.' ||
                        ((line[i] == '+' || line[i] == '-') && i > start &&
                         (line[i - 1] == 'e' || line[i - 1] == 'E'))))
                    ++i;
                out.push_back(
                    {line.substr(start, i - start), li + 1, start});
            } else if (c == ':' && i + 1 < line.size() &&
                       line[i + 1] == ':') {
                out.push_back({"::", li + 1, i});
                i += 2;
            } else {
                out.push_back({std::string(1, c), li + 1, i});
                ++i;
            }
        }
    }
    return out;
}

bool
isIdentTok(const std::string &s)
{
    return !s.empty() && isIdentChar(s[0]) &&
           !std::isdigit(static_cast<unsigned char>(s[0]));
}

/** Scope kinds the scanner tracks while walking brace structure. */
enum class ScopeKind
{
    Namespace,
    Class,
    Function,
    Block
};

struct Scope
{
    ScopeKind kind = ScopeKind::Block;
    std::string name;
    size_t func = size_t(-1); ///< DeclIndex slot when Function.
};

const char *const kControlKeywords[] = {"if",     "for",   "while",
                                        "switch", "catch", "return"};

bool
isControlKeyword(const std::string &s)
{
    for (const char *k : kControlKeywords)
        if (s == k)
            return true;
    return false;
}

bool
isClassKeyword(const std::string &s)
{
    return s == "class" || s == "struct" || s == "union" || s == "enum";
}

/**
 * Classify the scope a '{' opens from the statement tokens before it.
 * Returns the scope to push; function definitions are appended to
 * `out` (body extent is completed when the matching '}' pops).
 */
Scope
classifyBrace(const std::vector<Tok> &stmt,
              const std::vector<Scope> &scopes, const std::string &file,
              DeclIndex &out)
{
    Scope sc;
    for (const Tok &t : stmt)
        if (t.s == "namespace") {
            sc.kind = ScopeKind::Namespace;
            for (const Tok &n : stmt)
                if (isIdentTok(n.s) && n.s != "namespace" &&
                    n.s != "inline")
                    sc.name = n.s;
            return sc;
        }

    size_t paren_i = size_t(-1), eq_i = size_t(-1);
    for (size_t i = 0; i < stmt.size(); ++i) {
        if (stmt[i].s == "(" && paren_i == size_t(-1))
            paren_i = i;
        if (stmt[i].s == "=" && eq_i == size_t(-1))
            eq_i = i;
    }
    // `Foo x = ...{` / `auto f = [](...){` — an initializer, not a
    // definition.
    if (eq_i != size_t(-1) &&
        (paren_i == size_t(-1) || eq_i < paren_i))
        return sc;

    if (paren_i != size_t(-1)) {
        if (paren_i == 0)
            return sc;
        const Tok &name_tok = stmt[paren_i - 1];
        if (!isIdentTok(name_tok.s) || isControlKeyword(name_tok.s))
            return sc;
        FunctionDef fd;
        fd.name = name_tok.s;
        fd.file = file;
        fd.line = name_tok.line;
        if (paren_i >= 3 && stmt[paren_i - 2].s == "::" &&
            isIdentTok(stmt[paren_i - 3].s)) {
            fd.cls = stmt[paren_i - 3].s;
        } else {
            for (auto it = scopes.rbegin(); it != scopes.rend(); ++it)
                if (it->kind == ScopeKind::Class) {
                    fd.cls = it->name;
                    break;
                }
        }
        size_t last_close = size_t(-1);
        for (size_t i = 0; i < stmt.size(); ++i)
            if (stmt[i].s == ")")
                last_close = i;
        if (last_close != size_t(-1))
            for (size_t i = last_close + 1; i < stmt.size(); ++i)
                if (stmt[i].s == "const")
                    fd.is_const = true;
        sc.kind = ScopeKind::Function;
        sc.name = fd.name;
        sc.func = out.functions.size();
        out.functions.push_back(fd);
        return sc;
    }

    size_t kw = size_t(-1);
    for (size_t i = 0; i < stmt.size(); ++i)
        if (isClassKeyword(stmt[i].s))
            kw = i;
    if (kw != size_t(-1)) {
        sc.kind = ScopeKind::Class;
        for (size_t i = kw + 1; i < stmt.size(); ++i)
            if (isIdentTok(stmt[i].s) && !isClassKeyword(stmt[i].s) &&
                stmt[i].s != "final" && stmt[i].s != "public" &&
                stmt[i].s != "private" && stmt[i].s != "protected") {
                sc.name = stmt[i].s;
                break;
            }
        return sc;
    }
    return sc;
}

void
scanDecls(const std::string &file, const std::vector<std::string> &pp,
          DeclIndex &out)
{
    std::vector<Tok> tokens = tokenize(pp);
    std::vector<Scope> scopes;
    std::vector<Tok> stmt;
    int paren = 0;
    size_t last_line = pp.empty() ? 1 : pp.size();

    for (const Tok &t : tokens) {
        if (t.s == "(") {
            ++paren;
            stmt.push_back(t);
        } else if (t.s == ")") {
            if (paren > 0)
                --paren;
            stmt.push_back(t);
        } else if (t.s == ";") {
            if (paren == 0)
                stmt.clear();
        } else if (t.s == "{") {
            Scope sc;
            if (paren == 0)
                sc = classifyBrace(stmt, scopes, file, out);
            if (sc.kind == ScopeKind::Function) {
                out.functions[sc.func].body_begin_line = t.line;
                out.functions[sc.func].body_begin_col = t.col + 1;
            }
            scopes.push_back(sc);
            stmt.clear();
        } else if (t.s == "}") {
            if (!scopes.empty()) {
                Scope sc = scopes.back();
                scopes.pop_back();
                if (sc.kind == ScopeKind::Function &&
                    sc.func != size_t(-1)) {
                    out.functions[sc.func].body_end_line = t.line;
                    out.functions[sc.func].body_end_col = t.col;
                }
            }
            stmt.clear();
        } else {
            stmt.push_back(t);
        }
    }
    // Unbalanced braces (scanner confusion): close any dangling
    // function bodies at EOF so ranges stay usable.
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it)
        if (it->kind == ScopeKind::Function && it->func != size_t(-1) &&
            out.functions[it->func].body_end_line == 0) {
            out.functions[it->func].body_end_line = last_line;
            out.functions[it->func].body_end_col =
                pp.empty() ? 0 : pp.back().size();
        }
}

/**
 * Visit the body lines of `fd` in `view` with out-of-body columns
 * blanked (columns preserved so finding lines/suppressions align).
 */
void
forBodyLines(const FunctionDef &fd, const std::vector<std::string> &view,
             const std::function<void(size_t, const std::string &)> &fn)
{
    if (fd.body_begin_line == 0 || fd.body_end_line == 0)
        return;
    for (size_t ln = fd.body_begin_line;
         ln <= fd.body_end_line && ln - 1 < view.size(); ++ln) {
        std::string line = view[ln - 1];
        if (ln == fd.body_end_line && fd.body_end_col < line.size())
            line.resize(fd.body_end_col);
        if (ln == fd.body_begin_line)
            for (size_t c = 0; c < fd.body_begin_col && c < line.size();
                 ++c)
                line[c] = ' ';
        fn(ln, line);
    }
}

// -------------------------------------------------------------------
// Mutation-journaling helpers
// -------------------------------------------------------------------

/** Placement-relevant Server state (see Server::version() contract). */
const char *const kServerFields[] = {"tasks_", "state_", "speed_factor_",
                                     "injected_"};
/** Placement-relevant Cluster state: the machine set itself. */
const char *const kClusterFields[] = {"servers_"};
/** TaskShare fields reached through a share pointer/reference. */
const char *const kShareFields[] = {
    "cores",     "memory_gb",   "storage_gb", "caused",
    "isolation", "socket",      "best_effort", "workload"};
// Exempt on purpose: cores_used — measured usage feeds reporting
// only, never placement (the one sanctioned unbumped write).

/** Member calls that mutate the receiver. */
const char *const kMutatingMethods[] = {
    "push_back", "emplace_back", "pop_back", "erase",
    "clear",     "insert",       "swap",     "resize",
    "assign",    "reset"};

bool
inList(const std::string &s, const char *const *list, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        if (s == list[i])
            return true;
    return false;
}

/** Skip whitespace and balanced [...] groups after a token. */
size_t
skipBrackets(const std::string &line, size_t j)
{
    while (true) {
        while (j < line.size() && (line[j] == ' ' || line[j] == '\t'))
            ++j;
        if (j < line.size() && line[j] == '[') {
            int depth = 0;
            while (j < line.size()) {
                if (line[j] == '[')
                    ++depth;
                else if (line[j] == ']' && --depth == 0) {
                    ++j;
                    break;
                }
                ++j;
            }
        } else {
            return j;
        }
    }
}

/** Is the token at [col, col+len) preceded by `.` or `->`? */
bool
memberAccessPrefix(const std::string &line, size_t col)
{
    size_t i = col;
    while (i > 0 && (line[i - 1] == ' ' || line[i - 1] == '\t'))
        --i;
    if (i > 0 && line[i - 1] == '.')
        return true;
    return i > 1 && line[i - 1] == '>' && line[i - 2] == '-';
}

/** The identifier just before a `.`/`->` prefix ("" when none). */
std::string
accessQualifier(const std::string &line, size_t col)
{
    size_t i = col;
    while (i > 0 && (line[i - 1] == ' ' || line[i - 1] == '\t'))
        --i;
    if (i > 0 && line[i - 1] == '.')
        i -= 1;
    else if (i > 1 && line[i - 1] == '>' && line[i - 2] == '-')
        i -= 2;
    else
        return "";
    size_t end = i;
    while (i > 0 && isIdentChar(line[i - 1]))
        --i;
    return line.substr(i, end - i);
}

/**
 * True when the token at [col, col+len) sits in a write context:
 * assignment / compound assignment / ++ / -- / a mutating member
 * call. `how` receives a short description.
 */
bool
isWriteAt(const std::string &line, size_t col, size_t len,
          std::string *how)
{
    if (col >= 2 && ((line[col - 1] == '+' && line[col - 2] == '+') ||
                     (line[col - 1] == '-' && line[col - 2] == '-'))) {
        *how = "increment/decrement";
        return true;
    }
    size_t j = skipBrackets(line, col + len);
    if (j >= line.size())
        return false;
    char a = line[j];
    char b = j + 1 < line.size() ? line[j + 1] : '\0';
    if (a == '=' && b != '=') {
        *how = "assignment";
        return true;
    }
    if ((a == '+' || a == '-' || a == '*' || a == '/' || a == '|' ||
         a == '&' || a == '^') &&
        b == '=' && !(a == '-' && b == '>')) {
        *how = "compound assignment";
        return true;
    }
    if ((a == '+' && b == '+') || (a == '-' && b == '-')) {
        *how = "increment/decrement";
        return true;
    }
    if (a == '.' || (a == '-' && b == '>')) {
        size_t m = j + (a == '.' ? 1 : 2);
        while (m < line.size() && (line[m] == ' ' || line[m] == '\t'))
            ++m;
        size_t ms = m;
        while (m < line.size() && isIdentChar(line[m]))
            ++m;
        std::string method = line.substr(ms, m - ms);
        if (inList(method, kMutatingMethods,
                   std::size(kMutatingMethods)) &&
            isCall(line, ms, method.size())) {
            *how = "mutating call '" + method + "()'";
            return true;
        }
    }
    return false;
}

/** Any tracked field passed to a swap(...) call on this line. */
bool
fieldSwappedOn(const std::string &line, const char *const *fields,
               size_t nfields, std::string *which)
{
    for (const auto &[col, id] : identifiers(line)) {
        if (id != "swap" || !isCall(line, col, id.size()))
            continue;
        size_t open = line.find('(', col);
        if (open == std::string::npos)
            continue;
        int depth = 0;
        size_t close = open;
        while (close < line.size()) {
            if (line[close] == '(')
                ++depth;
            else if (line[close] == ')' && --depth == 0)
                break;
            ++close;
        }
        std::string args = line.substr(open, close - open);
        for (const auto &[acol, aid] : identifiers(args)) {
            (void)acol;
            if (inList(aid, fields, nfields)) {
                *which = aid;
                return true;
            }
        }
    }
    return false;
}

/**
 * Mutable range-for over a tracked field (`for (T &x : field)` with
 * no const in the declaration) — the body holds a mutable alias into
 * placement-relevant state.
 */
bool
mutableRangeForOver(const std::string &line, const char *const *fields,
                    size_t nfields, std::string *which)
{
    size_t fo = std::string::npos;
    for (const auto &[col, id] : identifiers(line))
        if (id == "for" && isCall(line, col, id.size())) {
            fo = col;
            break;
        }
    if (fo == std::string::npos)
        return false;
    size_t open = line.find('(', fo);
    size_t colon = line.find(" : ", open);
    if (open == std::string::npos || colon == std::string::npos)
        return false;
    std::string decl = line.substr(open + 1, colon - open - 1);
    if (decl.find('&') == std::string::npos)
        return false;
    for (const auto &[dcol, did] : identifiers(decl)) {
        (void)dcol;
        if (did == "const")
            return false;
    }
    size_t close = line.find(')', colon);
    std::string range = line.substr(
        colon + 3, close == std::string::npos ? std::string::npos
                                              : close - colon - 3);
    for (const auto &[rcol, rid] : identifiers(range)) {
        (void)rcol;
        if (inList(rid, fields, nfields)) {
            *which = rid;
            return true;
        }
    }
    return false;
}

/** Files where the journaled classes (Server/Cluster) live. */
bool
journaledScope(const std::string &path)
{
    return path.find("src/sim/") != std::string::npos ||
           path.find("fixture/") != std::string::npos;
}

/** Entry points of the scheduler decision cone: the walk and the
 *  maintained candidate order's index refresh (core/candidate_order). */
const char *const kConeEntries[] = {
    "GreedyScheduler::allocate",
    "MaintainedOrder::refreshIndex",
    "MaintainedOrder::refreshEntryIndexed",
};

/** The scheduler's source: a run that analyzes it is a run over src/,
 *  where every cone entry must name a definition. */
const char kConeAnchor[] = "src/core/scheduler.cc";

} // namespace

// -------------------------------------------------------------------
// Analyzer: indexes
// -------------------------------------------------------------------

const FileText *
Analyzer::text(const std::string &path)
{
    auto it = cache_.find(path);
    if (it != cache_.end())
        return &it->second;
    FileText ft;
    if (!virtual_files.empty()) {
        auto v = virtual_files.find(path);
        if (v == virtual_files.end())
            return nullptr;
        loadFromString(path, v->second, ft);
    } else if (!loadFile(path, ft)) {
        return nullptr;
    }
    return &(cache_[path] = std::move(ft));
}

void
Analyzer::buildDeclIndex()
{
    decls_ = DeclIndex{};
    for (const std::string &p : paths) {
        const FileText *ft = text(p);
        if (!ft)
            continue;
        scanDecls(ft->path, preprocessorStripped(*ft), decls_);
    }
    for (size_t i = 0; i < decls_.functions.size(); ++i)
        decls_.by_name[decls_.functions[i].name].push_back(i);
}

void
Analyzer::buildIncludeGraph()
{
    include_graph_ = IncludeGraph{};
    for (const std::string &p : paths) {
        const FileText *ft = text(p);
        if (!ft)
            continue;
        for (size_t li = 0; li < ft->raw.size(); ++li) {
            const std::string &line = ft->raw[li];
            size_t first = line.find_first_not_of(" \t");
            if (first == std::string::npos ||
                line.compare(first, 8, "#include") != 0)
                continue;
            size_t open = line.find('"', first + 8);
            if (open == std::string::npos)
                continue; // <system> includes never resolve in-tree.
            size_t close = line.find('"', open + 1);
            if (close == std::string::npos)
                continue;
            std::string target = line.substr(open + 1, close - open - 1);
            // Resolve by suffix over the analyzed set; ties go to the
            // candidate sharing the longest path prefix with the
            // includer (nearest sibling wins).
            std::string best;
            size_t best_score = 0;
            for (const std::string &cand : paths) {
                if (cand != target && !endsWith(cand, "/" + target))
                    continue;
                size_t score = 1;
                while (score - 1 < cand.size() &&
                       score - 1 < ft->path.size() &&
                       cand[score - 1] == ft->path[score - 1])
                    ++score;
                if (score > best_score ||
                    (score == best_score && cand < best)) {
                    best_score = score;
                    best = cand;
                }
            }
            if (!best.empty())
                include_graph_.edges[ft->path].push_back(
                    {best, li + 1});
        }
    }
}

void
Analyzer::buildCallGraph()
{
    callees_.assign(decls_.functions.size(), {});
    cone_.clear();
    std::map<std::string, std::vector<std::string>> pp_cache;
    for (size_t fi = 0; fi < decls_.functions.size(); ++fi) {
        const FunctionDef &fd = decls_.functions[fi];
        auto it = pp_cache.find(fd.file);
        if (it == pp_cache.end()) {
            const FileText *ft = text(fd.file);
            if (!ft)
                continue;
            it = pp_cache.emplace(fd.file, preprocessorStripped(*ft))
                     .first;
        }
        std::set<std::string> &calls = callees_[fi];
        forBodyLines(fd, it->second,
                     [&](size_t ln, const std::string &line) {
                         (void)ln;
                         for (const auto &[col, id] : identifiers(line))
                             if (isCall(line, col, id.size()))
                                 calls.insert(id);
                     });
    }

    // BFS from the scheduler entry points; edges fan out to every
    // definition sharing the callee's unqualified name.
    std::vector<size_t> work;
    std::set<size_t> in_cone;
    for (size_t fi = 0; fi < decls_.functions.size(); ++fi)
        if (inList(decls_.functions[fi].qualified(), kConeEntries,
                   std::size(kConeEntries)))
            if (in_cone.insert(fi).second)
                work.push_back(fi);
    while (!work.empty()) {
        size_t fi = work.back();
        work.pop_back();
        for (const std::string &name : callees_[fi]) {
            auto it = decls_.by_name.find(name);
            if (it == decls_.by_name.end())
                continue;
            for (size_t target : it->second)
                if (in_cone.insert(target).second)
                    work.push_back(target);
        }
    }
    for (size_t fi : in_cone)
        cone_.insert(decls_.functions[fi].qualified());
}

// -------------------------------------------------------------------
// Structural rules
// -------------------------------------------------------------------

namespace
{

/**
 * Architecture layer of a path, by its directory under src/ (or under
 * a fixture's layers/ subtree, which emulates src for the self-test).
 * -1 when the path makes no layering claim.
 */
int
layerRank(const std::string &path, std::string *dir_out)
{
    struct Rank
    {
        const char *dir;
        int rank;
    };
    static const Rank kRanks[] = {
        {"common", 0},    {"interference", 0}, {"stats", 0},
        {"linalg", 1},    {"topology", 1},     {"tracegen", 1},
        {"sim", 2},       {"workload", 3},     {"profiling", 4},
        {"driver", 5},    {"core", 6},         {"churn", 6},
        {"baselines", 7}, {"trace", 7},        {"verify", 7},
    };
    auto componentAfter = [&path](size_t pos) {
        size_t end = path.find('/', pos);
        return end == std::string::npos
                   ? path.substr(pos)
                   : path.substr(pos, end - pos);
    };
    std::string dir;
    size_t at = path.find("/layers/");
    if (at != std::string::npos) {
        dir = componentAfter(at + 8);
    } else if ((at = path.find("src/")) != std::string::npos &&
               (at == 0 || path[at - 1] == '/')) {
        dir = componentAfter(at + 4);
    } else {
        for (const char *top : {"bench", "tests", "examples", "tools"}) {
            std::string needle = std::string(top) + "/";
            size_t p = path.find(needle);
            if (p != std::string::npos &&
                (p == 0 || path[p - 1] == '/')) {
                *dir_out = top;
                return 8;
            }
        }
        return -1;
    }
    for (const Rank &r : kRanks)
        if (dir == r.dir) {
            *dir_out = dir;
            return r.rank;
        }
    return -1;
}

const char *const kLayerOrder =
    "common/interference/stats < linalg/topology/tracegen < sim < "
    "workload < profiling < driver < core/churn < "
    "baselines/trace/verify < bench/tests/examples/tools";

} // namespace

void
Analyzer::ruleLayering(std::vector<Finding> &out)
{
    for (const auto &[from, edges] : include_graph_.edges) {
        std::string from_dir;
        int from_rank = layerRank(from, &from_dir);
        if (from_rank < 0)
            continue;
        for (const IncludeEdge &e : edges) {
            std::string to_dir;
            int to_rank = layerRank(e.to, &to_dir);
            if (to_rank < 0 || to_rank <= from_rank)
                continue;
            out.push_back(
                {from, e.line, "layering",
                 "include of '" + e.to + "' (" + to_dir + ", layer " +
                     std::to_string(to_rank) + ") from " + from_dir +
                     " (layer " + std::to_string(from_rank) +
                     ") inverts the architecture order " + kLayerOrder});
        }
    }
}

void
Analyzer::ruleIncludeCycles(std::vector<Finding> &out)
{
    // Tarjan SCC over the resolved include graph; every SCC with more
    // than one file (or a self-include) is a cycle, reported once at
    // its lexicographically-first member.
    std::map<std::string, int> index, low;
    std::map<std::string, bool> onstack;
    std::vector<std::string> stack;
    int counter = 0;
    std::vector<std::vector<std::string>> cycles;

    std::function<void(const std::string &)> connect =
        [&](const std::string &v) {
            index[v] = low[v] = counter++;
            stack.push_back(v);
            onstack[v] = true;
            auto it = include_graph_.edges.find(v);
            if (it != include_graph_.edges.end()) {
                for (const IncludeEdge &e : it->second) {
                    if (!index.count(e.to)) {
                        connect(e.to);
                        low[v] = std::min(low[v], low[e.to]);
                    } else if (onstack[e.to]) {
                        low[v] = std::min(low[v], index[e.to]);
                    }
                }
            }
            if (low[v] == index[v]) {
                std::vector<std::string> scc;
                while (true) {
                    std::string w = stack.back();
                    stack.pop_back();
                    onstack[w] = false;
                    scc.push_back(w);
                    if (w == v)
                        break;
                }
                bool self_loop = false;
                if (scc.size() == 1 &&
                    it != include_graph_.edges.end())
                    for (const IncludeEdge &e : it->second)
                        if (e.to == v)
                            self_loop = true;
                if (scc.size() > 1 || self_loop)
                    cycles.push_back(scc);
            }
        };
    for (const std::string &p : paths)
        if (!index.count(p))
            connect(p);

    for (std::vector<std::string> &scc : cycles) {
        std::sort(scc.begin(), scc.end());
        const std::string &anchor = scc[0];
        size_t line = 1;
        auto it = include_graph_.edges.find(anchor);
        if (it != include_graph_.edges.end())
            for (const IncludeEdge &e : it->second)
                if (std::find(scc.begin(), scc.end(), e.to) !=
                    scc.end()) {
                    line = e.line;
                    break;
                }
        std::string members;
        for (const std::string &m : scc)
            members += (members.empty() ? "" : " <-> ") + m;
        out.push_back({anchor, line, "include-cycle",
                       "#include cycle among: " + members +
                           "; break the cycle with a forward "
                           "declaration or an interface header"});
    }
}

void
Analyzer::ruleMutationJournaling(std::vector<Finding> &out)
{
    derived_mutators_.clear();
    bool saw_journaled_class = false;
    std::map<std::string, std::vector<std::string>> pp_cache;

    for (const FunctionDef &fd : decls_.functions) {
        bool is_server = fd.cls == "Server";
        bool is_cluster = fd.cls == "Cluster";
        if ((!is_server && !is_cluster) || !journaledScope(fd.file))
            continue;
        saw_journaled_class = true;
        // Constructors/destructors run before the journal attaches
        // (version_ starts at 0); const members cannot write.
        if (fd.name == fd.cls || fd.is_const)
            continue;

        auto it = pp_cache.find(fd.file);
        if (it == pp_cache.end()) {
            const FileText *ft = text(fd.file);
            if (!ft)
                continue;
            it = pp_cache.emplace(fd.file, preprocessorStripped(*ft))
                     .first;
        }

        const char *const *direct =
            is_server ? kServerFields : kClusterFields;
        size_t ndirect = is_server ? std::size(kServerFields)
                                   : std::size(kClusterFields);

        size_t write_line = 0;
        std::string write_desc;
        bool bumps = false;
        forBodyLines(
            fd, it->second, [&](size_t ln, const std::string &line) {
                for (const auto &[col, id] : identifiers(line)) {
                    if (id == "bumpVersion" &&
                        isCall(line, col, id.size()))
                        bumps = true;
                    std::string how;
                    bool direct_field =
                        inList(id, direct, ndirect) &&
                        (!memberAccessPrefix(line, col) ||
                         accessQualifier(line, col) == "this");
                    bool share_field =
                        is_server &&
                        inList(id, kShareFields,
                               std::size(kShareFields)) &&
                        memberAccessPrefix(line, col);
                    if ((direct_field || share_field) &&
                        isWriteAt(line, col, id.size(), &how) &&
                        write_line == 0) {
                        write_line = ln;
                        write_desc = how + " of '" + id + "'";
                    }
                }
                std::string which;
                if (write_line == 0 &&
                    (fieldSwappedOn(line, direct, ndirect, &which) ||
                     mutableRangeForOver(line, direct, ndirect,
                                         &which))) {
                    write_line = ln;
                    write_desc = "mutable access to '" + which + "'";
                }
            });

        if (write_line != 0 && !bumps) {
            out.push_back(
                {fd.file, write_line, "mutation-journaling",
                 "'" + fd.qualified() +
                     "' writes placement-relevant state (" +
                     write_desc +
                     ") but calls bumpVersion() on no path; every "
                     "placement-relevant mutation must be journaled "
                     "(DESIGN.md \xC2\xA7" "10)"});
        }
        if (is_server && bumps)
            derived_mutators_.push_back(fd.name);
    }
    std::sort(derived_mutators_.begin(), derived_mutators_.end());
    derived_mutators_.erase(std::unique(derived_mutators_.begin(),
                                        derived_mutators_.end()),
                            derived_mutators_.end());

    // Cross-check against the shared runtime death-test list so the
    // static and QUASAR_VERIFY enforcement layers cannot silently
    // diverge. Skipped when no journaled class was analyzed (partial
    // invocations) or no .def was given.
    if (!saw_journaled_class || def_paths.empty())
        return;
    std::map<std::string, std::pair<std::string, size_t>> listed;
    for (const std::string &dp : def_paths) {
        const FileText *df = text(dp);
        if (!df)
            continue;
        for (size_t li = 0; li < df->code.size(); ++li) {
            const std::string &line = df->code[li];
            size_t at = line.find("QUASAR_JOURNALED_MUTATOR(");
            if (at == std::string::npos)
                continue;
            size_t open = at + 25;
            size_t close = line.find(')', open);
            if (close == std::string::npos)
                continue;
            std::string name =
                trim(line.substr(open, close - open));
            if (!name.empty())
                listed[name] = {df->path, li + 1};
        }
    }
    for (const std::string &m : derived_mutators_) {
        if (listed.count(m))
            continue;
        for (const FunctionDef &fd : decls_.functions)
            if (fd.cls == "Server" && fd.name == m &&
                journaledScope(fd.file)) {
                out.push_back(
                    {fd.file, fd.line, "mutation-journaling",
                     "journaled mutator 'Server::" + m +
                         "' is missing from the shared mutator list "
                         "(journaled_mutators.def); the QUASAR_VERIFY "
                         "death tests no longer cover it"});
                break;
            }
    }
    for (const auto &[name, where] : listed)
        if (std::find(derived_mutators_.begin(),
                      derived_mutators_.end(),
                      name) == derived_mutators_.end())
            out.push_back(
                {where.first, where.second, "mutation-journaling",
                 "stale mutator-list entry '" + name +
                     "': no Server member function of that name "
                     "calls bumpVersion()"});
}

void
Analyzer::ruleDecisionPurity(std::vector<Finding> &out)
{
    // An entry that names no definition seeds nothing, so a rename or
    // move of an entry point would shrink the cone without a word.
    for (const std::string &p : paths) {
        if (!endsWith(p, kConeAnchor))
            continue;
        for (const char *entry : kConeEntries)
            if (!cone_.count(entry))
                out.push_back(
                    {p, 0, "decision-purity",
                     std::string("decision-cone entry '") + entry +
                         "' names no definition in the analyzed tree; "
                         "the cone would shrink silently — point "
                         "kConeEntries (tools/quasar-lint/structure.cc) "
                         "at the moved or renamed entry point"});
        break;
    }
    std::map<std::string, std::vector<std::string>> pp_cache;
    for (size_t fi = 0; fi < decls_.functions.size(); ++fi) {
        const FunctionDef &fd = decls_.functions[fi];
        if (!cone_.count(fd.qualified()))
            continue;
        const std::string &path = fd.file;
        // Decision dirs already carry the dir-scoped float-eq /
        // unordered-iter rules; the cone adds coverage OUTSIDE them.
        if (inDecisionDir(path))
            continue;
        if (path.find("src/") == std::string::npos &&
            path.find("fixture/") == std::string::npos)
            continue;
        const FileText *ft = text(path);
        if (!ft)
            continue;
        auto it = pp_cache.find(path);
        if (it == pp_cache.end())
            it = pp_cache.emplace(path, preprocessorStripped(*ft))
                     .first;

        const FileText *sib = nullptr;
        if (endsWith(path, ".cc"))
            sib = text(path.substr(0, path.size() - 3) + ".hh");
        std::set<std::string> unordered = unorderedNames(*ft, sib);

        forBodyLines(
            fd, it->second, [&](size_t ln, const std::string &line) {
                scanFloatEq(line, [&](size_t col, bool eq) {
                    (void)col;
                    out.push_back(
                        {path, ln, "decision-purity",
                         std::string(eq ? "'=='" : "'!='") +
                             " against a floating-point literal in '" +
                             fd.qualified() +
                             "', reachable from the scheduler "
                             "decision cone (GreedyScheduler::"
                             "allocate, MaintainedOrder::"
                             "refreshIndex/refreshEntryIndexed); "
                             "compare with a tolerance or "
                             "restructure"});
                });
                std::string which;
                if (!unordered.empty() &&
                    lineIteratesUnordered(line, unordered, &which))
                    out.push_back(
                        {path, ln, "decision-purity",
                         "iterating unordered container '" + which +
                             "' in '" + fd.qualified() +
                             "', reachable from the scheduler "
                             "decision cone; hash order leaks into "
                             "placements"});
            });
    }
}

// -------------------------------------------------------------------
// Orchestration
// -------------------------------------------------------------------

std::vector<Finding>
Analyzer::run()
{
    std::vector<Finding> all;
    for (const std::string &p : paths) {
        const FileText *ft = text(p);
        if (!ft) {
            all.push_back({p, 0, "io", "cannot read file"});
            continue;
        }
        const FileText *sib = nullptr;
        if (endsWith(ft->path, ".cc"))
            sib = text(ft->path.substr(0, ft->path.size() - 3) + ".hh");
        ruleRngAndClock(*ft, all);
        ruleUnorderedIter(*ft, sib, all);
        ruleFloatEq(*ft, all);
        rulePragmaOnce(*ft, all);
        ruleIncludeHygiene(*ft, all);
    }

    buildDeclIndex();
    buildIncludeGraph();
    buildCallGraph();
    ruleMutationJournaling(all);
    ruleDecisionPurity(all);
    ruleLayering(all);
    ruleIncludeCycles(all);

    std::vector<Finding> out;
    for (const Finding &fi : all) {
        const FileText *ft = text(fi.file);
        if (ft) {
            auto it = ft->allowed.find(fi.line);
            if (it != ft->allowed.end() && it->second.count(fi.rule))
                continue;
        }
        out.push_back(fi);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace quasarlint
