/**
 * @file
 * quasar-lint CLI. All analysis lives in the quasar_lint_core library
 * (analyzer.hh); this file parses flags, expands inputs, runs the
 * analyzer and prints its findings:
 *
 *   quasar-lint <file-or-dir>...
 *     --self-test [--fixture=DIR]  run the fixture self-test
 *     --list-rules                 print rule ids, one per line
 *
 * A finding that is a deliberate exception is excused at its line with
 * a `// quasar-lint: allow(<rule>)` comment carrying the reason.
 *
 * Exit status: 0 clean, 1 findings, 2 usage/IO.
 */

#include "analyzer.hh"

#include <cstdio>
#include <string>
#include <vector>

namespace
{

void
usage(std::FILE *to)
{
    std::fprintf(to, "usage: quasar-lint <file-or-dir>...\n"
                     "       quasar-lint --self-test [--fixture=DIR]\n"
                     "       quasar-lint --list-rules\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace quasarlint;

    bool self_test = false, list_rules = false;
    std::string fixture = "tools/quasar-lint/fixture";
    const std::string fixture_flag = "--fixture=";
    std::vector<std::string> roots;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--self-test")
            self_test = true;
        else if (arg == "--list-rules")
            list_rules = true;
        else if (arg.compare(0, fixture_flag.size(), fixture_flag) == 0)
            fixture = arg.substr(fixture_flag.size());
        else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "quasar-lint: unknown option '%s'\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        } else {
            roots.push_back(arg);
        }
    }

    if (list_rules) {
        for (const std::string &r : kRuleIds)
            std::printf("%s\n", r.c_str());
        return 0;
    }
    if (self_test)
        return selfTest(fixture);
    if (roots.empty()) {
        usage(stderr);
        return 2;
    }

    Analyzer analyzer;
    collectInputs(roots, analyzer.paths, analyzer.def_paths);
    if (analyzer.paths.empty()) {
        std::fprintf(stderr, "quasar-lint: no lintable files under "
                             "the given paths\n");
        return 2;
    }
    std::vector<Finding> findings = analyzer.run();

    for (const Finding &f : findings)
        std::printf("%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                    f.rule.c_str(), f.message.c_str());
    if (findings.empty())
        std::printf("quasar-lint: %zu file(s) clean\n",
                    analyzer.paths.size());
    return findings.empty() ? 0 : 1;
}
