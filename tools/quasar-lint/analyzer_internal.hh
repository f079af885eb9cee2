/**
 * @file
 * Internals shared between the analyzer's translation units
 * (analyzer.cc: file loading, token rules, I/O; structure.cc: the
 * declaration index, include graph, call graph, and the structural
 * rule families). Nothing here is part of the public analyzer API.
 */

#pragma once

#include "analyzer.hh"

namespace quasarlint::detail
{

bool endsWith(const std::string &s, const std::string &suffix);
bool isIdentChar(char c);
bool isHeader(const std::string &path);
bool lintableFile(const std::string &path);

/** Paths (suffix match) exempt from the RNG/clock rules. */
bool onRngAllowlist(const std::string &path);
/** Directories whose code decides placements (dir-scoped rules). */
bool inDecisionDir(const std::string &path);

/** All identifier tokens of a line with their start columns. */
std::vector<std::pair<size_t, std::string>>
identifiers(const std::string &line);
/** True when the identifier at col is directly called. */
bool isCall(const std::string &line, size_t col, size_t len);
/** True for member/namespace access other than std::. */
bool isQualifiedNonStd(const std::string &line, size_t col);
bool isFloatLiteral(const std::string &tok);
/** Operand token adjacent to position i, scanning left or right. */
std::string operandToken(const std::string &line, size_t i, int dir);

/**
 * Scan one code line for == / != with a floating-point literal
 * operand; emit(column, is_eq) per hit. Shared by the dir-scoped
 * float-eq rule and the cone-scoped decision-purity rule.
 */
void scanFloatEq(const std::string &line,
                 const std::function<void(size_t, bool)> &emit);

/**
 * Names declared with an unordered container type in `f` (and in the
 * optional sibling header, so member iteration in a .cc is seen).
 */
std::set<std::string> unorderedNames(const FileText &f,
                                     const FileText *sibling);

/**
 * When `line` range-for-iterates one of `names`, return true and set
 * *which to the iterated name.
 */
bool lineIteratesUnordered(const std::string &line,
                           const std::set<std::string> &names,
                           std::string *which);

/** @name Per-file token rules (the original linter set) */
/// @{
void ruleRngAndClock(const FileText &f, std::vector<Finding> &out);
void ruleUnorderedIter(const FileText &f, const FileText *sibling,
                       std::vector<Finding> &out);
void ruleFloatEq(const FileText &f, std::vector<Finding> &out);
void rulePragmaOnce(const FileText &f, std::vector<Finding> &out);
void ruleIncludeHygiene(const FileText &f, std::vector<Finding> &out);
/// @}

/** Leading/trailing-whitespace trim. */
std::string trim(const std::string &s);

/**
 * The preprocessor-stripped view of a file: the blanked `code` lines
 * with every directive line (and its backslash continuations) also
 * blanked, so the scope scanner and call-graph pass never read macro
 * bodies or conditional-compilation directives as code.
 */
std::vector<std::string> preprocessorStripped(const FileText &f);

} // namespace quasarlint::detail
