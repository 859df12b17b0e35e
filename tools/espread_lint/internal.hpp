// Shared scanner internals: the comment/string-aware line stripper, the
// suppression parser and the diagnostic emitter, used by both the token
// rules (lint.cpp, D1-D5) and the cross-TU contract rules (contracts.cpp,
// C1, C2, C4, C5) so every file is read and stripped exactly once per scan.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint.hpp"

namespace espread::lint::internal {

bool ident_char(char c);
std::string trim(const std::string& s);

/// `needle` present in `hay` with non-identifier characters (or the buffer
/// edge) on both sides.
bool contains_token(const std::string& hay, const std::string& needle);

/// Token followed (after optional whitespace) by '('.  On success `*at` is
/// the token position; pass `from` to resume past a previous match.
bool contains_call(const std::string& hay, const std::string& name,
                   std::size_t* at = nullptr, std::size_t from = 0);

bool path_has_prefix(const std::string& path,
                     const std::vector<std::string>& prefixes);

bool rule_allowlisted(const LintConfig& cfg, const std::string& rule,
                      const std::string& path);

// ---- comment/literal stripping --------------------------------------------

/// One string literal: 0-based start line, column of its placeholder in the
/// stripped code line, and the (unescaped-ish) contents.  Multi-line raw
/// strings record their start position and full contents.
struct StringLit {
    std::size_t line = 0;
    std::size_t col = 0;
    std::string text;
};

/// Per-line views of a translation unit: `code` has comments and the
/// contents of string/char literals blanked out; `comment` collects the
/// text of comments that end on (or run through) that line; `strings`
/// lists every string literal with its position.
struct Stripped {
    std::vector<std::string> code;
    std::vector<std::string> comment;
    std::vector<StringLit> strings;
};

Stripped strip(const std::string& content);

// ---- suppressions ----------------------------------------------------------

/// Per-line suppression sets plus the D0 findings produced while parsing.
struct Suppressions {
    /// line index (0-based) -> rule ids suppressed on that line
    std::map<std::size_t, std::set<std::string>> allow;
    std::vector<Diagnostic> malformed;
};

Suppressions parse_suppressions(const std::string& path, const Stripped& s);

// ---- emission --------------------------------------------------------------

/// Emits unless suppressed on `line` or the whole file is allowlisted for
/// the rule.  D0 findings bypass this (they are never suppressible).
class Emitter {
public:
    Emitter(const std::string& path, const LintConfig& cfg,
            const Suppressions& sup, std::vector<Diagnostic>& out)
        : path_(path), cfg_(cfg), sup_(sup), out_(out) {}

    void emit(const char* rule, std::size_t line_idx,
              const std::string& message);

private:
    const std::string path_;
    const LintConfig& cfg_;
    const Suppressions& sup_;
    std::vector<Diagnostic>& out_;
};

/// Runs the token rules D1-D5 over one stripped file.
void check_token_rules(const std::string& path, const Stripped& s,
                       const LintConfig& cfg, Emitter& e);

/// One scanned file: shared input to the token pass (phase 0) and the
/// contract extract/check passes (phases 1 and 2).
struct FileScan {
    std::string path;  // repo-root relative
    bool read_ok = true;
    bool fully_allowlisted = false;  // `* <glob>` entries mute extraction too
    Stripped s;
    Suppressions sup;
};

/// True if any stripped code line contains `needle` as a token.
bool file_has_token(const Stripped& s, const std::string& needle);

}  // namespace espread::lint::internal
