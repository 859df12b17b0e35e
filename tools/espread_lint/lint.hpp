// espread_lint — a determinism-contract static analyzer.
//
// Every figure in EXPERIMENTS.md depends on one invariant the compiler
// cannot see: simulations are seed-pure and byte-identical across thread
// counts (DESIGN.md §6-§8).  The golden tests defend that contract at
// runtime; this tool defends it at review time, as a token-level scanner
// over the source tree (no libclang, builds with the tier-1 toolchain).
//
// Rules (see DESIGN.md §9 for the full table):
//   D0  malformed suppression (missing reason string or unknown rule id)
//   D1  nondeterministic entropy/time source (std::random_device, rand(),
//       srand(), clock(), time(nullptr/NULL/0), *_clock::now()) outside
//       the allowlist (src/sim/rng.*, bench timing blocks)
//   D2  std::unordered_map / std::unordered_set in result-producing code
//       (src/exp, src/obs, src/protocol/report*) where hash order would
//       leak into merged or serialized output
//   D3  `default:` label in a switch over a contract enum (obs::EventType,
//       obs::Actor, proto::GovernorState, proto::AckRejectReason,
//       proto::WireType, proto::Scheme, media::FrameType) — a default
//       silently swallows new enumerators instead of forcing each switch
//       to handle them
//   D4  direct trace-sink call (`x->record(...)`) without a null-gate on
//       the same pointer within the preceding lines — emission sites must
//       stay zero-cost when observability is off
//   D5  ownership / include hygiene in library targets (src/): no raw
//       `new`/`delete` expressions, no `<iostream>`
//
// The cross-TU contract rules C1, C2, C4 and C5 (RNG lanes, wire tags,
// bench claim-gate keys, dead registry entries) live in contracts.hpp;
// both rule groups run under the same scan_tree pass.
//
// Suppression syntax (line comments only):
//   some_code();  // espread-lint: allow(D1) reason the exception is sound
// A suppression with no reason string does not take effect and is itself
// flagged as D0.  A comment-only suppression line applies to the next line
// that contains code.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace espread::lint {

enum class Severity { kWarning, kError };

/// One finding.  `path` is the path the file was linted under (repo-root
/// relative when invoked via lint_tree / the CLI), `line` is 1-based.
struct Diagnostic {
    std::string path;
    std::size_t line = 0;
    std::string rule;
    std::string message;
    Severity severity = Severity::kError;
};

/// Static description of one rule, for --list-rules and the docs table.
struct RuleInfo {
    const char* id;
    Severity severity;
    const char* summary;
};

/// All rules the scanner knows, D0 first.
const std::vector<RuleInfo>& rules();

/// True if `id` names a known rule ("D0".."D5", "C1", "C2", "C4", "C5").
bool known_rule(const std::string& id);

/// One allowlist entry: files matching `glob` are exempt from rule `rule`
/// ("*" exempts the file from every rule, including D0).
struct AllowEntry {
    std::string rule;
    std::string glob;
};

/// Data-driven rule configuration.  default_config() encodes the repo's
/// contract; tests construct narrower configs.
struct LintConfig {
    std::vector<AllowEntry> allowlist;
    /// Unqualified enum type names whose switches must be exhaustive; a
    /// switch is "over" one of these when any case label mentions
    /// `<Name>::`.  Adding a contract enum is one line here.
    std::vector<std::string> contract_enums;
    /// Path prefixes where hash-ordered containers are forbidden (D2).
    std::vector<std::string> ordered_output_paths;
    /// Path prefixes treated as library targets for D5.
    std::vector<std::string> library_paths;
    /// How many preceding lines D4 searches for a null-gate.
    std::size_t gate_window = 12;
};

/// The repo's rule configuration (without any allowlist entries).
LintConfig default_config();

/// Parses an allowlist file into cfg.allowlist.  Lines are
/// `<rule-id|*> <glob>` with `#` comments.  Returns false and sets *err on
/// a malformed line or unknown rule id.
bool load_allowlist_file(const std::string& path, LintConfig& cfg,
                         std::string* err);

/// fnmatch-style: `*` and `?` match within one path segment (never '/');
/// `**` matches any run of characters including '/'.
bool glob_match(const std::string& pattern, const std::string& path);

/// Lints one in-memory source.  `path` is used for diagnostics and for
/// allowlist / path-scoped rule matching.
std::vector<Diagnostic> lint_source(const std::string& path,
                                    const std::string& content,
                                    const LintConfig& cfg);

/// Lints one file on disk, reported under `report_path`.
std::vector<Diagnostic> lint_file(const std::string& fs_path,
                                  const std::string& report_path,
                                  const LintConfig& cfg);

/// Walks `paths` (files or directories, relative to `root`) and lints
/// every C++ source (.cpp .cc .cxx .hpp .hxx .h .ipp), reporting paths
/// relative to `root`.  Deterministic: directory entries are visited in
/// sorted order.
std::vector<Diagnostic> lint_tree(const std::string& root,
                                  const std::vector<std::string>& paths,
                                  const LintConfig& cfg);

/// `path:line: error: message [D1]` — clickable in editors and CI logs.
std::string format_gcc(const Diagnostic& d);

}  // namespace espread::lint
