// Cross-TU contract extraction and checking (rules C1, C2, C4, C5) plus
// the shared tree scanner (scan_tree) both rule groups run under.  See
// contracts.hpp for the rule catalogue and DESIGN.md §14 for the workflow.
#include "contracts.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "internal.hpp"

namespace espread::lint {

namespace {

using internal::contains_call;
using internal::contains_token;
using internal::file_has_token;
using internal::FileScan;
using internal::ident_char;
using internal::path_has_prefix;
using internal::Stripped;
using internal::StringLit;
using internal::trim;

bool all_digits(const std::string& s) {
    return !s.empty() &&
           std::all_of(s.begin(), s.end(), [](char c) {
               return std::isdigit(static_cast<unsigned char>(c)) != 0;
           });
}

std::string lower(std::string s) {
    for (char& c : s) c = static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/// Last `::`-qualified component of an expression, or "" if it is not a
/// plain (possibly qualified) identifier.
std::string last_component(const std::string& expr) {
    const std::size_t q = expr.rfind("::");
    const std::string name = q == std::string::npos ? expr : expr.substr(q + 2);
    if (name.empty() || !std::all_of(name.begin(), name.end(), ident_char)) {
        return "";
    }
    return name;
}

// ---- phase 1: fact extraction ----------------------------------------------

struct SplitSite {
    std::size_t line = 0;  // 0-based
    std::string literal;   // integer arg as written, or empty
    std::string name;      // ident arg (unqualified), empty if unparseable
};

/// Every `.split(<arg>)` call site; wrapped argument lists are joined
/// across up to two following lines.
std::vector<SplitSite> split_sites(const Stripped& s) {
    std::vector<SplitSite> out;
    for (std::size_t i = 0; i < s.code.size(); ++i) {
        const std::string& line = s.code[i];
        std::size_t pos = 0;
        while ((pos = line.find(".split(", pos)) != std::string::npos) {
            std::string rest = line.substr(pos + 7);
            for (std::size_t j = i + 1;
                 rest.find(')') == std::string::npos &&
                 j < s.code.size() && j <= i + 2;
                 ++j) {
                rest += " " + s.code[j];
            }
            const std::size_t close = rest.find(')');
            pos += 7;
            if (close == std::string::npos) continue;
            const std::string arg = trim(rest.substr(0, close));
            SplitSite site;
            site.line = i;
            if (all_digits(arg)) {
                site.literal = arg;
                out.push_back(site);
            } else {
                site.name = last_component(arg);
                if (!site.name.empty()) out.push_back(site);
            }
        }
    }
    return out;
}

/// Parses a run of decimal digits; false if the value does not fit in 64
/// bits (std::stoull would throw).
bool parse_u64(const std::string& digits, std::uint64_t* out) {
    std::uint64_t v = 0;
    for (const char c : digits) {
        const auto d = static_cast<std::uint64_t>(c - '0');
        if (v > (UINT64_MAX - d) / 10) return false;
        v = v * 10 + d;
    }
    *out = v;
    return true;
}

struct NamedValue {
    std::size_t line = 0;
    std::string name;
    std::string literal;  // the initializer as written
    std::uint64_t value = 0;
    bool fits = true;  // false when `literal` overflows 64 bits
};

/// Constant declarations in registry style, mined from any file (outside
/// the registry they are themselves findings), plus the gate-key table.
struct RegistryFacts {
    std::vector<NamedValue> lanes;  // k<Family>Lane<Name>
    std::vector<NamedValue> tags;   // kWireTag<Name>
    std::optional<std::vector<StringLit>> gate_keys;
};

/// The identifier being declared on a `constexpr ... name[...] = ...` or
/// `constexpr ... name = ...` line: the token just left of '=', skipping
/// an optional [..] array suffix.
std::string declared_name(const std::string& line, bool* is_array) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return "";
    std::size_t e = eq;
    while (e > 0 && std::isspace(static_cast<unsigned char>(line[e - 1])) != 0)
        --e;
    *is_array = false;
    if (e > 0 && line[e - 1] == ']') {
        const std::size_t open = line.rfind('[', e - 1);
        if (open == std::string::npos) return "";
        e = open;
        *is_array = true;
        while (e > 0 &&
               std::isspace(static_cast<unsigned char>(line[e - 1])) != 0)
            --e;
    }
    std::size_t b = e;
    while (b > 0 && ident_char(line[b - 1])) --b;
    return line.substr(b, e - b);
}

bool parse_lane_name(const std::string& name, std::string* family) {
    if (name.size() < 2 || name[0] != 'k') return false;
    const std::size_t pos = name.find("Lane");
    if (pos == std::string::npos) return false;
    *family = name.substr(1, pos - 1);
    return true;  // family may be empty — the checker flags that
}

bool is_tag_name(const std::string& name) {
    return name.rfind("kWireTag", 0) == 0 && name.size() > 8;
}

RegistryFacts extract_registry(const Stripped& s,
                               const std::string& gate_key_table) {
    RegistryFacts out;
    for (std::size_t i = 0; i < s.code.size(); ++i) {
        const std::string& line = s.code[i];
        if (!contains_token(line, "constexpr")) continue;
        bool is_array = false;
        const std::string name = declared_name(line, &is_array);
        if (name.empty()) continue;
        if (is_array && name == gate_key_table) {
            // Collect entry strings up to the terminating ';'.
            std::size_t end = i;
            while (end < s.code.size() &&
                   s.code[end].find(';') == std::string::npos) {
                ++end;
            }
            out.gate_keys.emplace();
            for (const StringLit& lit : s.strings) {
                if (lit.line >= i && lit.line <= end) {
                    out.gate_keys->push_back(lit);
                }
            }
            i = end;
            continue;
        }
        if (is_array) continue;
        std::string family;
        const bool lane = parse_lane_name(name, &family);
        const bool tag = is_tag_name(name);
        if (!lane && !tag) continue;
        // Parse the integer initializer.
        const std::size_t eq = line.find('=');
        std::size_t v = eq + 1;
        while (v < line.size() &&
               std::isspace(static_cast<unsigned char>(line[v])) != 0)
            ++v;
        std::size_t d = v;
        while (d < line.size() &&
               std::isdigit(static_cast<unsigned char>(line[d])) != 0)
            ++d;
        if (d == v) continue;  // alias or expression initializer: no fact
        NamedValue nv;
        nv.line = i;
        nv.name = name;
        nv.literal = line.substr(v, d - v);
        nv.fits = parse_u64(nv.literal, &nv.value);
        if (tag) {
            out.tags.push_back(nv);
        } else {
            out.lanes.push_back(nv);
        }
    }
    return out;
}

struct WireEnumEntry {
    std::size_t line = 0;
    std::string enumerator;
    std::string literal;  // integer initializer as written, or empty
    std::string init_name;
};

std::vector<WireEnumEntry> wire_enum_entries(const Stripped& s,
                                             const std::string& enum_name) {
    std::vector<WireEnumEntry> out;
    std::size_t begin = s.code.size();
    for (std::size_t i = 0; i < s.code.size(); ++i) {
        if (s.code[i].find("enum") != std::string::npos &&
            contains_token(s.code[i], enum_name)) {
            begin = i;
            break;
        }
    }
    for (std::size_t i = begin; i < s.code.size(); ++i) {
        const std::string line = trim(s.code[i]);
        if (i > begin && line.find('}') != std::string::npos) break;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos || line.empty() || line[0] != 'k') continue;
        std::size_t e = 0;
        while (e < line.size() && ident_char(line[e])) ++e;
        WireEnumEntry entry;
        entry.line = i;
        entry.enumerator = line.substr(0, e);
        std::string init = trim(line.substr(eq + 1));
        if (!init.empty() && init.back() == ',') init.pop_back();
        init = trim(init);
        if (all_digits(init)) {
            entry.literal = init;
        } else {
            entry.init_name = last_component(init);
        }
        out.push_back(entry);
    }
    return out;
}

/// String literals given as the first argument of a member call `.<fn>(`
/// (immediately after the open paren, spilling to the next line for
/// wrapped calls).
std::vector<StringLit> call_literals(const Stripped& s, const std::string& fn) {
    // The stripper replaces each literal with a one-space placeholder at
    // `col`, so "the first argument is a literal" means: the first literal
    // on the line at/after the open paren with only whitespace before it.
    auto first_lit_after = [&s](std::size_t ln,
                                std::size_t col) -> const StringLit* {
        const StringLit* best = nullptr;
        for (const StringLit& lit : s.strings) {
            if (lit.line == ln && lit.col >= col &&
                (best == nullptr || lit.col < best->col)) {
                best = &lit;
            }
        }
        if (best == nullptr) return nullptr;
        const std::string& line = s.code[ln];
        for (std::size_t k = col; k < best->col && k < line.size(); ++k) {
            if (std::isspace(static_cast<unsigned char>(line[k])) == 0) {
                return nullptr;
            }
        }
        return best;
    };
    std::vector<StringLit> out;
    for (std::size_t i = 0; i < s.code.size(); ++i) {
        const std::string& line = s.code[i];
        std::size_t at = 0;
        std::size_t from = 0;
        while (contains_call(line, fn, &at, from)) {
            from = at + fn.size();
            if (at == 0 || line[at - 1] != '.') continue;
            std::size_t j = at + fn.size();
            while (j < line.size() &&
                   std::isspace(static_cast<unsigned char>(line[j])) != 0)
                ++j;
            if (j >= line.size() || line[j] != '(') continue;
            if (const StringLit* lit = first_lit_after(i, j + 1)) {
                out.push_back(*lit);
                continue;
            }
            // Wrapped call: '(' ends the line, the argument opens the next.
            bool tail_blank = true;
            for (std::size_t k = j + 1; k < line.size(); ++k) {
                if (std::isspace(static_cast<unsigned char>(line[k])) == 0) {
                    tail_blank = false;
                    break;
                }
            }
            if (tail_blank && i + 1 < s.code.size()) {
                if (const StringLit* lit = first_lit_after(i + 1, 0)) {
                    out.push_back(*lit);
                }
            }
        }
    }
    return out;
}

// ---- external (non-C++) surfaces -------------------------------------------

struct TextFile {
    bool ok = false;
    std::vector<std::string> lines;
};

TextFile read_text(const std::string& root, const std::string& rel) {
    TextFile out;
    std::ifstream in(std::filesystem::path(root) / rel, std::ios::binary);
    if (!in) return out;
    out.ok = true;
    std::string line;
    while (std::getline(in, line)) out.lines.push_back(line);
    return out;
}

/// One perf_gate invocation in the CI workflow: the consumed key plus the
/// `<bench-name>=<artifact>.json` mappings, with their 0-based lines.
struct GateStep {
    bool is_perf_gate = false;
    std::string key;       // --key=... value, or "" for the default
    std::size_t key_line = 0;
    std::vector<std::pair<std::string, std::size_t>> mappings;
};

std::vector<GateStep> parse_ci(const TextFile& ci) {
    std::vector<GateStep> out;
    GateStep cur;
    auto flush = [&]() {
        if (cur.is_perf_gate) out.push_back(cur);
        cur = GateStep{};
    };
    for (std::size_t i = 0; i < ci.lines.size(); ++i) {
        const std::string line = ci.lines[i];
        if (trim(line).rfind("- name:", 0) == 0) flush();
        std::istringstream ss(line);
        std::string tok;
        while (ss >> tok) {
            if (tok.find("perf_gate") != std::string::npos) {
                cur.is_perf_gate = true;
            }
            if (tok.rfind("--key=", 0) == 0) {
                cur.key = tok.substr(6);
                cur.key_line = i;
            }
            // `<name>=<...>.json` mapping; flags (--out=..., --baseline=...)
            // start with '-'.
            const std::size_t eq = tok.find('=');
            if (eq != std::string::npos && eq > 0 && tok[0] != '-' &&
                tok.size() > 5 && tok.rfind(".json") == tok.size() - 5) {
                const std::string name = tok.substr(0, eq);
                if (std::all_of(name.begin(), name.end(), ident_char)) {
                    cur.mappings.push_back({name, i});
                }
            }
        }
    }
    flush();
    return out;
}

/// Top-level JSON keys of the frozen baseline file: `"name":` at object
/// depth 1, tracked string-aware so brace characters inside values never
/// shift the depth.
std::vector<std::pair<std::string, std::size_t>> parse_json_keys(
    const TextFile& f) {
    std::vector<std::pair<std::string, std::size_t>> out;
    int depth = 0;
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
        const std::string& line = f.lines[i];
        std::size_t pos = 0;
        while (pos < line.size()) {
            const char c = line[pos];
            if (c == '{' || c == '[') {
                ++depth;
                ++pos;
            } else if (c == '}' || c == ']') {
                --depth;
                ++pos;
            } else if (c == '"') {
                std::size_t end = pos + 1;
                while (end < line.size() &&
                       (line[end] != '"' || line[end - 1] == '\\'))
                    ++end;
                if (end >= line.size()) {
                    pos = end;
                    break;
                }
                std::size_t j = end + 1;
                while (j < line.size() &&
                       std::isspace(static_cast<unsigned char>(line[j])) != 0)
                    ++j;
                if (depth == 1 && j < line.size() && line[j] == ':') {
                    out.push_back({line.substr(pos + 1, end - pos - 1), i});
                }
                pos = end + 1;
            } else {
                ++pos;
            }
        }
    }
    return out;
}

// ---- phase 2: the checker --------------------------------------------------

class ContractChecker {
public:
    ContractChecker(const std::string& root, const LintConfig& cfg,
                    const ContractConfig& ccfg,
                    const std::vector<FileScan>& scans,
                    std::vector<Diagnostic>& out)
        : root_(root), cfg_(cfg), ccfg_(ccfg), scans_(scans), out_(out) {
        for (const FileScan& f : scans_) {
            if (f.read_ok && !f.fully_allowlisted) by_path_[f.path] = &f;
        }
    }

    void run() {
        if (!resolve_registry()) return;
        check_lanes();
        check_wire_tags();
        check_gates();
    }

private:
    const FileScan* find(const std::string& path) const {
        const auto it = by_path_.find(path);
        return it == by_path_.end() ? nullptr : it->second;
    }

    void emit(const char* rule, const std::string& path, std::size_t line_idx,
              const std::string& message) {
        if (internal::rule_allowlisted(cfg_, rule, path)) return;
        if (const FileScan* f = find(path)) {
            const auto it = f->sup.allow.find(line_idx);
            if (it != f->sup.allow.end() && it->second.count(rule) != 0) return;
        }
        out_.push_back({path, line_idx + 1, rule, message, Severity::kError});
    }

    /// Locates (or side-loads) the registry and mines it.  Also flags
    /// registry-style declarations anywhere else (C1/C2).
    bool resolve_registry() {
        const std::string& table = ccfg_.gate_key_table;
        for (const FileScan& f : scans_) {
            if (!f.read_ok || f.fully_allowlisted ||
                f.path == ccfg_.registry_path) {
                continue;
            }
            const RegistryFacts facts = extract_registry(f.s, table);
            for (const NamedValue& nv : facts.lanes) {
                emit("C1", f.path, nv.line,
                     "RNG lane constant '" + nv.name +
                         "' declared outside the contract registry (" +
                         ccfg_.registry_path + ")");
            }
            for (const NamedValue& nv : facts.tags) {
                emit("C2", f.path, nv.line,
                     "wire tag constant '" + nv.name +
                         "' declared outside the contract registry (" +
                         ccfg_.registry_path + ")");
            }
        }
        if (const FileScan* f = find(ccfg_.registry_path)) {
            registry_ = extract_registry(f->s, table);
            return true;
        }
        // Partial scans (a subtree that excludes src/sim) still check
        // against the real registry: side-load it from disk.
        std::ifstream in(std::filesystem::path(root_) / ccfg_.registry_path,
                         std::ios::binary);
        if (in) {
            std::ostringstream buf;
            buf << in.rdbuf();
            side_loaded_ = internal::strip(buf.str());
            registry_ = extract_registry(side_loaded_, table);
            return true;
        }
        emit("C5", ccfg_.registry_path, 0,
             "contract registry header not found: every lane, wire tag and "
             "gate key must be declared there");
        return false;
    }

    /// Scanned file coverage under a prefix set — gates the C5 deadness
    /// checks so partial scans do not flag entries their producers would
    /// have used.
    bool scanned_under(const std::vector<std::string>& prefixes) const {
        for (const FileScan& f : scans_) {
            if (f.read_ok && !f.fully_allowlisted &&
                path_has_prefix(f.path, prefixes)) {
                return true;
            }
        }
        return false;
    }

    // ---- C1 ----------------------------------------------------------------

    const ContractConfig::LaneFamily* family_scope(
        const std::string& family) const {
        for (const auto& fam : ccfg_.lane_families) {
            if (fam.family == family) return &fam;
        }
        return nullptr;
    }

    void check_lanes() {
        struct LaneInfo {
            std::string family;
            std::uint64_t value = 0;
            std::size_t line = 0;
        };
        std::map<std::string, LaneInfo> lanes;  // name -> info
        std::map<std::string, std::map<std::uint64_t, std::string>> taken;
        for (const NamedValue& nv : registry_.lanes) {
            if (!nv.fits) {
                emit("C1", ccfg_.registry_path, nv.line,
                     "lane constant '" + nv.name + "' = " + nv.literal +
                         " does not fit in 64 bits");
                continue;
            }
            std::string family;
            parse_lane_name(nv.name, &family);
            const std::size_t lane_pos = nv.name.find("Lane");
            const std::string suffix = nv.name.substr(lane_pos + 4);
            if (family.empty() || suffix.empty()) {
                emit("C1", ccfg_.registry_path, nv.line,
                     "lane constant '" + nv.name +
                         "' must be named k<Family>Lane<Name>");
                continue;
            }
            if (family_scope(family) == nullptr) {
                emit("C1", ccfg_.registry_path, nv.line,
                     "lane family '" + family +
                         "' has no path scope configured in the lint "
                         "ContractConfig: add it alongside the new lanes");
                continue;
            }
            auto& values = taken[family];
            const auto prev = values.find(nv.value);
            if (prev != values.end()) {
                emit("C1", ccfg_.registry_path, nv.line,
                     "lane value " + std::to_string(nv.value) +
                         " in family '" + family + "' collides with '" +
                         prev->second +
                         "': independent RNG consumers on the same root "
                         "would draw correlated streams");
                continue;
            }
            values[nv.value] = nv.name;
            lanes[nv.name] = {family, nv.value, nv.line};
        }

        std::set<std::string> used;
        for (const FileScan& f : scans_) {
            if (!f.read_ok || f.fully_allowlisted ||
                f.path == ccfg_.registry_path) {
                continue;
            }
            const bool in_scope =
                path_has_prefix(f.path, ccfg_.lane_literal_paths);
            for (const SplitSite& site : split_sites(f.s)) {
                if (!site.name.empty()) used.insert(site.name);
                if (!in_scope) continue;
                if (!site.literal.empty()) {
                    emit("C1", f.path, site.line,
                         "magic RNG split lane " + site.literal +
                             ": use a named k<Family>Lane<Name> constant "
                             "from " + ccfg_.registry_path);
                    continue;
                }
                const auto it = lanes.find(site.name);
                if (it == lanes.end()) {
                    emit("C1", f.path, site.line,
                         "split lane '" + site.name +
                             "' is not a registered lane constant in " +
                             ccfg_.registry_path);
                    continue;
                }
                const ContractConfig::LaneFamily* fam =
                    family_scope(it->second.family);
                if (fam != nullptr && !path_has_prefix(f.path, fam->prefixes)) {
                    emit("C1", f.path, site.line,
                         "lane '" + site.name + "' belongs to family '" +
                             it->second.family +
                             "', which is scoped to other paths: reusing a "
                             "lane across subsystems aliases their RNG "
                             "streams");
                }
            }
        }

        // C5: registered lanes nothing ever splits.
        for (const auto& [name, info] : lanes) {
            const ContractConfig::LaneFamily* fam = family_scope(info.family);
            if (fam == nullptr || !scanned_under(fam->prefixes)) continue;
            if (used.count(name) == 0) {
                emit("C5", ccfg_.registry_path, info.line,
                     "dead lane '" + name +
                         "': no .split() site in the scanned tree uses it");
            }
        }
    }

    // ---- C2 ----------------------------------------------------------------

    void check_wire_tags() {
        std::map<std::string, NamedValue> tags;
        std::map<std::uint64_t, std::string> values;
        for (const NamedValue& nv : registry_.tags) {
            if (!nv.fits) {
                emit("C2", ccfg_.registry_path, nv.line,
                     "wire tag constant '" + nv.name + "' = " + nv.literal +
                         " does not fit in 64 bits");
                continue;
            }
            const auto prev = values.find(nv.value);
            if (prev != values.end()) {
                emit("C2", ccfg_.registry_path, nv.line,
                     "wire tag value " + std::to_string(nv.value) +
                         " of '" + nv.name + "' collides with '" +
                         prev->second + "': tags share one byte on the wire");
                continue;
            }
            values[nv.value] = nv.name;
            tags[nv.name] = nv;
        }
        const FileScan* header = find(ccfg_.codec_header);
        std::map<std::string, std::size_t> refs;
        if (header != nullptr) {
            for (const WireEnumEntry& e :
                 wire_enum_entries(header->s, ccfg_.wire_enum)) {
                if (!e.literal.empty()) {
                    emit("C2", ccfg_.codec_header, e.line,
                         "magic wire tag " + e.literal +
                             " for enumerator '" + e.enumerator +
                             "': take the value from a kWireTag<Name> "
                             "constant in " + ccfg_.registry_path);
                    continue;
                }
                if (e.init_name.empty() || tags.count(e.init_name) == 0) {
                    emit("C2", ccfg_.codec_header, e.line,
                         "enumerator '" + e.enumerator +
                             "' does not take its value from a registered "
                             "kWireTag<Name> constant");
                    continue;
                }
                const std::string expected =
                    "kWireTag" + e.enumerator.substr(1);
                if (e.init_name != expected) {
                    emit("C2", ccfg_.codec_header, e.line,
                         "enumerator '" + e.enumerator + "' must take '" +
                             expected + "', not '" + e.init_name +
                             "' (one tag, one name)");
                    continue;
                }
                ++refs[e.init_name];
            }
        }
        const FileScan* impl = find(ccfg_.codec_impl);
        for (const auto& [name, nv] : tags) {
            if (header != nullptr) {
                const std::size_t n = refs.count(name) ? refs[name] : 0;
                if (n == 0) {
                    emit("C5", ccfg_.registry_path, nv.line,
                         "dead wire tag '" + name + "': no " +
                             ccfg_.wire_enum + " enumerator takes it");
                    continue;
                }
                if (n > 1) {
                    emit("C2", ccfg_.codec_header, nv.line,
                         "wire tag '" + name + "' taken by " +
                             std::to_string(n) +
                             " enumerators: declare each tag exactly once");
                    continue;
                }
            }
            const std::string decoder = "decode_" + lower(name.substr(8));
            if (impl != nullptr && !file_has_token(impl->s, decoder)) {
                emit("C2", ccfg_.registry_path, nv.line,
                     "wire tag '" + name + "' has no canonical decoder '" +
                         decoder + "' in " + ccfg_.codec_impl);
            }
            bool corpus_scanned = false;
            bool covered = false;
            for (const std::string& rel : ccfg_.fuzz_corpus) {
                if (const FileScan* c = find(rel)) {
                    corpus_scanned = true;
                    if (file_has_token(c->s, decoder)) covered = true;
                }
            }
            if (corpus_scanned && !covered) {
                emit("C2", ccfg_.registry_path, nv.line,
                     "wire tag '" + name +
                         "' has no structure-aware fuzz corpus entry: no "
                         "corpus harness exercises '" + decoder + "'");
            }
        }
    }

    // ---- C4 ----------------------------------------------------------------

    void check_gates() {
        if (!registry_.gate_keys) return;
        std::set<std::string> gate_keys;
        for (const StringLit& lit : *registry_.gate_keys) {
            gate_keys.insert(lit.text);
        }

        const TextFile ci = read_text(root_, ccfg_.ci_workflow);
        const TextFile base = read_text(root_, ccfg_.baselines);
        const std::vector<GateStep> steps =
            ci.ok ? parse_ci(ci) : std::vector<GateStep>{};
        std::vector<std::pair<std::string, std::size_t>> base_keys;
        if (base.ok) base_keys = parse_json_keys(base);
        std::set<std::string> base_set;
        for (const auto& [k, line] : base_keys) base_set.insert(k);

        std::set<std::string> consumed;
        std::set<std::string> gated_names;
        for (const GateStep& step : steps) {
            const std::string key =
                step.key.empty() ? ccfg_.default_gate_key : step.key;
            if (!step.key.empty() && gate_keys.count(step.key) == 0) {
                emit("C4", ccfg_.ci_workflow, step.key_line,
                     "perf gate consumes key '" + step.key +
                         "' that is not in " + ccfg_.gate_key_table + " (" +
                         ccfg_.registry_path + ")");
            }
            consumed.insert(key);
            for (const auto& [name, line] : step.mappings) {
                gated_names.insert(name);
                // Resolve the logical bench name to its source: exact
                // match first, then with the last _suffix stripped
                // (bench_fec_gf256 -> bench_fec).
                const FileScan* bench =
                    find(ccfg_.bench_prefix + name + ".cpp");
                if (bench == nullptr) {
                    const std::size_t us = name.rfind('_');
                    if (us != std::string::npos) {
                        bench = find(ccfg_.bench_prefix +
                                     name.substr(0, us) + ".cpp");
                    }
                }
                if (bench == nullptr) {
                    if (scanned_under({ccfg_.bench_prefix})) {
                        emit("C4", ccfg_.ci_workflow, line,
                             "perf gate entry '" + name +
                                 "' does not resolve to a bench source "
                                 "under " + ccfg_.bench_prefix);
                    }
                    continue;
                }
                bool emits = false;
                for (const StringLit& lit : call_literals(bench->s, "key")) {
                    if (lit.text == key) emits = true;
                }
                if (!emits) {
                    emit("C4", ccfg_.ci_workflow, line,
                         "gated bench '" + bench->path +
                             "' never emits the gated key \"" + key +
                             "\": the claim gate would fail at runtime");
                }
                if (base.ok && base_set.count(name) == 0) {
                    emit("C4", ccfg_.ci_workflow, line,
                         "perf gate entry '" + name +
                             "' has no frozen floor in " + ccfg_.baselines);
                }
            }
        }

        // The default key is consumed by perf_gate's own source.
        bool perf_gate_scanned = false;
        for (const FileScan& f : scans_) {
            if (!f.read_ok || f.fully_allowlisted ||
                !path_has_prefix(f.path, {ccfg_.perf_gate_prefix})) {
                continue;
            }
            perf_gate_scanned = true;
            for (const StringLit& lit : f.s.strings) {
                if (gate_keys.count(lit.text) != 0) consumed.insert(lit.text);
            }
        }
        if (perf_gate_scanned &&
            gate_keys.count(ccfg_.default_gate_key) == 0) {
            emit("C4", ccfg_.registry_path, 0,
                 "perf_gate's default key '" + ccfg_.default_gate_key +
                     "' is not in " + ccfg_.gate_key_table);
        }

        if (ci.ok || perf_gate_scanned) {
            for (const StringLit& entry : *registry_.gate_keys) {
                if (consumed.count(entry.text) == 0) {
                    emit("C5", ccfg_.registry_path, entry.line,
                         "dead registry entry \"" + entry.text + "\" in " +
                             ccfg_.gate_key_table +
                             ": no CI gate or perf_gate consumer references "
                             "it");
                }
            }
        }
        if (ci.ok && base.ok) {
            for (const auto& [k, line] : base_keys) {
                if (!k.empty() && k[0] == '_') continue;  // annotations
                if (gated_names.count(k) == 0) {
                    emit("C5", ccfg_.baselines, line,
                         "baseline floor '" + k +
                             "' is gated by no CI perf_gate step");
                }
            }
        }
    }

    const std::string root_;
    const LintConfig& cfg_;
    const ContractConfig& ccfg_;
    const std::vector<FileScan>& scans_;
    std::vector<Diagnostic>& out_;
    std::map<std::string, const FileScan*> by_path_;
    RegistryFacts registry_;
    Stripped side_loaded_;
};

}  // namespace

// ---- public API ------------------------------------------------------------

ContractConfig default_contract_config() { return {}; }

std::vector<Diagnostic> scan_tree(const std::string& root,
                                  const std::vector<std::string>& paths,
                                  const LintConfig& cfg,
                                  const ScanOptions& opt) {
    namespace fs = std::filesystem;
    static const std::set<std::string> kExts = {
        ".cpp", ".cc", ".cxx", ".hpp", ".hxx", ".h", ".ipp"};
    std::vector<std::string> files;
    for (const std::string& p : paths) {
        const fs::path abs = fs::path(root) / p;
        if (fs::is_directory(abs)) {
            for (const auto& entry : fs::recursive_directory_iterator(abs)) {
                if (!entry.is_regular_file()) continue;
                if (kExts.count(entry.path().extension().string()) == 0) {
                    continue;
                }
                files.push_back(
                    fs::relative(entry.path(), root).generic_string());
            }
        } else {
            files.push_back(p);
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    if (opt.visited != nullptr) *opt.visited = files;

    // Phase 1: read + strip + parse suppressions, in parallel.  Results
    // land in slot `i`, so output order never depends on thread timing.
    std::vector<internal::FileScan> scans(files.size());
    auto scan_one = [&](std::size_t i) {
        internal::FileScan& f = scans[i];
        f.path = files[i];
        f.fully_allowlisted = internal::rule_allowlisted(cfg, "*", f.path);
        std::ifstream in(fs::path(root) / f.path, std::ios::binary);
        if (!in) {
            f.read_ok = false;
            return;
        }
        if (f.fully_allowlisted) return;  // muted: skip the strip entirely
        std::ostringstream buf;
        buf << in.rdbuf();
        f.s = internal::strip(buf.str());
        f.sup = internal::parse_suppressions(f.path, f.s);
    };
    std::size_t jobs = opt.jobs;
    if (jobs == 0) {
        jobs = std::max(1u, std::thread::hardware_concurrency());
    }
    jobs = std::min(jobs, files.size());
    if (jobs <= 1) {
        for (std::size_t i = 0; i < files.size(); ++i) scan_one(i);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> workers;
        workers.reserve(jobs);
        for (std::size_t w = 0; w < jobs; ++w) {
            workers.emplace_back([&]() {
                for (std::size_t i = next.fetch_add(1); i < files.size();
                     i = next.fetch_add(1)) {
                    scan_one(i);
                }
            });
        }
        for (std::thread& t : workers) t.join();
    }

    // Token rules, serial over the already-stripped files.
    std::vector<Diagnostic> out;
    for (const internal::FileScan& f : scans) {
        if (!f.read_ok) {
            if (!internal::rule_allowlisted(cfg, "*", f.path)) {
                out.push_back(
                    {f.path, 0, "D0", "cannot read file", Severity::kError});
            }
            continue;
        }
        if (f.fully_allowlisted || !opt.token_rules) continue;
        for (const Diagnostic& d : f.sup.malformed) {
            if (!internal::rule_allowlisted(cfg, "D0", f.path)) {
                out.push_back(d);
            }
        }
        internal::Emitter e(f.path, cfg, f.sup, out);
        internal::check_token_rules(f.path, f.s, cfg, e);
    }

    if (opt.contract_rules) {
        ContractChecker checker(root, cfg, opt.contracts, scans, out);
        checker.run();
    }

    std::sort(out.begin(), out.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                  if (a.path != b.path) return a.path < b.path;
                  if (a.line != b.line) return a.line < b.line;
                  return a.rule < b.rule;
              });
    return out;
}

std::vector<std::string> coverage_gaps(
    const std::vector<std::string>& visited,
    const std::string& compile_commands_text, const std::string& root,
    const std::vector<std::string>& prefixes) {
    const std::set<std::string> seen(visited.begin(), visited.end());
    // compile_commands entries are usually absolute; relativize against the
    // scan root both as given and absolutized (so --root=. works).
    std::vector<std::string> roots;
    roots.push_back(
        std::filesystem::path(root).lexically_normal().generic_string());
    std::error_code ec;
    const auto abs = std::filesystem::absolute(root, ec);
    if (!ec) {
        roots.push_back(abs.lexically_normal().generic_string());
    }
    for (std::string& r : roots) {
        while (!r.empty() && r.back() == '/') r.pop_back();
    }
    std::vector<std::string> gaps;
    // compile_commands.json is machine-written: scan for `"file"` keys and
    // take the next string value.
    std::size_t pos = 0;
    const std::string& text = compile_commands_text;
    while ((pos = text.find("\"file\"", pos)) != std::string::npos) {
        pos += 6;
        const std::size_t open = text.find('"', pos);
        if (open == std::string::npos) break;
        const std::size_t close = text.find('"', open + 1);
        if (close == std::string::npos) break;
        std::string file = text.substr(open + 1, close - open - 1);
        pos = close + 1;
        file = std::filesystem::path(file).lexically_normal().generic_string();
        for (const std::string& r : roots) {
            if (file.rfind(r + "/", 0) == 0) {
                file = file.substr(r.size() + 1);
                break;
            }
        }
        if (std::filesystem::path(file).is_absolute()) continue;  // external
        if (!internal::path_has_prefix(file, prefixes)) continue;
        if (seen.count(file) == 0) gaps.push_back(file);
    }
    std::sort(gaps.begin(), gaps.end());
    gaps.erase(std::unique(gaps.begin(), gaps.end()), gaps.end());
    return gaps;
}

}  // namespace espread::lint
