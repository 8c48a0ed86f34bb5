// mca_lint — project-invariant static analysis for the mca tree.
//
// The repo's correctness story is mostly runtime gates (golden
// fingerprints, the counting-allocator hot-path test, sanitizer legs).
// This tool is their static twin: it walks src/, bench/, tests/, tools/,
// mca_bench/ and examples/ and enforces the invariants those gates rely
// on *everywhere*, not just on the code paths a fixed-seed run happens to
// execute.
//
// Rule families (rule ids in brackets):
//
//  hot-path hygiene — inside regions bracketed by
//      // mca:hot-path-begin(<tag>)  ...  // mca:hot-path-end
//    ban heap allocation [hot-alloc], node-based containers [hot-alloc],
//    std::function construction [hot-function], unreserved push_back on
//    local vectors [hot-vector-growth], mutexes/locks [hot-lock], throw
//    [hot-throw] and stdio/iostream I/O [hot-io].  Region markers must
//    balance [hot-region].
//
//  determinism (src/ only) — ban ambient randomness [det-random]
//    (rand, srand, std::random_device), clock reads [det-wallclock]
//    (system_clock/steady_clock/..., time(), gettimeofday, ...), and
//    range-for iteration over unordered containers [det-unordered-iter]
//    anywhere in the library: everything under src/ can feed a digest or
//    fingerprint.  The few legitimate wall-clock sites (bench timing,
//    tracer wall lanes) carry explicit allow() suppressions with reasons.
//    Outside src/exp/ (the thread pool and the replication runner),
//    atomics, mutexes and thread starts (thread, jthread, async)
//    [det-shared-state] are banned too: a simulation shares nothing with
//    its siblings but the pool's batch index, and only the pool starts
//    threads.  Everywhere (tests too), two draws from one util::rng in
//    one full-expression that nothing sequences — two arguments of one
//    call, two operands of `+` — are flagged [det-rng-unsequenced]: the
//    compiler picks their order, so the numbers could change with it.
//
//  header hygiene — every header needs #pragma once or an include guard
//    [hdr-guard] and must not contain using-namespace [hdr-using-namespace].
//    (Self-containment is enforced by the generated one-TU-per-header
//    build, see MCA_HEADER_SELFCHECK in CMakeLists.txt.)
//
//  obs discipline — the observability enums are cross-referenced against
//    the rest of the tree: every enum value must be recorded or read
//    somewhere outside its defining files [obs-dead-counter], and every
//    use must name a registered value [obs-unknown-counter].  The
//    counter/series enums in obs/registry.h, fault_kind in
//    fault/fault_program.h and alert_kind in obs/alerts.h share those
//    rules; alert_kind, which the health report prints by name, also
//    needs every value in its name table in alerts.cpp
//    [obs-unnamed-counter].  span_kind in obs/tracer.h gets the same
//    three checks under its own rule ids [obs-dead-span] /
//    [obs-unknown-span] / [obs-unnamed-span] — so every span kind
//    provably has at least one recording site and an exporter name-table
//    entry in tracer.cpp.
//
// Suppressions:  // mca-lint: allow(<rule>[,<rule>...]) <reason>
// suppresses matching violations on its own line (or, when the comment
// stands alone, on the following line).  // mca-lint: allow-file(<rule>)
// <reason> suppresses for the whole file.  The reason is mandatory — an
// allow without one is itself a violation [bad-suppression].
//
// Output: one "file:line: rule: message" per violation; exit 0 iff clean.
// --self-test runs the rules against embedded known-bad snippets so the
// lint's own behavior is gated by ctest like everything else.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lexer.h"

namespace mca::lint {
namespace {

struct violation {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct allow_directive {
  int line = 0;
  bool own_line = false;
  bool whole_file = false;
  std::vector<std::string> rules;
  bool has_reason = false;
};

struct hot_region {
  int begin = 0;
  int end = 0;  ///< 0 while unclosed
  std::string tag;
};

struct source_file {
  std::string display;  ///< path relative to the scan root
  bool is_header = false;
  bool in_src = false;  ///< under src/ → determinism rules apply
  lex_result lex;
  std::vector<allow_directive> allows;
  std::vector<hot_region> regions;
};

const std::set<std::string>& known_rules() {
  static const std::set<std::string> rules{
      "hot-alloc",        "hot-function",      "hot-vector-growth",
      "hot-lock",         "hot-throw",         "hot-io",
      "hot-string-build", "hot-region",        "det-random",
      "det-wallclock",    "det-shared-state",  "det-rng-unsequenced",
      "det-unordered-iter", "hdr-guard",       "hdr-using-namespace",
      "obs-dead-counter", "obs-unknown-counter", "obs-unnamed-counter",
      "obs-dead-span",    "obs-unknown-span",    "obs-unnamed-span",
      "bad-suppression"};
  return rules;
}

// ---- directive parsing ---------------------------------------------------

/// Splits "a, b" into trimmed names.
std::vector<std::string> split_rule_list(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else if (c != ' ' && c != '\t') {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

void parse_directives(source_file& f, std::vector<violation>& out) {
  std::vector<hot_region> open;
  for (const comment& cm : f.lex.comments) {
    const std::string& text = cm.text;
    if (text.rfind("mca:hot-path-begin(", 0) == 0) {
      const auto close = text.find(')');
      const std::string tag =
          close == std::string::npos
              ? std::string{}
              : text.substr(19, close - 19);
      if (tag.empty()) {
        out.push_back({f.display, cm.line, "hot-region",
                       "hot-path-begin needs a (tag)"});
      }
      open.push_back({cm.line, 0, tag});
      continue;
    }
    if (text.rfind("mca:hot-path-end", 0) == 0) {
      if (open.empty()) {
        out.push_back({f.display, cm.line, "hot-region",
                       "hot-path-end without matching begin"});
        continue;
      }
      open.back().end = cm.line;
      f.regions.push_back(open.back());
      open.pop_back();
      continue;
    }
    if (text.rfind("mca-lint:", 0) == 0) {
      std::string rest = text.substr(9);
      const auto first = rest.find_first_not_of(" \t");
      rest = first == std::string::npos ? std::string{} : rest.substr(first);
      const bool whole_file = rest.rfind("allow-file(", 0) == 0;
      const bool one_line = rest.rfind("allow(", 0) == 0;
      if (!whole_file && !one_line) {
        out.push_back({f.display, cm.line, "bad-suppression",
                       "unrecognized mca-lint directive: " + rest});
        continue;
      }
      const auto open_paren = rest.find('(');
      const auto close_paren = rest.find(')', open_paren);
      if (close_paren == std::string::npos) {
        out.push_back({f.display, cm.line, "bad-suppression",
                       "allow() missing closing parenthesis"});
        continue;
      }
      allow_directive d;
      d.line = cm.line;
      d.own_line = cm.own_line;
      d.whole_file = whole_file;
      d.rules = split_rule_list(
          rest.substr(open_paren + 1, close_paren - open_paren - 1));
      std::string reason = rest.substr(close_paren + 1);
      const auto r = reason.find_first_not_of(" \t");
      d.has_reason = r != std::string::npos;
      if (d.rules.empty()) {
        out.push_back({f.display, cm.line, "bad-suppression",
                       "allow() names no rules"});
      }
      for (const std::string& rule : d.rules) {
        if (known_rules().count(rule) == 0) {
          out.push_back({f.display, cm.line, "bad-suppression",
                         "allow() names unknown rule '" + rule + "'"});
        }
      }
      if (!d.has_reason) {
        out.push_back({f.display, cm.line, "bad-suppression",
                       "allow() needs a written reason after the ')'"});
      }
      f.allows.push_back(std::move(d));
      continue;
    }
  }
  for (const hot_region& r : open) {
    out.push_back({f.display, r.begin, "hot-region",
                   "hot-path-begin(" + r.tag + ") never closed"});
  }
}

// ---- token helpers -------------------------------------------------------

bool is_ident(const token& t, const char* text) {
  return t.kind == token_kind::identifier && t.text == text;
}

bool is_punct(const token& t, char c) {
  return t.kind == token_kind::punct && t.text.size() == 1 && t.text[0] == c;
}

/// True when tokens i-3..i-1 spell `std::` (three tokens: std, :, :).
bool std_qualified(const std::vector<token>& tk, std::size_t i) {
  return i >= 3 && is_punct(tk[i - 1], ':') && is_punct(tk[i - 2], ':') &&
         is_ident(tk[i - 3], "std");
}

/// True when token i is part of a `foo::bar` chain on its right
/// (identifier followed by ::) — used to skip e.g. `map::iterator` false
/// positives where `map` is a nested name we already flagged.
bool followed_by_scope(const std::vector<token>& tk, std::size_t i) {
  return i + 2 < tk.size() && is_punct(tk[i + 1], ':') &&
         is_punct(tk[i + 2], ':');
}

// ---- hot-path rules ------------------------------------------------------

const std::set<std::string>& node_containers() {
  static const std::set<std::string> names{
      "map",         "multimap",      "set",
      "multiset",    "list",          "forward_list",
      "deque",       "unordered_map", "unordered_set",
      "unordered_multimap", "unordered_multiset"};
  return names;
}

const std::set<std::string>& alloc_calls() {
  static const std::set<std::string> names{
      "malloc", "calloc", "realloc", "strdup", "make_unique", "make_shared"};
  return names;
}

const std::set<std::string>& lock_names() {
  static const std::set<std::string> names{
      "mutex",       "recursive_mutex", "shared_mutex", "timed_mutex",
      "lock_guard",  "unique_lock",     "scoped_lock",  "shared_lock",
      "condition_variable", "condition_variable_any"};
  return names;
}

const std::set<std::string>& io_names() {
  static const std::set<std::string> names{
      "printf", "fprintf", "puts",  "fputs",    "fwrite",  "fread",
      "fopen",  "fclose",  "scanf", "fscanf",   "getchar", "getline",
      "cout",   "cerr",    "clog",  "ofstream", "ifstream", "fstream"};
  return names;
}

void check_hot_regions(const source_file& f, std::vector<violation>& out) {
  auto region_of = [&](int line) -> const hot_region* {
    for (const hot_region& r : f.regions) {
      if (line >= r.begin && (r.end == 0 || line <= r.end)) return &r;
    }
    return nullptr;
  };
  const std::vector<token>& tk = f.lex.tokens;
  // Local-vector tracking for hot-vector-growth: names declared as
  // std::vector inside a hot region, minus those that called reserve().
  std::set<std::string> local_vectors;
  std::set<std::string> reserved;
  const hot_region* prev_region = nullptr;

  for (std::size_t i = 0; i < tk.size(); ++i) {
    const token& t = tk[i];
    const hot_region* region = region_of(t.line);
    if (region != prev_region) {
      local_vectors.clear();
      reserved.clear();
      prev_region = region;
    }
    if (region == nullptr || t.kind != token_kind::identifier) continue;
    const std::string in_tag = " in hot path '" + region->tag + "'";

    if (t.text == "new") {
      out.push_back({f.display, t.line, "hot-alloc",
                     "operator new" + in_tag});
    } else if (alloc_calls().count(t.text) > 0) {
      out.push_back({f.display, t.line, "hot-alloc",
                     t.text + "()" + in_tag});
    } else if (node_containers().count(t.text) > 0 && std_qualified(tk, i)) {
      out.push_back({f.display, t.line, "hot-alloc",
                     "node-based container std::" + t.text + in_tag});
    } else if (t.text == "function" && std_qualified(tk, i)) {
      out.push_back({f.display, t.line, "hot-function",
                     "std::function construction" + in_tag +
                         " (use a concrete callable or SBO lambda)"});
    } else if (lock_names().count(t.text) > 0 && std_qualified(tk, i)) {
      out.push_back({f.display, t.line, "hot-lock",
                     "std::" + t.text + in_tag});
    } else if (t.text.rfind("pthread_mutex", 0) == 0 ||
               t.text.rfind("pthread_cond", 0) == 0) {
      out.push_back({f.display, t.line, "hot-lock", t.text + in_tag});
    } else if (t.text == "throw") {
      out.push_back({f.display, t.line, "hot-throw", "throw" + in_tag});
    } else if ((t.text == "to_string" || t.text == "ostringstream" ||
                t.text == "stringstream") &&
               std_qualified(tk, i)) {
      out.push_back({f.display, t.line, "hot-string-build",
                     "std::" + t.text + in_tag + " (string building "
                     "allocates)"});
    } else if (t.text == "string" && std_qualified(tk, i) &&
               !(i + 1 < tk.size() && (is_punct(tk[i + 1], '&') ||
                                       is_punct(tk[i + 1], '*') ||
                                       is_punct(tk[i + 1], '>')))) {
      // std::string by value / construction allocates; views and
      // references (std::string&, std::string*, a template argument
      // closing with >) pass through.
      out.push_back({f.display, t.line, "hot-string-build",
                     "std::string construction" + in_tag +
                         " (use string_view or an interned id)"});
    } else if (io_names().count(t.text) > 0 &&
               !followed_by_scope(tk, i)) {
      out.push_back({f.display, t.line, "hot-io", t.text + in_tag});
    } else if (t.text == "vector" && std_qualified(tk, i) &&
               i + 1 < tk.size() && is_punct(tk[i + 1], '<')) {
      // std::vector< ... > name  → track `name` as an unreserved local.
      std::size_t j = i + 1;
      int depth = 0;
      while (j < tk.size()) {
        if (is_punct(tk[j], '<')) ++depth;
        if (is_punct(tk[j], '>') && --depth == 0) break;
        ++j;
      }
      if (j + 1 < tk.size() &&
          tk[j + 1].kind == token_kind::identifier) {
        local_vectors.insert(tk[j + 1].text);
      }
    } else if ((t.text == "push_back" || t.text == "emplace_back") &&
               i >= 2 && is_punct(tk[i - 1], '.') &&
               tk[i - 2].kind == token_kind::identifier &&
               local_vectors.count(tk[i - 2].text) > 0 &&
               reserved.count(tk[i - 2].text) == 0) {
      out.push_back({f.display, t.line, "hot-vector-growth",
                     tk[i - 2].text + "." + t.text +
                         " on an unreserved local vector" + in_tag});
    } else if (t.text == "reserve" && i >= 2 && is_punct(tk[i - 1], '.') &&
               tk[i - 2].kind == token_kind::identifier) {
      reserved.insert(tk[i - 2].text);
    }
  }
}

// ---- determinism rules ---------------------------------------------------

const std::set<std::string>& wallclock_names() {
  static const std::set<std::string> names{
      "system_clock", "steady_clock", "high_resolution_clock",
      "gettimeofday", "clock_gettime", "localtime", "gmtime", "strftime"};
  return names;
}

void check_determinism(const source_file& f, std::vector<violation>& out) {
  const std::vector<token>& tk = f.lex.tokens;
  for (std::size_t i = 0; i < tk.size(); ++i) {
    const token& t = tk[i];
    if (t.kind != token_kind::identifier) continue;
    if (t.text == "rand" || t.text == "srand" ||
        t.text == "random_device") {
      out.push_back({f.display, t.line, "det-random",
                     t.text + ": ambient randomness breaks replayable "
                     "digests (use util::rng streams)"});
    } else if (wallclock_names().count(t.text) > 0) {
      out.push_back({f.display, t.line, "det-wallclock",
                     t.text + ": clock reads may not feed digests or "
                     "fingerprints (sim time only)"});
    } else if (t.text == "time" && i + 1 < tk.size() &&
               is_punct(tk[i + 1], '(') &&
               (i == 0 || (tk[i - 1].kind != token_kind::identifier &&
                           !is_punct(tk[i - 1], '.') &&
                           !is_punct(tk[i - 1], ':') &&
                           !is_punct(tk[i - 1], '>')))) {
      // Bare call of ::time() — member calls (.time(), ->time()),
      // qualified names (x::time) and declarations (`double time(...)`,
      // previous token an identifier) don't match.
      out.push_back({f.display, t.line, "det-wallclock",
                     "time(): wall-clock read"});
    }
  }
}

/// Atomics, mutexes and thread starts outside src/exp/: state shared
/// across simulations makes a run depend on thread interleaving, and the
/// pool is the one place that starts threads.
void check_shared_state(const source_file& f, std::vector<violation>& out) {
  if (f.display.rfind("src/exp/", 0) == 0) return;
  for (const token& t : f.lex.tokens) {
    if (t.kind != token_kind::identifier) continue;
    if (t.text == "atomic" || t.text == "mutex" ||
        t.text == "shared_mutex" || t.text == "recursive_mutex") {
      out.push_back({f.display, t.line, "det-shared-state",
                     t.text + ": simulations share no state but the "
                     "pool's batch index (keep it in src/exp/)"});
    } else if (t.text == "thread" || t.text == "jthread" ||
               t.text == "async") {
      out.push_back({f.display, t.line, "det-shared-state",
                     t.text + ": only the src/exp/ thread pool starts "
                     "threads (run parallel work on it)"});
    }
  }
}

/// Pass A: names declared anywhere as a util::rng (`rng name`, `rng&
/// name`, `rng* name`), so pass B can tell which calls draw.
void collect_rng_names(const source_file& f, std::set<std::string>& names) {
  const std::vector<token>& tk = f.lex.tokens;
  for (std::size_t i = 0; i + 1 < tk.size(); ++i) {
    if (!is_ident(tk[i], "rng") || followed_by_scope(tk, i)) continue;
    std::size_t j = i + 1;
    while (j < tk.size() && (is_punct(tk[j], '&') || is_punct(tk[j], '*') ||
                             is_ident(tk[j], "const"))) {
      ++j;
    }
    if (j < tk.size() && tk[j].kind == token_kind::identifier) {
      names.insert(tk[j].text);
    }
  }
}

/// True when tokens i and i+1 are one two-character operator `c c`.
bool doubled(const std::vector<token>& tk, std::size_t i, char c) {
  return i + 1 < tk.size() && is_punct(tk[i], c) && is_punct(tk[i + 1], c) &&
         tk[i + 1].offset == tk[i].offset + 1;
}

/// Two draws from one util::rng in one full-expression with nothing that
/// sequences them: operands of `+`, `*`, `<`, ... and the arguments of one
/// call are unsequenced, so which draw comes first is the compiler's
/// choice and the run's numbers can differ between compilers.  `&&`,
/// `||`, `?:`, the comma operator, `<<`, `>>`, assignment, a braced
/// initializer list and a postfix chain (`a.f(x).g(y)`) sequence their
/// operands.  A draw is a call of the object, one of its drawing members,
/// or the object passed whole to `sample` or `random_request`.
void check_rng_unsequenced(const source_file& f,
                           const std::set<std::string>& rng_names,
                           std::vector<violation>& out) {
  static const std::set<std::string> kDrawMembers{
      "uniform",     "uniform_int", "normal", "exponential",
      "lognormal",   "bernoulli",   "pick",   "fork"};
  const std::vector<token>& tk = f.lex.tokens;
  const std::size_t n = tk.size();
  auto is_open = [&](std::size_t i) {
    return is_punct(tk[i], '(') || is_punct(tk[i], '[') ||
           is_punct(tk[i], '{');
  };
  auto is_close = [&](std::size_t i) {
    return is_punct(tk[i], ')') || is_punct(tk[i], ']') ||
           is_punct(tk[i], '}');
  };
  // Bracket depth before each token (a bracket sits at its outer depth),
  // each bracket's opener, and which braces open a block, not a list.
  std::vector<int> depth(n, 0);
  std::vector<std::size_t> opener(n, n);
  std::vector<bool> block(n, false);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < n; ++i) {
    depth[i] = static_cast<int>(stack.size());
    if (is_open(i)) {
      if (is_punct(tk[i], '{')) {
        block[i] = i == 0 || is_punct(tk[i - 1], ')') ||
                   is_punct(tk[i - 1], ';') || is_punct(tk[i - 1], '{') ||
                   is_punct(tk[i - 1], '}') || is_punct(tk[i - 1], ':') ||
                   is_ident(tk[i - 1], "else") || is_ident(tk[i - 1], "do") ||
                   is_ident(tk[i - 1], "try") ||
                   is_ident(tk[i - 1], "const") ||
                   is_ident(tk[i - 1], "noexcept") ||
                   is_ident(tk[i - 1], "override") ||
                   is_ident(tk[i - 1], "mutable");
      }
      opener[i] = stack.empty() ? n : stack.back();
      stack.push_back(i);
    } else if (is_close(i)) {
      if (!stack.empty()) {
        block[i] = block[stack.back()];
        stack.pop_back();
      }
      depth[i] = static_cast<int>(stack.size());
      opener[i] = stack.empty() ? n : stack.back();
    } else {
      opener[i] = stack.empty() ? n : stack.back();
    }
  }

  // Draws in token order: (position, object).
  std::vector<std::pair<std::size_t, std::string>> draws;
  for (std::size_t i = 0; i < n; ++i) {
    if (tk[i].kind != token_kind::identifier ||
        rng_names.count(tk[i].text) == 0) {
      continue;
    }
    const bool member = i > 0 && (is_punct(tk[i - 1], '.') ||
                                  (is_punct(tk[i - 1], '>') && i > 1 &&
                                   is_punct(tk[i - 2], '-')));
    const bool scoped = i > 0 && is_punct(tk[i - 1], ':');
    // A declaration: `rng name`, `rng& name`, `auto name`, ...
    std::size_t type = i;
    while (type > 0 && (is_punct(tk[type - 1], '&') ||
                        is_punct(tk[type - 1], '*') ||
                        is_ident(tk[type - 1], "const"))) {
      --type;
    }
    const bool declared =
        type > 0 && tk[type - 1].kind == token_kind::identifier &&
        !is_ident(tk[type - 1], "return") &&
        (type == i || is_ident(tk[type - 1], "rng"));
    if (scoped || declared) continue;
    std::string object = tk[i].text;
    if (member && i >= 2 && tk[i - 2].kind == token_kind::identifier) {
      object = tk[i - 2].text + "." + object;
    }
    const bool called = i + 1 < n && is_punct(tk[i + 1], '(');
    const bool drawn_member =
        i + 3 < n && (is_punct(tk[i + 1], '.') ||
                      (is_punct(tk[i + 1], '-') && is_punct(tk[i + 2], '>'))) &&
        kDrawMembers.count(
            tk[is_punct(tk[i + 1], '.') ? i + 2 : i + 3].text) > 0;
    bool passed = false;
    if (i >= 2 && i + 1 < n &&
        (is_punct(tk[i - 1], '(') || is_punct(tk[i - 1], ',')) &&
        (is_punct(tk[i + 1], ')') || is_punct(tk[i + 1], ','))) {
      const std::size_t call = opener[i];
      passed = call < n && call > 0 && is_punct(tk[call], '(') &&
               (is_ident(tk[call - 1], "sample") ||
                is_ident(tk[call - 1], "random_request"));
    }
    if (called || drawn_member || passed) draws.emplace_back(i, object);
  }

  std::set<int> reported_lines;
  for (std::size_t a = 0; a < draws.size(); ++a) {
    for (std::size_t b = a + 1; b < draws.size(); ++b) {
      const std::size_t first = draws[a].first;
      const std::size_t second = draws[b].first;
      if (draws[a].second != draws[b].second) continue;
      // One full-expression: no `;` and no block brace between them.
      int level = depth[first];
      bool same_statement = true;
      for (std::size_t k = first; k <= second; ++k) {
        if (is_punct(tk[k], ';') || block[k]) same_statement = false;
        level = std::min(level, depth[k]);
      }
      if (!same_statement) break;
      // Sort the operators between the draws at their common level.
      bool comma = false;
      bool sequenced = false;
      bool unsequenced_op = false;
      std::size_t group = n;
      for (std::size_t k = first + 1; k < second; ++k) {
        if (depth[k] != level || is_open(k) || is_close(k)) continue;
        group = opener[k];
        const char c = tk[k].kind == token_kind::punct ? tk[k].text[0] : 0;
        if (c == ',') {
          comma = true;
        } else if (doubled(tk, k, '&') || doubled(tk, k, '|') ||
                   doubled(tk, k, '<') || doubled(tk, k, '>')) {
          sequenced = true;
          ++k;
        } else if (c == ':' && is_punct(tk[k + 1], ':')) {
          ++k;  // a scope, not a ternary
        } else if (c == '?' || c == ':') {
          sequenced = true;
        } else if (c == '=') {
          const bool comparison =
              (k + 1 < n && is_punct(tk[k + 1], '=')) ||
              (k > 0 && tk[k - 1].offset + 1 == tk[k].offset &&
               (is_punct(tk[k - 1], '=') || is_punct(tk[k - 1], '!') ||
                is_punct(tk[k - 1], '<') || is_punct(tk[k - 1], '>')));
          if (comparison) {
            unsequenced_op = true;
            if (k + 1 < n && is_punct(tk[k + 1], '=')) ++k;
          } else {
            sequenced = true;
          }
        } else if (c == '-' && k + 1 < n && is_punct(tk[k + 1], '>')) {
          ++k;  // member access
        } else if (c == '+' || c == '-' || c == '*' || c == '/' ||
                   c == '%' || c == '&' || c == '|' || c == '^' ||
                   c == '<' || c == '>') {
          unsequenced_op = true;
        }
      }
      bool flag = false;
      if (comma) {
        // A comma in a call's parentheses separates unsequenced
        // arguments; in braces it separates sequenced list elements, and
        // elsewhere it is the comma operator or a declarator list.
        const bool call_parens =
            group < n && group > 0 && is_punct(tk[group], '(') &&
            (is_punct(tk[group - 1], ')') || is_punct(tk[group - 1], '>') ||
             (tk[group - 1].kind == token_kind::identifier &&
              !is_ident(tk[group - 1], "return") &&
              !is_ident(tk[group - 1], "if") &&
              !is_ident(tk[group - 1], "while") &&
              !is_ident(tk[group - 1], "for") &&
              !is_ident(tk[group - 1], "switch")));
        flag = call_parens;
      } else {
        flag = unsequenced_op && !sequenced;
      }
      if (flag && reported_lines.insert(tk[second].line).second) {
        out.push_back({f.display, tk[second].line, "det-rng-unsequenced",
                       "two unsequenced draws from '" + draws[a].second +
                           "' in one expression: their order is the "
                           "compiler's (draw into named locals first)"});
      }
    }
  }
}

/// Pass A: names declared anywhere in src/ as unordered containers, so
/// pass B can flag range-for iteration over them.
void collect_unordered_names(const source_file& f,
                             std::set<std::string>& names) {
  const std::vector<token>& tk = f.lex.tokens;
  for (std::size_t i = 0; i < tk.size(); ++i) {
    if (tk[i].kind != token_kind::identifier) continue;
    if (tk[i].text != "unordered_map" && tk[i].text != "unordered_set" &&
        tk[i].text != "unordered_multimap" &&
        tk[i].text != "unordered_multiset") {
      continue;
    }
    if (i + 1 >= tk.size() || !is_punct(tk[i + 1], '<')) continue;
    std::size_t j = i + 1;
    int depth = 0;
    while (j < tk.size()) {
      if (is_punct(tk[j], '<')) ++depth;
      if (is_punct(tk[j], '>') && --depth == 0) break;
      ++j;
    }
    if (j + 1 < tk.size() && tk[j + 1].kind == token_kind::identifier) {
      names.insert(tk[j + 1].text);
    }
  }
}

void check_unordered_iteration(const source_file& f,
                               const std::set<std::string>& unordered_names,
                               std::vector<violation>& out) {
  const std::vector<token>& tk = f.lex.tokens;
  for (std::size_t i = 0; i + 1 < tk.size(); ++i) {
    if (!is_ident(tk[i], "for") || !is_punct(tk[i + 1], '(')) continue;
    // Scan the for-header for a top-level range `:` and take the trailing
    // identifier of the range expression.
    int depth = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    for (std::size_t j = i + 1; j < tk.size(); ++j) {
      if (is_punct(tk[j], '(') || is_punct(tk[j], '[')) ++depth;
      if (is_punct(tk[j], ')') || is_punct(tk[j], ']')) {
        if (--depth == 0) {
          close = j;
          break;
        }
      }
      if (depth == 1 && is_punct(tk[j], ':') && !is_punct(tk[j - 1], ':') &&
          (j + 1 >= tk.size() || !is_punct(tk[j + 1], ':'))) {
        colon = j;
      }
    }
    if (colon == 0 || close == 0) continue;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (tk[j].kind == token_kind::identifier &&
          unordered_names.count(tk[j].text) > 0) {
        out.push_back(
            {f.display, tk[j].line, "det-unordered-iter",
             "range-for over unordered container '" + tk[j].text +
                 "': iteration order is hash-dependent and may not feed "
                 "digests (iterate an ordered mirror instead)"});
      }
    }
  }
}

// ---- header rules --------------------------------------------------------

void check_header(const source_file& f, std::vector<violation>& out) {
  const std::vector<token>& tk = f.lex.tokens;
  bool guarded = false;
  for (std::size_t i = 0; i + 1 < tk.size() && !guarded; ++i) {
    if (is_ident(tk[i], "pragma") && is_ident(tk[i + 1], "once")) {
      guarded = true;
    }
    if (is_ident(tk[i], "ifndef") && i + 3 < tk.size() &&
        tk[i + 1].kind == token_kind::identifier &&
        is_punct(tk[i + 2], '#') && is_ident(tk[i + 3], "define")) {
      guarded = true;
    }
  }
  if (!guarded) {
    out.push_back({f.display, 1, "hdr-guard",
                   "header lacks #pragma once or an include guard"});
  }
  for (std::size_t i = 0; i + 1 < tk.size(); ++i) {
    if (is_ident(tk[i], "using") && is_ident(tk[i + 1], "namespace")) {
      out.push_back({f.display, tk[i].line, "hdr-using-namespace",
                     "using-namespace in a header leaks into every "
                     "includer"});
    }
  }
}

// ---- obs discipline ------------------------------------------------------

/// One cross-referenced observability enum: where it is defined, its
/// implementation file (uses there are not recording sites), whether a
/// program prints its values by name (then that file's string literals
/// form its name table), and the rule-id suffix its violations report
/// under.
struct obs_kind_spec {
  const char* kind;         ///< enum name (counter, span_kind, ...)
  const char* header;       ///< defining header, display path
  const char* name_source;  ///< implementation file, display path
  bool named;               ///< every value needs a name-table entry
  const char* rule_suffix;  ///< "counter" or "span"
};

constexpr obs_kind_spec kObsKinds[] = {
    {"counter", "src/obs/registry.h", "src/obs/registry.cpp", false,
     "counter"},
    {"series", "src/obs/registry.h", "src/obs/registry.cpp", false,
     "counter"},
    {"alert_kind", "src/obs/alerts.h", "src/obs/alerts.cpp", true, "counter"},
    {"span_kind", "src/obs/tracer.h", "src/obs/tracer.cpp", true, "span"},
    {"fault_kind", "src/fault/fault_program.h", "src/fault/fault_program.cpp",
     false, "counter"},
};

const obs_kind_spec* obs_kind(const std::string& kind) {
  for (const obs_kind_spec& spec : kObsKinds) {
    if (kind == spec.kind) return &spec;
  }
  return nullptr;
}

/// True when `display` defines or names `kind` — uses there are the
/// declaration and its exporter, not recording sites.
bool obs_defining_file(const obs_kind_spec& spec, const std::string& display) {
  return display == spec.header || display == spec.name_source;
}

struct obs_enum_value {
  std::string name;
  int line = 0;
};

struct obs_model {
  std::map<std::string, std::vector<obs_enum_value>> enums;  // kind → values
  /// kind → string literals in its name-table file.
  std::map<std::string, std::set<std::string>> name_tables;
};

/// Harvests any cross-referenced enums `f` defines (per kObsKinds).
void parse_obs_enums(const source_file& f, obs_model& model) {
  const std::vector<token>& tk = f.lex.tokens;
  for (std::size_t i = 0; i + 3 < tk.size(); ++i) {
    if (!is_ident(tk[i], "enum") || !is_ident(tk[i + 1], "class")) continue;
    const std::string kind = tk[i + 2].text;
    const obs_kind_spec* spec = obs_kind(kind);
    if (spec == nullptr || f.display != spec->header) continue;
    // Collect identifiers in enumerator position: after '{' or ','.
    std::size_t j = i + 3;
    while (j < tk.size() && !is_punct(tk[j], '{')) ++j;
    bool expect_name = true;
    for (++j; j < tk.size() && !is_punct(tk[j], '}'); ++j) {
      if (expect_name && tk[j].kind == token_kind::identifier) {
        if (tk[j].text != "count") {
          model.enums[kind].push_back({tk[j].text, tk[j].line});
        }
        expect_name = false;
      } else if (is_punct(tk[j], ',')) {
        expect_name = true;
      }
    }
  }
}

void collect_obs_usage(
    const source_file& f,
    std::map<std::string, std::map<std::string, int>>& usage) {
  const std::vector<token>& tk = f.lex.tokens;
  for (std::size_t i = 0; i + 3 < tk.size(); ++i) {
    if (tk[i].kind != token_kind::identifier) continue;
    const std::string& kind = tk[i].text;
    const obs_kind_spec* spec = obs_kind(kind);
    if (spec == nullptr || obs_defining_file(*spec, f.display)) continue;
    if (!is_punct(tk[i + 1], ':') || !is_punct(tk[i + 2], ':')) continue;
    if (tk[i + 3].kind != token_kind::identifier) continue;
    // Record first-seen line per (kind, value).
    usage[kind].emplace(tk[i + 3].text, tk[i + 3].line);
  }
}

void check_obs(const obs_model& model,
               const std::map<std::string,
                              std::map<std::string, int>>& usage,
               const std::map<std::string, std::string>& usage_file,
               std::vector<violation>& out) {
  // Each kind is checked only when its defining enum was actually in the
  // scan set (self-test snippets run on partial trees).
  for (const auto& [kind, values] : model.enums) {
    const obs_kind_spec& spec = *obs_kind(kind);
    const std::string suffix = spec.rule_suffix;
    const auto table_it = model.name_tables.find(kind);
    std::set<std::string> registered;
    for (const obs_enum_value& v : values) registered.insert(v.name);
    // Registered but never recorded/read anywhere else in the tree.
    const auto used_it = usage.find(kind);
    for (const obs_enum_value& v : values) {
      const bool used =
          used_it != usage.end() && used_it->second.count(v.name) > 0;
      if (!used) {
        out.push_back({spec.header, v.line, "obs-dead-" + suffix,
                       kind + "::" + v.name +
                           " is registered but never recorded or read "
                           "outside its defining files"});
      }
      const bool named =
          table_it != model.name_tables.end() &&
          table_it->second.count(v.name) > 0;
      if (spec.named && !named) {
        out.push_back({spec.header, v.line, "obs-unnamed-" + suffix,
                       kind + "::" + v.name + " missing from the " +
                           spec.name_source + " name table"});
      }
    }
    // Used but not part of the registered enum (tokenizer-level typo net;
    // the compiler catches most of these, but the name tables and JSON
    // emitters refer to values by spelling too).
    if (used_it != usage.end()) {
      for (const auto& [name, line] : used_it->second) {
        if (name == "count" || registered.count(name) > 0) continue;
        const auto file_it = usage_file.find(kind + "::" + name);
        out.push_back({file_it == usage_file.end() ? spec.header
                                                   : file_it->second,
                       line, "obs-unknown-" + suffix,
                       kind + "::" + name + " is not registered in " +
                           spec.header});
      }
    }
  }
}

// ---- suppression filtering ----------------------------------------------

bool suppressed(const source_file& f, const violation& v) {
  for (const allow_directive& d : f.allows) {
    if (std::find(d.rules.begin(), d.rules.end(), v.rule) == d.rules.end()) {
      continue;
    }
    if (!d.has_reason) continue;  // reasonless allows suppress nothing
    if (d.whole_file) return true;
    if (v.line == d.line) return true;
    if (d.own_line) {
      // A standalone allow covers the statement that follows: from the
      // next line holding code (explanatory comment lines in between are
      // fine) through the line of that statement's terminating ';' or
      // block-opening '{' — so multi-line expressions stay coverable
      // without sprinkling one allow per physical line.
      int first = 0;
      int last = 0;
      for (const token& t : f.lex.tokens) {
        if (t.line <= d.line) continue;
        if (first == 0) first = t.line;
        last = t.line;
        if (t.kind == token_kind::punct &&
            (t.text == ";" || t.text == "{")) {
          break;
        }
      }
      if (first != 0 && v.line >= first && v.line <= last) return true;
    }
  }
  return false;
}

// ---- driver --------------------------------------------------------------

struct lint_options {
  std::string root = ".";
  std::string report_path;
  bool verbose = false;
};

std::vector<violation> run_lint(std::vector<source_file>& files) {
  std::vector<violation> raw;
  std::set<std::string> unordered_names;
  std::set<std::string> rng_names;
  obs_model model;
  std::map<std::string, std::map<std::string, int>> obs_usage;
  std::map<std::string, std::string> obs_usage_file;

  for (source_file& f : files) {
    parse_directives(f, raw);
    if (f.in_src) collect_unordered_names(f, unordered_names);
    collect_rng_names(f, rng_names);
    parse_obs_enums(f, model);
    for (const obs_kind_spec& spec : kObsKinds) {
      if (!spec.named || f.display != spec.name_source) continue;
      for (const token& t : f.lex.tokens) {
        if (t.kind == token_kind::string_literal) {
          model.name_tables[spec.kind].insert(t.text);
        }
      }
    }
  }
  for (const source_file& f : files) {
    check_hot_regions(f, raw);
    if (f.in_src) {
      check_determinism(f, raw);
      check_shared_state(f, raw);
      check_unordered_iteration(f, unordered_names, raw);
    }
    check_rng_unsequenced(f, rng_names, raw);
    if (f.is_header) check_header(f, raw);
    std::map<std::string, std::map<std::string, int>> here;
    collect_obs_usage(f, here);
    for (const auto& [kind, values] : here) {
      for (const auto& [name, line] : values) {
        obs_usage[kind].emplace(name, line);
        obs_usage_file.emplace(kind + "::" + name, f.display);
      }
    }
  }
  check_obs(model, obs_usage, obs_usage_file, raw);

  std::vector<violation> kept;
  for (const violation& v : raw) {
    const auto file_it =
        std::find_if(files.begin(), files.end(), [&](const source_file& f) {
          return f.display == v.file;
        });
    if (file_it != files.end() && v.rule != "bad-suppression" &&
        suppressed(*file_it, v)) {
      continue;
    }
    kept.push_back(v);
  }
  std::sort(kept.begin(), kept.end(),
            [](const violation& a, const violation& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return kept;
}

source_file make_file(std::string display, std::string contents) {
  source_file f;
  f.display = std::move(display);
  f.is_header = f.display.size() >= 2 &&
                f.display.compare(f.display.size() - 2, 2, ".h") == 0;
  f.in_src = f.display.rfind("src/", 0) == 0;
  f.lex = lex(contents);
  return f;
}

int scan_tree(const lint_options& opts) {
  namespace fs = std::filesystem;
  const fs::path root{opts.root};
  std::vector<std::string> relative_paths;
  for (const char* dir :
       {"src", "bench", "tests", "tools", "mca_bench", "examples"}) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cpp") continue;
      relative_paths.push_back(
          fs::relative(entry.path(), root).generic_string());
    }
  }
  std::sort(relative_paths.begin(), relative_paths.end());

  std::vector<source_file> files;
  files.reserve(relative_paths.size());
  for (const std::string& rel : relative_paths) {
    std::ifstream in{root / rel, std::ios::binary};
    if (!in) {
      std::fprintf(stderr, "mca_lint: cannot read %s\n", rel.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    files.push_back(make_file(rel, buf.str()));
  }

  const std::vector<violation> violations = run_lint(files);

  std::ostringstream report;
  for (const violation& v : violations) {
    report << v.file << ":" << v.line << ": " << v.rule << ": " << v.message
           << "\n";
  }
  std::size_t region_count = 0;
  std::size_t allow_count = 0;
  for (const source_file& f : files) {
    region_count += f.regions.size();
    allow_count += f.allows.size();
  }
  report << "mca_lint: " << files.size() << " files, " << region_count
         << " hot-path regions, " << allow_count << " suppressions, "
         << violations.size() << " violations\n";

  std::fputs(report.str().c_str(), stdout);
  if (!opts.report_path.empty()) {
    std::ofstream out{opts.report_path};
    out << report.str();
  }
  return violations.empty() ? 0 : 1;
}

// ---- self test -----------------------------------------------------------

/// Runs the rules against embedded known-bad snippets and checks each
/// expected (rule, hit-count) — the lint's own regression suite, wired as
/// a second ctest invocation of this binary.
int self_test() {
  struct expectation {
    std::string rule;
    int count = 0;
  };
  struct snippet_case {
    const char* name;
    std::vector<std::pair<std::string, std::string>> files;
    std::vector<expectation> expected;
  };

  const std::string hot_bad =
      "void f() {\n"
      "  // mca:hot-path-begin(demo)\n"
      "  auto* p = new int[4];\n"
      "  std::map<int, int> m;\n"
      "  std::function<void()> g;\n"
      "  std::mutex mu;\n"
      "  if (!p) throw 1;\n"
      "  printf(\"x\");\n"
      "  std::vector<int> local;\n"
      "  local.push_back(3);\n"
      "  // mca:hot-path-end\n"
      "}\n";
  const std::string hot_reserved =
      "#pragma once\n"
      "inline void g() {\n"
      "  // mca:hot-path-begin(ok)\n"
      "  std::vector<int> local;\n"
      "  local.reserve(8);\n"
      "  local.push_back(3);\n"
      "  member_.push_back(4);\n"
      "  // mca:hot-path-end\n"
      "}\n";
  const std::string det_bad =
      "#include <chrono>\n"
      "double now() {\n"
      "  (void)std::chrono::system_clock::now();\n"
      "  (void)time(nullptr);\n"
      "  return (double)rand();\n"
      "}\n"
      "std::unordered_map<int, int> table;\n"
      "int sum() {\n"
      "  int s = 0;\n"
      "  for (const auto& [k, v] : table) s += v;\n"
      "  return s;\n"
      "}\n";
  const std::string det_allowed =
      "// mca-lint: allow-file(det-wallclock) timing harness, wall time is "
      "the measurement\n"
      "#pragma once\n"
      "#include <chrono>\n"
      "inline double t() {\n"
      "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
      "}\n";
  const std::string shared_bad =
      "#include <mutex>\n"
      "std::atomic<unsigned> next_id{0};\n"
      "std::shared_mutex table_lock;\n"
      "int f() { static std::recursive_mutex m; return 0; }\n";
  const std::string threads_bad =
      "#include <future>\n"
      "#include <thread>\n"
      "void f() {\n"
      "  std::thread t{[] {}};\n"
      "  std::jthread j{[] {}};\n"
      "  auto r = std::async(std::launch::async, [] { return 1; });\n"
      "  t.join();\n"
      "}\n";
  const std::string rng_bad =
      "void f(util::rng& r, util::rng* other, const dist& d) {\n"
      "  use(r.uniform(), r.uniform());\n"
      "  const double x = r.normal() + r.normal();\n"
      "  use(d.sample(r), d.sample(r));\n"
      "  pair p(r(), r.fork());\n"
      "  use(other->exponential(1.0) * other->lognormal(0.0, 1.0));\n"
      "}\n";
  const std::string rng_ok =
      "void f(util::rng& r, util::rng& s, const dist& d) {\n"
      "  const double a = r.uniform();\n"
      "  const double b = r.uniform();\n"
      "  const bool both = r.bernoulli(0.5) && r.bernoulli(0.5);\n"
      "  const bool either = r.bernoulli(0.5) || r.bernoulli(0.5);\n"
      "  const double c = (r.uniform(), r.uniform());\n"
      "  const double y = r.bernoulli(0.5) ? r.uniform() : r.normal();\n"
      "  const pair p{r.uniform(), r.uniform()};\n"
      "  use(r.uniform(), s.uniform());\n"
      "  out << d.sample(r) << d.sample(r);\n"
      "  if (r.bernoulli(0.5)) { use(r.uniform()); }\n"
      "  use(r.uniform_int(0, 3), 4 + other(7));\n"
      "}\n";
  const std::string hdr_bad =
      "#include <vector>\n"
      "using namespace std;\n"
      "inline int f() { return 1; }\n";
  const std::string suppress_no_reason =
      "void f() {\n"
      "  // mca:hot-path-begin(demo)\n"
      "  throw 1;  // mca-lint: allow(hot-throw)\n"
      "  // mca:hot-path-end\n"
      "}\n";
  const std::string suppress_ok =
      "void f() {\n"
      "  // mca:hot-path-begin(demo)\n"
      "  // mca-lint: allow(hot-throw) cold validation, fires once per bug\n"
      "  throw 1;\n"
      "  // mca:hot-path-end\n"
      "}\n";
  const std::string unbalanced =
      "void f() {\n"
      "  // mca:hot-path-begin(demo)\n"
      "}\n";
  const std::string hot_string =
      "void f(const std::string& name) {\n"
      "  // mca:hot-path-begin(demo)\n"
      "  std::string copy;\n"
      "  auto s = std::to_string(42);\n"
      "  const std::string& ref = name;\n"
      "  take(std::vector<std::string>{});\n"
      "  // mca:hot-path-end\n"
      "}\n";
  const std::string registry_h =
      "#pragma once\n"
      "enum class counter : int {\n"
      "  used_one,\n"
      "  dead_one,\n"
      "  count\n"
      "};\n";
  const std::string registry_cpp =
      "#include \"registry.h\"\n"
      "const char* name(counter c) { return \"used_one\"; }\n";
  const std::string registry_user =
      "void record() {\n"
      "  add(counter::used_one);\n"
      "  add(counter::typo_one);\n"
      "}\n";

  const std::string alerts_h =
      "#pragma once\n"
      "enum class alert_kind : int {\n"
      "  named_alert,\n"
      "  unnamed_alert,\n"
      "  count\n"
      "};\n";
  const std::string alerts_cpp =
      "#include \"alerts.h\"\n"
      "const char* name(alert_kind k) { return \"named_alert\"; }\n";
  const std::string alerts_user =
      "void fire() {\n"
      "  raise(alert_kind::named_alert);\n"
      "  raise(alert_kind::unnamed_alert);\n"
      "}\n";

  const std::string tracer_h =
      "#pragma once\n"
      "enum class span_kind : int {\n"
      "  used_span,\n"
      "  dead_span,\n"
      "  count\n"
      "};\n";
  const std::string tracer_cpp =
      "#include \"tracer.h\"\n"
      "const char* span_name(span_kind k) { return \"used_span\"; }\n";
  const std::string tracer_user =
      "void record() {\n"
      "  push(span_kind::used_span);\n"
      "  push(span_kind::typo_span);\n"
      "}\n";

  const std::vector<snippet_case> cases{
      {"hot-path bans fire",
       {{"src/demo/hot.cpp", hot_bad}},
       {{"hot-alloc", 2},
        {"hot-function", 1},
        {"hot-lock", 1},
        {"hot-throw", 1},
        {"hot-io", 1},
        {"hot-vector-growth", 1}}},
      {"reserved locals and member push_back pass",
       {{"src/demo/ok.h", hot_reserved}},
       {{"hot-vector-growth", 0}}},
      {"determinism bans fire in src/",
       {{"src/demo/det.cpp", det_bad}},
       {{"det-wallclock", 2}, {"det-random", 1}, {"det-unordered-iter", 1}}},
      {"determinism bans stay out of tests/",
       {{"tests/demo_det.cpp", det_bad}},
       {{"det-wallclock", 0}, {"det-random", 0}}},
      {"shared state fires in src/ outside src/exp/",
       {{"src/demo/shared.cpp", shared_bad}},
       {{"det-shared-state", 4}}},
      {"shared state passes in src/exp/ and tests/",
       {{"src/exp/pool.cpp", shared_bad}, {"tests/demo_pool.cpp", shared_bad}},
       {{"det-shared-state", 0}}},
      // Five: the #include <thread> line counts, as does each async.
      {"thread starts fire in src/ outside src/exp/",
       {{"src/demo/threads.cpp", threads_bad}},
       {{"det-shared-state", 5}}},
      {"thread starts pass in src/exp/",
       {{"src/exp/threads.cpp", threads_bad}},
       {{"det-shared-state", 0}}},
      {"allow-file suppresses with a reason",
       {{"src/demo/clock.h", det_allowed}},
       {{"det-wallclock", 0}, {"bad-suppression", 0}}},
      {"unsequenced draws from one rng fire, in tests/ too",
       {{"src/demo/draws.cpp", rng_bad}, {"tests/demo_draws.cpp", rng_bad}},
       {{"det-rng-unsequenced", 10}}},
      {"sequenced draws and draws from two rngs pass",
       {{"src/demo/draws_ok.cpp", rng_ok}},
       {{"det-rng-unsequenced", 0}}},
      {"header hygiene",
       {{"src/demo/bad.h", hdr_bad}},
       {{"hdr-guard", 1}, {"hdr-using-namespace", 1}}},
      {"allow without reason is rejected and suppresses nothing",
       {{"src/demo/sup.cpp", suppress_no_reason}},
       {{"bad-suppression", 1}, {"hot-throw", 1}}},
      {"own-line allow with reason covers the next line",
       {{"src/demo/sup_ok.cpp", suppress_ok}},
       {{"hot-throw", 0}, {"bad-suppression", 0}}},
      {"unbalanced hot region",
       {{"src/demo/unbalanced.cpp", unbalanced}},
       {{"hot-region", 1}}},
      {"string building fires in hot regions, references pass",
       {{"src/demo/strings.cpp", hot_string}},
       {{"hot-string-build", 2}}},
      {"obs cross-reference",
       {{"src/obs/registry.h", registry_h},
        {"src/obs/registry.cpp", registry_cpp},
        {"src/demo/user.cpp", registry_user}},
       {{"obs-dead-counter", 1},
        {"obs-unknown-counter", 1},
        {"obs-unnamed-counter", 0}}},
      {"printed kinds need a name-table entry",
       {{"src/obs/alerts.h", alerts_h},
        {"src/obs/alerts.cpp", alerts_cpp},
        {"src/demo/alert_user.cpp", alerts_user}},
       {{"obs-unnamed-counter", 1},
        {"obs-dead-counter", 0},
        {"obs-unknown-counter", 0}}},
      {"span coverage: every span kind needs a recording site and a name",
       {{"src/obs/tracer.h", tracer_h},
        {"src/obs/tracer.cpp", tracer_cpp},
        {"src/demo/spans.cpp", tracer_user}},
       {{"obs-dead-span", 1},
        {"obs-unknown-span", 1},
        {"obs-unnamed-span", 1},
        {"obs-dead-counter", 0}}},
  };

  int failures = 0;
  for (const snippet_case& c : cases) {
    std::vector<source_file> files;
    for (const auto& [path, body] : c.files) {
      files.push_back(make_file(path, body));
    }
    const std::vector<violation> got = run_lint(files);
    for (const expectation& e : c.expected) {
      const long n = std::count_if(
          got.begin(), got.end(),
          [&](const violation& v) { return v.rule == e.rule; });
      if (n != e.count) {
        std::fprintf(stderr,
                     "self-test FAIL [%s]: rule %s fired %ld times, "
                     "expected %d\n",
                     c.name, e.rule.c_str(), n, e.count);
        for (const violation& v : got) {
          std::fprintf(stderr, "  got %s:%d: %s: %s\n", v.file.c_str(),
                       v.line, v.rule.c_str(), v.message.c_str());
        }
        ++failures;
      }
    }
  }
  if (failures == 0) {
    std::printf("mca_lint self-test: %zu cases OK\n", cases.size());
    return 0;
  }
  return 1;
}

}  // namespace
}  // namespace mca::lint

int main(int argc, char** argv) {
  mca::lint::lint_options opts;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      opts.root = argv[++i];
    } else if (arg == "--report" && i + 1 < argc) {
      opts.report_path = argv[++i];
    } else if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: mca_lint [--root <dir>] [--report <file>] [--self-test]\n"
          "walks <dir>/{src,bench,tests,tools,mca_bench,examples} and "
          "enforces project invariants;\nexits nonzero on violations.\n");
      return 0;
    } else {
      std::fprintf(stderr, "mca_lint: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (self_test) return mca::lint::self_test();
  return mca::lint::scan_tree(opts);
}
