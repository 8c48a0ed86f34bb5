// Shared helpers for the figure-reproduction benches.
//
// Every bench prints (1) the figure's data series as CSV to stdout so the
// plot can be regenerated with gnuplot, and (2) [CHECK] lines asserting
// the *shape* statements the paper makes (who wins, by what factor, where
// the knee is).  A bench exits nonzero if any check fails.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mca::bench {

/// Prints a section banner.
inline void section(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

/// Records and prints one shape check; returns the running failure count
/// delta (0 ok, 1 failed).
class check_list {
 public:
  void expect(bool condition, const std::string& label,
              const std::string& detail) {
    std::printf("[CHECK] %-58s %s  (%s)\n", label.c_str(),
                condition ? "PASS" : "FAIL", detail.c_str());
    if (!condition) ++failures_;
  }

  /// Prints the summary line and returns the process exit code.
  int finish(const std::string& bench_name) const {
    if (failures_ == 0) {
      std::printf("\n%s: all shape checks passed\n", bench_name.c_str());
      return 0;
    }
    std::printf("\n%s: %d shape check(s) FAILED\n", bench_name.c_str(),
                failures_);
    return 1;
  }

 private:
  int failures_ = 0;
};

/// Formats "x.xx times" ratios for check details.
inline std::string ratio_detail(const char* name, double value) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s = %.3f", name, value);
  return buf;
}

// ---- CLI flags -----------------------------------------------------------
// The perf harnesses share a tiny "--flag value" convention (fig_suite:
// --jobs/--seeds/--scenario/..., fleet_scale: --trace/--health/...).

/// One flag a bench accepts, and whether a value follows it.
struct accepted_flag {
  std::string_view name;
  bool takes_value = false;
};

/// Exits with status 2, before the bench runs or writes anything, when
/// argv holds an argument that is not one of `accepted` or a value flag
/// with no value: the helpers below ignore what they do not look for, so
/// a typo'd flag (or --help) would otherwise run the default suite and
/// overwrite its output.  The message names the bench, the bad argument
/// and the accepted flags.
inline void reject_unknown_flags(
    int argc, char** argv, const char* bench_name,
    std::initializer_list<accepted_flag> accepted) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto match = std::find_if(
        accepted.begin(), accepted.end(),
        [arg](const accepted_flag& flag) { return flag.name == arg; });
    const bool known = match != accepted.end();
    if (known && !match->takes_value) continue;
    if (known && i + 1 < argc) {
      ++i;  // the flag's value
      continue;
    }
    std::fprintf(stderr, "%s: %s '%s'; accepted:", bench_name,
                 known ? "missing value after" : "unknown argument", argv[i]);
    for (const accepted_flag& flag : accepted) {
      std::fprintf(stderr, " %.*s%s", static_cast<int>(flag.name.size()),
                   flag.name.data(), flag.takes_value ? " VALUE" : "");
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
}

/// The value following `flag` in argv, if present.
inline std::optional<std::string> flag_value(int argc, char** argv,
                                             const std::string& flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) return std::string{argv[i + 1]};
  }
  return std::nullopt;
}

/// True when the bare `flag` appears in argv.
inline bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

/// Strictly parsed positive "--flag N"; exits rather than letting a typo
/// (e.g. "--replications x" -> 0) degrade a suite into a vacuous run.
/// `bench_name` prefixes the error message.
inline std::size_t flag_count(int argc, char** argv, const std::string& flag,
                              std::size_t fallback, const char* bench_name) {
  const auto value = flag_value(argc, argv, flag);
  if (!value) return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value->c_str(), &end, 10);
  if (value->empty() || end == nullptr || *end != '\0' || parsed == 0) {
    std::fprintf(stderr, "%s: %s needs a positive integer, got '%s'\n",
                 bench_name, flag.c_str(), value->c_str());
    std::exit(2);
  }
  return static_cast<std::size_t>(parsed);
}

/// Parses a comma-separated integer list ("2017,2018,2019").  Strict:
/// returns an empty vector when any item fails to parse, so callers can
/// distinguish a typo from a valid list.
inline std::vector<std::uint64_t> parse_id_list(const std::string& text) {
  std::vector<std::uint64_t> ids;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item =
        text.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!item.empty()) {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(item.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') return {};
      ids.push_back(parsed);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return ids;
}

}  // namespace mca::bench
