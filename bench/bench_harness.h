#ifndef CAR_BENCH_BENCH_HARNESS_H_
#define CAR_BENCH_BENCH_HARNESS_H_

// What the plain-main bench drivers share: flag parsing, a stopwatch,
// best-of timing that alternates the two sides of a cell, the lazy-vs-eager
// cell of the lazy benches, a percentile helper and a JSON-lines emitter.
// A driver writes one flat object per record, one record per line, to its
// BENCH_*.json; bench/check_bench.py reads those files with a stock JSON
// parser, so the emitter escapes strings properly and never emits NaN/Inf
// (non-finite doubles are written as null).

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "reasoner/reasoner.h"

namespace car {
namespace bench {

struct Flags {
  int threads = 1;
  std::string out_path;
};

/// Parses `--threads=N` (N a non-negative decimal) and, when `default_out`
/// is non-null, `--out=FILE`. Any other argument, or a malformed value,
/// prints a usage line and exits with status 2.
inline Flags ParseFlags(int argc, char** argv, int default_threads,
                        const char* default_out) {
  Flags flags{default_threads, default_out == nullptr ? "" : default_out};
  auto usage = [&]() {
    std::fprintf(stderr, "usage: %s [--threads=N]%s\n", argv[0],
                 default_out == nullptr ? "" : " [--out=FILE]");
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, 10) == "--threads=") {
      const std::string_view value = arg.substr(10);
      const char* end = value.data() + value.size();
      auto [stop, error] = std::from_chars(value.data(), end, flags.threads);
      if (value.empty() || error != std::errc() || stop != end ||
          flags.threads < 0) {
        usage();
      }
    } else if (default_out != nullptr && arg.substr(0, 6) == "--out=" &&
               arg.size() > 6) {
      flags.out_path = arg.substr(6);
    } else {
      usage();
    }
  }
  return flags;
}

/// Wall-clock milliseconds since construction.
class Stopwatch {
 public:
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_ = Clock::now();
};

/// A timed side of a cell runs at least kTimedReps times and reports its
/// best time; BestMsInTurn also keeps going until the cell has spent
/// kTimedBudgetMs, so the sub-millisecond cells get many more runs.
constexpr int kTimedReps = 3;
constexpr double kTimedBudgetMs = 100;

/// Calls `a` and `b` in turn, each returning the wall time (ms) of one run
/// on fresh state, and returns the smallest time of each. Taking turns
/// lands a slow stretch of the machine on both sides alike, and the
/// minimum smooths the rest of the scheduler noise, which on the small
/// cells is as large as the gaps the wall relations in
/// bench/check_bench.py hold.
template <typename A, typename B>
std::pair<double, double> BestMsInTurn(const A& a, const B& b) {
  std::pair<double, double> best = {a(), b()};
  double spent = best.first + best.second;
  for (int rep = 1; rep < kTimedReps || spent < kTimedBudgetMs; ++rep) {
    const double ms_a = a();
    const double ms_b = b();
    best = {std::min(best.first, ms_a), std::min(best.second, ms_b)};
    spent += ms_a + ms_b;
  }
  return best;
}

/// A lazy-bench cell: eager CheckSchema against the lazy engine.
struct LazyVsEager {
  Result<SatReport> eager = SatReport();
  Result<SatReport> lazy = SatReport();  // The serial run.
  double eager_ms = 0;
  double lazy_ms = 0;
  bool identical = true;
};

/// Runs eager (ungoverned: a cap trip arrives as an error status, which
/// just marks the cell eager-incomplete) and the serial lazy engine in
/// turn on fresh reasoners, keeping each one's best time, then the lazy
/// engine at 2 and 8 threads. `identical` holds when every lazy run agrees
/// classwise with the serial one, and that one with eager where eager
/// completed. False, after saying why, when a lazy run fails.
inline bool RunLazyVsEager(const Schema& schema, int eager_threads,
                           LazyVsEager* cell) {
  auto timed_check = [&schema](ReasonerOptions options,
                               Result<SatReport>* report) {
    return [&schema, options, report] {
      Reasoner reasoner(&schema, options);
      Stopwatch watch;
      *report = reasoner.CheckSchema();
      return watch.ElapsedMs();
    };
  };
  ReasonerOptions eager_options;
  eager_options.num_threads = eager_threads;
  ReasonerOptions lazy_options;
  lazy_options.lazy_expansion = true;
  std::tie(cell->eager_ms, cell->lazy_ms) =
      BestMsInTurn(timed_check(eager_options, &cell->eager),
                   timed_check(lazy_options, &cell->lazy));
  if (!cell->lazy.ok()) {
    std::fprintf(stderr, "lazy: %s\n", cell->lazy.status().ToString().c_str());
    return false;
  }
  const SatReport& lazy = *cell->lazy;
  cell->identical = !cell->eager.ok() ||
                    (cell->eager->verdict == lazy.verdict &&
                     cell->eager->class_satisfiable == lazy.class_satisfiable);
  for (int threads : {2, 8}) {
    lazy_options.num_threads = threads;
    auto report = Reasoner(&schema, lazy_options).CheckSchema();
    if (!report.ok()) {
      std::fprintf(stderr, "lazy threads=%d: %s\n", threads,
                   report.status().ToString().c_str());
      return false;
    }
    cell->identical = cell->identical &&
                      report->class_satisfiable == lazy.class_satisfiable;
  }
  return true;
}

/// The value at rank floor(p/100 * n) of the sorted values (clamped to the
/// last); zero for no values.
template <typename T>
T Percentile(std::vector<T> values, double p) {
  if (values.empty()) return T{};
  std::sort(values.begin(), values.end());
  size_t index = static_cast<size_t>(p / 100.0 * values.size());
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

/// One flat JSON object, built field by field in insertion order.
class JsonRecord {
 public:
  JsonRecord& Add(const std::string& key, const std::string& value) {
    fields_.emplace_back(Escape(key), Escape(value));
    return *this;
  }
  JsonRecord& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  JsonRecord& Add(const std::string& key, bool value) {
    return AddRaw(key, value ? "true" : "false");
  }
  JsonRecord& Add(const std::string& key, uint64_t value) {
    return AddRaw(key, std::to_string(value));
  }
  JsonRecord& Add(const std::string& key, int value) {
    return AddRaw(key, std::to_string(value));
  }
  JsonRecord& Add(const std::string& key, double value) {
    if (!std::isfinite(value)) return AddRaw(key, "null");
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
    return AddRaw(key, buffer);
  }

  std::string ToString() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += fields_[i].first;
      out += ":";
      out += fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  JsonRecord& AddRaw(const std::string& key, std::string raw) {
    fields_.emplace_back(Escape(key), std::move(raw));
    return *this;
  }

  static std::string Escape(const std::string& text) {
    std::string out = "\"";
    for (char c : text) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buffer[8];
        std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
        out += buffer;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// A JSON-lines output file; every Write appends one record line and
/// flushes (bench drivers are often killed by deadline sweeps — partial
/// artifacts should still parse line by line). A file that cannot be
/// opened is reported on stderr and leaves ok() false.
class JsonLinesFile {
 public:
  explicit JsonLinesFile(const std::string& path) : out_(path) {
    if (!out_) std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
  }
  bool ok() const { return static_cast<bool>(out_); }
  void Write(const JsonRecord& record) {
    out_ << record.ToString() << '\n' << std::flush;
  }

 private:
  std::ofstream out_;
};

}  // namespace bench
}  // namespace car

#endif  // CAR_BENCH_BENCH_HARNESS_H_
